//! `hostbench`: a pinned, CLI-driven benchmark of `cvm`'s host time and
//! virtual time, with a per-layer probe ledger. See `README.md` beside
//! this crate for the metric and workload glossary.
//!
//! ```text
//! hostbench --workload NAME --seed S --seconds N --trace 0|1
//! hostbench --list | --self-test | --repeat AxB [--seconds N]
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Instant;

mod artifact;
mod child;
mod derived;
mod measure;
mod metrics;
mod probes;
mod proc;
mod repeat;
mod report;
mod run;
mod selftest;
mod spans;
mod workload;

use workload::Workload;

const USAGE: &str = "usage: hostbench --workload NAME [--seed S] [--seconds N] [--trace 0|1]
       hostbench --list
       hostbench --self-test
       hostbench --repeat AxB [--seed S] [--seconds N]
workloads: sweep-batch serve-ladder scale-128 dpor-sor faults-lossy";

/// Default seed, and default cap on the timed phase of one run (the
/// same value BENCHMARK.json's `run_seconds` carries).
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    repeat: Option<(usize, usize)>,
}

fn parse_repeat(v: &str) -> Option<(usize, usize)> {
    let (a, b) = v.split_once(['x', '×'])?;
    let (a, b) = (a.parse().ok()?, b.parse().ok()?);
    (a >= 2 && b >= 1).then_some((a, b))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or(format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                out.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                out.seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?,
                );
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--repeat" => {
                out.repeat = Some(parse_repeat(value()?).ok_or("--repeat takes AxB, A >= 2")?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn real_main(started: Instant) -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--list") => {
            print!("{}", metrics::list());
            return Ok(true);
        }
        Some("--self-test") => return selftest::run().map(|()| true),
        Some("--probes") => return probes::child_main(&argv[1..]).map(|()| true),
        _ => {}
    }
    let args = parse_args(&argv)?;
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    if let Some((sets, runs)) = args.repeat {
        return repeat::run(sets, runs, seed, seconds);
    }
    let workload = args.workload.ok_or("--workload is required")?;
    let report = if args.trace {
        run::traced(workload, seed, seconds)?
    } else {
        run::end_to_end(workload, seed, seconds, started)?
    };
    report.print();
    Ok(report.correct)
}

fn main() -> ExitCode {
    let started = Instant::now();
    match real_main(started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("hostbench: FAILED: an output check did not pass");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|&a| a.to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&[
            "--workload",
            "serve-ladder",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workload, Some(Workload::ServeLadder));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(10.0), true));
    }

    #[test]
    fn bad_arguments_are_messages_not_panics() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seed"],
            &["--seconds", "0"],
            &["--seconds", "-3"],
            &["--trace", "2"],
            &["--repeat", "1x5"],
            &["--repeat", "2"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn repeat_takes_both_multiplication_signs() {
        assert_eq!(parse_repeat("2x5"), Some((2, 5)));
        assert_eq!(parse_repeat("2×5"), Some((2, 5)));
        assert_eq!(parse_repeat("3x10"), Some((3, 10)));
        assert_eq!(parse_repeat("2x0"), None);
    }
}
