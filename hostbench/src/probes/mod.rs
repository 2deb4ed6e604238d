//! (P) probes: loops of calls into the layers' public functions, timed
//! in a child of their own so that they run pinned like the workloads.
//!
//! `hostbench --probes …` is that child. It prints one line per result,
//! `P <metric> <value> <start_ns> <end_ns>`, which the traced parent
//! turns into metrics and `probe.<metric>` spans.
//!
//! Only foundational public APIs are called, ones the repository's own
//! tests, apps and benches already pin. Deliberately not probed:
//! `ShardedEventQueue`/`ShardMap`, `sim::explore` and the
//! `harness::{sweep,serve,faults}` library entry points, which ROADMAP
//! items 2b and 3 may delete or merge.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::workload::Workload;

mod core;
mod net;
mod sim;
pub mod walk;

/// Timed samples per probe; the minimum is reported, because the work is
/// identical and host noise only adds. Five short samples rather than
/// three long ones: on a shared host a sample is good only if the
/// hypervisor left it alone, and short ones more often are.
const SAMPLES: usize = 5;
/// Least duration of one sample.
const SAMPLE_AT_LEAST: Duration = Duration::from_millis(25);

/// Minimum over [`SAMPLES`] samples of nanoseconds per call of `f`, each
/// sample running enough calls to last [`SAMPLE_AT_LEAST`].
pub(crate) fn per_call_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(20));
    let iters = (SAMPLE_AT_LEAST.as_nanos() / once.as_nanos()).clamp(1, 10_000_000) as u32;
    // The first call paid for cold caches; one untimed sample warms up
    // and corrects the estimate for cheap calls.
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let warm = t0.elapsed().max(Duration::from_nanos(1));
    let iters = ((u128::from(iters) * SAMPLE_AT_LEAST.as_nanos() / warm.as_nanos())
        .clamp(1, 100_000_000)) as u32;
    (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Minimum over [`SAMPLES`] of what `f` returns (for probes that time a
/// whole run themselves and divide by a count of their own).
pub(crate) fn min_of_runs(mut f: impl FnMut() -> f64) -> f64 {
    (0..SAMPLES).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Sink the probes report into: prints the line protocol.
#[derive(Debug)]
pub(crate) struct Out {
    origin: Instant,
}

impl Out {
    /// Runs `f`, a probe yielding `value`, and prints its line.
    pub(crate) fn probe(&self, metric: &str, f: impl FnOnce() -> f64) {
        let start = self.origin.elapsed().as_nanos();
        let value = f();
        let end = self.origin.elapsed().as_nanos();
        println!("P {metric} {value} {start} {end}");
    }

    /// Prints a value that is not a timing of its own (no span).
    pub(crate) fn value(&self, metric: &str, value: f64) {
        let now = self.origin.elapsed().as_nanos();
        println!("P {metric} {value} {now} {now}");
    }
}

/// One parsed `P` line.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeLine {
    pub metric: String,
    pub value: f64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Parses the child's standard output.
pub fn parse_lines(stdout: &str) -> Vec<ProbeLine> {
    stdout
        .lines()
        .filter_map(|l| {
            let mut f = l.strip_prefix("P ")?.split_whitespace();
            Some(ProbeLine {
                metric: f.next()?.to_owned(),
                value: f.next()?.parse().ok()?,
                start_ns: f.next()?.parse().ok()?,
                end_ns: f.next()?.parse().ok()?,
            })
        })
        .collect()
}

/// Entry point of the `--probes` child. `args` is either `baton` (only
/// the baton round-trip, for the unpinned comparison) or
/// `all <workload> <seed> <artifact>`.
///
/// # Errors
///
/// Returns a usage message for anything else.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let out = Out {
        origin: Instant::now(),
    };
    match args {
        [only] if only == "baton" => {
            out.probe("sim.baton_roundtrip_ns", sim::baton_roundtrip_ns);
            Ok(())
        }
        [all, workload, seed, artifact] if all == "all" => {
            let workload = Workload::parse(workload).ok_or("unknown workload")?;
            let seed: u64 = seed.parse().map_err(|_| "bad seed")?;
            let text = std::fs::read_to_string(artifact)
                .map_err(|e| format!("cannot read {artifact}: {e}"))?;
            sim::run_all(&out, &text);
            net::run_all(&out);
            core::run_all(&out);
            walk::run(&out, workload, seed);
            Ok(())
        }
        _ => Err("usage: hostbench --probes baton | all WORKLOAD SEED ARTIFACT".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_protocol_round_trips() {
        let lines = parse_lines("noise\nP sim.x_ns 12.5 100 200\nP bad\nP core.y_us 3 7 9\n");
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            ProbeLine {
                metric: "sim.x_ns".into(),
                value: 12.5,
                start_ns: 100,
                end_ns: 200
            }
        );
        assert_eq!(lines[1].metric, "core.y_us");
    }

    #[test]
    fn per_call_time_grows_with_the_work() {
        let spin = |n: u64| move || (0..n).fold(0u64, |a, x| a.wrapping_add(black_box(x)));
        let small = per_call_ns(spin(100));
        let large = per_call_ns(spin(10_000));
        assert!(small > 0.0);
        assert!(large > 10.0 * small, "{small} vs {large}");
    }
}
