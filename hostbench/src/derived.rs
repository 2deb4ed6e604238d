//! (D) metrics that come from running other `cvm` commands: the floor
//! under every wall time, the gate, span recording, the random checker
//! and the paper-accuracy figure.

use crate::child;
use crate::measure::Env;
use crate::proc;
use crate::spans::Spans;

/// Repetitions of each command; the minimum wall time is kept.
const RUNS: usize = 3;

fn strs(args: &[&str]) -> Vec<String> {
    args.iter().map(|&a| a.to_owned()).collect()
}

/// Minimum wall milliseconds of `cvm args…` over [`RUNS`] pinned runs,
/// and the last run's standard output. Exit codes are not judged here:
/// `cvm --help` exits 2 by design.
fn min_wall_ms(env: &Env, args: &[String], spans: &mut Spans, parent: u32) -> (f64, String) {
    let mut walls = Vec::new();
    let mut stdout = String::new();
    for _ in 0..RUNS {
        if let Ok(rep) = child::run(&env.pin, &env.cvm, args, spans, parent) {
            walls.push(rep.wall_s * 1e3);
            stdout = rep.stdout;
        }
    }
    (proc::min(&walls), stdout)
}

/// Mean of |measured − paper| / paper over the rows of `cvm micro`, in
/// percent: the repository's only reference-accuracy figure. Rows end
/// `… <paper> <measured> <deviation>%`.
pub fn micro_paper_err_pct(stdout: &str) -> Option<f64> {
    let errs: Vec<f64> = stdout
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace().rev();
            f.next()?.strip_suffix('%')?;
            let measured: f64 = f.next()?.parse().ok()?;
            let paper: f64 = f.next()?.parse().ok()?;
            (paper > 0.0).then(|| (measured - paper).abs() / paper * 100.0)
        })
        .collect();
    (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64)
}

/// Runs the derived commands; returns `(metric, value)` pairs.
pub fn run_all(env: &Env, spans: &mut Spans, parent: u32) -> Vec<(&'static str, f64)> {
    let mut timed = |what: &str, args: &[&str]| {
        let span = spans.open(parent, &format!("derived.{what}"));
        let result = min_wall_ms(env, &strs(args), spans, span);
        spans.close(span);
        result
    };
    let (startup_ms, _) = timed("cli_startup", &["--help"]);
    let artifact = env.artifact_path().display().to_string();
    let (gate_ms, _) = timed(
        "gate_self",
        &["bench", "--baseline", &artifact, "--current", &artifact],
    );
    // `--scale tiny` keeps the race-replay path to ~0.1 s; at the default
    // scale 30 schedules take 40 s.
    let (check_ms, _) = timed(
        "check_random",
        &[
            "check",
            "--app",
            "sor",
            "--schedules",
            "30",
            "--scale",
            "tiny",
        ],
    );
    // Ocean, not SOR: 0.25 s against 1.4 s a run, and far more faults and
    // barriers per second for the span recorder to see.
    let (plain_ms, _) = timed("spans_off", &["run", "ocean", "--nodes", "4"]);
    let (spans_ms, _) = timed("spans_on", &["run", "ocean", "--nodes", "4", "--spans"]);
    let (_, micro) = timed("micro", &["micro"]);
    vec![
        ("harness.cli_startup_ms", startup_ms),
        ("harness.gate_self_ms", gate_ms),
        ("verify.check_random_ms", check_ms),
        (
            "core.spans_overhead_pct",
            (spans_ms - plain_ms) / plain_ms * 100.0,
        ),
        (
            "harness.micro_paper_err_pct",
            micro_paper_err_pct(&micro).unwrap_or(f64::NAN),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_table_rows_parse() {
        let table = "== Section 4.1 microbenchmarks (paper vs measured) ==\n\
            operation              paper(us)  measured(us)  deviation\n\
            2-hop lock acquire           937         937.3       0.0%\n\
            remote page fault           1100        1171.4       6.5%\n\
            thread switch                  8           8.0       0.0%\n";
        let err = micro_paper_err_pct(table).expect("rows found");
        let want = (0.3 / 937.0 + 71.4 / 1100.0 + 0.0) / 3.0 * 100.0;
        assert!((err - want).abs() < 1e-9, "{err} vs {want}");
        assert_eq!(micro_paper_err_pct("no rows here\n"), None);
    }
}
