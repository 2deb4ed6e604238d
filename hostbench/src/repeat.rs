//! `hostbench --repeat AxB`: evidence that two sets of runs of the same
//! code agree within the benchmark's own bounds.
//!
//! Runs every workload `B` times in each of `A` interleaved sets (set 0
//! run 0, set 1 run 0, set 0 run 1, …, so that slow drift of the host
//! hits all sets alike), each run a child of this executable with
//! tracing off and a seed of its own. Then, per workload and metric:
//! each set's median, the spread of each set (distance between the first
//! and third quartile over the median), and by how much a later set's
//! median is worse than the first's. A metric passes when every spread
//! and every such gap stays within its bound; `setup_s` is judged on
//! the gap alone.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::proc;
use crate::report::{self, Report};
use crate::workload::Workload;

/// One child's result, with the digest line it printed.
struct RunResult {
    report: Report,
    digest: String,
}

fn run_child(workload: Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let me = std::env::current_exe().map_err(|e| format!("no current_exe: {e}"))?;
    let out = Command::new(me)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run hostbench: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = stdout
        .lines()
        .last()
        .and_then(report::parse_json_line)
        .ok_or(format!("{} seed {seed}: no result line", workload.name()))?;
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# artifact_digest "))
        .unwrap_or("")
        .to_owned();
    Ok(RunResult { report, digest })
}

/// By how much `later` is worse than `first`, as a share of `first`
/// (negative = better).
fn worse_by(def: &MetricDef, first: f64, later: f64) -> f64 {
    match def.better {
        Better::Lower => (later - first) / first,
        Better::Higher => (first - later) / first,
    }
}

/// Judges one metric of one workload over the sets' values. Returns the
/// printed row and whether it passed.
fn judge(def: &MetricDef, sets: &[Vec<f64>]) -> (String, bool) {
    let bound = def.bound.expect("end-to-end metrics have bounds");
    let medians: Vec<f64> = sets.iter().map(|v| proc::median(v)).collect();
    let spreads: Vec<f64> = sets
        .iter()
        .zip(&medians)
        .map(|(v, m)| {
            let (q1, q3) = proc::quartiles(v);
            (q3 - q1) / m
        })
        .collect();
    let gaps: Vec<f64> = medians[1..]
        .iter()
        .map(|&m| worse_by(def, medians[0], m))
        .collect();
    // With fewer than two runs a set has no quartiles; only the gap is
    // judged then.
    let spread_ok = def.name == "setup_s" || spreads.iter().all(|s| s.is_nan() || *s <= bound);
    let gap_ok = gaps.iter().all(|g| *g <= bound);
    let pass = spread_ok && gap_ok;
    let list = |xs: &[f64], scale: f64| {
        xs.iter()
            .map(|x| format!("{:.4}", x * scale))
            .collect::<Vec<_>>()
            .join(" / ")
    };
    let row = format!(
        "  {:<18} {:<4} medians {}   spread% {}   worse-by% {}   bound% {:.1}   {}",
        def.name,
        def.unit,
        list(&medians, 1.0),
        list(&spreads, 100.0),
        list(&gaps, 100.0),
        bound * 100.0,
        if pass { "PASS" } else { "FAIL" }
    );
    (row, pass)
}

/// Runs the sets and prints the verdicts. `Ok(false)` when any metric
/// fails or any run is incorrect.
///
/// # Errors
///
/// Returns a message when a child cannot be run or prints no result.
pub fn run(sets: usize, runs: usize, base_seed: u64, seconds: f64) -> Result<bool, String> {
    // values[workload][metric][set] = one value per run
    let mut values: BTreeMap<(usize, &'static str), Vec<Vec<f64>>> = BTreeMap::new();
    let mut digests: BTreeMap<(usize, u64), Vec<String>> = BTreeMap::new();
    let mut all_correct = true;
    for run in 0..runs {
        // Both sets use the same seed for run `run`, so their artifacts
        // must be byte-identical; across runs the seed changes.
        let seed = base_seed + run as u64;
        for set in 0..sets {
            for (w, workload) in Workload::ALL.into_iter().enumerate() {
                eprintln!(
                    "[repeat] set {set} run {run} {} seed {seed}",
                    workload.name()
                );
                let r = run_child(workload, seed, seconds)?;
                all_correct &= r.report.correct && r.report.failed == 0;
                digests.entry((w, seed)).or_default().push(r.digest);
                for (name, _, v) in &r.report.metrics {
                    let per_set = values
                        .entry((w, name))
                        .or_insert_with(|| vec![Vec::new(); sets]);
                    per_set[set].push(*v);
                }
            }
        }
    }
    let mut pass = all_correct;
    println!("# hostbench --repeat {sets}x{runs}, --seconds {seconds}, seeds {base_seed}..");
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        println!("{}", workload.name());
        for def in END_TO_END {
            let (row, ok) = judge(def, &values[&(w, def.name)]);
            println!("{row}");
            pass &= ok;
        }
        let same = digests
            .iter()
            .filter(|((dw, _), _)| *dw == w)
            .all(|(_, d)| !d[0].is_empty() && d.iter().all(|x| *x == d[0]));
        println!(
            "  artifact digests equal across sets for every seed: {}",
            if same { "PASS" } else { "FAIL" }
        );
        pass &= same;
    }
    println!(
        "# all runs correct: {}",
        if all_correct { "PASS" } else { "FAIL" }
    );
    println!("# verdict: {}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn steady_sets_pass_and_a_drifted_set_fails() {
        let d = def("host_wall_s");
        let bound = d.bound.unwrap();
        let a = vec![1.00, 1.01, 0.99, 1.00, 1.02];
        let scaled = |f: f64| a.iter().map(|x| x * f).collect::<Vec<f64>>();
        let (_, ok) = judge(d, &[a.clone(), scaled(1.0 + bound / 3.0)]);
        assert!(ok, "a third of the bound worse is inside it");
        let (row, ok) = judge(d, &[a.clone(), scaled(1.0 + 2.0 * bound)]);
        assert!(!ok && row.ends_with("FAIL"), "{row}");
        // Getting better never fails.
        assert!(judge(d, &[a.clone(), scaled(0.5)]).1);
    }

    #[test]
    fn a_noisy_set_fails_on_spread_except_for_setup() {
        let noisy = vec![1.0, 1.5, 0.7, 1.3, 0.8];
        let (_, ok) = judge(def("host_wall_s"), &[noisy.clone(), noisy.clone()]);
        assert!(!ok, "spread beyond the bound");
        let (_, ok) = judge(def("setup_s"), &[noisy.clone(), noisy]);
        assert!(ok, "setup_s is judged on the medians' gap alone");
    }

    #[test]
    fn higher_is_better_flips_the_gap() {
        let d = def("host_work_per_s");
        assert!(worse_by(d, 100.0, 80.0) > 0.19);
        assert!(worse_by(d, 100.0, 120.0) < 0.0);
        assert!(worse_by(def("host_wall_s"), 100.0, 120.0) > 0.19);
    }
}
