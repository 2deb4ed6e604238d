//! `cvm bench` — run the whole application suite once per app under
//! the standard configuration and emit machine-readable reports.
//!
//! Each app produces one `BENCH_<app>.json` file: the full
//! [`RunReport`](cvm_dsm::RunReport) JSON (histograms, hot-resource
//! attribution, per-node breakdowns, traffic) wrapped with the run's
//! configuration, so regression tooling can diff runs without parsing
//! console text.

use cvm_apps::{AppId, Scale};
use cvm_sim::json::JsonValue;

use crate::runner::{grid, run_app, RunOutcome, RunSpec};

/// Hot-resource table depth used in bench reports.
pub const TOP_N: usize = 10;

/// File-name slug for an app (`SOR` → `sor`, `Water-Nsq` → `water_nsq`).
pub fn slug(app: AppId) -> String {
    app.name().to_lowercase().replace('-', "_")
}

/// The report file name for one app: `BENCH_<app>.json`.
pub fn file_name(app: AppId) -> String {
    format!("BENCH_{}.json", slug(app))
}

/// The span-summary artifact name, one file for the whole suite.
pub const OBS_FILE: &str = "BENCH_obs.json";

/// Runs every application once at `nodes`×`threads` (skipping apps that
/// reject the thread count), with span recording switched on or off, on
/// one worker per core, and returns the outcomes in suite order.
pub fn run_suite(scale: Scale, nodes: usize, threads: usize, spans: bool) -> Vec<RunOutcome> {
    let cells = grid(scale, &AppId::ALL, &[nodes], &[threads]);
    crate::campaign::run("cvm", 0, cells, RunOutcome::done_label, |_, spec| {
        run_app(RunSpec { spans, ..spec })
    })
}

/// The suite's span summaries as one `BENCH_obs.json` document: per-app
/// span aggregates (p50/p99/p999 per kind) and the whole-run critical
/// path, without the per-span records — small enough to commit as a
/// baseline and diff with `cvm bench --baseline`.
pub fn obs_json(outcomes: &[RunOutcome]) -> JsonValue {
    let mut obj = JsonValue::object();
    obj.set("schema", "cvm-obs");
    let mut apps = JsonValue::array();
    for o in outcomes {
        let Some(spans) = &o.report.spans else {
            continue;
        };
        let mut row = JsonValue::object();
        row.set("app", slug(o.spec.app));
        row.set("nodes", o.spec.nodes);
        row.set("threads", o.spec.threads);
        row.set("seed", o.spec.seed);
        row.set("total_ns", o.report.total_time.as_ns());
        row.set("spans", spans.summary_json(o.report.total_time));
        apps.push(row);
    }
    obj.set("apps", apps);
    obj
}

/// One outcome as a bench JSON document: configuration + full report.
pub fn to_json(outcome: &RunOutcome) -> JsonValue {
    let mut obj = JsonValue::object();
    obj.set("app", slug(outcome.spec.app));
    obj.set("nodes", outcome.spec.nodes);
    obj.set("threads", outcome.spec.threads);
    obj.set("scale", outcome.spec.scale.slug());
    obj.set("seed", outcome.spec.seed);
    obj.set("report", outcome.report.to_json(TOP_N));
    obj
}

/// Renders the one-line-per-app console summary.
pub fn render_summary(outcomes: &[RunOutcome]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>8} {:>8} {:>10} {:>12} {:>12}",
        "app", "time ms", "faults", "locks", "msgs", "fault p90", "barrier p90"
    );
    for o in outcomes {
        let _ = writeln!(
            out,
            "{:<10} {:>10.3} {:>8} {:>8} {:>10} {:>10}ns {:>10}ns",
            slug(o.spec.app),
            o.time_ms(),
            o.report.stats.remote_faults,
            o.report.stats.remote_locks,
            o.report.net.total_count(),
            o.report.hist.fault_fetch_ns.p90(),
            o.report.hist.barrier_stall_ns.p90(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_are_filesystem_safe() {
        for app in AppId::ALL {
            let s = slug(app);
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
        }
        assert_eq!(file_name(AppId::WaterNsq), "BENCH_water_nsq.json");
    }

    #[test]
    fn bench_json_wraps_report() {
        let outcome = run_app(RunSpec::new(AppId::Sor, Scale::Small, 2, 2));
        let j = to_json(&outcome);
        assert_eq!(j.get("app").unwrap().as_str(), Some("sor"));
        assert_eq!(j.get("nodes").unwrap().as_u64(), Some(2));
        let report = j.get("report").unwrap();
        assert_eq!(
            report.get("schema").unwrap().as_str(),
            Some("cvm-run-report")
        );
        assert!(report.get("hist").is_some());
    }

    #[test]
    fn summary_lists_every_outcome() {
        let outcomes = vec![run_app(RunSpec::new(AppId::Sor, Scale::Small, 2, 1))];
        let text = render_summary(&outcomes);
        assert!(text.contains("sor"));
        assert!(text.contains("fault p90"));
    }
}
