//! `cvm bench --scale` — the node-count ladder, in virtual time.
//!
//! Each rung runs the same reduced-input application once at a larger
//! node count and records what grows with the cluster: virtual time,
//! traffic and the peak-memory high-water marks. Every leaf of
//! `BENCH_scale.json` is a pure function of `(app, scale, nodes, threads,
//! seed)` and gates like any other artifact; host wall-clock per rung is
//! [`crate::campaign::run`]'s stderr line, as for every campaign.

use cvm_apps::{AppId, Scale};
use cvm_sim::json::JsonValue;

use crate::bench::slug;
use crate::runner::{run_app, RunOutcome, RunSpec};

/// The committed scale artifact.
pub const FILE_NAME: &str = "BENCH_scale.json";

/// Default ladder: 8 → 64 nodes (the CI rungs; 128/256 run on demand).
pub const DEFAULT_NODES: &[usize] = &[8, 16, 32, 64];

/// Ladder configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleConfig {
    /// Application under test (default Barnes — the paper's most
    /// communication-heavy tree code).
    pub app: AppId,
    /// Problem scale (default tiny: the ladder varies *nodes*, and the
    /// reduced input keeps 256-node rungs tractable).
    pub scale: Scale,
    /// Node counts, one rung each.
    pub nodes: Vec<usize>,
    /// Threads per node.
    pub threads: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            app: AppId::Barnes,
            scale: Scale::Tiny,
            nodes: DEFAULT_NODES.to_vec(),
            threads: 4,
        }
    }
}

/// Runs the whole ladder in rung order, one rung at a time: a rung is one
/// cell, and at 128+ nodes one cell already holds hundreds of OS threads.
pub fn run_ladder(cfg: &ScaleConfig) -> Vec<RunOutcome> {
    let rungs = cfg.nodes.clone();
    crate::campaign::run("scale", 1, rungs, RunOutcome::done_label, |_, nodes| {
        run_app(RunSpec::new(cfg.app, cfg.scale, nodes, cfg.threads))
    })
}

/// The ladder as the committed `BENCH_scale.json` document.
pub fn to_json(cfg: &ScaleConfig, rungs: &[RunOutcome]) -> JsonValue {
    let mut obj = JsonValue::object();
    obj.set("schema", "cvm-scale");
    obj.set("app", slug(cfg.app));
    obj.set("threads", cfg.threads);
    let mut arr = JsonValue::array();
    for r in rungs {
        let rep = &r.report;
        let mut row = JsonValue::object();
        row.set("nodes", r.spec.nodes);
        row.set("total_ns", rep.total_time.as_ns());
        row.set("msgs", rep.net.total_count());
        row.set("bytes", rep.net.total_bytes());
        row.set("twin_peak", rep.mem_peaks.twin_global_peak);
        row.set("cache_peak", rep.mem_peaks.cache_global_peak);
        row.set("parked_peak", rep.mem_peaks.parked_global_peak);
        row.set("worst_node_bytes", rep.mem_peaks.worst_node_bytes());
        arr.push(row);
    }
    obj.set("rungs", arr);
    obj
}

/// Console table for the ladder.
pub fn render_summary(cfg: &ScaleConfig, rungs: &[RunOutcome]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "scale ladder: {} tiny ×{}T", cfg.app, cfg.threads);
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>10} {:>12} {:>10}",
        "nodes", "vtime ms", "msgs", "bytes", "peak KiB"
    );
    for r in rungs {
        let rep = &r.report;
        let peak_kib = (rep.mem_peaks.twin_global_peak
            + rep.mem_peaks.cache_global_peak
            + rep.mem_peaks.parked_global_peak)
            / 1024;
        let _ = writeln!(
            out,
            "{:>6} {:>12.3} {:>10} {:>12} {:>10}",
            r.spec.nodes,
            rep.total_ms(),
            rep.net.total_count(),
            rep.net.total_bytes(),
            peak_kib,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_rung_is_deterministic_and_carries_exactly_the_virtual_leaves() {
        let cfg = ScaleConfig {
            nodes: vec![8],
            ..ScaleConfig::default()
        };
        let doc = to_json(&cfg, &run_ladder(&cfg));
        let again = to_json(&cfg, &run_ladder(&cfg));
        assert_eq!(doc.to_pretty(), again.to_pretty());
        let rungs = doc
            .get("rungs")
            .and_then(JsonValue::as_array)
            .expect("rungs");
        let JsonValue::Object(row) = &rungs[0] else {
            panic!("a rung is an object");
        };
        let keys: Vec<&str> = row.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "nodes",
                "total_ns",
                "msgs",
                "bytes",
                "twin_peak",
                "cache_peak",
                "parked_peak",
                "worst_node_bytes"
            ]
        );
    }
}
