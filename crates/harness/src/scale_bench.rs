//! `cvm bench --scale` — the node-count scaling ladder for the parallel
//! event core.
//!
//! Each ladder rung runs the same reduced-input application twice: once
//! on the sequential event loop (`--shards 1`) and once sharded. The two
//! reports must be **byte-identical** — that is the contract the rung
//! asserts before it reports anything — so every simulated observable in
//! `BENCH_scale.json` comes from a run whose results the sequential loop
//! vouches for.
//!
//! # What gates and what doesn't
//!
//! The committed `BENCH_scale.json` is compared by `cvm bench --baseline`
//! with the numeric-leaf gate ([`crate::gate`]). Two kinds of metric are
//! emitted accordingly:
//!
//! - **Deterministic** metrics — virtual time, traffic, peak memory,
//!   planner engagement and the modelled burst speedup — are JSON
//!   *numbers*. They are pure functions of `(app, scale, nodes, threads,
//!   shards, seed)` and gate normally.
//! - **Host** wall-clock measurements are JSON *strings* (the gate never
//!   compares strings), because they depend on the machine the bench ran
//!   on. A one-core CI runner shows a host speedup near 1.0× while the
//!   modelled speedup is unchanged; both are reported honestly.
//!
//! The modelled speedup is the factor by which aggregate application
//! burst time shrinks when each lookahead window costs `max(bursts)`
//! instead of `sum(bursts)` — the host-time model of a machine with one
//! core per shard. It is computed from the driver's overlap ledger
//! ([`RunReport::overlap_saved_ns`]), not from wall clocks.

use std::time::Instant;

use cvm_apps::{AppId, Scale};
use cvm_sim::json::JsonValue;

use crate::bench::slug;
use crate::runner::{run_app, RunOutcome, RunSpec};

/// The committed scale artifact.
pub const FILE_NAME: &str = "BENCH_scale.json";

/// Default ladder: 8 → 64 nodes (the CI rungs; 128/256 run on demand).
pub const DEFAULT_NODES: &[usize] = &[8, 16, 32, 64];

/// Default shard count for the parallel run of each rung.
pub const DEFAULT_SHARDS: usize = 8;

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
    /// Shard count of the parallel run (clamped to the node count).
    pub shards: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            app: AppId::Barnes,
            scale: Scale::Tiny,
            nodes: DEFAULT_NODES.to_vec(),
            threads: 4,
            shards: DEFAULT_SHARDS,
        }
    }
}

/// One ladder rung: the sharded run's outcome plus the determinism proof
/// and both host wall-clocks.
#[derive(Debug)]
pub struct Rung {
    /// Node count of this rung.
    pub nodes: usize,
    /// The sharded run (its report is byte-identical to the sequential
    /// one, so it stands for both).
    pub outcome: RunOutcome,
    /// Planner engagement of the sequential control run (always 0).
    pub seq_planned: u64,
    /// Host wall-clock of the sequential run, seconds.
    pub host_seq_s: f64,
    /// Host wall-clock of the sharded run, seconds.
    pub host_par_s: f64,
}

impl Rung {
    /// Modelled burst speedup ×1000 (integer so the JSON leaf is exact):
    /// aggregate burst time over its critical-path remainder after the
    /// planner's overlap windows are costed at `max` instead of `sum`.
    pub fn burst_speedup_milli(&self) -> u64 {
        let total = self.outcome.report.burst_total_ns;
        let serial = total - self.outcome.report.overlap_saved_ns;
        (total * 1000).checked_div(serial).unwrap_or(1000)
    }
}

/// Runs one rung: sequential then sharded, asserts byte-identity of the
/// full report JSON, returns the rung.
pub fn run_rung(cfg: &ScaleConfig, nodes: usize) -> Rung {
    let mut seq = RunSpec::new(cfg.app, cfg.scale, nodes, cfg.threads);
    seq.shards = 1;
    let mut par = seq;
    par.shards = cfg.shards;
    let t0 = Instant::now();
    let seq_out = run_app(seq);
    let host_seq_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let par_out = run_app(par);
    let host_par_s = t1.elapsed().as_secs_f64();
    let seq_doc = seq_out.report.to_json(crate::bench::TOP_N).to_pretty();
    let par_doc = par_out.report.to_json(crate::bench::TOP_N).to_pretty();
    assert_eq!(
        seq_doc, par_doc,
        "shards={} diverged from the sequential loop at {} nodes",
        cfg.shards, nodes
    );
    Rung {
        nodes,
        outcome: par_out,
        seq_planned: seq_out.report.planned_bursts,
        host_seq_s,
        host_par_s,
    }
}

/// Runs the whole ladder in rung order.
pub fn run_ladder(cfg: &ScaleConfig) -> Vec<Rung> {
    cfg.nodes
        .iter()
        .map(|&nodes| {
            eprintln!(
                "[scale] {} P={nodes} T={} shards {{1,{}}}",
                cfg.app, cfg.threads, cfg.shards
            );
            run_rung(cfg, nodes)
        })
        .collect()
}

/// The ladder as the committed `BENCH_scale.json` document.
pub fn to_json(cfg: &ScaleConfig, rungs: &[Rung]) -> JsonValue {
    let mut obj = JsonValue::object();
    obj.set("schema", "cvm-scale");
    obj.set("app", slug(cfg.app));
    obj.set("threads", cfg.threads);
    obj.set("shards", cfg.shards);
    let mut arr = JsonValue::array();
    for r in rungs {
        let rep = &r.outcome.report;
        let mut row = JsonValue::object();
        row.set("nodes", r.nodes);
        row.set("total_ns", rep.total_time.as_ns());
        row.set("msgs", rep.net.total_count());
        row.set("bytes", rep.net.total_bytes());
        row.set("twin_peak", rep.mem_peaks.twin_global_peak);
        row.set("cache_peak", rep.mem_peaks.cache_global_peak);
        row.set("parked_peak", rep.mem_peaks.parked_global_peak);
        row.set("worst_node_bytes", rep.mem_peaks.worst_node_bytes());
        row.set("burst_total_ns", rep.burst_total_ns);
        row.set("overlap_saved_ns", rep.overlap_saved_ns);
        row.set("planned_bursts", rep.planned_bursts);
        row.set("burst_speedup_milli", r.burst_speedup_milli());
        // Host measurements: strings, so the baseline gate (numeric
        // leaves only) never fails on another machine's clock.
        row.set("host_seq_s", format!("{:.3}", r.host_seq_s));
        row.set("host_par_s", format!("{:.3}", r.host_par_s));
        row.set(
            "host_speedup",
            format!("{:.2}", r.host_seq_s / r.host_par_s.max(1e-9)),
        );
        arr.push(row);
    }
    obj.set("rungs", arr);
    obj
}

/// Console table for the ladder.
pub fn render_summary(cfg: &ScaleConfig, rungs: &[Rung]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scale ladder: {} tiny ×{}T, shards {} vs 1 (reports byte-identical)",
        cfg.app, cfg.threads, cfg.shards
    );
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>10} {:>12} {:>10} {:>9} {:>9} {:>9}",
        "nodes", "vtime ms", "msgs", "peak KiB", "planned", "model x", "seq s", "par s"
    );
    for r in rungs {
        let rep = &r.outcome.report;
        let peak_kib = (rep.mem_peaks.twin_global_peak
            + rep.mem_peaks.cache_global_peak
            + rep.mem_peaks.parked_global_peak)
            / 1024;
        let _ = writeln!(
            out,
            "{:>6} {:>12.3} {:>10} {:>12} {:>10} {:>9.2} {:>9.3} {:>9.3}",
            r.nodes,
            rep.total_ms(),
            rep.net.total_count(),
            peak_kib,
            rep.planned_bursts,
            r.burst_speedup_milli() as f64 / 1000.0,
            r.host_seq_s,
            r.host_par_s,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_rung_is_deterministic_and_engages_the_planner() {
        let cfg = ScaleConfig {
            nodes: vec![8],
            ..ScaleConfig::default()
        };
        // run_rung asserts byte-identity internally.
        let rung = run_rung(&cfg, 8);
        assert_eq!(rung.seq_planned, 0, "sequential loop must never plan");
        assert!(
            rung.outcome.report.planned_bursts > 0,
            "sharded run never engaged the window planner"
        );
        assert!(rung.burst_speedup_milli() > 1000, "no overlap was won");
        let doc = to_json(&cfg, &[rung]);
        let text = doc.to_pretty();
        assert!(text.contains("\"burst_speedup_milli\""));
        // Host clocks must be strings (the gate ignores strings).
        assert!(text.contains("\"host_seq_s\": \""));
    }
}
