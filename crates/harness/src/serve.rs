//! `cvm serve` — the open-loop serving experiment.
//!
//! Runs the [`cvm_apps::kv`] session store under a declarative
//! [`ServeScenario`]: a single rate, or a saturation ladder (`sweep`)
//! whose cells run concurrently on host worker threads. Each cell reports
//! offered vs. achieved throughput and the request-latency tail
//! (p50/p99/p999) alongside the usual DSM breakdown, and the ladder
//! locates the **knee** — the first offered rate the store fails to keep
//! up with. On this system that knee is a coherence phenomenon, not a CPU
//! one: the generator threads are mostly idle there while lock-lease and
//! page-fault traffic eats the service path (the JSON's per-cell
//! breakdown shows exactly that).
//!
//! Determinism: each cell's seed is split from the scenario seed by its
//! *rate index* ([`workq::seed_split`]), never by the worker that ran it,
//! and results are returned in ladder order — so `BENCH_serve.json` is
//! byte-identical at any `--workers` count. Host wall-clock goes to
//! stderr only.

use std::fmt::Write as _;

use cvm_apps::kv::scenario::ServeScenario;
use cvm_apps::kv::{self};
use cvm_dsm::{hist_json, CvmConfig, RunReport};
use cvm_net::MsgClass;
use cvm_sim::json::JsonValue;
use cvm_sim::workq;

/// The serve report file name.
pub const FILE_NAME: &str = "BENCH_serve.json";

/// A cell keeps up when its measured makespan overhangs the arrival
/// window by at most this fraction; the first cell past the threshold is
/// the saturation knee. Overhang is the open-loop saturation signal:
/// every arrival lands inside the window, so a store that keeps up
/// finishes soon after the window closes, while a saturated one is still
/// draining backlog long past it.
pub const KEEPUP_OVERHANG: f64 = 0.25;

/// One serve invocation: the scenario plus the host-side worker count
/// (which, by construction, never changes the artifact's bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// What to run.
    pub scenario: ServeScenario,
    /// Host worker threads for the rate ladder (0 = one per core).
    pub workers: usize,
}

impl ServeConfig {
    /// A single-rate config with default execution knobs.
    pub fn new(scenario: ServeScenario) -> Self {
        ServeConfig {
            scenario,
            workers: 0,
        }
    }

    /// The offered-rate ladder: the sweep list, or the scenario's base
    /// rate when no sweep was given.
    pub fn rates(&self) -> Vec<f64> {
        if self.scenario.sweep.is_empty() {
            vec![self.scenario.kv.rate_rps]
        } else {
            self.scenario.sweep.clone()
        }
    }
}

/// One rate cell's outcome.
#[derive(Debug, Clone)]
pub struct ServeCell {
    /// Offered arrival rate, requests per virtual second.
    pub rate_rps: f64,
    /// Arrival-window length, virtual milliseconds (scenario echo).
    pub window_ms: u64,
    /// The cell's split seed (a pure function of the rate index).
    pub seed: u64,
    /// Requests served (all arrivals are eventually served).
    pub served: u64,
    /// Final table checksum — must match across topologies and reruns.
    pub table_sum: u64,
    /// The full DSM report for the measured region.
    pub report: RunReport,
}

impl ServeCell {
    /// Achieved service rate: requests over the measured makespan. A
    /// store that keeps up finishes close to the arrival window; one that
    /// saturates overhangs it, and the overhang drops this below the
    /// offered rate.
    pub fn achieved_rps(&self) -> f64 {
        let secs = self.report.total_time.as_ns() as f64 / 1e9;
        if secs > 0.0 {
            self.served as f64 / secs
        } else {
            0.0
        }
    }

    /// Makespan past the end of the arrival window, as a fraction of the
    /// window (0 = finished inside it).
    pub fn overhang(&self) -> f64 {
        let window_ns = self.window_ms as f64 * 1e6;
        (self.report.total_time.as_ns() as f64 - window_ns).max(0.0) / window_ns
    }

    /// True when the cell overhung its window past [`KEEPUP_OVERHANG`].
    pub fn saturated(&self) -> bool {
        self.overhang() > KEEPUP_OVERHANG
    }
}

/// The whole experiment: every ladder cell, in offered-rate order.
#[derive(Debug)]
pub struct ServeReport {
    /// The config that produced this report.
    pub config: ServeConfig,
    /// One cell per ladder rate, in [`ServeConfig::rates`] order.
    pub cells: Vec<ServeCell>,
}

/// Runs one ladder cell.
fn run_cell(sc: &ServeScenario, idx: usize, rate: f64) -> ServeCell {
    let mut kv_cfg = sc.kv;
    kv_cfg.rate_rps = rate;
    let seed = workq::seed_split(sc.seed, idx as u64);
    let mut dsm = CvmConfig::paper(sc.nodes, sc.threads);
    dsm.seed = seed;
    dsm.local_grant_cap = sc.local_grant_cap;
    let (table_sum, served, report) = kv::serve_of_config(&kv_cfg, dsm);
    ServeCell {
        rate_rps: rate,
        window_ms: kv_cfg.duration_ms,
        seed,
        served,
        table_sum,
        report,
    }
}

/// Runs the scenario's ladder on the worker pool.
pub fn run_serve(config: ServeConfig) -> ServeReport {
    let label = |c: &ServeCell| {
        format!(
            "rate {:.0} rps: {} served in {:.1} virtual ms",
            c.rate_rps,
            c.served,
            c.report.total_ms()
        )
    };
    let sc = &config.scenario;
    let cells = crate::campaign::run(
        "serve",
        config.workers,
        config.rates(),
        label,
        |idx, rate| run_cell(sc, idx, rate),
    );
    ServeReport { config, cells }
}

impl ServeReport {
    /// The saturation knee: the first ladder cell that failed to keep up,
    /// if any.
    pub fn knee(&self) -> Option<(usize, &ServeCell)> {
        self.cells.iter().enumerate().find(|(_, c)| c.saturated())
    }

    /// The whole experiment as one JSON document (`BENCH_serve.json`).
    /// Virtual-time numerics only: host timings and worker counts are
    /// deliberately excluded so the bytes are identical across machines
    /// and `--workers`.
    pub fn to_json(&self) -> JsonValue {
        let sc = &self.config.scenario;
        let mut obj = JsonValue::object();
        obj.set("schema", "cvm-serve");
        obj.set("version", 1u64);
        let mut scenario = JsonValue::object();
        scenario.set("name", sc.name.as_str());
        scenario.set("keys", sc.kv.keys);
        scenario.set("shards", sc.kv.shards);
        scenario.set("theta", sc.kv.theta);
        scenario.set("write_mix", sc.kv.write_mix);
        scenario.set("service_flops", sc.kv.service_flops);
        scenario.set("duration_ms", sc.kv.duration_ms);
        scenario.set("nodes", sc.nodes);
        scenario.set("threads", sc.threads);
        scenario.set("local_grant_cap", u64::from(sc.local_grant_cap));
        scenario.set("seed", sc.seed);
        obj.set("scenario", scenario);
        let cells: Vec<JsonValue> = self.cells.iter().map(|c| self.cell_json(c)).collect();
        obj.set("cells", cells);
        match self.knee() {
            Some((idx, cell)) => {
                let mut knee = JsonValue::object();
                knee.set("cell", idx as u64);
                knee.set("rate_rps", cell.rate_rps);
                knee.set("achieved_rps", cell.achieved_rps());
                obj.set("knee", knee);
            }
            None => {
                obj.set("knee", JsonValue::Null);
            }
        }
        obj
    }

    /// One ladder cell's JSON row.
    fn cell_json(&self, c: &ServeCell) -> JsonValue {
        let r = &c.report;
        let mut row = JsonValue::object();
        row.set("rate_rps", c.rate_rps);
        row.set("seed", c.seed);
        row.set("served", c.served);
        row.set("table_sum", c.table_sum);
        row.set("total_ms", r.total_ms());
        row.set("achieved_rps", c.achieved_rps());
        row.set("overhang", c.overhang());
        row.set("saturated", c.saturated());
        // The request-latency histogram carries the serving story:
        // p50/p99/p999 in nanoseconds of virtual time.
        row.set("latency", hist_json(&r.hist.request_ns, "ns"));
        let sum = r.breakdown_sum();
        let mut breakdown = JsonValue::object();
        breakdown.set("user_ns", sum.user.as_ns());
        breakdown.set("barrier_ns", sum.barrier.as_ns());
        breakdown.set("fault_ns", sum.fault.as_ns());
        breakdown.set("lock_ns", sum.lock.as_ns());
        breakdown.set("idle_ns", sum.idle.as_ns());
        row.set("breakdown", breakdown);
        let mut msgs = JsonValue::object();
        msgs.set("lock", r.net.class_count(MsgClass::Lock));
        msgs.set("diff", r.net.class_count(MsgClass::Diff));
        msgs.set("total", r.net.total_count());
        row.set("msgs", msgs);
        let mut bytes = JsonValue::object();
        bytes.set("total", r.net.total_bytes());
        row.set("bytes", bytes);
        let mut stats = JsonValue::object();
        stats.set("remote_faults", r.stats.remote_faults);
        stats.set("remote_locks", r.stats.remote_locks);
        row.set("stats", stats);
        row
    }

    /// Markdown summary: one row per ladder cell, plus the knee verdict.
    pub fn render_summary(&self) -> String {
        let mut out = String::from(
            "## Serving: offered vs achieved\n\n\
             | rate rps | served | achieved rps | p50 µs | p99 µs | p999 µs | lock % | fault % | idle % | state |\n\
             |---:|---:|---:|---:|---:|---:|---:|---:|---:|---|\n",
        );
        for c in &self.cells {
            let h = &c.report.hist.request_ns;
            let _ = writeln!(
                out,
                "| {:.0} | {} | {:.0} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {} |",
                c.rate_rps,
                c.served,
                c.achieved_rps(),
                h.p50() as f64 / 1e3,
                h.p99() as f64 / 1e3,
                h.p999() as f64 / 1e3,
                c.report.fraction(|n| n.lock) * 100.0,
                c.report.fraction(|n| n.fault) * 100.0,
                c.report.fraction(|n| n.idle) * 100.0,
                if c.saturated() {
                    "SATURATED"
                } else {
                    "keeping up"
                },
            );
        }
        match self.knee() {
            Some((idx, cell)) => {
                let _ = writeln!(
                    out,
                    "\nknee: cell {idx} — offered {:.0} rps, achieved {:.0} rps \
                     (first cell overhanging its arrival window by more than {:.0}%)",
                    cell.rate_rps,
                    cell.achieved_rps(),
                    KEEPUP_OVERHANG * 100.0
                );
            }
            None => out.push_str("\nknee: none — every cell kept up\n"),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvm_apps::kv::KvConfig;

    /// A host-cheap scenario: small table, short window.
    fn tiny_scenario() -> ServeScenario {
        let mut sc = ServeScenario::builtin("smoke").expect("builtin");
        sc.name = "tiny".into();
        sc.kv = KvConfig {
            keys: 2048,
            shards: 4,
            theta: 0.9,
            write_mix: 0.3,
            rate_rps: 5_000.0,
            duration_ms: 40,
            service_flops: 100,
        };
        sc.nodes = 2;
        sc.threads = 2;
        sc
    }

    #[test]
    fn serve_json_is_identical_across_workers_and_reruns() {
        let base = ServeConfig {
            scenario: tiny_scenario(),
            workers: 1,
        };
        let mut fanned = base.clone();
        fanned.workers = 3;
        let a = run_serve(base.clone()).to_json().to_pretty();
        let b = run_serve(fanned).to_json().to_pretty();
        let c = run_serve(base).to_json().to_pretty();
        assert_eq!(a, b, "serve JSON must not depend on --workers");
        assert_eq!(a, c, "serve JSON must be stable across reruns");
    }

    #[test]
    fn sweep_ladder_finds_a_knee_under_overload() {
        let mut sc = tiny_scenario();
        // A trickle, then an offer far past what lock leases can serve.
        sc.sweep = vec![2_000.0, 400_000.0];
        let report = run_serve(ServeConfig::new(sc));
        assert_eq!(report.cells.len(), 2);
        assert!(
            !report.cells[0].saturated(),
            "a trickle must keep up: achieved {:.0} of {:.0}",
            report.cells[0].achieved_rps(),
            report.cells[0].rate_rps
        );
        let (idx, cell) = report.knee().expect("overload must saturate");
        assert_eq!(idx, 1);
        assert!(cell.achieved_rps() < cell.rate_rps);
        let j = report.to_json();
        assert_eq!(
            j.get("knee")
                .and_then(|k| k.get("cell"))
                .and_then(JsonValue::as_u64),
            Some(1),
            "knee must be serialized"
        );
        let text = report.render_summary();
        assert!(text.contains("SATURATED"), "{text}");
        assert!(text.contains("knee: cell 1"), "{text}");
    }

    #[test]
    fn cell_seeds_follow_rate_index_not_worker() {
        let mut sc = tiny_scenario();
        sc.sweep = vec![1_000.0, 2_000.0];
        let cfg = ServeConfig::new(sc.clone());
        let report = run_serve(cfg);
        for (i, c) in report.cells.iter().enumerate() {
            assert_eq!(c.seed, workq::seed_split(sc.seed, i as u64));
        }
    }

    #[test]
    fn latency_json_carries_the_full_tail() {
        let report = run_serve(ServeConfig::new(tiny_scenario()));
        let j = report.to_json();
        let lat = j
            .get("cells")
            .and_then(JsonValue::as_array)
            .and_then(|c| c.first())
            .and_then(|c| c.get("latency"))
            .expect("cell latency");
        for key in ["p50", "p99", "p999", "count"] {
            assert!(lat.get(key).is_some(), "missing {key}");
        }
    }
}
