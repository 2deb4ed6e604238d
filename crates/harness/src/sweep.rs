//! `cvm sweep` — the full configuration cross-product, in parallel.
//!
//! The paper's evaluation is a sweep: seven applications × {4, 8, 16}
//! processors × 1–4 threads per node. This module runs that cross-product
//! on a pool of scoped OS threads ([`cvm_sim::workq`]), aggregates each
//! run's [`RunReport`](cvm_dsm::RunReport) into a [`SweepReport`], and
//! emits:
//!
//! * `BENCH_sweep.json` — one machine-readable summary per configuration,
//!   for the perf trajectory;
//! * markdown tables mirroring the paper's Figure 1 breakdown (compute /
//!   remote-fault / lock / barrier shares), its message-count and
//!   data-volume tables, and speedup-vs-one-thread columns.
//!
//! Determinism: every configuration derives its seed from the master seed
//! with [`workq::seed_split`] (a pure function of the configuration, not
//! of the worker that runs it), and results are keyed by configuration
//! index — so the report is **byte-identical at any worker count**. Host
//! wall-clock is printed to stderr only, never serialized.

use std::fmt::Write as _;

use cvm_apps::{AppId, Scale};
use cvm_dsm::ProtocolKind;
use cvm_net::MsgClass;
use cvm_sim::json::JsonValue;
use cvm_sim::workq;

use crate::bench::slug;
use crate::runner::{grid, run_app, RunOutcome, RunSpec};

/// Processor counts evaluated by the paper (4, 8, and a virtualized 16).
pub const NODES: [usize; 3] = [4, 8, 16];

/// The sweep report file name.
pub const FILE_NAME: &str = "BENCH_sweep.json";

/// What to sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Problem scale.
    pub scale: Scale,
    /// Applications (paper order).
    pub apps: Vec<AppId>,
    /// Processor counts.
    pub nodes: Vec<usize>,
    /// Threads-per-node levels.
    pub threads: Vec<usize>,
    /// Coherence protocols (an extra cross-product axis; the default
    /// sweeps only the paper's lazy multi-writer protocol).
    pub protocols: Vec<ProtocolKind>,
    /// Worker threads running simulations concurrently (0 = one per
    /// available core).
    pub workers: usize,
    /// Record causal span forests in every cell (off by default so the
    /// golden sweep artifacts stay byte-identical).
    pub spans: bool,
    /// Master seed; each configuration splits its own seed off this.
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            scale: Scale::Small,
            apps: AppId::ALL.to_vec(),
            nodes: NODES.to_vec(),
            threads: crate::tables::THREADS.to_vec(),
            protocols: vec![ProtocolKind::LazyMultiWriter],
            workers: 0,
            spans: false,
            seed: cvm_dsm::DEFAULT_SEED,
        }
    }
}

impl SweepConfig {
    /// The configurations this sweep will run, in report order: the full
    /// cross-product minus thread counts an application rejects.
    pub fn specs(&self) -> Vec<RunSpec> {
        let grid = grid(self.scale, &self.apps, &self.nodes, &self.threads);
        let mut specs = Vec::with_capacity(grid.len() * self.protocols.len());
        for &protocol in &self.protocols {
            specs.extend(grid.iter().map(|&s| RunSpec {
                protocol,
                spans: self.spans,
                seed: workq::seed_split(
                    self.seed,
                    config_salt(protocol, s.app, s.nodes, s.threads),
                ),
                ..s
            }));
        }
        specs
    }
}

/// A stable per-configuration salt: which worker runs a configuration can
/// never matter, only the configuration itself. The protocol index sits
/// in the high bits so lazy multi-writer (index 0) keeps the exact seeds
/// of the pre-protocol-axis sweeps.
fn config_salt(protocol: ProtocolKind, app: AppId, nodes: usize, threads: usize) -> u64 {
    let proto_idx = ProtocolKind::ALL
        .iter()
        .position(|&p| p == protocol)
        .expect("protocol registered") as u64;
    let app_idx = AppId::ALL
        .iter()
        .position(|&a| a == app)
        .expect("app registered") as u64;
    (proto_idx << 32) | (app_idx << 16) | ((nodes as u64) << 8) | threads as u64
}

/// The aggregated result of one sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// The sweep's configuration.
    pub config: SweepConfig,
    /// One outcome per configuration, in [`SweepConfig::specs`] order.
    pub outcomes: Vec<RunOutcome>,
}

/// Runs the sweep: every configuration on the worker pool, results in
/// configuration order.
pub fn run_sweep(config: SweepConfig) -> SweepReport {
    let outcomes = crate::campaign::run(
        "sweep",
        config.workers,
        config.specs(),
        RunOutcome::done_label,
        |_, spec| run_app(spec),
    );
    SweepReport { config, outcomes }
}

impl SweepReport {
    /// The outcome at one grid point, if the sweep ran it.
    fn cell(
        &self,
        protocol: ProtocolKind,
        app: AppId,
        nodes: usize,
        threads: usize,
    ) -> Option<&RunOutcome> {
        self.outcomes.iter().find(|o| {
            o.spec.protocol == protocol
                && o.spec.app == app
                && o.spec.nodes == nodes
                && o.spec.threads == threads
        })
    }

    /// Speedup of `outcome` over the one-thread run of the same
    /// protocol, application and node count — `None` when the sweep did
    /// not include one thread. Baselines never cross protocols: each
    /// protocol's speedup is measured against its own one-thread run.
    pub fn speedup_vs_one_thread(&self, outcome: &RunOutcome) -> Option<f64> {
        let s = &outcome.spec;
        let base = self.cell(s.protocol, s.app, s.nodes, 1)?;
        Some(base.time_ms() / outcome.time_ms())
    }

    /// True when the sweep covers more than the default protocol — the
    /// cue to annotate rows and render the protocol-comparison table.
    fn multi_protocol(&self) -> bool {
        self.config.protocols != [ProtocolKind::LazyMultiWriter]
    }

    /// Row label for `outcome`: the app name, protocol-qualified when
    /// the sweep covers several protocols.
    fn row_label(&self, o: &RunOutcome) -> String {
        if self.multi_protocol() {
            format!("{} [{}]", o.spec.app.name(), o.spec.protocol.slug())
        } else {
            o.spec.app.name().to_owned()
        }
    }

    /// The whole sweep as one JSON document (`BENCH_sweep.json`): the
    /// matrix plus one compact summary per configuration. Host timings are
    /// excluded by design.
    pub fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::object();
        obj.set("schema", "cvm-sweep");
        obj.set("version", 1u64);
        obj.set("scale", self.config.scale.slug());
        obj.set("seed", self.config.seed);
        obj.set("nodes", self.config.nodes.clone());
        obj.set("threads", self.config.threads.clone());
        // Only sweeps that use the protocol axis mention it, so the
        // default report stays byte-identical to pre-axis sweeps.
        if self.multi_protocol() {
            let slugs: Vec<&str> = self.config.protocols.iter().map(|p| p.slug()).collect();
            obj.set("protocols", slugs);
        }
        let configs: Vec<JsonValue> = self.outcomes.iter().map(|o| self.outcome_json(o)).collect();
        obj.set("configs", configs);
        obj
    }

    /// One configuration's summary row.
    fn outcome_json(&self, o: &RunOutcome) -> JsonValue {
        let r = &o.report;
        let mut row = JsonValue::object();
        row.set("app", slug(o.spec.app));
        if o.spec.protocol != ProtocolKind::LazyMultiWriter {
            row.set("protocol", o.spec.protocol.slug());
        }
        row.set("nodes", o.spec.nodes);
        row.set("threads", o.spec.threads);
        row.set("seed", o.spec.seed);
        row.set("total_ns", r.total_time.as_ns());
        row.set("total_ms", r.total_ms());
        let sum = r.breakdown_sum();
        let mut breakdown = JsonValue::object();
        breakdown.set("user_ns", sum.user.as_ns());
        breakdown.set("barrier_ns", sum.barrier.as_ns());
        breakdown.set("fault_ns", sum.fault.as_ns());
        breakdown.set("lock_ns", sum.lock.as_ns());
        let mut shares = JsonValue::object();
        shares.set("user", r.fraction(|n| n.user));
        shares.set("barrier", r.fraction(|n| n.barrier));
        shares.set("fault", r.fraction(|n| n.fault));
        shares.set("lock", r.fraction(|n| n.lock));
        breakdown.set("shares", shares);
        row.set("breakdown", breakdown);
        let mut msgs = JsonValue::object();
        msgs.set("barrier", r.net.class_count(MsgClass::Barrier));
        msgs.set("lock", r.net.class_count(MsgClass::Lock));
        msgs.set("diff", r.net.class_count(MsgClass::Diff));
        msgs.set("total", r.net.total_count());
        msgs.set("per_node", r.net.total_count() as f64 / o.spec.nodes as f64);
        row.set("msgs", msgs);
        let mut bytes = JsonValue::object();
        bytes.set("barrier", r.net.class_bytes(MsgClass::Barrier));
        bytes.set("lock", r.net.class_bytes(MsgClass::Lock));
        bytes.set("diff", r.net.class_bytes(MsgClass::Diff));
        bytes.set("total", r.net.total_bytes());
        bytes.set("kb", r.net.total_bytes() / 1024);
        row.set("bytes", bytes);
        let mut stats = JsonValue::object();
        stats.set("remote_faults", r.stats.remote_faults);
        stats.set("remote_locks", r.stats.remote_locks);
        stats.set("diffs_created", r.stats.diffs_created);
        stats.set("diffs_used", r.stats.diffs_used);
        stats.set("thread_switches", r.stats.thread_switches);
        stats.set("twins_created", r.stats.twins_created);
        stats.set("barriers_crossed", r.stats.barriers_crossed);
        row.set("stats", stats);
        // Only spans-enabled sweeps mention the forest, so the default
        // golden artifacts stay byte-identical.
        if let Some(spans) = &r.spans {
            row.set("spans", spans.summary_json(r.total_time));
        }
        let speedup = self.speedup_vs_one_thread(o);
        row.set(
            "speedup_vs_1t",
            speedup.map_or(JsonValue::Null, JsonValue::from),
        );
        row
    }

    /// Figure 1-style markdown table: per configuration, total time
    /// normalized to the one-thread run of the same (app, nodes), and the
    /// compute / remote-fault / lock / barrier shares of the run.
    pub fn breakdown_table(&self) -> String {
        let mut out = String::from(
            "## Execution-time breakdown (Fig. 1)\n\n\
             | app | P | T | norm. time | compute % | fault % | lock % | barrier % |\n\
             |---|---:|---:|---:|---:|---:|---:|---:|\n",
        );
        for o in &self.outcomes {
            let norm = self
                .cell(o.spec.protocol, o.spec.app, o.spec.nodes, 1)
                .map_or(1.0, |b| o.time_ms() / b.time_ms());
            let r = &o.report;
            let _ = writeln!(
                out,
                "| {} | {} | {} | {:.3} | {:.1} | {:.1} | {:.1} | {:.1} |",
                self.row_label(o),
                o.spec.nodes,
                o.spec.threads,
                norm,
                r.fraction(|n| n.user) * 100.0,
                r.fraction(|n| n.fault) * 100.0,
                r.fraction(|n| n.lock) * 100.0,
                r.fraction(|n| n.barrier) * 100.0,
            );
        }
        out
    }

    /// Message-count markdown table (the paper's Table 2 counts), with a
    /// per-node column.
    pub fn messages_table(&self) -> String {
        let mut out = String::from(
            "## Message counts\n\n\
             | app | P | T | barrier | lock | diff | total | per node |\n\
             |---|---:|---:|---:|---:|---:|---:|---:|\n",
        );
        for o in &self.outcomes {
            let n = &o.report.net;
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {:.1} |",
                self.row_label(o),
                o.spec.nodes,
                o.spec.threads,
                n.class_count(MsgClass::Barrier),
                n.class_count(MsgClass::Lock),
                n.class_count(MsgClass::Diff),
                n.total_count(),
                n.total_count() as f64 / o.spec.nodes as f64,
            );
        }
        out
    }

    /// Data-volume markdown table (the paper's bandwidth columns).
    pub fn data_table(&self) -> String {
        let mut out = String::from(
            "## Data volume\n\n\
             | app | P | T | diff KB | total KB | KB per node |\n\
             |---|---:|---:|---:|---:|---:|\n",
        );
        for o in &self.outcomes {
            let n = &o.report.net;
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {:.1} |",
                self.row_label(o),
                o.spec.nodes,
                o.spec.threads,
                n.class_bytes(MsgClass::Diff) / 1024,
                n.total_bytes() / 1024,
                n.total_bytes() as f64 / 1024.0 / o.spec.nodes as f64,
            );
        }
        out
    }

    /// Speedup-vs-one-thread markdown table: one row per (app, nodes),
    /// one column per thread level.
    pub fn speedup_table(&self) -> String {
        let mut out = String::from("## Speedup vs 1 thread/node\n\n| app | P |");
        for &t in &self.config.threads {
            let _ = write!(out, " T={t} |");
        }
        out.push('\n');
        out.push_str("|---|---:|");
        for _ in &self.config.threads {
            out.push_str("---:|");
        }
        out.push('\n');
        for &protocol in &self.config.protocols {
            for &app in &self.config.apps {
                for &nodes in &self.config.nodes {
                    let label = if self.multi_protocol() {
                        format!("{} [{}]", app.name(), protocol.slug())
                    } else {
                        app.name().to_owned()
                    };
                    let _ = write!(out, "| {label} | {nodes} |");
                    for &t in &self.config.threads {
                        let cell = self
                            .cell(protocol, app, nodes, t)
                            .and_then(|o| self.speedup_vs_one_thread(o));
                        match cell {
                            Some(s) => {
                                let _ = write!(out, " {s:.2}x |");
                            }
                            None => {
                                let _ = write!(out, " - |");
                            }
                        }
                    }
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Protocol-comparison markdown table: per `(app, nodes, threads)`,
    /// one column group per protocol — messages, data volume and
    /// non-overlapped fault stall. This is where home-based LRC's trade
    /// (fewer messages, more bytes) shows against the homeless lazy
    /// protocol and the eager-update pusher.
    pub fn protocol_table(&self) -> String {
        let mut out = String::from("## Protocol comparison\n\n| app | P | T |");
        for &p in &self.config.protocols {
            let _ = write!(out, " {0} msgs | {0} KB | {0} fault ms |", p.slug());
        }
        out.push('\n');
        out.push_str("|---|---:|---:|");
        for _ in &self.config.protocols {
            out.push_str("---:|---:|---:|");
        }
        out.push('\n');
        for &app in &self.config.apps {
            for &nodes in &self.config.nodes {
                for &threads in &self.config.threads {
                    if !app.supports_threads(threads) {
                        continue;
                    }
                    let _ = write!(out, "| {} | {} | {} |", app.name(), nodes, threads);
                    for &protocol in &self.config.protocols {
                        match self.cell(protocol, app, nodes, threads) {
                            Some(o) => {
                                let _ = write!(
                                    out,
                                    " {} | {} | {:.2} |",
                                    o.report.net.total_count(),
                                    o.report.net.total_bytes() / 1024,
                                    o.report.stats.wait_fault.as_ms_f64(),
                                );
                            }
                            None => out.push_str(" - | - | - |"),
                        }
                    }
                    out.push('\n');
                }
            }
        }
        out
    }

    /// All markdown tables, in presentation order. The protocol
    /// comparison appears only when the sweep actually crossed protocols,
    /// keeping single-protocol output unchanged.
    pub fn render_tables(&self) -> String {
        let mut out = format!(
            "{}\n{}\n{}\n{}",
            self.breakdown_table(),
            self.messages_table(),
            self.data_table(),
            self.speedup_table()
        );
        if self.multi_protocol() {
            out.push('\n');
            out.push_str(&self.protocol_table());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(workers: usize) -> SweepConfig {
        SweepConfig {
            apps: vec![AppId::Sor, AppId::Fft],
            nodes: vec![2],
            threads: vec![1, 2],
            workers,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn specs_skip_unsupported_thread_levels() {
        let cfg = SweepConfig {
            apps: vec![AppId::Ocean],
            nodes: vec![4],
            threads: vec![1, 2, 3, 4],
            ..SweepConfig::default()
        };
        let specs = cfg.specs();
        assert_eq!(specs.len(), 3, "Ocean rejects T=3");
        assert!(specs.iter().all(|s| s.threads != 3));
    }

    #[test]
    fn config_seeds_are_stable_and_distinct() {
        let a = tiny_config(1).specs();
        let b = tiny_config(4).specs();
        assert_eq!(
            a.iter().map(|s| s.seed).collect::<Vec<_>>(),
            b.iter().map(|s| s.seed).collect::<Vec<_>>(),
            "worker count must not shift seeds"
        );
        let mut seeds: Vec<u64> = a.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len(), "every config gets its own seed");
    }

    #[test]
    fn sweep_json_and_tables_cover_every_config() {
        let report = run_sweep(tiny_config(2));
        assert_eq!(report.outcomes.len(), 4);
        let j = report.to_json();
        assert_eq!(j.get("schema").unwrap().as_str(), Some("cvm-sweep"));
        let configs = j.get("configs").unwrap().as_array().unwrap();
        assert_eq!(configs.len(), 4);
        // One-thread rows have speedup exactly 1; two-thread rows have some
        // finite positive speedup.
        for c in configs {
            let s = c.get("speedup_vs_1t").unwrap().as_f64().unwrap();
            assert!(s > 0.0);
            if c.get("threads").unwrap().as_u64() == Some(1) {
                assert!((s - 1.0).abs() < 1e-12);
            }
        }
        let tables = report.render_tables();
        for needle in ["SOR", "FFT", "compute %", "per node", "T=2"] {
            assert!(tables.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn protocol_axis_keeps_lazy_seeds_and_renders_comparison() {
        let base = tiny_config(1);
        let lazy_seeds: Vec<u64> = base.specs().iter().map(|s| s.seed).collect();
        let mut cfg = tiny_config(1);
        cfg.protocols = ProtocolKind::ALL.to_vec();
        let specs = cfg.specs();
        assert_eq!(specs.len(), 3 * lazy_seeds.len());
        assert_eq!(
            specs[..lazy_seeds.len()]
                .iter()
                .map(|s| s.seed)
                .collect::<Vec<_>>(),
            lazy_seeds,
            "adding protocols must not shift the lazy seeds"
        );
        let report = run_sweep(cfg);
        let tables = report.render_tables();
        assert!(tables.contains("## Protocol comparison"));
        assert!(tables.contains("[home-lazy]"));
        let j = report.to_json();
        assert!(j.get("protocols").is_some(), "protocol axis is recorded");
        // Single-protocol sweeps must not mention the axis at all.
        let plain = run_sweep(tiny_config(1));
        assert!(plain.to_json().get("protocols").is_none());
        assert!(!plain.render_tables().contains("Protocol comparison"));
    }

    #[test]
    fn sweep_reports_match_across_worker_counts() {
        let serial = run_sweep(tiny_config(1));
        let parallel = run_sweep(tiny_config(3));
        assert_eq!(
            serial.to_json().to_pretty(),
            parallel.to_json().to_pretty(),
            "sweep JSON must be byte-identical at any worker count"
        );
    }
}
