//! `cvm faults` — the fault-injection campaign.
//!
//! Runs every application × protocol × named fault plan (the
//! [`PLAN_CATALOG`] grid) through the full stack with the online
//! invariant oracle armed, and checks on every run that the reliability
//! layer kept its promises:
//!
//! * **exactly-once**: the loss counters balance
//!   (`delivered + gave_up == sends`) and the application's own internal
//!   assertions held (a duplicate grant or lost diff would trip them);
//! * **oracle cleanliness**: zero findings from the protocol oracle;
//! * **graceful degradation**: retry exhaustion surfaces as a degraded
//!   report, never a panic.
//!
//! The campaign emits `BENCH_faults.json` plus markdown degradation
//! tables (slowdown vs the fault-free plan, repair-work totals per
//! plan). Like the sweep, every run's seed is a pure function of its
//! grid coordinates via [`workq::seed_split`], and results are keyed by
//! grid index — the report is **byte-identical at any worker count**.

use std::fmt::Write as _;

use cvm_apps::{AppId, Scale};
use cvm_dsm::{ProtocolKind, RunReport};
use cvm_net::PLAN_CATALOG;
use cvm_sim::json::JsonValue;
use cvm_sim::{workq, PickPolicy};
use cvm_verify::{CheckedRun, RunPlan};

use crate::bench::slug;

/// The campaign report file name.
pub const FILE_NAME: &str = "BENCH_faults.json";

/// What to run: the campaign grid.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsConfig {
    /// Problem scale.
    pub scale: Scale,
    /// Applications (paper order).
    pub apps: Vec<AppId>,
    /// Coherence protocols.
    pub protocols: Vec<ProtocolKind>,
    /// Named fault plans from [`PLAN_CATALOG`].
    pub plans: Vec<&'static str>,
    /// Processors.
    pub nodes: usize,
    /// Threads per node.
    pub threads: usize,
    /// Worker threads (0 = one per available core).
    pub workers: usize,
    /// Master seed; each grid cell splits its own seed off this.
    pub seed: u64,
}

impl Default for FaultsConfig {
    fn default() -> Self {
        FaultsConfig {
            scale: Scale::Small,
            apps: AppId::ALL.to_vec(),
            protocols: ProtocolKind::ALL.to_vec(),
            plans: PLAN_CATALOG.to_vec(),
            nodes: 4,
            threads: 2,
            workers: 0,
            seed: 0xFA17_5EED,
        }
    }
}

impl FaultsConfig {
    /// The grid cells this campaign will run, in report order: each a
    /// checked run over its named fault plan, with no trace.
    ///
    /// # Panics
    ///
    /// Panics if a plan name is not in [`PLAN_CATALOG`].
    pub fn specs(&self) -> Vec<RunPlan> {
        let mut specs = Vec::new();
        for &protocol in &self.protocols {
            for &app in &self.apps {
                for &plan in &self.plans {
                    assert!(
                        PLAN_CATALOG.contains(&plan),
                        "unknown fault plan {plan:?} (see PLAN_CATALOG)"
                    );
                    specs.push(RunPlan {
                        app,
                        scale: self.scale,
                        nodes: self.nodes,
                        threads: self.threads,
                        protocol,
                        inject: None,
                        faults: Some(plan),
                        trace_capacity: 0,
                        seed: workq::seed_split(self.seed, cell_salt(protocol, app, plan)),
                    });
                }
            }
        }
        specs
    }
}

/// A stable per-cell salt: only the grid coordinates may matter, never
/// the worker that runs the cell.
fn cell_salt(protocol: ProtocolKind, app: AppId, plan: &str) -> u64 {
    let proto_idx = ProtocolKind::ALL
        .iter()
        .position(|&p| p == protocol)
        .expect("protocol registered") as u64;
    let app_idx = AppId::ALL
        .iter()
        .position(|&a| a == app)
        .expect("app registered") as u64;
    let plan_idx = PLAN_CATALOG
        .iter()
        .position(|&p| p == plan)
        .expect("plan in catalog") as u64;
    (proto_idx << 32) | (app_idx << 16) | plan_idx
}

/// One completed (or aborted) cell.
#[derive(Debug)]
pub struct FaultOutcome {
    /// The cell that produced this run.
    pub spec: RunPlan,
    /// The checked run (its report is `None` when the run panicked).
    pub run: CheckedRun,
    /// Violations of the campaign's promises (empty = cell passed; a
    /// degraded-but-honest report is *not* a violation).
    pub violations: Vec<String>,
}

impl FaultOutcome {
    /// Runs one cell through [`cvm_verify::checked_run`] and holds it to
    /// the campaign's promises: no panic, balanced loss counters, no
    /// oracle finding (those recorded before a panic still count).
    pub fn run(spec: RunPlan) -> FaultOutcome {
        let run = cvm_verify::checked_run(spec, PickPolicy::default(), false);
        let panicked = run.panic.iter().map(|m| format!("panicked: {m}"));
        let loss = run.report.iter().map(|r| &r.loss).filter(|l| !l.balanced());
        let unbalanced = loss.map(|l| {
            format!(
                "loss counters unbalanced: {} sent, {} delivered, {} abandoned",
                l.sends, l.delivered, l.gave_up
            )
        });
        let oracle = run.findings.iter().map(|f| format!("oracle: {f}"));
        let violations = panicked.chain(unbalanced).chain(oracle).collect();
        FaultOutcome {
            spec,
            run,
            violations,
        }
    }

    /// The cell's fault-plan name.
    pub fn plan(&self) -> &'static str {
        self.spec.faults.unwrap_or("none")
    }

    /// True when the cell upheld every promise.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// True when the run completed but abandoned traffic at retry
    /// exhaustion.
    pub fn degraded(&self) -> bool {
        self.run.report.as_ref().is_some_and(RunReport::degraded)
    }
}

/// The aggregated campaign result.
#[derive(Debug)]
pub struct FaultsReport {
    /// The campaign's configuration.
    pub config: FaultsConfig,
    /// One outcome per grid cell, in [`FaultsConfig::specs`] order.
    pub outcomes: Vec<FaultOutcome>,
}

/// Runs the campaign on the worker pool, results in grid order.
pub fn run_campaign(config: FaultsConfig) -> FaultsReport {
    let label = |o: &FaultOutcome| {
        let status = if !o.clean() {
            "VIOLATION"
        } else if o.degraded() {
            "degraded"
        } else {
            "ok"
        };
        let s = &o.spec;
        format!(
            "{} [{}] plan={} {status}",
            s.app,
            s.protocol.slug(),
            o.plan()
        )
    };
    let outcomes = crate::campaign::run(
        "faults",
        config.workers,
        config.specs(),
        label,
        |_, spec| FaultOutcome::run(spec),
    );
    FaultsReport { config, outcomes }
}

impl FaultsReport {
    /// True when every cell upheld every promise.
    pub fn clean(&self) -> bool {
        self.outcomes.iter().all(FaultOutcome::clean)
    }

    /// The outcome at one grid point, if the campaign ran it; the `none`
    /// plan's is the fault-free baseline of its `(protocol, app)` row.
    fn cell(&self, protocol: ProtocolKind, app: AppId, plan: &str) -> Option<&FaultOutcome> {
        self.outcomes
            .iter()
            .find(|o| o.spec.protocol == protocol && o.spec.app == app && o.plan() == plan)
    }

    /// The whole campaign as one JSON document (`BENCH_faults.json`).
    /// Host timings are excluded by design.
    pub fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::object();
        obj.set("schema", "cvm-faults");
        obj.set("version", 1u64);
        obj.set("scale", self.config.scale.slug());
        obj.set("seed", self.config.seed);
        obj.set("nodes", self.config.nodes);
        obj.set("threads", self.config.threads);
        obj.set("plans", self.config.plans.clone());
        let cells: Vec<JsonValue> = self.outcomes.iter().map(|o| self.cell_json(o)).collect();
        obj.set("cells", cells);
        obj.set("clean", self.clean());
        obj
    }

    /// One grid cell's summary row.
    fn cell_json(&self, o: &FaultOutcome) -> JsonValue {
        let mut row = JsonValue::object();
        row.set("app", slug(o.spec.app));
        row.set("protocol", o.spec.protocol.slug());
        row.set("plan", o.plan());
        row.set("seed", o.spec.seed);
        if let Some(r) = &o.run.report {
            row.set("total_ns", r.total_time.as_ns());
            if let Some(b) = self.cell(o.spec.protocol, o.spec.app, "none") {
                if let Some(base) = &b.run.report {
                    row.set(
                        "slowdown_vs_none",
                        r.total_time.as_ns() as f64 / base.total_time.as_ns() as f64,
                    );
                }
            }
            row.set("loss", r.loss.to_json());
            row.set("degraded", r.degraded());
            if r.degraded() {
                row.set("unfinished_threads", r.unfinished_threads);
                row.set("abandoned", r.failures.len());
            }
        }
        if let Some(p) = &o.run.panic {
            row.set("panic", p.as_str());
        }
        if !o.violations.is_empty() {
            row.set("violations", o.violations.clone());
        }
        row
    }

    /// Slowdown table: per (app, protocol) row, total time under each
    /// plan normalized to the fault-free (`none`) run of the same cell.
    pub fn slowdown_table(&self) -> String {
        let mut out = String::from("## Degradation under faults (slowdown vs fault-free)\n\n");
        out.push_str("| app | protocol |");
        for &p in &self.config.plans {
            let _ = write!(out, " {p} |");
        }
        out.push_str("\n|---|---|");
        for _ in &self.config.plans {
            out.push_str("---:|");
        }
        out.push('\n');
        for &protocol in &self.config.protocols {
            for &app in &self.config.apps {
                let _ = write!(out, "| {} | {} |", app.name(), protocol.slug());
                for &plan in &self.config.plans {
                    match self.cell(protocol, app, plan) {
                        Some(o) => match (&o.run.report, self.cell(protocol, app, "none")) {
                            (Some(r), Some(b)) => match &b.run.report {
                                Some(base) => {
                                    let s = r.total_time.as_ns() as f64
                                        / base.total_time.as_ns() as f64;
                                    let mark = if o.degraded() { "†" } else { "" };
                                    let _ = write!(out, " {s:.2}x{mark} |");
                                }
                                None => out.push_str(" ? |"),
                            },
                            (Some(_), None) => out.push_str(" - |"),
                            _ => out.push_str(" panic |"),
                        },
                        None => out.push_str(" - |"),
                    }
                }
                out.push('\n');
            }
        }
        out.push_str("\n† degraded: traffic abandoned at retry exhaustion.\n");
        out
    }

    /// Repair-work table: per plan, the reliability layer's totals summed
    /// over every (app, protocol) cell.
    pub fn repair_table(&self) -> String {
        let mut out = String::from(
            "## Reliability-layer repair work (summed over apps and protocols)\n\n\
             | plan | sends | dropped | ack drops | corrupt | partition | dups injected \
             | dup-kills | reorders | retransmits | abandoned | degraded cells |\n\
             |---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n",
        );
        for &plan in &self.config.plans {
            let mut sums = cvm_net::LossStats::default();
            let mut degraded = 0u64;
            for o in self.outcomes.iter().filter(|o| o.plan() == plan) {
                if let Some(r) = &o.run.report {
                    let l = &r.loss;
                    sums.sends += l.sends;
                    sums.dropped += l.dropped;
                    sums.ack_drops += l.ack_drops;
                    sums.corrupt_drops += l.corrupt_drops;
                    sums.partition_drops += l.partition_drops;
                    sums.duplicates_injected += l.duplicates_injected;
                    sums.duplicates_suppressed += l.duplicates_suppressed;
                    sums.reorders_injected += l.reorders_injected;
                    sums.retransmissions += l.retransmissions;
                    sums.gave_up += l.gave_up;
                    degraded += u64::from(r.degraded());
                }
            }
            let _ = writeln!(
                out,
                "| {plan} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {degraded} |",
                sums.sends,
                sums.dropped,
                sums.ack_drops,
                sums.corrupt_drops,
                sums.partition_drops,
                sums.duplicates_injected,
                sums.duplicates_suppressed,
                sums.reorders_injected,
                sums.retransmissions,
                sums.gave_up,
            );
        }
        out
    }

    /// Violations section — empty string when the campaign is clean.
    pub fn violations_section(&self) -> String {
        if self.clean() {
            return String::new();
        }
        let mut out = String::from("## Violations\n\n");
        for o in self.outcomes.iter().filter(|o| !o.clean()) {
            for v in &o.violations {
                let _ = writeln!(
                    out,
                    "- {} [{}] plan={} seed={:#x}: {v}",
                    o.spec.app,
                    o.spec.protocol.slug(),
                    o.plan(),
                    o.spec.seed
                );
            }
        }
        out
    }

    /// All markdown tables, in presentation order.
    pub fn render_tables(&self) -> String {
        let mut out = format!("{}\n{}", self.slowdown_table(), self.repair_table());
        let v = self.violations_section();
        if !v.is_empty() {
            out.push('\n');
            out.push_str(&v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(workers: usize) -> FaultsConfig {
        FaultsConfig {
            apps: vec![AppId::Sor],
            protocols: vec![ProtocolKind::LazyMultiWriter],
            plans: vec!["none", "loss-10", "dup"],
            nodes: 2,
            threads: 2,
            workers,
            ..FaultsConfig::default()
        }
    }

    #[test]
    fn cell_seeds_are_stable_and_distinct() {
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
        assert_eq!(seeds.len(), a.len(), "every cell gets its own seed");
    }

    #[test]
    #[should_panic(expected = "unknown fault plan")]
    fn unknown_plan_rejected() {
        let cfg = FaultsConfig {
            plans: vec!["gremlins"],
            ..tiny_config(1)
        };
        let _ = cfg.specs();
    }

    #[test]
    fn campaign_is_clean_and_reports_repair_work() {
        let report = run_campaign(tiny_config(2));
        assert_eq!(report.outcomes.len(), 3);
        assert!(report.clean(), "{}", report.violations_section());
        let j = report.to_json();
        assert_eq!(j.get("schema").unwrap().as_str(), Some("cvm-faults"));
        assert_eq!(j.get("clean").unwrap().as_bool(), Some(true));
        let cells = j.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 3);
        // The lossy cell did real repair work and still balanced.
        let lossy = cells
            .iter()
            .find(|c| c.get("plan").unwrap().as_str() == Some("loss-10"))
            .unwrap();
        let loss = lossy.get("loss").unwrap();
        assert!(loss.get("dropped").unwrap().as_u64().unwrap() > 0);
        assert!(loss.get("retransmissions").unwrap().as_u64().unwrap() > 0);
        let tables = report.render_tables();
        for needle in ["slowdown vs fault-free", "loss-10", "dup-kills"] {
            assert!(tables.contains(needle), "missing {needle}");
        }
        assert!(!tables.contains("## Violations"));
    }

    #[test]
    fn campaign_reports_match_across_worker_counts() {
        let serial = run_campaign(tiny_config(1));
        let parallel = run_campaign(tiny_config(3));
        assert_eq!(
            serial.to_json().to_pretty(),
            parallel.to_json().to_pretty(),
            "campaign JSON must be byte-identical at any worker count"
        );
    }
}
