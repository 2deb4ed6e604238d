//! The walk: one representative cell of the workload run in-process,
//! with a span around the public calls, to split `host_wall_s` into
//! run / emit. Building is part of the run span: `CvmBuilder::new` and
//! `build_app` only lay out addresses and box a closure (under 1 µs),
//! the system comes to be inside `run`. The same run yields the memory
//! peaks, which no CLI artifact of these workloads carries.

use std::time::Instant;

use cvm_apps::kv::scenario::ServeScenario;
use cvm_apps::{build_app, kv, AppId, Scale};
use cvm_dsm::{CvmBuilder, CvmConfig, FaultPlan, RunReport};
use cvm_sim::workq;

use super::Out;
use crate::workload::Workload;

/// Index of the 1500 rps cell in [`crate::workload::SERVE_RATES`].
const SERVE_CELL: usize = 2;

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Builds and runs a registry app.
fn batch_cell(cfg: CvmConfig, app: AppId, scale: Scale) -> RunReport {
    let mut b = CvmBuilder::new(cfg);
    let body = build_app(&mut b, app, scale);
    b.run(body)
}

/// Parses the generated deck and serves its 1500 rps cell the way
/// `cvm serve` derives it (cell seed split from the deck's seed).
fn serve_cell(seed: u64) -> RunReport {
    let sc = ServeScenario::parse("ladder", &Workload::serve_deck(seed)).expect("own deck parses");
    let mut kv_cfg = sc.kv;
    kv_cfg.rate_rps = sc.sweep[SERVE_CELL];
    let mut dsm = CvmConfig::paper(sc.nodes, sc.threads);
    dsm.seed = workq::seed_split(sc.seed, SERVE_CELL as u64);
    dsm.local_grant_cap = sc.local_grant_cap;
    let (_, served, report) = kv::serve_of_config(&kv_cfg, dsm);
    assert!(served > 0, "the serve cell served nothing");
    report
}

pub(super) fn run(out: &Out, workload: Workload, seed: u64) {
    let mut cell = None;
    out.probe("walk.run_ms", || {
        let t0 = Instant::now();
        cell = Some(match workload {
            Workload::SweepBatch => batch_cell(CvmConfig::paper(4, 2), AppId::Sor, Scale::Small),
            Workload::ServeLadder => serve_cell(seed),
            Workload::Scale128 => batch_cell(CvmConfig::paper(128, 4), AppId::Barnes, Scale::Small),
            Workload::DporSor => batch_cell(CvmConfig::paper(2, 2), AppId::Sor, Scale::Tiny),
            Workload::FaultsLossy => {
                let mut cfg = CvmConfig::paper(8, 2);
                cfg.faults = FaultPlan::named("loss-10", 8);
                batch_cell(cfg, AppId::Barnes, Scale::Small)
            }
        });
        ms_since(t0)
    });
    let report = cell.expect("the cell ran");
    out.probe("walk.emit_ms", || {
        let t0 = Instant::now();
        let text = report.to_json(5).to_pretty();
        assert!(!text.is_empty());
        ms_since(t0)
    });
    out.value(
        "core.twin_peak_bytes",
        report.mem_peaks.twin_global_peak as f64,
    );
    out.value(
        "core.diffcache_peak_bytes",
        report.mem_peaks.cache_global_peak as f64,
    );
    out.value(
        "net.parked_peak_bytes",
        report.mem_peaks.parked_global_peak as f64,
    );
}
