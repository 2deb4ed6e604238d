//! Cross-shard determinism: the parallel event core must be invisible.
//!
//! The contract of `CvmConfig::shards` is that sharding changes host-time
//! overlap only — the simulated execution, and therefore the entire run
//! report, is **byte-identical** at any shard count. These tests pin that
//! contract for every application of the evaluation suite, on the clean
//! network and under the `loss-10` fault plan (retransmission timers are
//! the subtlest input to the planner's delivery floors).

use cvm_apps::{build_app, AppId, Scale};
use cvm_dsm::{CvmBuilder, CvmConfig, FaultPlan, RunReport};

const NODES: usize = 4;
const THREADS: usize = 2;

fn run(app: AppId, shards: usize, faults: Option<&str>) -> RunReport {
    // The paper's latency model: its 368.5 µs lookahead floor opens wide
    // planning windows, so multi-shard runs genuinely pre-execute bursts
    // rather than degenerating to the sequential path.
    let mut cfg = CvmConfig::paper(NODES, THREADS);
    cfg.shards = shards;
    if let Some(name) = faults {
        cfg.faults = Some(FaultPlan::named(name, NODES).expect("known plan"));
    }
    let mut b = CvmBuilder::new(cfg);
    let body = build_app(&mut b, app, Scale::Tiny);
    b.run(body)
}

fn report_json(app: AppId, shards: usize, faults: Option<&str>) -> String {
    run(app, shards, faults).to_json(10).to_string()
}

#[test]
fn every_app_is_byte_identical_across_shard_counts() {
    for app in AppId::ALL {
        let sequential = report_json(app, 1, None);
        for shards in [2, 4] {
            let sharded = run(app, shards, None);
            // Bursts really ran ahead of the driver, so in debug builds the
            // driver's check that it never reaches for the cell of a node
            // with a burst in flight (`DriverCore::cell`) was exercised.
            assert!(sharded.planned_bursts > 0, "{app}: planner never engaged");
            assert_eq!(
                sharded.to_json(10).to_string(),
                sequential,
                "{app} diverged at --shards {shards}"
            );
        }
    }
}

#[test]
fn lossy_runs_are_byte_identical_across_shard_counts() {
    // Loss exercises the retransmission path: live retry timers must be
    // reflected in the delivery floors or a pre-started burst could miss
    // a redelivered wakeup.
    for app in [AppId::Sor, AppId::WaterNsq] {
        let sequential = report_json(app, 1, Some("loss-10"));
        for shards in [2, 4] {
            let sharded = report_json(app, shards, Some("loss-10"));
            assert_eq!(
                sharded, sequential,
                "{app} with loss-10 diverged at --shards {shards}"
            );
        }
    }
}

#[test]
fn oversharding_clamps_to_node_count() {
    // More shards than nodes is legal (the map clamps) and still exact.
    let sequential = report_json(AppId::Fft, 1, None);
    let oversharded = report_json(AppId::Fft, 64, None);
    assert_eq!(oversharded, sequential);
}
