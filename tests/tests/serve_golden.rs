//! The serving workload's determinism contract: `BENCH_serve.json` is a
//! pure function of the scenario — never of host workers or which run
//! produced it.

use cvm_apps::kv::scenario::ServeScenario;
use cvm_apps::kv::KvConfig;
use cvm_harness::serve::{run_serve, ServeConfig};

/// A host-cheap two-cell ladder.
fn tiny() -> ServeScenario {
    let mut sc = ServeScenario::builtin("smoke").expect("builtin");
    sc.name = "tiny".into();
    sc.kv = KvConfig {
        keys: 2048,
        shards: 4,
        theta: 0.9,
        write_mix: 0.3,
        rate_rps: 2_000.0,
        duration_ms: 20,
        service_flops: 100,
    };
    sc.nodes = 2;
    sc.threads = 2;
    sc.sweep = vec![1_000.0, 3_000.0];
    sc
}

fn bytes_of(workers: usize, scenario: ServeScenario) -> String {
    run_serve(ServeConfig { scenario, workers })
        .to_json()
        .to_pretty()
}

#[test]
fn serve_artifact_is_byte_identical_across_workers() {
    let golden = bytes_of(1, tiny());
    for workers in [2, 3] {
        assert_eq!(
            golden,
            bytes_of(workers, tiny()),
            "workers={workers} changed the artifact bytes"
        );
    }
}

#[test]
fn serve_artifact_is_seed_stable_and_seed_sensitive() {
    let a = bytes_of(1, tiny());
    let b = bytes_of(2, tiny());
    assert_eq!(a, b, "same seed must reproduce the artifact");

    let mut reseeded = tiny();
    reseeded.seed ^= 0xDEAD_BEEF;
    let report = run_serve(ServeConfig::new(reseeded));
    let base = run_serve(ServeConfig::new(tiny()));
    // A different master seed draws different Poisson schedules and key
    // streams; the latency mass cannot collide.
    let sig = |r: &cvm_harness::serve::ServeReport| {
        r.cells
            .iter()
            .map(|c| (c.served, c.report.hist.request_ns.sum()))
            .collect::<Vec<_>>()
    };
    assert_ne!(sig(&base), sig(&report), "reseeding must change the run");
}

#[test]
fn table_checksum_is_topology_independent_per_cell() {
    // Same total thread count, different node split: per-thread request
    // streams are keyed by global thread id, so each ladder cell's table
    // checksum must agree across splits.
    let mut wide = tiny();
    wide.nodes = 4;
    wide.threads = 1;
    let narrow = run_serve(ServeConfig::new(tiny()));
    let split = run_serve(ServeConfig::new(wide));
    for (a, b) in narrow.cells.iter().zip(&split.cells) {
        assert_eq!(a.table_sum, b.table_sum, "rate {} rps", a.rate_rps);
        assert_eq!(a.served, b.served, "rate {} rps", a.rate_rps);
    }
}

#[test]
fn every_served_request_lands_in_the_latency_histogram() {
    let report = run_serve(ServeConfig::new(tiny()));
    for c in &report.cells {
        assert_eq!(c.report.hist.request_ns.count(), c.served);
        assert!(c.report.hist.request_ns.p999() >= c.report.hist.request_ns.p50());
    }
}
