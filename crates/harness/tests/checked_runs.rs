//! Both verification campaigns over the one checked run
//! (`cvm_verify::checked_run`): a `cvm faults` cell carries a protocol
//! mutation through to its row, and `cvm check` is a campaign whose
//! report does not depend on the worker count.

use cvm_apps::{AppId, Scale};
use cvm_dsm::InjectFault;
use cvm_harness::check_cli;
use cvm_harness::faults::{FaultOutcome, FaultsConfig, FaultsReport};
use cvm_sim::json::JsonValue;
use cvm_verify::CheckOptions;

#[test]
fn a_mutated_faults_cell_reports_oracle_violations() {
    let config = FaultsConfig {
        apps: vec![AppId::Sor],
        protocols: vec![cvm_dsm::ProtocolKind::LazyMultiWriter],
        plans: vec!["none"],
        nodes: 2,
        threads: 2,
        ..FaultsConfig::default()
    };
    let mut spec = config.specs().remove(0);
    spec.inject = Some(InjectFault::DropWriteNotice { nth: 0 });
    // Only the race replay sees a dropped notice; asking for a trace is
    // what arms it.
    spec.trace_capacity = 1 << 20;
    let report = FaultsReport {
        outcomes: vec![FaultOutcome::run(spec)],
        config,
    };
    let doc = report.to_json();
    assert_eq!(doc.get("clean").and_then(JsonValue::as_bool), Some(false));
    let cells = doc
        .get("cells")
        .and_then(JsonValue::as_array)
        .expect("cells");
    let violations = cells[0]
        .get("violations")
        .and_then(JsonValue::as_array)
        .expect("the row lists its violations");
    assert!(
        violations.iter().any(|v| v
            .as_str()
            .is_some_and(|v| v.starts_with("oracle: invariant LostUpdate"))),
        "{violations:?}"
    );
    assert!(report.render_tables().contains("## Violations"));
}

#[test]
fn check_campaign_is_the_same_at_any_worker_count() {
    let options = CheckOptions {
        apps: vec![AppId::Sor, AppId::Fft],
        dpor: true,
        scale: Scale::Tiny,
        max_traces: 300,
        ..CheckOptions::default()
    };
    let one = check_cli::run_campaign(options.clone(), 1);
    let three = check_cli::run_campaign(options, 3);
    assert!(one.clean(), "{}", one.render());
    assert_eq!(one.render(), three.render());
    assert_eq!(one.to_json().to_pretty(), three.to_json().to_pretty());
}
