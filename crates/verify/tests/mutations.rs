//! Oracle self-tests: each injected protocol mutation must be caught,
//! and the faithful protocol must come back clean.

use cvm_apps::{AppId, Scale};
use cvm_dsm::{InjectFault, Invariant, ProtocolKind};
use cvm_sim::ExploreSpec;
use cvm_verify::check::{check_app, CheckOptions, CheckReport};
use cvm_verify::explore::{run_schedule, RunPlan};

fn plan(inject: Option<InjectFault>) -> RunPlan {
    RunPlan {
        app: AppId::Sor,
        scale: Scale::Small,
        nodes: 2,
        threads: 2,
        protocol: ProtocolKind::LazyMultiWriter,
        inject,
        faults: None,
        trace_capacity: 4_000_000,
        seed: cvm_dsm::DEFAULT_SEED,
    }
}

/// The check campaign over `options.apps`, one cell after another.
fn report_of(options: CheckOptions) -> CheckReport {
    let apps = options
        .apps
        .iter()
        .map(|&app| check_app(&options, app))
        .collect();
    CheckReport { options, apps }
}

#[test]
fn faithful_run_is_clean() {
    let result = run_schedule(plan(None), None);
    assert_eq!(result.panic, None);
    assert!(
        result.findings.is_empty(),
        "clean run reported findings: {:?}",
        result.findings
    );
    assert_eq!(result.trace_dropped, 0, "raise the test trace capacity");
}

#[test]
fn explored_schedules_are_clean_and_perturbed() {
    let spec = ExploreSpec {
        seed: 0xFEED_F00D,
        budget: 32,
    };
    let result = run_schedule(plan(None), Some(spec));
    assert_eq!(result.panic, None);
    assert!(
        result.findings.is_empty(),
        "explored schedule reported findings: {:?}",
        result.findings
    );
    assert!(
        result.report.is_some_and(|r| r.explore_decisions > 0),
        "the exploration budget perturbed no decisions"
    );
}

#[test]
fn dropped_write_notice_is_caught() {
    let result = run_schedule(plan(Some(InjectFault::DropWriteNotice { nth: 0 })), None);
    assert!(result.failed(), "dropped notice went undetected");
    assert!(
        result.findings.iter().any(|f| matches!(
            f.invariant,
            Invariant::NoticeCoverage | Invariant::LostUpdate
        )),
        "expected NoticeCoverage or LostUpdate, got: {:?} panic: {:?}",
        result.findings,
        result.panic
    );
}

#[test]
fn reordered_diff_apply_is_caught() {
    let result = run_schedule(plan(Some(InjectFault::ReorderDiffApply { nth: 0 })), None);
    assert!(
        result.failed(),
        "reordered diff application went undetected"
    );
    assert!(
        result
            .findings
            .iter()
            .any(|f| f.invariant == Invariant::DiffApplyOrder),
        "expected DiffApplyOrder, got: {:?} panic: {:?}",
        result.findings,
        result.panic
    );
}

#[test]
fn skipped_invalidate_is_caught() {
    let result = run_schedule(plan(Some(InjectFault::SkipInvalidate { nth: 0 })), None);
    assert!(result.failed(), "skipped invalidation went undetected");
    assert!(
        result.findings.iter().any(|f| matches!(
            f.invariant,
            Invariant::PendingImpliesInvalid | Invariant::LostUpdate
        )),
        "expected PendingImpliesInvalid or LostUpdate, got: {:?} panic: {:?}",
        result.findings,
        result.panic
    );
}

#[test]
fn check_driver_minimizes_injected_failures() {
    let options = CheckOptions {
        apps: vec![AppId::Sor],
        schedules: 2,
        inject: Some(InjectFault::DropWriteNotice { nth: 0 }),
        ..CheckOptions::default()
    };
    let report = report_of(options);
    assert!(!report.clean(), "injected fault not detected by cvm check");
    let failure = report.apps[0].failure.as_ref().expect("failure recorded");
    // The injection fires independent of scheduling, so the unperturbed
    // baseline (spec None) must already catch it.
    assert!(failure.spec.is_none(), "baseline should have failed first");
    let rendered = report.render();
    assert!(
        rendered.contains("FAIL"),
        "render misses failure: {rendered}"
    );
}

#[test]
fn non_default_protocols_survive_schedule_exploration() {
    for protocol in [ProtocolKind::EagerUpdate, ProtocolKind::HomeLazy] {
        let options = CheckOptions {
            apps: vec![AppId::Sor],
            schedules: 2,
            protocol,
            ..CheckOptions::default()
        };
        let report = report_of(options);
        assert!(report.clean(), "{protocol}: {}", report.render());
    }
}

#[test]
fn check_driver_reports_clean_suite() {
    let options = CheckOptions {
        apps: vec![AppId::Sor],
        schedules: 1,
        ..CheckOptions::default()
    };
    let report = report_of(options);
    assert!(report.clean(), "clean SOR reported: {}", report.render());
    assert!(report.render().contains("ok"));
}
