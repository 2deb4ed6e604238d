//! The `cvm check` subcommand: flag parsing, the campaign of per-app
//! [`check_app`] cells, and artifact output (the `BENCH_check.json`
//! baseline and the replayable `cvm-schedule-<app>.json` counterexample
//! files).

use cvm_dsm::{InjectFault, ProtocolKind};
use cvm_verify::check::{check_app, schedule_file_name};
use cvm_verify::{schedule_to_json, AppCheck, CheckOptions, CheckReport};

use crate::cli::{write_artifact, Args, CliError};
use crate::{campaign, AppId, Scale};

/// Default output file for `cvm check --json` (committed under
/// `baselines/` so the PR gate covers the exploration statistics).
pub const FILE_NAME: &str = "BENCH_check.json";

/// What `cvm check` was asked to do.
#[derive(Debug, Clone)]
pub struct CheckCmd {
    /// What to explore.
    pub options: CheckOptions,
    /// Where the JSON report goes (`--json` = `BENCH_check.json`,
    /// `--out FILE`), if anywhere.
    pub out: Option<String>,
}

/// Parses `cvm check ARGS`.
pub fn parse(argv: &[String]) -> Result<CheckCmd, CliError> {
    let mut options = CheckOptions::default();
    // `None` stands for `all`.
    let mut apps: Vec<Option<AppId>> = Vec::new();
    let mut out: Option<String> = None;
    let mut scale: Option<Scale> = None;
    let mut args = Args::new("check", argv);
    args.each(|a| {
        match a.flag() {
            "--app" => apps.push(a.named("app", |s| match s {
                "all" => Some(None),
                _ => AppId::parse(s).map(Some),
            })?),
            "--protocol" => options.protocol = a.named("protocol", ProtocolKind::parse)?,
            "--nodes" => options.nodes = a.positive()?,
            "--threads" => options.threads = a.positive()?,
            "--schedules" => options.schedules = a.u64()?,
            "--seed" => options.seed = a.u64()?,
            "--budget" => options.budget = a.u64()?,
            "--mutate" => options.inject = Some(a.named("mutation", InjectFault::parse)?),
            "--faults" => options.faults = Some(a.plan()?),
            "--trace-capacity" => options.trace_capacity = a.positive()?,
            "--dpor" => options.dpor = true,
            "--max-traces" => options.max_traces = a.u64()?,
            "--json" => {
                out.get_or_insert_with(|| FILE_NAME.to_owned());
            }
            "--out" => out = Some(a.value()?),
            "--scale" => scale = Some(a.named("scale", Scale::parse)?),
            "--paper-scale" => scale = Some(Scale::Paper),
            _ => return Err(a.unknown()),
        }
        Ok(())
    })?;
    if options.dpor && options.faults.is_some() {
        // DPOR's soundness rests on deterministic re-execution; a
        // seeded fault plan perturbs the wire between traces.
        return Err(args.usage("--dpor requires a deterministic wire; drop --faults"));
    }
    // Exhaustion only terminates on the reduced kernels.
    let default_scale = if options.dpor {
        Scale::Tiny
    } else {
        options.scale
    };
    options.scale = scale.unwrap_or(default_scale);
    let named: Vec<AppId> = apps.iter().flatten().copied().collect();
    args.supported(&named, &[options.threads])?;
    if !apps.is_empty() {
        let each = |a: Option<AppId>| a.map_or(AppId::ALL.to_vec(), |app| vec![app]);
        options.apps = apps.into_iter().flat_map(each).collect();
    }
    options.apps.retain(|a| a.supports_threads(options.threads));
    Ok(CheckCmd { options, out })
}

/// Runs `cvm check`: Ok when every app is clean (or, under `--mutate`,
/// when the mutation was caught).
pub fn run(c: CheckCmd) -> Result<(), CliError> {
    let options = &c.options;
    let mutation = options
        .inject
        .map_or(String::new(), |f| format!(", mutation {f}"));
    let mode = if options.dpor {
        format!(
            "{}, DPOR (cap {} traces)",
            options.scale.slug(),
            options.max_traces
        )
    } else {
        format!(
            "1+{} schedules, budget {}",
            options.schedules, options.budget
        )
    };
    eprintln!(
        "[cvm check] {} app(s), {}x{}, {}, {mode}{mutation}",
        options.apps.len(),
        options.nodes,
        options.threads,
        options.protocol,
    );
    let report = run_campaign(c.options, 0);
    let options = &report.options;
    print!("{}", report.render());
    // Every DPOR counterexample becomes a schedule file `cvm run --replay`
    // re-executes byte-identically (the render already points at it).
    for app in &report.apps {
        let Some(cx) = app.failure.as_ref().and_then(|f| f.script.as_ref()) else {
            continue;
        };
        let doc = schedule_to_json(&options.plan(app.app), cx);
        write_artifact("cvm check", &schedule_file_name(app.app), &doc)?;
    }
    if let Some(path) = &c.out {
        write_artifact("cvm check", path, &report.to_json())?;
    }
    // Under `--mutate` the run is a self-test: the mutation must be
    // *caught*, so a clean report is the failure.
    let mutated = options.inject.is_some();
    if report.clean() != mutated {
        return Ok(());
    }
    let why = if mutated {
        "injected mutation went undetected"
    } else {
        "violations found"
    };
    Err(CliError::Failed(format!("[cvm check] FAIL: {why}")))
}

/// The check campaign: one [`check_app`] cell per application on
/// `workers` host threads (0 = one per core), the report in app order.
pub fn run_campaign(options: CheckOptions, workers: usize) -> CheckReport {
    let label = |a: &AppCheck| format!("{} {}", a.app, if a.clean() { "ok" } else { "FAIL" });
    let cells = options.apps.clone();
    let apps = campaign::run("cvm check", workers, cells, label, |_, app| {
        check_app(&options, app)
    });
    CheckReport { options, apps }
}
