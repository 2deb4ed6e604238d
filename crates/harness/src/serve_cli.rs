//! `cvm serve` — the serving-workload command-line front end.
//!
//! The positional argument names a scenario: a builtin
//! ([`ServeScenario::BUILTINS`]) or a path to an INI scenario file
//! (anything containing a path separator or a dot is treated as a path).
//! Flags override the file; the artifact gates against a committed
//! baseline exactly like `cvm bench --baseline`.

use cvm_apps::kv::scenario::ServeScenario;

use crate::cli::{gate_against, write_artifact, Args, CliError};
use crate::serve::{run_serve, ServeConfig, FILE_NAME};

/// What `cvm serve` was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCmd {
    /// The resolved scenario (flag overrides applied) and host knobs.
    pub cfg: ServeConfig,
    /// Where the JSON report goes (`--json` = `BENCH_serve.json`,
    /// `--out FILE`), if anywhere.
    pub out: Option<String>,
    /// `--baseline FILE`: gate the report against FILE.
    pub baseline: Option<String>,
    /// `--gate PCT`: warn above PCT, fail above twice it.
    pub gate_pct: f64,
}

/// Resolves the positional scenario argument: builtin name or file path.
fn load_scenario(args: &Args<'_>, arg: &str) -> Result<ServeScenario, CliError> {
    if let Some(sc) = ServeScenario::builtin(arg) {
        return Ok(sc);
    }
    if !arg.contains('/') && !arg.contains('.') {
        return Err(args.usage(format_args!(
            "unknown scenario {arg:?}; builtins: {} (or pass a file path)",
            ServeScenario::BUILTINS.join(", ")
        )));
    }
    let text = std::fs::read_to_string(arg)
        .map_err(|e| CliError::Failed(format!("cannot read {arg}: {e}")))?;
    let stem = std::path::Path::new(arg)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(arg);
    ServeScenario::parse(stem, &text).map_err(|e| CliError::Failed(format!("{arg}: {e}")))
}

/// Parses `cvm serve ARGS` and loads the scenario it names.
pub fn parse(argv: &[String]) -> Result<ServeCmd, CliError> {
    let mut scenario_arg: Option<&str> = None;
    let mut workers = 0usize;
    let mut out: Option<String> = None;
    let (mut baseline, mut gate_pct) = (None, 5.0);
    let mut rate: Option<f64> = None;
    let mut sweep: Option<Vec<f64>> = None;
    let mut cap: Option<u32> = None;
    let mut seed: Option<u64> = None;
    let mut args = Args::new("serve", argv);
    args.each(|a| {
        match a.flag() {
            "--json" => {
                out.get_or_insert_with(|| FILE_NAME.to_owned());
            }
            "--out" => out = Some(a.value()?),
            "--baseline" => baseline = Some(a.value()?),
            "--gate" => gate_pct = a.positive()?,
            "--workers" => workers = a.value()?,
            "--rate" => rate = Some(a.positive()?),
            "--sweep" => sweep = Some(a.list()?),
            "--cap" => cap = Some(a.value()?),
            "--seed" => seed = Some(a.u64()?),
            name if !name.starts_with('-') && scenario_arg.is_none() => scenario_arg = Some(name),
            _ => return Err(a.unknown()),
        }
        Ok(())
    })?;
    let scenario_arg = scenario_arg.unwrap_or("session");
    let mut scenario = load_scenario(&args, scenario_arg)?;
    if let Some(r) = rate {
        scenario.kv.rate_rps = r;
    }
    if let Some(rates) = sweep {
        scenario.sweep = rates;
    }
    if let Some(c) = cap {
        scenario.local_grant_cap = c;
    }
    if let Some(s) = seed {
        scenario.seed = s;
    }
    // The deck was checked when it was read; this is for the overrides
    // (`--rate inf` is a positive number).
    scenario
        .validate()
        .map_err(|e| CliError::Failed(format!("{scenario_arg}: {e}")))?;
    let cfg = ServeConfig { scenario, workers };
    Ok(ServeCmd {
        cfg,
        out,
        baseline,
        gate_pct,
    })
}

/// Runs `cvm serve`.
pub fn run(c: ServeCmd) -> Result<(), CliError> {
    let report = run_serve(c.cfg);
    print!("{}", report.render_summary());
    let doc = report.to_json();
    if let Some(path) = &c.out {
        write_artifact("serve", path, &doc)?;
    }
    match &c.baseline {
        Some(baseline) => gate_against(baseline, &doc, c.gate_pct),
        None => Ok(()),
    }
}
