//! `cvm sweep` and `cvm faults` — the cross-product sweep and the
//! fault-injection campaign commands.

use cvm_sim::json::JsonValue;

use crate::cli::{write_artifact, write_text, Args, CliError};
use crate::faults::{self, FaultsConfig};
use crate::sweep::{self, SweepConfig};
use crate::{AppId, Scale};

/// What a grid campaign (`cvm sweep`, `cvm faults`) was asked to do.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GridCmd<C> {
    /// The grid to run.
    pub cfg: C,
    /// Where the JSON report goes (`--json` = the campaign's
    /// `BENCH_*.json`, `--out FILE`), if anywhere.
    pub out: Option<String>,
    /// `--md FILE`: the markdown tables, as well as on stdout.
    pub md: Option<String>,
}

/// `cvm sweep`'s command.
pub type SweepCmd = GridCmd<SweepConfig>;
/// `cvm faults`' command.
pub type FaultsCmd = GridCmd<FaultsConfig>;

impl<C> GridCmd<C> {
    /// Prints the tables and writes the copies that were asked for.
    fn emit(&self, tag: &str, tables: &str, doc: &JsonValue) -> Result<(), CliError> {
        print!("{tables}");
        if let Some(path) = &self.md {
            write_text(tag, path, tables)?;
        }
        match &self.out {
            Some(path) => write_artifact(tag, path, doc),
            None => Ok(()),
        }
    }
}

/// Parses `cvm sweep ARGS`.
pub fn parse_sweep(argv: &[String]) -> Result<SweepCmd, CliError> {
    let mut c = SweepCmd::default();
    let mut apps: Vec<AppId> = Vec::new();
    let mut args = Args::new("sweep", argv);
    args.each(|a| {
        match a.flag() {
            "--json" => {
                c.out.get_or_insert_with(|| sweep::FILE_NAME.to_owned());
            }
            "--out" => c.out = Some(a.value()?),
            "--md" => c.md = Some(a.value()?),
            "--spans" => c.cfg.spans = true,
            "--workers" => c.cfg.workers = a.value()?,
            "--nodes" => c.cfg.nodes = a.list()?,
            "--threads" => c.cfg.threads = a.list()?,
            "--app" => apps.push(a.app()?),
            "--protocol" => c.cfg.protocols = a.protocols()?,
            "--seed" => c.cfg.seed = a.u64()?,
            "--paper-scale" => c.cfg.scale = Scale::Paper,
            _ => return Err(a.unknown()),
        }
        Ok(())
    })?;
    args.supported(&apps, &c.cfg.threads)?;
    if !apps.is_empty() {
        c.cfg.apps = apps;
    }
    Ok(c)
}

/// Runs `cvm sweep`.
pub fn run_sweep(c: SweepCmd) -> Result<(), CliError> {
    let report = sweep::run_sweep(c.cfg.clone());
    c.emit("sweep", &report.render_tables(), &report.to_json())
}

/// Parses `cvm faults ARGS`.
pub fn parse_faults(argv: &[String]) -> Result<FaultsCmd, CliError> {
    let mut c = FaultsCmd::default();
    let mut apps: Vec<AppId> = Vec::new();
    let mut plans: Vec<&'static str> = Vec::new();
    let mut args = Args::new("faults", argv);
    args.each(|a| {
        match a.flag() {
            "--json" => {
                c.out.get_or_insert_with(|| faults::FILE_NAME.to_owned());
            }
            "--out" => c.out = Some(a.value()?),
            "--md" => c.md = Some(a.value()?),
            "--workers" => c.cfg.workers = a.value()?,
            "--app" => apps.push(a.app()?),
            "--protocol" => c.cfg.protocols = a.protocols()?,
            "--plan" => plans.push(a.plan()?),
            "--nodes" => c.cfg.nodes = a.positive()?,
            "--threads" => c.cfg.threads = a.positive()?,
            "--seed" => c.cfg.seed = a.u64()?,
            "--paper-scale" => c.cfg.scale = Scale::Paper,
            _ => return Err(a.unknown()),
        }
        Ok(())
    })?;
    args.supported(&apps, &[c.cfg.threads])?;
    if !apps.is_empty() {
        c.cfg.apps = apps;
    }
    if !plans.is_empty() {
        c.cfg.plans = plans;
    }
    c.cfg.apps.retain(|a| a.supports_threads(c.cfg.threads));
    Ok(c)
}

/// Runs `cvm faults`.
pub fn run_faults(c: FaultsCmd) -> Result<(), CliError> {
    let report = faults::run_campaign(c.cfg.clone());
    c.emit("faults", &report.render_tables(), &report.to_json())?;
    if !report.clean() {
        return Err(CliError::Failed(
            "[faults] FAIL: the campaign found violations".to_owned(),
        ));
    }
    Ok(())
}
