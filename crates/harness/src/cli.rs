//! Command-line front end of the `cvm` binary: the argument cursor every
//! subcommand parses with ([`Args`]), the two artifact helpers
//! ([`write_artifact`], [`gate_against`]) and the dispatcher ([`run`]).
//!
//! Each subcommand lives in a sibling module as a `parse(&[String]) ->
//! Result<Config, CliError>` plus a `run(Config) -> Result<(), CliError>`;
//! its usage section is a paragraph of `usage.txt`. Nothing below [`run`]
//! prints an error or exits: a bad command line comes back as
//! [`CliError::Usage`] (exit 2, one line naming the subcommand and flag,
//! then that subcommand's usage section only), a failed gate or campaign
//! as [`CliError::Failed`] (exit 1).

use std::fmt;
use std::str::FromStr;

use cvm_dsm::ProtocolKind;
use cvm_sim::json::JsonValue;

use crate::{bench_cli, check_cli, explain, run_cli, serve_cli, sweep_cli, tables, AppId};

/// Everything `cvm --help` prints: a synopsis paragraph, then one
/// "`<cmd>` options:" paragraph per subcommand.
const USAGE: &str = include_str!("usage.txt");

/// The usage paragraph an error in `cmd` prints: that subcommand's own
/// section, or the synopsis for a table command or an unknown one.
fn usage(cmd: &str) -> &'static str {
    let head = format!("{cmd} options:\n");
    let mut paragraphs = USAGE.split("\n\n");
    let synopsis = paragraphs.next().unwrap_or(USAGE);
    paragraphs
        .find(|p| p.starts_with(&head))
        .unwrap_or(synopsis)
}

/// Why a command stopped early. [`run`] prints it and picks the exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A bad command line (exit 2).
    Usage {
        /// The subcommand whose usage section follows the message.
        cmd: String,
        /// What was wrong, naming the flag.
        msg: String,
    },
    /// The command ran and failed — a gate regression, a campaign
    /// violation, an unreadable input (exit 1).
    Failed(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage { cmd, msg } => write!(f, "cvm {cmd}: {msg}"),
            CliError::Failed(msg) => f.write_str(msg),
        }
    }
}

/// A cursor over one subcommand's arguments. [`Args::each`] is the
/// harness's only flag loop; a subcommand's parser is one `match` arm per
/// flag, pulling operands through the typed accessors.
#[derive(Debug)]
pub struct Args<'a> {
    cmd: &'a str,
    flag: &'a str,
    it: std::slice::Iter<'a, String>,
}

impl<'a> Args<'a> {
    /// A cursor at the start of `cmd`'s arguments.
    pub fn new(cmd: &'a str, argv: &'a [String]) -> Self {
        Args {
            cmd,
            flag: "",
            it: argv.iter(),
        }
    }

    /// Calls `f` once per flag (or positional), with the cursor just past
    /// it so `f` can pull the flag's operand.
    pub fn each(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<(), CliError>,
    ) -> Result<(), CliError> {
        while let Some(a) = self.it.next() {
            self.flag = a;
            f(self)?;
        }
        Ok(())
    }

    /// The flag (or positional) being parsed.
    pub fn flag(&self) -> &'a str {
        self.flag
    }

    /// A usage error for this subcommand.
    pub fn usage(&self, msg: impl fmt::Display) -> CliError {
        CliError::Usage {
            cmd: self.cmd.to_owned(),
            msg: msg.to_string(),
        }
    }

    /// A usage error about the current flag's operand.
    pub fn err(&self, msg: impl fmt::Display) -> CliError {
        self.usage(format_args!("{}: {msg}", self.flag))
    }

    /// The error for a flag this subcommand does not have.
    pub fn unknown(&self) -> CliError {
        self.usage(format_args!("unknown flag {:?}", self.flag))
    }

    fn operand(&mut self) -> Result<&'a str, CliError> {
        match self.it.next() {
            Some(v) => Ok(v),
            None => Err(self.err("missing value")),
        }
    }

    fn parsed<T: FromStr<Err: fmt::Display>>(&self, text: &str) -> Result<T, CliError> {
        text.parse()
            .map_err(|e| self.err(format_args!("{e}, got {text:?}")))
    }

    fn positive_of<T: FromStr<Err: fmt::Display> + PartialOrd + Default>(
        &self,
        text: &str,
    ) -> Result<T, CliError> {
        let n: T = self.parsed(text)?;
        if n > T::default() {
            Ok(n)
        } else {
            Err(self.err(format_args!("must be positive, got {text:?}")))
        }
    }

    /// The flag's operand, parsed (paths are `value::<String>()`).
    pub fn value<T: FromStr<Err: fmt::Display>>(&mut self) -> Result<T, CliError> {
        let v = self.operand()?;
        self.parsed(v)
    }

    /// An operand that must be greater than zero: node, thread and shard
    /// counts, rates, the gate percentage.
    pub fn positive<T: FromStr<Err: fmt::Display> + PartialOrd + Default>(
        &mut self,
    ) -> Result<T, CliError> {
        let v = self.operand()?;
        self.positive_of(v)
    }

    /// A comma-separated, non-empty list of positive values.
    pub fn list<T: FromStr<Err: fmt::Display> + PartialOrd + Default>(
        &mut self,
    ) -> Result<Vec<T>, CliError> {
        let v = self.operand()?;
        v.split(',')
            .map(|part| self.positive_of(part.trim()))
            .collect()
    }

    /// A `u64` in decimal or `0x` hex (seeds, budgets, span ids).
    pub fn u64(&mut self) -> Result<u64, CliError> {
        let v = self.operand()?;
        let parsed = match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => v.parse(),
        };
        parsed.map_err(|e| self.err(format_args!("{e}, got {v:?}")))
    }

    /// An operand naming one of a closed set (`what` names the set in the
    /// error).
    pub fn named<T>(
        &mut self,
        what: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<T, CliError> {
        let v = self.operand()?;
        parse(v).ok_or_else(|| self.err(format_args!("unknown {what} {v:?}")))
    }

    /// An application slug (`sor`, `water-nsq`, …).
    pub fn app(&mut self) -> Result<AppId, CliError> {
        self.named("app", AppId::parse)
    }

    /// A comma-separated, non-empty list of coherence protocols.
    pub fn protocols(&mut self) -> Result<Vec<ProtocolKind>, CliError> {
        let v = self.operand()?;
        v.split(',')
            .map(|p| {
                let p = p.trim();
                ProtocolKind::parse(p)
                    .ok_or_else(|| self.err(format_args!("unknown protocol {p:?}")))
            })
            .collect()
    }

    /// A fault-plan name from [`cvm_net::PLAN_CATALOG`].
    pub fn plan(&mut self) -> Result<&'static str, CliError> {
        let v = self.operand()?;
        let catalog = cvm_net::PLAN_CATALOG;
        catalog.iter().find(|p| **p == v).copied().ok_or_else(|| {
            self.err(format_args!(
                "unknown fault plan {v:?}; catalog: {}",
                catalog.join(", ")
            ))
        })
    }

    /// The usage error for an application named on the command line that
    /// runs at none of `threads` threads per node.
    pub fn supported(&self, named: &[AppId], threads: &[usize]) -> Result<(), CliError> {
        let runs = |a: &&AppId| threads.iter().any(|&t| a.supports_threads(t));
        let Some(app) = named.iter().find(|a| !runs(a)) else {
            return Ok(());
        };
        let threads: Vec<String> = threads.iter().map(usize::to_string).collect();
        let msg = format!(
            "{app} does not support {} threads per node",
            threads.join(" or ")
        );
        Err(self.usage(msg))
    }
}

/// Reads and parses a JSON file.
pub fn load_json(path: &str) -> Result<JsonValue, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Failed(format!("cannot read {path}: {e}")))?;
    JsonValue::parse(&text).map_err(|e| CliError::Failed(format!("{path} is not valid JSON: {e}")))
}

/// Writes `text` to `path` and says so on stderr under `[tag]`.
pub fn write_text(tag: &str, path: &str, text: &str) -> Result<(), CliError> {
    std::fs::write(path, text)
        .map_err(|e| CliError::Failed(format!("cannot write {path}: {e}")))?;
    eprintln!("[{tag}] wrote {path}");
    Ok(())
}

/// Writes a JSON artifact, pretty-printed (the byte-compared form).
pub fn write_artifact(tag: &str, path: &str, doc: &JsonValue) -> Result<(), CliError> {
    write_text(tag, path, &doc.to_pretty())
}

/// Gates `doc` against the baseline artifact at `baseline_path`: prints
/// the verdict, fails beyond twice `pct`.
pub fn gate_against(baseline_path: &str, doc: &JsonValue, pct: f64) -> Result<(), CliError> {
    let outcome = crate::gate::compare(&load_json(baseline_path)?, doc, pct);
    print!("{}", outcome.render(pct));
    if outcome.failed() {
        return Err(CliError::Failed(format!(
            "regression gate failed against {baseline_path}"
        )));
    }
    Ok(())
}

/// Runs subcommand `cmd` over its arguments.
///
/// `--host-time` is the one flag read here and not by a subcommand's
/// parser: it is about the process, not about any campaign's
/// configuration. The five subcommands that run the driver take it, and
/// the seam table goes to stderr once the campaign is over, whether or not
/// it succeeded.
pub fn dispatch(cmd: &str, argv: &[String]) -> Result<(), CliError> {
    const HOST_TIME: &str = "--host-time";
    let drives = matches!(cmd, "run" | "sweep" | "faults" | "serve" | "check");
    let mut argv = argv.to_vec();
    if drives && argv.iter().any(|a| a == HOST_TIME) {
        argv.retain(|a| a != HOST_TIME);
        cvm_dsm::enable_host_time();
    }
    let argv = &argv[..];
    let result = match cmd {
        "run" => run_cli::parse(argv).and_then(run_cli::run),
        "bench" => bench_cli::parse(argv).and_then(bench_cli::run),
        "sweep" => sweep_cli::parse_sweep(argv).and_then(sweep_cli::run_sweep),
        "faults" => sweep_cli::parse_faults(argv).and_then(sweep_cli::run_faults),
        "serve" => serve_cli::parse(argv).and_then(serve_cli::run),
        "check" => check_cli::parse(argv).and_then(check_cli::run),
        "explain" => explain::parse(argv).and_then(explain::run),
        _ => tables::parse(cmd, argv).and_then(tables::run),
    };
    if let Some(table) = cvm_dsm::host_time_table() {
        eprint!("{table}");
    }
    result
}

/// Entry point of the `cvm` binary: parses `std::env::args`, dispatches,
/// and is the only place that prints an error or exits.
pub fn run() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // The subcommand is the first non-flag word, so `cvm --paper-scale
    // all` keeps working; `cvm --help` has none and gets everything.
    let Some(at) = argv.iter().position(|a| !a.starts_with('-')) else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    let cmd = argv.remove(at);
    if let Err(e) = dispatch(&cmd, &argv) {
        eprintln!("{e}");
        let code = match &e {
            CliError::Failed(_) => 1,
            CliError::Usage { cmd, .. } => {
                eprintln!("{}", usage(cmd).trim_end());
                2
            }
        };
        std::process::exit(code);
    }
}
