//! `cvm run` — single-run driver: one app, one configuration, optional
//! report/trace artifacts, and the DPOR counterexample replayer.

use cvm_apps::build_app;
use cvm_dsm::{CvmBuilder, ProtocolKind};

use crate::cli::{load_json, write_artifact, write_text, Args, CliError};
use crate::runner::{config_for, RunSpec};
use crate::{AppId, Scale};

/// What `cvm run` was asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunCmd {
    /// `--replay FILE`: re-execute a recorded schedule. The file names
    /// the application; a positional one must agree with it.
    Replay(String, Option<AppId>),
    /// One run.
    Single {
        /// Application, geometry, protocol and switches.
        spec: RunSpec,
        /// `--verify`: run under the oracle and the offline race replay.
        verify: bool,
        /// `--trace N`: print the first N protocol events (0 = off).
        trace: usize,
        /// `--json FILE`: the full run report.
        json: Option<String>,
        /// `--chrome-trace FILE`: the Chrome trace-event export.
        chrome: Option<String>,
    },
}

/// Parses `cvm run ARGS`.
pub fn parse(argv: &[String]) -> Result<RunCmd, CliError> {
    // The positional application replaces the placeholder below.
    let mut spec = RunSpec::new(AppId::Sor, Scale::Small, 8, 2);
    let (mut app, mut verify, mut trace) = (None, false, 0);
    let (mut json, mut chrome, mut replay) = (None, None, None);
    let mut args = Args::new("run", argv);
    args.each(|a| {
        match a.flag() {
            "--nodes" => spec.nodes = a.positive()?,
            "--threads" => spec.threads = a.positive()?,
            "--paper-scale" => spec.scale = Scale::Paper,
            "--protocol" => spec.protocol = a.named("protocol", ProtocolKind::parse)?,
            "--eager" => spec.protocol = ProtocolKind::EagerUpdate,
            "--lifo" => spec.lifo = true,
            "--memsim" => spec.memsim = true,
            "--verify" => verify = true,
            "--trace" => trace = a.value()?,
            "--spans" => spec.spans = true,
            "--json" => json = Some(a.value()?),
            "--chrome-trace" => chrome = Some(a.value()?),
            "--replay" => replay = Some(a.value()?),
            name if !name.starts_with('-') && app.is_none() => {
                let known = AppId::parse(name);
                app = Some(known.ok_or_else(|| a.usage(format_args!("unknown app {name:?}")))?);
            }
            _ => return Err(a.unknown()),
        }
        Ok(())
    })?;
    if let Some(path) = replay {
        return Ok(RunCmd::Replay(path, app));
    }
    spec.app = app.ok_or_else(|| args.usage("missing application"))?;
    args.supported(&[spec.app], &[spec.threads])?;
    Ok(RunCmd::Single {
        spec,
        verify,
        trace,
        json,
        chrome,
    })
}

/// Runs `cvm run`: fails on oracle findings under `--verify`, a diverged
/// `--replay`, or an unwritable artifact.
pub fn run(cmd: RunCmd) -> Result<(), CliError> {
    let (spec, verify, trace, json, chrome) = match cmd {
        RunCmd::Replay(path, app) => return run_replay(app, &path),
        RunCmd::Single {
            spec,
            verify,
            trace,
            json,
            chrome,
        } => (spec, verify, trace, json, chrome),
    };
    let (app, nodes, threads) = (spec.app, spec.nodes, spec.threads);
    let mut cfg = config_for(&spec);
    cfg.verify = verify;
    cfg.trace_capacity = trace;
    if (chrome.is_some() || verify) && trace == 0 {
        // The timeline export and the offline race replay need events;
        // default to a generous buffer.
        cfg.trace_capacity = 1 << 20;
    }
    let mut b = CvmBuilder::new(cfg);
    let body = build_app(&mut b, app, spec.scale);
    eprintln!(
        "[cvm] running {app} P={nodes} T={threads} protocol={}",
        spec.protocol
    );
    // The system's size comes straight off the command line: a host that
    // cannot hold it is a message, not a panic.
    let report = b
        .try_run(body)
        .map_err(|e| CliError::Failed(format!("{e} (lower --nodes or --threads)")))?;
    println!("{report}");
    println!(
        "twins {} | local-lock acquires {} handoffs {} | barriers {} local {} reduces {}",
        report.stats.twins_created,
        report.stats.local_lock_acquires,
        report.stats.local_lock_handoffs,
        report.stats.barriers_crossed,
        report.stats.local_barriers,
        report.stats.global_reduces,
    );
    if report.stats.updates_pushed > 0 || report.stats.copies_dropped > 0 {
        println!(
            "pushes {} | copies dropped {}",
            report.stats.updates_pushed, report.stats.copies_dropped
        );
    }
    if let Some(t) = &report.trace {
        if trace > 0 {
            println!("\nprotocol trace (first {trace} events):");
            print!("{}", t.render(trace));
        }
        // Always account for what the capacity dropped, so a truncated
        // trace is never mistaken for a complete one.
        println!(
            "trace: {} events recorded, {} dropped ({} total)",
            t.len(),
            t.overflow(),
            t.events_total()
        );
    }
    if let Some(sf) = &report.spans {
        let cp = sf.critical_path(report.total_time);
        let ms = |ns: u64| ns as f64 / 1e6;
        println!(
            "spans: {} recorded ({} open); critical path: compute {:.3}ms",
            sf.len(),
            sf.open_count(),
            ms(cp.compute)
        );
        for (kind, ns) in &cp.by_kind {
            if *ns > 0 {
                println!("  {:<14} {:>10.3}ms", kind.name(), ms(*ns));
            }
        }
    }
    if let Some(path) = &json {
        write_artifact("cvm", path, &report.to_json(crate::bench::TOP_N))?;
    }
    if let Some(path) = &chrome {
        let t = report
            .trace
            .as_ref()
            .expect("--chrome-trace enables tracing");
        let doc = cvm_dsm::chrome_trace_with_spans(t, nodes, report.spans.as_ref());
        write_text("cvm", path, &doc.to_string())?;
        eprintln!(
            "[cvm] {} trace events — load {path} in chrome://tracing or ui.perfetto.dev",
            t.len()
        );
    }
    if verify {
        let (findings, dropped) = cvm_verify::findings_with_races(&report, nodes);
        if dropped > 0 {
            eprintln!("[cvm] trace truncated; offline race replay skipped");
        }
        for f in &findings {
            println!("verify: {f}");
        }
        if !findings.is_empty() {
            return Err(CliError::Failed(format!(
                "verify: {} finding(s)",
                findings.len()
            )));
        }
        println!("verify: 0 findings");
    }
    Ok(())
}

/// `cvm run [APP] --replay FILE`: re-execute a DPOR counterexample
/// byte-identically from its schedule file. Ok iff the recorded
/// terminal-state fingerprint, findings and panic reproduce exactly.
fn run_replay(app: Option<AppId>, path: &str) -> Result<(), CliError> {
    let bad_file = |msg: String| CliError::Usage {
        cmd: "run".to_owned(),
        msg: format!("--replay: {path}: {msg}"),
    };
    let sched = cvm_verify::schedule_from_json(&load_json(path)?).map_err(bad_file)?;
    let plan = sched.plan;
    if let Some(a) = app.filter(|&a| a != plan.app) {
        return Err(bad_file(format!(
            "records a schedule for {}, not {}",
            plan.app.slug(),
            a.slug()
        )));
    }
    eprintln!(
        "[cvm] replaying {} pinned pick(s) for {} P={} T={} protocol={}",
        sched.choices.len(),
        plan.app.slug(),
        plan.nodes,
        plan.threads,
        plan.protocol
    );
    let result = cvm_verify::run_scripted(plan, &sched.choices);
    let findings: Vec<String> = result.findings.iter().map(ToString::to_string).collect();
    for f in &findings {
        println!("finding: {f}");
    }
    if let Some(p) = &result.panic {
        println!("panic: {p}");
    }
    let hash = result.state_hash();
    println!(
        "state hash {hash:016x} (recorded {:016x})",
        sched.state_hash
    );
    if (hash, findings, result.panic) != (sched.state_hash, sched.findings, sched.panic) {
        return Err(CliError::Failed(
            "replay: DIVERGED from the recorded schedule".to_owned(),
        ));
    }
    println!("replay: byte-identical to the recorded counterexample");
    Ok(())
}
