//! `cvm bench` — suite benchmarking, the regression gate, and the
//! `--scale` node ladder.

use crate::cli::{gate_against, load_json, write_artifact, Args, CliError};
use crate::scale_bench::{self, ScaleConfig};
use crate::{bench, Scale};

/// What `cvm bench` was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCmd {
    /// `--scale`: run the node-count ladder instead of the suite.
    pub ladder: bool,
    /// `--nodes`: the ladder's rungs, or the suite's single count.
    pub nodes: Option<Vec<usize>>,
    /// `--threads`: threads per node (suite default 2, ladder default 4).
    pub threads: Option<usize>,
    /// Problem scale of the suite.
    pub scale: Scale,
    /// `--spans`: record span forests (a gate forces it on: the span
    /// summary is what it compares).
    pub spans: bool,
    /// `--json`: write the `BENCH_*.json` artifacts.
    pub json: bool,
    /// `--baseline FILE`: gate the produced artifact against FILE.
    pub baseline: Option<String>,
    /// `--current FILE`: gate FILE against the baseline, no runs at all.
    pub current: Option<String>,
    /// `--gate PCT`: warn above PCT, fail above twice it.
    pub gate_pct: f64,
}

/// Parses `cvm bench ARGS`.
pub fn parse(argv: &[String]) -> Result<BenchCmd, CliError> {
    let mut c = BenchCmd {
        ladder: false,
        nodes: None,
        threads: None,
        scale: Scale::Small,
        spans: false,
        json: false,
        baseline: None,
        current: None,
        gate_pct: 5.0,
    };
    let mut args = Args::new("bench", argv);
    args.each(|a| {
        match a.flag() {
            "--json" => c.json = true,
            "--spans" => c.spans = true,
            "--scale" => c.ladder = true,
            "--baseline" => c.baseline = Some(a.value()?),
            "--current" => c.current = Some(a.value()?),
            "--gate" => c.gate_pct = a.positive()?,
            "--nodes" => c.nodes = Some(a.list()?),
            "--threads" => c.threads = Some(a.positive()?),
            "--paper-scale" => c.scale = Scale::Paper,
            _ => return Err(a.unknown()),
        }
        Ok(())
    })?;
    if c.current.is_some() && c.baseline.is_none() {
        return Err(args.usage("--current needs --baseline"));
    }
    if !c.ladder && c.nodes.as_ref().is_some_and(|n| n.len() > 1) {
        return Err(args.usage("--nodes: a node ladder needs --scale"));
    }
    if c.ladder && c.scale == Scale::Paper {
        return Err(args.usage("--paper-scale: the ladder always runs the tiny input"));
    }
    if c.ladder && c.spans {
        return Err(args.usage("--spans: not recorded by --scale"));
    }
    c.spans |= c.baseline.is_some();
    Ok(c)
}

/// Runs `cvm bench`: fails on a regression or an unwritable artifact.
pub fn run(c: BenchCmd) -> Result<(), CliError> {
    if let (Some(baseline), Some(current)) = (&c.baseline, &c.current) {
        return gate_against(baseline, &load_json(current)?, c.gate_pct);
    }
    let doc = if c.ladder {
        let mut cfg = ScaleConfig::default();
        cfg.nodes = c.nodes.unwrap_or(cfg.nodes);
        cfg.threads = c.threads.unwrap_or(cfg.threads);
        let rungs = scale_bench::run_ladder(&cfg);
        print!("{}", scale_bench::render_summary(&cfg, &rungs));
        let doc = scale_bench::to_json(&cfg, &rungs);
        if c.json {
            write_artifact("cvm", scale_bench::FILE_NAME, &doc)?;
        }
        doc
    } else {
        let (nodes, threads) = (c.nodes.map_or(8, |n| n[0]), c.threads.unwrap_or(2));
        eprintln!("[cvm] bench suite P={nodes} T={threads}");
        let outcomes = bench::run_suite(c.scale, nodes, threads, c.spans);
        print!("{}", bench::render_summary(&outcomes));
        let doc = bench::obs_json(&outcomes);
        if c.json {
            for o in &outcomes {
                write_artifact("cvm", &bench::file_name(o.spec.app), &bench::to_json(o))?;
            }
            if c.spans {
                write_artifact("cvm", bench::OBS_FILE, &doc)?;
            }
        }
        doc
    };
    match &c.baseline {
        Some(baseline) => gate_against(baseline, &doc, c.gate_pct),
        None => Ok(()),
    }
}
