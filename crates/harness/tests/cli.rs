//! The `cvm` flag parser: every command line the benchmark (`hostbench`)
//! and CI drive parses to the expected configuration, and every bad one
//! comes back as a one-line error naming the subcommand and the flag. No
//! simulation runs here except in the one process-level test, which stops
//! at the parser.

use cvm_apps::{AppId, Scale};
use cvm_dsm::{InjectFault, ProtocolKind};
use cvm_harness::bench_cli::{self, BenchCmd};
use cvm_harness::cli::CliError;
use cvm_harness::explain::{self, Mode};
use cvm_harness::faults::FaultsConfig;
use cvm_harness::run_cli::{self, RunCmd};
use cvm_harness::runner::RunSpec;
use cvm_harness::sweep::SweepConfig;
use cvm_harness::sweep_cli::{self, FaultsCmd, SweepCmd};
use cvm_harness::{check_cli, serve_cli, tables};

fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_owned).collect()
}

/// Parses `line` (subcommand first) and discards the config.
fn parse(line: &str) -> Result<(), CliError> {
    let words = argv(line);
    let rest = &words[1..];
    match words[0].as_str() {
        "run" => run_cli::parse(rest).map(drop),
        "bench" => bench_cli::parse(rest).map(drop),
        "sweep" => sweep_cli::parse_sweep(rest).map(drop),
        "faults" => sweep_cli::parse_faults(rest).map(drop),
        "serve" => serve_cli::parse(rest).map(drop),
        "check" => check_cli::parse(rest).map(drop),
        "explain" => explain::parse(rest).map(drop),
        table => tables::parse(table, rest).map(drop),
    }
}

fn single(spec: RunSpec) -> RunCmd {
    RunCmd::Single {
        spec,
        verify: false,
        trace: 0,
        json: None,
        chrome: None,
    }
}

fn suite() -> BenchCmd {
    BenchCmd {
        ladder: false,
        nodes: None,
        threads: None,
        scale: Scale::Small,
        spans: false,
        json: false,
        baseline: None,
        current: None,
        gate_pct: 5.0,
    }
}

#[test]
fn sweep_lines_of_hostbench_and_ci() {
    // hostbench: sweep-batch and scale-128.
    let batch = "--nodes 4 --threads 2 --workers 1 --seed 7 --json --out /tmp/a.json";
    let want = SweepCmd {
        cfg: SweepConfig {
            nodes: vec![4],
            threads: vec![2],
            workers: 1,
            seed: 7,
            ..SweepConfig::default()
        },
        out: Some("/tmp/a.json".to_owned()),
        md: None,
    };
    assert_eq!(sweep_cli::parse_sweep(&argv(batch)), Ok(want));
    let scale = "--app barnes --nodes 128 --threads 4 --workers 1 --seed 9 --json --out o.json";
    let cmd = sweep_cli::parse_sweep(&argv(scale)).unwrap();
    assert_eq!(cmd.cfg.apps, [AppId::Barnes]);
    assert_eq!(
        (&cmd.cfg.nodes[..], &cmd.cfg.threads[..]),
        (&[128][..], &[4][..])
    );
    assert_eq!(cmd.out.as_deref(), Some("o.json"), "--out wins over --json");
    // CI smoke.
    let ci = sweep_cli::parse_sweep(&argv("--nodes 4 --threads 1,2 --json")).unwrap();
    assert_eq!(ci.cfg.threads, [1, 2]);
    assert_eq!(ci.cfg.workers, 0, "0 = one worker per core");
    assert_eq!(ci.out.as_deref(), Some("BENCH_sweep.json"));
    // Protocol axis, hex seed, markdown copy; --out before --json sticks.
    let full = "--protocol lazy-mw,home-lazy --seed 0x5EED --md t.md --spans \
                --paper-scale --out x.json --json";
    let cmd = sweep_cli::parse_sweep(&argv(full)).unwrap();
    assert_eq!(
        cmd.cfg.protocols,
        [ProtocolKind::LazyMultiWriter, ProtocolKind::HomeLazy]
    );
    assert_eq!(cmd.cfg.seed, 0x5EED);
    assert!(cmd.cfg.spans && cmd.cfg.scale == Scale::Paper);
    assert_eq!(
        (cmd.md.as_deref(), cmd.out.as_deref()),
        (Some("t.md"), Some("x.json"))
    );
    assert_eq!(sweep_cli::parse_sweep(&[]), Ok(SweepCmd::default()));
    // A named app needs one thread count it supports, not all of them.
    let cmd = sweep_cli::parse_sweep(&argv("--app ocean --threads 2,3")).unwrap();
    assert_eq!(cmd.cfg.apps, [AppId::Ocean]);
}

#[test]
fn faults_lines_of_hostbench_and_ci() {
    let lossy = "--workers 1 --nodes 8 --threads 2 --app barnes --app fft --app water-sp \
                 --plan none --plan loss-10 --plan reorder --plan storm --seed 3 --json --out f.json";
    let want = FaultsCmd {
        cfg: FaultsConfig {
            apps: vec![AppId::Barnes, AppId::Fft, AppId::WaterSp],
            plans: vec!["none", "loss-10", "reorder", "storm"],
            nodes: 8,
            threads: 2,
            workers: 1,
            seed: 3,
            ..FaultsConfig::default()
        },
        out: Some("f.json".to_owned()),
        md: None,
    };
    assert_eq!(sweep_cli::parse_faults(&argv(lossy)), Ok(want));
    let ci = "--json --app sor --app water-sp --protocol lazy-mw,home-lazy --plan none \
              --plan loss-10 --plan dup --plan reorder --plan corrupt --plan stall --plan partition";
    let cmd = sweep_cli::parse_faults(&argv(ci)).unwrap();
    assert_eq!(cmd.cfg.plans.len(), 7);
    assert_eq!(cmd.cfg.protocols.len(), 2);
    assert_eq!(cmd.out.as_deref(), Some("BENCH_faults.json"));
    // Apps that reject the thread count leave the default grid (Ocean at
    // T=3); a named one is refused (`unknown_things_name_the_offender`).
    let cmd = sweep_cli::parse_faults(&argv("--threads 3")).unwrap();
    assert!(!cmd.cfg.apps.contains(&AppId::Ocean));
}

#[test]
fn serve_lines_of_hostbench_and_ci() {
    let deck = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/session.ini");
    let cmd = serve_cli::parse(&argv(&format!("{deck} --workers 1 --json --out s.json"))).unwrap();
    assert_eq!(cmd.cfg.scenario.name, "session", "the file stem names it");
    assert_eq!(cmd.cfg.workers, 1);
    assert_eq!(cmd.out.as_deref(), Some("s.json"));
    // The deck and the builtin are the same scenario (CI cmp's their JSON).
    let builtin = serve_cli::parse(&argv("session --json --workers 1")).unwrap();
    assert_eq!(builtin.cfg.scenario, cmd.cfg.scenario);
    assert_eq!(builtin.out.as_deref(), Some("BENCH_serve.json"));
    // Default scenario, flag overrides, gate.
    let line = "--rate 1000 --cap 4 --seed 0x10 --sweep 500,1500 --baseline b.json --gate 2.5";
    let cmd = serve_cli::parse(&argv(line)).unwrap();
    let sc = &cmd.cfg.scenario;
    assert_eq!(sc.name, "session");
    assert_eq!(
        (sc.kv.rate_rps, sc.local_grant_cap, sc.seed),
        (1000.0, 4, 16)
    );
    assert_eq!(sc.sweep, [500.0, 1500.0]);
    assert_eq!(
        (cmd.baseline.as_deref(), cmd.gate_pct),
        (Some("b.json"), 2.5)
    );
    assert_eq!(serve_cli::parse(&argv("smoke")).unwrap().out, None);
}

#[test]
fn check_lines_of_hostbench_and_ci() {
    // hostbench dpor-sor, then its derived random check.
    let cmd = check_cli::parse(&argv("--dpor --app sor --app barnes --json --out c.json")).unwrap();
    let o = &cmd.options;
    assert!(o.dpor);
    assert_eq!(o.apps, [AppId::Sor, AppId::Barnes]);
    assert_eq!(
        o.scale,
        Scale::Tiny,
        "--dpor defaults to the reduced kernels"
    );
    assert_eq!(cmd.out.as_deref(), Some("c.json"));
    let cmd = check_cli::parse(&argv("--app sor --schedules 30 --scale tiny")).unwrap();
    assert_eq!(
        (cmd.options.schedules, cmd.options.scale),
        (30, Scale::Tiny)
    );
    assert!(!cmd.options.dpor && cmd.out.is_none());
    // CI.
    let cmd = check_cli::parse(&argv("--app all --schedules 30 --protocol eager-update")).unwrap();
    assert_eq!(cmd.options.apps, AppId::ALL);
    assert_eq!(cmd.options.protocol, ProtocolKind::EagerUpdate);
    assert_eq!(cmd.options.scale, Scale::Small);
    // `all`, like the default list, skips an app the thread count rules out.
    let cmd = check_cli::parse(&argv("--app all --threads 3")).unwrap();
    let all_but_ocean: Vec<AppId> = AppId::ALL
        .into_iter()
        .filter(|&a| a != AppId::Ocean)
        .collect();
    assert_eq!(cmd.options.apps, all_but_ocean);
    let line = "--dpor --app sor --protocol home-lazy --mutate skip-watermark:1";
    let cmd = check_cli::parse(&argv(line)).unwrap();
    assert_eq!(
        cmd.options.inject,
        Some(InjectFault::SkipHomeWatermark { nth: 1 })
    );
    let line = "--dpor --app barnes --app sor --app swm --app water-sp --json";
    let cmd = check_cli::parse(&argv(line)).unwrap();
    assert_eq!(cmd.options.apps.len(), 4);
    assert_eq!(cmd.out.as_deref(), Some("BENCH_check.json"));
    // A baseline-only check (no perturbed schedules) stays expressible.
    let cmd = check_cli::parse(&argv("--schedules 0 --budget 0 --faults loss-10")).unwrap();
    assert_eq!((cmd.options.schedules, cmd.options.budget), (0, 0));
    assert_eq!(cmd.options.faults, Some("loss-10"));
    // --dpor with an explicit scale keeps it; with --faults it is refused.
    let cmd = check_cli::parse(&argv("--dpor --paper-scale")).unwrap();
    assert_eq!(cmd.options.scale, Scale::Paper);
    let e = check_cli::parse(&argv("--dpor --faults dup")).unwrap_err();
    assert!(
        e.to_string().starts_with("cvm check: --dpor requires"),
        "{e}"
    );
}

#[test]
fn run_lines_of_hostbench_and_ci() {
    // hostbench spans_off / spans_on.
    let ocean = RunSpec::new(AppId::Ocean, Scale::Small, 4, 2);
    assert_eq!(run_cli::parse(&argv("ocean --nodes 4")), Ok(single(ocean)));
    let mut spans = ocean;
    spans.spans = true;
    assert_eq!(
        run_cli::parse(&argv("ocean --nodes 4 --spans")),
        Ok(single(spans))
    );
    // CI obs-smoke and scale-smoke.
    let line = "sor --nodes 4 --spans --json s.json --chrome-trace t.json";
    let mut spec = RunSpec::new(AppId::Sor, Scale::Small, 4, 2);
    spec.spans = true;
    let want = RunCmd::Single {
        spec,
        verify: false,
        trace: 0,
        json: Some("s.json".to_owned()),
        chrome: Some("t.json".to_owned()),
    };
    assert_eq!(run_cli::parse(&argv(line)), Ok(want));
    let line = "barnes --nodes 64 --threads 4 --json r.json";
    let RunCmd::Single { spec, json, .. } = run_cli::parse(&argv(line)).unwrap() else {
        panic!("a single run");
    };
    assert_eq!((spec.nodes, spec.threads), (64, 4));
    assert_eq!(json.as_deref(), Some("r.json"));
    // Every switch.
    let line = "water-nsq --eager --lifo --memsim --verify --trace 40 --paper-scale";
    let RunCmd::Single {
        spec,
        verify,
        trace,
        ..
    } = run_cli::parse(&argv(line)).unwrap()
    else {
        panic!("a single run");
    };
    assert_eq!(spec.protocol, ProtocolKind::EagerUpdate);
    assert!(spec.lifo && spec.memsim && verify && spec.scale == Scale::Paper);
    assert_eq!(
        (spec.nodes, spec.threads, trace),
        (8, 2, 40),
        "defaults: 8 x 2"
    );
    // dpor-smoke: the replayer, with and without the positional app.
    let replay = |app| RunCmd::Replay("cvm-schedule-sor.json".to_owned(), app);
    let line = "sor --replay cvm-schedule-sor.json";
    assert_eq!(run_cli::parse(&argv(line)), Ok(replay(Some(AppId::Sor))));
    let line = "--replay cvm-schedule-sor.json";
    assert_eq!(run_cli::parse(&argv(line)), Ok(replay(None)));
}

#[test]
fn bench_and_explain_lines_of_hostbench_and_ci() {
    // hostbench gate_self: file against file, no runs.
    let want = BenchCmd {
        baseline: Some("a.json".to_owned()),
        current: Some("a.json".to_owned()),
        spans: true,
        ..suite()
    };
    assert_eq!(
        bench_cli::parse(&argv("--baseline a.json --current a.json")),
        Ok(want)
    );
    // CI: obs artifact, then the scale ladder gated in one go.
    let want = BenchCmd {
        spans: true,
        json: true,
        ..suite()
    };
    assert_eq!(bench_cli::parse(&argv("--spans --json")), Ok(want));
    let line = "--scale --json --baseline baselines/BENCH_scale.json --gate 5";
    let cmd = bench_cli::parse(&argv(line)).unwrap();
    assert!(cmd.ladder && cmd.json);
    assert_eq!(cmd.baseline.as_deref(), Some("baselines/BENCH_scale.json"));
    assert!(
        cmd.spans,
        "a gate compares the span summary; the ladder ignores it"
    );
    let cmd = bench_cli::parse(&argv("--scale --nodes 8,16 --threads 2")).unwrap();
    assert_eq!((cmd.nodes, cmd.threads), (Some(vec![8, 16]), Some(2)));
    // A ladder is a --scale option; --current is nothing without --baseline.
    let e = bench_cli::parse(&argv("--nodes 8,16"))
        .unwrap_err()
        .to_string();
    assert!(e.starts_with("cvm bench: --nodes:"), "{e}");
    let e = bench_cli::parse(&argv("--current x.json"))
        .unwrap_err()
        .to_string();
    assert_eq!(e, "cvm bench: --current needs --baseline");
    // CI explain.
    let want = ("s.json".to_owned(), Mode::Slowest(5));
    assert_eq!(explain::parse(&argv("--run s.json --slowest 5")), Ok(want));
    let (_, mode) = explain::parse(&argv("--run s.json --span 0x100")).unwrap();
    assert_eq!(mode, Mode::Span(256));
    let (_, mode) = explain::parse(&argv("--run s.json --resource page:17")).unwrap();
    assert_eq!(mode, Mode::Resource("page:17".to_owned()));
    assert!(explain::parse(&[])
        .unwrap_err()
        .to_string()
        .contains("--run"));
}

/// Every value-taking flag: `Some(bad)` is a malformed operand, `None`
/// marks a free-form one (a path or label) that can only be missing.
const VALUE_FLAGS: &[(&str, &str, Option<&str>)] = &[
    ("run sor", "--nodes", Some("x")),
    ("run sor", "--threads", Some("-1")),
    ("run sor", "--protocol", Some("bogus")),
    ("run sor", "--trace", Some("many")),
    ("run sor", "--json", None),
    ("run sor", "--chrome-trace", None),
    ("run sor", "--replay", None),
    ("bench", "--baseline", None),
    ("bench", "--current", None),
    ("bench", "--gate", Some("0")),
    ("bench", "--nodes", Some("8,,16")),
    ("bench", "--threads", Some("two")),
    ("sweep", "--out", None),
    ("sweep", "--md", None),
    ("sweep", "--workers", Some("x")),
    ("sweep", "--nodes", Some("4,0")),
    ("sweep", "--threads", Some("0")),
    ("sweep", "--app", Some("tetris")),
    ("sweep", "--protocol", Some("lazy-mw,bogus")),
    ("sweep", "--seed", Some("0xZZ")),
    ("faults", "--out", None),
    ("faults", "--md", None),
    ("faults", "--workers", Some("-2")),
    ("faults", "--app", Some("tetris")),
    ("faults", "--protocol", Some("lazy-mw,,")),
    ("faults", "--plan", Some("gremlins")),
    ("faults", "--nodes", Some("0")),
    ("faults", "--threads", Some("0")),
    ("faults", "--seed", Some("seed")),
    ("serve", "--out", None),
    ("serve", "--baseline", None),
    ("serve", "--gate", Some("-5")),
    ("serve", "--workers", Some("x")),
    ("serve", "--rate", Some("0")),
    ("serve", "--sweep", Some("500,fast")),
    ("serve", "--cap", Some("-1")),
    ("serve", "--seed", Some("x")),
    ("check", "--app", Some("tetris")),
    ("check", "--protocol", Some("bogus")),
    ("check", "--nodes", Some("0")),
    ("check", "--threads", Some("0")),
    ("check", "--schedules", Some("lots")),
    ("check", "--seed", Some("x")),
    ("check", "--budget", Some("-1")),
    ("check", "--mutate", Some("drop-everything")),
    ("check", "--faults", Some("gremlins")),
    ("check", "--trace-capacity", Some("0")),
    ("check", "--max-traces", Some("x")),
    ("check", "--out", None),
    ("check", "--scale", Some("huge")),
    ("explain", "--run", None),
    ("explain", "--slowest", Some("x")),
    ("explain", "--span", Some("x")),
    ("explain", "--resource", None),
];

#[test]
fn a_missing_or_malformed_value_names_the_subcommand_and_the_flag() {
    for &(line, flag, bad) in VALUE_FLAGS {
        let cmd = line.split_whitespace().next().unwrap();
        let prefix = format!("cvm {cmd}: {flag}: ");
        let missing = parse(&format!("{line} {flag}")).unwrap_err().to_string();
        assert_eq!(missing, format!("{prefix}missing value"));
        let Some(bad) = bad else { continue };
        let mut words = argv(line);
        words.extend([flag.to_owned(), bad.to_owned()]);
        let e = parse(&words.join(" ")).unwrap_err();
        assert!(
            matches!(e, CliError::Usage { .. }),
            "{line} {flag} {bad}: {e:?}"
        );
        let text = e.to_string();
        assert!(text.starts_with(&prefix), "{line} {flag} {bad}: {text}");
        assert!(!text.contains('\n'), "one line: {text}");
    }
}

#[test]
fn zero_counts_are_rejected_not_panicked_on() {
    for line in [
        "run sor --nodes 0",
        "run sor --threads 0",
        "sweep --threads 0",
        "sweep --nodes 4,0",
        "bench --scale --nodes 0",
        "bench --threads 0",
        "check --nodes 0 --app sor",
        "faults --nodes 0",
    ] {
        let text = parse(line).unwrap_err().to_string();
        assert!(
            text.contains("must be positive, got \"0\""),
            "{line}: {text}"
        );
    }
    // Zero means something for these, and stays accepted.
    for line in [
        "sweep --workers 0",
        "serve smoke --cap 0",
        "run sor --trace 0",
    ] {
        assert_eq!(parse(line), Ok(()), "{line}");
    }
}

#[test]
fn unknown_things_name_the_offender() {
    for (line, want) in [
        ("sweep --bogus", "cvm sweep: unknown flag \"--bogus\""),
        ("fig1 --small", "cvm fig1: unknown flag \"--small\""),
        (
            "run sor --json out.json extra",
            "cvm run: unknown flag \"extra\"",
        ),
        ("serve smoke session", "cvm serve: unknown flag \"session\""),
        ("run tetris", "cvm run: unknown app \"tetris\""),
        ("run", "cvm run: missing application"),
        (
            "run ocean --threads 3",
            "cvm run: Ocean does not support 3 threads per node",
        ),
        (
            "sweep --app tetris",
            "cvm sweep: --app: unknown app \"tetris\"",
        ),
        // A named application that cannot run the thread count is refused,
        // as `run` refuses it, instead of silently leaving the grid.
        (
            "check --app ocean --threads 3",
            "cvm check: Ocean does not support 3 threads per node",
        ),
        (
            "check --dpor --app sor --app ocean --threads 3",
            "cvm check: Ocean does not support 3 threads per node",
        ),
        (
            "faults --app ocean --nodes 2 --threads 3 --plan none --json",
            "cvm faults: Ocean does not support 3 threads per node",
        ),
        (
            "sweep --app ocean --nodes 2 --threads 3",
            "cvm sweep: Ocean does not support 3 threads per node",
        ),
        (
            "sweep --app ocean --threads 3,5",
            "cvm sweep: Ocean does not support 3 or 5 threads per node",
        ),
        (
            "check --scale huge",
            "cvm check: --scale: unknown scale \"huge\"",
        ),
        // The ladder names the flags it would otherwise swallow.
        (
            "bench --scale --paper-scale --nodes 8",
            "cvm bench: --paper-scale: the ladder always runs the tiny input",
        ),
        (
            "bench --scale --spans",
            "cvm bench: --spans: not recorded by --scale",
        ),
    ] {
        assert_eq!(parse(line).unwrap_err().to_string(), want, "{line}");
    }
    let plan = parse("faults --plan gremlins").unwrap_err().to_string();
    assert!(
        plan.starts_with("cvm faults: --plan: unknown fault plan \"gremlins\"; catalog: none, ")
    );
    let scenario = parse("serve blackfriday").unwrap_err().to_string();
    assert!(scenario.starts_with("cvm serve: unknown scenario \"blackfriday\"; builtins: "));
    // A scenario *file* that is missing is a failed run (exit 1), not usage.
    let e = parse("serve no/such/deck.ini").unwrap_err();
    assert!(
        matches!(&e, CliError::Failed(m) if m.contains("no/such/deck.ini")),
        "{e:?}"
    );
}

/// The binary end to end: exit 2, one error line, then only that
/// subcommand's usage section — and never a panic.
#[test]
fn bad_counts_exit_2_with_their_own_usage_section() {
    let mut cases = vec![
        (
            "run sor --nodes 0".to_owned(),
            "cvm run: --nodes: must be positive, got \"0\"".to_owned(),
        ),
        (
            "sweep --workers x".to_owned(),
            "cvm sweep: --workers: invalid digit found in string, got \"x\"".to_owned(),
        ),
    ];
    // There is one event loop: no subcommand takes a shard count.
    for cmd in ["run sor", "sweep", "serve", "bench --scale"] {
        let sub = cmd.split(' ').next().expect("a subcommand");
        cases.push((
            format!("{cmd} --shards 2"),
            format!("cvm {sub}: unknown flag \"--shards\""),
        ));
    }
    for (line, error) in cases {
        let args = argv(&line);
        let section = format!("{} options:", args[0]);
        let foreign = if args[0] == "run" {
            "sweep options:"
        } else {
            "run options:"
        };
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cvm"))
            .args(&args)
            .output()
            .expect("cvm runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        let mut lines = stderr.lines();
        assert_eq!(lines.next(), Some(error.as_str()));
        assert_eq!(lines.next(), Some(section.as_str()));
        assert!(
            lines.all(|l| l.starts_with("  ")),
            "one section only:\n{stderr}"
        );
        assert!(!stderr.contains(foreign) && !stderr.contains("usage: cvm"));
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
