//! The `cvm` binary end to end, on command lines that get past the flag
//! parser: bad values in a serve deck come back as one line and exit 1,
//! and `--host-time` adds a table to stderr and changes nothing else.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cvm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cvm"))
        .args(args)
        .output()
        .expect("cvm runs")
}

/// A fresh directory for one test's files.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cvm-cli-runs-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// `cvm serve` on a deck holding `body`, and on a good deck with `flags`:
/// exit 1, nothing on stdout, and exactly `<source>: <message>` on stderr.
#[test]
fn bad_serve_values_are_one_line_and_exit_1() {
    let dir = scratch("deck");
    let deck = dir.join("deck.ini");
    let deck_arg = deck.to_str().expect("utf-8 path");
    for (body, message) in [
        ("[store]\nkeys = 0\n", "keys must be positive"),
        (
            "[store]\nshards = 0\n",
            "shards must be in 1..=keys (got 0)",
        ),
        (
            "[store]\nkeys = 16\nshards = 32\n",
            "shards must be in 1..=keys (32 > 16)",
        ),
        ("[store]\ntheta = 1\n", "theta must be in (0, 1), got 1"),
        (
            "[store]\nwrite_mix = 2\n",
            "write_mix must be in [0, 1], got 2",
        ),
        (
            "[traffic]\nrate_rps = 0\n",
            "rate_rps must be positive and finite, got 0",
        ),
        (
            "[traffic]\nduration_ms = 0\n",
            "duration_ms must be positive",
        ),
        ("[system]\nnodes = 0\n", "nodes must be positive"),
        ("[system]\nthreads = 0\n", "threads must be positive"),
        (
            "[traffic]\nsweep = 500, -5\n",
            "sweep rates must be positive and finite, got -5",
        ),
    ] {
        std::fs::write(&deck, body).expect("deck written");
        let out = cvm(&["serve", deck_arg]);
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert_eq!(stderr, format!("{deck_arg}: {message}\n"), "{body:?}");
        assert_eq!(out.status.code(), Some(1), "{body:?}");
        assert!(out.stdout.is_empty(), "{body:?}");
    }
    // Overrides are numbers the flag parser accepts and the store does not.
    for (flags, message) in [
        (
            &["--rate", "inf"][..],
            "rate_rps must be positive and finite, got inf",
        ),
        (
            &["--sweep", "500,inf"][..],
            "sweep rates must be positive and finite, got inf",
        ),
    ] {
        let out = cvm(&[&["serve", "smoke"], flags].concat());
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert_eq!(stderr, format!("smoke: {message}\n"), "{flags:?}");
        assert_eq!(out.status.code(), Some(1), "{flags:?}");
    }
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

/// `--host-time` is stderr only: the report file and stdout are the same
/// bytes with and without it, and the table names every seam.
#[test]
fn host_time_goes_to_stderr_and_nowhere_else() {
    let dir = scratch("host-time");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_owned();
    let (plain, timed) = (path("plain.json"), path("timed.json"));
    let run = [
        "run",
        "barnes",
        "--protocol",
        "eager-update",
        "--nodes",
        "4",
    ];
    let off = cvm(&[&run[..], &["--json", &plain]].concat());
    let on = cvm(&[&run[..], &["--host-time", "--json", &timed]].concat());
    assert!(off.status.success() && on.status.success());
    assert_eq!(off.stdout, on.stdout);
    let read = |p: &str| std::fs::read(p).expect("report written");
    assert_eq!(read(&plain), read(&timed));
    let table = String::from_utf8(on.stderr).expect("utf-8");
    assert!(
        table.contains("host time by dispatch seam: 1 run(s), dispatch wall "),
        "{table}"
    );
    for seam in [
        "Driver::new",
        "net.poll",
        "handle_payload UpdatePush",
        "handle_payload BarrierRelease",
        "coop.resume",
        "handle_reason Fault",
        "handle_reason Barrier",
        "build_report",
        "drop",
        "unattributed",
    ] {
        assert!(
            table.lines().any(|l| l.starts_with(&format!("{seam} "))),
            "{seam} missing from\n{table}"
        );
    }
    let off_err = String::from_utf8(off.stderr).expect("utf-8");
    assert!(!off_err.contains("host time"), "{off_err}");
    // A subcommand that never builds a driver does not take the flag.
    let out = cvm(&["explain", "--run", &plain, "--host-time"]);
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}
