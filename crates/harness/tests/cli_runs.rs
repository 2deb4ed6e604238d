//! The `cvm` binary end to end, on command lines that get past the flag
//! parser: bad values in a serve deck come back as one line and exit 1,
//! `--host-time` adds a table to stderr and changes nothing else,
//! `cvm run --replay` passes a schedule file only when everything it
//! recorded reproduces, and `cvm explain` reads a doctored report without
//! panicking.

use std::path::PathBuf;
use std::process::{Command, Output};

use cvm_sim::json::JsonValue;

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

/// `cvm run --replay` holds a schedule file to everything it recorded —
/// the state hash, the findings and the panic — and refuses a geometry no
/// run can start with instead of "replaying" the panic it causes.
#[test]
fn replay_matches_findings_and_refuses_an_impossible_geometry() {
    let dir = scratch("replay");
    let caught = Command::new(env!("CARGO_BIN_EXE_cvm"))
        .current_dir(&dir)
        .args(["check", "--dpor", "--app", "sor"])
        .args(["--mutate", "drop-grant-notice:1"])
        .output()
        .expect("cvm runs");
    assert_eq!(caught.status.code(), Some(0), "the mutation is caught");
    let file = dir.join("cvm-schedule-sor.json");
    let path = file.to_str().expect("utf-8 path");
    let text = std::fs::read_to_string(&file).expect("schedule written");
    let recorded = JsonValue::parse(&text).expect("schedule parses");
    // The counterexample panics: its state hash is 0 and says nothing.
    assert!(recorded.get("panic").is_some(), "{text}");
    let replay = |doc: &JsonValue| {
        std::fs::write(&file, doc.to_pretty()).expect("schedule rewritten");
        let out = cvm(&["run", "--replay", path]);
        (
            out.status.code(),
            String::from_utf8(out.stderr).expect("utf-8"),
        )
    };
    assert_eq!(replay(&recorded).0, Some(0));
    let mut no_findings = recorded.clone();
    no_findings.set("findings", JsonValue::array());
    let mut other_panic = recorded.clone();
    other_panic.set("panic", "something else");
    for doc in [no_findings, other_panic] {
        let (code, stderr) = replay(&doc);
        assert_eq!(code, Some(1), "{stderr}");
        assert!(stderr.contains("replay: DIVERGED"), "{stderr}");
    }
    let mut zero_nodes = recorded.clone();
    zero_nodes.set("nodes", 0u64);
    let mut zero_threads = recorded.clone();
    zero_threads.set("threads", 0u64);
    let mut ocean_at_3 = recorded.clone();
    ocean_at_3.set("app", "ocean").set("threads", 3u64);
    for (doc, error) in [
        (zero_nodes, "bad 'nodes'"),
        (zero_threads, "bad 'threads'"),
        (ocean_at_3, "bad 'threads'"),
    ] {
        let (code, stderr) = replay(&doc);
        assert_eq!(code, Some(2), "{error}: {stderr}");
        let want = format!("cvm run: --replay: {path}: {error}");
        assert_eq!(stderr.lines().next(), Some(want.as_str()));
    }
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

/// The field `key` of a JSON object, for doctoring a report.
fn field<'a>(v: &'a mut JsonValue, key: &str) -> &'a mut JsonValue {
    let JsonValue::Object(fields) = v else {
        panic!("{key}: not an object");
    };
    &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1
}

fn items(v: &mut JsonValue) -> &mut Vec<JsonValue> {
    let JsonValue::Array(items) = v else {
        panic!("not an array");
    };
    items
}

/// `cvm explain --span` on a report with a parent id it does not hold
/// (the chain stops there), and with a retried hop whose send time is
/// after its transmit time (the backoff is zero, not a wrapped u64).
#[test]
fn explain_survives_a_dangling_parent_and_a_backwards_hop() {
    let dir = scratch("explain");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_owned();
    let (report, doctored) = (path("report.json"), path("doctored.json"));
    let run = ["run", "ocean", "--nodes", "2", "--threads", "2", "--spans"];
    assert!(cvm(&[&run[..], &["--json", &report]].concat())
        .status
        .success());
    let text = std::fs::read_to_string(&report).expect("report written");
    let mut doc = JsonValue::parse(&text).expect("report parses");
    let records = items(field(field(&mut doc, "spans"), "records"));
    let id = |r: &JsonValue| r.get("id").and_then(JsonValue::as_u64).expect("id");
    let three = records.iter_mut().find(|r| id(r) == 3).expect("span 3");
    *field(three, "parent") = JsonValue::from(987_654_321u64);
    let has_hops = |r: &&mut JsonValue| {
        r.get("hops")
            .and_then(JsonValue::as_array)
            .is_some_and(|h| !h.is_empty())
    };
    let hopper = records.iter_mut().find(has_hops).expect("a span with hops");
    let hopper_id = id(hopper);
    let hop = &mut items(field(hopper, "hops"))[0];
    let tx = hop.get("tx_ns").and_then(JsonValue::as_u64).expect("tx_ns");
    hop.set("sent_ns", tx + 1000).set("retries", 1u64);
    std::fs::write(&doctored, doc.to_pretty()).expect("doctored report written");
    for (span, want) in [(3, "span 3 "), (hopper_id, "(1 retries, backoff 0ns)")] {
        let out = cvm(&["explain", "--run", &doctored, "--span", &span.to_string()]);
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert_eq!(out.status.code(), Some(0), "span {span}: {stderr}");
        assert!(stdout.contains(want), "span {span}:\n{stdout}");
    }
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}
