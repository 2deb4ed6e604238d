//! Reads the JSON artifact a `cvm` child wrote: the deterministic counts
//! and virtual times, and the artifact's own verdict on its cells.
//!
//! Only the artifact schemas are known here (`cvm-sweep`, `cvm-serve`,
//! `cvm-faults`, `cvm-check`), never the library types behind them, so a
//! rewrite of the harness that keeps the byte-gated artifacts keeps this.

use cvm_sim::{Fnv64, JsonValue};

/// One `cvm serve` ladder cell, as far as the serve metrics need it.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCell {
    pub rate_rps: f64,
    pub achieved_rps: f64,
    pub overhang: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub mean_ns: f64,
}

/// Everything summed over an artifact's cells. A field the schema does
/// not carry stays 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Cells (sweep, serve, faults) or DPOR traces (check).
    pub ops: u64,
    /// Ops the artifact itself marks failed.
    pub failed: u64,
    pub virt_ns: f64,
    pub msgs: f64,
    pub bytes: f64,
    pub sends: f64,
    pub retransmissions: f64,
    pub acks: f64,
    pub dup_suppressed: f64,
    pub gave_up: f64,
    pub thread_switches: f64,
    pub remote_faults: f64,
    pub remote_locks: f64,
    pub diffs_created: f64,
    pub diffs_used: f64,
    pub twins_created: f64,
    pub barriers: f64,
    pub user_ns: f64,
    pub barrier_ns: f64,
    pub fault_ns: f64,
    pub lock_ns: f64,
    pub idle_ns: f64,
    pub served: f64,
    pub traces: f64,
    pub sleep_prunes: f64,
    pub backtracks: f64,
    /// Σ over apps of 10^naive_log10: the interleavings a naive search
    /// would run.
    pub naive: f64,
    pub serve_cells: Vec<ServeCell>,
    /// Offered rate of the serve ladder's knee cell (0 = no knee).
    pub knee_rps: f64,
    /// Size of the artifact file.
    pub kib: f64,
}

/// FNV-1a 64 of the artifact's bytes: equal digests mean equal virtual
/// results, whatever the host did.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

fn num(v: &JsonValue, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

fn flag(v: &JsonValue, key: &str) -> Option<bool> {
    v.get(key).and_then(JsonValue::as_bool)
}

/// Parses and sums one artifact.
///
/// # Errors
///
/// Returns a message when the text is not JSON (a truncated file) or
/// has no cell array.
pub fn summarize(text: &str) -> Result<Summary, String> {
    let doc = JsonValue::parse(text).map_err(|e| format!("artifact is not JSON: {e}"))?;
    let cells = ["configs", "cells", "apps"]
        .iter()
        .find_map(|k| doc.get(k).and_then(JsonValue::as_array))
        .ok_or("artifact has no configs/cells/apps array")?;
    let is_check = doc.get("apps").is_some();
    let mut s = Summary {
        kib: text.len() as f64 / 1024.0,
        knee_rps: num(&doc, &["knee", "rate_rps"]),
        ..Summary::default()
    };
    for c in cells {
        let traces = num(c, &["dpor", "traces"]);
        let ops = if is_check { traces as u64 } else { 1 };
        s.ops += ops;
        let bad = flag(c, "clean") == Some(false)
            || flag(c, "degraded") == Some(true)
            || num(c, &["loss", "gave_up"]) > 0.0
            || num(c, &["truncated_schedules"]) > 0.0
            || c.get("findings")
                .and_then(JsonValue::as_array)
                .is_some_and(|f| !f.is_empty());
        if bad {
            s.failed += ops.max(1);
        }
        s.virt_ns += match c.get("total_ns") {
            Some(ns) => ns.as_f64().unwrap_or(0.0),
            None => num(c, &["total_ms"]) * 1e6,
        };
        s.sends += num(c, &["loss", "sends"]);
        s.msgs += match c.get("msgs") {
            Some(m) => num(m, &["total"]),
            None => num(c, &["loss", "sends"]),
        };
        s.bytes += num(c, &["bytes", "total"]);
        s.retransmissions += num(c, &["loss", "retransmissions"]);
        s.acks += num(c, &["loss", "acks_sent"]);
        s.dup_suppressed += num(c, &["loss", "duplicates_suppressed"]);
        s.gave_up += num(c, &["loss", "gave_up"]);
        s.thread_switches += num(c, &["stats", "thread_switches"]);
        s.remote_faults += num(c, &["stats", "remote_faults"]);
        s.remote_locks += num(c, &["stats", "remote_locks"]);
        s.diffs_created += num(c, &["stats", "diffs_created"]);
        s.diffs_used += num(c, &["stats", "diffs_used"]);
        s.twins_created += num(c, &["stats", "twins_created"]);
        s.barriers += num(c, &["stats", "barriers_crossed"]);
        s.user_ns += num(c, &["breakdown", "user_ns"]);
        s.barrier_ns += num(c, &["breakdown", "barrier_ns"]);
        s.fault_ns += num(c, &["breakdown", "fault_ns"]);
        s.lock_ns += num(c, &["breakdown", "lock_ns"]);
        s.idle_ns += num(c, &["breakdown", "idle_ns"]);
        s.served += num(c, &["served"]);
        s.traces += traces;
        s.sleep_prunes += num(c, &["dpor", "sleep_prunes"]);
        s.backtracks += num(c, &["dpor", "backtracks"]);
        if c.get("dpor").is_some() {
            s.naive += 10f64.powf(num(c, &["dpor", "naive_log10"]));
        }
        if c.get("latency").is_some() {
            s.serve_cells.push(ServeCell {
                rate_rps: num(c, &["rate_rps"]),
                achieved_rps: num(c, &["achieved_rps"]),
                overhang: num(c, &["overhang"]),
                p50_ns: num(c, &["latency", "p50"]),
                p99_ns: num(c, &["latency", "p99"]),
                mean_ns: num(c, &["latency", "mean"]),
            });
        }
    }
    // Top-level verdicts: a campaign that is not clean has at least one
    // failed op even if no cell says which.
    let top_bad = flag(&doc, "clean") == Some(false) || num(&doc, &["failures"]) > 0.0;
    if top_bad && s.failed == 0 {
        s.failed = 1;
    }
    if s.ops == 0 {
        return Err("artifact has no cells".into());
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SWEEP: &str = r#"{"schema":"cvm-sweep","configs":[
      {"app":"sor","total_ns":2000000,"breakdown":{"user_ns":10,"barrier_ns":5,"fault_ns":3,"lock_ns":2},
       "msgs":{"total":100},"bytes":{"total":4096},
       "stats":{"remote_faults":7,"remote_locks":1,"diffs_created":4,"diffs_used":8,"thread_switches":20,"twins_created":5,"barriers_crossed":6}},
      {"app":"fft","total_ns":1000000,"msgs":{"total":50},"bytes":{"total":1024},"stats":{"thread_switches":0}}]}"#;

    #[test]
    fn sweep_cells_sum() {
        let s = summarize(SWEEP).expect("parses");
        assert_eq!((s.ops, s.failed), (2, 0));
        assert_eq!(s.virt_ns, 3_000_000.0);
        assert_eq!((s.msgs, s.bytes), (150.0, 5120.0));
        assert_eq!(
            (s.thread_switches, s.diffs_used, s.barriers),
            (20.0, 8.0, 6.0)
        );
        assert_eq!(s.user_ns + s.barrier_ns + s.fault_ns + s.lock_ns, 20.0);
        assert!(s.serve_cells.is_empty());
    }

    #[test]
    fn serve_cells_carry_latency_and_knee() {
        let s = summarize(
            r#"{"cells":[{"rate_rps":1000.0,"served":1990,"total_ms":2001.5,"achieved_rps":994.2,"overhang":0.001,
                "latency":{"p50":2097151,"p99":16777215,"mean":2500000.5},"breakdown":{"idle_ns":9},
                "msgs":{"total":10},"stats":{"remote_locks":3}}],
               "knee":{"cell":0,"rate_rps":1000.0,"achieved_rps":994.2}}"#,
        )
        .expect("parses");
        assert_eq!(s.served, 1990.0);
        assert_eq!(s.virt_ns, 2_001_500_000.0);
        assert_eq!(s.knee_rps, 1000.0);
        assert_eq!(s.serve_cells[0].p99_ns, 16_777_215.0);
        assert_eq!(s.idle_ns, 9.0);
    }

    #[test]
    fn faults_verdicts_fold_into_failed() {
        let cell = |degraded: bool, gave_up: u64| {
            format!(
                r#"{{"total_ns":5,"degraded":{degraded},"loss":{{"sends":10,"gave_up":{gave_up},"retransmissions":2,"acks_sent":10,"duplicates_suppressed":1}}}}"#
            )
        };
        let doc = |cells: &[String], clean: bool| {
            format!(r#"{{"cells":[{}],"clean":{clean}}}"#, cells.join(","))
        };
        let ok = summarize(&doc(&[cell(false, 0), cell(false, 0)], true)).unwrap();
        assert_eq!(
            (ok.ops, ok.failed, ok.msgs, ok.retransmissions),
            (2, 0, 20.0, 4.0)
        );
        let degraded = summarize(&doc(&[cell(true, 0), cell(false, 0)], true)).unwrap();
        assert_eq!(degraded.failed, 1);
        let gave_up = summarize(&doc(&[cell(false, 3), cell(true, 1)], false)).unwrap();
        assert_eq!(gave_up.failed, 2);
        // Unclean campaign whose cells all look fine still fails.
        let unclean = summarize(&doc(&[cell(false, 0)], false)).unwrap();
        assert_eq!(unclean.failed, 1);
    }

    #[test]
    fn check_counts_traces_and_unclean_apps() {
        let doc = |clean: bool, failures: u64| {
            format!(
                r#"{{"schema":"cvm-check","failures":{failures},"apps":[
                {{"app":"sor","clean":true,"dpor":{{"traces":1024,"naive_log10":6.0,"sleep_prunes":4010,"backtracks":1023}}}},
                {{"app":"barnes","clean":{clean},"dpor":{{"traces":96,"naive_log10":5.0,"sleep_prunes":276,"backtracks":95}}}}]}}"#
            )
        };
        let ok = summarize(&doc(true, 0)).unwrap();
        assert_eq!((ok.ops, ok.failed, ok.traces), (1120, 0, 1120.0));
        assert_eq!(ok.naive, 1_100_000.0);
        assert_eq!(ok.virt_ns, 0.0);
        let bad = summarize(&doc(false, 1)).unwrap();
        assert_eq!(bad.failed, 96);
    }

    #[test]
    fn truncated_or_empty_artifacts_are_errors() {
        assert!(summarize(&SWEEP[..SWEEP.len() / 2]).is_err());
        assert!(summarize("{}").is_err());
        assert!(summarize(r#"{"cells":[]}"#).is_err());
    }

    #[test]
    fn digest_is_fnv1a_64() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(digest(b"ab"), digest(b"ba"));
    }
}
