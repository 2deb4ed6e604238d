//! The two kinds of run: end to end with tracing off, and the traced
//! run that yields the per-layer ledger.

use std::path::Path;
use std::time::Instant;

use crate::artifact::Summary;
use crate::child;
use crate::derived;
use crate::measure::{self, Job, Timed};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::proc::{self, Pinning};
use crate::report::Report;
use crate::spans::Spans;
use crate::workload::Workload;

/// Times the whole set-up is done in an end-to-end run; `setup_s` is the
/// median, so one slow warm-up does not decide it.
const SETUPS: usize = 3;
/// Repetitions of the traced run that record spans, and as many that do
/// not: `bench.trace_overhead_pct` compares two minima over equal counts.
const TRACED_HALF: usize = 3;
/// Serve cells meet their latency limit when p99 stays under this…
const SERVE_P99_LIMIT_NS: f64 = 50e6;
/// …and the backlog does not grow: the run overhangs its arrival window
/// by at most this share (the repository's own knee criterion).
const SERVE_OVERHANG_LIMIT: f64 = 0.25;

const MIB: f64 = 1024.0 * 1024.0;

/// Attempted and failed ops over the timed repetitions.
fn tally(job: &Job, timed: &Timed) -> (u64, u64) {
    let ops = job.reference.summary.ops;
    let failed = timed.outcomes.iter().map(|o| o.failed_ops(ops)).sum();
    (ops * timed.outcomes.len() as u64, failed)
}

fn report_problems(timed: &Timed) -> bool {
    let mut clean = true;
    for (i, o) in timed.outcomes.iter().enumerate() {
        for p in &o.problems {
            eprintln!("hostbench: rep[{i}] FAILED: {p}");
            clean = false;
        }
    }
    clean
}

/// Largest peak RSS over the repetitions, MiB.
fn peak_rss_mib(timed: &Timed) -> f64 {
    let kib = timed
        .outcomes
        .iter()
        .filter_map(|o| o.rep.peak_rss_kib)
        .max()
        .unwrap_or(0);
    kib as f64 * 1024.0 / MIB
}

/// Prints the benchmark's own health beside the metrics, as comments.
fn print_health(pin: &Pinning, timed: &Timed, digest: u64) {
    let walls = timed.walls();
    println!("# bench.pinned {}", pin.flag());
    println!("# bench.reps {}", walls.len());
    println!("# bench.wall_med_s {}", proc::median(&walls));
    println!("# bench.wall_max_s {}", proc::max(&walls));
    println!("# bench.steal_share {}", timed.steal_share);
    let per_rep: Vec<String> = timed
        .outcomes
        .iter()
        .map(|o| format!("{:.3}/{:.2}", o.rep.wall_s, o.rep.cpu_s))
        .collect();
    println!("# bench.rep_wall_s/cpu_s {}", per_rep.join(" "));
    let per_rep: Vec<String> = timed
        .outcomes
        .iter()
        .map(|o| (o.rep.peak_rss_kib.unwrap_or(0)).to_string())
        .collect();
    println!("# bench.rep_peak_rss_kib {}", per_rep.join(" "));
    println!("# artifact_digest {digest:016x}");
    if timed.steal_share > 0.05 {
        eprintln!(
            "hostbench: WARNING steal_share {:.3} > 0.05: the host was busy, timings are flagged",
            timed.steal_share
        );
    }
}

/// The end-to-end run: [`SETUPS`] set-ups, then the workload's fixed
/// count of identical repetitions, tracing off throughout.
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    started: Instant,
) -> Result<Report, String> {
    let mut spans = Spans::new(false);
    let mut setup_s = Vec::new();
    let mut job = None;
    for i in 0..SETUPS {
        // The first set-up is timed from process start, so that whatever
        // happens before it (argument parsing, start-up) counts.
        let t0 = if i == 0 { started } else { Instant::now() };
        if let Some(Job { env, .. }) = job.take() {
            measure::cleanup(&env.dir);
        }
        job = Some(measure::setup(workload, seed, &mut spans, 0)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let job = job.expect("SETUPS is at least 1");
    if let Some(w) = job.env.pin.warning() {
        eprintln!("{w}");
    }
    let timed = measure::timed_reps(&job, workload.reps(), seconds, &mut spans, 0, |_| false);
    measure::cleanup(&job.env.dir);

    let wall = timed.best_wall_s();
    let cpus: Vec<f64> = timed.outcomes.iter().map(|o| o.rep.cpu_s).collect();
    let work = workload.work(&job.reference.summary);
    let values = [
        ("setup_s", proc::median(&setup_s)),
        ("host_wall_s", wall),
        ("host_cpu_s", proc::min(&cpus)),
        ("host_work_per_s", work / wall),
        ("host_peak_rss_mib", peak_rss_mib(&timed)),
    ];
    let (metrics, missing) = Report::fill(END_TO_END, &values);
    let (attempted, failed) = tally(&job, &timed);
    let clean = report_problems(&timed);
    for m in &missing {
        eprintln!("hostbench: metric {m} was not measured");
    }
    println!(
        "# workload {} seed {seed} work_unit {:?} work {work}",
        workload.name(),
        workload.work_unit()
    );
    print_health(&job.env.pin, &timed, job.reference.digest);
    Ok(Report {
        correct: clean && failed == 0 && missing.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// (C) metrics: deterministic counts of one repetition's artifact.
fn count_metrics(s: &Summary) -> Vec<(&'static str, f64)> {
    let accounted = s.user_ns + s.barrier_ns + s.fault_ns + s.lock_ns + s.idle_ns;
    let cell = |rate: f64| s.serve_cells.iter().find(|c| c.rate_rps == rate);
    let at = |rate: f64, f: fn(&crate::artifact::ServeCell) -> f64| cell(rate).map_or(0.0, f);
    let max_rate = s
        .serve_cells
        .iter()
        .filter(|c| c.p99_ns <= SERVE_P99_LIMIT_NS && c.overhang <= SERVE_OVERHANG_LIMIT)
        .map(|c| c.rate_rps)
        .fold(0.0, f64::max);
    vec![
        ("net.msgs", s.msgs),
        ("net.bytes", s.bytes),
        ("net.retransmissions", s.retransmissions),
        ("net.acks", s.acks),
        ("net.dup_suppressed", s.dup_suppressed),
        ("net.gave_up", s.gave_up),
        ("net.retx_per_send", ratio(s.retransmissions, s.sends)),
        ("core.thread_switches", s.thread_switches),
        ("core.remote_faults", s.remote_faults),
        ("core.remote_locks", s.remote_locks),
        ("core.diffs_created", s.diffs_created),
        ("core.diffs_used", s.diffs_used),
        ("core.diff_reuse", ratio(s.diffs_used, s.diffs_created)),
        ("core.twins_created", s.twins_created),
        ("core.barriers", s.barriers),
        ("virt.time_ms", s.virt_ns / 1e6),
        ("virt.user_share", ratio(s.user_ns, accounted)),
        ("virt.barrier_share", ratio(s.barrier_ns, accounted)),
        ("virt.fault_share", ratio(s.fault_ns, accounted)),
        ("virt.lock_share", ratio(s.lock_ns, accounted)),
        ("virt.idle_share", ratio(s.idle_ns, accounted)),
        ("virt.serve_p50_us_r1000", at(1000.0, |c| c.p50_ns / 1e3)),
        ("virt.serve_p99_us_r1000", at(1000.0, |c| c.p99_ns / 1e3)),
        ("virt.serve_p99_us_r1500", at(1500.0, |c| c.p99_ns / 1e3)),
        ("virt.serve_mean_us_r1500", at(1500.0, |c| c.mean_ns / 1e3)),
        ("virt.serve_max_rate_rps", max_rate),
        ("virt.serve_sat_rps", at(3000.0, |c| c.achieved_rps)),
        ("virt.serve_knee_rps", s.knee_rps),
        ("verify.traces", s.traces),
        ("verify.sleep_prunes", s.sleep_prunes),
        ("verify.backtracks", s.backtracks),
        (
            "verify.naive_log10",
            if s.naive > 0.0 { s.naive.log10() } else { 0.0 },
        ),
    ]
}

fn value_of(values: &[(&'static str, f64)], name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// The attribution table: count × probe cost ÷ `host_wall_s` for the
/// layers that have a public count. These are estimates (`_est`): the
/// probe's inputs are not the workload's. What they leave unexplained is
/// printed too, so that nobody takes the rows for measured shares.
fn attribution(
    values: &[(&'static str, f64)],
    s: &Summary,
    wall_s: f64,
) -> Vec<(&'static str, f64)> {
    let v = |name: &str| value_of(values, name);
    // With acks in the artifact the messages went over the reliability
    // layer under the campaign's plans; otherwise over the raw wire.
    let per_msg_ns = if s.acks > 0.0 {
        (v("net.send_deliver_reliable_ns")
            + v("net.send_deliver_loss10_ns")
            + v("net.send_deliver_storm_ns"))
            / 3.0
    } else {
        v("net.send_deliver_ns")
    };
    let wall_ns = wall_s * 1e9;
    let rows = vec![
        ("attr.net_send_deliver_est", s.msgs * per_msg_ns / wall_ns),
        (
            "attr.core_diff_apply_est",
            s.diffs_used * v("core.diff_apply_dense_ns") / wall_ns,
        ),
        (
            "attr.core_twin_est",
            s.twins_created * v("core.twin_ensure_clear_ns") / wall_ns,
        ),
        (
            "attr.core_fault_est",
            s.remote_faults * v("core.fault_host_us") * 1e3 / wall_ns,
        ),
        (
            "attr.sim_json_emit_est",
            s.kib * v("sim.json_emit_ns_per_kib") / wall_ns,
        ),
    ];
    let explained: f64 = rows.iter().map(|(_, share)| share).sum();
    let mut rows = rows;
    rows.push(("attr.unexplained_residual", 1.0 - explained));
    rows
}

/// Runs this executable's `--probes` mode in a child and folds its
/// lines into `values` and, as `probe.<metric>` spans, into `spans`.
fn run_probes(
    me: &Path,
    pin: &Pinning,
    args: &[String],
    rename: Option<(&str, &'static str)>,
    spans: &mut Spans,
    parent: u32,
    values: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let span = spans.open(
        parent,
        if rename.is_some() {
            "probes.xcpu"
        } else {
            "probes"
        },
    );
    let offset = spans.now_ns();
    let rep = child::run(pin, me, args, spans, span)?;
    spans.close(span);
    if !rep.exit_ok {
        return Err("the probe child failed".into());
    }
    for line in probes::parse_lines(&rep.stdout) {
        let name = match rename {
            Some((from, to)) if line.metric == from => to,
            _ => match PER_LAYER.iter().find(|d| d.name == line.metric) {
                Some(d) => d.name,
                None => continue,
            },
        };
        values.push((name, line.value));
        if line.end_ns > line.start_ns {
            spans.record(
                span,
                &format!("probe.{name}"),
                offset + line.start_ns,
                offset + line.end_ns,
            );
        }
    }
    Ok(())
}

/// The traced run: one set-up, repetitions that alternate between
/// recording spans and not (their difference is what tracing costs),
/// then the probes, the walk and the derived commands. Writes the spans
/// to `trace.json` and reports every per-layer metric.
///
/// # Errors
///
/// Returns a message when set-up or the probe child fails.
pub fn traced(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut spans = Spans::new(true);
    let root = spans.open(0, workload.name());
    let job = measure::setup(workload, seed, &mut spans, root)?;
    if let Some(w) = job.env.pin.warning() {
        eprintln!("{w}");
    }
    let timed = measure::timed_reps(&job, 2 * TRACED_HALF, seconds, &mut spans, root, |i| {
        i % 2 == 0
    });
    spans.set_enabled(true);
    let summary = &job.reference.summary;
    let wall_of = |traced: bool| {
        let walls: Vec<f64> = timed
            .outcomes
            .iter()
            .enumerate()
            .filter(|(i, _)| (i % 2 == 0) == traced)
            .map(|(_, o)| o.rep.wall_s)
            .collect();
        proc::min(&walls)
    };
    let (traced_wall, untraced_wall) = (wall_of(true), wall_of(false));
    let walls = timed.walls();
    let wall = timed.best_wall_s();
    let pinned =
        job.env.pin.flag() == 1 && timed.outcomes.iter().all(|o| o.rep.pin_held(&job.env.pin));

    let mut values = count_metrics(summary);
    values.extend([
        ("bench.pinned", f64::from(u8::from(pinned))),
        ("bench.reps", walls.len() as f64),
        ("bench.wall_med_s", proc::median(&walls)),
        ("bench.wall_max_s", proc::max(&walls)),
        ("bench.steal_share", timed.steal_share),
        (
            "bench.trace_overhead_pct",
            (traced_wall - untraced_wall) / untraced_wall * 100.0,
        ),
        (
            "apps.serve_host_us_per_req",
            ratio(wall * 1e6, summary.served),
        ),
        (
            "verify.host_us_per_trace",
            ratio(wall * 1e6, summary.traces),
        ),
    ]);

    let artifact = job.env.artifact_path().display().to_string();
    let all = [
        "--probes".to_owned(),
        "all".to_owned(),
        workload.name().to_owned(),
        seed.to_string(),
        artifact,
    ];
    run_probes(
        &job.env.me,
        &job.env.pin,
        &all,
        None,
        &mut spans,
        root,
        &mut values,
    )?;
    // The same baton probe with the kernel free to place the two threads
    // on different CPUs: what an unpinned user pays per hand-off.
    let unpinned = Pinning::Unpinned {
        why: "cross-CPU comparison".into(),
    };
    run_probes(
        &job.env.me,
        &unpinned,
        &["--probes".to_owned(), "baton".to_owned()],
        Some(("sim.baton_roundtrip_ns", "sim.baton_roundtrip_xcpu_ns")),
        &mut spans,
        root,
        &mut values,
    )?;
    values.extend(derived::run_all(&job.env, &mut spans, root));
    let attr = attribution(&values, summary, wall);
    values.extend(attr);
    spans.close(root);

    let trace_path = job.env.trace_path();
    std::fs::write(&trace_path, spans.to_json().to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    println!(
        "# trace {} spans written to {}",
        spans.all().len(),
        trace_path.display()
    );
    // Self time: a span's duration minus what its children cover. For
    // the root that is hostbench's own work between the children.
    for s in spans
        .all()
        .iter()
        .filter(|s| s.id == root || s.parent == root)
    {
        println!(
            "# self_ms {} {:.3} of {:.3}",
            s.name,
            spans.self_ns(s.id) as f64 / 1e6,
            (s.end_ns - s.start_ns) as f64 / 1e6
        );
    }
    measure::cleanup(&job.env.dir);

    let (metrics, missing) = Report::fill(PER_LAYER, &values);
    let (attempted, failed) = tally(&job, &timed);
    let clean = report_problems(&timed);
    for m in &missing {
        eprintln!("hostbench: metric {m} was not measured");
    }
    Ok(Report {
        correct: clean && failed == 0 && missing.is_empty(),
        attempted,
        failed,
        metrics,
    })
}
