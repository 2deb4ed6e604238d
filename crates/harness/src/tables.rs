//! Table and figure emitters.
//!
//! Each function regenerates one artifact of the paper's evaluation
//! section as formatted text (machine-readable CSV lines are embedded
//! where useful). Runs are cached in a [`Suite`] so artifacts sharing
//! configurations (Figure 1, Tables 2 and 3) reuse them.

use std::collections::HashMap;
use std::fmt::Write as _;

use cvm_apps::{AppId, Scale, WaterNsqOpt};
use cvm_net::MsgClass;

use crate::runner::{pct_change, run_app, run_water_nsq_variant, RunOutcome, RunSpec};

/// Thread levels evaluated by the paper.
pub const THREADS: [usize; 4] = [1, 2, 3, 4];

/// A memoized collection of runs.
#[derive(Debug, Default)]
pub struct Suite {
    scale: Scale,
    runs: HashMap<(AppId, usize, usize, bool), RunOutcome>,
    nsq: HashMap<(WaterNsqOpt, usize), RunOutcome>,
}

impl Suite {
    /// Creates an empty suite at the given scale.
    pub fn new(scale: Scale) -> Self {
        Suite {
            scale,
            ..Default::default()
        }
    }

    /// The problem scale in force.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Fetches (running on demand) one configuration.
    pub fn run(&mut self, app: AppId, nodes: usize, threads: usize, memsim: bool) -> &RunOutcome {
        let key = (app, nodes, threads, memsim);
        let scale = self.scale;
        self.runs.entry(key).or_insert_with(|| {
            let mut spec = RunSpec::new(app, scale, nodes, threads);
            spec.memsim = memsim;
            eprintln!("[cvm] running {app} P={nodes} T={threads} memsim={memsim}");
            run_app(spec)
        })
    }

    /// Fetches (running on demand) one Water-Nsq variant at 8 processors.
    pub fn run_nsq(&mut self, opt: WaterNsqOpt, threads: usize) -> &RunOutcome {
        let scale = self.scale;
        self.nsq.entry((opt, threads)).or_insert_with(|| {
            let spec = RunSpec::new(AppId::WaterNsq, scale, 8, threads);
            eprintln!("[cvm] running Water-Nsq {opt:?} P=8 T={threads}");
            run_water_nsq_variant(spec, opt)
        })
    }
}

/// Table 1: application specifics.
pub fn table1(scale: Scale) -> String {
    let mut out = String::from(
        "== Table 1: Application specifics ==\n\
         app        input set            sync type       modifications\n",
    );
    for id in AppId::ALL {
        let m = id.meta();
        let input = match scale {
            Scale::Paper => m.input_paper,
            // The tiny checker kernels are cut-down variants of the
            // laptop-scale inputs; Table 1 lists the latter.
            Scale::Tiny | Scale::Small => m.input_small,
        };
        let _ = writeln!(
            out,
            "{:<10} {:<20} {:<15} {}",
            m.name, input, m.sync, m.modifications
        );
    }
    out
}

/// Figure 1: normalized execution time on 4 and 8 processors, split into
/// user / barrier / fault / lock components (each bar normalized to the
/// single-threaded run of the same processor count).
pub fn fig1(suite: &mut Suite) -> String {
    let mut out = String::from(
        "== Figure 1: Normalized execution time (user/barrier/fault/lock) ==\n\
         app          P  T   total   user  barrier  fault   lock\n",
    );
    for app in AppId::ALL {
        for nodes in [4usize, 8] {
            let base = suite.run(app, nodes, 1, false).time_ms();
            for t in THREADS {
                if !app.supports_threads(t) {
                    continue;
                }
                let o = suite.run(app, nodes, t, false);
                let total = o.time_ms() / base;
                let scale = o.time_ms() / base; // bar height
                let user = o.report.fraction(|n| n.user) * scale;
                let barrier = o.report.fraction(|n| n.barrier) * scale;
                let fault = o.report.fraction(|n| n.fault) * scale;
                let lock = o.report.fraction(|n| n.lock) * scale;
                let _ = writeln!(
                    out,
                    "{:<12} {:>2} {:>2}  {:>6.3}  {:>5.3}  {:>6.3}  {:>5.3}  {:>5.3}",
                    app.name(),
                    nodes,
                    t,
                    total,
                    user,
                    barrier,
                    fault,
                    lock
                );
            }
        }
    }
    out
}

/// Table 2: communication performance on 8 processors.
pub fn table2(suite: &mut Suite) -> String {
    let mut out = String::from(
        "== Table 2: Communication performance (P=8) ==\n\
         app          T  delay_barrier(ms) delay_lock(ms) delay_diff(ms) \
         msgs_barrier msgs_lock msgs_diff msgs_total bw_kbytes\n",
    );
    for app in AppId::ALL {
        for t in THREADS {
            if !app.supports_threads(t) {
                continue;
            }
            let o = suite.run(app, 8, t, false);
            let _ = writeln!(
                out,
                "{:<12} {:>2} {:>17.0} {:>14.0} {:>14.0} {:>12} {:>9} {:>9} {:>10} {:>9}",
                app.name(),
                t,
                o.delay_ms(MsgClass::Barrier),
                o.delay_ms(MsgClass::Lock),
                o.delay_ms(MsgClass::Diff),
                o.msgs(MsgClass::Barrier),
                o.msgs(MsgClass::Lock),
                o.msgs(MsgClass::Diff),
                o.total_msgs(),
                o.bw_kb()
            );
        }
    }
    out
}

/// Table 3: DSM actions on 8 processors.
pub fn table3(suite: &mut Suite) -> String {
    let mut out = String::from(
        "== Table 3: DSM actions (P=8) ==\n\
         app          T  switches rem_faults rem_locks out_faults out_locks \
         bs_page bs_lock diffs_created diffs_used\n",
    );
    for app in AppId::ALL {
        for t in THREADS {
            if !app.supports_threads(t) {
                continue;
            }
            let o = suite.run(app, 8, t, false);
            let s = &o.report.stats;
            let _ = writeln!(
                out,
                "{:<12} {:>2} {:>9} {:>10} {:>9} {:>10} {:>9} {:>7} {:>7} {:>13} {:>10}",
                app.name(),
                t,
                s.thread_switches,
                s.remote_faults,
                s.remote_locks,
                s.outstanding_faults,
                s.outstanding_locks,
                s.block_same_page,
                s.block_same_lock,
                s.diffs_created,
                s.diffs_used
            );
        }
    }
    out
}

/// Figure 2: memory-system misses on 8 processors (SP-2 configuration).
pub fn fig2(suite: &mut Suite) -> String {
    let mut out = String::from(
        "== Figure 2: Memory-system misses vs threads (P=8, SP-2 config) ==\n\
         app          T     dcache_misses  dtlb_misses  itlb_misses\n",
    );
    for app in AppId::ALL {
        for t in THREADS {
            if !app.supports_threads(t) {
                continue;
            }
            let o = suite.run(app, 8, t, true);
            let m = o.report.mem;
            let _ = writeln!(
                out,
                "{:<12} {:>2} {:>17} {:>12} {:>12}",
                app.name(),
                t,
                m.dcache,
                m.dtlb,
                m.itlb
            );
        }
    }
    out
}

/// Table 4: scalability — relative change (vs one thread) of traffic and
/// protocol work at 4, 8 and 16 processors. Barnes is excluded, as in the
/// paper ("Barnes will not run with our default input size on sixteen
/// processors").
pub fn table4(suite: &mut Suite) -> String {
    let apps = [
        AppId::Fft,
        AppId::Ocean,
        AppId::Sor,
        AppId::Swm750,
        AppId::WaterSp,
        AppId::WaterNsq,
    ];
    let mut out = String::from(
        "== Table 4: Scalability (change vs 1 thread) ==\n\
         app          P  T  total_msgs bw_kbytes rem_faults diffs_created\n",
    );
    for app in apps {
        for nodes in [4usize, 8, 16] {
            let (bm, bb, bf, bd) = {
                let base = suite.run(app, nodes, 1, false);
                (
                    base.total_msgs(),
                    base.bw_kb(),
                    base.report.stats.remote_faults,
                    base.report.stats.diffs_created,
                )
            };
            for t in [2usize, 4] {
                if !app.supports_threads(t) {
                    continue;
                }
                let o = suite.run(app, nodes, t, false);
                let _ = writeln!(
                    out,
                    "{:<12} {:>2} {:>2} {:>9.0}% {:>8.0}% {:>9.0}% {:>12.0}%",
                    app.name(),
                    nodes,
                    t,
                    pct_change(bm, o.total_msgs()),
                    pct_change(bb, o.bw_kb()),
                    pct_change(bf, o.report.stats.remote_faults),
                    pct_change(bd, o.report.stats.diffs_created)
                );
            }
        }
    }
    out
}

/// Table 5: the Water-Nsq source-modification case study on 8 processors.
pub fn table5(suite: &mut Suite) -> String {
    let mut out = String::from(
        "== Table 5: Water-Nsq optimizations (P=8) ==\n\
         variant       T  speedup  switches rem_faults rem_locks out_faults \
         out_locks bs_page bs_lock diffs_created diffs_used\n",
    );
    for opt in [
        WaterNsqOpt::NoOpts,
        WaterNsqOpt::LocalBarrier,
        WaterNsqOpt::BothOpts,
    ] {
        let base = suite.run_nsq(opt, 1).time_ms();
        for t in THREADS {
            let o = suite.run_nsq(opt, t);
            let s = &o.report.stats;
            let speedup = (base - o.time_ms()) / base * 100.0;
            let name = match opt {
                WaterNsqOpt::NoOpts => "NoOpts",
                WaterNsqOpt::LocalBarrier => "LocalBarrier",
                WaterNsqOpt::BothOpts => "BothOpts",
            };
            let _ = writeln!(
                out,
                "{:<13} {:>2} {:>7.1}% {:>8} {:>10} {:>9} {:>10} {:>9} {:>7} {:>7} {:>13} {:>10}",
                name,
                t,
                speedup,
                s.thread_switches,
                s.remote_faults,
                s.remote_locks,
                s.outstanding_faults,
                s.outstanding_locks,
                s.block_same_page,
                s.block_same_lock,
                s.diffs_created,
                s.diffs_used
            );
        }
    }
    out
}

/// Ablation study: switch off the paper's two multi-threading mechanisms
/// one at a time (P=8, T=4) and report the damage. Regenerates the design
/// rationale of §3: barrier-arrival aggregation and the local-queue lock
/// release policy.
pub fn ablation(scale: Scale) -> String {
    use crate::runner::{run_app, run_water_nsq_variant};
    let mut out = String::from(
        "== Ablation: the paper's multi-threading mechanisms (P=8, T=4) ==\n\
         app        variant                 time(ms)  barrier_msgs lock_msgs total_msgs  wait_lock(ms) wait_barrier(ms)\n",
    );
    let emit = |app: AppId, name: &str, agg: bool, pref: bool, out: &mut String| {
        let mut spec = RunSpec::new(app, scale, 8, 4);
        spec.aggregate_barriers = agg;
        spec.prefer_local_locks = pref;
        eprintln!("[cvm] ablation {app} {name}");
        // Water-Nsq runs its unoptimized variant here: only transparently
        // multi-threaded code has the local lock contention that the
        // release policy exists to exploit.
        let o = if app == AppId::WaterNsq {
            run_water_nsq_variant(spec, WaterNsqOpt::NoOpts)
        } else {
            run_app(spec)
        };
        let _ = writeln!(
            out,
            "{:<10} {:<22} {:>9.1} {:>13} {:>9} {:>10} {:>14.0} {:>16.0}",
            app.name(),
            name,
            o.time_ms(),
            o.msgs(MsgClass::Barrier),
            o.msgs(MsgClass::Lock),
            o.total_msgs(),
            o.delay_ms(MsgClass::Lock),
            o.delay_ms(MsgClass::Barrier),
        );
    };
    for app in [AppId::Sor, AppId::Ocean, AppId::WaterNsq] {
        emit(app, "full system", true, true, &mut out);
        emit(app, "no barrier aggregation", false, true, &mut out);
        emit(app, "no local-first release", true, false, &mut out);
    }
    out.push_str("\n-- Ocean with/without the `r` reduction modification, P=8 T=4 --\n");
    out.push_str("variant                time(ms)  lock_msgs  bs_lock  wait_lock(ms)\n");
    for (name, use_reduction) in [("local-barrier (r)", true), ("transparent MT", false)] {
        let mut b = cvm_dsm::CvmBuilder::new({
            let mut c = cvm_dsm::CvmConfig::paper(8, 4);
            c.seed = 0x5EED_CAFE;
            c
        });
        let body = cvm_apps::registry::build_ocean_variant(&mut b, scale, use_reduction);
        eprintln!("[cvm] reduction ablation Ocean {name}");
        let o = b.run(body);
        let _ = writeln!(
            out,
            "{:<22} {:>8.1} {:>10} {:>8} {:>13.0}",
            name,
            o.total_ms(),
            o.net.class_count(MsgClass::Lock),
            o.stats.block_same_lock,
            o.stats.wait_lock.as_ms_f64(),
        );
    }
    out.push_str(
        "\n-- FIFO vs LIFO scheduling (the paper's missing memory-conscious policy), P=8 T=4, memsim on --\n",
    );
    out.push_str("app        policy   time(ms)  dcache_misses  dtlb_misses  itlb_misses\n");
    for app in [AppId::Barnes, AppId::Ocean] {
        for (name, lifo) in [("FIFO", false), ("LIFO", true)] {
            let mut spec = RunSpec::new(app, scale, 8, 4);
            spec.memsim = true;
            spec.lifo = lifo;
            eprintln!("[cvm] scheduler ablation {app} {name}");
            let o = run_app(spec);
            let m = o.report.mem;
            let _ = writeln!(
                out,
                "{:<10} {:<8} {:>8.1} {:>14} {:>12} {:>12}",
                app.name(),
                name,
                o.time_ms(),
                m.dcache,
                m.dtlb,
                m.itlb
            );
        }
    }
    out
}

/// Protocol comparison: the paper's lazy multi-writer protocol against
/// the eager-update alternative (CVM was "created specifically as a
/// platform for protocol experimentation"). Lazy invalidate trades fault
/// latency for bandwidth; eager update removes most read faults but
/// multiplies traffic with the copyset size — the classic result that
/// motivated lazy release consistency.
pub fn protocols(scale: Scale) -> String {
    use crate::runner::run_app;
    use cvm_dsm::ProtocolKind;
    let mut out = String::from("== Protocol comparison (P=8, T=2) ==\n");
    out.push_str(
        "app        protocol            time(ms) rem_faults diff_msgs  pushes  drops bw_kbytes\n",
    );
    for app in [AppId::Sor, AppId::Ocean, AppId::WaterNsq] {
        for proto in ProtocolKind::ALL {
            let mut spec = RunSpec::new(app, scale, 8, 2);
            spec.protocol = proto;
            eprintln!("[cvm] protocol {app} {proto}");
            let o = run_app(spec);
            let _ = writeln!(
                out,
                "{:<10} {:<18} {:>9.1} {:>10} {:>9} {:>7} {:>6} {:>9}",
                app.name(),
                proto.name(),
                o.time_ms(),
                o.report.stats.remote_faults,
                o.msgs(MsgClass::Diff),
                o.report.stats.updates_pushed,
                o.report.stats.copies_dropped,
                o.bw_kb()
            );
        }
    }
    out
}

/// Latency percentiles: p50/p99/p999/max of every latency-bearing
/// protocol histogram, one markdown table over the whole suite at
/// P=8 T=2. The log₂ histograms behind the sweep's p90 columns carry
/// the full distribution; this renders the tail the mean hides.
pub fn latency(suite: &mut Suite) -> String {
    let mut out = String::from("== Latency percentiles (P=8, T=2) ==\n\n");
    out.push_str("| app | metric | count | p50 | p99 | p999 | max |\n");
    out.push_str("|---|---|---:|---:|---:|---:|---:|\n");
    for app in AppId::ALL {
        if !app.supports_threads(2) {
            continue;
        }
        let o = suite.run(app, 8, 2, false);
        let h = o.report.hist.clone();
        for (metric, hist) in [
            ("fault fetch (ns)", &h.fault_fetch_ns),
            ("lock 2-hop (ns)", &h.lock_2hop_ns),
            ("lock 3-hop (ns)", &h.lock_3hop_ns),
            ("barrier stall (ns)", &h.barrier_stall_ns),
            ("diff size (bytes)", &h.diff_bytes),
        ] {
            if hist.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} |",
                app.name(),
                metric,
                hist.count(),
                hist.p50(),
                hist.p99(),
                hist.p999(),
                hist.max()
            );
        }
    }
    out
}

/// Perturbation study: the paper lists "application perturbation —
/// multi-threading changes the order that events occur... a
/// non-deterministic effect on performance" among its limiting factors.
/// Our runs are deterministic per seed, so the perturbation becomes
/// measurable: run each application with seeded ±50 µs wire jitter (which
/// reorders message deliveries exactly like real-network variance) and
/// report the spread of total time and key protocol actions.
pub fn perturb(scale: Scale, seeds: usize) -> String {
    use crate::runner::run_app;
    let mut out = String::from("== Perturbation across seeds (P=8, T=4) ==\n");
    out.push_str(
        "app          seeds  time_min(ms) time_med(ms) time_max(ms) spread  faults_min faults_max\n",
    );
    for app in AppId::ALL {
        if !app.supports_threads(4) {
            continue;
        }
        let mut times = Vec::new();
        let mut faults = Vec::new();
        for s in 0..seeds {
            let mut spec = RunSpec::new(app, scale, 8, 4);
            spec.seed = 0x5EED_0000 + s as u64;
            spec.jitter_us = 50;
            eprintln!("[cvm] perturb {app} seed {s}");
            let o = run_app(spec);
            times.push(o.time_ms());
            faults.push(o.report.stats.remote_faults);
        }
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        faults.sort_unstable();
        let med = times[times.len() / 2];
        let spread = (times[times.len() - 1] - times[0]) / med * 100.0;
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>13.1} {:>12.1} {:>12.1} {:>6.1}% {:>10} {:>10}",
            app.name(),
            seeds,
            times[0],
            med,
            times[times.len() - 1],
            spread,
            faults[0],
            faults[faults.len() - 1],
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_apps() {
        let t = table1(Scale::Small);
        for id in AppId::ALL {
            assert!(t.contains(id.name()), "missing {id}");
        }
    }

    #[test]
    fn latency_table_renders_markdown_percentiles() {
        let mut suite = Suite::new(Scale::Small);
        let t = latency(&mut suite);
        assert!(t.contains("| app | metric | count | p50 | p99 | p999 | max |"));
        assert!(t.contains("fault fetch (ns)"));
        // Every body row is a well-formed markdown table row.
        for line in t.lines().filter(|l| l.starts_with("| ")) {
            assert_eq!(line.matches('|').count(), 8, "bad row: {line}");
        }
    }
}
