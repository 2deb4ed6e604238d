//! The paper's evaluation as data. Every artifact is one [`TABLES`] entry
//! `(name, cells, render)`: `cells(scale)` lists the [`RunSpec`]s the
//! artifact reads, in row order, and `render(&runs, scale)` walks the same
//! list, looking each outcome up by spec ([`Runs::get`]). A baseline row
//! is `RunSpec { threads: 1, ..spec }`, so no grid is written twice.
//!
//! [`run`] takes the union of the selected artifacts' cells and runs each
//! distinct spec once through [`campaign::run`] — Figure 1, Tables 2–4,
//! the latency table and the ablations share their common configurations
//! — then prints the renders. The cells keep [`RunSpec::new`]'s fixed
//! seed, so the numbers do not depend on which artifacts ran together.

use std::fmt::Write as _;

use cvm_apps::{AppId, Scale, Variant, WaterNsqOpt};
use cvm_dsm::ProtocolKind;
use cvm_net::MsgClass;

use crate::cli::{Args, CliError};
use crate::runner::{grid, pct_change, run_app, RunOutcome, RunSpec};
use crate::{campaign, micro};

/// Thread levels evaluated by the paper.
pub const THREADS: [usize; 4] = [1, 2, 3, 4];

/// One artifact: its command name, the cells it reads (in row order) and
/// its renderer over their outcomes.
pub type Table = (
    &'static str,
    fn(Scale) -> Vec<RunSpec>,
    fn(&Runs, Scale) -> String,
);

/// Every table artifact by command name, in `all` order; `all` stops
/// before `perturb`, whose re-seeded cells run on demand only.
pub static TABLES: [Table; 12] = [
    (
        "micro",
        |_| Vec::new(),
        |_, _| micro::render(&micro::report()),
    ),
    ("table1", |_| Vec::new(), table1),
    ("fig1", fig1_cells, fig1),
    ("table2", p8_cells, table2),
    ("table3", p8_cells, table3),
    ("fig2", fig2_cells, fig2),
    ("table4", table4_cells, table4),
    ("table5", table5_cells, table5),
    ("latency", latency_cells, latency),
    ("ablation", ablation_cells, ablation),
    ("protocols", protocols_cells, protocols),
    ("perturb", perturb_cells, perturb),
];

/// Parses a table command: the artifacts it prints and the input scale.
pub fn parse(cmd: &str, argv: &[String]) -> Result<(&'static [Table], Scale), CliError> {
    let mut scale = Scale::Small;
    let mut args = Args::new(cmd, argv);
    args.each(|a| match a.flag() {
        "--paper-scale" => {
            scale = Scale::Paper;
            Ok(())
        }
        _ => Err(a.unknown()),
    })?;
    let selected = match cmd {
        "all" => &TABLES[..TABLES.len() - 1],
        _ => match TABLES.iter().position(|t| t.0 == cmd) {
            Some(i) => &TABLES[i..=i],
            None => return Err(args.usage("unknown command")),
        },
    };
    Ok((selected, scale))
}

/// Runs the selected artifacts' cells, each distinct spec once on one
/// worker per core, and prints the renders separated by blank lines.
pub fn run((tables, scale): (&[Table], Scale)) -> Result<(), CliError> {
    let runs = Runs::run(cells(tables, scale), 0);
    let rendered: Vec<String> = tables.iter().map(|t| (t.2)(&runs, scale)).collect();
    print!("{}", rendered.join("\n"));
    Ok(())
}

/// Every cell `tables` read, in order, duplicates included.
fn cells(tables: &[Table], scale: Scale) -> Vec<RunSpec> {
    tables.iter().flat_map(|t| (t.1)(scale)).collect()
}

/// `cells` with every repeat of an earlier spec dropped.
fn distinct(cells: Vec<RunSpec>) -> Vec<RunSpec> {
    let mut out: Vec<RunSpec> = Vec::with_capacity(cells.len());
    for spec in cells {
        if !out.contains(&spec) {
            out.push(spec);
        }
    }
    out
}

/// The outcomes of one table campaign, found by the spec that made them.
#[derive(Debug, Default)]
pub struct Runs(Vec<RunOutcome>);

impl Runs {
    /// Runs each distinct spec of `cells` once through [`campaign::run`]
    /// on `workers` host threads (0 = one per core).
    pub fn run(cells: Vec<RunSpec>, workers: usize) -> Runs {
        let (cells, run) = (distinct(cells), |_, spec| run_app(spec));
        Runs(campaign::run(
            "cvm",
            workers,
            cells,
            RunOutcome::done_label,
            run,
        ))
    }

    /// The outcome of `spec`.
    ///
    /// # Panics
    ///
    /// If `spec` was not run: a render read a cell its table does not list.
    pub fn get(&self, spec: RunSpec) -> &RunOutcome {
        let found = self.0.iter().find(|o| o.spec == spec);
        found.unwrap_or_else(|| panic!("cell not listed by its table: {spec:?}"))
    }
}

/// Every spec of `specs` replaced by the specs `f` makes of it.
fn each<const N: usize>(specs: Vec<RunSpec>, f: impl Fn(RunSpec) -> [RunSpec; N]) -> Vec<RunSpec> {
    specs.into_iter().flat_map(f).collect()
}

/// Table 1: application specifics.
pub fn table1(_: &Runs, scale: Scale) -> String {
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

fn fig1_cells(scale: Scale) -> Vec<RunSpec> {
    grid(scale, &AppId::ALL, &[4, 8], &THREADS)
}

/// Figure 1: normalized execution time on 4 and 8 processors, split into
/// user / barrier / fault / lock components (each bar normalized to the
/// single-threaded run of the same processor count).
pub fn fig1(runs: &Runs, scale: Scale) -> String {
    let mut out = String::from(
        "== Figure 1: Normalized execution time (user/barrier/fault/lock) ==\n\
         app          P  T   total   user  barrier  fault   lock\n",
    );
    for spec in fig1_cells(scale) {
        let o = runs.get(spec);
        let total = o.time_ms() / runs.get(RunSpec { threads: 1, ..spec }).time_ms();
        let _ = writeln!(
            out,
            "{:<12} {:>2} {:>2}  {:>6.3}  {:>5.3}  {:>6.3}  {:>5.3}  {:>5.3}",
            spec.app.name(),
            spec.nodes,
            spec.threads,
            total,
            o.report.fraction(|n| n.user) * total,
            o.report.fraction(|n| n.barrier) * total,
            o.report.fraction(|n| n.fault) * total,
            o.report.fraction(|n| n.lock) * total,
        );
    }
    out
}

/// The P=8 runs of Tables 2 and 3.
fn p8_cells(scale: Scale) -> Vec<RunSpec> {
    grid(scale, &AppId::ALL, &[8], &THREADS)
}

/// Table 2: communication performance on 8 processors.
pub fn table2(runs: &Runs, scale: Scale) -> String {
    let mut out = String::from(
        "== Table 2: Communication performance (P=8) ==\n\
         app          T  delay_barrier(ms) delay_lock(ms) delay_diff(ms) \
         msgs_barrier msgs_lock msgs_diff msgs_total bw_kbytes\n",
    );
    for spec in p8_cells(scale) {
        let o = runs.get(spec);
        let _ = writeln!(
            out,
            "{:<12} {:>2} {:>17.0} {:>14.0} {:>14.0} {:>12} {:>9} {:>9} {:>10} {:>9}",
            spec.app.name(),
            spec.threads,
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
    out
}

/// Table 3: DSM actions on 8 processors.
pub fn table3(runs: &Runs, scale: Scale) -> String {
    let mut out = String::from(
        "== Table 3: DSM actions (P=8) ==\n\
         app          T  switches rem_faults rem_locks out_faults out_locks \
         bs_page bs_lock diffs_created diffs_used\n",
    );
    for spec in p8_cells(scale) {
        let s = &runs.get(spec).report.stats;
        let _ = writeln!(
            out,
            "{:<12} {:>2} {:>9} {:>10} {:>9} {:>10} {:>9} {:>7} {:>7} {:>13} {:>10}",
            spec.app.name(),
            spec.threads,
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
    out
}

fn fig2_cells(scale: Scale) -> Vec<RunSpec> {
    each(p8_cells(scale), |s| [RunSpec { memsim: true, ..s }])
}

/// Figure 2: memory-system misses on 8 processors (SP-2 configuration).
pub fn fig2(runs: &Runs, scale: Scale) -> String {
    let mut out = String::from(
        "== Figure 2: Memory-system misses vs threads (P=8, SP-2 config) ==\n\
         app          T     dcache_misses  dtlb_misses  itlb_misses\n",
    );
    for spec in fig2_cells(scale) {
        let m = runs.get(spec).report.mem;
        let _ = writeln!(
            out,
            "{:<12} {:>2} {:>17} {:>12} {:>12}",
            spec.app.name(),
            spec.threads,
            m.dcache,
            m.dtlb,
            m.itlb
        );
    }
    out
}

/// Table 4 leaves Barnes out, as in the paper ("Barnes will not run with
/// our default input size on sixteen processors"); its T=1 cells are the
/// baselines.
fn table4_cells(scale: Scale) -> Vec<RunSpec> {
    use AppId::*;
    let apps = [Fft, Ocean, Sor, Swm750, WaterSp, WaterNsq];
    grid(scale, &apps, &[4, 8, 16], &[1, 2, 4])
}

/// Table 4: scalability — relative change (vs one thread) of traffic and
/// protocol work at 4, 8 and 16 processors.
pub fn table4(runs: &Runs, scale: Scale) -> String {
    let mut out = String::from(
        "== Table 4: Scalability (change vs 1 thread) ==\n\
         app          P  T  total_msgs bw_kbytes rem_faults diffs_created\n",
    );
    for spec in table4_cells(scale).into_iter().filter(|s| s.threads > 1) {
        let (base, o) = (runs.get(RunSpec { threads: 1, ..spec }), runs.get(spec));
        let (bs, s) = (&base.report.stats, &o.report.stats);
        let _ = writeln!(
            out,
            "{:<12} {:>2} {:>2} {:>9.0}% {:>8.0}% {:>9.0}% {:>12.0}%",
            spec.app.name(),
            spec.nodes,
            spec.threads,
            pct_change(base.total_msgs(), o.total_msgs()),
            pct_change(base.bw_kb(), o.bw_kb()),
            pct_change(bs.remote_faults, s.remote_faults),
            pct_change(bs.diffs_created, s.diffs_created)
        );
    }
    out
}

/// Table 5's three Water-Nsq programs at P=8, T=1..4.
fn table5_cells(scale: Scale) -> Vec<RunSpec> {
    use WaterNsqOpt::*;
    let row = grid(scale, &[AppId::WaterNsq], &[8], &THREADS);
    [NoOpts, LocalBarrier, BothOpts]
        .into_iter()
        .flat_map(|opt| {
            let variant = Some(Variant::WaterNsq(opt));
            each(row.clone(), |s| [RunSpec { variant, ..s }])
        })
        .collect()
}

/// Table 5: the Water-Nsq source-modification case study on 8 processors.
pub fn table5(runs: &Runs, scale: Scale) -> String {
    let mut out = String::from(
        "== Table 5: Water-Nsq optimizations (P=8) ==\n\
         variant       T  speedup  switches rem_faults rem_locks out_faults \
         out_locks bs_page bs_lock diffs_created diffs_used\n",
    );
    for spec in table5_cells(scale) {
        let Some(Variant::WaterNsq(opt)) = spec.variant else {
            unreachable!("Table 5 lists Water-Nsq variants only")
        };
        let base = runs.get(RunSpec { threads: 1, ..spec }).time_ms();
        let o = runs.get(spec);
        let s = &o.report.stats;
        let _ = writeln!(
            out,
            "{:<13} {:>2} {:>7.1}% {:>8} {:>10} {:>9} {:>10} {:>9} {:>7} {:>7} {:>13} {:>10}",
            format!("{opt:?}"),
            spec.threads,
            (base - o.time_ms()) / base * 100.0,
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
    out
}

/// The applications of the ablation's first section and of the protocol
/// comparison.
const STUDY_APPS: [AppId; 3] = [AppId::Sor, AppId::Ocean, AppId::WaterNsq];

/// The ablation's first section: each application with the full system,
/// then with one mechanism switched off. Water-Nsq runs its unoptimized
/// variant: only transparently multi-threaded code has the local lock
/// contention that the release policy exists to exploit.
fn mechanism_cells(scale: Scale) -> Vec<RunSpec> {
    each(grid(scale, &STUDY_APPS, &[8], &[4]), |mut full| {
        if full.app == AppId::WaterNsq {
            full.variant = Some(Variant::WaterNsq(WaterNsqOpt::NoOpts));
        }
        let (mut no_aggregation, mut remote_first) = (full, full);
        no_aggregation.aggregate_barriers = false;
        remote_first.prefer_local_locks = false;
        [full, no_aggregation, remote_first]
    })
}

/// Ocean with and without the `r` reduction modification.
fn reduction_cells(scale: Scale) -> Vec<RunSpec> {
    let ocean = RunSpec::new(AppId::Ocean, scale, 8, 4);
    let variant = Some(Variant::OceanWithoutReduction);
    vec![ocean, RunSpec { variant, ..ocean }]
}

/// FIFO then LIFO scheduling under the memory simulator.
fn scheduler_cells(scale: Scale) -> Vec<RunSpec> {
    let apps = [AppId::Barnes, AppId::Ocean];
    each(grid(scale, &apps, &[8], &[4]), |s| {
        let fifo = RunSpec { memsim: true, ..s };
        [fifo, RunSpec { lifo: true, ..fifo }]
    })
}

fn ablation_cells(scale: Scale) -> Vec<RunSpec> {
    [mechanism_cells, reduction_cells, scheduler_cells]
        .iter()
        .flat_map(|section| section(scale))
        .collect()
}

/// Ablation study: switch off the paper's two multi-threading mechanisms
/// one at a time (P=8, T=4) and report the damage. Regenerates the design
/// rationale of §3: barrier-arrival aggregation and the local-queue lock
/// release policy.
pub fn ablation(runs: &Runs, scale: Scale) -> String {
    let mut out = String::from(
        "== Ablation: the paper's multi-threading mechanisms (P=8, T=4) ==\n\
         app        variant                 time(ms)  barrier_msgs lock_msgs total_msgs  wait_lock(ms) wait_barrier(ms)\n",
    );
    for spec in mechanism_cells(scale) {
        let name = match (spec.aggregate_barriers, spec.prefer_local_locks) {
            (false, _) => "no barrier aggregation",
            (_, false) => "no local-first release",
            _ => "full system",
        };
        let o = runs.get(spec);
        let _ = writeln!(
            out,
            "{:<10} {:<22} {:>9.1} {:>13} {:>9} {:>10} {:>14.0} {:>16.0}",
            spec.app.name(),
            name,
            o.time_ms(),
            o.msgs(MsgClass::Barrier),
            o.msgs(MsgClass::Lock),
            o.total_msgs(),
            o.delay_ms(MsgClass::Lock),
            o.delay_ms(MsgClass::Barrier),
        );
    }
    out.push_str("\n-- Ocean with/without the `r` reduction modification, P=8 T=4 --\n");
    out.push_str("variant                time(ms)  lock_msgs  bs_lock  wait_lock(ms)\n");
    for spec in reduction_cells(scale) {
        let name = match spec.variant {
            None => "local-barrier (r)",
            Some(_) => "transparent MT",
        };
        let o = runs.get(spec);
        let _ = writeln!(
            out,
            "{:<22} {:>8.1} {:>10} {:>8} {:>13.0}",
            name,
            o.time_ms(),
            o.msgs(MsgClass::Lock),
            o.report.stats.block_same_lock,
            o.delay_ms(MsgClass::Lock),
        );
    }
    out.push_str(
        "\n-- FIFO vs LIFO scheduling (the paper's missing memory-conscious policy), P=8 T=4, memsim on --\n",
    );
    out.push_str("app        policy   time(ms)  dcache_misses  dtlb_misses  itlb_misses\n");
    for spec in scheduler_cells(scale) {
        let o = runs.get(spec);
        let m = o.report.mem;
        let _ = writeln!(
            out,
            "{:<10} {:<8} {:>8.1} {:>14} {:>12} {:>12}",
            spec.app.name(),
            if spec.lifo { "LIFO" } else { "FIFO" },
            o.time_ms(),
            m.dcache,
            m.dtlb,
            m.itlb
        );
    }
    out
}

fn protocols_cells(scale: Scale) -> Vec<RunSpec> {
    each(grid(scale, &STUDY_APPS, &[8], &[2]), |s| {
        ProtocolKind::ALL.map(|protocol| RunSpec { protocol, ..s })
    })
}

/// Protocol comparison: the paper's lazy multi-writer protocol against
/// the eager-update alternative (CVM was "created specifically as a
/// platform for protocol experimentation"). Lazy invalidate trades fault
/// latency for bandwidth; eager update removes most read faults but
/// multiplies traffic with the copyset size — the classic result that
/// motivated lazy release consistency.
pub fn protocols(runs: &Runs, scale: Scale) -> String {
    let mut out = String::from("== Protocol comparison (P=8, T=2) ==\n");
    out.push_str(
        "app        protocol            time(ms) rem_faults diff_msgs  pushes  drops bw_kbytes\n",
    );
    for spec in protocols_cells(scale) {
        let o = runs.get(spec);
        let _ = writeln!(
            out,
            "{:<10} {:<18} {:>9.1} {:>10} {:>9} {:>7} {:>6} {:>9}",
            spec.app.name(),
            spec.protocol.name(),
            o.time_ms(),
            o.report.stats.remote_faults,
            o.msgs(MsgClass::Diff),
            o.report.stats.updates_pushed,
            o.report.stats.copies_dropped,
            o.bw_kb()
        );
    }
    out
}

fn latency_cells(scale: Scale) -> Vec<RunSpec> {
    grid(scale, &AppId::ALL, &[8], &[2])
}

/// Latency percentiles: p50/p99/p999/max of every latency-bearing
/// protocol histogram, one markdown table over the whole suite at
/// P=8 T=2. The log₂ histograms behind the sweep's p90 columns carry
/// the full distribution; this renders the tail the mean hides.
pub fn latency(runs: &Runs, scale: Scale) -> String {
    let mut out = String::from("== Latency percentiles (P=8, T=2) ==\n\n");
    out.push_str("| app | metric | count | p50 | p99 | p999 | max |\n");
    out.push_str("|---|---|---:|---:|---:|---:|---:|\n");
    for spec in latency_cells(scale) {
        let h = &runs.get(spec).report.hist;
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
                spec.app.name(),
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

/// The perturbation study's re-seeded, jittered copies of `spec`.
fn perturb_seeds(spec: RunSpec) -> [RunSpec; 5] {
    [0, 1, 2, 3, 4].map(|s| RunSpec {
        seed: 0x5EED_0000 + s,
        jitter_us: 50,
        ..spec
    })
}

fn perturb_cells(scale: Scale) -> Vec<RunSpec> {
    each(grid(scale, &AppId::ALL, &[8], &[4]), perturb_seeds)
}

/// Perturbation study: the paper lists "application perturbation —
/// multi-threading changes the order that events occur... a
/// non-deterministic effect on performance" among its limiting factors.
/// Our runs are deterministic per seed, so the perturbation becomes
/// measurable: run each application with seeded ±50 µs wire jitter (which
/// reorders message deliveries exactly like real-network variance) and
/// report the spread of total time and key protocol actions.
pub fn perturb(runs: &Runs, scale: Scale) -> String {
    let mut out = String::from("== Perturbation across seeds (P=8, T=4) ==\n");
    out.push_str(
        "app          seeds  time_min(ms) time_med(ms) time_max(ms) spread  faults_min faults_max\n",
    );
    for spec in grid(scale, &AppId::ALL, &[8], &[4]) {
        let seeded = perturb_seeds(spec).map(|s| runs.get(s));
        let mut times = seeded.map(RunOutcome::time_ms);
        let mut faults = seeded.map(|o| o.report.stats.remote_faults);
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        faults.sort_unstable();
        let (n, med) = (times.len(), times[times.len() / 2]);
        let spread = (times[n - 1] - times[0]) / med * 100.0;
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>13.1} {:>12.1} {:>12.1} {:>6.1}% {:>10} {:>10}",
            spec.app.name(),
            n,
            times[0],
            med,
            times[n - 1],
            spread,
            faults[0],
            faults[n - 1],
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_apps() {
        let t = table1(&Runs::default(), Scale::Small);
        for id in AppId::ALL {
            assert!(t.contains(id.name()), "missing {id}");
        }
    }

    #[test]
    fn latency_table_renders_markdown_percentiles() {
        let runs = Runs::run(latency_cells(Scale::Small), 0);
        let t = latency(&runs, Scale::Small);
        assert!(t.contains("| app | metric | count | p50 | p99 | p999 | max |"));
        assert!(t.contains("fault fetch (ns)"));
        // Every body row is a well-formed markdown table row.
        for line in t.lines().filter(|l| l.starts_with("| ")) {
            assert_eq!(line.matches('|').count(), 8, "bad row: {line}");
        }
    }

    /// Each artifact renders from exactly the cells it lists (a render
    /// that reads any other cell panics in `Runs::get`), and the same
    /// bytes at one worker and at three.
    #[test]
    fn every_table_renders_from_its_own_cells_at_any_worker_count() {
        let scale = Scale::Tiny;
        let union = cells(&TABLES, scale);
        let (serial, parallel) = (Runs::run(union.clone(), 1), Runs::run(union, 3));
        for (name, cells, render) in &TABLES {
            let listed = cells(scale);
            let own = |runs: &Runs| {
                let mine = runs.0.iter().filter(|o| listed.contains(&o.spec));
                render(&Runs(mine.cloned().collect()), scale)
            };
            assert_eq!(own(&serial), own(&parallel), "{name}");
        }
    }

    #[test]
    fn all_runs_126_distinct_cells() {
        let all = parse("all", &[]).expect("all parses").0;
        assert_eq!(distinct(cells(all, Scale::Small)).len(), 126);
    }
}
