//! Host-time ledger of the driver's dispatch seams (`cvm … --host-time`):
//! how many *host* milliseconds a run spent building the driver, polling
//! the network, in each kind of message handler, inside application
//! bursts, in each kind of block handler, assembling the report and
//! tearing down — the per-operation cost table of a user-level DSM, taken
//! of the simulator itself.
//!
//! Host time is a property of the process, not of the simulated system,
//! so the switch and the totals are process-wide and nothing here touches
//! [`CvmConfig`](crate::CvmConfig), [`RunReport`](crate::RunReport) or any
//! artifact. Off (the default) a seam costs one branch on the driver's own
//! `Option` and no clock read. On, every driver keeps a private ledger and
//! adds it to the process total when its run ends, so campaigns that run
//! cells on several workers need no plumbing.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cvm_net::MsgKind;
use cvm_sim::sync::Mutex;

use crate::ctx::BlockReason;

static ENABLED: AtomicBool = AtomicBool::new(false);
static TOTAL: Mutex<Ledger> = Mutex::new(Ledger::ZERO);

/// Block-handler rows, in [`Seam::reason`] order.
const REASONS: [&str; 11] = [
    "Fault",
    "Acquire",
    "Release",
    "Barrier",
    "LocalBarrier",
    "GlobalReduce",
    "Startup",
    "EndMeasure",
    "Yield",
    "Now",
    "SleepUntil",
];

const PAYLOAD0: usize = 2;
const RESUME: usize = PAYLOAD0 + MsgKind::ALL.len();
const REASON0: usize = RESUME + 1;
const BUILD_REPORT: usize = REASON0 + REASONS.len();
const DROP: usize = BUILD_REPORT + 1;
const ROWS: usize = DROP + 1;

/// One timed stretch of the driver.
#[derive(Debug, Clone, Copy)]
pub(super) enum Seam {
    /// `Driver::new`: cells, threads, network.
    DriverNew,
    /// `net.poll`, whether or not it delivered.
    NetPoll,
    /// A delivered message's handler (self-sends nest inside the seam
    /// that sent them).
    Payload(MsgKind),
    /// `coop.resume`/`wait`: the application burst plus the baton.
    Resume,
    /// A block handler, by index into `REASONS` ([`Seam::reason`]).
    Reason(usize),
    /// The final `build_report`.
    BuildReport,
    /// Dropping the driver: joins every thread, frees every cell.
    Drop,
}

impl Seam {
    /// The seam of `reason`'s handler.
    pub(super) fn reason(reason: &BlockReason) -> Seam {
        Seam::Reason(match reason {
            BlockReason::Fault { .. } => 0,
            BlockReason::Acquire { .. } => 1,
            BlockReason::Release { .. } => 2,
            BlockReason::Barrier => 3,
            BlockReason::LocalBarrier { .. } => 4,
            BlockReason::GlobalReduce { .. } => 5,
            BlockReason::Startup => 6,
            BlockReason::EndMeasure => 7,
            BlockReason::Yield => 8,
            BlockReason::Now => 9,
            BlockReason::SleepUntil { .. } => 10,
        })
    }

    fn row(self) -> usize {
        match self {
            Seam::DriverNew => 0,
            Seam::NetPoll => 1,
            Seam::Payload(kind) => PAYLOAD0 + kind as usize,
            Seam::Resume => RESUME,
            Seam::Reason(kind) => REASON0 + kind,
            Seam::BuildReport => BUILD_REPORT,
            Seam::Drop => DROP,
        }
    }
}

fn row_name(row: usize) -> String {
    match row {
        0 => "Driver::new".to_owned(),
        1 => "net.poll".to_owned(),
        RESUME => "coop.resume".to_owned(),
        BUILD_REPORT => "build_report".to_owned(),
        DROP => "drop".to_owned(),
        r if r < RESUME => format!("handle_payload {}", MsgKind::ALL[r - PAYLOAD0]),
        r => format!("handle_reason {}", REASONS[r - REASON0]),
    }
}

/// Host nanoseconds and entry counts per seam, over some number of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ledger {
    ns: [u64; ROWS],
    count: [u64; ROWS],
    /// Runs merged in, and their summed wall time from just before
    /// `Driver::new` to just after the drop.
    runs: u64,
    wall_ns: u64,
}

impl Ledger {
    const ZERO: Ledger = Ledger {
        ns: [0; ROWS],
        count: [0; ROWS],
        runs: 0,
        wall_ns: 0,
    };

    fn add(&mut self, seam: Seam, spent: Duration) {
        let row = seam.row();
        self.ns[row] += spent.as_nanos() as u64;
        self.count[row] += 1;
    }

    fn merge(&mut self, other: &Ledger) {
        for row in 0..ROWS {
            self.ns[row] += other.ns[row];
            self.count[row] += other.count[row];
        }
        self.runs += other.runs;
        self.wall_ns += other.wall_ns;
    }

    /// The table `--host-time` prints: the five fixed seams always, a
    /// per-kind row only if that kind occurred, then what no seam covers
    /// (the loop itself, the event queue, `run_node`'s bookkeeping).
    fn render(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let share = |ns: u64| 100.0 * ns as f64 / self.wall_ns.max(1) as f64;
        let mut out = format!(
            "host time by dispatch seam: {} run(s), dispatch wall {:.1} ms\n{:<28}{:>11}{:>11}{:>8}\n",
            self.runs,
            ms(self.wall_ns),
            "seam",
            "ms",
            "count",
            "share"
        );
        for row in 0..ROWS {
            let fixed = matches!(row, 0 | 1 | RESUME | BUILD_REPORT | DROP);
            if fixed || self.count[row] > 0 {
                let _ = writeln!(
                    out,
                    "{:<28}{:>11.1}{:>11}{:>7.1}%",
                    row_name(row),
                    ms(self.ns[row]),
                    self.count[row],
                    share(self.ns[row])
                );
            }
        }
        let rest = self.wall_ns.saturating_sub(self.ns.iter().sum());
        let _ = writeln!(
            out,
            "{:<28}{:>11.1}{:>11}{:>7.1}%",
            "unattributed",
            ms(rest),
            "-",
            share(rest)
        );
        out
    }
}

/// One driver's ledger; empty when host timing is off.
#[derive(Debug, Default)]
pub(super) struct HostTime(Option<Box<(Ledger, Instant)>>);

impl HostTime {
    /// Starts a run's wall clock if host timing is on.
    pub(super) fn begin() -> HostTime {
        HostTime(
            ENABLED
                .load(Ordering::Relaxed)
                .then(|| Box::new((Ledger::ZERO, Instant::now()))),
        )
    }

    /// Opens a seam: the clock is read only when host timing is on.
    #[inline]
    pub(super) fn start(&self) -> Option<Instant> {
        self.0.as_ref().map(|_| Instant::now())
    }

    /// Closes the seam [`start`](Self::start) opened.
    #[inline]
    pub(super) fn stop(&mut self, seam: Seam, started: Option<Instant>) {
        if let (Some(run), Some(t0)) = (&mut self.0, started) {
            run.0.add(seam, t0.elapsed());
        }
    }

    /// Ends the run's wall clock and adds the run to the process total.
    pub(super) fn publish(self) {
        if let Some(run) = self.0 {
            let (mut ledger, born) = *run;
            ledger.runs = 1;
            ledger.wall_ns = born.elapsed().as_nanos() as u64;
            TOTAL.lock().merge(&ledger);
        }
    }
}

/// Turns host timing on for every driver built from now on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// The table of every run finished since [`enable`]; `None` if host
/// timing is off or no run has finished.
pub fn table() -> Option<String> {
    let total = TOTAL.lock();
    (total.runs > 0).then(|| total.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_distinct_and_named() {
        let mut seams = vec![
            Seam::DriverNew,
            Seam::NetPoll,
            Seam::Resume,
            Seam::BuildReport,
            Seam::Drop,
        ];
        seams.extend(MsgKind::ALL.map(Seam::Payload));
        seams.extend((0..REASONS.len()).map(Seam::Reason));
        let mut rows: Vec<usize> = seams.iter().map(|s| s.row()).collect();
        rows.sort_unstable();
        assert_eq!(rows, (0..ROWS).collect::<Vec<_>>());
        assert_eq!(
            row_name(Seam::Payload(MsgKind::UpdatePush).row()),
            "handle_payload UpdatePush"
        );
    }

    #[test]
    fn every_block_reason_has_the_row_that_carries_its_name() {
        use crate::barrier::ReduceOp;
        let reasons = [
            BlockReason::Fault {
                page: crate::PageId(0),
                write: false,
            },
            BlockReason::Acquire { lock: 0 },
            BlockReason::Release { lock: 0 },
            BlockReason::Barrier,
            BlockReason::LocalBarrier { reduce: None },
            BlockReason::GlobalReduce {
                reduce: (ReduceOp::Sum, 0.0),
            },
            BlockReason::Startup,
            BlockReason::EndMeasure,
            BlockReason::Yield,
            BlockReason::Now,
            BlockReason::SleepUntil { ns: 0 },
        ];
        assert_eq!(reasons.len(), REASONS.len());
        for (i, reason) in reasons.iter().enumerate() {
            let name = REASONS[i];
            assert!(
                format!("{reason:?}").starts_with(name),
                "{reason:?} is not {name}"
            );
            assert_eq!(
                row_name(Seam::reason(reason).row()),
                format!("handle_reason {name}")
            );
        }
    }

    #[test]
    fn off_reads_no_clock_and_records_nothing() {
        let mut host = HostTime::default();
        let t0 = host.start();
        assert!(t0.is_none());
        host.stop(Seam::Resume, t0);
        assert!(host.0.is_none());
    }

    #[test]
    fn render_lists_fixed_seams_and_only_the_kinds_that_occurred() {
        let mut a = Ledger::ZERO;
        a.add(Seam::Resume, Duration::from_millis(6));
        a.add(Seam::Payload(MsgKind::DiffReply), Duration::from_millis(1));
        let mut b = Ledger::ZERO;
        b.add(Seam::Resume, Duration::from_millis(2));
        b.add(Seam::Reason(3), Duration::from_millis(1));
        (a.runs, a.wall_ns, b.runs, b.wall_ns) = (1, 8_000_000, 1, 4_000_000);
        a.merge(&b);
        let text = a.render();
        assert!(text.starts_with("host time by dispatch seam: 2 run(s), dispatch wall 12.0 ms\n"));
        for seam in ["Driver::new", "net.poll", "build_report", "drop"] {
            assert!(text.contains(&format!("\n{seam} ")), "{seam} in\n{text}");
        }
        assert!(
            text.contains("coop.resume                         8.0          2   66.7%"),
            "{text}"
        );
        assert!(text.contains("handle_payload DiffReply"));
        assert!(text.contains("handle_reason Barrier"));
        assert!(!text.contains("UpdatePush") && !text.contains("handle_reason Fault"));
        assert!(
            text.ends_with("unattributed                        2.0          -   16.7%\n"),
            "{text}"
        );
    }
}
