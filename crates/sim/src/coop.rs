//! Cooperative ("baton") thread engine.
//!
//! The paper's CVM runs *non-preemptive, user-level* threads: at most one
//! application thread executes per node, and control changes hands only at
//! well-defined points (remote requests, misplaced replies, explicit
//! yields). We reproduce exactly that model — and keep the whole simulation
//! deterministic — by running each simulated application thread on a real OS
//! thread but passing a *baton* between the simulator and the currently
//! scheduled thread.
//!
//! A scheduled thread runs a *burst*: it executes application code until its
//! next blocking DSM call, then reports a caller-defined reason (`R`) back
//! to the driver and parks. Every hand-off is an explicit rendezvous through
//! per-thread gates.
//!
//! The driver has two ways to run a burst:
//!
//! * [`resume`](CoopScheduler::resume) — the classic baton: start the burst
//!   and wait for it, so exactly one of {driver, one thread} runs at a time.
//! * [`start`](CoopScheduler::start) + [`wait`](CoopScheduler::wait) — the
//!   split form used by the parallel event core: the driver may start
//!   several threads' bursts (on *different* nodes, per its own safety
//!   analysis) and collect each burst's outcome later. Because each thread
//!   reports into its own slot and gates, overlapping bursts never contend
//!   on engine state; determinism is then the *driver's* obligation — it
//!   must only overlap bursts whose effects are disjoint.
//!
//! # Example
//!
//! ```
//! use cvm_sim::coop::{Burst, CoopScheduler};
//!
//! let mut sched: CoopScheduler<&'static str> = CoopScheduler::new();
//! let tid = sched.spawn(|y| {
//!     y.block("first stop");
//!     y.block("second stop");
//! });
//! assert_eq!(sched.resume(tid), Burst::Blocked("first stop"));
//! // The split form: start the burst, do other work, then collect it.
//! sched.start(tid);
//! assert_eq!(sched.wait(tid), Burst::Blocked("second stop"));
//! assert_eq!(sched.resume(tid), Burst::Finished);
//! ```

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::sync::{Condvar, Mutex};

/// Identifier of a cooperative thread within one [`CoopScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoopThreadId(pub usize);

impl fmt::Display for CoopThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "coop#{}", self.0)
    }
}

/// Outcome of one execution burst of a cooperative thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Burst<R> {
    /// The thread called [`Yielder::block`] with the given reason.
    Blocked(R),
    /// The thread's entry function returned.
    Finished,
}

/// A binary rendezvous gate: one side waits, the other opens.
#[derive(Debug, Default)]
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn open(&self) {
        let mut g = self.open.lock();
        *g = true;
        self.cv.notify_one();
    }

    fn wait(&self) {
        let mut g = self.open.lock();
        while !*g {
            self.cv.wait(&mut g);
        }
        *g = false;
    }
}

struct Report<R> {
    burst: Burst<R>,
}

/// Handle given to a cooperative thread's body for yielding back to the
/// simulation driver.
pub struct Yielder<R> {
    my_gate: Arc<Gate>,
    done_gate: Arc<Gate>,
    report: Arc<Mutex<Option<Report<R>>>>,
    shutdown: Arc<AtomicBool>,
}

impl<R> fmt::Debug for Yielder<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Yielder").finish_non_exhaustive()
    }
}

/// Zero-sized panic payload used to unwind application threads when the
/// scheduler is dropped mid-run.
struct ShutdownSignal;

impl<R: Send + 'static> Yielder<R> {
    /// Suspends the calling thread, reporting `reason` to the driver.
    /// Returns when the driver next resumes this thread.
    ///
    /// # Panics
    ///
    /// Unwinds (with an internal payload caught by the engine) if the
    /// scheduler is shut down while this thread is suspended.
    pub fn block(&self, reason: R) {
        {
            let mut slot = self.report.lock();
            debug_assert!(slot.is_none(), "report slot should be drained");
            *slot = Some(Report {
                burst: Burst::Blocked(reason),
            });
        }
        self.done_gate.open();
        self.my_gate.wait();
        if self.shutdown.load(Ordering::SeqCst) {
            std::panic::panic_any(ShutdownSignal);
        }
    }
}

struct ThreadSlot<R> {
    gate: Arc<Gate>,
    done_gate: Arc<Gate>,
    report: Arc<Mutex<Option<Report<R>>>>,
    join: Option<JoinHandle<()>>,
    finished: bool,
    running: bool,
}

/// Owner and driver of a set of cooperative threads.
///
/// In baton mode ([`resume`](Self::resume)) exactly one of {driver, some
/// thread} runs at a time; the split [`start`](Self::start)/[`wait`](Self::wait)
/// form lets the driver overlap bursts it knows to be independent. Dropping
/// the scheduler cleanly unwinds any still-suspended threads.
pub struct CoopScheduler<R> {
    threads: Vec<ThreadSlot<R>>,
    shutdown: Arc<AtomicBool>,
    panic_slot: Arc<Mutex<Option<String>>>,
}

impl<R> fmt::Debug for CoopScheduler<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoopScheduler")
            .field("threads", &self.threads.len())
            .finish_non_exhaustive()
    }
}

impl<R: Send + 'static> CoopScheduler<R> {
    /// Creates a scheduler with no threads.
    pub fn new() -> Self {
        CoopScheduler {
            threads: Vec::new(),
            shutdown: Arc::new(AtomicBool::new(false)),
            panic_slot: Arc::new(Mutex::new(None)),
        }
    }

    /// Spawns a new cooperative thread running `f`. The thread does not
    /// execute until its first [`resume`](Self::resume) / [`start`](Self::start).
    pub fn spawn<F>(&mut self, f: F) -> CoopThreadId
    where
        F: FnOnce(&Yielder<R>) + Send + 'static,
    {
        let gate = Arc::new(Gate::default());
        let done_gate = Arc::new(Gate::default());
        let report: Arc<Mutex<Option<Report<R>>>> = Arc::new(Mutex::new(None));
        let yielder = Yielder {
            my_gate: Arc::clone(&gate),
            done_gate: Arc::clone(&done_gate),
            report: Arc::clone(&report),
            shutdown: Arc::clone(&self.shutdown),
        };
        let shutdown = Arc::clone(&self.shutdown);
        let thread_report = Arc::clone(&report);
        let thread_done = Arc::clone(&done_gate);
        let my_gate = Arc::clone(&gate);
        let panic_slot = Arc::clone(&self.panic_slot);
        let join = std::thread::Builder::new()
            .name(format!("coop-{}", self.threads.len()))
            .spawn(move || {
                my_gate.wait();
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let result = catch_unwind(AssertUnwindSafe(|| f(&yielder)));
                match result {
                    Ok(()) => {
                        *thread_report.lock() = Some(Report {
                            burst: Burst::Finished,
                        });
                        thread_done.open();
                    }
                    Err(payload) => {
                        if payload.downcast_ref::<ShutdownSignal>().is_some() {
                            // Clean shutdown: exit silently; the driver is
                            // not waiting on us.
                        } else {
                            // Re-raise on the driver side: leave the report
                            // empty, stash the message, and wake the driver;
                            // wait() will panic with it.
                            let msg = panic_message(payload.as_ref());
                            *thread_report.lock() = None;
                            *panic_slot.lock() = Some(msg);
                            thread_done.open();
                        }
                    }
                }
            })
            .expect("spawn coop thread");
        let id = CoopThreadId(self.threads.len());
        self.threads.push(ThreadSlot {
            gate,
            done_gate,
            report,
            join: Some(join),
            finished: false,
            running: false,
        });
        id
    }

    /// Number of threads ever spawned.
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// True if no threads have been spawned.
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// True if the thread's entry function has returned.
    ///
    /// # Panics
    ///
    /// Panics if `tid` was not produced by this scheduler.
    pub fn is_finished(&self, tid: CoopThreadId) -> bool {
        self.threads[tid.0].finished
    }

    /// True if a burst of this thread has been started but not yet
    /// collected with [`wait`](Self::wait).
    ///
    /// # Panics
    ///
    /// Panics if `tid` was not produced by this scheduler.
    pub fn is_running(&self, tid: CoopThreadId) -> bool {
        self.threads[tid.0].running
    }

    /// Starts a burst of thread `tid` without waiting for it. The burst
    /// runs concurrently with the caller until collected by
    /// [`wait`](Self::wait).
    ///
    /// # Panics
    ///
    /// Panics if the thread already finished or already has a burst in
    /// flight.
    pub fn start(&mut self, tid: CoopThreadId) {
        let slot = &mut self.threads[tid.0];
        assert!(!slot.finished, "start of finished thread {tid}");
        assert!(!slot.running, "burst of {tid} already in flight");
        slot.running = true;
        slot.gate.open();
    }

    /// Waits for the in-flight burst of thread `tid` and returns its
    /// outcome.
    ///
    /// # Panics
    ///
    /// Panics if no burst is in flight for `tid`, or propagates the panic
    /// if the application thread panicked during the burst.
    pub fn wait(&mut self, tid: CoopThreadId) -> Burst<R> {
        let slot = &mut self.threads[tid.0];
        assert!(slot.running, "wait without a started burst on {tid}");
        slot.running = false;
        slot.done_gate.wait();
        let rep = slot.report.lock().take();
        match rep {
            Some(Report { burst }) => {
                if matches!(burst, Burst::Finished) {
                    slot.finished = true;
                    if let Some(j) = slot.join.take() {
                        let _ = j.join();
                    }
                }
                burst
            }
            None => {
                let msg = self
                    .panic_slot
                    .lock()
                    .take()
                    .unwrap_or_else(|| "coop thread panicked".to_owned());
                slot.finished = true;
                if let Some(j) = slot.join.take() {
                    let _ = j.join();
                }
                panic!("application thread {tid} panicked: {msg}");
            }
        }
    }

    /// Runs thread `tid` until its next block point and returns the burst
    /// outcome (the baton form: [`start`](Self::start) then immediately
    /// [`wait`](Self::wait)).
    ///
    /// # Panics
    ///
    /// Panics if the thread already finished, or propagates the panic if the
    /// application thread panicked during the burst.
    pub fn resume(&mut self, tid: CoopThreadId) -> Burst<R> {
        self.start(tid);
        self.wait(tid)
    }
}

impl<R: Send + 'static> Default for CoopScheduler<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R> Drop for CoopScheduler<R> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for slot in &mut self.threads {
            if let Some(join) = slot.join.take() {
                slot.gate.open();
                let _ = join.join();
            }
        }
    }
}

/// The message of a caught panic (`&str` and `String` payloads; anything
/// else gets a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_burst_sequence() {
        let mut s: CoopScheduler<u32> = CoopScheduler::new();
        let t = s.spawn(|y| {
            for i in 0..5 {
                y.block(i);
            }
        });
        for i in 0..5 {
            assert_eq!(s.resume(t), Burst::Blocked(i));
        }
        assert_eq!(s.resume(t), Burst::Finished);
        assert!(s.is_finished(t));
    }

    #[test]
    fn interleaving_is_driver_controlled() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut s: CoopScheduler<()> = CoopScheduler::new();
        let mk = |tag: char, log: Arc<Mutex<Vec<char>>>| {
            move |y: &Yielder<()>| {
                for _ in 0..3 {
                    log.lock().push(tag);
                    y.block(());
                }
            }
        };
        let a = s.spawn(mk('a', Arc::clone(&log)));
        let b = s.spawn(mk('b', Arc::clone(&log)));
        // Drive: a, a, b, a, b, b
        s.resume(a);
        s.resume(a);
        s.resume(b);
        s.resume(a);
        s.resume(b);
        s.resume(b);
        assert_eq!(*log.lock(), vec!['a', 'a', 'b', 'a', 'b', 'b']);
    }

    #[test]
    fn split_start_wait_matches_resume() {
        let mut s: CoopScheduler<u32> = CoopScheduler::new();
        let t = s.spawn(|y| {
            y.block(1);
            y.block(2);
        });
        s.start(t);
        assert!(s.is_running(t));
        assert_eq!(s.wait(t), Burst::Blocked(1));
        assert!(!s.is_running(t));
        assert_eq!(s.resume(t), Burst::Blocked(2));
        assert_eq!(s.resume(t), Burst::Finished);
    }

    #[test]
    fn overlapped_bursts_report_into_their_own_slots() {
        let mut s: CoopScheduler<usize> = CoopScheduler::new();
        let tids: Vec<_> = (0..8).map(|i| s.spawn(move |y| y.block(i))).collect();
        // Start all eight bursts before collecting any: each thread's
        // report lands in its own slot, so collection order is free.
        for &t in &tids {
            s.start(t);
        }
        for (i, &t) in tids.iter().enumerate().rev() {
            assert_eq!(s.wait(t), Burst::Blocked(i));
        }
        for &t in &tids {
            assert_eq!(s.resume(t), Burst::Finished);
        }
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn double_start_panics() {
        let mut s: CoopScheduler<()> = CoopScheduler::new();
        let t = s.spawn(|y| y.block(()));
        s.start(t);
        s.start(t);
    }

    #[test]
    fn drop_mid_run_unwinds_cleanly() {
        let mut s: CoopScheduler<()> = CoopScheduler::new();
        let t = s.spawn(|y| loop {
            y.block(());
        });
        s.resume(t);
        drop(s); // must not hang or leak the OS thread
    }

    #[test]
    fn unstarted_threads_shut_down() {
        let mut s: CoopScheduler<()> = CoopScheduler::new();
        let _t = s.spawn(|y| y.block(()));
        drop(s);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn app_panic_propagates_to_driver() {
        let mut s: CoopScheduler<()> = CoopScheduler::new();
        let t = s.spawn(|_| panic!("boom"));
        s.resume(t);
    }

    #[test]
    fn many_threads_round_robin() {
        let mut s: CoopScheduler<usize> = CoopScheduler::new();
        let n = 16;
        let tids: Vec<_> = (0..n).map(|i| s.spawn(move |y| y.block(i))).collect();
        for (i, &t) in tids.iter().enumerate() {
            assert_eq!(s.resume(t), Burst::Blocked(i));
        }
        for &t in &tids {
            assert_eq!(s.resume(t), Burst::Finished);
        }
    }
}
