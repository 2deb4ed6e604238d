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
//! the thread's own shared state: a `go` word the driver stores and the
//! thread consumes, and a `done` mailbox the thread fills and the driver
//! empties, each side sleeping in `thread::park` until its half is set.
//!
//! **Nothing is held across a wake.** A hand-off is a store followed by one
//! `unpark`, issued after every guard is dropped. Waking a sleeper while
//! holding a lock it needs next costs two extra context switches per
//! hand-off whenever the kernel runs the woken thread at once (one CPU, or
//! a pinned pair): it preempts the waker, blocks on the lock, and has to be
//! switched out and woken a second time. With the wake last, the woken side
//! finds everything it needs already released, and a burst that ends before
//! the driver reaches [`wait`](CoopScheduler::wait) costs no wake at all.
//!
//! The driver has two ways to run a burst:
//!
//! * [`resume`](CoopScheduler::resume) — the classic baton: start the burst
//!   and wait for it, so exactly one of {driver, one thread} runs at a time.
//! * [`start`](CoopScheduler::start) + [`wait`](CoopScheduler::wait) — the
//!   split form `resume` is built from: a driver may start
//!   several threads' bursts (on *different* nodes, per its own safety
//!   analysis) and collect each burst's outcome later. Because each thread
//!   reports into its own mailbox, overlapping bursts never contend
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
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Thread};

use crate::sync::Mutex;

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

/// `Shared::go`: no order pending; the thread parks.
const IDLE: u8 = 0;
/// `Shared::go`: run the next burst.
const RUN: u8 = 1;
/// `Shared::go`: the scheduler is being dropped; unwind and exit.
const QUIT: u8 = 2;

/// What a burst left for the driver: its outcome (`Err` carries the
/// message of a panic in the thread's body) and, if the driver got to
/// [`Shared::collect`] first, the OS thread parked there.
struct Done<R> {
    outcome: Option<Result<Burst<R>, String>>,
    waiter: Option<Thread>,
}

/// The state one cooperative thread shares with its driver.
struct Shared<R> {
    /// Driver → thread. Stored by `start` / `drop`, consumed by the thread.
    go: AtomicU8,
    /// Thread → driver. Locked only to move a value in or out: neither
    /// side parks or wakes anybody while holding it.
    done: Mutex<Done<R>>,
}

impl<R> Shared<R> {
    /// Thread side: sleeps until the driver's next order. A stale `unpark`
    /// token only costs one more trip round the loop. Returns `false` when
    /// the order is to quit.
    fn await_go(&self) -> bool {
        loop {
            match self.go.swap(IDLE, Ordering::SeqCst) {
                IDLE => thread::park(),
                order => return order == RUN,
            }
        }
    }

    /// Thread side: publishes the burst's outcome and wakes the driver if
    /// it is already parked for it.
    fn post(&self, outcome: Result<Burst<R>, String>) {
        let waiter = {
            let mut done = self.done.lock();
            debug_assert!(done.outcome.is_none(), "outcome should be collected");
            done.outcome = Some(outcome);
            done.waiter.take()
        };
        if let Some(waiter) = waiter {
            waiter.unpark();
        }
    }

    /// Driver side: takes the burst's outcome, parking until it is posted.
    /// The waiter is whichever OS thread calls this, registered afresh each
    /// time it has to sleep.
    fn collect(&self) -> Result<Burst<R>, String> {
        loop {
            {
                let mut done = self.done.lock();
                // `post` took the waiter when it left the outcome.
                if let Some(outcome) = done.outcome.take() {
                    return outcome;
                }
                done.waiter = Some(thread::current());
            }
            thread::park();
        }
    }
}

/// Handle given to a cooperative thread's body for yielding back to the
/// simulation driver.
pub struct Yielder<R> {
    shared: Arc<Shared<R>>,
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
        self.shared.post(Ok(Burst::Blocked(reason)));
        if !self.shared.await_go() {
            std::panic::panic_any(ShutdownSignal);
        }
    }
}

struct ThreadSlot<R> {
    shared: Arc<Shared<R>>,
    /// `Some` until the thread is joined; also the handle `start` and
    /// `drop` wake it through.
    join: Option<JoinHandle<()>>,
    finished: bool,
    running: bool,
}

impl<R> ThreadSlot<R> {
    /// Gives the thread an order and wakes it; a no-op once it is joined.
    fn order(&self, order: u8) {
        if let Some(join) = &self.join {
            self.shared.go.store(order, Ordering::SeqCst);
            join.thread().unpark();
        }
    }

    /// Joins the OS thread, which must be on its way out.
    fn join(&mut self) {
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Owner and driver of a set of cooperative threads.
///
/// In baton mode ([`resume`](Self::resume)) exactly one of {driver, some
/// thread} runs at a time; the split [`start`](Self::start)/[`wait`](Self::wait)
/// form lets the driver overlap bursts it knows to be independent. Dropping
/// the scheduler cleanly unwinds any still-suspended threads.
pub struct CoopScheduler<R> {
    threads: Vec<ThreadSlot<R>>,
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
        }
    }

    /// Spawns a new cooperative thread running `f`. The thread does not
    /// execute until its first [`resume`](Self::resume) / [`start`](Self::start).
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses the thread; [`try_spawn`](Self::try_spawn)
    /// returns that as an error.
    pub fn spawn<F>(&mut self, f: F) -> CoopThreadId
    where
        F: FnOnce(&Yielder<R>) + Send + 'static,
    {
        self.try_spawn(f).expect("spawn coop thread")
    }

    /// [`spawn`](Self::spawn), but an OS thread that cannot be had (thread
    /// or mapping limit, no memory for the stack) is an error and not a
    /// panic. `f` is dropped, and the scheduler is as it was: the threads
    /// spawned before can run on, or be shut down by dropping it.
    ///
    /// # Errors
    ///
    /// Returns the error of `std::thread::Builder::spawn`.
    pub fn try_spawn<F>(&mut self, f: F) -> io::Result<CoopThreadId>
    where
        F: FnOnce(&Yielder<R>) + Send + 'static,
    {
        self.spawn_on(thread::Builder::new(), f)
    }

    fn spawn_on<F>(&mut self, builder: thread::Builder, f: F) -> io::Result<CoopThreadId>
    where
        F: FnOnce(&Yielder<R>) + Send + 'static,
    {
        let shared = Arc::new(Shared {
            go: AtomicU8::new(IDLE),
            done: Mutex::new(Done {
                outcome: None,
                waiter: None,
            }),
        });
        let yielder = Yielder {
            shared: Arc::clone(&shared),
        };
        let join = builder
            .name(format!("coop-{}", self.threads.len()))
            .spawn(move || {
                if !yielder.shared.await_go() {
                    return;
                }
                match catch_unwind(AssertUnwindSafe(|| f(&yielder))) {
                    Ok(()) => yielder.shared.post(Ok(Burst::Finished)),
                    // Clean shutdown: exit silently; the driver is not
                    // waiting on us.
                    Err(payload) if payload.is::<ShutdownSignal>() => {}
                    // Re-raised on the driver side by `wait`.
                    Err(payload) => yielder.shared.post(Err(panic_message(payload.as_ref()))),
                }
            })?;
        let id = CoopThreadId(self.threads.len());
        self.threads.push(ThreadSlot {
            shared,
            join: Some(join),
            finished: false,
            running: false,
        });
        Ok(id)
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
        slot.order(RUN);
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
        let outcome = slot.shared.collect();
        if !matches!(outcome, Ok(Burst::Blocked(_))) {
            slot.finished = true;
            slot.join();
        }
        match outcome {
            Ok(burst) => burst,
            Err(msg) => panic!("application thread {tid} panicked: {msg}"),
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
        // One at a time, so no two threads' unwinding ever overlaps.
        for slot in &mut self.threads {
            slot.order(QUIT);
            slot.join();
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
    use std::panic::resume_unwind;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

    /// Runs `body` on its own OS thread and fails, instead of hanging the
    /// suite, if it has not returned within two minutes: a lost wake-up
    /// shows up as this panic.
    fn watchdog<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let runner = thread::spawn(move || {
            let _ = tx.send(body());
        });
        match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(v) => {
                runner.join().expect("body already returned");
                v
            }
            Err(RecvTimeoutError::Timeout) => panic!("hand-off hung: lost wake-up"),
            Err(RecvTimeoutError::Disconnected) => {
                resume_unwind(runner.join().expect_err("body dropped the sender"))
            }
        }
    }

    /// Spins until `tid`'s burst has posted its outcome, so that the next
    /// `wait` is known to find it there.
    fn until_posted<R>(s: &CoopScheduler<R>, tid: CoopThreadId) {
        while s.threads[tid.0].shared.done.lock().outcome.is_none() {
            thread::yield_now();
        }
    }

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
    fn refused_thread_is_an_error_and_the_earlier_ones_are_joined() {
        // Each body holds a clone of the token for as long as its OS
        // thread (or its never-run closure) is alive.
        let token = Arc::new(());
        let body = |token: &Arc<()>| {
            let held = Arc::clone(token);
            move |y: &Yielder<u8>| {
                let _held = held;
                y.block(1);
            }
        };
        let mut s: CoopScheduler<u8> = CoopScheduler::new();
        let tids: Vec<_> = (0..3).map(|_| s.spawn(body(&token))).collect();
        assert_eq!(s.resume(tids[1]), Burst::Blocked(1));
        // No address space has room for this stack.
        let no_stack = thread::Builder::new().stack_size(isize::MAX as usize);
        let refused = s.spawn_on(no_stack, body(&token));
        assert!(refused.is_err(), "got {refused:?}");
        assert_eq!(s.len(), 3, "the refused thread left no slot");
        assert_eq!(Arc::strong_count(&token), 4, "its body was dropped");
        // The scheduler is as it was: parked, started and new threads run.
        assert_eq!(s.resume(tids[0]), Burst::Blocked(1));
        assert_eq!(s.resume(tids[1]), Burst::Finished);
        let late = s.try_spawn(body(&token)).expect("an ordinary thread");
        assert_eq!(s.resume(late), Burst::Blocked(1));
        drop(s);
        assert_eq!(Arc::strong_count(&token), 1, "every thread was joined");
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

    #[test]
    fn overlapped_panics_name_their_own_thread() {
        let mut s: CoopScheduler<()> = CoopScheduler::new();
        let a = s.spawn(|_| panic!("alpha gives up"));
        let b = s.spawn(|_| panic!("beta gives up"));
        s.start(a);
        s.start(b);
        // Both messages are written before either is read.
        until_posted(&s, a);
        until_posted(&s, b);
        for (tid, want) in [
            (a, "application thread coop#0 panicked: alpha gives up"),
            (b, "application thread coop#1 panicked: beta gives up"),
        ] {
            let payload = catch_unwind(AssertUnwindSafe(|| s.wait(tid))).expect_err("panics");
            assert_eq!(panic_message(payload.as_ref()), want);
            assert!(s.is_finished(tid));
        }
    }

    #[test]
    fn hundred_thousand_overlapped_round_trips() {
        watchdog(|| {
            let mut s: CoopScheduler<(usize, u32)> = CoopScheduler::new();
            let tids: Vec<_> = (0..8)
                .map(|i| {
                    s.spawn(move |y| {
                        for round in 0.. {
                            y.block((i, round));
                        }
                    })
                })
                .collect();
            for round in 0..12_500 {
                for &t in &tids {
                    s.start(t);
                }
                for (i, &t) in tids.iter().enumerate().rev() {
                    assert_eq!(s.wait(t), Burst::Blocked((i, round)));
                }
            }
        });
    }

    #[test]
    fn burst_that_ends_before_wait_is_collected_without_parking() {
        watchdog(|| {
            let mut s: CoopScheduler<u32> = CoopScheduler::new();
            let t = s.spawn(|y| y.block(7));
            for want in [Burst::Blocked(7), Burst::Finished] {
                s.start(t);
                until_posted(&s, t);
                assert_eq!(s.wait(t), want);
                let done = s.threads[t.0].shared.done.lock();
                assert!(done.outcome.is_none() && done.waiter.is_none());
            }
        });
    }

    #[test]
    fn stale_unpark_token_does_not_resume_early() {
        watchdog(|| {
            let allowed = Arc::new(AtomicBool::new(false));
            let early = Arc::new(AtomicBool::new(false));
            let (allowed2, early2) = (Arc::clone(&allowed), Arc::clone(&early));
            let mut s: CoopScheduler<u32> = CoopScheduler::new();
            let t = s.spawn(move |y| {
                thread::current().unpark();
                y.block(1);
                early2.store(!allowed2.load(Ordering::SeqCst), Ordering::SeqCst);
                y.block(2);
            });
            assert_eq!(s.resume(t), Burst::Blocked(1));
            // Time for the token to do its damage if `block` trusted it.
            thread::sleep(Duration::from_millis(50));
            allowed.store(true, Ordering::SeqCst);
            assert_eq!(s.resume(t), Burst::Blocked(2));
            assert!(!early.load(Ordering::SeqCst), "ran before it was resumed");
            assert_eq!(s.resume(t), Burst::Finished);
        });
    }

    #[test]
    fn built_driven_and_dropped_on_three_os_threads() {
        watchdog(|| {
            let body = |y: &Yielder<u32>| {
                for i in 0.. {
                    y.block(i);
                }
            };
            // Built on one thread, which also does the first `wait` …
            let (mut s, a, b) = thread::spawn(move || {
                let mut s: CoopScheduler<u32> = CoopScheduler::new();
                let (a, b) = (s.spawn(body), s.spawn(body));
                assert_eq!(s.resume(a), Burst::Blocked(0));
                (s, a, b)
            })
            .join()
            .expect("builder");
            // … driven from a second, after the first has exited …
            let s = thread::spawn(move || {
                for i in 1..1000 {
                    assert_eq!(s.resume(a), Burst::Blocked(i));
                }
                s.start(b);
                s
            })
            .join()
            .expect("driver");
            // … and dropped from a third with `b`'s burst never collected.
            thread::spawn(move || drop(s)).join().expect("dropper");
        });
    }
}
