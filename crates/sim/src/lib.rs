//! Deterministic discrete-event simulation kernel for the CVM reproduction.
//!
//! This crate provides the substrate on which the simulated cluster runs:
//!
//! * [`VirtualTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`EventQueue`] — a totally ordered (time, sequence) event heap, which
//!   makes every simulation run deterministic for a given seed.
//! * [`SimRng`] — a seeded random-number generator wrapper.
//! * [`coop`] — the cooperative ("baton") thread engine used to run
//!   application threads as real OS threads while guaranteeing that exactly
//!   one simulated thread executes at a time, preserving determinism and the
//!   non-preemptive scheduling model of the paper.
//! * [`stats`] — counters, accumulators and histograms shared by the higher
//!   layers.
//! * [`hist`] — log₂-bucketed latency/size histograms for the
//!   observability layer.
//! * [`json`] — a dependency-free, byte-stable JSON model used by report
//!   serialization and the Chrome-trace exporter.
//! * [`sync`] — thin `parking_lot`-style wrappers over [`std::sync`].
//! * [`script`] — the scheduler's pick policy (FIFO/LIFO base order
//!   plus a scripted or seeded override) and the per-step footprint
//!   records and state hashing the stateless model checker consumes.
//! * [`workq`] — deterministic fan-out of independent jobs (the sweep
//!   engine's worker pool): results keyed by item index, seeds split per
//!   item, so any worker count produces identical output.
//!
//! # Example
//!
//! ```
//! use cvm_sim::{EventQueue, SimDuration, VirtualTime};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(VirtualTime::ZERO + SimDuration::from_us(5), "later");
//! q.push(VirtualTime::ZERO, "now");
//! assert_eq!(q.pop().map(|(_, e)| e), Some("now"));
//! assert_eq!(q.pop().map(|(_, e)| e), Some("later"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod coop;
pub mod event;
pub mod hist;
pub mod json;
pub mod rng;
pub mod script;
pub mod stats;
pub mod sync;
pub mod time;
pub mod workq;

pub use coop::{Burst, CoopScheduler, CoopThreadId, Yielder};
pub use event::EventQueue;
pub use hist::Log2Hist;
pub use json::JsonValue;
pub use rng::{SimRng, Zipf};
pub use script::{
    BaseOrder, ExploreSchedule, ExploreSpec, Fnv64, PickOverride, PickPolicy, ScheduleScript,
    ScriptCursor, StepLog, StepRecord, SyncOp,
};
pub use time::{SimDuration, VirtualTime};
