//! `cvm-verify` — offline checking for the CVM reproduction.
//!
//! Three coupled analyses, all built on artifacts the runtime already
//! produces (the protocol [`Trace`](cvm_dsm::Trace) and the online
//! [`Oracle`](cvm_dsm::Oracle) findings):
//!
//! * [`race`] — a vector-clock happens-before replay of the trace that
//!   flags *lost updates*: a node whose clock advanced past a remote write
//!   to a page it still holds valid, without ever learning the write
//!   notice or applying the diff. Benign multiple-writer concurrency
//!   (clocks incomparable) is deliberately not flagged — that is the
//!   protocol working as designed.
//! * [`explore`] — the one checked run ([`checked_run`]: oracle armed,
//!   panic caught, race replay) behind `cvm check`, DPOR and `cvm faults`,
//!   plus seeded schedule exploration minimized to the smallest replayable
//!   perturbation budget.
//! * [`check`] — the `cvm check` cell ([`check::check_app`]): explores one
//!   application's schedules and renders lint-style findings with a replay
//!   command line.
//! * [`dpor`] + [`indep`] — exhaustive stateless model checking: dynamic
//!   partial-order reduction over the scheduler's pick decisions, with an
//!   independence relation derived from per-step page/lock footprints.
//!   On [`Scale::Tiny`](cvm_apps::Scale) kernels the search terminates,
//!   turning "0 findings" into a statement about *every* interleaving.
//!
//! The oracle's fault injection ([`InjectFault`](cvm_dsm::InjectFault))
//! turns the whole stack into its own test: dropping a write notice,
//! reordering diff application, or skipping an invalidation must each be
//! caught, which `tests/mutations.rs` asserts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod dpor;
pub mod explore;
pub mod indep;
pub mod race;

pub use check::{AppCheck, CheckOptions, CheckReport, ScheduleFailure};
pub use dpor::{
    dpor_check, schedule_from_json, schedule_to_json, DporCounterexample, DporOptions, DporReport,
    DporStats, ScheduleFile,
};
pub use explore::{
    checked_run, findings_with_races, run_schedule, run_scripted, CheckedRun, RunPlan,
};
pub use indep::dependent;
pub use race::replay_race_check;
