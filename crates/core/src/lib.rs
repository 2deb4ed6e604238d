//! `cvm-dsm` — a CVM-style software distributed shared memory with
//! per-node multi-threading for remote-latency hiding.
//!
//! This crate reproduces the system of *"Multi-threading and Remote Latency
//! in Software DSMs"* (Thitikamol & Keleher, ICDCS 1997): a page-based DSM
//! running **lazy release consistency** with a **multiple-writer** protocol
//! (twins + diffs + write notices + vector timestamps), distributed locks
//! with *local per-lock queues*, global barriers with *per-node arrival
//! aggregation*, *local barriers* for reduction aggregation, and a
//! **non-preemptive per-node thread scheduler** that switches threads when
//! a remote request is sent — hiding remote memory and synchronization
//! latency behind useful local work.
//!
//! The cluster itself (network, page-fault detection, caches) is simulated
//! deterministically; see the workspace `DESIGN.md` for the substitution
//! argument. All of the paper's observables are collected: message counts
//! and bandwidth by class, non-overlapped wait times by cause, thread
//! switches, remote faults/locks, outstanding-request overlap,
//! blocked-on-same-page/lock counts, diffs created/used, and cache/TLB
//! misses.
//!
//! # Quickstart
//!
//! ```
//! use cvm_dsm::{CvmBuilder, CvmConfig};
//!
//! let mut builder = CvmBuilder::new(CvmConfig::small(2, 2));
//! let data = builder.alloc::<f64>(1024);
//! let report = builder.run(move |ctx| {
//!     // SPMD body: every thread executes this closure.
//!     if ctx.global_id() == 0 {
//!         for i in 0..1024 {
//!             data.write(ctx, i, 0.0);
//!         }
//!     }
//!     ctx.startup_done();
//!     let (lo, hi) = ctx.partition(1024);
//!     for i in lo..hi {
//!         data.write(ctx, i, i as f64);
//!     }
//!     ctx.barrier();
//!     // Every thread can now read every element.
//!     let sum: f64 = (0..1024).map(|i| data.read(ctx, i)).sum();
//!     assert_eq!(sum, (0..1024).map(|i| i as f64).sum::<f64>());
//! });
//! assert_eq!(report.stats.barriers_crossed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod attr;
pub mod barrier;
pub mod config;
pub mod ctx;
pub mod diff;
pub mod driver;
pub mod export;
pub mod hist;
pub mod interval;
pub mod lock;
pub mod msg;
pub mod node;
pub mod oracle;
pub mod page;
pub mod protocol;
pub mod report;
pub mod sched;
pub mod shared;
pub mod span;
pub mod stats;
pub mod trace;

pub use attr::{LockAttr, PageAttr, ResourceAttr};
pub use config::{CvmConfig, DEFAULT_SEED};
pub use ctx::{ReduceOp, ThreadCtx};
pub use cvm_net::{FaultPlan, LatencyModel, PLAN_CATALOG};
pub use diff::Diff;
pub use driver::{enable_host_time, host_time_table, Coherence, CvmBuilder, StartError};
pub use export::{chrome_trace, chrome_trace_with_spans};
pub use hist::{hist_json, DsmHistograms};
pub use interval::VectorTime;
pub use oracle::{Finding, FindingSink, InjectFault, Invariant, Oracle};
pub use page::{Addr, PageId, PageState};
pub use protocol::ProtocolKind;
pub use report::{MemPeaks, NodeBreakdown, RunReport};
pub use shared::{Shareable, SharedMat, SharedVec};
pub use span::{SpanForest, SpanKind, SpanRecord, SpanResource};
pub use stats::DsmStats;
pub use trace::Trace;
