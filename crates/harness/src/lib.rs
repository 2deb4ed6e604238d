//! Experiment harness: regenerates every table and figure of the paper.
//! Each is a [`tables::TABLES`] entry: the cells it reads, run once each
//! through [`campaign::run`], and a render. Every campaign runs there; the
//! cells of `check` and `faults` are `cvm_verify`'s one checked run.
//!
//! | artifact | render | paper content |
//! |---|---|---|
//! | §4.1 micro | [`micro::report`] | lock/fault/barrier/switch costs |
//! | Table 1 | [`tables::table1`] | application specifics |
//! | Figure 1 | [`tables::fig1`] | normalized execution time, 4/8 procs × 1–4 threads, user/barrier/fault/lock split |
//! | Table 2 | [`tables::table2`] | communication delays, message counts, bandwidth |
//! | Table 3 | [`tables::table3`] | DSM actions (switches, faults, outstanding, block-same, diffs) |
//! | Figure 2 | [`tables::fig2`] | D-cache / D-TLB / I-TLB misses vs threads |
//! | Table 4 | [`tables::table4`] | scalability deltas at 4/8/16 processors |
//! | Table 5 | [`tables::table5`] | Water-Nsq optimization case study |
//!
//! Runs use the paper's latency constants ([`cvm_net::LatencyModel::paper`])
//! and default to laptop-scale inputs; pass [`Scale::Paper`] for the
//! paper's sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod bench;
pub mod bench_cli;
pub mod campaign;
pub mod check_cli;
pub mod cli;
pub mod explain;
pub mod faults;
pub mod gate;
pub mod micro;
pub mod run_cli;
pub mod runner;
pub mod scale_bench;
pub mod serve;
pub mod serve_cli;
pub mod sweep;
pub mod sweep_cli;
pub mod tables;

pub use runner::{run_app, RunOutcome, RunSpec};

pub use cvm_apps::{AppId, Scale, Variant, WaterNsqOpt};
