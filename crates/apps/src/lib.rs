//! The seven-application evaluation suite from the paper (Table 1), ported
//! to the `cvm-dsm` API.
//!
//! | app | input (paper) | sync | modifications |
//! |---|---|---|---|
//! | Barnes | 10240 particles | barrier | g |
//! | FFT | 64×64×64 | barrier | – |
//! | Ocean | 258×258 | barrier, lock | g, r |
//! | SOR | 2048×2048 | barrier | – |
//! | Water-Sp | 4096 molecules | barrier, lock | g, r |
//! | SWM750 | 750×750 | barrier | – |
//! | Water-Nsq | 512 molecules | barrier, lock | g, r, s |
//!
//! Modifications (paper §4.2): `g` — globals privatized for correctness
//! under per-node multi-threading; `r` — reductions aggregated per node
//! through local barriers; `s` — intra-node work sharing / access
//! reordering to reduce local contention.
//!
//! Every application is written in the paper's location-transparent SPMD
//! model, parameterized only by the number of nodes and threads, with
//! contiguous block partitioning so co-located threads own adjacent data.
//! Problem sizes default to laptop scale; [`Scale::Paper`] restores the
//! paper's inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The numeric kernels use explicit index loops across several parallel
// arrays (`for d in 0..3 { acc[d] += f[d]; }`); iterator rewrites obscure
// the physics without changing the generated code.
#![allow(clippy::needless_range_loop)]

pub mod barnes;
pub mod common;
pub mod fft;
pub mod kv;
pub mod ocean;
pub mod registry;
pub mod sor;
pub mod swm;
pub mod water_nsq;
pub mod water_sp;

pub use registry::{build_app, build_variant, AppId, AppMeta, Scale, Variant};
pub use water_nsq::WaterNsqOpt;

use cvm_dsm::ThreadCtx;

/// A built application body, ready for [`cvm_dsm::CvmBuilder::run`].
pub type AppBody = Box<dyn Fn(&mut ThreadCtx<'_>) + Send + Sync + 'static>;
