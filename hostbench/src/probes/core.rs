//! Probes of `cvm_dsm` (the `core` crate) and `cvm_memsim`:
//! the access path, diffs and twins, and the host cost of whole
//! protocol operations measured on minimal systems.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cvm_dsm::node::NodeCell;
use cvm_dsm::page::PageId;
use cvm_dsm::{CvmBuilder, CvmConfig, Diff, RunReport, SharedVec, VectorTime};
use cvm_memsim::{MemConfig, MemSystem};
use cvm_sim::SimDuration;

use super::{min_of_runs, per_call_ns, Out};

const PAGE: usize = 8192;
/// Accesses per sample of the access-path probes (≈25 ms at 34 ns).
const ACCESSES: usize = 750_000;

/// Nanoseconds per `SharedVec` access on resident pages of a 1×1
/// system, timed inside the application thread so that building and
/// tearing down the system is left out.
fn shared_access_ns(write: bool, memsim: bool) -> f64 {
    min_of_runs(|| {
        let mut cfg = CvmConfig::paper(1, 1);
        cfg.memsim_enabled = memsim;
        let mut b = CvmBuilder::new(cfg);
        let v: SharedVec<u64> = b.alloc(1024);
        let ns = Arc::new(AtomicU64::new(0));
        let ns_out = Arc::clone(&ns);
        b.run(move |ctx| {
            for i in 0..1024 {
                v.write(ctx, i, i as u64);
            }
            ctx.startup_done();
            let t0 = Instant::now();
            let mut acc = 0u64;
            for k in 0..ACCESSES {
                if write {
                    v.write(ctx, k & 1023, k as u64);
                } else {
                    acc = acc.wrapping_add(v.read(ctx, k & 1023));
                }
            }
            black_box(acc);
            ns_out.store(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
        });
        ns.load(Ordering::SeqCst) as f64 / ACCESSES as f64
    })
}

fn timed_run(
    b: CvmBuilder,
    app: impl Fn(&mut cvm_dsm::ThreadCtx<'_>) + Send + Sync + 'static,
) -> (f64, RunReport) {
    let t0 = Instant::now();
    let report = b.run(app);
    (t0.elapsed().as_secs_f64() * 1e6, report)
}

/// Two nodes take turns writing one word of a page; the other reads it
/// after a barrier, so every round costs remote faults. Returns host µs
/// per remote fault (the two barriers of a round are part of the price)
/// and the last run's report, a realistic one for the JSON probe.
fn fault_pingpong() -> (f64, RunReport) {
    const ROUNDS: usize = 400;
    let mut last = None;
    let us = min_of_runs(|| {
        let mut b = CvmBuilder::new(CvmConfig::paper(2, 1));
        let v: SharedVec<u64> = b.alloc(1024);
        let (us, report) = timed_run(b, move |ctx| {
            ctx.startup_done();
            for r in 0..ROUNDS {
                if ctx.node() == r % 2 {
                    v.write(ctx, 0, r as u64);
                }
                ctx.barrier();
                if ctx.node() != r % 2 {
                    assert_eq!(v.read(ctx, 0), r as u64);
                }
                ctx.barrier();
            }
        });
        let faults = report.stats.remote_faults;
        assert!(faults as usize >= ROUNDS, "ping-pong must fault remotely");
        last = Some(report);
        us / faults as f64
    });
    (us, last.expect("at least one sample ran"))
}

/// Two nodes contend for one lock. Each computes 3 virtual ms between
/// critical sections and then yields, which ends its burst, so the other
/// node's request is served and the lock has always moved away by the
/// next acquire. Host µs per remote acquire + release.
fn lock_host_us() -> f64 {
    const ROUNDS: usize = 1000;
    min_of_runs(|| {
        let b = CvmBuilder::new(CvmConfig::paper(2, 1));
        let (us, report) = timed_run(b, |ctx| {
            ctx.startup_done();
            for _ in 0..ROUNDS {
                ctx.acquire(0);
                ctx.release(0);
                ctx.work(SimDuration::from_ms(3));
                ctx.yield_now();
            }
        });
        let remote = report.stats.remote_locks as usize;
        assert!(
            remote * 10 >= 2 * ROUNDS * 9,
            "lock probe must be >=90% remote, got {remote} of {}",
            2 * ROUNDS
        );
        us / remote as f64
    })
}

/// Host µs per thread-arrival of a run that does nothing but barriers,
/// 4 threads per node. Spawning and joining the threads is included: at
/// 128 nodes that is what a short run pays.
fn barrier_host_us(nodes: usize, rounds: usize) -> f64 {
    min_of_runs(|| {
        let b = CvmBuilder::new(CvmConfig::paper(nodes, 4));
        let (us, _) = timed_run(b, move |ctx| {
            ctx.startup_done();
            for _ in 0..rounds {
                ctx.barrier();
            }
        });
        us / (nodes * 4 * rounds) as f64
    })
}

pub(super) fn run_all(out: &Out) {
    out.probe("core.shared_read_ns", || shared_access_ns(false, false));
    out.probe("core.shared_write_ns", || shared_access_ns(true, false));
    out.probe("core.shared_read_memsim_ns", || {
        shared_access_ns(false, true)
    });

    let twin = vec![0u8; PAGE];
    let mut sparse = twin.clone();
    for w in (0..PAGE / 8).step_by(64) {
        sparse[w * 8] = 0xAB;
    }
    let mut dense = twin.clone();
    dense[..PAGE / 2].fill(0xCD);
    out.probe("core.diff_create_sparse_ns", || {
        per_call_ns(|| Diff::create(PageId(0), black_box(&twin), black_box(&sparse)))
    });
    out.probe("core.diff_create_dense_ns", || {
        per_call_ns(|| Diff::create(PageId(0), black_box(&twin), black_box(&dense)))
    });
    out.probe("core.diff_apply_dense_ns", || {
        let diff = Diff::create(PageId(0), &twin, &dense);
        let mut page = twin.clone();
        per_call_ns(|| diff.apply(black_box(&mut page)))
    });
    out.probe("core.vt_merge_128_ns", || {
        let (mut a, mut b) = (VectorTime::new(128), VectorTime::new(128));
        for i in 0..128 {
            a.advance(i, (i * 7) as u32);
            b.advance(i, (i * 5 + 3) as u32);
        }
        per_call_ns(|| a.merge(black_box(&b)))
    });
    out.probe("core.twin_ensure_clear_ns", || {
        let mut cell = NodeCell::new(PAGE, 4, None);
        per_call_ns(|| {
            cell.ensure_twin(1);
            cell.clear_twin(1);
        })
    });

    let mut report = None;
    out.probe("core.fault_host_us", || {
        let (us, r) = fault_pingpong();
        report = Some(r);
        us
    });
    out.probe("core.lock_host_us", lock_host_us);
    out.probe("core.barrier_host_us_n8", || barrier_host_us(8, 200));
    out.probe("core.barrier_host_us_n128", || barrier_host_us(128, 10));
    out.probe("core.run_min_2x2_us", || {
        per_call_ns(|| CvmBuilder::new(CvmConfig::paper(2, 2)).run(|_| {})) / 1e3
    });
    let report = report.expect("the fault probe ran");
    out.probe("core.report_to_json_us", || {
        per_call_ns(|| report.to_json(5)) / 1e3
    });

    out.probe("memsim.access_ns", || {
        let mut m = MemSystem::new(MemConfig::sp2());
        let mut addr = 0u64;
        per_call_ns(|| {
            addr = addr.wrapping_add(128) & 0xF_FFFF;
            m.data_access(black_box(addr))
        })
    });
}
