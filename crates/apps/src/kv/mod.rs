//! A sharded KV/session store served *on top of* the DSM — the suite's
//! first open-loop workload.
//!
//! The seven reproduced kernels are closed-loop batch programs: every
//! thread issues its next operation only after the previous one finishes,
//! so offered load collapses exactly when the system slows down — the
//! regime where tail latency is invisible. Serving traffic is open-loop:
//! arrivals are scheduled by the outside world, independent of
//! completions, so queueing delay lands in the *request latency*
//! distribution instead of silently throttling the generator.
//!
//! Mapping onto the DSM:
//!
//! * **Pages as hash buckets** — the key table is one shared `u64` array;
//!   8 KB coherence pages hold 1024 contiguous slots each, so key
//!   popularity (seeded Zipf) directly shapes page-level coherence
//!   traffic.
//! * **Locks as per-shard leases** — keys are range-partitioned into
//!   shards; shard `s` is guarded by global lock `s`. The paper's unfair
//!   local-preference release policy is exactly the policy a lease cache
//!   wants — and exactly the one that starves remote shards, which is why
//!   [`CvmConfig::local_grant_cap`](cvm_dsm::CvmConfig) exists.
//! * **Reductions for global counters** — per-thread write totals fold
//!   into one global checksum via `global_reduce`, the store's
//!   correctness oracle (writes are commutative wrapping-add deltas, so
//!   the expected table sum is order-independent).
//!
//! Simulated clients are *virtual*: millions of sessions collapse onto
//! `total_threads` generator threads, each owning an independent Poisson
//! arrival stream of rate `rate_rps / total_threads`.

use cvm_dsm::{CvmBuilder, SharedVec, ThreadCtx};
use cvm_sim::Zipf;

use crate::common::charge_flops;
use crate::AppBody;

pub mod gen;
pub mod scenario;

use gen::OpenLoopGen;

/// Serving-workload shape: table geometry, skew, mix and offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvConfig {
    /// Key-table slots (one `u64` each; 1024 per 8 KB coherence page).
    pub keys: usize,
    /// Shard count: keys are range-partitioned into this many lease
    /// domains, shard `s` guarded by global lock `s`.
    pub shards: usize,
    /// Zipf skew of key popularity in `(0, 1)` (YCSB's default is 0.99).
    pub theta: f64,
    /// Fraction of requests that write, in `[0, 1]`.
    pub write_mix: f64,
    /// Offered arrival rate, requests per *virtual* second, summed over
    /// all generator threads.
    pub rate_rps: f64,
    /// Length of the arrival window in virtual milliseconds. Requests
    /// arriving inside the window are always served, even past its end —
    /// that overhang is how saturation shows up.
    pub duration_ms: u64,
    /// Per-request computation (request parsing, hashing, serialization),
    /// in flops.
    pub service_flops: u64,
}

impl KvConfig {
    /// Smoke-test shape: small table, short window, moderate load.
    pub fn smoke() -> Self {
        KvConfig {
            keys: 4096,
            shards: 8,
            theta: 0.99,
            write_mix: 0.2,
            rate_rps: 2_000.0,
            duration_ms: 50,
            service_flops: 200,
        }
    }

    /// Laptop-scale default: a few coherence pages per shard, session-store
    /// read/write mix.
    pub fn small() -> Self {
        KvConfig {
            keys: 16 * 1024,
            shards: 16,
            theta: 0.99,
            write_mix: 0.2,
            rate_rps: 1_500.0,
            duration_ms: 200,
            service_flops: 200,
        }
    }

    /// Checks internal consistency: what a deck or a command line may
    /// get wrong.
    ///
    /// # Errors
    ///
    /// Names the field and the offending value on zero
    /// keys/shards/duration, more shards than keys, a skew outside
    /// `(0, 1)`, a mix outside `[0, 1]`, or a rate that is not positive
    /// and finite.
    pub fn validate(&self) -> Result<(), String> {
        let (keys, shards) = (self.keys, self.shards);
        if keys == 0 {
            return Err("keys must be positive".into());
        }
        if shards == 0 {
            return Err("shards must be in 1..=keys (got 0)".into());
        }
        if shards > keys {
            return Err(format!("shards must be in 1..=keys ({shards} > {keys})"));
        }
        if !(self.theta > 0.0 && self.theta < 1.0) {
            return Err(format!("theta must be in (0, 1), got {}", self.theta));
        }
        if !(0.0..=1.0).contains(&self.write_mix) {
            return Err(format!(
                "write_mix must be in [0, 1], got {}",
                self.write_mix
            ));
        }
        if !(self.rate_rps.is_finite() && self.rate_rps > 0.0) {
            return Err(format!(
                "rate_rps must be positive and finite, got {}",
                self.rate_rps
            ));
        }
        if self.duration_ms == 0 {
            return Err("duration_ms must be positive".into());
        }
        Ok(())
    }

    /// [`validate`](Self::validate) for a configuration that input
    /// checking has already passed: a failure here is a bug in the caller.
    fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid KV configuration: {e}");
        }
    }

    /// The shard owning `key` (contiguous key ranges, so each shard's
    /// slots occupy contiguous pages).
    pub fn shard_of(&self, key: u64) -> usize {
        (key as usize * self.shards) / self.keys
    }

    /// The commutative write delta for `key`: small and key-determined,
    /// so any interleaving of writes leaves the table sum equal to the
    /// sum of applied deltas (wrapping `u64` addition forms an abelian
    /// group) and totals stay exactly representable in the `f64`
    /// reduction for any realistic request count.
    pub fn delta_of(key: u64) -> u64 {
        key % 1024 + 1
    }
}

/// Builds the KV serving body over `b`'s shared segment.
pub fn build(b: &mut CvmBuilder, cfg: KvConfig) -> AppBody {
    cfg.assert_valid();
    let table: SharedVec<u64> = b.alloc::<u64>(cfg.keys);
    // Slot 0: table sum published by thread 0 after verification (bits of
    // the f64); slot 1: total requests served (as f64 bits).
    let sink = b.alloc::<f64>(2);
    Box::new(move |ctx: &mut ThreadCtx<'_>| {
        run(ctx, &cfg, table, sink);
    })
}

fn run(ctx: &mut ThreadCtx<'_>, cfg: &KvConfig, table: SharedVec<u64>, sink: SharedVec<f64>) {
    if ctx.global_id() == 0 {
        sink.write(ctx, 0, 0.0);
        sink.write(ctx, 1, 0.0);
    }
    ctx.startup_done();

    // Every generator thread owns an equal slice of the offered load.
    let zipf = Zipf::new(cfg.keys as u64, cfg.theta);
    let mut arrivals = OpenLoopGen::new(
        cfg.rate_rps / ctx.total_threads() as f64,
        cfg.duration_ms,
        ctx.now_ns(),
    );
    let mut delta_total: u64 = 0;
    let mut served: u64 = 0;
    while let Some(arrival_ns) = arrivals.next(ctx.rng()) {
        // Open loop: wait for the arrival if we are ahead; if we are
        // behind, the request has been queueing and its latency says so.
        ctx.sleep_until(arrival_ns);
        let key = zipf.sample(ctx.rng());
        let write = ctx.rng().unit_f64() < cfg.write_mix;
        let shard = cfg.shard_of(key);
        ctx.acquire(shard);
        charge_flops(ctx, cfg.service_flops);
        if write {
            let delta = KvConfig::delta_of(key);
            let old = table.read(ctx, key as usize);
            table.write(ctx, key as usize, old.wrapping_add(delta));
            delta_total = delta_total.wrapping_add(delta);
        } else {
            // The read is the workload: it faults the bucket page in and
            // keeps it in this node's copyset until the next invalidation.
            let _ = table.read(ctx, key as usize);
        }
        ctx.release(shard);
        let done_ns = ctx.now_ns();
        ctx.record_request(done_ns.saturating_sub(arrival_ns));
        served += 1;
    }

    // Publish all writes before the snapshot, then close the measured
    // region: verification traffic below stays out of the report.
    ctx.barrier();
    ctx.end_measured();

    // Correctness oracle: the table sum must equal the sum of all applied
    // deltas, no matter how writes interleaved across shards and nodes.
    let expect = ctx.global_reduce(cvm_dsm::ReduceOp::Sum, delta_total as f64);
    let total_served = ctx.global_reduce(cvm_dsm::ReduceOp::Sum, served as f64);
    if ctx.global_id() == 0 {
        let mut sum: u64 = 0;
        for k in 0..cfg.keys {
            sum = sum.wrapping_add(table.read(ctx, k));
        }
        assert!(
            sum as f64 == expect,
            "KV table sum {sum} disagrees with the delta reduction {expect}"
        );
        sink.write(ctx, 0, sum as f64);
        sink.write(ctx, 1, total_served);
    }
}

/// Runs the store on a fresh system and returns `(table_sum,
/// requests_served, report)` — the test entry point.
pub fn serve_of_config(cfg: &KvConfig, dsm: cvm_dsm::CvmConfig) -> (u64, u64, cvm_dsm::RunReport) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let mut b = CvmBuilder::new(dsm);
    cfg.assert_valid();
    let table: SharedVec<u64> = b.alloc::<u64>(cfg.keys);
    let sink = b.alloc::<f64>(2);
    let out_sum = Arc::new(AtomicU64::new(0));
    let out_served = Arc::new(AtomicU64::new(0));
    let (sum2, served2) = (Arc::clone(&out_sum), Arc::clone(&out_served));
    let cfg = *cfg;
    let report = b.run(move |ctx| {
        run(ctx, &cfg, table, sink);
        if ctx.global_id() == 0 {
            sum2.store(sink.read(ctx, 0) as u64, Ordering::SeqCst);
            served2.store(sink.read(ctx, 1) as u64, Ordering::SeqCst);
        }
    });
    (
        out_sum.load(Ordering::SeqCst),
        out_served.load(Ordering::SeqCst),
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvm_dsm::CvmConfig;

    fn tiny() -> KvConfig {
        KvConfig {
            keys: 2048,
            shards: 4,
            theta: 0.99,
            write_mix: 0.3,
            rate_rps: 10_000.0,
            duration_ms: 10,
            service_flops: 100,
        }
    }

    #[test]
    fn store_verifies_and_serves_across_topologies() {
        let cfg = tiny();
        let mut sums = Vec::new();
        for (nodes, threads) in [(1, 4), (2, 2), (4, 1)] {
            let (sum, served, report) = serve_of_config(&cfg, CvmConfig::small(nodes, threads));
            assert!(served > 0, "open loop must serve requests");
            assert_eq!(
                report.hist.request_ns.count(),
                served,
                "every served request records one latency sample"
            );
            sums.push(sum);
        }
        // Different topologies serve different interleavings, but the
        // *per-thread* request streams are identical (seeded by global
        // thread id), so the applied delta sum — and therefore the table
        // sum — is topology-independent.
        assert!(sums.windows(2).all(|w| w[0] == w[1]), "sums: {sums:?}");
    }

    #[test]
    fn requests_expose_tail_latency() {
        let mut cfg = tiny();
        cfg.duration_ms = 40;
        let (_, _, report) = serve_of_config(&cfg, CvmConfig::small(2, 2));
        let h = &report.hist.request_ns;
        assert!(h.count() > 100);
        assert!(h.p999() >= h.p99());
        assert!(h.p99() >= h.p50());
    }

    #[test]
    fn idle_time_is_classified_when_underloaded() {
        // A trickle of requests: nodes spend nearly all time asleep on the
        // arrival clock, and that time must land in `idle`, not `barrier`.
        let mut cfg = tiny();
        cfg.rate_rps = 1_000.0;
        let (_, _, report) = serve_of_config(&cfg, CvmConfig::small(2, 1));
        let sum = report.breakdown_sum();
        assert!(
            sum.idle.as_ns() > 0,
            "underloaded open loop must report idle time"
        );
    }

    #[test]
    fn shard_map_is_contiguous_and_total() {
        let cfg = tiny();
        let mut last = 0;
        for key in 0..cfg.keys as u64 {
            let s = cfg.shard_of(key);
            assert!(s < cfg.shards);
            assert!(s >= last, "shard map must be monotone");
            last = s;
        }
        assert_eq!(last, cfg.shards - 1, "all shards populated");
    }

    #[test]
    fn validate_names_the_field_and_the_value() {
        let bad = |edit: fn(&mut KvConfig)| {
            let mut cfg = tiny();
            edit(&mut cfg);
            cfg.validate().expect_err("rejected")
        };
        assert_eq!(tiny().validate(), Ok(()));
        assert_eq!(bad(|c| c.keys = 0), "keys must be positive");
        assert_eq!(bad(|c| c.shards = 0), "shards must be in 1..=keys (got 0)");
        let keys = tiny().keys;
        assert_eq!(
            bad(|c| c.shards = c.keys + 1),
            format!("shards must be in 1..=keys ({} > {keys})", keys + 1)
        );
        assert_eq!(bad(|c| c.theta = 1.0), "theta must be in (0, 1), got 1");
        assert_eq!(
            bad(|c| c.theta = f64::NAN),
            "theta must be in (0, 1), got NaN"
        );
        assert_eq!(
            bad(|c| c.write_mix = -0.5),
            "write_mix must be in [0, 1], got -0.5"
        );
        assert_eq!(
            bad(|c| c.rate_rps = f64::INFINITY),
            "rate_rps must be positive and finite, got inf"
        );
        assert_eq!(bad(|c| c.duration_ms = 0), "duration_ms must be positive");
    }

    #[test]
    #[should_panic(expected = "invalid KV configuration: shards must be in")]
    fn building_an_unchecked_configuration_is_a_bug() {
        let mut cfg = tiny();
        cfg.shards = cfg.keys + 1;
        let _ = build(&mut CvmBuilder::new(cvm_dsm::CvmConfig::small(1, 1)), cfg);
    }
}
