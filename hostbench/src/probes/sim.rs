//! Probes of `cvm_sim`: the baton, the event heap, JSON, and the small
//! pieces the serving workload leans on.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cvm_sim::coop::{Burst, CoopScheduler};
use cvm_sim::{workq, EventQueue, JsonValue, Log2Hist, SimDuration, SimRng, VirtualTime, Zipf};

use super::{per_call_ns, Out};

/// One `resume` of a thread that loops on `Yielder::block`: driver wakes
/// thread, thread wakes driver.
pub(super) fn baton_roundtrip_ns() -> f64 {
    let mut sched: CoopScheduler<()> = CoopScheduler::new();
    let stop = Arc::new(AtomicBool::new(false));
    let stopped = Arc::clone(&stop);
    let tid = sched.spawn(move |y| {
        while !stopped.load(Ordering::Relaxed) {
            y.block(());
        }
    });
    let ns = per_call_ns(|| sched.resume(tid));
    // Let the thread return, so that dropping the scheduler does not
    // have to unwind it.
    stop.store(true, Ordering::Relaxed);
    assert_eq!(sched.resume(tid), Burst::Finished);
    ns
}

/// Spawn an OS-thread-backed coop thread, run it to the end, join it.
fn coop_spawn_join_ns() -> f64 {
    per_call_ns(|| {
        let mut sched: CoopScheduler<()> = CoopScheduler::new();
        let tid = sched.spawn(|_| {});
        assert_eq!(sched.resume(tid), Burst::Finished);
    })
}

/// Pop the earliest event and push a later one, heap held at 1024.
fn event_push_pop_ns() -> f64 {
    let mut rng = SimRng::seed_from(1);
    let mut q: EventQueue<u32> = EventQueue::with_capacity(2048);
    for i in 0..1024 {
        q.push(
            VirtualTime::ZERO + SimDuration::from_ns(rng.below(1_000_000)),
            i,
        );
    }
    per_call_ns(|| {
        let (t, e) = q.pop().expect("heap stays at 1024");
        q.push(t + SimDuration::from_ns(1 + rng.below(1_000_000)), e);
    })
}

pub(super) fn run_all(out: &Out, artifact: &str) {
    out.probe("sim.baton_roundtrip_ns", baton_roundtrip_ns);
    out.probe("sim.coop_spawn_join_ns", coop_spawn_join_ns);
    out.probe("sim.event_push_pop_ns", event_push_pop_ns);
    // The JSON corpus is the workload's own artifact: what `cvm` really
    // emits, and what the regression gate really parses.
    let kib = artifact.len() as f64 / 1024.0;
    let doc = JsonValue::parse(artifact).expect("the parent checked the artifact");
    out.probe("sim.json_emit_ns_per_kib", || {
        per_call_ns(|| doc.to_pretty()) / kib
    });
    out.probe("sim.json_parse_ns_per_kib", || {
        per_call_ns(|| JsonValue::parse(black_box(artifact))) / kib
    });
    out.probe("sim.zipf_sample_ns", || {
        let zipf = Zipf::new(16_384, 0.99);
        let mut rng = SimRng::seed_from(2);
        per_call_ns(|| zipf.sample(&mut rng))
    });
    out.probe("sim.log2hist_record_ns", || {
        let mut h = Log2Hist::new();
        let mut x = 1u64;
        per_call_ns(|| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            h.record(x >> 40);
        })
    });
    // One worker runs the items inline, as `--workers 1` does in every
    // workload. `black_box` stands for a job the compiler cannot see
    // through: without it the whole loop folds into a vectorized copy.
    out.probe("sim.workq_item_ns", || {
        per_call_ns(|| workq::run_indexed(1, vec![0u32; 10_000], |i, x| black_box(i as u32 + x)))
            / 10_000.0
    });
}
