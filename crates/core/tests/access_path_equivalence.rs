//! Access-path equivalence: random race-free programs must produce the
//! reports recorded in `goldens/access_path.txt`.
//!
//! The goldens were recorded before `ThreadCtx` started holding its
//! node's cell for a whole burst, so they pin everything the resident
//! access path feeds into a run: virtual time (every access charges
//! `access_base`, the memory-system simulator adds its penalties), the
//! per-burst page footprints of the step log, the protocol counters that
//! follow from which accesses fault, and the bytes that end up in memory.
//! `memsim_enabled` and `record_steps` are each on in one variant: they
//! are the two hooks on the fast path that no hostbench workload enables.
//!
//! A program is a fixed number of barrier-separated phases. In a phase a
//! thread draws its operations from its own `ctx.rng()`: writes to its own
//! slots of the phase's write array (slot `gid + k * threads`, so pages
//! are falsely shared by every thread), reads of any slot of the *other*
//! array (written one phase earlier, behind a barrier), and lock-protected
//! increments of shared counters. Each phase ends with the primitives that
//! read their result through the held cell: `now_ns`, `record_request`,
//! `local_reduce` and `global_reduce`.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use cvm_dsm::{CvmBuilder, CvmConfig, ProtocolKind, ReduceOp, RunReport, SharedVec};
use cvm_sim::{Fnv64, SimRng};

/// Slots per data array: two 8 KB pages of `u64`.
const SLOTS: usize = 2048;
const LOCKS: usize = 4;
/// Counter `l` (guarded by lock `l`) sits at slot `l * COUNTER_STRIDE`, a
/// page of its own: counters of *different* locks sharing one page lose
/// increments at three or more nodes under the lazy and eager protocols
/// (ROADMAP item 4) — a protocol defect this test is not about.
const COUNTER_STRIDE: usize = 1024;

const GOLDENS: &str = include_str!("goldens/access_path.txt");

#[derive(Clone, Copy)]
enum Variant {
    Plain,
    Memsim,
    Steps,
}

impl Variant {
    const ALL: [Variant; 3] = [Variant::Plain, Variant::Memsim, Variant::Steps];

    fn name(self) -> &'static str {
        match self {
            Variant::Plain => "plain",
            Variant::Memsim => "memsim",
            Variant::Steps => "steps",
        }
    }
}

/// What one thread saw: a fold of every value it read, and a digest of
/// the whole shared image after the last barrier.
type Seen = (usize, u64, u64);

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

fn run_program(
    nodes: usize,
    tpn: usize,
    protocol: ProtocolKind,
    variant: Variant,
    seed: u64,
    phases: usize,
    ops: usize,
) -> (RunReport, Vec<Seen>) {
    let mut cfg = CvmConfig::paper(nodes, tpn);
    cfg.protocol = protocol;
    cfg.seed = seed;
    cfg.memsim_enabled = matches!(variant, Variant::Memsim);
    cfg.record_steps = matches!(variant, Variant::Steps);
    let mut b = CvmBuilder::new(cfg);
    let even: SharedVec<u64> = b.alloc(SLOTS);
    let odd: SharedVec<u64> = b.alloc(SLOTS);
    let counters: SharedVec<u64> = b.alloc(LOCKS * COUNTER_STRIDE);
    let seen_out = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen_out);
    let report = b.run(move |ctx| {
        let me = ctx.global_id();
        let total = ctx.total_threads();
        if me == 0 {
            for i in 0..SLOTS {
                even.write(ctx, i, i as u64);
                odd.write(ctx, i, !(i as u64));
            }
            for l in 0..LOCKS {
                counters.write(ctx, l * COUNTER_STRIDE, 0);
            }
        }
        ctx.startup_done();
        let mut seen = 0u64;
        let mut increments = 0u64;
        for phase in 0..phases {
            let (w, r) = if phase % 2 == 0 {
                (even, odd)
            } else {
                (odd, even)
            };
            for _ in 0..ops {
                let own = me + total * ctx.rng().below((SLOTS / total) as u64) as usize;
                match ctx.rng().below(8) {
                    0..=2 => {
                        let v = ctx.rng().next_u64();
                        w.write(ctx, own, v);
                    }
                    3..=5 => {
                        let i = ctx.rng().below(SLOTS as u64) as usize;
                        seen = seen.rotate_left(5) ^ r.read(ctx, i);
                    }
                    6 => {
                        let l = ctx.rng().below(LOCKS as u64) as usize;
                        ctx.acquire(l);
                        let c = counters.read(ctx, l * COUNTER_STRIDE);
                        counters.write(ctx, l * COUNTER_STRIDE, c + 1);
                        ctx.release(l);
                        increments += 1;
                    }
                    _ => {
                        let v = w.read(ctx, own);
                        w.write(ctx, own, v.wrapping_mul(31).wrapping_add(phase as u64));
                    }
                }
            }
            let now = ctx.now_ns();
            ctx.record_request(now % 4096 + 1);
            let most = ctx.local_reduce(ReduceOp::Max, (seen % 1000) as f64);
            let sum = ctx.global_reduce(ReduceOp::Sum, increments as f64);
            seen = seen.rotate_left(7) ^ now ^ most.to_bits() ^ sum.to_bits();
            ctx.barrier();
        }
        let done = ctx.global_reduce(ReduceOp::Sum, increments as f64);
        let mut image = Fnv64::new();
        for i in 0..SLOTS {
            image.write_u64(even.read(ctx, i));
            image.write_u64(odd.read(ctx, i));
        }
        let mut counted = 0u64;
        for l in 0..LOCKS {
            let c = counters.read(ctx, l * COUNTER_STRIDE);
            image.write_u64(c);
            counted += c;
        }
        assert_eq!(counted as f64, done, "a locked increment was lost");
        sink.lock()
            .expect("no thread panics holding the sink")
            .push((me, seen, image.finish()));
    });
    let mut seen = std::mem::take(&mut *seen_out.lock().expect("run is over"));
    seen.sort_unstable();
    (report, seen)
}

/// One golden line per case.
fn describe(tag: &str, report: &RunReport, seen: &[Seen]) -> String {
    let image = seen[0].2;
    assert!(
        seen.iter().all(|s| s.2 == image),
        "{tag}: threads disagree on the final shared image"
    );
    let mut reads = Fnv64::new();
    for s in seen {
        reads.write_u64(s.1);
    }
    let sum = report.breakdown_sum();
    format!(
        "{tag} total_ns={} json={:016x} state={:016x} image={image:016x} reads={:016x} \
         sum={}/{}/{}/{}/{}@{}",
        report.total_time.as_ns(),
        fnv(report.to_json(5).to_string().as_bytes()),
        report.state_hash,
        reads.finish(),
        sum.user.as_ns(),
        sum.barrier.as_ns(),
        sum.fault.as_ns(),
        sum.lock.as_ns(),
        sum.idle.as_ns(),
        sum.clock.as_ns(),
    )
}

#[test]
fn random_programs_match_recorded_reports() {
    let mut rng = SimRng::seed_from(0xACCE_55ED);
    let mut actual = String::new();
    for (nodes, tpn) in [(2, 2), (3, 1)] {
        for protocol in ProtocolKind::ALL {
            for variant in Variant::ALL {
                for case in 0..2 {
                    let seed = rng.next_u64();
                    let phases = 3 + rng.below(3) as usize;
                    let ops = 30 + rng.below(60) as usize;
                    let tag = format!(
                        "{nodes}x{tpn} {} {} #{case}",
                        protocol.slug(),
                        variant.name()
                    );
                    let (report, seen) =
                        run_program(nodes, tpn, protocol, variant, seed, phases, ops);
                    assert_eq!(seen.len(), nodes * tpn, "{tag}: every thread reported");
                    assert!(!report.degraded(), "{tag}: clean run");
                    assert_eq!(
                        report.steps.is_some(),
                        matches!(variant, Variant::Steps),
                        "{tag}: step log present iff requested"
                    );
                    writeln!(actual, "{}", describe(&tag, &report, &seen)).expect("string write");
                }
            }
        }
    }
    if actual != GOLDENS {
        let first = GOLDENS
            .lines()
            .zip(actual.lines())
            .find(|(want, got)| want != got)
            .map_or_else(
                || "the case count changed".to_owned(),
                |(want, got)| format!("first difference:\n  recorded {want}\n  now      {got}"),
            );
        panic!("{first}\nthe full table now is:\n{actual}");
    }
}
