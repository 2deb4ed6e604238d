//! Barnes — the gravitational N-body simulation (Barnes-Hut octree).
//!
//! This is the paper's modified SPLASH-2 Barnes: *"only barrier
//! synchronization is used; shared updates that were guarded by locks are
//! now either serialized or partitioned among the processors"*, and global
//! structures are privatized (`g`). Concretely: body state lives in shared
//! arrays; each thread reads **all** body positions every step (the
//! remote-fault traffic multi-threading hides), builds a *private* octree,
//! computes forces for its owned bodies by θ-criterion traversal, and
//! updates only its own partition — barrier-separated phases, no locks.
//!
//! The private state is host memory, one copy per application thread and
//! all of them live at once, so its layout is what a 128 × 4 run costs:
//! [`Octree`] owns the thread's one body buffer (32 bytes a body, filled
//! in place from the shared arrays each step) and an arena of internal
//! nodes only, 64 bytes each — eight `u32` child slots, centre of mass,
//! mass. A slot is empty, a tagged index into the body buffer, or the
//! index of a later node; an empty octant costs its 4 bytes, a body is
//! never copied into the tree, and a node's half-width is carried down
//! the walk instead of stored. 126 KiB a thread at 2048 bodies. The
//! arithmetic is that of the boxed tree it replaces, bit for bit
//! (`barnes/boxed_tree.rs`), so no virtual-time result depends on it.

use cvm_dsm::{CvmBuilder, SharedVec, ThreadCtx};

use crate::common::{charge_flops, chunk};
use crate::AppBody;

/// Barnes configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarnesConfig {
    /// Number of bodies.
    pub n: usize,
    /// Time steps.
    pub steps: usize,
    /// Opening criterion θ.
    pub theta: f64,
    /// Integration step.
    pub dt: f64,
}

impl BarnesConfig {
    /// Model-checker kernel: a handful of particles, one step — small
    /// enough for exhaustive schedule enumeration, large enough to cross
    /// a page boundary.
    pub fn tiny() -> Self {
        BarnesConfig {
            n: 64,
            steps: 1,
            theta: 0.55,
            dt: 0.01,
        }
    }

    /// Laptop-scale default.
    pub fn small() -> Self {
        BarnesConfig {
            n: 2048,
            steps: 3,
            theta: 0.55,
            dt: 0.01,
        }
    }

    /// The paper's 10240-particle input.
    pub fn paper() -> Self {
        BarnesConfig {
            n: 10240,
            steps: 4,
            theta: 0.7,
            dt: 0.01,
        }
    }
}

/// One body: position and mass.
pub type Body = ([f64; 3], f64);

/// A child slot with nothing in it. Tested before [`LEAF`]: it has that
/// bit set too.
const EMPTY: u32 = u32::MAX;
/// Slot tag: the other 31 bits index the body buffer, not the arena.
const LEAF: u32 = 1 << 31;
/// Most bodies a tree takes: the index after the last would read as
/// [`EMPTY`] once tagged.
const MAX_BODIES: usize = (LEAF - 1) as usize;
/// "Parent" of the root slot in [`Octree::slot`]: past any arena index.
const NO_PARENT: usize = usize::MAX;

/// An internal node of the private octree, 64 bytes: a cache line's worth
/// (not aligned to one — an over-aligned arena cannot grow in place, which
/// costs 512 threads 13 MiB of abandoned blocks). A child slot is
/// [`EMPTY`], a [`LEAF`]-tagged index into the tree's body buffer, or the
/// arena index of a later node. The half-width is not stored: `insert`
/// and `force_walk` carry it down, halving once a level.
#[derive(Debug, Clone, Copy)]
struct Node {
    child: [u32; 8],
    com: [f64; 3],
    mass: f64,
}

/// A fully built private octree: the thread's one body buffer and, over
/// it, an arena of internal nodes only — an empty octant costs its slot,
/// a body is not copied into the tree. `root` is a slot like any child,
/// so trees of zero or one body have no node.
#[derive(Debug)]
pub struct Octree {
    nodes: Vec<Node>,
    bodies: Vec<Body>,
    root: u32,
    center: [f64; 3],
    half: f64,
}

impl Octree {
    /// Builds the tree over the given bodies.
    pub fn build(bodies: &[Body]) -> Octree {
        let mut tree = Octree {
            nodes: Vec::new(),
            bodies: Vec::new(),
            root: EMPTY,
            center: [0.0; 3],
            half: 0.0,
        };
        tree.rebuild(bodies);
        tree
    }

    /// Replaces the tree with one over `bodies`: equal to a fresh
    /// [`build`](Self::build), reusing the buffer and the arena.
    pub fn rebuild(&mut self, bodies: &[Body]) {
        self.rebuild_with(bodies.len(), 0, |i| bodies[i]);
    }

    /// Replaces the tree with one over the `n` bodies `body(i)`, asked for
    /// once each in the order `start, start + 1, …` wrapping at `n`, and
    /// inserted in the order `0..n` whatever `start` is. Every entry of
    /// the buffer is rewritten, so a mass merged into a coincident body by
    /// the build before does not leak into this one.
    ///
    /// # Panics
    /// If `start > n` or `n` exceeds the 2³¹ − 1 bodies a slot can name.
    pub fn rebuild_with(&mut self, n: usize, start: usize, mut body: impl FnMut(usize) -> Body) {
        assert!(
            n <= MAX_BODIES,
            "octree over {n} bodies: a leaf slot names at most 2^31 - 1"
        );
        assert!(start <= n, "first body {start} of {n}");
        self.bodies.resize(n, ([0.0; 3], 0.0));
        for i in (start..n).chain(0..start) {
            self.bodies[i] = body(i);
        }

        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for (p, _) in &self.bodies {
            for d in 0..3 {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        self.half = 1e-6;
        for d in 0..3 {
            self.center[d] = 0.5 * (lo[d] + hi[d]);
            self.half = self.half.max(0.5 * (hi[d] - lo[d]) + 1e-9);
        }
        self.nodes.clear();
        self.root = EMPTY;
        for b in 0..n {
            self.insert(b);
        }
        self.summarize();
    }

    /// Number of bodies inserted.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
    }

    /// Position of body `i` as the last (re)build was given it.
    pub fn pos(&self, i: usize) -> [f64; 3] {
        self.bodies[i].0
    }

    /// The child octant of a cell centred at `center` that holds `pos`,
    /// and that octant's centre (`q` is the child's half-width).
    fn octant(center: [f64; 3], q: f64, pos: [f64; 3]) -> (usize, [f64; 3]) {
        let mut idx = 0;
        let mut ncenter = center;
        for d in 0..3 {
            if pos[d] >= center[d] {
                idx |= 1 << d;
                ncenter[d] += q;
            } else {
                ncenter[d] -= q;
            }
        }
        (idx, ncenter)
    }

    /// Octant `k` of node `parent`, or the root slot for [`NO_PARENT`].
    fn slot(&mut self, parent: usize, k: usize) -> &mut u32 {
        match self.nodes.get_mut(parent) {
            Some(node) => &mut node.child[k],
            None => &mut self.root,
        }
    }

    fn insert(&mut self, b: usize) {
        let (pos, mass) = self.bodies[b];
        let (mut parent, mut k) = (NO_PARENT, 0);
        let (mut center, mut half, mut depth) = (self.center, self.half, 0);
        loop {
            let slot = self.slot(parent, k);
            let at = *slot;
            if at == EMPTY {
                *slot = LEAF | b as u32; // b < MAX_BODIES
                return;
            }
            if at & LEAF != 0 {
                let resident = (at & !LEAF) as usize;
                let (opos, omass) = self.bodies[resident];
                if depth > 60 || pos == opos {
                    // Coincident bodies: merge masses (keeps termination).
                    self.bodies[resident].1 = omass + mass;
                    return;
                }
                // Split: the resident body moves into its octant of a
                // fresh node, then the new one descends from this slot
                // again.
                let fresh = u32::try_from(self.nodes.len())
                    .ok()
                    .filter(|i| i & LEAF == 0)
                    .expect("octree arena fits 31-bit indices");
                let mut node = Node {
                    child: [EMPTY; 8],
                    com: [0.0; 3],
                    mass: 0.0,
                };
                let (idx, _) = Self::octant(center, half / 2.0, opos);
                node.child[idx] = at;
                self.nodes.push(node);
                *self.slot(parent, k) = fresh;
            } else {
                let q = half / 2.0;
                let (idx, ncenter) = Self::octant(center, q, pos);
                (parent, k, center, half, depth) = (at as usize, idx, ncenter, q, depth + 1);
            }
        }
    }

    /// Fills in every node's mass and centre of mass. A node's children
    /// are later in the arena, so one backward pass sees each node after
    /// all of its descendants.
    fn summarize(&mut self) {
        for at in (0..self.nodes.len()).rev() {
            let mut m = 0.0;
            let mut c = [0.0; 3];
            for ch in self.nodes[at].child {
                let (cc, cm) = if ch == EMPTY {
                    ([0.0; 3], 0.0)
                } else if ch & LEAF != 0 {
                    self.bodies[(ch & !LEAF) as usize]
                } else {
                    let node = &self.nodes[ch as usize];
                    (node.com, node.mass)
                };
                m += cm;
                for d in 0..3 {
                    c[d] += cc[d] * cm;
                }
            }
            if m > 0.0 {
                for d in c.iter_mut() {
                    *d /= m;
                }
            }
            self.nodes[at].com = c;
            self.nodes[at].mass = m;
        }
    }

    /// Gravitational acceleration on `pos` via θ-criterion traversal.
    /// Returns `(accel, interactions)`.
    pub fn force(&self, pos: [f64; 3], theta: f64) -> ([f64; 3], u64) {
        let mut acc = [0.0; 3];
        let mut count = 0;
        self.force_walk(self.root, self.half, pos, theta, &mut acc, &mut count);
        (acc, count)
    }

    /// `half` is the half-width of the cell slot `at` covers.
    fn force_walk(
        &self,
        at: u32,
        half: f64,
        pos: [f64; 3],
        theta: f64,
        acc: &mut [f64; 3],
        count: &mut u64,
    ) {
        const EPS2: f64 = 1e-4;
        if at == EMPTY {
            return;
        }
        if at & LEAF != 0 {
            let (p, m) = self.bodies[(at & !LEAF) as usize];
            let d = [p[0] - pos[0], p[1] - pos[1], p[2] - pos[2]];
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + EPS2;
            if r2 > EPS2 * 1.0001 || d != [0.0, 0.0, 0.0] {
                let inv = m / (r2 * r2.sqrt());
                for k in 0..3 {
                    acc[k] += d[k] * inv;
                }
                *count += 1;
            }
        } else {
            let Node { child, com, mass } = &self.nodes[at as usize];
            let d = [com[0] - pos[0], com[1] - pos[1], com[2] - pos[2]];
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + EPS2;
            let size = 2.0 * half;
            if size * size < theta * theta * r2 {
                let inv = mass / (r2 * r2.sqrt());
                for k in 0..3 {
                    acc[k] += d[k] * inv;
                }
                *count += 1;
            } else {
                for &ch in child {
                    self.force_walk(ch, half / 2.0, pos, theta, acc, count);
                }
            }
        }
    }
}

/// Deterministic Plummer-ish initial condition.
fn init_body(i: usize, n: usize) -> ([f64; 3], [f64; 3], f64) {
    let f = i as f64 / n as f64;
    let a = f * 97.0;
    let b = f * 41.0 + 1.3;
    let r = 0.2 + 0.8 * ((i * 2654435761) % 1000) as f64 / 1000.0;
    let pos = [r * a.sin() * b.cos(), r * a.sin() * b.sin(), r * a.cos()];
    let vel = [-pos[1] * 0.1, pos[0] * 0.1, 0.0];
    (pos, vel, 1.0 / n as f64)
}

struct Arrays {
    pos: SharedVec<f64>,
    vel: SharedVec<f64>,
    mass: SharedVec<f64>,
    sink: SharedVec<f64>,
}

/// Builds the Barnes body.
pub fn build(b: &mut CvmBuilder, cfg: BarnesConfig) -> AppBody {
    let arrays = Arrays {
        pos: b.alloc::<f64>(3 * cfg.n),
        vel: b.alloc::<f64>(3 * cfg.n),
        mass: b.alloc::<f64>(cfg.n),
        sink: b.alloc::<f64>(2),
    };
    Box::new(move |ctx: &mut ThreadCtx<'_>| run(ctx, &cfg, &arrays))
}

fn run(ctx: &mut ThreadCtx<'_>, cfg: &BarnesConfig, a: &Arrays) {
    let n = cfg.n;
    if ctx.global_id() == 0 {
        for i in 0..n {
            let (p, v, m) = init_body(i, n);
            for d in 0..3 {
                a.pos.write(ctx, 3 * i + d, p[d]);
                a.vel.write(ctx, 3 * i + d, v[d]);
            }
            a.mass.write(ctx, i, m);
        }
        a.sink.write(ctx, 0, 0.0);
        a.sink.write(ctx, 1, 0.0);
    }
    ctx.startup_done();

    let (lo, hi) = chunk(ctx.global_id(), ctx.total_threads(), n);

    // One tree, and in it one body buffer and one arena, for the whole
    // run: a thread faults their memory in once, not once a step.
    let mut tree = Octree::build(&[]);
    for _step in 0..cfg.steps {
        // Phase 1: read all bodies (the remote traffic) and build a
        // private tree — the paper's privatized (`g`) tree build. Each
        // thread starts fetching at its own partition and wraps, so
        // co-located threads touch different pages at any instant and
        // their remote faults overlap instead of piling onto one page.
        tree.rebuild_with(n, lo, |i| {
            let p = [
                a.pos.read(ctx, 3 * i),
                a.pos.read(ctx, 3 * i + 1),
                a.pos.read(ctx, 3 * i + 2),
            ];
            (p, a.mass.read(ctx, i))
        });
        charge_flops(ctx, (n as u64) * 20); // tree construction
        ctx.barrier(); // position snapshot complete before anyone updates

        // Phase 2: forces + integration for owned bodies only.
        for i in lo..hi {
            let (acc, inter) = tree.force(tree.pos(i), cfg.theta);
            charge_flops(ctx, inter * 30);
            for d in 0..3 {
                let v = a.vel.read(ctx, 3 * i + d) + acc[d] * cfg.dt;
                a.vel.write(ctx, 3 * i + d, v);
                let p = a.pos.read(ctx, 3 * i + d) + v * cfg.dt;
                a.pos.write(ctx, 3 * i + d, p);
            }
        }
        ctx.barrier();
    }
    ctx.end_measured();

    // Validation checksum: total |p| over owned bodies, serialized through
    // a lock once at the end.
    let mut local = 0.0;
    for i in lo..hi {
        for d in 0..3 {
            local += a.pos.read(ctx, 3 * i + d).abs();
        }
    }
    ctx.acquire(2);
    let acc = a.sink.read(ctx, 0);
    a.sink.write(ctx, 0, acc + local);
    ctx.release(2);
    ctx.barrier();
    if ctx.global_id() == 0 {
        let total = a.sink.read(ctx, 0);
        assert!(total.is_finite() && total > 0.0, "Barnes diverged");
        a.sink.write(ctx, 1, total);
    }
}

/// Sequential oracle: same physics, same checksum.
pub fn oracle(cfg: &BarnesConfig) -> f64 {
    let n = cfg.n;
    let mut pos = vec![[0.0f64; 3]; n];
    let mut vel = vec![[0.0f64; 3]; n];
    let mut mass = vec![0.0f64; n];
    for i in 0..n {
        let (p, v, m) = init_body(i, n);
        pos[i] = p;
        vel[i] = v;
        mass[i] = m;
    }
    for _ in 0..cfg.steps {
        let bodies: Vec<([f64; 3], f64)> = pos.iter().copied().zip(mass.iter().copied()).collect();
        let tree = Octree::build(&bodies);
        for i in 0..n {
            let (acc, _) = tree.force(bodies[i].0, cfg.theta);
            for d in 0..3 {
                vel[i][d] += acc[d] * cfg.dt;
                pos[i][d] += vel[i][d] * cfg.dt;
            }
        }
    }
    pos.iter()
        .map(|p| p.iter().map(|x| x.abs()).sum::<f64>())
        .sum()
}

/// Runs the app and returns the checksum (tests).
pub fn checksum_of_run(cfg: &BarnesConfig, nodes: usize, threads: usize) -> f64 {
    checksum_of_config(cfg, cvm_dsm::CvmConfig::small(nodes, threads)).0
}

/// Like [`checksum_of_run`], but over an arbitrary system configuration
/// (protocol under test, jitter, …); also returns the run's report.
pub fn checksum_of_config(
    cfg: &BarnesConfig,
    dsm: cvm_dsm::CvmConfig,
) -> (f64, cvm_dsm::RunReport) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let mut b = CvmBuilder::new(dsm);
    let arrays = Arrays {
        pos: b.alloc::<f64>(3 * cfg.n),
        vel: b.alloc::<f64>(3 * cfg.n),
        mass: b.alloc::<f64>(cfg.n),
        sink: b.alloc::<f64>(2),
    };
    let out = Arc::new(AtomicU64::new(0));
    let out2 = Arc::clone(&out);
    let cfg = *cfg;
    let report = b.run(move |ctx| {
        run(ctx, &cfg, &arrays);
        if ctx.global_id() == 0 {
            out2.store(arrays.sink.read(ctx, 1).to_bits(), Ordering::SeqCst);
        }
    });
    (f64::from_bits(out.load(Ordering::SeqCst)), report)
}

#[cfg(test)]
mod boxed_tree;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::assert_close;

    #[test]
    fn tree_counts_bodies() {
        let bodies: Vec<([f64; 3], f64)> = (0..64)
            .map(|i| {
                let (p, _, m) = init_body(i, 64);
                (p, m)
            })
            .collect();
        let t = Octree::build(&bodies);
        assert_eq!(t.len(), 64);
        assert!(!t.is_empty());
    }

    #[test]
    fn low_theta_approaches_direct_sum() {
        let bodies: Vec<([f64; 3], f64)> = (0..32)
            .map(|i| {
                let (p, _, m) = init_body(i, 32);
                (p, m)
            })
            .collect();
        let t = Octree::build(&bodies);
        let target = bodies[5].0;
        // Direct O(N) sum.
        let mut direct = [0.0f64; 3];
        for &(p, m) in &bodies {
            let d = [p[0] - target[0], p[1] - target[1], p[2] - target[2]];
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + 1e-4;
            if d == [0.0, 0.0, 0.0] {
                continue;
            }
            let inv = m / (r2 * r2.sqrt());
            for k in 0..3 {
                direct[k] += d[k] * inv;
            }
        }
        let (approx, _) = t.force(target, 1e-9); // θ→0 = exact
        for k in 0..3 {
            assert_close(approx[k], direct[k], 1e-6, "direct-sum force");
        }
    }

    #[test]
    fn high_theta_does_fewer_interactions() {
        let bodies: Vec<([f64; 3], f64)> = (0..256)
            .map(|i| {
                let (p, _, m) = init_body(i, 256);
                (p, m)
            })
            .collect();
        let t = Octree::build(&bodies);
        let (_, exact) = t.force(bodies[0].0, 1e-9);
        let (_, approx) = t.force(bodies[0].0, 1.0);
        assert!(approx < exact, "θ=1 must prune ({approx} vs {exact})");
    }

    #[test]
    fn parallel_matches_oracle() {
        let cfg = BarnesConfig {
            n: 96,
            steps: 2,
            theta: 0.7,
            dt: 0.01,
        };
        let want = oracle(&cfg);
        for (nodes, threads) in [(1, 1), (2, 2)] {
            let got = checksum_of_run(&cfg, nodes, threads);
            assert_close(got, want, 1e-9, "Barnes checksum");
        }
    }
}
