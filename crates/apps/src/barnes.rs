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

/// A private octree node. An internal node's eight children sit side by
/// side in the tree's arena, octant `k` at `first + k`.
#[derive(Debug, Clone, Copy)]
enum Cell {
    Empty,
    Body {
        pos: [f64; 3],
        mass: f64,
    },
    Internal {
        first: u32,
        com: [f64; 3],
        mass: f64,
        half: f64,
    },
}

/// A fully built private octree: every cell in one arena, the root at
/// index 0, children always after their parent.
#[derive(Debug)]
pub struct Octree {
    cells: Vec<Cell>,
    center: [f64; 3],
    half: f64,
    inserted: usize,
}

impl Octree {
    /// Builds the tree over the given bodies.
    pub fn build(bodies: &[([f64; 3], f64)]) -> Octree {
        let mut tree = Octree {
            cells: Vec::new(),
            center: [0.0; 3],
            half: 0.0,
            inserted: 0,
        };
        tree.rebuild(bodies);
        tree
    }

    /// Replaces the tree with one over `bodies`, reusing the arena: equal
    /// to a fresh [`build`](Self::build), without returning the memory to
    /// the allocator and faulting it in again.
    pub fn rebuild(&mut self, bodies: &[([f64; 3], f64)]) {
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for (p, _) in bodies {
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
        self.cells.clear();
        self.cells.push(Cell::Empty);
        for &(p, m) in bodies {
            self.insert(p, m);
        }
        self.inserted = bodies.len();
        self.summarize();
    }

    /// Number of bodies inserted.
    pub fn len(&self) -> usize {
        self.inserted
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.inserted == 0
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

    fn insert(&mut self, pos: [f64; 3], mass: f64) {
        let (mut at, mut center, mut half, mut depth) = (0, self.center, self.half, 0);
        loop {
            match self.cells[at] {
                Cell::Empty => {
                    self.cells[at] = Cell::Body { pos, mass };
                    return;
                }
                Cell::Body {
                    pos: opos,
                    mass: omass,
                } => {
                    if depth > 60 || pos == opos {
                        // Coincident bodies: merge masses (keeps termination).
                        self.cells[at] = Cell::Body {
                            pos: opos,
                            mass: omass + mass,
                        };
                        return;
                    }
                    // Split: the resident body moves into its octant of
                    // the eight fresh children, then the new one descends
                    // from this cell again.
                    let first = self.cells.len();
                    self.cells.resize(first + 8, Cell::Empty);
                    self.cells[at] = Cell::Internal {
                        first: u32::try_from(first).expect("octree arena fits u32 indices"),
                        com: [0.0; 3],
                        mass: 0.0,
                        half,
                    };
                    let (idx, _) = Self::octant(center, half / 2.0, opos);
                    self.cells[first + idx] = Cell::Body {
                        pos: opos,
                        mass: omass,
                    };
                }
                Cell::Internal { first, .. } => {
                    let q = half / 2.0;
                    let (idx, ncenter) = Self::octant(center, q, pos);
                    (at, center, half, depth) = (first as usize + idx, ncenter, q, depth + 1);
                }
            }
        }
    }

    /// Fills in every internal node's mass and centre of mass. Children
    /// follow their parent in the arena, so one backward pass sees each
    /// node after all of its descendants.
    fn summarize(&mut self) {
        for at in (0..self.cells.len()).rev() {
            let Cell::Internal { first, half, .. } = self.cells[at] else {
                continue;
            };
            let mut m = 0.0;
            let mut c = [0.0; 3];
            for ch in &self.cells[first as usize..first as usize + 8] {
                let (cc, cm) = match *ch {
                    Cell::Empty => ([0.0; 3], 0.0),
                    Cell::Body { pos, mass } => (pos, mass),
                    Cell::Internal { com, mass, .. } => (com, mass),
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
            self.cells[at] = Cell::Internal {
                first,
                com: c,
                mass: m,
                half,
            };
        }
    }

    /// Gravitational acceleration on `pos` via θ-criterion traversal.
    /// Returns `(accel, interactions)`.
    pub fn force(&self, pos: [f64; 3], theta: f64) -> ([f64; 3], u64) {
        let mut acc = [0.0; 3];
        let mut count = 0;
        self.force_walk(0, pos, theta, &mut acc, &mut count);
        (acc, count)
    }

    fn force_walk(
        &self,
        at: usize,
        pos: [f64; 3],
        theta: f64,
        acc: &mut [f64; 3],
        count: &mut u64,
    ) {
        const EPS2: f64 = 1e-4;
        match &self.cells[at] {
            Cell::Empty => {}
            Cell::Body { pos: p, mass: m } => {
                let d = [p[0] - pos[0], p[1] - pos[1], p[2] - pos[2]];
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + EPS2;
                if r2 > EPS2 * 1.0001 || d != [0.0, 0.0, 0.0] {
                    let inv = m / (r2 * r2.sqrt());
                    for k in 0..3 {
                        acc[k] += d[k] * inv;
                    }
                    *count += 1;
                }
            }
            Cell::Internal {
                first,
                com,
                mass,
                half: chalf,
            } => {
                let d = [com[0] - pos[0], com[1] - pos[1], com[2] - pos[2]];
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + EPS2;
                let size = 2.0 * chalf;
                if size * size < theta * theta * r2 {
                    let inv = mass / (r2 * r2.sqrt());
                    for k in 0..3 {
                        acc[k] += d[k] * inv;
                    }
                    *count += 1;
                } else {
                    let first = *first as usize;
                    for ch in first..first + 8 {
                        self.force_walk(ch, pos, theta, acc, count);
                    }
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

    // One body buffer and one tree arena for the whole run: a thread
    // faults their memory in once, not once a step.
    let mut bodies = vec![([0.0f64; 3], 0.0f64); n];
    let mut tree = Octree::build(&[]);
    for _step in 0..cfg.steps {
        // Phase 1: read all bodies (the remote traffic) and build a
        // private tree — the paper's privatized (`g`) tree build. Each
        // thread starts fetching at its own partition and wraps, so
        // co-located threads touch different pages at any instant and
        // their remote faults overlap instead of piling onto one page.
        for k in 0..n {
            let i = (lo + k) % n;
            let p = [
                a.pos.read(ctx, 3 * i),
                a.pos.read(ctx, 3 * i + 1),
                a.pos.read(ctx, 3 * i + 2),
            ];
            bodies[i] = (p, a.mass.read(ctx, i));
        }
        tree.rebuild(&bodies);
        charge_flops(ctx, (n as u64) * 20); // tree construction
        ctx.barrier(); // position snapshot complete before anyone updates

        // Phase 2: forces + integration for owned bodies only.
        for i in lo..hi {
            let (acc, inter) = tree.force(bodies[i].0, cfg.theta);
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
