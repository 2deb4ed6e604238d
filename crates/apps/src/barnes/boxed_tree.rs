//! The boxed octree `barnes::Octree` was before it kept its nodes in one
//! arena — one `Box<[Cell; 8]>` per internal node, bodies copied into
//! their cells, recursive insertion — kept as the reference the arena
//! tree is compared with bit for bit; and the tests of the arena's own
//! layout (slots, the owned body buffer, reuse across rebuilds).

use cvm_sim::SimRng;

use super::{init_body, Node, Octree, EMPTY, LEAF, MAX_BODIES};

/// A boxed octree node.
#[derive(Debug, Clone)]
enum Cell {
    Empty,
    Body {
        pos: [f64; 3],
        mass: f64,
    },
    Internal {
        children: Box<[Cell; 8]>,
        com: [f64; 3],
        mass: f64,
        half: f64,
    },
}

/// The boxed tree, fully built.
#[derive(Debug)]
struct BoxedTree {
    root: Cell,
    center: [f64; 3],
    half: f64,
    inserted: usize,
}

impl BoxedTree {
    /// Builds the tree over the given bodies.
    fn build(bodies: &[([f64; 3], f64)]) -> BoxedTree {
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for (p, _) in bodies {
            for d in 0..3 {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        let mut half: f64 = 1e-6;
        let mut center = [0.0; 3];
        for d in 0..3 {
            center[d] = 0.5 * (lo[d] + hi[d]);
            half = half.max(0.5 * (hi[d] - lo[d]) + 1e-9);
        }
        let mut tree = BoxedTree {
            root: Cell::Empty,
            center,
            half,
            inserted: 0,
        };
        for &(p, m) in bodies {
            let (center, half) = (tree.center, tree.half);
            Self::insert(&mut tree.root, center, half, p, m, 0);
            tree.inserted += 1;
        }
        Self::summarize(&mut tree.root);
        tree
    }

    /// Number of bodies inserted.
    fn len(&self) -> usize {
        self.inserted
    }

    fn insert(
        cell: &mut Cell,
        center: [f64; 3],
        half: f64,
        pos: [f64; 3],
        mass: f64,
        depth: usize,
    ) {
        match cell {
            Cell::Empty => {
                *cell = Cell::Body { pos, mass };
            }
            Cell::Body {
                pos: opos,
                mass: omass,
            } => {
                if depth > 60 || (pos == *opos) {
                    // Coincident bodies: merge masses (keeps termination).
                    *cell = Cell::Body {
                        pos: *opos,
                        mass: *omass + mass,
                    };
                    return;
                }
                let (op, om) = (*opos, *omass);
                let children: Box<[Cell; 8]> = Box::new([
                    Cell::Empty,
                    Cell::Empty,
                    Cell::Empty,
                    Cell::Empty,
                    Cell::Empty,
                    Cell::Empty,
                    Cell::Empty,
                    Cell::Empty,
                ]);
                *cell = Cell::Internal {
                    children,
                    com: [0.0; 3],
                    mass: 0.0,
                    half,
                };
                Self::insert(cell, center, half, op, om, depth);
                Self::insert(cell, center, half, pos, mass, depth);
            }
            Cell::Internal { children, .. } => {
                let mut idx = 0;
                let mut ncenter = center;
                let q = half / 2.0;
                for d in 0..3 {
                    if pos[d] >= center[d] {
                        idx |= 1 << d;
                        ncenter[d] += q;
                    } else {
                        ncenter[d] -= q;
                    }
                }
                Self::insert(&mut children[idx], ncenter, q, pos, mass, depth + 1);
            }
        }
    }

    fn summarize(cell: &mut Cell) -> ([f64; 3], f64) {
        match cell {
            Cell::Empty => ([0.0; 3], 0.0),
            Cell::Body { pos, mass } => (*pos, *mass),
            Cell::Internal {
                children,
                com,
                mass,
                ..
            } => {
                let mut m = 0.0;
                let mut c = [0.0; 3];
                for ch in children.iter_mut() {
                    let (cc, cm) = Self::summarize(ch);
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
                *com = c;
                *mass = m;
                (c, m)
            }
        }
    }

    /// Gravitational acceleration on `pos` via θ-criterion traversal.
    /// Returns `(accel, interactions)`.
    fn force(&self, pos: [f64; 3], theta: f64) -> ([f64; 3], u64) {
        let mut acc = [0.0; 3];
        let mut count = 0;
        Self::force_walk(&self.root, pos, theta, &mut acc, &mut count);
        (acc, count)
    }

    fn force_walk(cell: &Cell, pos: [f64; 3], theta: f64, acc: &mut [f64; 3], count: &mut u64) {
        const EPS2: f64 = 1e-4;
        match cell {
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
                children,
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
                    for ch in children.iter() {
                        Self::force_walk(ch, pos, theta, acc, count);
                    }
                }
            }
        }
    }
}

type Bodies = Vec<([f64; 3], f64)>;

/// Both trees over `bodies` answer every probe with the same bits and
/// the same interaction count.
fn assert_same(arena: &Octree, bodies: &[([f64; 3], f64)], probes: &[[f64; 3]], what: &str) {
    let boxed = BoxedTree::build(bodies);
    assert_eq!(arena.len(), boxed.len(), "{what}: len");
    assert_eq!(arena.is_empty(), bodies.is_empty(), "{what}: is_empty");
    for theta in [1e-9, 0.55, 0.7, 1.0] {
        for &p in bodies.iter().map(|(p, _)| p).chain(probes) {
            let (a, na) = arena.force(p, theta);
            let (b, nb) = boxed.force(p, theta);
            assert_eq!(
                a.map(f64::to_bits),
                b.map(f64::to_bits),
                "{what}: θ={theta} at {p:?}"
            );
            assert_eq!(na, nb, "{what}: interactions, θ={theta} at {p:?}");
        }
    }
}

fn cloud(rng: &mut SimRng, n: usize) -> Bodies {
    (0..n)
        .map(|_| {
            let p = [0, 1, 2].map(|_| rng.range_f64(-1.0, 1.0));
            (p, rng.range_f64(0.1, 2.0))
        })
        .collect()
}

const PROBES: [[f64; 3]; 3] = [[0.0; 3], [0.3, -0.7, 0.1], [5.0, 5.0, -5.0]];

#[test]
fn arena_matches_boxed_on_random_clouds() {
    let mut rng = SimRng::seed_from(0x0C7);
    for n in [2, 3, 9, 64, 300, 1000] {
        let bodies = cloud(&mut rng, n);
        assert_same(
            &Octree::build(&bodies),
            &bodies,
            &PROBES,
            &format!("cloud of {n}"),
        );
    }
    let plummer: Bodies = (0..512)
        .map(|i| init_body(i, 512))
        .map(|(p, _, m)| (p, m))
        .collect();
    assert_same(
        &Octree::build(&plummer),
        &plummer,
        &PROBES,
        "init_body cloud",
    );
}

#[test]
fn arena_matches_boxed_on_degenerate_inputs() {
    assert_same(&Octree::build(&[]), &[], &PROBES, "n = 0");
    let one = [([0.25, -0.5, 0.75], 3.0)];
    assert_same(&Octree::build(&one), &one, &PROBES, "n = 1");

    // Coincident bodies merge their masses into the first one's cell.
    let mut rng = SimRng::seed_from(0xC01);
    let mut twins = cloud(&mut rng, 40);
    for k in 0..10 {
        let (p, _) = twins[k];
        twins.push((p, 0.5 + k as f64));
    }
    assert_same(&Octree::build(&twins), &twins, &PROBES, "coincident bodies");
    assert_eq!(Octree::build(&twins).len(), 50);

    // Two distinct bodies closer than 2^-60 of the root cell stay in one
    // octant all the way down and take the `depth > 60` merge.
    let deep = [
        ([1e-300, 1e-300, 1e-300], 1.0),
        ([2e-300, 1e-300, 1e-300], 2.0),
        ([1.0, 1.0, 1.0], 4.0),
        ([-1.0, -1.0, -1.0], 8.0),
    ];
    let tree = Octree::build(&deep);
    assert_same(&tree, &deep, &PROBES, "depth > 60 merge");
    let (_, exact) = tree.force(PROBES[2], 1e-9);
    assert_eq!(exact, 3, "the close pair is one body after the merge");
}

/// Walks the tree from its root slot: every slot names a body of this
/// build or a later node, and every node in the arena is reached exactly
/// once — nothing stale hangs off the tree, nothing live is outside it.
/// Returns the number of leaves.
fn assert_well_formed(tree: &Octree, what: &str) -> usize {
    let mut seen = vec![false; tree.nodes.len()];
    let mut leaves = 0;
    let mut todo = vec![(tree.root, None)];
    while let Some((slot, parent)) = todo.pop() {
        if slot == EMPTY {
        } else if slot & LEAF != 0 {
            assert!(((slot & !LEAF) as usize) < tree.len(), "{what}: stale leaf");
            leaves += 1;
        } else {
            let at = slot as usize;
            assert!(at < tree.nodes.len(), "{what}: stale node {at}");
            assert!(parent < Some(at), "{what}: node {at} before its parent");
            assert!(
                !std::mem::replace(&mut seen[at], true),
                "{what}: {at} twice"
            );
            todo.extend(tree.nodes[at].child.map(|ch| (ch, Some(at))));
        }
    }
    assert!(seen.iter().all(|&s| s), "{what}: unreachable node");
    leaves
}

/// Same slots, same buffer, same sums, bit for bit (`f64`'s `Debug` form
/// round-trips, and tells `-0.0` from `0.0`).
fn assert_identical(a: &Octree, b: &Octree, what: &str) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
}

#[test]
fn a_node_is_64_bytes() {
    assert_eq!(std::mem::size_of::<Node>(), 64);
}

#[test]
fn rebuild_after_a_larger_tree_equals_a_fresh_build() {
    let mut rng = SimRng::seed_from(0x4EB);
    let mut tree = Octree::build(&cloud(&mut rng, 700));
    for n in [10, 120, 0, 1, 400] {
        let bodies = cloud(&mut rng, n);
        tree.rebuild(&bodies);
        let what = format!("rebuilt over {n}");
        assert_same(&tree, &bodies, &PROBES, &what);
        assert_identical(&tree, &Octree::build(&bodies), &what);
        assert_eq!(assert_well_formed(&tree, &what), n);
        assert_eq!(tree.nodes.is_empty(), n < 2, "{what}: 0 or 1 body, no node");
    }
}

/// Coincident bodies, and a pair that merges at `depth > 60`.
fn merging_bodies() -> Bodies {
    let mut bodies = cloud(&mut SimRng::seed_from(0x3E6), 60);
    for k in 0..8 {
        bodies.push((bodies[3 * k].0, 0.25 + k as f64));
    }
    bodies.push(([1e-300, 1e-300, 1e-300], 1.0));
    bodies.push(([2e-300, 1e-300, 1e-300], 2.0));
    bodies
}

#[test]
fn filling_the_owned_buffer_in_any_rotation_equals_build() {
    let mut rng = SimRng::seed_from(0x1F1);
    let mut inputs: Vec<Bodies> = [1, 2, 77, 512].map(|n| cloud(&mut rng, n)).into();
    inputs.push(merging_bodies());
    let mut tree = Octree::build(&cloud(&mut rng, 300));
    for bodies in &inputs {
        let n = bodies.len();
        let fresh = Octree::build(bodies);
        for start in [0, n / 3, n - 1, n] {
            let mut asked = Vec::new();
            tree.rebuild_with(n, start, |i| {
                asked.push(i);
                bodies[i]
            });
            let what = format!("{n} bodies filled from {start}");
            let rotated: Vec<usize> = (0..n).map(|k| (start + k) % n).collect();
            assert_eq!(asked, rotated, "{what}: fill order");
            assert_identical(&tree, &fresh, &what);
            assert_same(&tree, bodies, &PROBES, &what);
            for (i, b) in bodies.iter().enumerate() {
                assert_eq!(tree.pos(i), b.0, "{what}: pos({i})");
            }
        }
    }
}

#[test]
fn a_merged_mass_does_not_survive_into_the_next_build() {
    let bodies = merging_bodies();
    let n = bodies.len();
    let mut tree = Octree::build(&bodies);
    // The merge is in the buffer: the resident body carries both masses.
    assert_eq!(tree.bodies[0].1, bodies[0].1 + 0.25);
    assert_eq!(tree.bodies[n - 2].1, 3.0, "the depth > 60 pair");
    assert_eq!(assert_well_formed(&tree, "merged"), n - 9);
    for step in 0..3 {
        tree.rebuild_with(n, step * 7, |i| bodies[i]);
        let what = format!("rebuild {step} over merging bodies");
        assert_identical(&tree, &Octree::build(&bodies), &what);
        assert_same(&tree, &bodies, &PROBES, &what);
    }
}

#[test]
#[should_panic(expected = "a leaf slot names at most 2^31 - 1")]
fn one_body_more_than_a_slot_can_name_is_refused() {
    // Refused before anything is allocated or asked for.
    Octree::build(&[]).rebuild_with(MAX_BODIES + 1, 0, |_| unreachable!());
}

#[test]
fn the_last_nameable_body_is_not_the_empty_slot() {
    let last = u32::try_from(MAX_BODIES - 1).unwrap();
    assert_ne!(LEAF | last, EMPTY);
    assert_eq!(LEAF | (last + 1), EMPTY);
}
