//! Topology generators for the experiment harness.
//!
//! The paper imposes no restriction on the (connected) topology `G`, and its
//! bounds are over the worst case. The experiments therefore sweep several
//! structurally different families: low-diameter (star, complete), balanced
//! (grid, torus, random trees), high-diameter (path, cycle), and the
//! adversarial tail shapes (caterpillar, broom, lollipop) where blocked
//! partial sums and long failure chains actually arise.

use crate::graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// A path `0 - 1 - ... - n-1` (diameter `n-1`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n > 0, "path needs at least one node");
    let edges: Vec<(u32, u32)> = (0..n.saturating_sub(1) as u32).map(|i| (i, i + 1)).collect();
    Graph::new(n, &edges).expect("path edges are valid")
}

/// A cycle over `n >= 3` nodes (diameter `n/2`).
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least three nodes");
    let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    edges.push((n as u32 - 1, 0));
    Graph::new(n, &edges).expect("cycle edges are valid").with_diameter(n as u32 / 2)
}

/// A star with center 0 and `n-1` leaves (diameter 2).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Graph {
    assert!(n > 0, "star needs at least one node");
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (0, i)).collect();
    Graph::new(n, &edges).expect("star edges are valid")
}

/// The complete graph `K_n` (diameter 1).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: usize) -> Graph {
    assert!(n > 0, "complete graph needs at least one node");
    let mut edges = Vec::new();
    for a in 0..n as u32 {
        for b in a + 1..n as u32 {
            edges.push((a, b));
        }
    }
    Graph::new(n, &edges).expect("complete edges are valid")
}

/// A `rows x cols` grid; node `(r, c)` has index `r * cols + c`.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let i = (r * cols + c) as u32;
            if c + 1 < cols {
                edges.push((i, i + 1));
            }
            if r + 1 < rows {
                edges.push((i, i + cols as u32));
            }
        }
    }
    Graph::new(rows * cols, &edges).expect("grid edges are valid")
}

/// A `rows x cols` torus (grid with wraparound links; diameter
/// `rows/2 + cols/2`, rounded down each).
///
/// # Panics
///
/// Panics if either dimension is `< 3` (wrap links would duplicate edges).
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus dimensions must be >= 3");
    let mut edges = Vec::new();
    let id = |r: usize, c: usize| (r * cols + c) as u32;
    for r in 0..rows {
        for c in 0..cols {
            edges.push((id(r, c), id(r, (c + 1) % cols)));
            edges.push((id(r, c), id((r + 1) % rows, c)));
        }
    }
    let d = rows / 2 + cols / 2;
    Graph::new(rows * cols, &edges).expect("torus edges are valid").with_diameter(d as u32)
}

/// A complete binary tree with `n` nodes, rooted at 0 (node `i`'s children
/// are `2i+1` and `2i+2`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn binary_tree(n: usize) -> Graph {
    assert!(n > 0, "binary tree needs at least one node");
    let mut edges = Vec::new();
    for i in 1..n as u32 {
        edges.push(((i - 1) / 2, i));
    }
    Graph::new(n, &edges).expect("binary tree edges are valid")
}

/// A caterpillar: a spine path of `spine` nodes, each carrying `legs` leaf
/// nodes. Total `spine * (1 + legs)` nodes; the spine is `0..spine`.
///
/// This family is where witness logic earns its keep: killing a stretch of
/// spine nodes creates exactly the long failure chains VERI must detect.
///
/// # Panics
///
/// Panics if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine > 0, "caterpillar needs a spine");
    let mut edges: Vec<(u32, u32)> = (0..spine as u32 - 1).map(|i| (i, i + 1)).collect();
    let mut next = spine as u32;
    for s in 0..spine as u32 {
        for _ in 0..legs {
            edges.push((s, next));
            next += 1;
        }
    }
    Graph::new(spine * (1 + legs), &edges).expect("caterpillar edges are valid")
}

/// A broom: a path handle of `handle` nodes ending in a star of `bristles`
/// leaves. Node 0 is the far handle end (natural root placement), node
/// `handle - 1` is the star center.
///
/// # Panics
///
/// Panics if `handle == 0`.
pub fn broom(handle: usize, bristles: usize) -> Graph {
    assert!(handle > 0, "broom needs a handle");
    let mut edges: Vec<(u32, u32)> = (0..handle as u32 - 1).map(|i| (i, i + 1)).collect();
    let center = handle as u32 - 1;
    for i in 0..bristles as u32 {
        edges.push((center, handle as u32 + i));
    }
    Graph::new(handle + bristles, &edges).expect("broom edges are valid")
}

/// A lollipop: a clique of `clique` nodes with a path tail of `tail` nodes
/// hanging off clique node 0. Tail nodes are `clique..clique+tail`.
///
/// # Panics
///
/// Panics if `clique == 0`.
pub fn lollipop(clique: usize, tail: usize) -> Graph {
    assert!(clique > 0, "lollipop needs a clique");
    let mut edges = Vec::new();
    for a in 0..clique as u32 {
        for b in a + 1..clique as u32 {
            edges.push((a, b));
        }
    }
    let mut prev = 0u32;
    for i in 0..tail as u32 {
        let v = clique as u32 + i;
        edges.push((prev, v));
        prev = v;
    }
    Graph::new(clique + tail, &edges).expect("lollipop edges are valid")
}

/// A `dim`-dimensional hypercube (`2^dim` nodes, diameter `dim`).
///
/// # Panics
///
/// Panics if `dim == 0` or `dim > 20`.
pub fn hypercube(dim: u32) -> Graph {
    assert!((1..=20).contains(&dim), "dimension must be in 1..=20");
    let n = 1usize << dim;
    let mut edges = Vec::with_capacity(n * dim as usize / 2);
    for v in 0..n as u32 {
        for b in 0..dim {
            let w = v ^ (1 << b);
            if v < w {
                edges.push((v, w));
            }
        }
    }
    Graph::new(n, &edges).expect("hypercube edges are valid").with_diameter(dim)
}

/// A wheel: a hub (node 0) connected to every node of an outer cycle
/// (`n - 1` rim nodes). Diameter 2; rim failures never disconnect it.
///
/// # Panics
///
/// Panics if `n < 4`.
pub fn wheel(n: usize) -> Graph {
    assert!(n >= 4, "wheel needs a hub and at least 3 rim nodes");
    let rim = n - 1;
    let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (0, i)).collect();
    for i in 0..rim as u32 {
        edges.push((1 + i, 1 + (i + 1) % rim as u32));
    }
    Graph::new(n, &edges).expect("wheel edges are valid")
}

/// A barbell: two cliques of `k` nodes joined by a path of `bridge`
/// nodes. Clique A is `0..k`, the bridge is `k..k+bridge`, clique B is
/// `k+bridge..2k+bridge`. The classic low-conductance shape.
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn barbell(k: usize, bridge: usize) -> Graph {
    assert!(k >= 2, "barbell cliques need at least 2 nodes");
    let n = 2 * k + bridge;
    let mut edges = Vec::new();
    for a in 0..k as u32 {
        for b in a + 1..k as u32 {
            edges.push((a, b));
        }
    }
    let off = (k + bridge) as u32;
    for a in 0..k as u32 {
        for b in a + 1..k as u32 {
            edges.push((off + a, off + b));
        }
    }
    // Chain: clique A's node k-1 — bridge — clique B's node off.
    let mut prev = k as u32 - 1;
    for i in 0..bridge as u32 {
        edges.push((prev, k as u32 + i));
        prev = k as u32 + i;
    }
    edges.push((prev, off));
    Graph::new(n, &edges).expect("barbell edges are valid")
}

/// The complete bipartite graph `K_{a,b}` (left part `0..a`, right part
/// `a..a+b`).
///
/// # Panics
///
/// Panics if either side is empty.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    assert!(a > 0 && b > 0, "both sides must be non-empty");
    let mut edges = Vec::with_capacity(a * b);
    for x in 0..a as u32 {
        for y in 0..b as u32 {
            edges.push((x, a as u32 + y));
        }
    }
    Graph::new(a + b, &edges).expect("bipartite edges are valid")
}

/// A uniformly random labeled tree over `n` nodes (via a random Prüfer
/// sequence).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree<R: Rng>(n: usize, rng: &mut R) -> Graph {
    assert!(n > 0, "tree needs at least one node");
    if n == 1 {
        return Graph::new(1, &[]).expect("single node");
    }
    if n == 2 {
        return Graph::new(2, &[(0, 1)]).expect("two nodes");
    }
    let prufer: Vec<u32> = (0..n - 2).map(|_| rng.gen_range(0..n as u32)).collect();
    let mut degree = vec![1u32; n];
    for &p in &prufer {
        degree[p as usize] += 1;
    }
    let mut edges = Vec::with_capacity(n - 1);
    // Min-leaf extraction: classic O(n log n) Prüfer decoding.
    let mut leaves: std::collections::BTreeSet<u32> =
        (0..n as u32).filter(|&v| degree[v as usize] == 1).collect();
    for &p in &prufer {
        let leaf = *leaves.iter().next().expect("a leaf always exists");
        leaves.remove(&leaf);
        edges.push((leaf, p));
        degree[p as usize] -= 1;
        if degree[p as usize] == 1 {
            leaves.insert(p);
        }
    }
    let mut it = leaves.iter();
    let a = *it.next().expect("two leaves remain");
    let b = *it.next().expect("two leaves remain");
    edges.push((a, b));
    Graph::new(n, &edges).expect("Prüfer decoding yields a valid tree")
}

/// A connected Erdős–Rényi-style graph: a random spanning tree plus each
/// remaining pair independently with probability `p`.
///
/// Plain `G(n, p)` may be disconnected, which the model disallows; seeding
/// with a random tree guarantees connectivity while keeping the edge
/// distribution close to `G(n, p)` for `p` above the connectivity threshold.
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not in `[0, 1]`.
pub fn connected_gnp<R: Rng>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!(n > 0, "graph needs at least one node");
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    let tree = random_tree(n, rng);
    let mut edges: Vec<(u32, u32)> = tree.edges().iter().map(|e| (e.lo().0, e.hi().0)).collect();
    let have: std::collections::HashSet<(u32, u32)> = edges.iter().copied().collect();
    for a in 0..n as u32 {
        for b in a + 1..n as u32 {
            if !have.contains(&(a, b)) && rng.gen_bool(p) {
                edges.push((a, b));
            }
        }
    }
    Graph::new(n, &edges).expect("tree plus extra edges is valid")
}

/// A random connected graph with approximately `m` edges: random spanning
/// tree plus `m - (n-1)` distinct random extra edges (when possible).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_connected_m<R: Rng>(n: usize, m: usize, rng: &mut R) -> Graph {
    assert!(n > 0, "graph needs at least one node");
    let tree = random_tree(n, rng);
    let mut edges: Vec<(u32, u32)> = tree.edges().iter().map(|e| (e.lo().0, e.hi().0)).collect();
    let mut have: std::collections::HashSet<(u32, u32)> = edges.iter().copied().collect();
    let max_edges = n * (n - 1) / 2;
    let target = m.clamp(edges.len(), max_edges);
    // Rejection sampling is fine here: experiments stay far below density 1.
    let mut attempts = 0usize;
    while edges.len() < target && attempts < 64 * max_edges {
        attempts += 1;
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if have.insert(key) {
            edges.push(key);
        }
    }
    Graph::new(n, &edges).expect("sampled edges are valid")
}

/// The named topology families swept by the experiment harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// [`path`]
    Path,
    /// [`cycle`]
    Cycle,
    /// [`star`]
    Star,
    /// Square-ish [`grid`]
    Grid,
    /// [`binary_tree`]
    BinaryTree,
    /// [`caterpillar`] with 2 legs per spine node
    Caterpillar,
    /// [`random_tree`] (seeded)
    RandomTree,
    /// [`connected_gnp`] with p = 2 ln n / n (seeded)
    Gnp,
}

impl Family {
    /// All families, for exhaustive sweeps.
    pub const ALL: [Family; 8] = [
        Family::Path,
        Family::Cycle,
        Family::Star,
        Family::Grid,
        Family::BinaryTree,
        Family::Caterpillar,
        Family::RandomTree,
        Family::Gnp,
    ];

    /// Instantiates the family with roughly `n` nodes (exact for most
    /// families; grid/caterpillar round to their natural sizes).
    pub fn build<R: Rng>(self, n: usize, rng: &mut R) -> Graph {
        match self {
            Family::Path => path(n),
            Family::Cycle => cycle(n.max(3)),
            Family::Star => star(n),
            Family::Grid => {
                let side = (n as f64).sqrt().round().max(1.0) as usize;
                grid(side, side)
            }
            Family::BinaryTree => binary_tree(n),
            Family::Caterpillar => caterpillar((n / 3).max(1), 2),
            Family::RandomTree => random_tree(n, rng),
            Family::Gnp => {
                let p = (2.0 * (n.max(2) as f64).ln() / n.max(2) as f64).min(1.0);
                connected_gnp(n, p, rng)
            }
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Family::Path => "path",
            Family::Cycle => "cycle",
            Family::Star => "star",
            Family::Grid => "grid",
            Family::BinaryTree => "binary-tree",
            Family::Caterpillar => "caterpillar",
            Family::RandomTree => "random-tree",
            Family::Gnp => "gnp",
        };
        f.write_str(name)
    }
}

/// Randomly relabels the nodes of a graph (preserving structure), keeping
/// `fixed` at its original id. Useful to decouple protocol id-order from
/// topology structure in property tests.
pub fn relabel_preserving<R: Rng>(g: &Graph, fixed: NodeId, rng: &mut R) -> Graph {
    let n = g.len();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(rng);
    // Swap so that `fixed` maps to itself.
    let pos = perm.iter().position(|&x| x == fixed.0).expect("fixed id present");
    perm.swap(pos, fixed.index());
    let edges: Vec<(u32, u32)> =
        g.edges().iter().map(|e| (perm[e.lo().index()], perm[e.hi().index()])).collect();
    Graph::new(n, &edges).expect("relabeling preserves validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_shape() {
        let g = path(6);
        assert_eq!(g.len(), 6);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.diameter(), 5);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(7);
        assert_eq!(g.edge_count(), 7);
        assert_eq!(g.diameter(), 3);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
    }

    #[test]
    fn star_shape() {
        let g = star(9);
        assert_eq!(g.degree(NodeId(0)), 8);
        assert_eq!(g.diameter(), 2);
    }

    #[test]
    fn complete_shape() {
        let g = complete(5);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.diameter(), 1);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.len(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4);
        assert_eq!(g.diameter(), 5);
    }

    #[test]
    fn torus_shape() {
        let g = torus(4, 4);
        assert_eq!(g.len(), 16);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert_eq!(g.diameter(), 4);
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(7);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.diameter(), 4);
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(4, 2);
        assert_eq!(g.len(), 12);
        assert!(g.is_connected());
        // Spine interior nodes: 2 spine edges + 2 legs.
        assert_eq!(g.degree(NodeId(1)), 4);
    }

    #[test]
    fn broom_shape() {
        let g = broom(5, 3);
        assert_eq!(g.len(), 8);
        assert_eq!(g.degree(NodeId(4)), 4); // center: 1 handle + 3 bristles
        assert_eq!(g.diameter(), 5); // far handle end to any bristle
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(4, 3);
        assert_eq!(g.len(), 7);
        assert!(g.is_connected());
        assert_eq!(g.degree(NodeId(0)), 4); // clique + tail attachment
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4);
        assert_eq!(g.len(), 16);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert_eq!(g.diameter(), 4);
        assert_eq!(g.edge_count(), 16 * 4 / 2);
    }

    #[test]
    fn wheel_shape() {
        let g = wheel(8);
        assert_eq!(g.degree(NodeId(0)), 7);
        assert!(g.nodes().skip(1).all(|v| g.degree(v) == 3));
        assert_eq!(g.diameter(), 2);
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(4, 3);
        assert_eq!(g.len(), 11);
        assert!(g.is_connected());
        // Far corner of A -> clique exit (1) -> 3 bridge hops + 1 into B
        // -> far corner of B (1): bridge + 3 total.
        assert_eq!(g.diameter(), 3 + 3);
        assert_eq!(g.degree(NodeId(4)), 2); // bridge node
    }

    #[test]
    fn barbell_without_bridge_nodes() {
        let g = barbell(3, 0);
        assert_eq!(g.len(), 6);
        assert!(g.is_connected());
        assert!(g.has_edge(NodeId(2), NodeId(3)));
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.len(), 7);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(g.diameter(), 2);
        assert!(!g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(0), NodeId(3)));
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 3, 10, 50] {
            let g = random_tree(n, &mut rng);
            assert_eq!(g.len(), n);
            assert_eq!(g.edge_count(), n.saturating_sub(1));
            assert!(g.is_connected());
        }
    }

    #[test]
    fn connected_gnp_is_connected() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..5 {
            let g = connected_gnp(40, 0.05, &mut rng);
            assert!(g.is_connected());
            assert!(g.edge_count() >= 39);
        }
    }

    #[test]
    fn random_connected_m_hits_target() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_connected_m(30, 60, &mut rng);
        assert!(g.is_connected());
        assert_eq!(g.edge_count(), 60);
    }

    #[test]
    fn families_build_connected() {
        let mut rng = StdRng::seed_from_u64(99);
        for fam in Family::ALL {
            let g = fam.build(25, &mut rng);
            assert!(g.is_connected(), "{fam} should be connected");
            assert!(g.len() >= 9, "{fam} too small: {}", g.len());
        }
    }

    #[test]
    fn relabel_preserves_structure() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = grid(3, 3);
        let h = relabel_preserving(&g, NodeId(0), &mut rng);
        assert_eq!(h.len(), g.len());
        assert_eq!(h.edge_count(), g.edge_count());
        assert_eq!(h.diameter(), g.diameter());
        // Degree multiset preserved.
        let mut dg: Vec<_> = g.nodes().map(|v| g.degree(v)).collect();
        let mut dh: Vec<_> = h.nodes().map(|v| h.degree(v)).collect();
        dg.sort_unstable();
        dh.sort_unstable();
        assert_eq!(dg, dh);
    }
}
