//! `Graph::diameter` and `Graph::residual_diameter` are exact. They agree
//! with all-pairs BFS on every connected graph on up to six nodes, and the
//! residual diameter agrees on every connected graph on up to five nodes
//! for every root and every removed set. Seeded random and structured
//! families up to about 80 nodes, with random removals, agree too. A clone
//! of a graph that has computed `d` equals a fresh build, and a
//! disconnected graph panics on every `diameter` call.

use netsim::{topology, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// All-pairs BFS: the largest distance between two nodes of the component
/// of `root` once `removed` is deleted, or `None` when `root` is removed.
fn all_pairs(g: &Graph, root: NodeId, removed: &[NodeId]) -> Option<u32> {
    let from_root = g.bfs_distances_avoiding(root, removed);
    from_root[root.index()]?;
    g.nodes()
        .filter(|v| from_root[v.index()].is_some())
        .map(|v| g.bfs_distances_avoiding(v, removed).into_iter().flatten().max().unwrap_or(0))
        .max()
}

/// Every labelled graph on `n` nodes, in edge-mask order.
fn every_graph(n: u32) -> impl Iterator<Item = Graph> {
    let pairs: Vec<(u32, u32)> = (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).collect();
    (0u32..1 << pairs.len()).map(move |mask| {
        let edges: Vec<(u32, u32)> =
            pairs.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1).map(|(_, &e)| e).collect();
        Graph::new(n as usize, &edges).expect("distinct pairs in range")
    })
}

#[test]
fn diameter_is_exact_on_every_connected_graph_up_to_six_nodes() {
    let mut checked = 0;
    for n in 1..=6 {
        for g in every_graph(n).filter(Graph::is_connected) {
            assert_eq!(Some(g.diameter()), all_pairs(&g, NodeId(0), &[]), "{:?}", g.edges());
            checked += 1;
        }
    }
    // Connected labelled graphs on 1..=6 nodes: 1 + 1 + 4 + 38 + 728 + 26,704.
    assert_eq!(checked, 27_476);
}

#[test]
fn residual_diameter_is_exact_for_every_root_and_removed_set_up_to_five_nodes() {
    let mut checked = 0;
    for n in 1..=5 {
        for g in every_graph(n).filter(Graph::is_connected) {
            for mask in 0u32..1 << n {
                let removed: Vec<NodeId> = g.nodes().filter(|v| mask >> v.0 & 1 == 1).collect();
                for root in g.nodes() {
                    assert_eq!(
                        g.residual_diameter(root, &removed),
                        all_pairs(&g, root, &removed),
                        "root {root:?}, removed {removed:?}, edges {:?}",
                        g.edges()
                    );
                    checked += 1;
                }
            }
        }
    }
    // Σ_n connected(n) · n · 2^n = 1·2 + 1·8 + 4·24 + 38·64 + 728·160.
    assert_eq!(checked, 119_018);
}

/// A seeded member of one of the families, at most about 80 nodes.
fn family_member(family: usize, rng: &mut StdRng) -> Graph {
    match family {
        0 => {
            let n = rng.gen_range(2..=80);
            let p = [0.03, 0.06, 0.12, 0.3][rng.gen_range(0..4usize)];
            topology::connected_gnp(n, p, rng)
        }
        // 1 × k grids are paths.
        1 => topology::grid(rng.gen_range(1..=9), rng.gen_range(1..=9)),
        2 => topology::torus(rng.gen_range(3..=9), rng.gen_range(3..=9)),
        3 => topology::hypercube(rng.gen_range(1..=6)),
        4 => topology::caterpillar(rng.gen_range(1..=30), rng.gen_range(0..=2)),
        5 => topology::binary_tree(rng.gen_range(1..=80)),
        _ => topology::cycle(rng.gen_range(3..=80)),
    }
}

#[test]
fn seeded_families_with_random_removals_match_all_pairs_bfs() {
    for family in 0..7 {
        let mut rng = StdRng::seed_from_u64(2013 + family as u64);
        for _ in 0..25 {
            let g = family_member(family, &mut rng);
            assert_eq!(Some(g.diameter()), all_pairs(&g, NodeId(0), &[]), "{:?}", g.edges());
            for _ in 0..8 {
                let q = [0.05, 0.2, 0.5][rng.gen_range(0..3usize)];
                let removed: Vec<NodeId> = g.nodes().filter(|_| rng.gen_bool(q)).collect();
                let root = NodeId(rng.gen_range(0..g.len() as u32));
                assert_eq!(
                    g.residual_diameter(root, &removed),
                    all_pairs(&g, root, &removed),
                    "root {root:?}, removed {removed:?}, edges {:?}",
                    g.edges()
                );
            }
        }
    }
}

#[test]
fn a_clone_that_carries_the_diameter_equals_a_fresh_build() {
    let fresh = topology::grid(7, 9);
    let computed = topology::grid(7, 9);
    assert_eq!(computed.diameter(), 14);
    let copy = computed.clone();
    assert_eq!(copy, fresh);
    assert_eq!(fresh, copy);
    assert_eq!(copy.diameter(), 14);
    assert_eq!(fresh.diameter(), 14);
}

#[test]
fn a_disconnected_graph_panics_on_every_diameter_call() {
    let g = Graph::new(4, &[(0, 1), (2, 3)]).expect("valid edges");
    for _ in 0..2 {
        let payload = std::panic::catch_unwind(|| g.diameter()).expect_err("no diameter");
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("a text payload");
        assert_eq!(message, "diameter undefined on disconnected graph");
    }
}
