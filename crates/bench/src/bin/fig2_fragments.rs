//! E3 — regenerates **Figure 2**: the fragment decomposition of an
//! aggregation tree under visible critical failures.
//!
//! Reconstructs the paper's example shape (a tree split into fragments by
//! critical failures), prints the fragments, and then validates the
//! decomposition's defining property on randomized executions: a node's
//! partial sum never includes inputs from outside its fragment.

use caaf::Sum;
use ftagg::analysis::{critical_failures, fragments, TreeView};
use ftagg::run::run_pair_engine;
use ftagg::Instance;
use ftagg_bench::Table;
use netsim::{topology, FailureSchedule, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let c = 2u32;

    // A binary tree with two mid-tree critical failures, mirroring the
    // paper's illustration.
    let g = topology::binary_tree(15);
    let d = u64::from(g.diameter());
    let cd = u64::from(c) * d;
    let mut s = FailureSchedule::none();
    // Nodes 1 (level 1) and 6 (level 2) die right before their aggregation
    // actions: both become critical failures.
    s.crash(NodeId(1), (2 * cd + 1) + (cd - 1 + 1));
    s.crash(NodeId(6), (2 * cd + 1) + (cd - 2 + 1));
    let inst = Instance::new(g, NodeId(0), (1..=15).collect(), s, 15).unwrap();

    let (eng, params) = run_pair_engine(&Sum, &inst, c, 3, true);
    let tree = TreeView::from_engine(&eng, NodeId(0));
    let visible = eng.node(NodeId(0)).critical_failures_seen().clone();
    let truth = critical_failures(&tree, &inst.schedule, &params);
    println!("Figure 2 — fragments of the aggregation tree\n");
    println!("critical failures (ground truth): {truth:?}");
    println!("critical failures (visible at root): {visible:?}\n");

    let frags = fragments(&tree, &visible);
    let mut t = Table::new(vec!["fragment", "local root", "members"]);
    for (id, &lr) in frags.local_roots.iter().enumerate() {
        let members: Vec<String> = inst
            .graph
            .nodes()
            .filter(|v| frags.fragment_of[v.index()] == Some(id))
            .map(|v| v.to_string())
            .collect();
        t.row(vec![id.to_string(), lr.to_string(), members.join(" ")]);
    }
    t.print();

    // Property validation on random trees: partial sums stay in-fragment.
    println!("\nvalidating: partial sums never cross fragment boundaries…");
    let mut checked_nodes = 0usize;
    for trial in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(trial);
        let g = topology::random_tree(18, &mut rng);
        let d = u64::from(g.diameter().max(1));
        let cd = u64::from(c) * d;
        let mut s = FailureSchedule::none();
        for _ in 0..rng.gen_range(0..3) {
            let v = rng.gen_range(1..18u32);
            // Die somewhere inside the aggregation phase.
            s.crash(NodeId(v), 2 * cd + 1 + rng.gen_range(1..=cd));
        }
        let inputs: Vec<u64> = (0..18).map(|i| 1 << (i % 10)).collect();
        let inst = Instance::new(g, NodeId(0), inputs.clone(), s, 1 << 10).unwrap();
        let (eng, params) = run_pair_engine(&Sum, &inst, c, 2, true);
        let tree = TreeView::from_engine(&eng, NodeId(0));
        let visible = eng.node(NodeId(0)).critical_failures_seen().clone();
        let frags = fragments(&tree, &visible);
        let _ = params;
        // Every node's psum must be a sum of inputs of its own fragment's
        // members (descendants only, but fragment containment is the
        // property Figure 2 is about).
        for v in inst.graph.nodes() {
            let snap = eng.node(v).snapshot();
            if !snap.activated {
                continue;
            }
            let frag = frags.fragment_of[v.index()];
            let in_frag_sum: u64 = inst
                .graph
                .nodes()
                .filter(|w| frags.fragment_of[w.index()] == frag)
                .map(|w| inputs[w.index()])
                .sum();
            assert!(
                snap.psum <= in_frag_sum,
                "trial {trial}: node {v} psum {} exceeds its fragment total {in_frag_sum}",
                snap.psum
            );
            checked_nodes += 1;
        }
    }
    println!("ok — {checked_nodes} node partial sums checked against fragment totals");
}
