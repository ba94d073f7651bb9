//! E4 — regenerates **Figure 3**: the speculative-flooding scenario.
//!
//! Reconstructs the paper's worked example — a node's partial sum is
//! blocked, the node dies *right before* its own recovery flood, and its
//! children must have flooded speculatively for the root to recover their
//! sums — and prints the message-level evidence.

use caaf::Sum;
use ftagg::pair::AggOutcome;
use ftagg::run::run_pair_engine;
use ftagg::Instance;
use ftagg_bench::Table;
use netsim::{FailureSchedule, Graph, NodeId};

fn main() {
    // Topology: root 0; chain 0-1-2 (1 = "B", 2 = "A"); A's children D=3,
    // E=4; F=5 a direct child of the root; 6,7 form a backup path keeping
    // D and E root-connected after B and A die.
    let g =
        Graph::new(8, &[(0, 1), (1, 2), (2, 3), (2, 4), (0, 5), (0, 7), (7, 6), (6, 3), (6, 4)])
            .unwrap();
    let c = 2u32;
    let cd = u64::from(c) * u64::from(g.diameter());
    let b_action = (2 * cd + 1) + (cd - 1 + 1); // B's aggregation round
    let a_flood = (4 * cd + 2) + 1 + 2; // A's speculative flooding round

    let mut s = FailureSchedule::none();
    s.crash(NodeId(1), b_action); // B: critical failure, blocks A's psum
    s.crash(NodeId(2), a_flood); // A: dies right before its own flood

    let inputs = vec![1u64, 2, 4, 8, 16, 32, 64, 128];
    let inst = Instance::new(g, NodeId(0), inputs, s, 128).unwrap();
    let t = 4; // = f, so Theorems 4 and 7 apply in full

    println!("Figure 3 — why speculative flooding is needed\n");
    println!("B (node 1) dies at round {b_action} (its aggregation action):");
    println!("  -> A's partial sum is blocked and must be flooded.");
    println!("A (node 2) dies at round {a_flood} (its own flooding round):");
    println!("  -> D (3) and E (4) cannot wait to see whether A's flood");
    println!("     happened; they flood speculatively one round later.\n");

    let (eng, params) = run_pair_engine(&Sum, &inst, c, t, true);
    let root = eng.node(NodeId(0));

    let mut tab = Table::new(vec!["source", "flooded psum", "labeled compulsory"]);
    for (src, psum) in root.flooded_psums_seen() {
        tab.row(vec![
            src.to_string(),
            psum.to_string(),
            root.compulsory_seen().contains(src).to_string(),
        ]);
    }
    tab.print();

    match root.agg_outcome() {
        AggOutcome::Result(v) => {
            let iv = inst.correct_interval(&Sum, params.total_rounds());
            println!("\nAGG result = {v} (correct interval {:?})", (iv.lo, iv.hi));
            assert!(iv.contains(v));
            assert!(v >= 255 - 2 - 4, "live inputs were lost");
        }
        AggOutcome::Aborted => panic!("≤ t failures must not abort"),
    }
    println!("VERI verdict = {}", root.veri_verdict());
    assert!(root.veri_verdict());
    assert!(root.flooded_psums_seen().contains_key(&NodeId(3)));
    assert!(root.flooded_psums_seen().contains_key(&NodeId(4)));
    assert!(!root.flooded_psums_seen().contains_key(&NodeId(2)));
    println!("\nok — D's and E's speculative floods reached the root; A's never left.");
}
