//! E4 — Figure 3: why speculative flooding is needed.
//!
//! The paper's scenario: a node A's partial sum is blocked by its parent's
//! critical failure, so A must flood it — but A (and its surroundings) die
//! *right before A's flooding round*. A's children D and E cannot wait to
//! find out whether A's flood happened; they flood speculatively one round
//! later, and the root recovers their partial sums.
//!
//! Topology (backup paths keep D and E root-connected after the deaths):
//!
//! ```text
//!        0 (root)
//!       /|   \
//!      1 5    7
//!      |       \
//!      2 (A)    6
//!     / \      / \
//!    3   4 ---+   |
//!    +------------+   (edges 3-6, 4-6)
//! ```

use caaf::Sum;
use ftagg::analysis::TreeView;
use ftagg::pair::AggOutcome;
use ftagg::run::run_pair_engine;
use ftagg::Instance;
use netsim::{FailureSchedule, Graph, NodeId};

fn fig3_graph() -> Graph {
    Graph::new(
        8,
        &[
            (0, 1), // root - B
            (1, 2), // B - A
            (2, 3), // A - D
            (2, 4), // A - E
            (0, 5), // root - F
            (0, 7), // root - backup relay
            (7, 6),
            (6, 3), // backup path to D
            (6, 4), // backup path to E
        ],
    )
    .unwrap()
}

#[test]
fn speculative_flooding_recovers_blocked_sums() {
    let g = fig3_graph();
    let d = u64::from(g.diameter()); // 3
    let c = 2u32;
    let cd = u64::from(c) * d;
    // Node 1 (B) is at level 1: its aggregation action round is
    // a1_end + (cd - 1 + 1); dying then makes it a critical failure, which
    // blocks A's partial sum from ever reaching the root through the tree.
    let b_action = (2 * cd + 1) + (cd - 1 + 1);
    // Node 2 (A) is at level 2: its speculative flooding round is
    // a3_start + level = (4cd + 2) + 1 + 2. Dying exactly then kills the
    // flood before it leaves A.
    let a_flood = (4 * cd + 2) + 1 + 2;
    let mut s = FailureSchedule::none();
    s.crash(NodeId(1), b_action);
    s.crash(NodeId(2), a_flood);

    let inputs = vec![1u64, 2, 4, 8, 16, 32, 64, 128];
    let inst = Instance::new(g, NodeId(0), inputs, s, 128).unwrap();
    // f = edges incident to {1, 2} = (0,1),(1,2),(2,3),(2,4) = 4.
    assert_eq!(inst.edge_failures(), 4);

    let t = 4; // tolerate all of them: Theorems 4 & 7 apply in full
    let (eng, params) = run_pair_engine(&Sum, &inst, c, t, true);
    let root = eng.node(NodeId(0));

    // Tree sanity: A under B, D/E under A.
    let tree = TreeView::from_engine(&eng, NodeId(0));
    assert_eq!(tree.parent(NodeId(2)), Some(NodeId(1)));
    assert_eq!(tree.parent(NodeId(3)), Some(NodeId(2)));
    assert_eq!(tree.parent(NodeId(4)), Some(NodeId(2)));

    // The speculative recovery: D's and E's partial sums must have been
    // flooded (A's own flood never left A) and labeled compulsory.
    let psums = root.flooded_psums_seen();
    assert!(psums.contains_key(&NodeId(3)), "D's partial sum must reach the root");
    assert!(psums.contains_key(&NodeId(4)), "E's partial sum must reach the root");
    assert!(!psums.contains_key(&NodeId(2)), "A died before its flood left");
    assert!(root.compulsory_seen().contains(&NodeId(3)));
    assert!(root.compulsory_seen().contains(&NodeId(4)));

    // ≤ t edge failures ⟹ no abort, correct result, VERI true.
    match root.agg_outcome() {
        AggOutcome::Result(v) => {
            let iv = inst.correct_interval(&Sum, params.total_rounds());
            assert!(iv.contains(v), "result {v} outside {iv:?}");
            // D (4), E (8... wait inputs: node3=8, node4=16) and every
            // live node must be included: only 1's and 2's inputs (2, 4)
            // may be dropped.
            let full: u64 = inst.inputs.iter().sum();
            assert!(v >= full - 2 - 4, "live inputs were lost: {v} < {}", full - 6);
        }
        AggOutcome::Aborted => panic!("≤ t failures must not abort (Theorem 4)"),
    }
    assert!(root.veri_verdict(), "≤ t failures ⟹ VERI true (Theorem 7)");
}

#[test]
fn without_speculation_window_sums_survive_via_parent_flood() {
    // Control run: B still dies critically, but A survives and floods; D
    // and E then stay silent (they hear A's flood), showing the "no
    // excessive floodings" property.
    let g = fig3_graph();
    let d = u64::from(g.diameter());
    let c = 2u32;
    let cd = u64::from(c) * d;
    let b_action = (2 * cd + 1) + (cd - 1 + 1);
    let mut s = FailureSchedule::none();
    s.crash(NodeId(1), b_action);

    let inputs = vec![1u64, 2, 4, 8, 16, 32, 64, 128];
    let inst = Instance::new(g, NodeId(0), inputs, s, 128).unwrap();
    let t = 2;
    let (eng, params) = run_pair_engine(&Sum, &inst, c, t, true);
    let root = eng.node(NodeId(0));

    let psums = root.flooded_psums_seen();
    assert!(psums.contains_key(&NodeId(2)), "A floods its blocked sum");
    assert!(!psums.contains_key(&NodeId(3)), "D hears A and stays silent");
    assert!(!psums.contains_key(&NodeId(4)), "E hears A and stays silent");

    match root.agg_outcome() {
        AggOutcome::Result(v) => {
            assert!(inst.correct_interval(&Sum, params.total_rounds()).contains(v));
            // Only B's input (2) may be missing.
            let full: u64 = inst.inputs.iter().sum();
            assert!(v >= full - 2);
        }
        AggOutcome::Aborted => panic!("2 edge failures ≤ t must not abort"),
    }
    assert!(root.veri_verdict());
}
