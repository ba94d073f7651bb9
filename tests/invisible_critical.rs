//! §4.4 — invisible critical failures.
//!
//! A critical failure is *visible* if the root eventually sees the
//! `critical_failure` flood. If the detecting parent dies before flooding,
//! the failure stays invisible — and the paper proves (full version) that
//! then all local ancestors of the invisible failure have failed too, so
//! the speculative-flooding recovery still covers the blocked subtree.
//!
//! Construction: 6-cycle `0-1-2-3-6'-5-0` (ids 0,1,2,3,4=6',5): node 2
//! fails critically (blocking 3's subtree), and its parent 1 dies exactly
//! in the round it would have detected and flooded `critical_failure(2)`.

use caaf::Sum;
use ftagg::analysis::{critical_failures, TreeView};
use ftagg::pair::AggOutcome;
use ftagg::run::run_pair_engine;
use ftagg::Instance;
use netsim::{FailureSchedule, Graph, NodeId};

#[test]
fn invisible_critical_failure_is_still_recovered() {
    // Cycle: 0-1, 1-2, 2-3, 3-4, 4-5, 5-0.
    let g = Graph::new(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
    let c = 2u32;
    let d = u64::from(g.diameter()); // 3
    let cd = u64::from(c) * d;
    let a1_end = 2 * cd + 1;
    // Tree: 1, 5 at level 1; 2, 4 at level 2; 3 at level 3 (parent 2 by
    // lowest-id tie-break). Node 2 acts at a1_end + (cd-2+1); node 1 one
    // round later.
    let action_2 = a1_end + (cd - 2 + 1);
    let action_1 = a1_end + (cd - 1 + 1);
    let mut s = FailureSchedule::none();
    s.crash(NodeId(2), action_2); // critical failure, blocks node 3
    s.crash(NodeId(1), action_1); // its detector dies before flooding

    let inst = Instance::new(g, NodeId(0), vec![1, 2, 4, 8, 16, 32], s, 32).unwrap();
    // f = edges incident to {1, 2} = (0,1),(1,2),(2,3) = 3.
    assert_eq!(inst.edge_failures(), 3);
    let t = 3;
    let (eng, params) = run_pair_engine(&Sum, &inst, c, t, true);
    let root = eng.node(NodeId(0));

    // Sanity: the tree shape is as constructed.
    let tree = TreeView::from_engine(&eng, NodeId(0));
    assert_eq!(tree.parent(NodeId(3)), Some(NodeId(2)));
    assert_eq!(tree.parent(NodeId(2)), Some(NodeId(1)));

    // Ground truth says both 1 and 2 are critical failures…
    let truth = critical_failures(&tree, &inst.schedule, &params);
    assert!(truth.contains(&NodeId(1)) && truth.contains(&NodeId(2)));
    // …but only 1's is visible: 2's detector died before flooding.
    let visible = root.critical_failures_seen();
    assert!(visible.contains(&NodeId(1)), "root detects node 1 itself");
    assert!(
        !visible.contains(&NodeId(2)),
        "node 2's critical failure must be invisible (detector died)"
    );
    // The paper's structural fact: the invisible failure's local ancestors
    // (node 1) have all failed by the end of aggregation.
    assert!(inst.schedule.is_dead(NodeId(1), params.agg_rounds()));

    // Node 3's partial sum must still be recovered speculatively.
    assert!(
        root.flooded_psums_seen().contains_key(&NodeId(3)),
        "blocked node 3 must speculative-flood"
    );
    assert!(root.compulsory_seen().contains(&NodeId(3)));

    // ≤ t edge failures ⟹ Theorem 4 and 7 in full.
    match root.agg_outcome() {
        AggOutcome::Result(v) => {
            let iv = inst.correct_interval(&Sum, params.total_rounds());
            assert!(iv.contains(v), "result {v} outside {iv:?}");
            // Only the dead nodes' inputs (2 and 4) may be missing.
            assert!(v >= 63 - 2 - 4);
        }
        AggOutcome::Aborted => panic!("≤ t failures must not abort"),
    }
    assert!(root.veri_verdict(), "≤ t failures ⟹ VERI true");
}
