//! Offline analyses of a pair execution: the fragment decomposition of
//! Figure 2, the critical-failure and long-failure-chain (LFC) oracles
//! behind Table 2, and the scenario classifier the Table 2 experiment uses.
//!
//! These are *white-box* oracles: they read the distributed execution's
//! ground truth (tree snapshots, the schedule, the root's flood state) to
//! classify what happened, so tests can check the protocols' guarantees
//! against the paper's case analysis.

use crate::config::Instance;
use crate::msg::Envelope;
use crate::pair::{NodeSnapshot, PairNode, PairParams};
use caaf::Caaf;
use netsim::{Engine, FailureSchedule, NodeId, Round};
use std::collections::BTreeSet;

/// The aggregation tree of an execution, collected from per-node snapshots.
#[derive(Clone, Debug)]
pub struct TreeView {
    /// Per-node snapshots, indexed by node id.
    pub nodes: Vec<NodeSnapshot>,
    /// The root.
    pub root: NodeId,
}

impl TreeView {
    /// Collects the tree from a finished pair-execution engine.
    pub fn from_engine<C: Caaf>(eng: &Engine<Envelope, PairNode<C>>, root: NodeId) -> Self {
        let nodes = eng.graph().nodes().map(|v| eng.node(v).snapshot()).collect();
        TreeView { nodes, root }
    }

    /// Tree parent of `v`, if `v` joined the tree and is not the root.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.nodes[v.index()].parent
    }

    /// Tree level of `v`, if it joined.
    pub fn level(&self, v: NodeId) -> Option<u32> {
        self.nodes[v.index()].level
    }

    /// True iff `v` joined the tree.
    pub fn in_tree(&self, v: NodeId) -> bool {
        self.nodes[v.index()].activated
    }

    /// Children of `v` per `v`'s own registration.
    pub fn children(&self, v: NodeId) -> &BTreeSet<NodeId> {
        &self.nodes[v.index()].children
    }

    /// All in-tree nodes.
    pub fn members(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32).map(NodeId).filter(|&v| self.in_tree(v)).collect()
    }

    /// Renders the aggregation tree as indented ASCII, one node per line,
    /// annotating each with its partial sum and marking `marked` nodes
    /// (e.g. crashed ones) with `✗`.
    pub fn render_ascii(&self, marked: &BTreeSet<NodeId>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        self.render_node(self.root, 0, marked, &mut |line| {
            let _ = writeln!(out, "{line}");
        });
        out
    }

    fn render_node(
        &self,
        v: NodeId,
        depth: usize,
        marked: &BTreeSet<NodeId>,
        emit: &mut impl FnMut(String),
    ) {
        let snap = &self.nodes[v.index()];
        let flag = if marked.contains(&v) { " ✗" } else { "" };
        emit(format!("{}{v:?} (psum {}){flag}", "  ".repeat(depth), snap.psum));
        // Children per the parent pointers (v's own `children` set may
        // include acks the parent recorded; parent pointers are the
        // authoritative tree).
        for w in self.members() {
            if self.parent(w) == Some(v) {
                self.render_node(w, depth + 1, marked, emit);
            }
        }
    }
}

/// The fragment decomposition of Figure 2: removing the edges between
/// *visible* critical failures and their parents splits the tree into
/// fragments, each with a local root.
#[derive(Clone, Debug)]
pub struct Fragments {
    /// `fragment_of[v]` is the fragment index of node `v`, or `None` if it
    /// never joined the tree.
    pub fragment_of: Vec<Option<usize>>,
    /// The local root of each fragment (index = fragment id).
    pub local_roots: Vec<NodeId>,
}

impl Fragments {
    /// Number of fragments.
    pub fn count(&self) -> usize {
        self.local_roots.len()
    }

    /// True iff `a` and `b` are in the same fragment.
    pub fn same_fragment(&self, a: NodeId, b: NodeId) -> bool {
        match (self.fragment_of[a.index()], self.fragment_of[b.index()]) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }
}

/// Decomposes `tree` into fragments given the set of visible critical
/// failures (normally the root's [`PairNode::critical_failures_seen`]).
pub fn fragments(tree: &TreeView, visible_critical: &BTreeSet<NodeId>) -> Fragments {
    let n = tree.nodes.len();
    let mut fragment_of = vec![None; n];
    let mut local_roots = Vec::new();
    // Assign fragments top-down in level order: a node starts a new
    // fragment iff it is the tree root or a visible critical failure
    // (its parent edge is cut); otherwise it inherits its parent's.
    let mut members = tree.members();
    members.sort_by_key(|&v| tree.level(v).unwrap_or(u32::MAX));
    for v in members {
        let starts_new = v == tree.root
            || visible_critical.contains(&v)
            || tree.parent(v).is_none_or(|p| fragment_of[p.index()].is_none());
        if starts_new {
            fragment_of[v.index()] = Some(local_roots.len());
            local_roots.push(v);
        } else {
            let p = tree.parent(v).expect("non-root in-tree node has parent");
            fragment_of[v.index()] = fragment_of[p.index()];
        }
    }
    Fragments { fragment_of, local_roots }
}

/// Ground-truth critical failures: in-tree nodes dead by their scheduled
/// aggregation action round (they acked but never aggregated) — the
/// paper's §4.1 definition.
pub fn critical_failures(
    tree: &TreeView,
    schedule: &FailureSchedule,
    params: &PairParams,
) -> BTreeSet<NodeId> {
    let cd = params.model.cd().max(1);
    let a1_end = 2 * cd + 1;
    tree.members()
        .into_iter()
        .filter(|&v| {
            if v == tree.root {
                return false;
            }
            let lvl = u64::from(tree.level(v).expect("member has level"));
            if lvl > cd {
                return false;
            }
            let action = a1_end + (cd - lvl + 1);
            schedule.is_dead(v, action)
        })
        .collect()
}

/// Result of the LFC oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LfcAnalysis {
    /// Tails of the long failure chains found.
    pub tails: Vec<NodeId>,
}

impl LfcAnalysis {
    /// True iff at least one LFC exists.
    pub fn exists(&self) -> bool {
        !self.tails.is_empty()
    }
}

/// Ground-truth LFC detection (Section 5): a chain of `t` nodes within one
/// fragment, each the tree parent of the next, all failed by the end of
/// AGG, whose tail has a local descendant alive at the end of VERI.
///
/// Both "failed" and "alive" follow the paper's failure model (Section 2):
/// a node partitioned from the root "is also considered as failed". So
/// chain members may be breathing-but-disconnected nodes, and the
/// live-descendant requirement demands root-connectivity. (The stress
/// sweep found the crash-only reading to be genuinely wrong: two crashes
/// sandwiching a live segment on a cycle create exactly such a
/// partitioned chain, AGG drops the segment's downstream live inputs, and
/// only the partition-inclusive definition classifies the run into the
/// scenario whose guarantee — VERI says false — actually holds.)
///
/// For `t = 0` the definition degenerates; we use chain length
/// `max(t, 1)` so "some failed node with a live local descendant" counts,
/// which matches VERI(0)'s conservative behavior.
pub fn find_lfcs(
    graph: &netsim::Graph,
    tree: &TreeView,
    schedule: &FailureSchedule,
    visible_critical: &BTreeSet<NodeId>,
    t: u32,
    agg_end: Round,
    veri_end: Round,
) -> LfcAnalysis {
    let frags = fragments(tree, visible_critical);
    let n = tree.nodes.len();
    let connected_agg: BTreeSet<NodeId> =
        graph.reachable_from(tree.root, &schedule.dead_by(agg_end)).into_iter().collect();
    let failed = |v: NodeId| schedule.is_dead(v, agg_end) || !connected_agg.contains(&v);
    let connected: BTreeSet<NodeId> =
        graph.reachable_from(tree.root, &schedule.dead_by(veri_end)).into_iter().collect();
    let alive_at_veri = |v: NodeId| !schedule.is_dead(v, veri_end) && connected.contains(&v);

    // chain[v] = number of consecutive failed nodes ending at v walking up
    // within v's fragment (0 if v did not fail).
    let mut chain = vec![0u32; n];
    let mut members = tree.members();
    members.sort_by_key(|&v| tree.level(v).unwrap_or(u32::MAX));
    for &v in &members {
        if !failed(v) {
            continue;
        }
        chain[v.index()] = 1;
        if let Some(p) = tree.parent(v) {
            if frags.same_fragment(v, p) && failed(p) {
                chain[v.index()] = chain[p.index()] + 1;
            }
        }
    }

    // live_desc[v] = some strict local descendant of v is alive at VERI end.
    // Sweep bottom-up (descending level order).
    let mut live_desc = vec![false; n];
    for &v in members.iter().rev() {
        if let Some(p) = tree.parent(v) {
            if frags.same_fragment(v, p) && (alive_at_veri(v) || live_desc[v.index()]) {
                live_desc[p.index()] = true;
            }
        }
    }

    let need = t.max(1);
    let tails =
        members.into_iter().filter(|&v| chain[v.index()] >= need && live_desc[v.index()]).collect();
    LfcAnalysis { tails }
}

/// Table 2's three scenarios for a pair execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// ≤ `t` edge failures (implying no LFC): AGG correct, VERI true.
    FewFailures,
    /// More than `t` edge failures but no LFC: AGG correct or aborts;
    /// VERI unconstrained.
    ManyFailuresNoLfc,
    /// > `t` edge failures and an LFC exists: VERI must output false.
    ManyFailuresLfc,
}

/// Classifies a finished pair execution into its Table 2 scenario.
///
/// Failed nodes follow the paper's definition (Section 2): nodes that
/// crashed **or became disconnected from the root** by the end of the
/// execution — a partitioned-but-breathing node "is also considered as
/// failed", and its incident edges count toward the failure budget. (The
/// 2000-run stress sweep is what forced this fidelity: counting only
/// crashed nodes misclassifies cycle executions where two crashes sandwich
/// a live segment, and then wrongly expects scenario-1 guarantees from
/// runs the paper's accounting puts in scenario 2/3.)
pub fn classify<C: Caaf>(
    inst: &Instance,
    schedule: &FailureSchedule,
    eng: &Engine<Envelope, PairNode<C>>,
    params: &PairParams,
) -> (Scenario, LfcAnalysis) {
    let tree = TreeView::from_engine(eng, inst.root);
    let agg_end = params.agg_rounds();
    let veri_end = params.total_rounds();
    let visible = eng.node(inst.root).critical_failures_seen().clone();
    let lfc = find_lfcs(&inst.graph, &tree, schedule, &visible, params.t, agg_end, veri_end);
    let f_window = effective_edge_failures(&inst.graph, schedule, inst.root, veri_end);
    let scenario = if f_window <= params.t as usize {
        Scenario::FewFailures
    } else if lfc.exists() {
        Scenario::ManyFailuresLfc
    } else {
        Scenario::ManyFailuresNoLfc
    };
    (scenario, lfc)
}

/// The paper's effective edge-failure count at `round`: edges incident to
/// any node that has crashed **or** lost every path to the root.
pub fn effective_edge_failures(
    graph: &netsim::Graph,
    schedule: &FailureSchedule,
    root: NodeId,
    round: netsim::Round,
) -> usize {
    let dead = schedule.dead_by(round);
    let connected: BTreeSet<NodeId> = graph.reachable_from(root, &dead).into_iter().collect();
    let failed: Vec<NodeId> = graph.nodes().filter(|v| !connected.contains(v)).collect();
    graph.incident_edge_count(&failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_pair_engine;
    use caaf::Sum;
    use netsim::topology;

    fn inst(g: netsim::Graph, s: FailureSchedule) -> Instance {
        let n = g.len();
        Instance::new(g, NodeId(0), vec![1; n], s, 1).unwrap()
    }

    #[test]
    fn tree_view_of_clean_run() {
        let i = inst(topology::binary_tree(7), FailureSchedule::none());
        let (eng, _) = run_pair_engine(&Sum, &i, i.schedule.clone(), 1, 1, true);
        let tree = TreeView::from_engine(&eng, NodeId(0));
        assert_eq!(tree.members().len(), 7);
        assert_eq!(tree.parent(NodeId(3)), Some(NodeId(1)));
        assert_eq!(tree.level(NodeId(6)), Some(2));
        assert!(tree.children(NodeId(0)).contains(&NodeId(1)));
    }

    #[test]
    fn ascii_render_shows_structure() {
        let i = inst(topology::path(4), FailureSchedule::none());
        let (eng, _) = run_pair_engine(&Sum, &i, i.schedule.clone(), 1, 1, true);
        let tree = TreeView::from_engine(&eng, NodeId(0));
        let marked = BTreeSet::from([NodeId(2)]);
        let out = tree.render_ascii(&marked);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("n0"));
        assert!(lines[2].contains("n2") && lines[2].ends_with('✗'));
        assert!(lines[3].starts_with("      n3"));
    }

    #[test]
    fn single_fragment_without_failures() {
        let i = inst(topology::grid(3, 3), FailureSchedule::none());
        let (eng, params) = run_pair_engine(&Sum, &i, i.schedule.clone(), 1, 1, true);
        let tree = TreeView::from_engine(&eng, NodeId(0));
        let frags = fragments(&tree, &BTreeSet::new());
        assert_eq!(frags.count(), 1);
        assert_eq!(frags.local_roots, vec![NodeId(0)]);
        assert!(critical_failures(&tree, &i.schedule, &params).is_empty());
        let lfc = find_lfcs(
            &i.graph,
            &tree,
            &i.schedule,
            &BTreeSet::new(),
            1,
            params.agg_rounds(),
            params.total_rounds(),
        );
        assert!(!lfc.exists());
    }

    #[test]
    fn critical_failure_creates_fragment_and_lfc() {
        // Cycle 0-1-2-3-4-5-0: node 1 dies right before aggregating. Its
        // tree descendants (2, 3) stay connected to the root through the
        // other side of the cycle, so with t = 1 the single-node chain {1}
        // is an LFC and VERI must catch it.
        let g = topology::cycle(6);
        let d = g.diameter() as u64; // d = 3, c = 1
        let action_of_1 = (2 * d + 1) + (d - 1 + 1);
        let mut s = FailureSchedule::none();
        s.crash(NodeId(1), action_of_1);
        let i = inst(g, s);
        let (eng, params) = run_pair_engine(&Sum, &i, i.schedule.clone(), 1, 1, true);
        let tree = TreeView::from_engine(&eng, NodeId(0));

        let crits = critical_failures(&tree, &i.schedule, &params);
        assert_eq!(crits, BTreeSet::from([NodeId(1)]));

        // The root detects the silent child and floods the critical
        // failure, making it visible.
        let visible = eng.node(NodeId(0)).critical_failures_seen().clone();
        assert!(visible.contains(&NodeId(1)));

        let frags = fragments(&tree, &visible);
        assert_eq!(frags.count(), 2);
        assert!(frags.same_fragment(NodeId(1), NodeId(2)));
        assert!(!frags.same_fragment(NodeId(0), NodeId(2)));

        let lfc = find_lfcs(
            &i.graph,
            &tree,
            &i.schedule,
            &visible,
            1,
            params.agg_rounds(),
            params.total_rounds(),
        );
        assert!(lfc.exists());
        assert_eq!(lfc.tails, vec![NodeId(1)]);

        // And VERI(t = 1) must say false (Theorem 7).
        assert!(!eng.node(NodeId(0)).veri_verdict());
    }

    #[test]
    fn partitioned_descendants_are_not_alive() {
        // Same failure on a *path*: the descendants are partitioned from
        // the root, count as failed, and no LFC exists — VERI may say true.
        let g = topology::path(6);
        let d = g.diameter() as u64;
        let action_of_1 = (2 * d + 1) + (d - 1 + 1);
        let mut s = FailureSchedule::none();
        s.crash(NodeId(1), action_of_1);
        let i = inst(g, s);
        let (eng, params) = run_pair_engine(&Sum, &i, i.schedule.clone(), 1, 1, true);
        let tree = TreeView::from_engine(&eng, NodeId(0));
        let visible = eng.node(NodeId(0)).critical_failures_seen().clone();
        let lfc = find_lfcs(
            &i.graph,
            &tree,
            &i.schedule,
            &visible,
            1,
            params.agg_rounds(),
            params.total_rounds(),
        );
        assert!(!lfc.exists(), "partitioned descendants do not make an LFC");
    }

    #[test]
    fn chain_shorter_than_t_is_not_lfc() {
        // Same single-failure scenario but t = 3: chain length 1 < 3.
        let g = topology::cycle(6);
        let d = g.diameter() as u64;
        let action_of_1 = (2 * d + 1) + (d - 1 + 1);
        let mut s = FailureSchedule::none();
        s.crash(NodeId(1), action_of_1);
        let i = inst(g, s);
        let (eng, params) = run_pair_engine(&Sum, &i, i.schedule.clone(), 1, 3, true);
        let tree = TreeView::from_engine(&eng, NodeId(0));
        let visible = eng.node(NodeId(0)).critical_failures_seen().clone();
        let lfc = find_lfcs(
            &i.graph,
            &tree,
            &i.schedule,
            &visible,
            3,
            params.agg_rounds(),
            params.total_rounds(),
        );
        assert!(!lfc.exists());
    }

    #[test]
    fn dead_subtree_has_no_lfc() {
        // Kill a whole leaf-side suffix: failed chain but no live local
        // descendant below the tail.
        let g = topology::path(4);
        let mut s = FailureSchedule::none();
        // Both die right after tree construction, before aggregation.
        let d = g.diameter() as u64;
        s.crash(NodeId(2), 2 * d + 2);
        s.crash(NodeId(3), 2 * d + 2);
        let i = inst(g, s);
        let (eng, params) = run_pair_engine(&Sum, &i, i.schedule.clone(), 1, 1, true);
        let tree = TreeView::from_engine(&eng, NodeId(0));
        let visible = eng.node(NodeId(0)).critical_failures_seen().clone();
        let lfc = find_lfcs(
            &i.graph,
            &tree,
            &i.schedule,
            &visible,
            1,
            params.agg_rounds(),
            params.total_rounds(),
        );
        assert!(!lfc.exists(), "no live descendant below the dead chain");
    }

    #[test]
    fn classify_scenarios() {
        // Few failures.
        let i = inst(topology::grid(3, 3), FailureSchedule::none());
        let (eng, params) = run_pair_engine(&Sum, &i, i.schedule.clone(), 1, 2, true);
        let (sc, _) = classify(&i, &i.schedule, &eng, &params);
        assert_eq!(sc, Scenario::FewFailures);

        // Many failures, LFC: two-node failed chain whose descendants stay
        // root-connected around the cycle; t = 2 but > 2 edge failures.
        let g = topology::cycle(8);
        let d = g.diameter() as u64;
        let mut s = FailureSchedule::none();
        s.crash(NodeId(1), 2 * d + 2);
        s.crash(NodeId(2), 2 * d + 2);
        let i = inst(g, s);
        let (eng, params) = run_pair_engine(&Sum, &i, i.schedule.clone(), 1, 2, true);
        let (sc, lfc) = classify(&i, &i.schedule, &eng, &params);
        assert_eq!(sc, Scenario::ManyFailuresLfc);
        assert!(lfc.exists());
    }
}
