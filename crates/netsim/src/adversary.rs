//! Oblivious crash-failure adversaries.
//!
//! The paper's adversary decides *before any coin flip* which nodes crash at
//! what time; [`FailureSchedule`] is exactly that decision, fixed before the
//! engine starts. The root never crashes. An edge *fails* iff an endpoint
//! crashed; [`FailureSchedule::edge_failures`] computes the paper's `f`
//! metric for a schedule.
//!
//! Crash semantics (documented in DESIGN.md §5.1): a node crashed with
//! [`CrashEvent::round`] `= r` executes rounds `1..r` normally and is dead
//! from round `r` on. Its final broadcast — the one sent in round `r - 1` —
//! is delivered to all neighbors by default, or to an adversary-chosen
//! subset if [`CrashEvent::partial`] is set (modeling a crash in the middle
//! of a local broadcast).

use crate::graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;

/// Round counter, 1-based: the first round of an execution is round 1.
pub type Round = u64;

/// A single scheduled crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// First round in which the node is dead (does not execute or send).
    pub round: Round,
    /// If set, the node's *last* broadcast (sent in `round - 1`) reaches only
    /// these neighbors instead of all of them.
    pub partial: Option<Vec<NodeId>>,
}

impl CrashEvent {
    /// A clean crash: dead from `round`, last broadcast fully delivered.
    pub fn clean(round: Round) -> Self {
        CrashEvent { round, partial: None }
    }

    /// A crash mid-broadcast: dead from `round`, and the broadcast sent in
    /// `round - 1` reaches only `receivers`.
    pub fn partial(round: Round, receivers: Vec<NodeId>) -> Self {
        CrashEvent { round, partial: Some(receivers) }
    }
}

/// A complete oblivious failure schedule: which nodes crash, when, and how.
///
/// # Examples
///
/// ```
/// use netsim::{FailureSchedule, NodeId, topology};
/// let g = topology::path(5);
/// let mut s = FailureSchedule::none();
/// s.crash(NodeId(2), 10);
/// assert_eq!(s.edge_failures(&g), 2); // both path edges at node 2
/// assert!(s.is_dead(NodeId(2), 10));
/// assert!(!s.is_dead(NodeId(2), 9));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailureSchedule {
    crashes: BTreeMap<NodeId, CrashEvent>,
}

impl FailureSchedule {
    /// The failure-free schedule.
    pub fn none() -> Self {
        FailureSchedule::default()
    }

    /// Schedules a clean crash of `node` starting at `round`.
    ///
    /// Re-scheduling a node replaces its previous event.
    ///
    /// # Panics
    ///
    /// Panics if `round == 0` (rounds are 1-based).
    pub fn crash(&mut self, node: NodeId, round: Round) -> &mut Self {
        assert!(round > 0, "rounds are 1-based");
        self.crashes.insert(node, CrashEvent::clean(round));
        self
    }

    /// Schedules a partial-broadcast crash (see [`CrashEvent::partial`]).
    ///
    /// # Panics
    ///
    /// Panics if `round == 0`.
    pub fn crash_partial(
        &mut self,
        node: NodeId,
        round: Round,
        receivers: Vec<NodeId>,
    ) -> &mut Self {
        assert!(round > 0, "rounds are 1-based");
        self.crashes.insert(node, CrashEvent::partial(round, receivers));
        self
    }

    /// The scheduled event for `node`, if any.
    pub fn event(&self, node: NodeId) -> Option<&CrashEvent> {
        self.crashes.get(&node)
    }

    /// All scheduled crashes in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &CrashEvent)> {
        self.crashes.iter().map(|(&n, e)| (n, e))
    }

    /// Number of nodes scheduled to crash.
    pub fn crash_count(&self) -> usize {
        self.crashes.len()
    }

    /// True iff `node` is dead during `round` (does not execute or send).
    pub fn is_dead(&self, node: NodeId, round: Round) -> bool {
        self.crashes.get(&node).is_some_and(|e| round >= e.round)
    }

    /// True iff `node` crashes at any point in the schedule.
    pub fn ever_crashes(&self, node: NodeId) -> bool {
        self.crashes.contains_key(&node)
    }

    /// Nodes that have crashed by (are dead during) `round`, ascending.
    pub fn dead_by(&self, round: Round) -> Vec<NodeId> {
        self.crashes.iter().filter(|(_, e)| round >= e.round).map(|(&n, _)| n).collect()
    }

    /// All nodes that ever crash, ascending.
    pub fn all_crashed(&self) -> Vec<NodeId> {
        self.crashes.keys().copied().collect()
    }

    /// The paper's `f` for this schedule on `g`: the number of edges
    /// incident to at least one crashed node.
    pub fn edge_failures(&self, g: &Graph) -> usize {
        g.incident_edge_count(&self.all_crashed())
    }

    /// Edge failures restricted to crashes that become effective within
    /// `rounds` (used to count per-interval failures in Algorithm 1's
    /// analysis).
    pub fn edge_failures_in(&self, g: &Graph, rounds: std::ops::RangeInclusive<Round>) -> usize {
        let in_window: Vec<NodeId> = self
            .crashes
            .iter()
            .filter(|(_, e)| rounds.contains(&e.round))
            .map(|(&n, _)| n)
            .collect();
        g.incident_edge_count(&in_window)
    }

    /// Checks the model's standing assumptions for running a protocol with
    /// root `root` on `g`: the root never crashes, and every crash round is
    /// positive. Returns an error message describing the first violation.
    pub fn validate(&self, g: &Graph, root: NodeId) -> Result<(), String> {
        if self.crashes.contains_key(&root) {
            return Err(format!("root {root} must not crash"));
        }
        for (&n, e) in &self.crashes {
            if n.index() >= g.len() {
                return Err(format!("crashed node {n} out of range"));
            }
            if let Some(rx) = &e.partial {
                for &r in rx {
                    if !g.has_edge(n, r) {
                        return Err(format!("partial receiver {r} is not a neighbor of {n}"));
                    }
                }
            }
        }
        Ok(())
    }

    /// The schedule as seen by a sub-execution starting at global round
    /// `offset + 1`: crash rounds shift down by `offset`, clamping to 1
    /// (nodes already dead are dead from the sub-execution's first round).
    /// Partial-broadcast restrictions whose crash round lands at or before
    /// the window start degenerate to clean crashes (the restricted
    /// broadcast happened before the window).
    pub fn shifted(&self, offset: Round) -> FailureSchedule {
        let crashes = self
            .crashes
            .iter()
            .map(|(&n, e)| {
                let round = e.round.saturating_sub(offset).max(1);
                let partial = if e.round > offset + 1 { e.partial.clone() } else { None };
                (n, CrashEvent { round, partial })
            })
            .collect();
        FailureSchedule { crashes }
    }

    /// The worst `c` this schedule induces on `g` seen from `root`: the
    /// maximum over crash times of `diam(H) / diam(G)` where `H` is the live
    /// residual component of the root. Returns `None` when some prefix of
    /// the schedule disconnects… never — disconnected nodes simply leave the
    /// root's component, so a value is always produced for a non-crashing
    /// root.
    pub fn stretch_factor(&self, g: &Graph, root: NodeId) -> f64 {
        let d = g.diameter().max(1) as f64;
        let mut worst: u32 = g.diameter();
        let mut rounds: Vec<Round> = self.crashes.values().map(|e| e.round).collect();
        rounds.sort_unstable();
        rounds.dedup();
        for r in rounds {
            let dead = self.dead_by(r);
            if let Some(dr) = g.residual_diameter(root, &dead) {
                worst = worst.max(dr);
            }
        }
        worst as f64 / d
    }
}

/// Generators for the adversarial schedule families used in experiments.
pub mod schedules {
    use super::*;

    /// Crashes `k` uniformly random non-root nodes at uniformly random
    /// rounds in `1..=horizon`.
    pub fn random<R: Rng>(
        g: &Graph,
        root: NodeId,
        k: usize,
        horizon: Round,
        rng: &mut R,
    ) -> FailureSchedule {
        let mut pool: Vec<NodeId> = g.nodes().filter(|&v| v != root).collect();
        pool.shuffle(rng);
        let mut s = FailureSchedule::none();
        for &v in pool.iter().take(k) {
            s.crash(v, rng.gen_range(1..=horizon.max(1)));
        }
        s
    }

    /// Crashes random nodes to approach — but never exceed — an `f`
    /// edge-failure budget (the model's `f` is an upper bound, so callers
    /// like the worst-case search rely on `edge_failures(g) <= f` holding).
    /// Nodes whose incident edges would overflow the budget are skipped in
    /// favor of lower-degree candidates. Crash rounds are uniform in
    /// `1..=horizon`.
    pub fn random_with_edge_budget<R: Rng>(
        g: &Graph,
        root: NodeId,
        f: usize,
        horizon: Round,
        rng: &mut R,
    ) -> FailureSchedule {
        let mut pool: Vec<NodeId> = g.nodes().filter(|&v| v != root).collect();
        pool.shuffle(rng);
        let mut s = FailureSchedule::none();
        // `failed` is `s.edge_failures(g)`: crashing `v` fails exactly its
        // edges to nodes not yet crashed.
        let mut crashed = vec![false; g.len()];
        let mut failed = 0;
        for &v in &pool {
            if failed >= f {
                break;
            }
            // Only commit the crash if it keeps the schedule within the
            // edge budget; a high-degree node may not fit even when a
            // later lower-degree one would.
            let round = rng.gen_range(1..=horizon.max(1));
            let added = g.neighbors(v).iter().filter(|w| !crashed[w.index()]).count();
            if failed + added <= f {
                s.crash(v, round);
                crashed[v.index()] = true;
                failed += added;
            }
        }
        s
    }

    /// Concentrates all crashes inside the round window `[from, to]`,
    /// hitting nodes along a BFS path from the root outward — the bursty
    /// pattern that defeats a single AGG interval in Algorithm 1.
    pub fn burst_on_path<R: Rng>(
        g: &Graph,
        root: NodeId,
        k: usize,
        from: Round,
        to: Round,
        rng: &mut R,
    ) -> FailureSchedule {
        // Walk to the farthest node, then crash a prefix of the path
        // (nearest-to-root first would disconnect more; we take interior).
        let dist = g.bfs_distances(root);
        let far = g.nodes().max_by_key(|v| dist[v.index()].unwrap_or(0)).expect("graph non-empty");
        // Reconstruct one shortest path root -> far.
        let mut pathv = vec![far];
        let mut cur = far;
        while cur != root {
            let dcur = dist[cur.index()].expect("reachable");
            let prev = g
                .neighbors(cur)
                .iter()
                .copied()
                .find(|p| dist[p.index()] == Some(dcur - 1))
                .expect("BFS predecessor exists");
            pathv.push(prev);
            cur = prev;
        }
        pathv.reverse(); // root .. far
        let mut s = FailureSchedule::none();
        for &v in pathv.iter().skip(1).take(k) {
            let span = to.max(from);
            s.crash(v, rng.gen_range(from.max(1)..=span));
        }
        s
    }

    /// Crashes `k` leaves (degree-1 nodes) at random rounds — the benign
    /// pattern where tree aggregation loses only the leaves' own inputs.
    pub fn leaves_only<R: Rng>(
        g: &Graph,
        root: NodeId,
        k: usize,
        horizon: Round,
        rng: &mut R,
    ) -> FailureSchedule {
        let mut leaves: Vec<NodeId> =
            g.nodes().filter(|&v| v != root && g.degree(v) == 1).collect();
        leaves.shuffle(rng);
        let mut s = FailureSchedule::none();
        for &v in leaves.iter().take(k) {
            s.crash(v, rng.gen_range(1..=horizon.max(1)));
        }
        s
    }
}

/// Constraint-respecting perturbation operators for adversary mining.
///
/// The worst-case search in `ftagg-bench` walks schedule space (and,
/// optionally, topology space) by repeatedly applying one small mutation
/// and re-measuring the protocol. Every operator here re-checks the
/// model's standing assumptions before returning — the `f` edge-failure
/// budget, the `c·d` stretch constraint, a never-crashing root — so the
/// search loop can accept any returned candidate without re-validation.
pub mod mutate {
    use super::*;
    use rand::seq::SliceRandom;

    /// Hot spots a guided search wants mutations biased toward: nodes
    /// carrying the most blamed bits and rounds where accepted candidates
    /// last diverged. An empty bias means uniform mutations.
    #[derive(Clone, Debug, Default)]
    pub struct MutationBias {
        /// Preferred crash targets (e.g. top CC-blame nodes).
        pub nodes: Vec<NodeId>,
        /// Preferred crash rounds (e.g. first-divergence rounds).
        pub rounds: Vec<Round>,
    }

    impl MutationBias {
        /// True when the bias carries no hints.
        pub fn is_empty(&self) -> bool {
            self.nodes.is_empty() && self.rounds.is_empty()
        }
    }

    /// Picks a non-root crash target: with probability ~1/2 one of the
    /// bias nodes (when any are usable), otherwise uniform.
    fn pick_node<R: Rng>(g: &Graph, root: NodeId, bias: &MutationBias, rng: &mut R) -> NodeId {
        let hot: Vec<NodeId> =
            bias.nodes.iter().copied().filter(|&v| v != root && v.index() < g.len()).collect();
        if !hot.is_empty() && rng.gen_bool(0.5) {
            return hot[rng.gen_range(0..hot.len())];
        }
        loop {
            let v = NodeId(rng.gen_range(0..g.len() as u32));
            if v != root {
                return v;
            }
        }
    }

    /// Picks a crash round in `1..=horizon`: with probability ~1/2 near a
    /// bias round (within a `horizon/16` window), otherwise uniform.
    fn pick_round<R: Rng>(horizon: Round, bias: &MutationBias, rng: &mut R) -> Round {
        let horizon = horizon.max(1);
        if !bias.rounds.is_empty() && rng.gen_bool(0.5) {
            let center = bias.rounds[rng.gen_range(0..bias.rounds.len())];
            let w = (horizon / 16).max(1);
            let lo = center.saturating_sub(w).max(1);
            let hi = center.saturating_add(w).min(horizon);
            return rng.gen_range(lo..=hi);
        }
        rng.gen_range(1..=horizon)
    }

    /// One atomic perturbation of `base`: retime, retarget, add, or drop
    /// a crash, or toggle a partial last broadcast. Up to 30 attempts are
    /// made; a candidate is returned only if it respects the `f_budget`
    /// edge-failure budget and the `c·d` stretch constraint on `g`, and
    /// never crashes `root`. Falls back to a clone of `base` when no
    /// attempt sticks (so callers always get a valid schedule).
    #[allow(clippy::too_many_arguments)]
    pub fn schedule<R: Rng>(
        base: &FailureSchedule,
        g: &Graph,
        root: NodeId,
        f_budget: usize,
        horizon: Round,
        c: u32,
        bias: &MutationBias,
        rng: &mut R,
    ) -> FailureSchedule {
        let horizon = horizon.max(1);
        for _ in 0..30 {
            let mut items: Vec<(NodeId, CrashEvent)> =
                base.iter().map(|(n, e)| (n, e.clone())).collect();
            match rng.gen_range(0..5) {
                0 if !items.is_empty() => {
                    // Retime one crash (keeping any partial restriction).
                    let i = rng.gen_range(0..items.len());
                    items[i].1.round = pick_round(horizon, bias, rng);
                }
                1 if !items.is_empty() => {
                    // Retarget one crash; the old node's partial receiver
                    // list is meaningless at the new node, so drop it.
                    let i = rng.gen_range(0..items.len());
                    items[i].0 = pick_node(g, root, bias, rng);
                    items[i].1.partial = None;
                }
                2 => {
                    // Add a crash.
                    let v = pick_node(g, root, bias, rng);
                    items.push((v, CrashEvent::clean(pick_round(horizon, bias, rng))));
                }
                3 if !items.is_empty() => {
                    // Drop a crash.
                    let i = rng.gen_range(0..items.len());
                    items.swap_remove(i);
                }
                4 if !items.is_empty() => {
                    // Toggle a partial last broadcast: restrict one crash's
                    // final send to a random neighbor subset (or restore a
                    // full broadcast).
                    let i = rng.gen_range(0..items.len());
                    let (v, e) = &mut items[i];
                    if e.partial.is_some() {
                        e.partial = None;
                    } else {
                        let mut nbrs: Vec<NodeId> = g.neighbors(*v).to_vec();
                        nbrs.shuffle(rng);
                        nbrs.truncate(rng.gen_range(0..=nbrs.len().saturating_sub(1)));
                        nbrs.sort_unstable();
                        e.partial = Some(nbrs);
                    }
                }
                _ => continue,
            }
            items.sort_by_key(|&(n, _)| n);
            items.dedup_by_key(|&mut (n, _)| n);
            let mut s = FailureSchedule::none();
            for (n, e) in items {
                if n == root {
                    continue;
                }
                match e.partial {
                    Some(rx) => s.crash_partial(n, e.round, rx),
                    None => s.crash(n, e.round),
                };
            }
            if s.edge_failures(g) <= f_budget
                && s.stretch_factor(g, root) <= f64::from(c)
                && s.validate(g, root).is_ok()
            {
                return s;
            }
        }
        base.clone()
    }

    /// One atomic perturbation of the topology: add one absent edge or
    /// remove one present edge, keeping the graph connected and keeping
    /// `schedule` within the `f_budget` / stretch constraints (edge
    /// failures are counted against the *mutated* graph, and a removed
    /// edge may invalidate a partial receiver list, so the schedule is
    /// re-validated too). Returns `None` when 30 attempts all fail —
    /// callers then mutate the schedule instead.
    pub fn topology<R: Rng>(
        g: &Graph,
        root: NodeId,
        schedule: &FailureSchedule,
        f_budget: usize,
        c: u32,
        rng: &mut R,
    ) -> Option<Graph> {
        let n = g.len() as u32;
        for _ in 0..30 {
            let cand = if rng.gen_bool(0.5) {
                // Add an absent edge.
                let a = NodeId(rng.gen_range(0..n));
                let b = NodeId(rng.gen_range(0..n));
                if a == b || g.has_edge(a, b) {
                    continue;
                }
                g.with_edge(a, b).expect("absent non-loop edge in range")
            } else {
                // Remove a present edge.
                if g.edge_count() == 0 {
                    continue;
                }
                let e = g.edges()[rng.gen_range(0..g.edge_count())];
                match g.without_edge(e.lo(), e.hi()) {
                    Some(h) if h.is_connected() => h,
                    _ => continue,
                }
            };
            if schedule.edge_failures(&cand) <= f_budget
                && schedule.stretch_factor(&cand, root) <= f64::from(c)
                && schedule.validate(&cand, root).is_ok()
            {
                return Some(cand);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clean_crash_liveness_boundary() {
        let mut s = FailureSchedule::none();
        s.crash(NodeId(1), 5);
        assert!(!s.is_dead(NodeId(1), 4));
        assert!(s.is_dead(NodeId(1), 5));
        assert!(s.is_dead(NodeId(1), 500));
        assert!(!s.is_dead(NodeId(2), 500));
    }

    #[test]
    fn dead_by_and_all_crashed() {
        let mut s = FailureSchedule::none();
        s.crash(NodeId(3), 2).crash(NodeId(1), 7);
        assert_eq!(s.dead_by(1), vec![]);
        assert_eq!(s.dead_by(2), vec![NodeId(3)]);
        assert_eq!(s.dead_by(7), vec![NodeId(1), NodeId(3)]);
        assert_eq!(s.all_crashed(), vec![NodeId(1), NodeId(3)]);
        assert_eq!(s.crash_count(), 2);
    }

    #[test]
    fn edge_failures_counts_incident_edges_once() {
        let g = topology::cycle(6);
        let mut s = FailureSchedule::none();
        s.crash(NodeId(1), 1).crash(NodeId(2), 9);
        // Edges (0,1), (1,2), (2,3): edge (1,2) shared, counted once.
        assert_eq!(s.edge_failures(&g), 3);
    }

    #[test]
    fn edge_failures_in_window() {
        let g = topology::path(5);
        let mut s = FailureSchedule::none();
        s.crash(NodeId(1), 3).crash(NodeId(3), 20);
        assert_eq!(s.edge_failures_in(&g, 1..=10), 2);
        assert_eq!(s.edge_failures_in(&g, 11..=30), 2);
        assert_eq!(s.edge_failures_in(&g, 1..=30), 4);
        assert_eq!(s.edge_failures_in(&g, 4..=10), 0);
    }

    #[test]
    fn validate_rejects_root_crash_and_bad_partial() {
        let g = topology::path(4);
        let mut s = FailureSchedule::none();
        s.crash(NodeId(0), 1);
        assert!(s.validate(&g, NodeId(0)).is_err());

        let mut s2 = FailureSchedule::none();
        s2.crash_partial(NodeId(2), 4, vec![NodeId(0)]); // 0 not adjacent to 2
        assert!(s2.validate(&g, NodeId(0)).is_err());

        let mut s3 = FailureSchedule::none();
        s3.crash_partial(NodeId(2), 4, vec![NodeId(1)]);
        assert!(s3.validate(&g, NodeId(0)).is_ok());
    }

    #[test]
    fn stretch_factor_on_cycle() {
        let g = topology::cycle(8); // d = 4
        let mut s = FailureSchedule::none();
        s.crash(NodeId(4), 3); // opposite the root: residual is a 7-path, diam 6
        let c = s.stretch_factor(&g, NodeId(0));
        assert!((c - 6.0 / 4.0).abs() < 1e-9, "c = {c}");
    }

    #[test]
    fn random_schedule_respects_root_and_budget() {
        let g = topology::grid(5, 5);
        let mut rng = StdRng::seed_from_u64(11);
        let s = schedules::random(&g, NodeId(0), 6, 40, &mut rng);
        assert_eq!(s.crash_count(), 6);
        assert!(!s.ever_crashes(NodeId(0)));
        assert!(s.validate(&g, NodeId(0)).is_ok());
    }

    #[test]
    fn edge_budget_schedule_fills_without_exceeding_f() {
        let g = topology::grid(5, 5);
        let mut rng = StdRng::seed_from_u64(12);
        let s = schedules::random_with_edge_budget(&g, NodeId(0), 10, 40, &mut rng);
        let edges = s.edge_failures(&g);
        // `f` is a hard budget (the search asserts `<= f`), but the
        // schedule should still come close to it: on a 5×5 grid every node
        // has degree ≤ 4, so the greedy fill always gets within 3.
        assert!(edges <= 10, "budget exceeded: {edges}");
        assert!(edges >= 7, "budget underfilled: {edges}");
    }

    #[test]
    fn burst_on_path_crashes_interior() {
        let g = topology::path(10);
        let mut rng = StdRng::seed_from_u64(13);
        let s = schedules::burst_on_path(&g, NodeId(0), 3, 5, 9, &mut rng);
        assert_eq!(s.crash_count(), 3);
        for (_, e) in s.iter() {
            assert!((5..=9).contains(&e.round));
        }
        assert!(!s.ever_crashes(NodeId(0)));
    }

    #[test]
    fn leaves_only_hits_leaves() {
        let g = topology::star(8);
        let mut rng = StdRng::seed_from_u64(14);
        let s = schedules::leaves_only(&g, NodeId(0), 4, 20, &mut rng);
        assert_eq!(s.crash_count(), 4);
        for (n, _) in s.iter() {
            assert_eq!(g.degree(n), 1);
        }
    }

    #[test]
    fn mutate_schedule_respects_all_constraints() {
        let g = topology::grid(5, 5);
        let mut rng = StdRng::seed_from_u64(21);
        let mut s = schedules::random_with_edge_budget(&g, NodeId(0), 8, 100, &mut rng);
        let bias = mutate::MutationBias::default();
        for _ in 0..200 {
            s = mutate::schedule(&s, &g, NodeId(0), 8, 100, 2, &bias, &mut rng);
            assert!(s.edge_failures(&g) <= 8);
            assert!(s.stretch_factor(&g, NodeId(0)) <= 2.0);
            assert!(s.validate(&g, NodeId(0)).is_ok());
            assert!(!s.ever_crashes(NodeId(0)));
            for (_, e) in s.iter() {
                assert!((1..=100).contains(&e.round));
            }
        }
    }

    #[test]
    fn mutate_schedule_bias_prefers_hot_nodes() {
        let g = topology::grid(6, 6);
        let mut rng = StdRng::seed_from_u64(5);
        let bias = mutate::MutationBias { nodes: vec![NodeId(7), NodeId(13)], rounds: vec![50] };
        let mut hits = 0usize;
        let mut total = 0usize;
        for _ in 0..300 {
            let s = mutate::schedule(
                &FailureSchedule::none(),
                &g,
                NodeId(0),
                20,
                100,
                4,
                &bias,
                &mut rng,
            );
            for (n, _) in s.iter() {
                total += 1;
                if n == NodeId(7) || n == NodeId(13) {
                    hits += 1;
                }
            }
        }
        assert!(total > 0);
        // Uniform would hit the 2/35 ≈ 6% hot set rarely; the bias should
        // push it to roughly half. Require a comfortably separated 25%.
        assert!(hits * 4 >= total, "bias too weak: {hits}/{total}");
    }

    #[test]
    fn mutate_topology_keeps_connectivity_and_budgets() {
        let g = topology::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(8);
        let mut s = FailureSchedule::none();
        s.crash(NodeId(5), 10);
        let mut cur = g.clone();
        let mut changed = 0;
        for _ in 0..60 {
            if let Some(h) = mutate::topology(&cur, NodeId(0), &s, 6, 2, &mut rng) {
                assert!(h.is_connected());
                assert_eq!(h.len(), cur.len());
                assert!(s.edge_failures(&h) <= 6);
                assert!(s.stretch_factor(&h, NodeId(0)) <= 2.0);
                assert_ne!(h.edges(), cur.edges());
                cur = h;
                changed += 1;
            }
        }
        assert!(changed > 0, "topology mutation never produced a candidate");
    }
}
