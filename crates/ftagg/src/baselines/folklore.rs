//! Tree aggregation baselines: the non-fault-tolerant TAG-style protocol
//! and the folklore retry-until-failure-free protocol (Section 1).
//!
//! "There is also a folklore SUM protocol that tolerates failures by
//! repeatedly invoking the naive tree-aggregation protocol until it
//! experiences a failure-free run. This incurs O(f) TC and O(f log N) CC."
//!
//! Failure detection uses an echo bit: each aggregation message carries a
//! `clean` flag that is true iff the whole subtree aggregated without a
//! missing child. A critical failure anywhere strips the flag on the lowest
//! live ancestor, so the root accepts a run iff no critical failure
//! occurred during it — one failed node can spoil at most the attempts it
//! is alive in, and it is gone afterwards, giving the O(f) attempt bound.

use crate::config::Instance;
use caaf::Caaf;
use netsim::{Engine, Message, Metrics, NodeId, NodeLogic, Round, RoundCtx};
use std::collections::BTreeMap;
use wire::range_bits;

/// Messages of one tree-aggregation attempt.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum FolkMsg {
    /// Tree-construction wave carrying the sender's level.
    TreeConstruct {
        /// Sender's level.
        level: u32,
    },
    /// Child-registration ack addressed to `parent`.
    Ack {
        /// The addressed parent.
        parent: NodeId,
    },
    /// Upstream partial sum with the subtree-clean echo bit.
    Aggregation {
        /// Partial sum of the sender's subtree.
        psum: u64,
        /// True iff no failure was detected anywhere in the subtree.
        clean: bool,
    },
}

/// [`FolkMsg`] with its exact wire size (2-bit tag).
#[derive(Clone, Debug)]
pub struct FolkEnvelope {
    /// The payload.
    pub msg: FolkMsg,
    bits: u64,
}

impl FolkEnvelope {
    fn new(msg: FolkMsg, n: usize, value_bits: u32) -> Self {
        let id = u64::from(wire::id_bits(n));
        let lvl = u64::from(range_bits(n as u64));
        let bits = 2 + match msg {
            FolkMsg::TreeConstruct { .. } => lvl,
            FolkMsg::Ack { .. } => id,
            FolkMsg::Aggregation { .. } => u64::from(value_bits) + 1,
        };
        FolkEnvelope { msg, bits }
    }
}

impl Message for FolkEnvelope {
    fn bit_len(&self) -> u64 {
        self.bits
    }
}

/// Per-node logic of one tree-aggregation attempt.
pub struct FolkNode<C: Caaf> {
    op: C,
    me: NodeId,
    root: NodeId,
    n: usize,
    cd: u64,
    value_bits: u32,
    activated: bool,
    level: u32,
    parent: Option<NodeId>,
    children: BTreeMap<NodeId, ()>,
    tc_emit_round: Option<Round>,
    child_aggs: BTreeMap<NodeId, (u64, bool)>,
    psum: u64,
    clean: bool,
    acted: bool,
}

impl<C: Caaf> FolkNode<C> {
    /// Creates the logic for node `me`.
    pub fn new(
        op: C,
        me: NodeId,
        root: NodeId,
        n: usize,
        cd: u64,
        value_bits: u32,
        input: u64,
    ) -> Self {
        let is_root = me == root;
        FolkNode {
            op,
            me,
            root,
            n,
            cd,
            value_bits,
            activated: is_root,
            level: 0,
            parent: None,
            children: BTreeMap::new(),
            tc_emit_round: is_root.then_some(1),
            child_aggs: BTreeMap::new(),
            psum: input,
            clean: true,
            acted: false,
        }
    }

    fn a1_end(&self) -> u64 {
        2 * self.cd + 1
    }

    /// The round this node broadcasts its own `tree_construct` in, if it
    /// falls inside tree construction.
    fn tree_construct_round(&self) -> Option<Round> {
        self.tc_emit_round.filter(|&r| r <= self.a1_end())
    }

    /// The round of this node's one aggregation action (phase round
    /// `cd - level + 1`), while it is still to come.
    fn aggregation_round(&self) -> Option<Round> {
        let lvl = u64::from(self.level);
        (self.activated && !self.acted && lvl <= self.cd).then(|| self.a1_end() + self.cd - lvl + 1)
    }

    /// Attempt length in rounds: tree construction plus the aggregation
    /// wave reaching the root (`3cd + 2`).
    pub fn attempt_rounds(cd: u64) -> u64 {
        3 * cd + 2
    }

    /// The root's final partial sum (meaningful after the attempt).
    pub fn result(&self) -> u64 {
        self.psum
    }

    /// Whether the subtree (at the root: the whole run) was failure-free.
    pub fn clean(&self) -> bool {
        self.clean
    }
}

impl<C: Caaf> NodeLogic<FolkEnvelope> for FolkNode<C> {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, FolkEnvelope>) {
        let r = ctx.round();
        let mut out: Vec<FolkMsg> = Vec::new();
        let mut tc_best: Option<(NodeId, u32)> = None;
        for rcv in ctx.inbox() {
            match rcv.msg.msg {
                FolkMsg::TreeConstruct { level } => {
                    if !self.activated
                        && r <= self.a1_end()
                        && tc_best.is_none_or(|(from, _)| rcv.from < from)
                    {
                        tc_best = Some((rcv.from, level));
                    }
                }
                FolkMsg::Ack { parent } => {
                    if parent == self.me {
                        self.children.insert(rcv.from, ());
                    }
                }
                FolkMsg::Aggregation { psum, clean } => {
                    if self.children.contains_key(&rcv.from) {
                        self.child_aggs.insert(rcv.from, (psum, clean));
                    }
                }
            }
        }
        if let Some((from, lvl)) = tc_best {
            self.activated = true;
            self.level = lvl + 1;
            self.parent = Some(from);
            out.push(FolkMsg::Ack { parent: from });
            self.tc_emit_round = Some(r + 1);
        }
        if self.tree_construct_round() == Some(r) {
            out.push(FolkMsg::TreeConstruct { level: self.level });
        }
        if self.aggregation_round() == Some(r) {
            self.acted = true;
            for (&v, ()) in self.children.clone().iter() {
                match self.child_aggs.get(&v) {
                    Some(&(ps, cl)) => {
                        self.psum = self.op.combine(self.psum, ps);
                        self.clean &= cl;
                    }
                    None => self.clean = false,
                }
            }
            if self.me != self.root {
                out.push(FolkMsg::Aggregation { psum: self.psum, clean: self.clean });
            }
        }
        for m in out {
            ctx.send(FolkEnvelope::new(m, self.n, self.value_bits));
        }
    }

    /// Wakes for the own `tree_construct` and the aggregation action; any
    /// other round with an empty inbox does nothing.
    fn next_wake(&self, round: Round) -> Round {
        [self.tree_construct_round(), self.aggregation_round()]
            .into_iter()
            .flatten()
            .filter(|&r| r > round)
            .min()
            .unwrap_or(Round::MAX)
    }
}

/// Outcome of a single tree-aggregation attempt (the TAG baseline).
#[derive(Clone, Debug)]
pub struct AttemptReport {
    /// The root's aggregate.
    pub result: u64,
    /// Whether the run reported itself failure-free.
    pub clean: bool,
    /// Rounds used (`3cd + 2`).
    pub rounds: Round,
    /// Bit meters.
    pub metrics: Metrics,
    /// Correctness against the oracle (TAG without retry can be wrong!).
    pub correct: bool,
}

/// Runs one (non-fault-tolerant) tree-aggregation attempt — the classic
/// TAG baseline — over `inst` (`&inst`, or a stage from
/// [`Instance::shifted`] moved in). Under failures its result may be
/// **incorrect**; that gap is exactly what the paper's protocols close.
pub fn run_tag_once<C: Caaf>(op: &C, inst: impl Into<Instance>, c: u32) -> AttemptReport {
    let inst = inst.into();
    let model = inst.model(c);
    let cd = model.cd();
    let value_bits = op.value_bits(model.n, model.max_input);
    let (root, n) = (inst.root, model.n);
    // No node stops the attempt early, so it is judged at its last round.
    let rounds = FolkNode::<C>::attempt_rounds(cd);
    let interval = inst.correct_interval(op, rounds);
    let mut eng: Engine<FolkEnvelope, FolkNode<C>> = Engine::new(inst.graph, inst.schedule, |v| {
        FolkNode::new(op.clone(), v, root, n, cd, value_bits, inst.inputs[v.index()])
    });
    let run = eng.run(rounds);
    let result = eng.node(root).result();
    let clean = eng.node(root).clean();
    let correct = interval.contains(result);
    AttemptReport { result, clean, rounds: run.rounds, metrics: eng.metrics().clone(), correct }
}

/// Outcome of the folklore retry protocol.
#[derive(Clone, Debug)]
pub struct FolkloreReport {
    /// The accepted result.
    pub result: u64,
    /// Attempts executed (≤ failures + 1 in expectation; capped).
    pub attempts: usize,
    /// Total rounds across attempts.
    pub rounds: Round,
    /// Merged bit meters across attempts.
    pub metrics: Metrics,
    /// Correctness against the oracle at the accepting round.
    pub correct: bool,
    /// True iff the attempt cap was hit without a clean run (the returned
    /// result is then the last attempt's, possibly incorrect).
    pub exhausted: bool,
}

/// Runs the folklore protocol: tree aggregation repeated until a clean run.
///
/// `max_attempts` caps the loop (`2f + 2` is always enough: every dirty
/// attempt consumes at least one crashed node, each node crashes once).
///
/// # Examples
///
/// ```
/// use caaf::Sum;
/// use ftagg::{baselines::run_folklore, Instance};
/// use netsim::{topology, FailureSchedule, NodeId};
///
/// let inst = Instance::new(
///     topology::star(5), NodeId(0), vec![10; 5], FailureSchedule::none(), 10,
/// )?;
/// let report = run_folklore(&Sum, &inst, 1, 4);
/// assert_eq!(report.result, 50);
/// assert_eq!(report.attempts, 1); // failure-free: first run is clean
/// # Ok::<(), String>(())
/// ```
pub fn run_folklore<C: Caaf>(
    op: &C,
    inst: &Instance,
    c: u32,
    max_attempts: usize,
) -> FolkloreReport {
    let mut metrics = Metrics::new(inst.n());
    let mut offset: Round = 0;
    let mut last = None;
    for attempt in 1..=max_attempts.max(1) {
        let rep = run_tag_once(op, inst.shifted(offset), c);
        metrics.absorb_shifted(&rep.metrics, offset);
        offset += rep.rounds;
        let clean = rep.clean;
        last = Some((rep, attempt));
        if clean {
            break;
        }
    }
    // The last attempt judged its result at its last round, which is this
    // run's last round too.
    let (rep, attempts) = last.expect("at least one attempt runs");
    FolkloreReport {
        result: rep.result,
        attempts,
        rounds: offset,
        metrics,
        correct: rep.correct,
        exhausted: !rep.clean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caaf::Sum;
    use netsim::{topology, FailureSchedule};

    fn inst(g: netsim::Graph, inputs: Vec<u64>, s: FailureSchedule) -> Instance {
        let max = inputs.iter().copied().max().unwrap_or(0).max(1);
        Instance::new(g, NodeId(0), inputs, s, max).unwrap()
    }

    #[test]
    fn tag_failure_free_exact_and_clean() {
        let i = inst(topology::binary_tree(7), (1..=7).collect(), FailureSchedule::none());
        let r = run_tag_once(&Sum, &i, 1);
        assert_eq!(r.result, 28);
        assert!(r.clean);
        assert!(r.correct);
    }

    #[test]
    fn tag_detects_critical_failure() {
        // Node 1 (middle of a path) dies right before its aggregation
        // action: its subtree's inputs are silently lost, and clean = false.
        let g = topology::path(5);
        let d = g.diameter() as u64;
        let action_of_1 = (2 * d + 1) + (d - 1 + 1);
        let mut s = FailureSchedule::none();
        s.crash(NodeId(1), action_of_1);
        let i = inst(g, vec![1, 2, 4, 8, 16], s);
        let r = run_tag_once(&Sum, &i, 1);
        assert!(!r.clean, "critical failure must strip the clean bit");
        assert_eq!(r.result, 1, "only the root's own input survives");
    }

    #[test]
    fn folklore_retries_to_clean_run() {
        let g = topology::path(5);
        let d = g.diameter() as u64;
        let action_of_1 = (2 * d + 1) + (d - 1 + 1);
        let mut s = FailureSchedule::none();
        s.crash(NodeId(1), action_of_1);
        let i = inst(g, vec![1, 2, 4, 8, 16], s);
        let r = run_folklore(&Sum, &i, 1, 10);
        assert!(!r.exhausted);
        assert_eq!(r.attempts, 2);
        assert!(r.correct);
        // Node 1 dead; 2,3,4 partitioned from the root on a path.
        assert_eq!(r.result, 1);
    }

    #[test]
    fn folklore_failure_free_single_attempt() {
        let i = inst(topology::grid(3, 3), vec![2; 9], FailureSchedule::none());
        let r = run_folklore(&Sum, &i, 1, 5);
        assert_eq!(r.attempts, 1);
        assert_eq!(r.result, 18);
        assert!(r.correct);
    }

    #[test]
    fn folklore_cc_scales_with_attempts() {
        // Two staggered leaf crashes on a star: each spoils one attempt.
        let g = topology::star(8);
        let mut s = FailureSchedule::none();
        // Star: d = 2; attempt = 3*2+2 = 8 rounds. Leaves act at round
        // 2d+1 + (d-1+1) = 5+2 = 7. Crash leaf 3 at 7 in attempt 1 and
        // leaf 4 at 8+7=15 (attempt 2).
        s.crash(NodeId(3), 7);
        s.crash(NodeId(4), 15);
        let i = inst(g, vec![1; 8], s);
        let r = run_folklore(&Sum, &i, 1, 10);
        assert!(r.correct);
        assert_eq!(r.attempts, 3);
    }
}
