//! The brute-force SUM protocol (Section 1).
//!
//! "A brute-force SUM protocol, which has every node flood its id together
//! with its value to the whole network, can tolerate arbitrary number of
//! failures, while incurring O(1) TC and O(N log N) CC."
//!
//! The root floods a 1-bit start signal; upon first receiving it, a node
//! floods `⟨id, input⟩`; the root aggregates one report per id. The paper
//! uses this both as a baseline (Figure 1's left end) and as the fallback
//! at Line 6 of Algorithm 1, budgeted at `2c` flooding rounds.

use crate::config::Instance;
use crate::observe::{Observe, Observed};
use caaf::Caaf;
use netsim::{
    Engine, EventId, FailureSchedule, FloodState, Message, Metrics, MonitorConfig, NodeId,
    NodeLogic, Round, RoundCtx,
};
use std::collections::BTreeMap;

/// Messages of the brute-force protocol.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum BruteMsg {
    /// The root's start bit.
    Start,
    /// A node's flooded `⟨id, value⟩` report.
    Report {
        /// Reporting node.
        id: NodeId,
        /// Its input.
        value: u64,
    },
}

/// [`BruteMsg`] with its exact wire size (1 bit for `Start`;
/// `1 + log N + value_bits` for a report — 1 tag bit suffices for two
/// variants).
#[derive(Clone, Debug)]
pub struct BruteEnvelope {
    /// The payload.
    pub msg: BruteMsg,
    bits: u64,
}

impl BruteEnvelope {
    fn new(msg: BruteMsg, id_bits: u32, value_bits: u32) -> Self {
        let bits = match msg {
            BruteMsg::Start => 1,
            BruteMsg::Report { .. } => 1 + u64::from(id_bits) + u64::from(value_bits),
        };
        BruteEnvelope { msg, bits }
    }
}

impl Message for BruteEnvelope {
    fn bit_len(&self) -> u64 {
        self.bits
    }

    fn kind(&self) -> &'static str {
        // Algorithm 1 only reaches the brute force as its Line 6 fallback;
        // the blame analysis files every brute bit under that stage.
        "fallback"
    }
}

/// Per-node logic of the brute-force protocol.
pub struct BruteNode {
    me: NodeId,
    root: NodeId,
    input: u64,
    id_bits: u32,
    value_bits: u32,
    started: bool,
    flood: FloodState<BruteMsg>,
    reports: BTreeMap<NodeId, u64>,
    /// Every delivery event id this node has ever received, declared as
    /// the causes of each outgoing flood batch (a forwarded report depends
    /// on the delivery that carried it; the conservative union is sound
    /// for a flood protocol whose state mixes everything heard).
    heard_ids: Vec<EventId>,
}

impl BruteNode {
    /// Creates the logic for node `me`.
    pub fn new(me: NodeId, root: NodeId, input: u64, id_bits: u32, value_bits: u32) -> Self {
        BruteNode {
            me,
            root,
            input,
            id_bits,
            value_bits,
            started: false,
            flood: FloodState::new(),
            reports: BTreeMap::new(),
            heard_ids: Vec::new(),
        }
    }

    fn start(&mut self, out: &mut Vec<BruteMsg>) {
        self.started = true;
        let report = BruteMsg::Report { id: self.me, value: self.input };
        self.flood.mark_seen(report.clone());
        self.reports.insert(self.me, self.input);
        if self.me != self.root {
            // The root's own input never travels; non-roots flood theirs.
            out.push(report);
        }
    }

    /// Reports the root has received (plus its own), by node id.
    pub fn reports(&self) -> &BTreeMap<NodeId, u64> {
        &self.reports
    }

    /// Aggregate of all received reports under `op`.
    pub fn result<C: Caaf>(&self, op: &C) -> u64 {
        op.aggregate(self.reports.values().copied())
    }
}

impl NodeLogic<BruteEnvelope> for BruteNode {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, BruteEnvelope>) {
        let mut out: Vec<BruteMsg> = Vec::new();
        if ctx.round() == 1 && self.me == self.root {
            self.flood.mark_seen(BruteMsg::Start);
            out.push(BruteMsg::Start);
            self.start(&mut out);
        }
        let inbox: Vec<BruteMsg> = ctx.inbox().iter().map(|m| m.msg.msg.clone()).collect();
        for i in 0..inbox.len() {
            let id = ctx.delivery_id(i);
            if id.is_some() {
                self.heard_ids.push(id);
            }
        }
        for msg in inbox {
            if self.flood.first_sighting(msg.clone()) {
                if let BruteMsg::Report { id, value } = msg {
                    self.reports.insert(id, value);
                }
                out.push(msg.clone());
            }
            if matches!(msg, BruteMsg::Start) && !self.started {
                self.start(&mut out);
            }
        }
        if !out.is_empty() {
            ctx.send_caused_by(&self.heard_ids);
        }
        for m in out {
            ctx.send(BruteEnvelope::new(m, self.id_bits, self.value_bits));
        }
    }

    /// The root starts the flood in round 1; every node runs on mail only
    /// after that.
    fn next_wake(&self, round: Round) -> Round {
        if self.me == self.root && round < 1 {
            1
        } else {
            Round::MAX
        }
    }
}

/// Outcome of a brute-force run.
#[derive(Clone, Debug)]
pub struct BruteReport {
    /// The aggregate over all reports the root received.
    pub result: u64,
    /// Rounds executed (`2 · c · d`).
    pub rounds: Round,
    /// Bit meters.
    pub metrics: Metrics,
    /// Correctness against the paper's oracle at the end of the run
    /// (shifted by `global_offset`).
    pub correct: bool,
}

/// Runs the brute-force protocol over `inst` with stretch `c`, using
/// `schedule` (already shifted when called as Algorithm 1's fallback) and
/// evaluating correctness at global round `global_offset + rounds`.
///
/// # Examples
///
/// ```
/// use caaf::Sum;
/// use ftagg::{baselines::run_brute, Instance};
/// use netsim::{topology, FailureSchedule, NodeId};
///
/// let inst = Instance::new(
///     topology::cycle(6), NodeId(0), (1..=6).collect(), FailureSchedule::none(), 6,
/// )?;
/// let report = run_brute(&Sum, &inst, inst.schedule.clone(), 1, 0);
/// assert_eq!(report.result, 21);
/// assert!(report.correct);
/// # Ok::<(), String>(())
/// ```
pub fn run_brute<C: Caaf>(
    op: &C,
    inst: &Instance,
    schedule: FailureSchedule,
    c: u32,
    global_offset: Round,
) -> BruteReport {
    run_brute_observed(op, inst, schedule, c, global_offset, Observe::default()).0
}

/// [`run_brute`] with the observers in `obs` attached (every message
/// carries kind `"fallback"`). The protocol has no bit budget, so a
/// requested watchdog checks crash silence (and delivery causality, when
/// a trace has the engine build deliveries) only.
/// The run records no `Decide` event: the driver reads the root's
/// aggregate at the horizon.
pub fn run_brute_observed<C: Caaf>(
    op: &C,
    inst: &Instance,
    schedule: FailureSchedule,
    c: u32,
    global_offset: Round,
    obs: Observe<'_>,
) -> (BruteReport, Observed) {
    let model = inst.model(c);
    let id_bits = model.id_bits();
    let value_bits = op.value_bits(model.n, model.max_input);
    let inputs = inst.inputs.clone();
    let root = inst.root;
    let mut eng: Engine<BruteEnvelope, BruteNode> =
        Engine::new(inst.graph.clone(), schedule, |v| {
            BruteNode::new(v, root, inputs[v.index()], id_bits, value_bits)
        });
    let attached = obs.attach(&mut eng, || MonitorConfig::new(model.n));
    // Start bit spreads in ≤ cd rounds; the farthest report needs ≤ cd
    // more, arriving in round 2cd + 1; +1 slack for the boundary.
    let horizon = 2 * model.cd() + 2;
    let run = eng.run(horizon);
    let result = eng.node(root).result(op);
    let correct = inst.correct_interval(op, global_offset + run.rounds).contains(result);
    let report =
        BruteReport { result, rounds: run.rounds, metrics: eng.metrics().clone(), correct };
    (report, attached.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use caaf::Sum;
    use netsim::topology;

    fn inst(g: netsim::Graph, inputs: Vec<u64>, s: FailureSchedule) -> Instance {
        let max = inputs.iter().copied().max().unwrap_or(0).max(1);
        Instance::new(g, NodeId(0), inputs, s, max).unwrap()
    }

    #[test]
    fn failure_free_exact() {
        let i = inst(topology::grid(3, 3), (1..=9).collect(), FailureSchedule::none());
        let r = run_brute(&Sum, &i, i.schedule.clone(), 1, 0);
        assert_eq!(r.result, 45);
        assert!(r.correct);
        assert_eq!(r.rounds, 2 * 4 + 2); // d = 4, c = 1, plus boundary slack
    }

    #[test]
    fn cc_scales_with_n() {
        // Every node forwards every report: CC ~ N(logN + value bits).
        let n = 16;
        let i = inst(topology::path(n), vec![1; n], FailureSchedule::none());
        let r = run_brute(&Sum, &i, i.schedule.clone(), 1, 0);
        let per_report = 1 + u64::from(wire::id_bits(n)) + u64::from(Sum.value_bits(n, 1));
        // Interior path nodes forward ~all N reports plus the start bit.
        assert!(r.metrics.max_bits() >= (n as u64 - 2) * per_report);
        assert!(r.metrics.max_bits() <= (n as u64 + 2) * per_report + 2);
    }

    #[test]
    fn tolerates_mass_failure() {
        let mut s = FailureSchedule::none();
        // Half the cycle dies mid-protocol.
        for v in 5..10u32 {
            s.crash(NodeId(v), 3);
        }
        let i = inst(topology::cycle(10), vec![10; 10], s);
        let r = run_brute(&Sum, &i, i.schedule.clone(), 2, 0);
        assert!(r.correct, "brute force is always correct, got {}", r.result);
    }

    #[test]
    fn crash_before_start_excludes_input() {
        let mut s = FailureSchedule::none();
        s.crash(NodeId(2), 1);
        let i = inst(topology::path(4), vec![1, 1, 1, 1], s);
        let r = run_brute(&Sum, &i, i.schedule.clone(), 1, 0);
        // Node 2 dead from round 1; nodes 2,3 partitioned; 0,1 report.
        assert_eq!(r.result, 2);
        assert!(r.correct);
    }
}
