//! The paired AGG (Algorithm 2) + VERI (Algorithm 3) execution.
//!
//! One [`PairNode`] per node runs both protocols back-to-back, exactly as
//! Algorithm 1 invokes them: VERI reuses the tree state (`parent`,
//! `children`, `ancestor`, `level`, `max_level`) of the AGG execution that
//! precedes it.
//!
//! ## Round layout (`cd` = `c · d`)
//!
//! | Phase | Rounds | Paper |
//! |-------|--------|-------|
//! | A1 tree construction      | `1 ..= 2cd+1`        | Alg. 2 lines 1–13 |
//! | A2 aggregation            | `2cd+2 ..= 4cd+2`    | lines 14–23 |
//! | A3 speculative flooding   | `4cd+3 ..= 6cd+3`    | lines 24–28 |
//! | A4 partial-sum selection  | `6cd+4 ..= 7cd+4`    | lines 29–40 |
//! | V1 failed-parent detect   | `7cd+5 ..= 9cd+5`    | Alg. 3 lines 1–8 |
//! | V2 failed-child detect    | `9cd+6 ..= 11cd+6`   | lines 9–18 |
//! | V3 LFC detection          | `11cd+7 ..= 12cd+7`  | lines 19–31 |
//!
//! AGG ends at round `7cd + 4` and VERI adds `5cd + 3` more — matching the
//! explicit counts in the proofs of Theorems 3 and 6.
//!
//! ## Interpretation choices (DESIGN.md §5)
//!
//! * Tree construction advances one tree level per **two** rounds (receive →
//!   ack same round, own `tree_construct` next round), which is what makes
//!   the phase budget `2cd + 1` exact.
//! * The "no message from parent" checks of A3 and V1 are **cumulative over
//!   the phase** (the paper's §4.2/§5.1 prose says "within `l + 1` rounds"),
//!   because flood deduplication means a live parent may have forwarded a
//!   payload earlier than the check round.
//! * V2's failed-child check is **exact-round**: every live node emits a
//!   1-bit `detect_failed_child` beacon in its scheduled round, so silence
//!   in that round is proof of death.
//! * Budget-overflow symbols (`AggAbort`, `VeriOverflow`) are exempt from
//!   the budget they enforce (they must be sendable at the boundary).

use crate::config::Model;
use crate::msg::{agg_bit_budget, veri_bit_budget, AggMsg, Envelope, WireCtx};
use caaf::Caaf;
use netsim::{FloodState, Inbox, NodeId, NodeLogic, Round, RoundCtx};
use std::collections::{BTreeMap, BTreeSet};

/// Ablation switches for the design-choice experiments (E12). The faithful
/// protocol uses [`Tweaks::default`]; the other settings *break* specific
/// guarantees on purpose, to demonstrate why the paper's choices are
/// load-bearing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tweaks {
    /// Ancestor-table length as a multiple of `t` (paper: 2). With 1, a
    /// witness whose table ends before the fragment boundary can no longer
    /// distinguish "dominated" from "boundary beyond horizon", and
    /// double-counting can slip through.
    pub ancestor_factor: u32,
    /// Whether non-root nodes speculatively flood blocked partial sums
    /// (paper: yes). With `false`, any critical failure silently discards
    /// its subtree's live inputs — the O(1)-TC recovery disappears.
    pub speculative_flooding: bool,
    /// Overrides the per-message blame kind every envelope is tagged with
    /// (default: each message's own [`AggMsg::blame_kind`]). Purely
    /// observational — tags only affect trace attribution, never bits or
    /// behavior. Used by drivers that reattribute a whole pair execution,
    /// e.g. the doubling baseline tagging its stages "doubling-stage".
    pub kind_override: Option<&'static str>,
}

impl Default for Tweaks {
    fn default() -> Self {
        Tweaks { ancestor_factor: 2, speculative_flooding: true, kind_override: None }
    }
}

/// Static parameters of a pair execution.
#[derive(Clone, Copy, Debug)]
pub struct PairParams {
    /// Model constants (`N`, root, `d`, `c`, input bound).
    pub model: Model,
    /// The failure-tolerance parameter `t ≥ 0` of AGG and VERI.
    pub t: u32,
    /// Whether to run VERI after AGG (Algorithm 1 always does; standalone
    /// AGG measurements do not).
    pub run_veri: bool,
    /// Ablation switches (default = the paper's protocol).
    pub tweaks: Tweaks,
}

impl PairParams {
    #[inline]
    fn cd(&self) -> u64 {
        self.model.cd().max(1)
    }

    /// Ancestor-table horizon: `2t` for the faithful protocol.
    #[inline]
    pub fn horizon(&self) -> u32 {
        self.tweaks.ancestor_factor * self.t
    }

    /// Rounds AGG occupies: `7cd + 4` (Theorem 3).
    #[inline]
    pub fn agg_rounds(&self) -> u64 {
        7 * self.cd() + 4
    }

    /// Rounds VERI occupies: `5cd + 3` (Theorem 6).
    #[inline]
    pub fn veri_rounds(&self) -> u64 {
        5 * self.cd() + 3
    }

    /// Total rounds of the execution.
    #[inline]
    pub fn total_rounds(&self) -> u64 {
        if self.run_veri {
            self.agg_rounds() + self.veri_rounds()
        } else {
            self.agg_rounds()
        }
    }
}

/// The scheduled steps of a pair execution, one per row of the round
/// layout that acts in a fixed round (A1 acts one round after activation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    /// A1: broadcast the own `tree_construct`.
    TreeConstruct,
    /// A2: aggregate the children's partial sums.
    Aggregate,
    /// A3: flood the own partial sum (root: start the phase).
    Speculate,
    /// A4: witness determinations.
    Determine,
    /// V1: failed-parent detection (root: start the phase).
    DetectParent,
    /// V2: failed-child beacon and check.
    DetectChild,
    /// V3: LFC verdicts.
    Verdict,
}

impl Step {
    const ALL: [Step; 7] = [
        Step::TreeConstruct,
        Step::Aggregate,
        Step::Speculate,
        Step::Determine,
        Step::DetectParent,
        Step::DetectChild,
        Step::Verdict,
    ];
}

/// Result of AGG at the root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AggOutcome {
    /// AGG completed; the root computed this aggregate.
    Result(u64),
    /// A node exhausted its bit budget and AGG aborted.
    Aborted,
}

/// Read-only view of a node's tree state after an execution, for offline
/// analysis (fragments, LFC oracle, experiment reports).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// Whether the node ever joined the tree.
    pub activated: bool,
    /// Tree level (0 at the root), if activated.
    pub level: Option<u32>,
    /// Tree parent, if activated and not the root.
    pub parent: Option<NodeId>,
    /// Registered children (nodes whose `ack` was received).
    pub children: BTreeSet<NodeId>,
    /// Maximum level seen among local descendants (from aggregation).
    pub max_level: u32,
    /// The node's partial sum at the end of aggregation.
    pub psum: u64,
}

/// Per-node state machine for one AGG (+ optional VERI) execution.
#[derive(Clone, Debug)]
pub struct PairNode<C: Caaf> {
    params: PairParams,
    op: C,
    wire: WireCtx,
    me: NodeId,

    // Tree state.
    activated: bool,
    level: Option<u32>,
    parent: Option<NodeId>,
    /// Nearest ancestors, nearest first, at most `2t` entries.
    ancestors: Vec<NodeId>,
    children: BTreeSet<NodeId>,
    tc_emit_round: Option<Round>,

    // Aggregation state.
    psum: u64,
    max_level: u32,
    child_aggs: BTreeMap<NodeId, (u64, u32)>,

    // Flood state and recorded flood contents.
    flood: FloodState<AggMsg>,
    crit_failed: BTreeSet<NodeId>,
    flooded_psums: BTreeMap<NodeId, u64>,
    compulsory: BTreeSet<NodeId>,
    dominated: BTreeSet<NodeId>,
    failed_parents: BTreeSet<(NodeId, u32)>,
    failed_children: BTreeSet<NodeId>,
    lfc_tails: BTreeSet<NodeId>,
    not_lfc_tails: BTreeSet<NodeId>,

    // Cumulative "heard from parent" flags.
    a3_heard_parent: bool,
    v1_heard_parent: bool,

    // Budgets.
    agg_bits: u64,
    veri_bits: u64,
    aborted: bool,
    veri_overflow: bool,

    // Causal lineage: ids of every delivery consumed so far, declared as
    // the causes of each broadcast. The protocol's floods mix all received
    // state, so the sound annotation is the cumulative set (equal to the
    // tracer's conservative closure, but recorded explicitly end-to-end).
    // Empty while tracing is off — zero cost on untraced runs.
    heard_ids: Vec<netsim::EventId>,
}

impl<C: Caaf> PairNode<C> {
    /// Creates the state machine for node `me` with the given `input`.
    pub fn new(params: PairParams, op: C, me: NodeId, input: u64) -> Self {
        let wire = WireCtx {
            n: params.model.n,
            value_bits: op.value_bits(params.model.n, params.model.max_input),
        };
        let is_root = me == params.model.root;
        PairNode {
            params,
            op,
            wire,
            me,
            activated: is_root,
            level: if is_root { Some(0) } else { None },
            parent: None,
            ancestors: Vec::new(),
            children: BTreeSet::new(),
            tc_emit_round: if is_root { Some(1) } else { None },
            psum: input,
            max_level: 0,
            child_aggs: BTreeMap::new(),
            flood: FloodState::new(),
            crit_failed: BTreeSet::new(),
            flooded_psums: BTreeMap::new(),
            compulsory: BTreeSet::new(),
            dominated: BTreeSet::new(),
            failed_parents: BTreeSet::new(),
            failed_children: BTreeSet::new(),
            lfc_tails: BTreeSet::new(),
            not_lfc_tails: BTreeSet::new(),
            a3_heard_parent: false,
            v1_heard_parent: false,
            agg_bits: 0,
            veri_bits: 0,
            aborted: false,
            veri_overflow: false,
            heard_ids: Vec::new(),
        }
    }

    // ----- phase boundaries -----

    fn a1_end(&self) -> u64 {
        2 * self.params.cd() + 1
    }
    fn a2_end(&self) -> u64 {
        4 * self.params.cd() + 2
    }
    fn a3_end(&self) -> u64 {
        6 * self.params.cd() + 3
    }
    fn a4_end(&self) -> u64 {
        7 * self.params.cd() + 4
    }
    fn v1_end(&self) -> u64 {
        9 * self.params.cd() + 5
    }
    fn v2_end(&self) -> u64 {
        11 * self.params.cd() + 6
    }

    /// The round in which `step` fires for this node in its current state,
    /// if it fires at all. [`PairNode::actions`] acts only in these rounds
    /// and [`NodeLogic::next_wake`] wakes the node for them, so the phase
    /// table lives here alone.
    fn step_round(&self, step: Step) -> Option<Round> {
        let cd = self.params.cd();
        // `level` is set exactly when the node activates (the root's is 0).
        let lvl = self.level.map(u64::from);
        // A2 and V2 act at phase round `cd - level + 1`.
        let upward = lvl.filter(|&l| l <= cd).map(|l| cd - l + 1);
        match step {
            Step::TreeConstruct => self.tc_emit_round.filter(|&r| r <= self.a1_end()),
            Step::Aggregate => upward.map(|k| self.a1_end() + k),
            Step::Speculate => lvl.map(|l| self.a2_end() + 1 + l).filter(|&r| r <= self.a3_end()),
            Step::Determine => Some(self.a3_end() + 1),
            Step::DetectParent => {
                lvl.map(|l| self.a4_end() + 1 + l).filter(|&r| r <= self.v1_end())
            }
            Step::DetectChild => upward.map(|k| self.v1_end() + k),
            Step::Verdict => Some(self.v2_end() + 1),
        }
    }

    /// Whether `step` fires in round `r`.
    fn fires(&self, step: Step, r: Round) -> bool {
        self.step_round(step) == Some(r)
    }

    /// `ancestor[i]` with the paper's indexing: index 0 is the node itself,
    /// then nearest ancestors outward; `None` past the known horizon.
    fn anc(&self, i: u32) -> Option<NodeId> {
        if i == 0 {
            Some(self.me)
        } else {
            self.ancestors.get(i as usize - 1).copied()
        }
    }

    /// `min j ∈ [0, 2t]` with `ancestor[j]` the root or a recorded critical
    /// failure (the fragment-boundary index of the witness logic).
    fn boundary_index(&self) -> Option<u32> {
        (0..=self.params.horizon()).find(|&j| {
            self.anc(j)
                .is_some_and(|a| a == self.params.model.root || self.crit_failed.contains(&a))
        })
    }

    /// `min i ∈ [0, 2t]` with `ancestor[i] == v`.
    fn ancestor_index(&self, v: NodeId) -> Option<u32> {
        (0..=self.params.horizon()).find(|&i| self.anc(i) == Some(v))
    }

    fn initiate_flood(&mut self, msg: AggMsg, out: &mut Vec<AggMsg>) {
        if self.flood.first_sighting(msg.clone()) {
            self.record_flood(&msg);
            out.push(msg);
        }
    }

    fn record_flood(&mut self, msg: &AggMsg) {
        match msg {
            AggMsg::CriticalFailure { node } => {
                self.crit_failed.insert(*node);
            }
            AggMsg::FloodedPsum { source, psum } => {
                self.flooded_psums.insert(*source, *psum);
            }
            AggMsg::Determination { dominated, node } => {
                if *dominated {
                    self.dominated.insert(*node);
                } else {
                    self.compulsory.insert(*node);
                }
            }
            AggMsg::AggAbort => self.aborted = true,
            AggMsg::FailedParent { parent, x } => {
                self.failed_parents.insert((*parent, *x));
            }
            AggMsg::FailedChild { child } => {
                self.failed_children.insert(*child);
            }
            AggMsg::LfcVerdict { tail, node } => {
                if *tail {
                    self.lfc_tails.insert(*node);
                } else {
                    self.not_lfc_tails.insert(*node);
                }
            }
            AggMsg::VeriOverflow => self.veri_overflow = true,
            AggMsg::DetectFailedParent
            | AggMsg::TreeConstruct { .. }
            | AggMsg::Ack { .. }
            | AggMsg::Aggregation { .. }
            | AggMsg::DetectFailedChild => {}
        }
    }

    fn process_inbox(&mut self, inbox: Inbox<'_, Envelope>, r: Round, out: &mut Vec<AggMsg>) {
        let in_a3 = r > self.a2_end() && r <= self.a3_end();
        let in_v1 = r > self.a4_end() && r <= self.v1_end();
        // Best tree_construct candidate this round (lowest sender id).
        let mut tc_best: Option<(NodeId, u32, Vec<NodeId>)> = None;
        for rcv in inbox {
            if Some(rcv.from) == self.parent {
                if in_a3 && matches!(rcv.msg.msg, AggMsg::FloodedPsum { .. }) {
                    self.a3_heard_parent = true;
                }
                if in_v1 {
                    self.v1_heard_parent = true;
                }
            }
            match &rcv.msg.msg {
                AggMsg::TreeConstruct { level, ancestors } => {
                    if !self.activated && r <= self.a1_end() {
                        let better = tc_best.as_ref().is_none_or(|(from, _, _)| rcv.from < *from);
                        if better {
                            tc_best = Some((rcv.from, *level, ancestors.clone()));
                        }
                    }
                }
                AggMsg::Ack { parent } => {
                    if *parent == self.me {
                        self.children.insert(rcv.from);
                    }
                }
                AggMsg::Aggregation { psum, max_level } => {
                    if self.children.contains(&rcv.from) {
                        self.child_aggs.insert(rcv.from, (*psum, *max_level));
                    }
                }
                AggMsg::DetectFailedChild => {}
                flood => {
                    if self.flood.first_sighting(flood.clone()) {
                        self.record_flood(flood);
                        out.push(flood.clone());
                    }
                }
            }
        }
        if let Some((from, lvl, anc)) = tc_best {
            self.activated = true;
            self.level = Some(lvl + 1);
            self.parent = Some(from);
            let two_t = self.params.horizon() as usize;
            let mut mine = Vec::with_capacity(two_t.min(lvl as usize + 1));
            mine.push(from);
            for a in anc {
                if mine.len() >= two_t.max(1) {
                    break;
                }
                mine.push(a);
            }
            mine.truncate(two_t.max(1));
            // With t = 0 the paper keeps no ancestor table; we still keep the
            // parent (it is free knowledge) but never index past 2t.
            self.ancestors = mine;
            self.max_level = lvl + 1;
            out.push(AggMsg::Ack { parent: from });
            self.tc_emit_round = Some(r + 1);
        }
    }

    fn actions(&mut self, r: Round, inbox: Inbox<'_, Envelope>, out: &mut Vec<AggMsg>) {
        let is_root = self.me == self.params.model.root;

        // A1: emit own tree_construct one round after activation.
        if self.fires(Step::TreeConstruct, r) {
            let lvl = self.level.expect("activated nodes have a level");
            let two_t = self.params.horizon() as usize;
            let mut anc = self.ancestors.clone();
            anc.truncate(two_t.min(lvl as usize));
            out.push(AggMsg::TreeConstruct { level: lvl, ancestors: anc });
        }

        // A2: aggregation action at phase round cd - level + 1.
        if self.fires(Step::Aggregate, r) {
            let kids: Vec<NodeId> = self.children.iter().copied().collect();
            for v in kids {
                if let Some(&(ps, ml)) = self.child_aggs.get(&v) {
                    self.psum = self.op.combine(self.psum, ps);
                    self.max_level = self.max_level.max(ml);
                } else {
                    self.initiate_flood(AggMsg::CriticalFailure { node: v }, out);
                }
            }
            out.push(AggMsg::Aggregation { psum: self.psum, max_level: self.max_level });
        }

        // A3: speculative flooding; the root floods unconditionally at the
        // phase start.
        if self.fires(Step::Speculate, r)
            && (is_root || (self.params.tweaks.speculative_flooding && !self.a3_heard_parent))
        {
            self.initiate_flood(AggMsg::FloodedPsum { source: self.me, psum: self.psum }, out);
        }

        // A4: witness determinations, phase round 1.
        if self.fires(Step::Determine, r) {
            let t = self.params.t;
            let j = self.boundary_index();
            let sources: Vec<(NodeId, u64)> =
                self.flooded_psums.iter().map(|(&s, &p)| (s, p)).collect();
            for (source, _) in sources {
                let Some(i) = self.ancestor_index(source) else {
                    continue;
                };
                let is_witness = i <= t && j.is_none_or(|j| i <= j);
                if !is_witness {
                    continue;
                }
                let verdict = match j {
                    None => true, // j = ∞: dominated (fragment root beyond horizon)
                    Some(j) => {
                        // dom: a flooded psum from a strict local ancestor.
                        (i + 1..=j).any(|k| {
                            self.anc(k).is_some_and(|a| self.flooded_psums.contains_key(&a))
                        })
                    }
                };
                self.initiate_flood(
                    AggMsg::Determination { dominated: verdict, node: source },
                    out,
                );
            }
        }

        if !self.params.run_veri {
            return;
        }

        // V1: failed-parent detection; the root starts the phase.
        if self.fires(Step::DetectParent, r) {
            if is_root {
                self.initiate_flood(AggMsg::DetectFailedParent, out);
            } else if !self.v1_heard_parent {
                let parent = self.parent.expect("activated non-root has parent");
                let x = self.max_level - self.level.expect("activated") + 1;
                self.initiate_flood(AggMsg::FailedParent { parent, x }, out);
            }
        }

        // V2: failed-child detection at phase round cd - level + 1. Every
        // live child beacons in this very round, so silence is death.
        if self.fires(Step::DetectChild, r) {
            out.push(AggMsg::DetectFailedChild);
            let kids: Vec<NodeId> = self.children.iter().copied().collect();
            for v in kids {
                if !inbox.iter().any(|m| m.from == v) {
                    self.initiate_flood(AggMsg::FailedChild { child: v }, out);
                }
            }
        }

        // V3: LFC verdicts, phase round 1.
        if self.fires(Step::Verdict, r) {
            let t = self.params.t;
            let j = self.boundary_index();
            let accused: BTreeSet<NodeId> = self.failed_parents.iter().map(|&(v, _)| v).collect();
            for v in accused {
                let Some(i) = self.ancestor_index(v) else {
                    continue;
                };
                let is_witness = i <= t && j.is_none_or(|j| i <= j);
                if !is_witness {
                    continue;
                }
                let k = (i..=self.params.horizon()).find(|&k| {
                    self.anc(k).is_some_and(|a| {
                        self.failed_children.contains(&a)
                            || a == self.params.model.root
                            || self.crit_failed.contains(&a)
                    })
                });
                let tail = match k {
                    None => true, // chain extends beyond the horizon
                    Some(k) => k - i + 1 >= t,
                };
                self.initiate_flood(AggMsg::LfcVerdict { tail, node: v }, out);
            }
        }
    }

    fn flush(&mut self, mut out: Vec<AggMsg>, ctx: &mut RoundCtx<'_, Envelope>) {
        let r = ctx.round();
        let in_agg = r <= self.a4_end();
        if in_agg {
            if self.aborted {
                out.retain(|m| matches!(m, AggMsg::AggAbort));
            } else {
                let bits: u64 = out.iter().map(|m| m.bit_len(&self.wire)).sum();
                let budget = agg_bit_budget(self.params.model.n, self.params.t);
                if self.agg_bits + bits > budget {
                    out.clear();
                    self.aborted = true;
                    if self.flood.first_sighting(AggMsg::AggAbort) {
                        out.push(AggMsg::AggAbort);
                    }
                }
            }
            self.agg_bits += out
                .iter()
                .filter(|m| !matches!(m, AggMsg::AggAbort))
                .map(|m| m.bit_len(&self.wire))
                .sum::<u64>();
        } else {
            if self.veri_overflow {
                out.retain(|m| matches!(m, AggMsg::VeriOverflow));
            } else {
                let bits: u64 = out.iter().map(|m| m.bit_len(&self.wire)).sum();
                let budget = veri_bit_budget(self.params.model.n, self.params.t);
                if self.veri_bits + bits > budget {
                    out.clear();
                    self.veri_overflow = true;
                    if self.flood.first_sighting(AggMsg::VeriOverflow) {
                        out.push(AggMsg::VeriOverflow);
                    }
                }
            }
            self.veri_bits += out
                .iter()
                .filter(|m| !matches!(m, AggMsg::VeriOverflow))
                .map(|m| m.bit_len(&self.wire))
                .sum::<u64>();
        }
        if !out.is_empty() {
            ctx.send_caused_by(&self.heard_ids);
        }
        for m in out {
            let env = match self.params.tweaks.kind_override {
                Some(kind) => Envelope::with_kind(m, &self.wire, kind),
                None => Envelope::new(m, &self.wire),
            };
            ctx.send(env);
        }
    }

    // ----- post-run accessors (root) -----

    /// The parameters this node runs with.
    pub fn params(&self) -> &PairParams {
        &self.params
    }

    /// AGG's outcome at the root (Algorithm 2's output phase).
    pub fn agg_outcome(&self) -> AggOutcome {
        if self.aborted {
            return AggOutcome::Aborted;
        }
        let vals =
            self.flooded_psums.iter().filter(|(s, _)| self.compulsory.contains(s)).map(|(_, &p)| p);
        AggOutcome::Result(self.op.aggregate(vals))
    }

    /// VERI's verdict at the root (Algorithm 3's output phase).
    pub fn veri_verdict(&self) -> bool {
        if self.veri_overflow {
            return false;
        }
        if !self.lfc_tails.is_empty() {
            return false;
        }
        for &(v, x) in &self.failed_parents {
            if x >= self.params.t && !self.not_lfc_tails.contains(&v) {
                return false;
            }
        }
        true
    }

    /// True iff this node saw (or raised) the AGG abort symbol.
    pub fn saw_abort(&self) -> bool {
        self.aborted
    }

    /// Tree-state snapshot for offline analysis.
    pub fn snapshot(&self) -> NodeSnapshot {
        NodeSnapshot {
            activated: self.activated,
            level: self.level,
            parent: self.parent,
            children: self.children.clone(),
            max_level: self.max_level,
            psum: self.psum,
        }
    }

    /// Critical failures this node saw flooded (at the root: the *visible*
    /// critical failures defining the fragment decomposition).
    pub fn critical_failures_seen(&self) -> &BTreeSet<NodeId> {
        &self.crit_failed
    }

    /// Flooded partial sums this node received, by source.
    pub fn flooded_psums_seen(&self) -> &BTreeMap<NodeId, u64> {
        &self.flooded_psums
    }

    /// Sources labeled compulsory-or-optional by some witness.
    pub fn compulsory_seen(&self) -> &BTreeSet<NodeId> {
        &self.compulsory
    }

    /// Failed-parent claims seen (node, depth-witness `x`).
    pub fn failed_parents_seen(&self) -> &BTreeSet<(NodeId, u32)> {
        &self.failed_parents
    }

    /// This node's AGG bits sent (excluding the abort symbol).
    pub fn agg_bits_sent(&self) -> u64 {
        self.agg_bits
    }

    /// This node's VERI bits sent (excluding the overflow symbol).
    pub fn veri_bits_sent(&self) -> u64 {
        self.veri_bits
    }
}

impl<C: Caaf> NodeLogic<Envelope> for PairNode<C> {
    // With an empty inbox, a call changes nothing outside the rounds of
    // `step_round`: `process_inbox` has nothing to read and `flush` of an
    // empty outbox touches no field. So the node sleeps in between.
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Envelope>) {
        let r = ctx.round();
        if r > self.params.total_rounds() {
            return;
        }
        let inbox = ctx.inbox();
        // Remember this round's delivery ids for causal declarations (the
        // ids are NONE — and skipped — when tracing is off).
        for i in 0..inbox.len() {
            let id = ctx.delivery_id(i);
            if id.is_some() {
                self.heard_ids.push(id);
            }
        }
        let mut out = Vec::new();
        self.process_inbox(inbox, r, &mut out);
        self.actions(r, inbox, &mut out);
        self.flush(out, ctx);
    }

    fn next_wake(&self, round: Round) -> Round {
        Step::ALL
            .iter()
            .filter_map(|&s| self.step_round(s))
            .filter(|&r| r > round && r <= self.params.total_rounds())
            .min()
            .unwrap_or(Round::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caaf::Sum;
    use netsim::{topology, Engine, FailureSchedule};

    fn params(n: usize, d: u32, t: u32) -> PairParams {
        PairParams {
            model: Model { n, root: NodeId(0), d, c: 1, max_input: 100 },
            t,
            run_veri: true,
            tweaks: Tweaks::default(),
        }
    }

    fn run(
        g: netsim::Graph,
        inputs: &[u64],
        schedule: FailureSchedule,
        t: u32,
    ) -> Engine<Envelope, PairNode<Sum>> {
        let d = g.diameter().max(1);
        let p = params(g.len(), d, t);
        let inputs = inputs.to_vec();
        let mut eng = Engine::new(g, schedule, |v| PairNode::new(p, Sum, v, inputs[v.index()]));
        eng.run(p.total_rounds());
        eng
    }

    #[test]
    fn failure_free_path_exact_sum() {
        let g = topology::path(6);
        let eng = run(g, &[1, 2, 3, 4, 5, 6], FailureSchedule::none(), 2);
        let root = eng.node(NodeId(0));
        assert_eq!(root.agg_outcome(), AggOutcome::Result(21));
        assert!(root.veri_verdict());
        assert!(!root.saw_abort());
    }

    #[test]
    fn failure_free_star_and_grid() {
        let g = topology::star(9);
        let inputs: Vec<u64> = (1..=9).collect();
        let eng = run(g, &inputs, FailureSchedule::none(), 1);
        assert_eq!(eng.node(NodeId(0)).agg_outcome(), AggOutcome::Result(45));
        assert!(eng.node(NodeId(0)).veri_verdict());

        let g = topology::grid(4, 4);
        let inputs = vec![3u64; 16];
        let eng = run(g, &inputs, FailureSchedule::none(), 3);
        assert_eq!(eng.node(NodeId(0)).agg_outcome(), AggOutcome::Result(48));
        assert!(eng.node(NodeId(0)).veri_verdict());
    }

    #[test]
    fn tree_levels_match_bfs() {
        let g = topology::grid(3, 3);
        let dist = g.bfs_distances(NodeId(0));
        let eng = run(g.clone(), &[0; 9], FailureSchedule::none(), 1);
        for v in g.nodes() {
            let snap = eng.node(v).snapshot();
            assert!(snap.activated, "{v} should activate");
            assert_eq!(
                snap.level,
                Some(dist[v.index()].unwrap()),
                "level of {v} should equal BFS distance"
            );
        }
    }

    #[test]
    fn ancestor_lists_follow_parents() {
        let g = topology::path(5);
        let eng = run(g, &[0; 5], FailureSchedule::none(), 2);
        // Node 4 on a path has ancestors [3, 2, 1, 0] truncated to 2t = 4.
        let n4 = eng.node(NodeId(4));
        assert_eq!(n4.snapshot().parent, Some(NodeId(3)));
        assert_eq!(n4.anc(0), Some(NodeId(4)));
        assert_eq!(n4.anc(1), Some(NodeId(3)));
        assert_eq!(n4.anc(2), Some(NodeId(2)));
        assert_eq!(n4.anc(3), Some(NodeId(1)));
        assert_eq!(n4.anc(4), Some(NodeId(0)));
    }

    #[test]
    fn leaf_crash_before_activation_is_excluded() {
        let g = topology::path(4);
        let mut s = FailureSchedule::none();
        s.crash(NodeId(3), 1); // dead before the protocol starts
        let eng = run(g, &[1, 1, 1, 100], s, 2);
        let root = eng.node(NodeId(0));
        // Node 3's input is correctly excluded (it counts as failed).
        assert_eq!(root.agg_outcome(), AggOutcome::Result(3));
        assert!(root.veri_verdict(), "no failures during execution windows");
    }

    #[test]
    fn midpath_crash_recovers_descendant_inputs() {
        // Path 0-1-2-3-4; node 1 dies after tree construction but before
        // aggregating: nodes 2,3,4 partial sums must be recovered by
        // speculative flooding — but 2,3,4 are partitioned from the root,
        // so any result in [1, 1+2+3+4+5] restricted per oracle is fine.
        // Here inputs: the blocked subtree's sums are *optional*.
        let g = topology::path(5);
        let d = g.diameter();
        let cd = u64::from(d); // c = 1
        let agg_action_of_1 = (2 * cd + 1) + (cd - 1 + 1);
        let mut s = FailureSchedule::none();
        s.crash(NodeId(1), agg_action_of_1); // critical failure of node 1
        let eng = run(g, &[1, 2, 3, 4, 5], s, 2);
        let root = eng.node(NodeId(0));
        match root.agg_outcome() {
            AggOutcome::Result(v) => {
                // Root keeps its own input; nodes 2,3,4's inputs may or may
                // not be included (they are partitioned => optional);
                // node 1 failed => optional.
                assert!((1..=15).contains(&v), "result {v} outside correct interval");
            }
            AggOutcome::Aborted => panic!("few failures must not abort"),
        }
    }

    #[test]
    fn agg_bits_within_theorem3_budget() {
        let g = topology::grid(4, 4);
        let t = 3;
        let eng = run(g.clone(), &[7; 16], FailureSchedule::none(), t);
        let budget = agg_bit_budget(16, t);
        for v in g.nodes() {
            assert!(
                eng.node(v).agg_bits_sent() <= budget,
                "node {v} spent {} > {budget}",
                eng.node(v).agg_bits_sent()
            );
        }
    }

    #[test]
    fn veri_bits_within_theorem6_budget() {
        let g = topology::grid(4, 4);
        let t = 3;
        let eng = run(g.clone(), &[7; 16], FailureSchedule::none(), t);
        let budget = veri_bit_budget(16, t);
        for v in g.nodes() {
            assert!(
                eng.node(v).veri_bits_sent() <= budget,
                "node {v} spent {} > {budget}",
                eng.node(v).veri_bits_sent()
            );
        }
    }

    #[test]
    fn rounds_match_theorems_3_and_6() {
        let p = params(10, 3, 1);
        assert_eq!(p.agg_rounds(), 7 * 3 + 4);
        assert_eq!(p.veri_rounds(), 5 * 3 + 3);
        assert_eq!(p.total_rounds(), 12 * 3 + 7);
        // Flooding rounds: 7cd+4 rounds within 11c flooding rounds for d ≥ 1.
        let m = p.model;
        assert!(m.to_flooding_rounds(p.agg_rounds()) <= 11 * u64::from(m.c) + 2);
    }
}
