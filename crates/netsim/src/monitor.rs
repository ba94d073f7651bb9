//! Online invariant watchdog: a [`TraceSink`] that validates an execution
//! *while it runs*.
//!
//! The paper's guarantees are stated as hard invariants of every execution
//! — Theorem 3/6's explicit per-node bit budgets, crash silence (a crashed
//! node sends nothing), the synchronous delivery rule (everything delivered
//! in round `r` was broadcast in round `r − 1`), and the CAAF correctness
//! envelope at the decision. Rather than re-checking these after the fact
//! in bespoke harnesses, a [`Watchdog`] subscribes to the engine's event
//! stream and checks them event by event:
//!
//! 1. **Bit budgets** — per-node cumulative bits inside each configured
//!    [`BudgetRule`] window must stay within the rule's allowance. The
//!    formulas themselves are injected by the driver (`ftagg` exports the
//!    Theorem 3/6 wire ceilings), so `netsim` never duplicates them.
//! 2. **Crash silence** — once a `Crash` event is seen for a node, any
//!    later `Send`, `Deliver`, or `Decide` naming that node is a violation.
//! 3. **Delivery causality** — every `Deliver` in round `r` must match a
//!    `Send` by the named neighbor in round `r − 1`, no larger than what
//!    that neighbor broadcast.
//! 4. **Phase discipline** — `PhaseEnter`/`PhaseExit` must be well-nested
//!    with matching labels, every phase closed by the end of the run, and
//!    (once any phase is used) every broadcast attributed to some open
//!    phase — the partition-of-cost property the reports rely on.
//! 5. **Decision envelope** — an optional [`DecideCheck`] closure (built by
//!    the driver from the `caaf` oracle) judges every `Decide` value.
//!
//! Violations are collected into a structured [`MonitorReport`] rather than
//! panicking, so sweeps can count them; `strict` mode panics on the first
//! violation for use in tests and CI.

use crate::adversary::Round;
use crate::graph::NodeId;
use crate::trace::{Event, TraceSink};
use std::fmt;

/// A per-node cumulative bit allowance over an inclusive round window.
///
/// Rounds are the watchdog's local (engine) rounds, 1-based. A node whose
/// total broadcast bits inside `start..=end` exceed `per_node_bits` trips
/// one [`ViolationKind::BudgetExceeded`] (reported once per node per rule).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BudgetRule {
    /// Label naming the budget (e.g. `"AGG (Thm 3)"`), echoed in reports.
    pub label: String,
    /// First round of the window (inclusive, 1-based).
    pub start: Round,
    /// Last round of the window (inclusive).
    pub end: Round,
    /// Maximum bits any single node may broadcast inside the window.
    pub per_node_bits: u64,
}

/// A driver-supplied judgment of a `Decide` event: given the round, the
/// deciding node, and the decided value, return `Ok(())` or a reason the
/// decision is outside the correctness envelope.
pub type DecideCheck = Box<dyn Fn(Round, NodeId, u64) -> Result<(), String>>;

/// Configuration of a [`Watchdog`].
pub struct MonitorConfig {
    /// Number of nodes in the monitored execution.
    pub n: usize,
    /// Panic on the first violation instead of collecting it.
    pub strict: bool,
    /// Budget windows to enforce (empty = no budget checking).
    pub budgets: Vec<BudgetRule>,
    /// At most this many [`Violation`]s are stored verbatim; the total
    /// count keeps incrementing past the cap.
    pub max_violations: usize,
    /// Optional judgment applied to every `Decide` event.
    pub decide: Option<DecideCheck>,
}

impl fmt::Debug for MonitorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorConfig")
            .field("n", &self.n)
            .field("strict", &self.strict)
            .field("budgets", &self.budgets)
            .field("max_violations", &self.max_violations)
            .field("decide", &self.decide.as_ref().map(|_| "<closure>"))
            .finish()
    }
}

impl MonitorConfig {
    /// A default configuration for `n` nodes: lenient, no budgets, no
    /// decide check, up to 64 stored violations.
    pub fn new(n: usize) -> Self {
        MonitorConfig { n, strict: false, budgets: Vec::new(), max_violations: 64, decide: None }
    }

    /// Enables strict mode (panic on the first violation).
    #[must_use]
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Adds one budget window.
    #[must_use]
    pub fn budget(
        mut self,
        label: impl Into<String>,
        window: std::ops::RangeInclusive<Round>,
        per_node_bits: u64,
    ) -> Self {
        self.budgets.push(BudgetRule {
            label: label.into(),
            start: *window.start(),
            end: *window.end(),
            per_node_bits,
        });
        self
    }

    /// Installs a decision judgment.
    #[must_use]
    pub fn decide_check(mut self, check: DecideCheck) -> Self {
        self.decide = Some(check);
        self
    }
}

/// What went wrong, with the numbers that prove it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A node's cumulative bits inside a [`BudgetRule`] window exceeded the
    /// allowance.
    BudgetExceeded {
        /// The violated rule's label.
        rule: String,
        /// The rule's per-node allowance.
        budget: u64,
        /// The node's cumulative bits when the check tripped.
        actual: u64,
    },
    /// An event named a node at or after its crash round.
    PostCrashActivity {
        /// The offending event's kind tag (`"send"`, `"deliver"`, …).
        event: &'static str,
        /// The round the node crashed.
        crashed_at: Round,
    },
    /// A `Deliver` had no matching `Send` by the named neighbor in the
    /// previous round (or claimed more bits than were broadcast).
    UnmatchedDelivery {
        /// The claimed sender.
        from: NodeId,
        /// Bits the sender actually broadcast in the previous round.
        sent_bits: u64,
        /// Bits the delivery claimed.
        claimed_bits: u64,
    },
    /// An event arrived with a round lower than one already seen.
    RoundOrder {
        /// The highest round seen before this event.
        seen: Round,
    },
    /// `PhaseExit` with no phase open.
    PhaseUnderflow {
        /// The label the exit carried.
        label: String,
    },
    /// `PhaseExit` label differs from the innermost open phase.
    PhaseMismatch {
        /// The innermost open phase when the exit arrived.
        open: String,
        /// The label the exit carried.
        got: String,
    },
    /// A phase was still open when the watchdog was finished.
    PhaseLeftOpen {
        /// The unclosed phase's label.
        label: String,
    },
    /// Broadcast bits fell outside every phase even though the execution
    /// used phase markers — the phase rows would not partition the cost.
    UnattributedBits {
        /// Total bits sent while no phase was open.
        bits: u64,
    },
    /// The [`DecideCheck`] rejected a decision.
    DecideRejected {
        /// The decided value.
        value: u64,
        /// The check's reason.
        reason: String,
    },
}

/// One invariant violation: what, who, and when.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The violated invariant with its evidence.
    pub kind: ViolationKind,
    /// The round of the offending event (or the final round for
    /// end-of-run checks).
    pub round: Round,
    /// The node concerned, if the invariant is per-node.
    pub node: Option<NodeId>,
    /// The innermost open phase when the violation occurred, if any.
    pub phase: Option<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "round {}", self.round)?;
        if let Some(n) = self.node {
            write!(f, " node {}", n.0)?;
        }
        if let Some(p) = &self.phase {
            write!(f, " [{p}]")?;
        }
        match &self.kind {
            ViolationKind::BudgetExceeded { rule, budget, actual } => {
                write!(f, ": budget '{rule}' exceeded ({actual} bits > {budget} allowed)")
            }
            ViolationKind::PostCrashActivity { event, crashed_at } => {
                write!(f, ": {event} by a node crashed at round {crashed_at}")
            }
            ViolationKind::UnmatchedDelivery { from, sent_bits, claimed_bits } => write!(
                f,
                ": delivery of {claimed_bits} bits from node {} unmatched (it broadcast \
                 {sent_bits} bits last round)",
                from.0
            ),
            ViolationKind::RoundOrder { seen } => {
                write!(f, ": event round precedes already-seen round {seen}")
            }
            ViolationKind::PhaseUnderflow { label } => {
                write!(f, ": phase_exit '{label}' with no phase open")
            }
            ViolationKind::PhaseMismatch { open, got } => {
                write!(f, ": phase_exit '{got}' while '{open}' is innermost")
            }
            ViolationKind::PhaseLeftOpen { label } => {
                write!(f, ": phase '{label}' still open at end of run")
            }
            ViolationKind::UnattributedBits { bits } => {
                write!(f, ": {bits} bits broadcast outside every phase")
            }
            ViolationKind::DecideRejected { value, reason } => {
                write!(f, ": decision {value} rejected — {reason}")
            }
        }
    }
}

/// The watchdog's verdict on one execution: violations plus the event
/// volume it audited.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MonitorReport {
    /// Stored violations, in occurrence order (capped by
    /// [`MonitorConfig::max_violations`]).
    pub violations: Vec<Violation>,
    /// Total violations observed, including any past the storage cap.
    pub total: u64,
    /// Events audited.
    pub events: u64,
    /// `Send` events audited.
    pub sends: u64,
    /// `Deliver` events audited.
    pub delivers: u64,
    /// `Decide` events audited.
    pub decides: u64,
}

impl MonitorReport {
    /// True iff no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Merges another report, shifting its violation rounds by `offset`
    /// global rounds — Algorithm 1 uses this to place a per-interval
    /// watchdog's findings in the global timeline.
    pub fn absorb_shifted(&mut self, other: &MonitorReport, offset: Round) {
        for v in &other.violations {
            let mut v = v.clone();
            v.round += offset;
            self.violations.push(v);
        }
        self.total += other.total;
        self.events += other.events;
        self.sends += other.sends;
        self.delivers += other.delivers;
        self.decides += other.decides;
    }

    /// One line per stored violation (empty string if clean).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(out, "{v}");
        }
        if self.total > self.violations.len() as u64 {
            let _ = writeln!(out, "... and {} more", self.total - self.violations.len() as u64);
        }
        out
    }
}

/// The online invariant checker. Install it as the engine's sink (or feed
/// it a recorded event stream), then call [`Watchdog::finish`] for the
/// end-of-run checks and the [`MonitorReport`].
pub struct Watchdog {
    cfg: MonitorConfig,
    report: MonitorReport,
    /// Highest round seen so far.
    round: Round,
    /// Crash round per node (`Round::MAX` = alive).
    crashed: Vec<Round>,
    /// Bits broadcast per node in the previous round (delivery causality).
    sent_prev: Vec<u64>,
    /// Bits broadcast per node in the current round.
    sent_cur: Vec<u64>,
    /// Per rule × node: cumulative bits inside the rule's window.
    budget_spent: Vec<Vec<u64>>,
    /// Per rule × node: whether the exceedance was already reported.
    budget_flagged: Vec<Vec<bool>>,
    /// Innermost-last stack of open phase labels.
    phase_stack: Vec<String>,
    /// Whether any phase marker was ever seen (enables partition check).
    saw_phase: bool,
    /// Bits broadcast while no phase was open.
    unattributed_bits: u64,
    finished: bool,
}

impl Watchdog {
    /// A watchdog over `cfg`.
    pub fn new(cfg: MonitorConfig) -> Self {
        let n = cfg.n;
        let rules = cfg.budgets.len();
        Watchdog {
            report: MonitorReport::default(),
            round: 0,
            crashed: vec![Round::MAX; n],
            sent_prev: vec![0; n],
            sent_cur: vec![0; n],
            budget_spent: vec![vec![0; n]; rules],
            budget_flagged: vec![vec![false; n]; rules],
            phase_stack: Vec::new(),
            saw_phase: false,
            unattributed_bits: 0,
            finished: false,
            cfg,
        }
    }

    /// Violations observed so far (before or after [`Watchdog::finish`]).
    pub fn violations(&self) -> &[Violation] {
        &self.report.violations
    }

    fn violate(&mut self, round: Round, node: Option<NodeId>, kind: ViolationKind) {
        let v = Violation { kind, round, node, phase: self.phase_stack.last().cloned() };
        if self.cfg.strict {
            panic!("watchdog (strict): {v}");
        }
        self.report.total += 1;
        if self.report.violations.len() < self.cfg.max_violations {
            self.report.violations.push(v);
        }
    }

    /// Valid node index or `None` (ids outside `0..n` are ignored rather
    /// than panicking — the watchdog must survive hostile streams).
    fn idx(&self, node: NodeId) -> Option<usize> {
        (node.index() < self.cfg.n).then(|| node.index())
    }

    fn advance_to(&mut self, round: Round) {
        if round == self.round {
            return;
        }
        if round == self.round + 1 {
            std::mem::swap(&mut self.sent_prev, &mut self.sent_cur);
        } else {
            // A gap: nothing was sent in the skipped rounds.
            self.sent_prev.iter_mut().for_each(|b| *b = 0);
        }
        self.sent_cur.iter_mut().for_each(|b| *b = 0);
        self.round = round;
    }

    fn check_alive(&mut self, round: Round, node: NodeId, event: &'static str) {
        if let Some(i) = self.idx(node) {
            let at = self.crashed[i];
            if round >= at {
                self.violate(
                    round,
                    Some(node),
                    ViolationKind::PostCrashActivity { event, crashed_at: at },
                );
            }
        }
    }

    /// Runs the end-of-run checks (open phases, cost partition) and
    /// returns the accumulated report. Idempotent: later events are
    /// ignored once finished.
    pub fn finish(&mut self) -> MonitorReport {
        if !self.finished {
            self.finished = true;
            while let Some(label) = self.phase_stack.pop() {
                self.violate(self.round, None, ViolationKind::PhaseLeftOpen { label });
            }
            if self.saw_phase && self.unattributed_bits > 0 {
                let bits = self.unattributed_bits;
                self.violate(self.round, None, ViolationKind::UnattributedBits { bits });
            }
        }
        self.report.clone()
    }
}

impl TraceSink for Watchdog {
    fn record(&mut self, e: &Event) {
        if self.finished {
            return;
        }
        self.report.events += 1;
        let r = e.round();
        if r < self.round {
            self.violate(r, e.node(), ViolationKind::RoundOrder { seen: self.round });
            return;
        }
        self.advance_to(r);
        match e {
            Event::Send { round, node, bits, .. } => {
                self.report.sends += 1;
                self.check_alive(*round, *node, "send");
                if self.phase_stack.is_empty() {
                    self.unattributed_bits += bits;
                }
                if let Some(i) = self.idx(*node) {
                    self.sent_cur[i] += bits;
                    for k in 0..self.cfg.budgets.len() {
                        let rule = &self.cfg.budgets[k];
                        if *round < rule.start || *round > rule.end {
                            continue;
                        }
                        self.budget_spent[k][i] += bits;
                        if self.budget_spent[k][i] > rule.per_node_bits
                            && !self.budget_flagged[k][i]
                        {
                            self.budget_flagged[k][i] = true;
                            let kind = ViolationKind::BudgetExceeded {
                                rule: self.cfg.budgets[k].label.clone(),
                                budget: self.cfg.budgets[k].per_node_bits,
                                actual: self.budget_spent[k][i],
                            };
                            self.violate(*round, Some(*node), kind);
                        }
                    }
                }
            }
            Event::Deliver { round, node, from, bits, .. } => {
                self.report.delivers += 1;
                self.check_alive(*round, *node, "deliver");
                let sent = self.idx(*from).map_or(0, |i| self.sent_prev[i]);
                if sent < *bits {
                    self.violate(
                        *round,
                        Some(*node),
                        ViolationKind::UnmatchedDelivery {
                            from: *from,
                            sent_bits: sent,
                            claimed_bits: *bits,
                        },
                    );
                }
            }
            Event::Crash { round, node } => {
                if let Some(i) = self.idx(*node) {
                    self.crashed[i] = self.crashed[i].min(*round);
                }
            }
            Event::PhaseEnter { label, .. } => {
                self.saw_phase = true;
                self.phase_stack.push(label.clone());
            }
            Event::PhaseExit { round, label } => match self.phase_stack.pop() {
                None => {
                    self.violate(
                        *round,
                        None,
                        ViolationKind::PhaseUnderflow { label: label.clone() },
                    );
                }
                Some(open) if open != *label => {
                    self.violate(
                        *round,
                        None,
                        ViolationKind::PhaseMismatch { open, got: label.clone() },
                    );
                }
                Some(_) => {}
            },
            Event::Decide { round, node, value } => {
                self.report.decides += 1;
                self.check_alive(*round, *node, "decide");
                if let Some(check) = self.cfg.decide.as_ref() {
                    if let Err(reason) = check(*round, *node, *value) {
                        self.violate(
                            *round,
                            Some(*node),
                            ViolationKind::DecideRejected { value: *value, reason },
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(round: Round, node: u32, bits: u64) -> Event {
        Event::send(round, NodeId(node), bits, 1)
    }

    fn deliver(round: Round, node: u32, from: u32, bits: u64) -> Event {
        Event::deliver(round, NodeId(node), NodeId(from), bits)
    }

    fn feed(w: &mut Watchdog, events: &[Event]) {
        for e in events {
            w.record(e);
        }
    }

    #[test]
    fn clean_run_is_clean() {
        let mut w = Watchdog::new(MonitorConfig::new(3).budget("pair", 1..=10, 100));
        feed(
            &mut w,
            &[
                Event::PhaseEnter { round: 1, label: "AGG".into() },
                send(1, 0, 10),
                deliver(2, 1, 0, 10),
                send(2, 1, 10),
                Event::PhaseExit { round: 3, label: "AGG".into() },
                Event::Decide { round: 3, node: NodeId(0), value: 7 },
            ],
        );
        let r = w.finish();
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!((r.events, r.sends, r.delivers, r.decides), (6, 2, 1, 1));
        assert_eq!(r.render(), "");
    }

    #[test]
    fn budget_exceeded_once_per_node_per_rule() {
        let mut w = Watchdog::new(MonitorConfig::new(2).budget("AGG", 1..=5, 15));
        feed(&mut w, &[send(1, 0, 10), send(2, 0, 10), send(3, 0, 10), send(4, 1, 8)]);
        // Outside the window: never counted.
        feed(&mut w, &[send(6, 1, 1000)]);
        let r = w.finish();
        assert_eq!(r.total, 1);
        assert_eq!(r.violations[0].node, Some(NodeId(0)));
        assert!(matches!(
            &r.violations[0].kind,
            ViolationKind::BudgetExceeded { budget: 15, actual: 20, .. }
        ));
        assert!(r.violations[0].to_string().contains("'AGG' exceeded"));
    }

    #[test]
    fn post_crash_send_and_delivery_to_dead_are_flagged() {
        let mut w = Watchdog::new(MonitorConfig::new(3));
        feed(
            &mut w,
            &[
                send(1, 1, 4),
                Event::Crash { round: 2, node: NodeId(1) },
                deliver(2, 2, 1, 4), // fine: node 1 broadcast in round 1
                send(2, 1, 4),       // violation: node 1 is dead
                deliver(3, 1, 2, 4), // violation ×2: delivery to dead + unmatched
            ],
        );
        let r = w.finish();
        assert_eq!(r.total, 3);
        assert!(matches!(
            r.violations[0].kind,
            ViolationKind::PostCrashActivity { event: "send", crashed_at: 2 }
        ));
        assert!(matches!(
            r.violations[1].kind,
            ViolationKind::PostCrashActivity { event: "deliver", crashed_at: 2 }
        ));
        assert!(matches!(r.violations[2].kind, ViolationKind::UnmatchedDelivery { .. }));
    }

    #[test]
    fn delivery_must_match_previous_round_send() {
        let mut w = Watchdog::new(MonitorConfig::new(2));
        feed(&mut w, &[send(1, 0, 8), deliver(2, 1, 0, 9)]); // claims more than sent
        feed(&mut w, &[deliver(4, 1, 0, 1)]); // round gap: round-3 sends were zero
        let r = w.finish();
        assert_eq!(r.total, 2);
        assert!(matches!(
            r.violations[0].kind,
            ViolationKind::UnmatchedDelivery { sent_bits: 8, claimed_bits: 9, .. }
        ));
        assert!(matches!(
            r.violations[1].kind,
            ViolationKind::UnmatchedDelivery { sent_bits: 0, claimed_bits: 1, .. }
        ));
    }

    #[test]
    fn phase_discipline_violations() {
        let mut w = Watchdog::new(MonitorConfig::new(1));
        feed(
            &mut w,
            &[
                Event::PhaseExit { round: 1, label: "ghost".into() },
                Event::PhaseEnter { round: 1, label: "outer".into() },
                Event::PhaseEnter { round: 2, label: "inner".into() },
                Event::PhaseExit { round: 3, label: "outer".into() },
                Event::PhaseEnter { round: 4, label: "dangling".into() },
            ],
        );
        let r = w.finish();
        let kinds: Vec<&ViolationKind> = r.violations.iter().map(|v| &v.kind).collect();
        assert!(matches!(kinds[0], ViolationKind::PhaseUnderflow { .. }));
        assert!(matches!(kinds[1], ViolationKind::PhaseMismatch { .. }));
        // Both "outer" (mismatched exit popped "inner") and "dangling" stay open.
        assert_eq!(
            r.violations
                .iter()
                .filter(|v| matches!(v.kind, ViolationKind::PhaseLeftOpen { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn unattributed_bits_need_a_phase_to_matter() {
        // No phases at all: sends outside phases are fine.
        let mut w = Watchdog::new(MonitorConfig::new(1));
        feed(&mut w, &[send(1, 0, 9)]);
        assert!(w.finish().is_clean());
        // With phases: the stray round-3 send breaks the partition.
        let mut w = Watchdog::new(MonitorConfig::new(1));
        feed(
            &mut w,
            &[
                Event::PhaseEnter { round: 1, label: "AGG".into() },
                send(1, 0, 9),
                Event::PhaseExit { round: 2, label: "AGG".into() },
                send(3, 0, 5),
            ],
        );
        let r = w.finish();
        assert_eq!(r.total, 1);
        assert!(matches!(r.violations[0].kind, ViolationKind::UnattributedBits { bits: 5 }));
    }

    #[test]
    fn decide_check_judges_values() {
        let cfg = MonitorConfig::new(2).decide_check(Box::new(|_, _, v| {
            if v == 42 {
                Ok(())
            } else {
                Err(format!("{v} is not the answer"))
            }
        }));
        let mut w = Watchdog::new(cfg);
        feed(
            &mut w,
            &[
                Event::Decide { round: 1, node: NodeId(0), value: 42 },
                Event::Decide { round: 2, node: NodeId(0), value: 41 },
            ],
        );
        let r = w.finish();
        assert_eq!(r.total, 1);
        assert!(matches!(r.violations[0].kind, ViolationKind::DecideRejected { value: 41, .. }));
        assert!(r.violations[0].to_string().contains("not the answer"));
    }

    #[test]
    fn round_order_violation_and_out_of_range_nodes() {
        let mut w = Watchdog::new(MonitorConfig::new(1));
        feed(&mut w, &[send(5, 0, 1), send(4, 0, 1), send(6, 99, 1)]);
        let r = w.finish();
        // The regression is flagged; the out-of-range node is tolerated.
        assert_eq!(r.total, 1);
        assert!(matches!(r.violations[0].kind, ViolationKind::RoundOrder { seen: 5 }));
    }

    #[test]
    fn violation_cap_keeps_counting() {
        let mut cfg = MonitorConfig::new(1).budget("tiny", 1..=100, 0);
        cfg.max_violations = 2;
        let mut w = Watchdog::new(cfg);
        // One BudgetExceeded (flagged once) + repeated phase underflows.
        for r in 1..=5 {
            w.record(&Event::PhaseExit { round: r, label: "x".into() });
        }
        let r = w.finish();
        assert_eq!(r.total, 5);
        assert_eq!(r.violations.len(), 2);
        assert!(r.render().contains("and 3 more"));
    }

    #[test]
    #[should_panic(expected = "watchdog (strict)")]
    fn strict_mode_panics_immediately() {
        let mut w = Watchdog::new(MonitorConfig::new(1).strict());
        w.record(&Event::PhaseExit { round: 1, label: "none".into() });
    }

    #[test]
    fn absorb_shifted_moves_rounds() {
        let mut w = Watchdog::new(MonitorConfig::new(1));
        w.record(&Event::PhaseExit { round: 3, label: "x".into() });
        let sub = w.finish();
        let mut total = MonitorReport::default();
        total.absorb_shifted(&sub, 100);
        assert_eq!(total.total, 1);
        assert_eq!(total.violations[0].round, 103);
        assert_eq!(total.events, 1);
    }

    #[test]
    fn finish_is_idempotent_and_freezes_the_stream() {
        let mut w = Watchdog::new(MonitorConfig::new(1));
        w.record(&Event::PhaseEnter { round: 1, label: "open".into() });
        let a = w.finish();
        assert_eq!(a.total, 1);
        // Late events are ignored; a second finish returns the same report.
        w.record(&send(2, 0, 5));
        assert_eq!(w.finish(), a);
    }
}
