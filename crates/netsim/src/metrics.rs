//! Communication metering.
//!
//! The paper defines a node's communication complexity as the total number
//! of bits it locally broadcasts over the execution, and a protocol's CC as
//! the maximum over nodes (the bottleneck node). [`Metrics`] records exactly
//! that, plus per-round totals so experiments can attribute cost to
//! Algorithm 1's intervals.
//!
//! # Phase attribution
//!
//! Algorithm 1 spends its budget in a known structure — intervals of `19c`
//! flooding rounds, each holding an AGG/VERI pair — and the interesting
//! question is rarely "how many bits total" but "how many bits *where*".
//! The phase API attributes the per-round ledgers to labeled round spans:
//! a harness calls [`Metrics::enter_phase`]/[`Metrics::exit_phase`] around
//! the rounds a phase occupies (or [`Metrics::push_span`] for a span known
//! after the fact), and [`Metrics::phases`] derives per-phase bits, sends,
//! and rounds from the same ledgers that answer
//! [`Metrics::bits_in_rounds`] — so phase rows always sum consistently
//! with the whole-run counters. Spans may nest (an interval containing its
//! AGG and VERI halves); [`PhaseStats::depth`] reports the nesting level.

use crate::adversary::Round;
use crate::graph::NodeId;

/// A labeled, inclusive span of rounds inside one execution.
///
/// `end == None` means the phase is still open; [`Metrics::phases`] clamps
/// open spans to the last round the metrics have seen.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase label (e.g. `"AGG"`, `"interval 3"`).
    pub label: String,
    /// First round of the phase (1-based, inclusive).
    pub start: Round,
    /// Last round of the phase (inclusive), if closed.
    pub end: Option<Round>,
}

/// Derived per-phase statistics (see [`Metrics::phases`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseStats {
    /// Phase label.
    pub label: String,
    /// First round of the phase.
    pub start: Round,
    /// Last round of the phase (open spans are clamped to the last round
    /// the metrics observed).
    pub end: Round,
    /// Rounds the phase occupies (`end - start + 1`).
    pub rounds: Round,
    /// System-wide bits broadcast during the phase — the phase's TC-window
    /// share of CC traffic.
    pub bits: u64,
    /// System-wide logical messages broadcast during the phase.
    pub sends: u64,
    /// Nesting depth: how many other recorded spans strictly contain this
    /// one (0 for top-level phases).
    pub depth: usize,
}

/// Per-node and per-round communication counters for one execution.
///
/// Per-round totals live in a dense `Vec` indexed by round (rounds are
/// 1-based and bounded by the run's horizon), so the engine's per-send
/// bookkeeping is an array increment instead of a map insertion.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    bits: Vec<u64>,
    sends: Vec<u64>,
    /// `per_round_bits[r]` is the system-wide bits sent in round `r`
    /// (index 0 is unused: rounds are 1-based). Grows on demand.
    per_round_bits: Vec<u64>,
    /// `per_round_sends[r]` is the system-wide logical message count of
    /// round `r`; same indexing as `per_round_bits`.
    per_round_sends: Vec<u64>,
    last_send_round: Option<Round>,
    /// Recorded phase spans, in the order they were entered/pushed.
    spans: Vec<PhaseSpan>,
    /// Indices into `spans` of currently open phases (a stack: phases
    /// close innermost-first).
    open: Vec<usize>,
    /// The highest round these metrics have observed — advanced by
    /// [`Metrics::note_round`] and by every recorded send. Used to place
    /// [`Metrics::enter_phase`] and clamp open spans.
    cursor: Round,
    /// Lean mode skips the per-round ledger (see [`Metrics::lean`]).
    lean: bool,
}

impl Metrics {
    /// Fresh counters for `n` nodes.
    pub fn new(n: usize) -> Self {
        Metrics {
            bits: vec![0; n],
            sends: vec![0; n],
            per_round_bits: Vec::new(),
            per_round_sends: Vec::new(),
            last_send_round: None,
            spans: Vec::new(),
            open: Vec::new(),
            cursor: 0,
            lean: false,
        }
    }

    /// Fresh counters that never materialize the per-round ledger: per-node
    /// totals, CC ([`Metrics::max_bits`]) and TC stay exact, but
    /// round-windowed queries ([`Metrics::bits_in_round`] and friends) and
    /// phase `bits`/`sends` read as zero. For streaming million-node runs
    /// where O(rounds) history is dead weight — pair with a sink that
    /// reads rounds (`TraceSink::end_round`) if the ledger is wanted.
    pub fn lean(n: usize) -> Self {
        let mut m = Self::new(n);
        m.lean = true;
        m
    }

    /// Whether the per-round ledger is being skipped.
    pub fn is_lean(&self) -> bool {
        self.lean
    }

    /// Records a broadcast by `node` in `round` of `bits` total bits across
    /// `logical` combined messages.
    pub fn record_send(&mut self, node: NodeId, round: Round, bits: u64, logical: u64) {
        self.bits[node.index()] += bits;
        self.sends[node.index()] += logical;
        if !self.lean {
            let idx = round as usize;
            if idx >= self.per_round_bits.len() {
                self.per_round_bits.resize(idx + 1, 0);
                self.per_round_sends.resize(idx + 1, 0);
            }
            self.per_round_bits[idx] += bits;
            self.per_round_sends[idx] += logical;
        }
        self.last_send_round = Some(self.last_send_round.map_or(round, |r| r.max(round)));
        self.cursor = self.cursor.max(round);
    }

    /// Total bits broadcast by `node`.
    pub fn bits_of(&self, node: NodeId) -> u64 {
        self.bits[node.index()]
    }

    /// Number of logical messages broadcast by `node`.
    pub fn sends_of(&self, node: NodeId) -> u64 {
        self.sends[node.index()]
    }

    /// The paper's CC for this execution: maximum bits over all nodes.
    pub fn max_bits(&self) -> u64 {
        self.bits.iter().copied().max().unwrap_or(0)
    }

    /// The node achieving [`Metrics::max_bits`] (lowest id on ties).
    pub fn bottleneck(&self) -> Option<NodeId> {
        let max = self.max_bits();
        self.bits.iter().position(|&b| b == max).map(|i| NodeId(i as u32))
    }

    /// Sum of bits over all nodes (useful for average-node comparisons).
    pub fn total_bits(&self) -> u64 {
        self.bits.iter().sum()
    }

    /// Mean bits per node.
    pub fn mean_bits(&self) -> f64 {
        if self.bits.is_empty() {
            0.0
        } else {
            self.total_bits() as f64 / self.bits.len() as f64
        }
    }

    /// Bits broadcast system-wide during the inclusive round window.
    pub fn bits_in_rounds(&self, window: std::ops::RangeInclusive<Round>) -> u64 {
        let len = self.per_round_bits.len() as Round;
        if len == 0 {
            return 0;
        }
        let lo = (*window.start()).min(len) as usize;
        let hi = (*window.end()).min(len.saturating_sub(1)) as usize;
        if lo > hi {
            return 0;
        }
        self.per_round_bits[lo..=hi].iter().sum()
    }

    /// Bits broadcast system-wide in a single round.
    pub fn bits_in_round(&self, round: Round) -> u64 {
        self.per_round_bits.get(round as usize).copied().unwrap_or(0)
    }

    /// Logical messages broadcast system-wide during the inclusive window.
    pub fn sends_in_rounds(&self, window: std::ops::RangeInclusive<Round>) -> u64 {
        let len = self.per_round_sends.len() as Round;
        if len == 0 {
            return 0;
        }
        let lo = (*window.start()).min(len) as usize;
        let hi = (*window.end()).min(len.saturating_sub(1)) as usize;
        if lo > hi {
            return 0;
        }
        self.per_round_sends[lo..=hi].iter().sum()
    }

    /// Advances the round cursor: tells the metrics that the execution has
    /// reached (at least) `round`, even if nothing was sent. The engine
    /// calls this once per step so [`Metrics::enter_phase`] can place the
    /// next phase correctly during silent rounds.
    pub fn note_round(&mut self, round: Round) {
        self.cursor = self.cursor.max(round);
    }

    /// The highest round observed so far (via sends or
    /// [`Metrics::note_round`]).
    pub fn current_round(&self) -> Round {
        self.cursor
    }

    /// Opens a phase starting at the *next* round (cursor + 1): call it
    /// just before handing the engine the rounds the phase occupies.
    /// Phases may nest; close them innermost-first with
    /// [`Metrics::exit_phase`]. Returns the phase's start round.
    pub fn enter_phase(&mut self, label: impl Into<String>) -> Round {
        let start = self.cursor + 1;
        self.enter_phase_at(label, start);
        start
    }

    /// Opens a phase starting at an explicit round.
    pub fn enter_phase_at(&mut self, label: impl Into<String>, start: Round) {
        self.open.push(self.spans.len());
        self.spans.push(PhaseSpan { label: label.into(), start, end: None });
    }

    /// Closes the innermost open phase at the current cursor round.
    /// Returns the closed span's label and end round, or `None` if no
    /// phase is open.
    pub fn exit_phase(&mut self) -> Option<(String, Round)> {
        self.exit_phase_at(self.cursor)
    }

    /// Closes the innermost open phase at an explicit end round (clamped
    /// to be no earlier than the phase's start, so an empty phase spans
    /// exactly its start round).
    pub fn exit_phase_at(&mut self, end: Round) -> Option<(String, Round)> {
        let idx = self.open.pop()?;
        let span = &mut self.spans[idx];
        let end = end.max(span.start);
        span.end = Some(end);
        Some((span.label.clone(), end))
    }

    /// Records an already-closed span (for phases whose extent is only
    /// known after the fact, e.g. Algorithm 1 attributing an interval
    /// window after merging a sub-execution).
    pub fn push_span(&mut self, label: impl Into<String>, start: Round, end: Round) {
        let end = end.max(start);
        self.spans.push(PhaseSpan { label: label.into(), start, end: Some(end) });
        self.cursor = self.cursor.max(end);
    }

    /// The raw recorded spans, in entry order.
    pub fn spans(&self) -> &[PhaseSpan] {
        &self.spans
    }

    /// Derives per-phase statistics from the recorded spans and the
    /// per-round ledgers, in span entry order. Open spans are clamped to
    /// the cursor (last observed round). Because the stats come from the
    /// same ledger as [`Metrics::bits_in_rounds`], a phase's `bits` equals
    /// `bits_in_rounds(start..=end)` exactly.
    pub fn phases(&self) -> Vec<PhaseStats> {
        let resolved: Vec<(Round, Round)> = self
            .spans
            .iter()
            .map(|s| (s.start, s.end.unwrap_or_else(|| self.cursor.max(s.start))))
            .collect();
        self.spans
            .iter()
            .zip(&resolved)
            .enumerate()
            .map(|(i, (span, &(start, end)))| {
                // Depth = spans strictly containing this one; a span with
                // the identical window counts only if it was entered
                // earlier (the enclosing phase opens first).
                let depth = resolved
                    .iter()
                    .enumerate()
                    .filter(|&(j, &(s, e))| {
                        j != i && s <= start && e >= end && ((s, e) != (start, end) || j < i)
                    })
                    .count();
                PhaseStats {
                    label: span.label.clone(),
                    start,
                    end,
                    rounds: end - start + 1,
                    bits: self.bits_in_rounds(start..=end),
                    sends: self.sends_in_rounds(start..=end),
                    depth,
                }
            })
            .collect()
    }

    /// Sum of bits over the top-level (depth-0) phases — when phases
    /// partition the run, this equals [`Metrics::total_bits`], which is
    /// exactly what the attribution harnesses assert.
    pub fn top_level_phase_bits(&self) -> u64 {
        self.phases().iter().filter(|p| p.depth == 0).map(|p| p.bits).sum()
    }

    /// Iterator over `(round, bits)` for every round with traffic, in
    /// ascending round order.
    pub fn per_round_bits(&self) -> impl Iterator<Item = (Round, u64)> + '_ {
        self.per_round_bits
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b > 0)
            .map(|(r, &b)| (r as Round, b))
    }

    /// Last round in which any node broadcast, if any traffic occurred.
    pub fn last_send_round(&self) -> Option<Round> {
        self.last_send_round
    }

    /// Per-node bit totals, indexed by node id.
    pub fn bits_per_node(&self) -> &[u64] {
        &self.bits
    }

    /// Merges another execution's counters into this one, shifting the
    /// other execution's (1-based) round numbers by `offset` global rounds
    /// — so a sub-protocol that ran in its own engine starting at global
    /// round `offset + 1` lands in the right window of the merged
    /// per-round ledger. Algorithm 1 uses this to attribute bits to its
    /// intervals.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn absorb_shifted(&mut self, other: &Metrics, offset: Round) {
        assert_eq!(self.bits.len(), other.bits.len(), "node count mismatch");
        for i in 0..self.bits.len() {
            self.bits[i] += other.bits[i];
            self.sends[i] += other.sends[i];
        }
        if !other.per_round_bits.is_empty() {
            let need = other.per_round_bits.len() + offset as usize;
            if need > self.per_round_bits.len() {
                self.per_round_bits.resize(need, 0);
                self.per_round_sends.resize(need, 0);
            }
            for (r, &b) in other.per_round_bits.iter().enumerate() {
                if b > 0 {
                    self.per_round_bits[r + offset as usize] += b;
                }
            }
            for (r, &s) in other.per_round_sends.iter().enumerate() {
                if s > 0 {
                    self.per_round_sends[r + offset as usize] += s;
                }
            }
        }
        // The sub-execution's phase spans land after its own in the merged
        // timeline, shifted into the global round numbering. Open spans
        // are closed at the sub-execution's cursor — once absorbed, the
        // other execution is over.
        for span in &other.spans {
            let end = span.end.unwrap_or_else(|| other.cursor.max(span.start));
            self.spans.push(PhaseSpan {
                label: span.label.clone(),
                start: span.start + offset,
                end: Some(end + offset),
            });
        }
        self.cursor = self.cursor.max(other.cursor + offset);
        let shifted_last = other.last_send_round.map(|r| r + offset);
        self.last_send_round = match (self.last_send_round, shifted_last) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Merges another execution's counters into this one (used by the
    /// repetition-based protocols to account several runs as one).
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn absorb(&mut self, other: &Metrics) {
        self.absorb_shifted(other, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates() {
        let mut m = Metrics::new(3);
        m.record_send(NodeId(0), 1, 10, 2);
        m.record_send(NodeId(1), 1, 4, 1);
        m.record_send(NodeId(0), 3, 6, 1);
        assert_eq!(m.bits_of(NodeId(0)), 16);
        assert_eq!(m.sends_of(NodeId(0)), 3);
        assert_eq!(m.max_bits(), 16);
        assert_eq!(m.bottleneck(), Some(NodeId(0)));
        assert_eq!(m.total_bits(), 20);
        assert!((m.mean_bits() - 20.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.bits_in_rounds(1..=1), 14);
        assert_eq!(m.bits_in_rounds(2..=3), 6);
        assert_eq!(m.last_send_round(), Some(3));
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = Metrics::new(2);
        assert_eq!(m.max_bits(), 0);
        assert_eq!(m.total_bits(), 0);
        assert_eq!(m.last_send_round(), None);
        assert_eq!(m.bottleneck(), Some(NodeId(0)));
    }

    #[test]
    fn absorb_merges_everything() {
        let mut a = Metrics::new(2);
        a.record_send(NodeId(0), 1, 5, 1);
        let mut b = Metrics::new(2);
        b.record_send(NodeId(1), 4, 7, 2);
        a.absorb(&b);
        assert_eq!(a.bits_of(NodeId(0)), 5);
        assert_eq!(a.bits_of(NodeId(1)), 7);
        assert_eq!(a.sends_of(NodeId(1)), 2);
        assert_eq!(a.last_send_round(), Some(4));
        assert_eq!(a.bits_in_rounds(1..=4), 12);
    }

    #[test]
    fn absorb_shifted_moves_rounds() {
        let mut a = Metrics::new(2);
        a.record_send(NodeId(0), 1, 5, 1);
        let mut b = Metrics::new(2);
        b.record_send(NodeId(1), 3, 7, 1);
        a.absorb_shifted(&b, 100);
        assert_eq!(a.bits_in_rounds(1..=10), 5);
        assert_eq!(a.bits_in_rounds(101..=110), 7);
        assert_eq!(a.last_send_round(), Some(103));
        assert_eq!(a.total_bits(), 12);
    }

    #[test]
    #[should_panic(expected = "node count mismatch")]
    fn absorb_rejects_mismatch() {
        let mut a = Metrics::new(2);
        let b = Metrics::new(3);
        a.absorb(&b);
    }

    #[test]
    fn phases_attribute_ledger_windows() {
        let mut m = Metrics::new(2);
        assert_eq!(m.enter_phase("AGG"), 1);
        m.record_send(NodeId(0), 1, 10, 1);
        m.record_send(NodeId(1), 3, 6, 2);
        m.exit_phase();
        assert_eq!(m.enter_phase("VERI"), 4);
        m.record_send(NodeId(0), 5, 4, 1);
        m.note_round(6);
        m.exit_phase();
        let ph = m.phases();
        assert_eq!(ph.len(), 2);
        assert_eq!((ph[0].label.as_str(), ph[0].start, ph[0].end), ("AGG", 1, 3));
        assert_eq!((ph[0].bits, ph[0].sends, ph[0].rounds, ph[0].depth), (16, 3, 3, 0));
        assert_eq!((ph[1].label.as_str(), ph[1].start, ph[1].end), ("VERI", 4, 6));
        assert_eq!((ph[1].bits, ph[1].sends, ph[1].rounds, ph[1].depth), (4, 1, 3, 0));
        // Phase bits agree with the window query and sum to the run total.
        assert_eq!(ph[0].bits, m.bits_in_rounds(1..=3));
        assert_eq!(ph[0].bits + ph[1].bits, m.total_bits());
        assert_eq!(m.top_level_phase_bits(), m.total_bits());
    }

    #[test]
    fn nested_phases_report_depth() {
        let mut m = Metrics::new(1);
        m.enter_phase_at("outer", 1);
        m.enter_phase_at("inner", 2);
        m.record_send(NodeId(0), 2, 8, 1);
        m.exit_phase_at(3);
        m.note_round(5);
        m.exit_phase();
        let ph = m.phases();
        assert_eq!((ph[0].label.as_str(), ph[0].depth, ph[0].start, ph[0].end), ("outer", 0, 1, 5));
        assert_eq!((ph[1].label.as_str(), ph[1].depth, ph[1].start, ph[1].end), ("inner", 1, 2, 3));
        assert_eq!(ph[1].bits, 8);
        // Two spans with the identical window: the earlier one encloses.
        let mut eq = Metrics::new(1);
        eq.push_span("a", 1, 4);
        eq.push_span("b", 1, 4);
        let ph = eq.phases();
        assert_eq!(ph[0].depth, 0);
        assert_eq!(ph[1].depth, 1);
    }

    #[test]
    fn open_phases_clamp_to_cursor() {
        let mut m = Metrics::new(1);
        m.enter_phase("run");
        m.record_send(NodeId(0), 4, 3, 1);
        let ph = m.phases();
        assert_eq!((ph[0].start, ph[0].end), (1, 4));
        // An empty phase spans exactly its start round even if closed early.
        let mut e = Metrics::new(1);
        e.note_round(7);
        e.enter_phase("empty");
        let closed = e.exit_phase_at(2).unwrap();
        assert_eq!(closed, ("empty".to_string(), 8));
        assert_eq!(e.phases()[0].rounds, 1);
        assert!(e.exit_phase().is_none());
    }

    #[test]
    fn absorb_shifted_shifts_spans_and_closes_open_ones() {
        let mut sub = Metrics::new(2);
        sub.enter_phase("AGG");
        sub.record_send(NodeId(0), 1, 5, 1);
        sub.exit_phase();
        sub.enter_phase("VERI");
        sub.record_send(NodeId(1), 3, 2, 1);
        // VERI left open: absorbing closes it at the sub-run's cursor.
        let mut top = Metrics::new(2);
        top.push_span("interval 1", 101, 110);
        top.absorb_shifted(&sub, 100);
        let ph = top.phases();
        assert_eq!(ph.len(), 3);
        assert_eq!((ph[0].label.as_str(), ph[0].depth), ("interval 1", 0));
        assert_eq!(
            (ph[1].label.as_str(), ph[1].start, ph[1].end, ph[1].depth),
            ("AGG", 101, 101, 1)
        );
        assert_eq!(
            (ph[2].label.as_str(), ph[2].start, ph[2].end, ph[2].depth),
            ("VERI", 102, 103, 1)
        );
        assert_eq!(ph[1].bits, 5);
        assert_eq!(ph[2].bits, 2);
        assert_eq!(top.sends_in_rounds(101..=103), 2);
        // push_span already advanced the cursor to the interval's end.
        assert_eq!(top.current_round(), 110);
    }
}
