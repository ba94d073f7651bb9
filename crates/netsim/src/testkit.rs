//! Differential-equivalence helpers shared by the engine test harness.
//!
//! [`Reference`] is a second, deliberately simple implementation of the
//! synchronous model (DESIGN §1 and §5.1): it clones every payload once
//! per delivery, records its events straight into a `Vec`, and has no
//! sinks, timeline, round stream or wall clock. The production engine
//! claims bit-for-bit equivalence with it: same trace bytes, same
//! metrics, same telemetry counts, same protocol outcomes. This module
//! turns that claim into something a test can assert in one line — run
//! both, take a [`RunArtifacts`] from each ([`capture`],
//! [`Reference::artifacts`]), and [`assert_equivalent`]. On divergence
//! the panic names the *first* differing artifact (first differing trace
//! line, first differing node's bits, …) so a broken invariant points
//! straight at the round and node that produced it.
//!
//! Everything compared here is deterministic; wall-clock telemetry
//! ([`Telemetry::busy`], timeline spans) is deliberately excluded.

use crate::adversary::FailureSchedule;
use crate::engine::{Engine, Inbox, Message, NodeLogic, RoundCtx, RunReport, StopCause, Telemetry};
use crate::graph::{Graph, NodeId};
use crate::metrics::{Metrics, PhaseSpan};
use crate::trace::{jsonl_header, Event, EventId, Trace};
use crate::Round;

/// The reference round engine: the model executed the obvious way, with
/// no performance work and no observers.
///
/// Per round `r`, nodes run in id order. It calls every live node in
/// every round and ignores [`NodeLogic::next_wake`], so a wake-up that a
/// node declares too late shows up as a divergence from the engine.
/// A node dead at `r` (its crash round is `≤ r`) is skipped; the first
/// time, a `Crash` event is logged. A live node first logs one `Deliver` per inbox entry, then
/// runs its logic, then meters and logs its outbox — one `Send` per
/// message kind, in first-appearance order. Every neighbour alive at
/// `r + 1` gets its own clone of each message, unless the sender crashes
/// at `r + 1` with a partial broadcast that leaves the neighbour out.
/// Event ids count up in exactly the order the events are created, which
/// is the order the production engine assigns them.
pub struct Reference<M: Message, L: NodeLogic<M>> {
    graph: Graph,
    schedule: FailureSchedule,
    nodes: Vec<L>,
    /// What each node hears next round: (sender, its own payload copy,
    /// the producing `Send` event's id), in arrival order.
    inbox: Vec<Vec<(NodeId, M, EventId)>>,
    crash_logged: Vec<bool>,
    round: Round,
    stopped: bool,
    metrics: Metrics,
    events: Vec<Event>,
    last_id: u64,
    telemetry: Telemetry,
}

impl<M: Message, L: NodeLogic<M>> Reference<M, L> {
    /// A reference run over `graph` under `schedule`, with each node's
    /// logic built by `factory`.
    pub fn new(graph: Graph, schedule: FailureSchedule, factory: impl FnMut(NodeId) -> L) -> Self {
        let n = graph.len();
        Reference {
            nodes: graph.nodes().map(factory).collect(),
            inbox: (0..n).map(|_| Vec::new()).collect(),
            crash_logged: vec![false; n],
            round: 0,
            stopped: false,
            metrics: Metrics::new(n),
            events: Vec::new(),
            last_id: 0,
            telemetry: Telemetry::default(),
            graph,
            schedule,
        }
    }

    fn next_id(&mut self) -> EventId {
        self.last_id += 1;
        EventId(self.last_id)
    }

    /// Executes one round; `false` once a node has requested a stop.
    pub fn step(&mut self) -> bool {
        if self.stopped {
            return false;
        }
        let r = self.round + 1;
        let n = self.graph.len();
        self.metrics.note_round(r);
        self.telemetry.rounds += 1;
        let mut heard = std::mem::replace(&mut self.inbox, (0..n).map(|_| Vec::new()).collect());
        let mut stop = false;
        let mut enqueued = 0;
        for v in (0..n as u32).map(NodeId) {
            if self.schedule.is_dead(v, r) {
                if !self.crash_logged[v.index()] {
                    self.crash_logged[v.index()] = true;
                    self.events.push(Event::Crash { round: r, node: v });
                }
                continue;
            }
            let mine = std::mem::take(&mut heard[v.index()]);
            let mut delivery_ids = Vec::new();
            for (from, msg, src) in &mine {
                let id = self.next_id();
                delivery_ids.push(id);
                let bits = msg.bit_len();
                self.events.push(Event::Deliver {
                    round: r,
                    node: v,
                    from: *from,
                    bits,
                    id,
                    src: *src,
                });
            }
            let from: Vec<NodeId> = mine.iter().map(|d| d.0).collect();
            let midx: Vec<u32> = (0..mine.len() as u32).collect();
            let arena: Vec<M> = mine.into_iter().map(|d| d.1).collect();
            let (mut outbox, mut causes) = (Vec::new(), Vec::new());
            let inbox = Inbox::new(&from, &midx, &arena);
            let mut ctx = RoundCtx::assemble(
                v,
                n,
                r,
                inbox,
                &mut outbox,
                &mut stop,
                &delivery_ids,
                &mut causes,
            );
            self.nodes[v.index()].on_round(&mut ctx);
            if outbox.is_empty() {
                continue;
            }
            let bits = outbox.iter().map(Message::bit_len).sum();
            self.metrics.record_send(v, r, bits, outbox.len() as u64);
            // One `Send` per kind: (kind, bits, messages, id).
            let mut kinds: Vec<(&'static str, u64, u64, EventId)> = Vec::new();
            let mut send_ids = Vec::new();
            for m in &outbox {
                let k = match kinds.iter().position(|g| g.0 == m.kind()) {
                    Some(k) => k,
                    None => {
                        let id = self.next_id();
                        kinds.push((m.kind(), 0, 0, id));
                        kinds.len() - 1
                    }
                };
                kinds[k].1 += m.bit_len();
                kinds[k].2 += 1;
                send_ids.push(kinds[k].3);
            }
            for (kind, bits, logical, id) in kinds {
                let (kind, causes) = (kind.to_string(), causes.clone());
                self.events.push(Event::Send {
                    round: r,
                    node: v,
                    bits,
                    logical,
                    id,
                    kind,
                    causes,
                });
            }
            let partial = self
                .schedule
                .event(v)
                .filter(|e| e.round == r + 1)
                .and_then(|e| e.partial.as_ref());
            for &w in self.graph.neighbors(v) {
                let left_out = partial.is_some_and(|rx| !rx.contains(&w));
                if self.schedule.is_dead(w, r + 1) || left_out {
                    continue;
                }
                for (m, &id) in outbox.iter().zip(&send_ids) {
                    self.inbox[w.index()].push((v, m.clone(), id));
                    enqueued += 1;
                }
            }
        }
        self.telemetry.deliveries += enqueued;
        self.telemetry.peak_inflight = self.telemetry.peak_inflight.max(enqueued);
        self.round = r;
        self.stopped = stop;
        true
    }

    /// Runs until a stop is requested or `max_rounds` rounds have executed.
    pub fn run(&mut self, max_rounds: Round) -> RunReport {
        loop {
            if self.round >= max_rounds {
                return RunReport { rounds: self.round, cause: StopCause::RoundLimit };
            }
            self.step();
            if self.stopped {
                return RunReport { rounds: self.round, cause: StopCause::Requested };
            }
        }
    }

    /// Opens a metrics phase at the next round, logging `PhaseEnter`.
    pub fn enter_phase(&mut self, label: &str) -> Round {
        let start = self.metrics.enter_phase(label);
        self.events.push(Event::PhaseEnter { round: start, label: label.to_string() });
        start
    }

    /// Closes the innermost phase at the current round, logging
    /// `PhaseExit`.
    pub fn exit_phase(&mut self) -> Option<(String, Round)> {
        let (label, end) = self.metrics.exit_phase_at(self.round)?;
        self.events.push(Event::PhaseExit { round: end, label: label.clone() });
        Some((label, end))
    }

    /// A node's logic (e.g. to read the root's output).
    pub fn node(&self, v: NodeId) -> &L {
        &self.nodes[v.index()]
    }

    /// The last executed round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Every deterministic observable of the run so far.
    pub fn artifacts(&self) -> RunArtifacts {
        let trace = jsonl_lines(&self.events);
        capture_parts("reference", trace, &self.metrics, &self.telemetry, self.round)
    }
}

/// Every deterministic observable of one engine run, in directly
/// comparable (mostly serialized) form.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArtifacts {
    /// Which implementation produced this (`"engine"` / `"reference"`);
    /// *not* compared.
    pub engine: String,
    /// The trace serialized line-by-line to v2 JSONL (header first).
    /// Compared byte-for-byte.
    pub trace: Vec<String>,
    /// Per-node bits broadcast ([`Metrics::bits_per_node`]).
    pub bits_per_node: Vec<u64>,
    /// Per-node logical messages broadcast.
    pub sends_per_node: Vec<u64>,
    /// The per-round (round, bits) ledger, skipping zero rounds.
    pub per_round_bits: Vec<(Round, u64)>,
    /// Recorded phase spans.
    pub spans: Vec<PhaseSpan>,
    /// Rounds executed ([`Telemetry::rounds`]).
    pub rounds: u64,
    /// Total deliveries enqueued ([`Telemetry::deliveries`]).
    pub deliveries: u64,
    /// Largest single-round delivery volume ([`Telemetry::peak_inflight`]).
    pub peak_inflight: u64,
    /// The engine's final round counter.
    pub last_round: Round,
}

/// Serializes events to their v2 JSONL lines, header included — the
/// exact bytes `JsonlSink` would have written, one line per entry.
fn jsonl_lines(events: &[Event]) -> Vec<String> {
    let mut lines = Vec::with_capacity(events.len() + 1);
    lines.push(jsonl_header(false));
    lines.extend(events.iter().map(Event::to_jsonl));
    lines
}

/// Assembles artifacts from a run's trace lines, meters and counters.
fn capture_parts(
    engine: &str,
    trace: Vec<String>,
    metrics: &Metrics,
    telemetry: &Telemetry,
    last_round: Round,
) -> RunArtifacts {
    RunArtifacts {
        engine: engine.to_string(),
        trace,
        bits_per_node: metrics.bits_per_node().to_vec(),
        sends_per_node: (0..metrics.bits_per_node().len())
            .map(|i| metrics.sends_of(crate::NodeId(i as u32)))
            .collect(),
        per_round_bits: metrics.per_round_bits().collect(),
        spans: metrics.spans().to_vec(),
        rounds: telemetry.rounds,
        deliveries: telemetry.deliveries,
        peak_inflight: telemetry.peak_inflight,
        last_round,
    }
}

/// Captures every deterministic observable of an [`Engine`] run, with
/// `trace` the [`Trace`] that was installed as one of its sinks.
pub fn capture<M: Message, L: NodeLogic<M>>(eng: &Engine<M, L>, trace: &Trace) -> RunArtifacts {
    let trace = jsonl_lines(trace.events());
    capture_parts("engine", trace, eng.metrics(), eng.telemetry(), eng.round())
}

impl RunArtifacts {
    /// The first way `self` and `other` differ, described precisely enough
    /// to debug from (artifact name, position, both values) — or `None` if
    /// the runs are equivalent. Trace bytes are checked first since a
    /// trace divergence localizes the guilty round and node directly.
    pub fn first_divergence(&self, other: &RunArtifacts) -> Option<String> {
        let (a, b) = (&self.engine, &other.engine);
        for (i, (la, lb)) in self.trace.iter().zip(other.trace.iter()).enumerate() {
            if la != lb {
                return Some(format!("trace line {i} differs:\n  {a}: {la}\n  {b}: {lb}"));
            }
        }
        if self.trace.len() != other.trace.len() {
            let (longer, at) = if self.trace.len() > other.trace.len() {
                (a, other.trace.len())
            } else {
                (b, self.trace.len())
            };
            return Some(format!(
                "trace lengths differ ({}: {} lines, {}: {} lines); first extra line in {longer}: {}",
                a,
                self.trace.len(),
                b,
                other.trace.len(),
                self.trace.get(at).or_else(|| other.trace.get(at)).unwrap()
            ));
        }
        if self.bits_per_node.len() != other.bits_per_node.len() {
            return Some(format!(
                "node counts differ: {a} has {}, {b} has {}",
                self.bits_per_node.len(),
                other.bits_per_node.len()
            ));
        }
        for (i, (ba, bb)) in self.bits_per_node.iter().zip(other.bits_per_node.iter()).enumerate() {
            if ba != bb {
                return Some(format!("node {i} bits differ: {a}={ba}, {b}={bb}"));
            }
        }
        for (i, (sa, sb)) in self.sends_per_node.iter().zip(other.sends_per_node.iter()).enumerate()
        {
            if sa != sb {
                return Some(format!("node {i} sends differ: {a}={sa}, {b}={sb}"));
            }
        }
        if self.per_round_bits != other.per_round_bits {
            let diff =
                self.per_round_bits.iter().zip(other.per_round_bits.iter()).find(|(x, y)| x != y);
            return Some(match diff {
                Some((x, y)) => format!(
                    "per-round bits differ at round {}: {a}={}, {b} round {} = {}",
                    x.0, x.1, y.0, y.1
                ),
                None => format!(
                    "per-round ledger lengths differ: {a}={}, {b}={}",
                    self.per_round_bits.len(),
                    other.per_round_bits.len()
                ),
            });
        }
        if self.spans != other.spans {
            return Some(format!(
                "phase spans differ:\n  {a}: {:?}\n  {b}: {:?}",
                self.spans, other.spans
            ));
        }
        if self.rounds != other.rounds {
            return Some(format!(
                "telemetry.rounds differ: {a}={}, {b}={}",
                self.rounds, other.rounds
            ));
        }
        if self.deliveries != other.deliveries {
            return Some(format!(
                "telemetry.deliveries differ: {a}={}, {b}={}",
                self.deliveries, other.deliveries
            ));
        }
        if self.peak_inflight != other.peak_inflight {
            return Some(format!(
                "telemetry.peak_inflight differ: {a}={}, {b}={}",
                self.peak_inflight, other.peak_inflight
            ));
        }
        if self.last_round != other.last_round {
            return Some(format!(
                "final round differs: {a}={}, {b}={}",
                self.last_round, other.last_round
            ));
        }
        None
    }
}

/// Panics with the first divergence if the two runs are not bit-identical.
/// `context` names the scenario (driver, schedule, seed) for the message.
pub fn assert_equivalent(a: &RunArtifacts, b: &RunArtifacts, context: &str) {
    if let Some(d) = a.first_divergence(b) {
        panic!("engines diverge [{context}]: {d}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifacts(bits: Vec<u64>) -> RunArtifacts {
        RunArtifacts {
            engine: "engine".into(),
            trace: vec!["{\"schema\":\"ftagg-trace\",\"v\":2}".into()],
            bits_per_node: bits,
            sends_per_node: vec![1, 1],
            per_round_bits: vec![(1, 16)],
            spans: Vec::new(),
            rounds: 1,
            deliveries: 2,
            peak_inflight: 2,
            last_round: 1,
        }
    }

    #[test]
    fn identical_artifacts_have_no_divergence() {
        let a = artifacts(vec![8, 8]);
        assert_eq!(a.first_divergence(&artifacts(vec![8, 8])), None);
    }

    #[test]
    fn bit_difference_is_localized_to_the_node() {
        let a = artifacts(vec![8, 8]);
        let d = a.first_divergence(&artifacts(vec![8, 9])).unwrap();
        assert!(d.contains("node 1 bits differ"), "{d}");
    }

    #[test]
    fn trace_difference_wins_over_metric_difference() {
        let a = artifacts(vec![8, 8]);
        let mut b = artifacts(vec![8, 9]);
        b.trace.push("{\"ev\":\"x\"}".into());
        let d = a.first_divergence(&b).unwrap();
        assert!(d.contains("trace lengths differ"), "{d}");
    }
}
