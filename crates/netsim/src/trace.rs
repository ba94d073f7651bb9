//! Execution tracing: an optional per-round event log and pluggable sinks.
//!
//! Protocol debugging and the experiment harness sometimes need to *see*
//! an execution — who broadcast in which round, what was delivered where,
//! when crashes took effect, which protocol phase the traffic belongs to.
//! The engine emits [`Event`]s into a [`TraceSink`] when tracing is enabled
//! (it is off by default; the hot path pays one branch). Two sinks ship
//! with this module:
//!
//! - [`Trace`] — the in-memory, queryable event log;
//! - [`JsonlSink`] — line-delimited JSON for offline analysis; the schema
//!   is versioned ([`TRACE_SCHEMA_VERSION`]) and read back by
//!   [`Trace::from_jsonl`].
//!
//! Since schema v2 every `Send`/`Deliver` carries an [`EventId`] plus
//! causal lineage (`Send.causes`: the delivery events the broadcast
//! depended on; `Deliver.src`: the producing send), consumed by
//! [`crate::causal`] to build a provenance DAG. v1 traces are still
//! readable — absent causal fields parse as empty lineage.
//!
//! The observability layer is **passive**: sinks only observe the events
//! the engine hands them and can never perturb an execution (pinned by
//! `tests/observer_noninterference.rs`).

use crate::adversary::Round;
use crate::engine::RoundFlow;
use crate::graph::NodeId;
use crate::json::{quote, Json};
use std::cell::RefCell;
use std::io::{self, BufRead, Write};
use std::rc::Rc;

/// Version of the JSONL trace schema emitted by [`JsonlSink`] and asserted
/// by [`Trace::from_jsonl`]. Bump when the line format changes; the golden
/// snapshot test in `tests/golden_trace.rs` pins the on-disk format of the
/// current version. The reader also accepts the immediately previous
/// version ([`TRACE_SCHEMA_COMPAT_MIN`]) with absent fields defaulted.
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// Oldest schema version [`Trace::from_jsonl`] still accepts. v1 traces
/// (PR 2/3 era) lack event ids and causal lineage; they parse with
/// [`EventId::NONE`] ids, empty `kind`s and empty `causes`.
pub const TRACE_SCHEMA_COMPAT_MIN: u32 = 1;

/// Identity of one traced `Send`/`Deliver` event, assigned by the engine
/// in strictly increasing record order while a sink is installed. Id `0`
/// ([`EventId::NONE`]) means "unknown / tracing was off when this was
/// produced" and never names a real event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

impl EventId {
    /// The null id: no event. Real ids start at 1.
    pub const NONE: EventId = EventId(0);

    /// Whether this id names a real event.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// One traced event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A node locally broadcast `logical` combined messages of `bits`
    /// total bits in `round`. When a sink is installed the engine groups
    /// the outbox by message [`kind`](crate::engine::Message::kind) and
    /// emits one `Send` event per kind, so per-kind `bits` partition the
    /// node's round total exactly.
    Send {
        /// The round of the broadcast.
        round: Round,
        /// The broadcasting node.
        node: NodeId,
        /// Total encoded bits (of this kind, when kinds are in play).
        bits: u64,
        /// Number of logical messages combined.
        logical: u64,
        /// Engine-assigned event id ([`EventId::NONE`] in v1 traces).
        id: EventId,
        /// Protocol-declared message kind (`""` = untagged).
        kind: String,
        /// Ids of the `Deliver` events this broadcast causally depends
        /// on, as declared via `RoundCtx::send_caused_by`. Empty means
        /// "unknown" — [`crate::causal`] then falls back to the
        /// conservative closure (all earlier deliveries at this node).
        causes: Vec<EventId>,
    },
    /// A live node received one logical message in `round` (broadcast by
    /// `from` in the previous round). Dead nodes receive nothing.
    Deliver {
        /// The round of the delivery.
        round: Round,
        /// The receiving node.
        node: NodeId,
        /// The neighbor that broadcast the message.
        from: NodeId,
        /// Encoded bits of the delivered message.
        bits: u64,
        /// Engine-assigned event id ([`EventId::NONE`] in v1 traces).
        id: EventId,
        /// Id of the `Send` event that produced this delivery
        /// ([`EventId::NONE`] in v1 traces).
        src: EventId,
    },
    /// A node became dead at the start of `round` (first round it did not
    /// execute).
    Crash {
        /// The first dead round.
        round: Round,
        /// The crashed node.
        node: NodeId,
    },
    /// A protocol phase (AGG, VERI, an Algorithm 1 interval, …) begins at
    /// `round`. Emitted by the harness, mirroring
    /// [`crate::metrics::Metrics`] phase attribution.
    PhaseEnter {
        /// First round of the phase.
        round: Round,
        /// Phase label.
        label: String,
    },
    /// The innermost open phase ends at `round` (inclusive).
    PhaseExit {
        /// Last round of the phase.
        round: Round,
        /// Phase label.
        label: String,
    },
    /// A node decided an output (normally the root, with the aggregate).
    Decide {
        /// The round of the decision.
        round: Round,
        /// The deciding node.
        node: NodeId,
        /// The decided value.
        value: u64,
    },
}

impl Event {
    /// A `Send` event with no id/kind/lineage (v1-shaped) — convenience
    /// for tests and hand-built traces.
    pub fn send(round: Round, node: NodeId, bits: u64, logical: u64) -> Event {
        Event::Send {
            round,
            node,
            bits,
            logical,
            id: EventId::NONE,
            kind: String::new(),
            causes: Vec::new(),
        }
    }

    /// A `Deliver` event with no id/src (v1-shaped) — convenience for
    /// tests and hand-built traces.
    pub fn deliver(round: Round, node: NodeId, from: NodeId, bits: u64) -> Event {
        Event::Deliver { round, node, from, bits, id: EventId::NONE, src: EventId::NONE }
    }

    /// The round the event belongs to.
    pub fn round(&self) -> Round {
        match self {
            Event::Send { round, .. }
            | Event::Deliver { round, .. }
            | Event::Crash { round, .. }
            | Event::PhaseEnter { round, .. }
            | Event::PhaseExit { round, .. }
            | Event::Decide { round, .. } => *round,
        }
    }

    /// The node the event concerns, if any (phase markers are global).
    pub fn node(&self) -> Option<NodeId> {
        match self {
            Event::Send { node, .. }
            | Event::Deliver { node, .. }
            | Event::Crash { node, .. }
            | Event::Decide { node, .. } => Some(*node),
            Event::PhaseEnter { .. } | Event::PhaseExit { .. } => None,
        }
    }

    /// Stable lowercase tag naming the event kind (the JSONL `ev` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Send { .. } => "send",
            Event::Deliver { .. } => "deliver",
            Event::Crash { .. } => "crash",
            Event::PhaseEnter { .. } => "phase_enter",
            Event::PhaseExit { .. } => "phase_exit",
            Event::Decide { .. } => "decide",
        }
    }

    /// The canonical JSONL encoding of this event (one line, no newline).
    /// Causal fields keep the stream compact: `id` is always present on
    /// `send`/`deliver`, `kind`/`causes`/`src` only when non-empty.
    pub fn to_jsonl(&self) -> String {
        match self {
            Event::Send { round, node, bits, logical, id, kind, causes } => {
                let mut line = format!(
                    "{{\"ev\":\"send\",\"r\":{round},\"n\":{},\"bits\":{bits},\"logical\":{logical},\"id\":{}",
                    node.0, id.0
                );
                if !kind.is_empty() {
                    line.push_str(&format!(",\"kind\":{}", quote(kind)));
                }
                if !causes.is_empty() {
                    line.push_str(",\"causes\":[");
                    for (i, c) in causes.iter().enumerate() {
                        if i > 0 {
                            line.push(',');
                        }
                        line.push_str(&c.0.to_string());
                    }
                    line.push(']');
                }
                line.push('}');
                line
            }
            Event::Deliver { round, node, from, bits, id, src } => {
                let mut line = format!(
                    "{{\"ev\":\"deliver\",\"r\":{round},\"n\":{},\"from\":{},\"bits\":{bits},\"id\":{}",
                    node.0, from.0, id.0
                );
                if src.is_some() {
                    line.push_str(&format!(",\"src\":{}", src.0));
                }
                line.push('}');
                line
            }
            Event::Crash { round, node } => {
                format!("{{\"ev\":\"crash\",\"r\":{round},\"n\":{}}}", node.0)
            }
            Event::PhaseEnter { round, label } => {
                format!("{{\"ev\":\"phase_enter\",\"r\":{round},\"label\":{}}}", quote(label))
            }
            Event::PhaseExit { round, label } => {
                format!("{{\"ev\":\"phase_exit\",\"r\":{round},\"label\":{}}}", quote(label))
            }
            Event::Decide { round, node, value } => {
                format!("{{\"ev\":\"decide\",\"r\":{round},\"n\":{},\"value\":{value}}}", node.0)
            }
        }
    }

    /// Parses one JSONL event line (the inverse of [`Event::to_jsonl`]).
    /// Causal fields are optional, so v1 lines parse too (with
    /// [`EventId::NONE`] ids and empty lineage).
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_jsonl(line: &str) -> Result<Event, String> {
        let obj = Json::parse(line)?;
        let bad = |key: &str, what: &str| format!("bad \"{key}\": expected {what}");
        // An absent field is `None` (v1 lines lack the causal ones); a
        // field of the wrong type is an error.
        let opt = |key: &str| -> Result<Option<u64>, String> {
            obj.get(key)
                .map(|v| v.as_u64().ok_or_else(|| bad(key, "an unsigned integer")))
                .transpose()
        };
        let text = |key: &str| -> Result<Option<String>, String> {
            let s = obj.get(key).map(|v| v.as_str().ok_or_else(|| bad(key, "a string")));
            Ok(s.transpose()?.map(str::to_string))
        };
        let num = |key: &str| opt(key)?.ok_or_else(|| format!("missing \"{key}\""));
        let node = |key: &str| u32::try_from(num(key)?).map(NodeId).map_err(|_| bad(key, "a u32"));
        let id = |key: &str| opt(key).map(|v| EventId(v.unwrap_or(0)));
        let label = || text("label")?.ok_or_else(|| "missing \"label\"".to_string());
        let ev = text("ev")?.ok_or("missing \"ev\"")?;
        let round = num("r")?;
        match ev.as_str() {
            "send" => Ok(Event::Send {
                round,
                node: node("n")?,
                bits: num("bits")?,
                logical: num("logical")?,
                id: id("id")?,
                kind: text("kind")?.unwrap_or_default(),
                causes: match obj.get("causes") {
                    None => Vec::new(),
                    Some(list) => list
                        .as_array()
                        .and_then(|l| l.iter().map(|c| c.as_u64().map(EventId)).collect())
                        .ok_or_else(|| bad("causes", "an array of event ids"))?,
                },
            }),
            "deliver" => Ok(Event::Deliver {
                round,
                node: node("n")?,
                from: node("from")?,
                bits: num("bits")?,
                id: id("id")?,
                src: id("src")?,
            }),
            "crash" => Ok(Event::Crash { round, node: node("n")? }),
            "phase_enter" => Ok(Event::PhaseEnter { round, label: label()? }),
            "phase_exit" => Ok(Event::PhaseExit { round, label: label()? }),
            "decide" => Ok(Event::Decide { round, node: node("n")?, value: num("value")? }),
            other => Err(format!("unknown event kind {other:?}")),
        }
    }
}

/// How much of an execution a [`TraceSink`] reads. The levels are
/// ordered, each one including the levels below it, and the engine builds
/// only what the highest level among its sinks asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Wants {
    /// Only the per-round [`TraceSink::end_round`] rows. A sink at this
    /// level costs the engine one call per round: no send or delivery
    /// event is built for it (the rare crash, phase and decide events are
    /// built whatever the level, and reach every sink).
    Rounds,
    /// Every event except [`Event::Deliver`]: sends, crashes, phases and
    /// decisions, which is what replay, metrics and blame read.
    Events,
    /// Every event. At N = 2²⁰ deliveries outnumber sends by orders of
    /// magnitude, so this level is the difference between a few percent
    /// of overhead and a multiple.
    Deliveries,
}

/// A consumer of engine events. An engine holds any number of sinks and
/// hands each event it builds, and each retired round, to all of them in
/// installation order ([`crate::Engine::add_sink`]); with none installed
/// it pays one emptiness test per event site. Everything a sink does is
/// invisible to the execution it observes.
///
/// To read a sink after the run, keep a shared handle to it: an
/// `Rc<RefCell<S>>` is itself a sink, so install one clone and read the
/// other. Nothing is ever taken back off an engine.
///
/// ```
/// use netsim::{
///     topology, Engine, FailureSchedule, FlightRecorder, Message, NodeLogic, RoundCtx, Trace,
/// };
/// use std::{cell::RefCell, rc::Rc};
///
/// #[derive(Clone, Debug)]
/// struct Hello;
/// impl Message for Hello {
///     fn bit_len(&self) -> u64 { 8 }
/// }
/// struct Greeter;
/// impl NodeLogic<Hello> for Greeter {
///     fn on_round(&mut self, ctx: &mut RoundCtx<'_, Hello>) {
///         if ctx.round() == 1 {
///             ctx.send(Hello);
///         }
///     }
/// }
///
/// let mut eng = Engine::new(topology::path(3), FailureSchedule::none(), |_| Greeter);
/// let trace = Rc::new(RefCell::new(Trace::new()));
/// let recorder = Rc::new(RefCell::new(FlightRecorder::new(8)));
/// eng.add_sink(Box::new(Rc::clone(&trace))).add_sink(Box::new(Rc::clone(&recorder)));
/// eng.run(2);
/// // 3 sends in round 1, 4 deliveries in round 2: both sinks saw all 7,
/// // and the recorder, which keeps no deliveries, encoded the 3 sends.
/// assert_eq!(trace.borrow().events().len(), 7);
/// let stats = recorder.borrow().handle().stats();
/// assert_eq!((stats.total_events, stats.recorded_events), (7, 3));
/// ```
pub trait TraceSink {
    /// Receives one event. Events arrive in non-decreasing round order.
    fn record(&mut self, e: &Event);

    /// Receives one retired round's traffic, after that round's events.
    fn end_round(&mut self, _flow: &RoundFlow) {}

    /// How much of the execution this sink reads.
    ///
    /// The engine consults this **once, at sink installation**, and
    /// builds only what the highest answer among its sinks asks for. A
    /// lower answer never changes the execution, and a sink that gives
    /// one is still offered every event a sibling sink asked for.
    /// Defaults to [`Wants::Deliveries`].
    fn wants(&self) -> Wants {
        Wants::Deliveries
    }
}

/// A shared handle records into the sink it points at, so a caller can
/// install one clone on an engine and read the sink through another.
impl<S: TraceSink + ?Sized> TraceSink for Rc<RefCell<S>> {
    fn record(&mut self, e: &Event) {
        self.borrow_mut().record(e);
    }

    fn end_round(&mut self, flow: &RoundFlow) {
        self.borrow_mut().end_round(flow);
    }

    fn wants(&self) -> Wants {
        self.borrow().wants()
    }
}

/// An append-only event log ordered by round.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<Event>,
    /// Set when this trace is known to be missing events (e.g. only its
    /// tail was kept). Analyses must surface this instead of silently
    /// reporting on a partial stream.
    truncated: bool,
    /// Largest [`EventId`] seen, for id-shifting merges.
    max_id: u64,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event (engine-internal). Events must arrive in
    /// non-decreasing round order — the engine guarantees it, and
    /// [`Trace::in_round`] relies on it to binary-search.
    pub fn push(&mut self, e: Event) {
        debug_assert!(
            self.events.last().is_none_or(|last| last.round() <= e.round()),
            "events must be appended in round order ({} after {})",
            e.round(),
            self.events.last().map_or(0, Event::round),
        );
        match &e {
            Event::Send { id, .. } | Event::Deliver { id, .. } => {
                self.max_id = self.max_id.max(id.0);
            }
            _ => {}
        }
        self.events.push(e);
    }

    /// All events in append (= round) order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Whether events are known to be missing from this log (a kept
    /// tail). Reports built on a truncated trace must say so.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Marks the log as missing events (see [`Trace::truncated`]).
    pub fn set_truncated(&mut self, truncated: bool) {
        self.truncated = truncated;
    }

    /// The largest [`EventId`] appearing in the log.
    pub fn max_event_id(&self) -> u64 {
        self.max_id
    }

    /// Keeps only the events `keep` accepts (round order is preserved;
    /// `max_id` stays a valid upper bound).
    pub fn retain(&mut self, keep: impl FnMut(&Event) -> bool) {
        self.events.retain(keep);
    }

    /// Merges a sub-execution's trace, shifting its rounds by `offset`
    /// (local round `r` becomes `offset + r`) and its non-null event ids
    /// past ours so lineage stays unambiguous — the trace-level analogue
    /// of [`crate::metrics::Metrics::absorb_shifted`]. The caller must
    /// absorb sub-traces in increasing window order (as Algorithm 1's
    /// disjoint intervals are), or round order breaks.
    pub fn absorb_shifted(&mut self, other: &Trace, offset: Round) {
        let base = self.max_id;
        let bump = |id: EventId| if id.is_some() { EventId(id.0 + base) } else { id };
        for e in &other.events {
            let shifted = match e {
                Event::Send { round, node, bits, logical, id, kind, causes } => Event::Send {
                    round: round + offset,
                    node: *node,
                    bits: *bits,
                    logical: *logical,
                    id: bump(*id),
                    kind: kind.clone(),
                    causes: causes.iter().map(|&c| bump(c)).collect(),
                },
                Event::Deliver { round, node, from, bits, id, src } => Event::Deliver {
                    round: round + offset,
                    node: *node,
                    from: *from,
                    bits: *bits,
                    id: bump(*id),
                    src: bump(*src),
                },
                Event::Crash { round, node } => Event::Crash { round: round + offset, node: *node },
                Event::PhaseEnter { round, label } => {
                    Event::PhaseEnter { round: round + offset, label: label.clone() }
                }
                Event::PhaseExit { round, label } => {
                    Event::PhaseExit { round: round + offset, label: label.clone() }
                }
                Event::Decide { round, node, value } => {
                    Event::Decide { round: round + offset, node: *node, value: *value }
                }
            };
            self.push(shifted);
        }
        self.truncated |= other.truncated;
    }

    /// Events of one round, located by binary search over the round-ordered
    /// event vec (O(log |events| + answer), not a full scan).
    pub fn in_round(&self, round: Round) -> impl Iterator<Item = &Event> {
        let lo = self.events.partition_point(|e| e.round() < round);
        let hi = self.events[lo..].partition_point(|e| e.round() <= round) + lo;
        self.events[lo..hi].iter()
    }

    /// Events concerning one node.
    pub fn of_node(&self, node: NodeId) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.node() == Some(node))
    }

    /// Rounds in which `node` broadcast anything, ascending (deduplicated:
    /// per-kind `Send` events in the same round count once).
    pub fn send_rounds(&self, node: NodeId) -> Vec<Round> {
        let mut rounds: Vec<Round> = self
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Send { round, node: n, .. } if *n == node => Some(*round),
                _ => None,
            })
            .collect();
        rounds.dedup();
        rounds
    }

    /// The last round with any event, if non-empty.
    pub fn last_round(&self) -> Option<Round> {
        // Events are round-ordered, so the maximum is the last one.
        self.events.last().map(Event::round)
    }

    /// Reconstructs the communication [`crate::metrics::Metrics`] this
    /// trace implies: per-node and per-round counters from `Send` events,
    /// phase spans from the phase markers. The node-count is inferred from
    /// the largest id mentioned. Offline reports use this to analyze a
    /// saved JSONL trace exactly as if the run were live. Per-kind `Send`
    /// events accumulate, so the replayed totals equal the live ones.
    pub fn replay_metrics(&self) -> crate::metrics::Metrics {
        let n =
            self.events.iter().filter_map(|e| e.node()).map(|v| v.index() + 1).max().unwrap_or(0);
        let mut m = crate::metrics::Metrics::new(n);
        for e in &self.events {
            m.note_round(e.round());
            match e {
                Event::Send { round, node, bits, logical, .. } => {
                    m.record_send(*node, *round, *bits, *logical);
                }
                Event::PhaseEnter { round, label } => m.enter_phase_at(label, *round),
                Event::PhaseExit { round, .. } => {
                    let _ = m.exit_phase_at(*round);
                }
                _ => {}
            }
        }
        m
    }

    /// Parses a JSONL trace (as written by [`JsonlSink`]), validating the
    /// schema header. Accepts the current schema and v1 (absent causal
    /// fields parse as empty lineage); anything else is rejected loudly —
    /// never reinterpreted silently.
    ///
    /// # Errors
    ///
    /// Returns a one-line message on I/O failure, a missing/mismatched
    /// schema header, a malformed event line, or an event whose round is
    /// lower than the one on the line before it.
    pub fn from_jsonl(reader: impl BufRead) -> Result<Trace, String> {
        let mut trace = Trace::new();
        let mut saw_header = false;
        for (i, line) in reader.lines().enumerate() {
            let at = |e: String| format!("line {}: {e}", i + 1);
            let line = line.map_err(|e| at(e.to_string()))?;
            if line.trim().is_empty() {
                continue;
            }
            if !saw_header {
                let header = Json::parse(&line).map_err(at)?;
                let schema = header
                    .get("schema")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {} is not a schema header", i + 1))?;
                if schema != "ftagg-trace" {
                    return Err(format!("unknown schema {schema:?}"));
                }
                let v = header.get("v").and_then(Json::as_u64);
                let v = v.ok_or_else(|| at("bad \"v\": expected an unsigned integer".into()))?;
                let supported =
                    u64::from(TRACE_SCHEMA_COMPAT_MIN)..=u64::from(TRACE_SCHEMA_VERSION);
                if !supported.contains(&v) {
                    return Err(format!(
                        "trace schema v{v} unsupported (reader speaks v{TRACE_SCHEMA_COMPAT_MIN}..=v{TRACE_SCHEMA_VERSION})"
                    ));
                }
                saw_header = true;
                continue;
            }
            let e = Event::from_jsonl(&line).map_err(at)?;
            if let Some(last) = trace.last_round().filter(|&last| e.round() < last) {
                return Err(at(format!(
                    "round {} after round {last} (events must be in round order)",
                    e.round()
                )));
            }
            trace.push(e);
        }
        if !saw_header {
            return Err("empty trace file (no schema header)".into());
        }
        Ok(trace)
    }

    /// Renders a human-readable per-round summary (for harness output).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut cur = 0;
        for e in &self.events {
            if e.round() != cur {
                cur = e.round();
                let _ = writeln!(out, "-- round {cur} --");
            }
            match e {
                Event::Send { node, bits, logical, kind, .. } => {
                    if kind.is_empty() {
                        let _ = writeln!(out, "  {node:?} sends {logical} msg(s), {bits} bits");
                    } else {
                        let _ = writeln!(
                            out,
                            "  {node:?} sends {logical} msg(s), {bits} bits [{kind}]"
                        );
                    }
                }
                Event::Deliver { node, from, bits, .. } => {
                    let _ = writeln!(out, "  {node:?} <- {from:?} ({bits} bits)");
                }
                Event::Crash { node, .. } => {
                    let _ = writeln!(out, "  {node:?} CRASHED");
                }
                Event::PhaseEnter { label, .. } => {
                    let _ = writeln!(out, "  == phase {label} begins ==");
                }
                Event::PhaseExit { label, .. } => {
                    let _ = writeln!(out, "  == phase {label} ends ==");
                }
                Event::Decide { node, value, .. } => {
                    let _ = writeln!(out, "  {node:?} DECIDES {value}");
                }
            }
        }
        out
    }
}

impl TraceSink for Trace {
    fn record(&mut self, e: &Event) {
        self.push(e.clone());
    }
}

/// A line-delimited JSON sink for offline analysis. The first line is a
/// schema header (`{"schema":"ftagg-trace","v":2}`); every following line
/// is one [`Event`] (see [`Event::to_jsonl`]). Read back with
/// [`Trace::from_jsonl`].
///
/// I/O errors are latched: the first failure stops further writes and is
/// surfaced by [`JsonlSink::finish`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    lines: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps `writer`, emitting the schema header immediately.
    pub fn new(mut writer: W) -> Self {
        let error =
            writeln!(writer, "{{\"schema\":\"ftagg-trace\",\"v\":{TRACE_SCHEMA_VERSION}}}").err();
        JsonlSink { writer, lines: 1, error }
    }

    /// Event lines written so far, including the header.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the writer, or the first latched I/O error.
    ///
    /// # Errors
    ///
    /// Returns the first error any write hit.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, e: &Event) {
        if self.error.is_some() {
            return;
        }
        match writeln!(self.writer, "{}", e.to_jsonl()) {
            Ok(()) => self.lines += 1,
            Err(err) => self.error = Some(err),
        }
    }
}

#[inline]
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// A fixed stack buffer for one event's worth of varints, flushed into the
/// stream with a single `extend_from_slice` — the flight-recorder hot path
/// encodes ~10⁶ send events per million-node round, and per-byte `Vec`
/// pushes are the dominant cost there.
struct Scratch {
    buf: [u8; 192],
    len: usize,
}

impl Scratch {
    #[inline]
    fn new() -> Scratch {
        Scratch { buf: [0; 192], len: 0 }
    }

    /// Appends one LEB128 varint; callers bound their field count so the
    /// 192-byte scratch (19 maximal varints) can never overflow.
    #[inline]
    fn put(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf[self.len] = byte;
                self.len += 1;
                return;
            }
            self.buf[self.len] = byte | 0x80;
            self.len += 1;
        }
    }

    #[inline]
    fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos).ok_or("delta stream truncated inside varint")?;
        *pos += 1;
        if shift >= 64 {
            return Err("varint overflows u64".into());
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A delta-encoded binary sink: the in-flight representation of a trace at
/// a fraction of its JSONL size, decoding back to the v2 JSONL stream
/// **byte-for-byte** (pinned by `prop_soa.rs`).
///
/// The stream exploits what event logs actually look like: rounds are
/// monotone (stored as deltas), event ids count up from the previous id
/// (zigzag deltas), `src`/`causes` point a short distance backwards
/// (stored as distances from the carrying event's id), and the `kind` /
/// phase-label strings come from a tiny set (interned in-stream on first
/// use). Every field is an LEB128 varint, so the common
/// send/deliver event costs a handful of bytes instead of a ~100-byte
/// JSON line.
#[derive(Clone, Debug, Default)]
pub struct DeltaSink {
    buf: Vec<u8>,
    /// In-stream string table; index 0 is pre-seeded as the empty string.
    strings: Vec<String>,
    prev_round: Round,
    prev_id: u64,
    events: u64,
}

/// Tags of the delta stream's event records, in [`Event`] variant order.
const DELTA_TAG_SEND: u64 = 0;
const DELTA_TAG_DELIVER: u64 = 1;
const DELTA_TAG_CRASH: u64 = 2;
const DELTA_TAG_PHASE_ENTER: u64 = 3;
const DELTA_TAG_PHASE_EXIT: u64 = 4;
const DELTA_TAG_DECIDE: u64 = 5;

impl DeltaSink {
    /// An empty delta stream.
    pub fn new() -> Self {
        DeltaSink { strings: vec![String::new()], ..Self::default() }
    }

    /// The encoded bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the sink, returning the encoded stream.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Events encoded so far.
    pub fn event_count(&self) -> u64 {
        self.events
    }

    fn put_string(&mut self, s: &str) {
        match self.intern_index(s) {
            Some(i) => put_varint(&mut self.buf, i as u64),
            None => {
                put_varint(&mut self.buf, self.strings.len() as u64);
                put_varint(&mut self.buf, s.len() as u64);
                self.buf.extend_from_slice(s.as_bytes());
                self.strings.push(s.to_string());
            }
        }
    }

    /// The in-stream table index of `s`, if already interned. The table
    /// stays tiny (message kinds + phase labels), so a linear scan wins
    /// over any map.
    #[inline]
    fn intern_index(&self, s: &str) -> Option<usize> {
        self.strings.iter().position(|t| t == s)
    }

    /// Round delta (monotone in well-formed traces, zigzag for safety)
    /// shared by every record; updates the predictor.
    fn put_round(&mut self, round: Round) {
        put_varint(&mut self.buf, zigzag(round as i64 - self.prev_round as i64));
        self.prev_round = round;
    }

    /// Event id as a zigzag delta from the previous non-null id; null ids
    /// (pre-sink deliveries) encode but do not advance the predictor.
    fn put_id(&mut self, id: EventId) {
        put_varint(&mut self.buf, zigzag(id.0 as i64 - self.prev_id as i64));
        if id.0 != 0 {
            self.prev_id = id.0;
        }
    }

    /// Decodes a stream back to its events.
    ///
    /// # Errors
    ///
    /// Returns a message on a truncated or corrupt stream.
    pub fn decode(bytes: &[u8]) -> Result<Vec<Event>, String> {
        let mut out = Vec::new();
        let mut strings = vec![String::new()];
        let mut prev_round: Round = 0;
        let mut prev_id: u64 = 0;
        let mut pos = 0usize;
        let get_string =
            |bytes: &[u8], pos: &mut usize, strings: &mut Vec<String>| -> Result<String, String> {
                let i = get_varint(bytes, pos)? as usize;
                if i < strings.len() {
                    return Ok(strings[i].clone());
                }
                if i != strings.len() {
                    return Err(format!("string index {i} skips table of {}", strings.len()));
                }
                let len = get_varint(bytes, pos)? as usize;
                let end = pos.checked_add(len).filter(|&e| e <= bytes.len());
                let end = end.ok_or("delta stream truncated inside string")?;
                let s = std::str::from_utf8(&bytes[*pos..end])
                    .map_err(|_| "non-UTF-8 string in delta stream")?
                    .to_string();
                *pos = end;
                strings.push(s.clone());
                Ok(s)
            };
        while pos < bytes.len() {
            let tag = get_varint(bytes, &mut pos)?;
            let round = {
                let d = unzigzag(get_varint(bytes, &mut pos)?);
                let r = prev_round.checked_add_signed(d).ok_or("round delta underflows")?;
                prev_round = r;
                r
            };
            let get_id = |pos: &mut usize, prev_id: &mut u64| -> Result<EventId, String> {
                let d = unzigzag(get_varint(bytes, pos)?);
                let id = prev_id.checked_add_signed(d).ok_or("id delta underflows")?;
                if id != 0 {
                    *prev_id = id;
                }
                Ok(EventId(id))
            };
            let ev = match tag {
                DELTA_TAG_SEND => {
                    let node = NodeId(get_varint(bytes, &mut pos)? as u32);
                    let bits = get_varint(bytes, &mut pos)?;
                    let logical = get_varint(bytes, &mut pos)?;
                    let id = get_id(&mut pos, &mut prev_id)?;
                    let kind = get_string(bytes, &mut pos, &mut strings)?;
                    // Each cause takes at least one byte, so a count
                    // beyond the bytes left is corrupt; cap the
                    // reservation instead of trusting it.
                    let n_causes = get_varint(bytes, &mut pos)?;
                    let mut causes = Vec::with_capacity((bytes.len() - pos).min(n_causes as usize));
                    for _ in 0..n_causes {
                        let back = unzigzag(get_varint(bytes, &mut pos)?)
                            .checked_neg()
                            .ok_or("cause distance overflows")?;
                        let c = id.0.checked_add_signed(back).ok_or("cause underflows")?;
                        causes.push(EventId(c));
                    }
                    Event::Send { round, node, bits, logical, id, kind, causes }
                }
                DELTA_TAG_DELIVER => {
                    let node = NodeId(get_varint(bytes, &mut pos)? as u32);
                    let from = NodeId(get_varint(bytes, &mut pos)? as u32);
                    let bits = get_varint(bytes, &mut pos)?;
                    let id = get_id(&mut pos, &mut prev_id)?;
                    let src_code = get_varint(bytes, &mut pos)?;
                    let src = if src_code == 0 {
                        EventId::NONE
                    } else {
                        let back =
                            unzigzag(src_code - 1).checked_neg().ok_or("src distance overflows")?;
                        EventId(id.0.checked_add_signed(back).ok_or("src underflows")?)
                    };
                    Event::Deliver { round, node, from, bits, id, src }
                }
                DELTA_TAG_CRASH => {
                    Event::Crash { round, node: NodeId(get_varint(bytes, &mut pos)? as u32) }
                }
                DELTA_TAG_PHASE_ENTER => {
                    Event::PhaseEnter { round, label: get_string(bytes, &mut pos, &mut strings)? }
                }
                DELTA_TAG_PHASE_EXIT => {
                    Event::PhaseExit { round, label: get_string(bytes, &mut pos, &mut strings)? }
                }
                DELTA_TAG_DECIDE => Event::Decide {
                    round,
                    node: NodeId(get_varint(bytes, &mut pos)? as u32),
                    value: get_varint(bytes, &mut pos)?,
                },
                other => return Err(format!("unknown delta tag {other}")),
            };
            out.push(ev);
        }
        Ok(out)
    }

    /// Decodes a stream straight to the v2 JSONL text a [`JsonlSink`]
    /// would have produced for the same events — header line included,
    /// byte-for-byte.
    ///
    /// # Errors
    ///
    /// Returns a message on a truncated or corrupt stream.
    pub fn decode_to_jsonl(bytes: &[u8]) -> Result<String, String> {
        let events = Self::decode(bytes)?;
        let mut text = format!("{{\"schema\":\"ftagg-trace\",\"v\":{TRACE_SCHEMA_VERSION}}}\n");
        for e in &events {
            text.push_str(&e.to_jsonl());
            text.push('\n');
        }
        Ok(text)
    }
}

impl TraceSink for DeltaSink {
    fn record(&mut self, e: &Event) {
        self.events += 1;
        match e {
            Event::Send { round, node, bits, logical, id, kind, causes } => {
                // Hot path (interned kind, short cause list): stage the
                // whole record on the stack, append with one memcpy.
                if causes.len() <= 8 {
                    if let Some(ki) = self.intern_index(kind) {
                        let mut s = Scratch::new();
                        s.put(DELTA_TAG_SEND);
                        s.put(zigzag(*round as i64 - self.prev_round as i64));
                        self.prev_round = *round;
                        s.put(u64::from(node.0));
                        s.put(*bits);
                        s.put(*logical);
                        s.put(zigzag(id.0 as i64 - self.prev_id as i64));
                        if id.0 != 0 {
                            self.prev_id = id.0;
                        }
                        s.put(ki as u64);
                        s.put(causes.len() as u64);
                        for c in causes {
                            s.put(zigzag(id.0 as i64 - c.0 as i64));
                        }
                        self.buf.extend_from_slice(s.bytes());
                        return;
                    }
                }
                put_varint(&mut self.buf, DELTA_TAG_SEND);
                self.put_round(*round);
                put_varint(&mut self.buf, u64::from(node.0));
                put_varint(&mut self.buf, *bits);
                put_varint(&mut self.buf, *logical);
                self.put_id(*id);
                self.put_string(kind);
                put_varint(&mut self.buf, causes.len() as u64);
                for c in causes {
                    put_varint(&mut self.buf, zigzag(id.0 as i64 - c.0 as i64));
                }
            }
            Event::Deliver { round, node, from, bits, id, src } => {
                let mut s = Scratch::new();
                s.put(DELTA_TAG_DELIVER);
                s.put(zigzag(*round as i64 - self.prev_round as i64));
                self.prev_round = *round;
                s.put(u64::from(node.0));
                s.put(u64::from(from.0));
                s.put(*bits);
                s.put(zigzag(id.0 as i64 - self.prev_id as i64));
                if id.0 != 0 {
                    self.prev_id = id.0;
                }
                // src: 0 = NONE, else 1 + zigzag distance — unambiguous
                // even for adversarial id/src pairs.
                if src.is_some() {
                    s.put(1 + zigzag(id.0 as i64 - src.0 as i64));
                } else {
                    s.put(0);
                }
                self.buf.extend_from_slice(s.bytes());
            }
            Event::Crash { round, node } => {
                put_varint(&mut self.buf, DELTA_TAG_CRASH);
                self.put_round(*round);
                put_varint(&mut self.buf, u64::from(node.0));
            }
            Event::PhaseEnter { round, label } => {
                put_varint(&mut self.buf, DELTA_TAG_PHASE_ENTER);
                self.put_round(*round);
                self.put_string(label);
            }
            Event::PhaseExit { round, label } => {
                put_varint(&mut self.buf, DELTA_TAG_PHASE_EXIT);
                self.put_round(*round);
                self.put_string(label);
            }
            Event::Decide { round, node, value } => {
                put_varint(&mut self.buf, DELTA_TAG_DECIDE);
                self.put_round(*round);
                put_varint(&mut self.buf, u64::from(node.0));
                put_varint(&mut self.buf, *value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(Event::send(1, NodeId(0), 8, 1));
        t.push(Event::Crash { round: 2, node: NodeId(3) });
        t.push(Event::send(2, NodeId(1), 4, 2));
        t.push(Event::send(5, NodeId(0), 2, 1));
        t
    }

    #[test]
    fn query_by_round_and_node() {
        let t = sample();
        assert_eq!(t.events().len(), 4);
        assert_eq!(t.in_round(2).count(), 2);
        assert_eq!(t.of_node(NodeId(0)).count(), 2);
        assert_eq!(t.send_rounds(NodeId(0)), vec![1, 5]);
        assert_eq!(t.send_rounds(NodeId(3)), Vec::<Round>::new());
        assert_eq!(t.last_round(), Some(5));
        assert_eq!(Trace::new().last_round(), None);
        assert!(!t.truncated());
    }

    #[test]
    fn in_round_binary_search_matches_scan_on_multiround_trace() {
        // A multi-round trace with empty rounds, duplicate rounds, and all
        // event kinds; binary search must agree with a linear scan at every
        // round, including absent ones.
        let mut t = Trace::new();
        t.push(Event::PhaseEnter { round: 1, label: "warm".into() });
        t.push(Event::send(1, NodeId(0), 3, 1));
        t.push(Event::deliver(2, NodeId(1), NodeId(0), 3));
        t.push(Event::send(2, NodeId(1), 5, 1));
        t.push(Event::Crash { round: 4, node: NodeId(2) });
        t.push(Event::PhaseExit { round: 4, label: "warm".into() });
        t.push(Event::send(7, NodeId(0), 1, 1));
        t.push(Event::Decide { round: 7, node: NodeId(0), value: 9 });
        for round in 0..10 {
            let fast: Vec<&Event> = t.in_round(round).collect();
            let slow: Vec<&Event> = t.events().iter().filter(|e| e.round() == round).collect();
            assert_eq!(fast, slow, "round {round}");
        }
        assert_eq!(t.in_round(2).count(), 2);
        assert_eq!(t.in_round(3).count(), 0);
        assert_eq!(t.in_round(7).count(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "round order")]
    fn push_rejects_out_of_order_rounds_in_debug() {
        let mut t = Trace::new();
        t.push(Event::send(5, NodeId(0), 1, 1));
        t.push(Event::send(4, NodeId(0), 1, 1));
    }

    #[test]
    fn render_mentions_rounds_and_crashes() {
        let out = sample().render();
        assert!(out.contains("-- round 1 --"));
        assert!(out.contains("n3 CRASHED"));
        assert!(out.contains("n1 sends 2 msg(s), 4 bits"));
    }

    #[test]
    fn render_shows_message_kinds() {
        let mut t = Trace::new();
        t.push(Event::Send {
            round: 1,
            node: NodeId(0),
            bits: 7,
            logical: 1,
            id: EventId(1),
            kind: "tree-construct".into(),
            causes: Vec::new(),
        });
        assert!(t.render().contains("7 bits [tree-construct]"));
    }

    #[test]
    fn jsonl_roundtrips_every_event_kind() {
        let events = vec![
            Event::PhaseEnter { round: 1, label: "AGG \"q\"\\x".into() },
            Event::Send {
                round: 1,
                node: NodeId(0),
                bits: 8,
                logical: 2,
                id: EventId(1),
                kind: "tree-construct".into(),
                causes: Vec::new(),
            },
            Event::Deliver {
                round: 2,
                node: NodeId(1),
                from: NodeId(0),
                bits: 8,
                id: EventId(2),
                src: EventId(1),
            },
            Event::Send {
                round: 2,
                node: NodeId(1),
                bits: 4,
                logical: 1,
                id: EventId(3),
                kind: String::new(),
                causes: vec![EventId(2)],
            },
            Event::Crash { round: 3, node: NodeId(7) },
            Event::PhaseExit { round: 4, label: "AGG \"q\"\\x".into() },
            Event::Decide { round: 5, node: NodeId(0), value: u64::MAX },
        ];
        let mut sink = JsonlSink::new(Vec::new());
        for e in &events {
            sink.record(e);
        }
        assert_eq!(sink.lines(), 1 + events.len() as u64);
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("{\"schema\":\"ftagg-trace\",\"v\":2}\n"));
        let back = Trace::from_jsonl(text.as_bytes()).unwrap();
        assert_eq!(back.events(), events.as_slice());
        assert_eq!(back.max_event_id(), 3);
    }

    #[test]
    fn from_jsonl_accepts_v1_with_empty_lineage() {
        // A v1 trace (as PR 2/3 wrote them): no ids, kinds, or causes.
        let v1 = "{\"schema\":\"ftagg-trace\",\"v\":1}\n\
                  {\"ev\":\"send\",\"r\":1,\"n\":0,\"bits\":7,\"logical\":1}\n\
                  {\"ev\":\"deliver\",\"r\":2,\"n\":1,\"from\":0,\"bits\":7}\n";
        let t = Trace::from_jsonl(v1.as_bytes()).unwrap();
        assert_eq!(t.events().len(), 2);
        match &t.events()[0] {
            Event::Send { id, kind, causes, .. } => {
                assert_eq!(*id, EventId::NONE);
                assert!(kind.is_empty());
                assert!(causes.is_empty());
            }
            other => panic!("expected send, got {other:?}"),
        }
        match &t.events()[1] {
            Event::Deliver { id, src, .. } => {
                assert_eq!(*id, EventId::NONE);
                assert_eq!(*src, EventId::NONE);
            }
            other => panic!("expected deliver, got {other:?}"),
        }
    }

    #[test]
    fn from_jsonl_rejects_bad_input() {
        assert!(Trace::from_jsonl("".as_bytes()).is_err());
        assert!(Trace::from_jsonl("{\"ev\":\"send\"}\n".as_bytes()).is_err());
        let wrong_version = "{\"schema\":\"ftagg-trace\",\"v\":999}\n";
        assert!(Trace::from_jsonl(wrong_version.as_bytes()).unwrap_err().contains("v999"));
        let bad_line = "{\"schema\":\"ftagg-trace\",\"v\":2}\n{\"ev\":\"warp\",\"r\":1}\n";
        assert!(Trace::from_jsonl(bad_line.as_bytes()).unwrap_err().contains("warp"));
        let missing_field = "{\"schema\":\"ftagg-trace\",\"v\":2}\n{\"ev\":\"send\",\"r\":1}\n";
        assert!(Trace::from_jsonl(missing_field.as_bytes()).is_err());
        let bad_causes = "{\"schema\":\"ftagg-trace\",\"v\":2}\n{\"ev\":\"send\",\"r\":1,\"n\":0,\"bits\":1,\"logical\":1,\"id\":1,\"causes\":[1,x]}\n";
        assert!(Trace::from_jsonl(bad_causes.as_bytes()).unwrap_err().contains("causes"));
    }

    #[test]
    fn delta_decode_refuses_an_absurd_cause_count() {
        // A send record (tag, round, node, bits, logical, id, kind) that
        // claims 2^63 causes and ends there.
        let mut bytes = vec![0u8; 7];
        put_varint(&mut bytes, 1 << 63);
        let err = DeltaSink::decode(&bytes).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn causes_array_roundtrips_multiple_ids() {
        // Every id of a multi-entry causes array survives the round trip.
        let e = Event::Send {
            round: 3,
            node: NodeId(2),
            bits: 9,
            logical: 1,
            id: EventId(7),
            kind: "veri".into(),
            causes: vec![EventId(4), EventId(5), EventId(6)],
        };
        let line = e.to_jsonl();
        assert!(line.contains("\"causes\":[4,5,6]"));
        assert_eq!(Event::from_jsonl(&line).unwrap(), e);
    }

    #[test]
    fn absorb_shifted_offsets_rounds_and_ids() {
        let mut base = Trace::new();
        base.push(Event::Send {
            round: 1,
            node: NodeId(0),
            bits: 2,
            logical: 1,
            id: EventId(1),
            kind: String::new(),
            causes: Vec::new(),
        });
        let mut sub = Trace::new();
        sub.push(Event::Send {
            round: 1,
            node: NodeId(1),
            bits: 3,
            logical: 1,
            id: EventId(1),
            kind: String::new(),
            causes: Vec::new(),
        });
        sub.push(Event::Deliver {
            round: 2,
            node: NodeId(0),
            from: NodeId(1),
            bits: 3,
            id: EventId(2),
            src: EventId(1),
        });
        sub.push(Event::Decide { round: 2, node: NodeId(0), value: 4 });
        base.absorb_shifted(&sub, 10);
        let ev = base.events();
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[1].round(), 11);
        match &ev[2] {
            Event::Deliver { round, id, src, .. } => {
                assert_eq!(*round, 12);
                // Sub ids shifted past base's max id (1).
                assert_eq!(*id, EventId(3));
                assert_eq!(*src, EventId(2));
            }
            other => panic!("expected deliver, got {other:?}"),
        }
        assert_eq!(ev[3].round(), 12);
        assert_eq!(base.max_event_id(), 3);
        // NONE ids stay NONE; truncation is sticky.
        let mut dirty = Trace::new();
        dirty.push(Event::deliver(1, NodeId(0), NodeId(1), 1));
        dirty.set_truncated(true);
        base.absorb_shifted(&dirty, 20);
        assert!(base.truncated());
        match base.events().last().unwrap() {
            Event::Deliver { id, src, .. } => {
                assert_eq!(*id, EventId::NONE);
                assert_eq!(*src, EventId::NONE);
            }
            other => panic!("expected deliver, got {other:?}"),
        }
    }

    #[test]
    fn replay_metrics_reconstructs_counters_and_phases() {
        let mut t = Trace::new();
        t.push(Event::PhaseEnter { round: 1, label: "AGG".into() });
        t.push(Event::send(1, NodeId(0), 10, 1));
        t.push(Event::send(2, NodeId(2), 4, 2));
        t.push(Event::PhaseExit { round: 3, label: "AGG".into() });
        let m = t.replay_metrics();
        assert_eq!(m.bits_of(NodeId(0)), 10);
        assert_eq!(m.bits_of(NodeId(2)), 4);
        assert_eq!(m.max_bits(), 10);
        assert_eq!(m.total_bits(), 14);
        let phases = m.phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].label, "AGG");
        assert_eq!((phases[0].start, phases[0].end), (1, 3));
        assert_eq!(phases[0].bits, 14);
    }

    #[test]
    fn per_kind_sends_in_one_round_replay_to_the_same_totals() {
        // The engine splits a node's round broadcast into one Send per
        // kind; replayed metrics must still see the round total.
        let mut t = Trace::new();
        t.push(Event::Send {
            round: 1,
            node: NodeId(0),
            bits: 5,
            logical: 1,
            id: EventId(1),
            kind: "tree-construct".into(),
            causes: Vec::new(),
        });
        t.push(Event::Send {
            round: 1,
            node: NodeId(0),
            bits: 3,
            logical: 2,
            id: EventId(2),
            kind: "aggregate".into(),
            causes: Vec::new(),
        });
        let m = t.replay_metrics();
        assert_eq!(m.bits_of(NodeId(0)), 8);
        assert_eq!(m.sends_of(NodeId(0)), 3);
        assert_eq!(t.send_rounds(NodeId(0)), vec![1]);
    }
}
