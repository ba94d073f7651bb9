//! The synchronous round engine.
//!
//! Executes the paper's timing model exactly: protocols proceed in rounds; in
//! each round a node first receives every message its neighbors sent in the
//! previous round, performs local computation, and may locally broadcast.
//! Crashes follow the schedule in [`crate::adversary`].
//!
//! A protocol is a per-node state machine implementing [`NodeLogic`]. The
//! model says a node sends *a single message* per round; the pseudocode in
//! the paper sends several logical messages and notes they "should be
//! combined into one". The engine mirrors that: [`RoundCtx::send`] may be
//! called several times per round, all payloads travel together, and the
//! communication-complexity meter charges the sum of their encoded bit
//! lengths to the sender.
//!
//! The data layout is struct-of-arrays, built for millions of nodes:
//!
//! - **CSR inboxes**: parallel `from`/`midx` columns plus a per-node
//!   window instead of a million little `Vec`s, rebuilt in place each
//!   round by a counting-sort scatter in O(receivers + deliveries); when
//!   at least N/8 nodes got mail, one sequential pass over every node
//!   places the windows in id order instead.
//! - **Message arena**: each round's payloads live in one `Vec<M>`; a
//!   broadcast stores its message once and every recipient's inbox entry
//!   is a `u32` index into the arena — no per-message allocation, and the
//!   arena double-buffers across rounds.
//! - **Streaming per-round metrics**: every sink's
//!   [`TraceSink::end_round`] receives a [`RoundFlow`] row as each round
//!   retires, and [`Metrics::lean`] drops the per-round ledger entirely,
//!   so a million-node sweep never materializes per-round history it will
//!   not read.
//! - **Sleeping nodes**: a live node runs only in a round where its inbox
//!   is non-empty or the wake-up it declared ([`NodeLogic::next_wake`])
//!   is due. Each round walks only its visit set, in ascending id: last
//!   round's receivers, nodes due again next round, and the entries of a
//!   calendar (a heap of later wake-ups and of every crash round) that
//!   fall due. A round costs O(visited nodes + deliveries); one with an
//!   empty visit set only notes the round in the metrics and telemetry
//!   and hands every sink an empty [`RoundFlow`].
//!
//! The scatter delivers in ascending sender id, then the sender's send
//! order, because sends are recorded in node order during the round and
//! replayed in that order into each receiver's CSR window. That order is
//! the only thing protocol logic can observe of the layout.
//! `tests/engine_equivalence.rs` checks every protocol node type against
//! [`crate::testkit::Reference`], a deliberately simple second
//! implementation of the model.

use crate::adversary::{FailureSchedule, Round};
use crate::graph::{Graph, NodeId};
use crate::metrics::Metrics;
use crate::trace::{Event, EventId, TraceSink, Wants};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::time::{Duration, Instant};

/// A protocol message that knows its encoded size in bits.
///
/// The paper's communication complexity counts bits, so the engine meters
/// `bit_len` rather than message counts. Implementations should return the
/// size of the canonical wire encoding (see the `wire` crate).
pub trait Message: Clone + fmt::Debug {
    /// Encoded size of this message in bits.
    fn bit_len(&self) -> u64;

    /// Protocol-declared classification of this message ("tree-construct",
    /// "veri", …), used by the tracer to attribute communication per kind.
    /// The default, `""`, means "untagged"; the engine never interprets the
    /// string beyond grouping equal tags.
    fn kind(&self) -> &'static str {
        ""
    }
}

/// A message delivered to a node, tagged with its immediate sender.
///
/// Matching the paper: "the sender of a message always attaches its id",
/// which is how a node distinguishes a message *from its parent* from other
/// traffic.
///
/// `Received` is a borrowed **view** into the engine's delivery storage: a
/// local broadcast is one physical transmission heard by every neighbor,
/// so the payload lives once inside the engine (an arena slot) and every
/// recipient's inbox entry points at it. Field access auto-derefs through the reference, so
/// protocol code reads `rcv.msg.field` exactly as if the payload were
/// owned; clone the payload (`rcv.msg.clone()`) to keep it past the round.
#[derive(Debug)]
pub struct Received<'a, M> {
    /// The neighbor that broadcast the message in the previous round.
    pub from: NodeId,
    /// The payload, shared among all recipients of the broadcast.
    pub msg: &'a M,
}

impl<M> Clone for Received<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Received<'_, M> {}

/// One round's delivered messages, in deterministic order (ascending
/// sender id, then the sender's send order). Returned by
/// [`RoundCtx::inbox`]; iterate it (`for rcv in ctx.inbox()`) or index it
/// ([`Inbox::get`]) to obtain [`Received`] views. It is a CSR window:
/// parallel sender and arena-index columns over an arena of payloads
/// shared by all recipients.
#[derive(Debug)]
pub struct Inbox<'a, M> {
    from: &'a [NodeId],
    midx: &'a [u32],
    arena: &'a [M],
}

impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Inbox<'_, M> {}

impl<'a, M> Inbox<'a, M> {
    /// The view of deliveries `from[i]` → `arena[midx[i]]`.
    pub(crate) fn new(from: &'a [NodeId], midx: &'a [u32], arena: &'a [M]) -> Self {
        debug_assert_eq!(from.len(), midx.len());
        Inbox { from, midx, arena }
    }

    /// Number of messages delivered this round.
    pub fn len(&self) -> usize {
        self.from.len()
    }

    /// Whether nothing was delivered this round.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th delivery of this round, if any.
    pub fn get(&self, i: usize) -> Option<Received<'a, M>> {
        Some(Received { from: *self.from.get(i)?, msg: &self.arena[self.midx[i] as usize] })
    }

    /// Iterator over this round's deliveries as [`Received`] views.
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter { inbox: *self, i: 0 }
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = Received<'a, M>;
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, M> IntoIterator for &Inbox<'a, M> {
    type Item = Received<'a, M>;
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over an [`Inbox`], yielding [`Received`] views.
#[derive(Clone, Debug)]
pub struct InboxIter<'a, M> {
    inbox: Inbox<'a, M>,
    i: usize,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = Received<'a, M>;

    fn next(&mut self) -> Option<Self::Item> {
        let out = self.inbox.get(self.i)?;
        self.i += 1;
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.inbox.len().saturating_sub(self.i);
        (rest, Some(rest))
    }
}

impl<M> ExactSizeIterator for InboxIter<'_, M> {}

/// Per-round execution context handed to [`NodeLogic::on_round`].
pub struct RoundCtx<'a, M> {
    me: NodeId,
    n: usize,
    round: Round,
    inbox: Inbox<'a, M>,
    outbox: &'a mut Vec<M>,
    stop: &'a mut bool,
    /// Trace ids of this round's `Deliver` events, parallel to `inbox`
    /// (empty when tracing is off).
    delivery_ids: &'a [EventId],
    /// Causal dependencies declared for this round's broadcast.
    causes: &'a mut Vec<EventId>,
}

impl<'a, M> RoundCtx<'a, M> {
    /// Assembles a context over engine storage (the engine's and the
    /// test reference's).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        me: NodeId,
        n: usize,
        round: Round,
        inbox: Inbox<'a, M>,
        outbox: &'a mut Vec<M>,
        stop: &'a mut bool,
        delivery_ids: &'a [EventId],
        causes: &'a mut Vec<EventId>,
    ) -> Self {
        RoundCtx { me, n, round, inbox, outbox, stop, delivery_ids, causes }
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Number of nodes `N` in the system (known to the protocol per the
    /// model).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The current (1-based) global round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Messages delivered this round (sent by live neighbors last round).
    /// The returned [`Inbox`] borrows the engine, not the context, so it
    /// stays usable across [`RoundCtx::send`] calls.
    pub fn inbox(&self) -> Inbox<'a, M> {
        self.inbox
    }

    /// Queues `msg` for local broadcast at the end of this round; neighbors
    /// receive it next round. Multiple sends in one round are combined into
    /// the round's single physical broadcast; each payload's `bit_len` is
    /// charged to this node.
    pub fn send(&mut self, msg: M) {
        self.outbox.push(msg);
    }

    /// Trace id of the `Deliver` event for `self.inbox()[idx]`, or
    /// [`EventId::NONE`] when tracing is off. Protocol code passes these to
    /// [`RoundCtx::send_caused_by`] to declare causal lineage.
    pub fn delivery_id(&self, idx: usize) -> EventId {
        self.delivery_ids.get(idx).copied().unwrap_or(EventId::NONE)
    }

    /// Declares that whatever this node broadcasts *this round* causally
    /// depends on the given delivery events (ids from
    /// [`RoundCtx::delivery_id`], possibly remembered from earlier rounds).
    /// Cumulative within the round; null ids are ignored. Purely
    /// observational — without a sink this is a no-op, and a broadcast with
    /// no declared causes falls back to the conservative closure ("all
    /// deliveries this node received so far") in `netsim::causal`.
    pub fn send_caused_by(&mut self, ids: &[EventId]) {
        self.causes.extend(ids.iter().copied().filter(|id| id.is_some()));
    }

    /// Requests that the whole execution stop after this round. Used by the
    /// root when the protocol has produced its output (the paper's
    /// "terminates").
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// A per-node protocol state machine.
pub trait NodeLogic<M: Message> {
    /// Called in a round where the node is alive and either its inbox is
    /// non-empty or the wake-up it declared through
    /// [`NodeLogic::next_wake`] is due. Nodes run in node-id order.
    ///
    /// The paper's activation rule — a non-root node joins upon its first
    /// received message — is implemented by the logic itself: simply do
    /// nothing while the inbox is empty and the node is not yet activated.
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, M>);

    /// The next round after `round` in which this node must run even if
    /// its inbox is empty; `Round::MAX` means "only on mail". The engine
    /// asks once with `round = 0` before the first round and again after
    /// each [`NodeLogic::on_round`] call in `round`.
    ///
    /// A call with an empty inbox in any round before the declared one
    /// must do nothing: the engine skips it, while
    /// [`crate::testkit::Reference`] makes it, so the equivalence harness
    /// catches a wake-up declared too late. Declaring one too early costs
    /// only the call. The default, `round + 1`, runs the node in every
    /// round it is alive.
    fn next_wake(&self, round: Round) -> Round {
        round + 1
    }
}

/// Why [`Engine::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCause {
    /// A node called [`RoundCtx::stop`] (normally the root upon output).
    Requested,
    /// The round limit passed to [`Engine::run`] was reached.
    RoundLimit,
}

/// Summary of a finished execution.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Rounds actually executed.
    pub rounds: Round,
    /// Why the run ended.
    pub cause: StopCause,
}

/// Host-side performance counters of one engine.
///
/// Everything here is *about* the execution, never *part of* it: the
/// counters are pure observations (steps, deliveries, queue peaks) plus
/// wall-clock time, and nothing in the simulation reads them — so the
/// simulated outcome stays bit-identical whether anyone looks or not.
/// Wall-clock numbers are inherently machine- and load-dependent; keep
/// them out of deterministic assertions.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// Rounds stepped.
    pub rounds: u64,
    /// Logical message deliveries enqueued (one per recipient per logical
    /// message).
    pub deliveries: u64,
    /// Peak number of deliveries queued for a single round — the
    /// simulation's live-message high-water mark.
    pub peak_inflight: u64,
    /// Wall-clock time spent inside [`Engine::run`].
    pub busy: Duration,
}

/// One executed round's traffic, handed to every sink's
/// [`TraceSink::end_round`] as the round retires. The whole
/// point is that a million-node run can aggregate these without the engine
/// keeping per-round history alive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundFlow {
    /// The (1-based) round this row describes.
    pub round: Round,
    /// System-wide bits broadcast this round.
    pub bits: u64,
    /// System-wide logical messages broadcast this round.
    pub logical: u64,
    /// Deliveries enqueued by this round's broadcasts (one per recipient
    /// per logical message).
    pub deliveries: u64,
}

/// One node's deferred broadcast: a window `[lo, hi)` of this round's
/// arena, scattered to the sender's live neighbors after the node loop.
#[derive(Clone, Copy, Debug)]
struct SendRec {
    sender: u32,
    lo: u32,
    hi: u32,
}

/// The synchronous network simulator.
///
/// # Examples
///
/// A one-shot "root broadcasts, everyone re-floods once" protocol:
///
/// ```
/// use netsim::{Engine, Message, NodeLogic, RoundCtx, FailureSchedule, NodeId, topology};
///
/// #[derive(Clone, Debug)]
/// struct Ping;
/// impl Message for Ping {
///     fn bit_len(&self) -> u64 { 1 }
/// }
///
/// struct Logic { root: bool, forwarded: bool }
/// impl NodeLogic<Ping> for Logic {
///     fn on_round(&mut self, ctx: &mut RoundCtx<'_, Ping>) {
///         if self.root && ctx.round() == 1 {
///             ctx.send(Ping);
///         } else if !self.forwarded && !ctx.inbox().is_empty() {
///             self.forwarded = true;
///             ctx.send(Ping);
///         }
///     }
/// }
///
/// let g = topology::path(4);
/// let mut eng = Engine::new(g, FailureSchedule::none(), |v| Logic {
///     root: v == NodeId(0),
///     forwarded: v == NodeId(0), // the source never re-forwards its own flood
/// });
/// let report = eng.run(10);
/// assert_eq!(report.rounds, 10);
/// // Every node broadcast exactly one 1-bit message.
/// assert_eq!(eng.metrics().total_bits(), 4);
/// assert_eq!(eng.metrics().max_bits(), 1);
/// ```
pub struct Engine<M: Message, L: NodeLogic<M>> {
    graph: Graph,
    schedule: FailureSchedule,
    nodes: Vec<L>,
    /// Each node's inbox length this round: its entries in the consumed
    /// CSR columns are `in_end[i] - in_len[i]..in_end[i]`. Only last
    /// round's receivers have mail, and the walk zeroes their lengths as
    /// it reads them.
    in_len: Vec<u32>,
    /// One past the end of each node's inbox window; stale where
    /// `in_len` is 0.
    in_end: Vec<u32>,
    /// Sender column of the consumed CSR.
    cur_from: Vec<NodeId>,
    /// Arena-index column of the consumed CSR (into `cur_arena`).
    cur_midx: Vec<u32>,
    /// Producing-`Send` event ids, parallel to `cur_from`; populated only
    /// while a sink wants deliveries (empty → deliveries report
    /// [`EventId::NONE`]).
    cur_src: Vec<EventId>,
    /// Payloads of the messages consumed this round.
    cur_arena: Vec<M>,
    /// Payloads broadcast this round (consumed next round); swapped with
    /// `cur_arena` at the round boundary so allocations amortize to zero.
    pend_arena: Vec<M>,
    /// Per-message send event ids, parallel to `pend_arena` (tracing only).
    pend_src: Vec<EventId>,
    /// This round's broadcasts, in node order (= ascending sender id).
    sends: Vec<SendRec>,
    /// Scratch: this round's receivers, in the order the scatter meets
    /// them.
    receivers: Vec<u32>,
    /// Reusable outbox scratch handed to each node's [`RoundCtx`].
    outbox: Vec<M>,
    /// Each node's declared wake-up round ([`NodeLogic::next_wake`]): it
    /// runs in round `r` when `wake[i] <= r` or its inbox is non-empty.
    wake: Vec<Round>,
    /// The nodes the coming round walks: last round's receivers, nodes
    /// whose wake-up falls due and nodes whose crash round arrives.
    visit: VisitSet,
    /// The visit set the current round builds for the next one.
    visit_next: VisitSet,
    /// Wake-ups later than next round and every crash round, earliest
    /// first, as `(round, node)`. A node that re-declares its wake-up
    /// leaves its old entry behind; the walk skips it.
    calendar: BinaryHeap<Reverse<(Round, u32)>>,
    /// First round each node is dead (`Round::MAX` if it never crashes).
    crash_round: Vec<Round>,
    /// Sorted receiver restriction of each node's final broadcast, for
    /// partial crashes.
    partial_rx: Vec<Option<Vec<NodeId>>>,
    round: Round,
    metrics: Metrics,
    stop_requested: bool,
    /// Event sinks, in installation order (see [`Engine::add_sink`]).
    sinks: Vec<Box<dyn TraceSink>>,
    telemetry: Telemetry,
    /// Wall-clock starts of the open phases (innermost last); kept only
    /// while a timeline is installed, which is what reads them.
    phase_started: Vec<(String, Instant)>,
    /// Last assigned [`EventId`]; only advances while a sink is installed.
    next_event_id: u64,
    /// Scratch: trace ids of the current node's deliveries this round.
    delivery_ids: Vec<EventId>,
    /// Scratch: trace ids of the current node's outbox messages.
    send_ids: Vec<EventId>,
    /// Scratch: causal dependencies declared via
    /// [`RoundCtx::send_caused_by`] this round.
    causes: Vec<EventId>,
    /// Scratch: per-kind accumulation of one node's outbox
    /// (kind, bits, logical, event id).
    kind_acc: Vec<(&'static str, u64, u64, EventId)>,
    /// What the installed sinks read: the highest of their
    /// [`TraceSink::wants`], sampled at [`Engine::add_sink`].
    /// [`Wants::Rounds`] while no sink is installed.
    wants: Wants,
    /// Wall-clock profiler handle and lane, if installed (see
    /// [`Engine::set_timeline`]); `None` keeps the hot path at one
    /// branch per round.
    timeline: Option<(crate::timeline::Timeline, u32)>,
}

/// A set of node ids walked in ascending order: one bit per node, plus a
/// summary bit per 64-node word so a walk passes over empty words 64 at a
/// time.
struct VisitSet {
    words: Vec<u64>,
    summary: Vec<u64>,
    /// Whether any bit was set since the last walk.
    any: bool,
}

impl VisitSet {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        VisitSet { words: vec![0; words], summary: vec![0; words.div_ceil(64)], any: false }
    }

    /// Adds the nodes of `bits` in word `w` (nodes `64w..64w + 64`).
    #[inline]
    fn insert_word(&mut self, w: usize, bits: u64) {
        self.words[w] |= bits;
        self.summary[w >> 6] |= 1 << (w & 63);
        self.any = true;
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        self.insert_word(i >> 6, 1 << (i & 63));
    }
}

impl<M: Message, L: NodeLogic<M>> Engine<M, L> {
    /// Creates an engine over `graph` with the given oblivious `schedule`,
    /// instantiating each node's logic with `factory`.
    pub fn new(
        graph: Graph,
        schedule: FailureSchedule,
        mut factory: impl FnMut(NodeId) -> L,
    ) -> Self {
        let n = graph.len();
        let nodes: Vec<L> = (0..n as u32).map(|i| factory(NodeId(i))).collect();
        let wake: Vec<Round> = nodes.iter().map(|l| l.next_wake(0)).collect();
        let mut crash_round = vec![Round::MAX; n];
        let mut partial_rx: Vec<Option<Vec<NodeId>>> = vec![None; n];
        for (v, e) in schedule.iter() {
            if v.index() >= n {
                continue; // out-of-range crashes can never take effect
            }
            crash_round[v.index()] = e.round;
            partial_rx[v.index()] = e.partial.as_ref().map(|rx| {
                let mut rx = rx.clone();
                rx.sort_unstable();
                rx
            });
        }
        let mut visit = VisitSet::new(n);
        let mut calendar = Vec::new();
        for (i, (&w, &dies)) in wake.iter().zip(&crash_round).enumerate() {
            if w <= 1 {
                visit.insert(i);
            } else if w != Round::MAX {
                calendar.push(Reverse((w, i as u32)));
            }
            if dies != Round::MAX {
                // A crash at round 0 or 1 is logged in round 1.
                calendar.push(Reverse((dies.max(1), i as u32)));
            }
        }
        Engine {
            metrics: Metrics::new(n),
            in_len: vec![0; n],
            in_end: vec![0; n],
            cur_from: Vec::new(),
            cur_midx: Vec::new(),
            cur_src: Vec::new(),
            cur_arena: Vec::new(),
            pend_arena: Vec::new(),
            pend_src: Vec::new(),
            sends: Vec::new(),
            receivers: Vec::new(),
            outbox: Vec::new(),
            wake,
            visit,
            visit_next: VisitSet::new(n),
            calendar: BinaryHeap::from(calendar),
            crash_round,
            partial_rx,
            graph,
            schedule,
            nodes,
            round: 0,
            stop_requested: false,
            sinks: Vec::new(),
            telemetry: Telemetry::default(),
            phase_started: Vec::new(),
            next_event_id: 0,
            delivery_ids: Vec::new(),
            send_ids: Vec::new(),
            causes: Vec::new(),
            kind_acc: Vec::new(),
            wants: Wants::Rounds,
            timeline: None,
        }
    }

    /// Installs a wall-clock [`crate::timeline::Timeline`]: each round
    /// emits one round span plus per-stage children (inbox-scatter,
    /// absorb, send, trace-encode, telemetry) and each closed phase a
    /// phase span, all on `lane`. Purely observational — simulated
    /// outcomes, metrics, and events are bit-identical with or without
    /// a timeline; without one the engine pays a single `Option` test
    /// per round.
    pub fn set_timeline(&mut self, tl: &crate::timeline::Timeline, lane: u32) -> &mut Self {
        self.timeline = Some((tl.clone(), lane));
        self
    }

    /// Replaces the metrics with a [`Metrics::lean`] instance that skips
    /// the per-round ledger (per-node totals and CC stay exact); call
    /// before the first step. A sink's [`TraceSink::end_round`] still
    /// sees every round's row, just not materialized.
    pub fn use_lean_metrics(&mut self) -> &mut Self {
        self.metrics = Metrics::lean(self.graph.len());
        self
    }

    /// Adds an event sink (an in-memory [`crate::trace::Trace`], a
    /// [`crate::trace::JsonlSink`], a flight recorder, a watchdog, or any
    /// custom [`TraceSink`]); call before the first step.
    /// Every event and every retired round goes to every sink, in
    /// installation order. To read a sink after the run, install a clone
    /// of an `Rc<RefCell<_>>` handle and keep the handle (see
    /// [`TraceSink`]).
    pub fn add_sink(&mut self, sink: Box<dyn TraceSink>) -> &mut Self {
        // The level is sampled once per installation: at N = 2²⁰
        // deliveries dominate event volume, and when no sink wants them
        // (e.g. a lone flight recorder) the engine skips building them —
        // and the src-id column — entirely; a sink that reads only
        // rounds turns on no send event either.
        self.wants = self.wants.max(sink.wants());
        self.sinks.push(sink);
        self
    }

    /// Feeds a harness-level event (phase markers, decisions) to the
    /// installed sinks, if any. Events must respect round order:
    /// `e.round()` may not precede the engine's current round.
    pub fn annotate(&mut self, e: Event) {
        debug_assert!(e.round() >= self.round, "annotation would violate round order");
        record_all(&mut self.sinks, &e);
    }

    /// Opens a phase on this engine's [`Metrics`] starting at the next
    /// round, mirroring [`Event::PhaseEnter`] to the sinks. Returns the
    /// phase's start round.
    pub fn enter_phase(&mut self, label: &str) -> Round {
        let start = self.metrics.enter_phase(label);
        if self.timeline.is_some() {
            self.phase_started.push((label.to_string(), Instant::now()));
        }
        self.annotate(Event::PhaseEnter { round: start, label: label.to_string() });
        start
    }

    /// Closes the innermost open phase at the current round, mirroring
    /// [`Event::PhaseExit`] to the sinks.
    pub fn exit_phase(&mut self) -> Option<(String, Round)> {
        let round = self.round;
        let (label, end) = self.metrics.exit_phase_at(round)?;
        if let Some((tl, lane)) = &self.timeline {
            if let Some((started_label, t0)) = self.phase_started.pop() {
                let dur = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                tl.record_span(
                    crate::timeline::SpanKind::Phase,
                    &started_label,
                    *lane,
                    tl.ns_of(t0),
                    dur,
                    None,
                );
            }
        }
        self.annotate(Event::PhaseExit { round: end, label: label.clone() });
        Some((label, end))
    }

    /// Host-side performance counters accumulated so far.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The failure schedule.
    pub fn schedule(&self) -> &FailureSchedule {
        &self.schedule
    }

    /// Communication metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The last executed round (0 before the first step).
    pub fn round(&self) -> Round {
        self.round
    }

    /// Immutable access to a node's logic (e.g. to read the root's output
    /// after the run).
    pub fn node(&self, v: NodeId) -> &L {
        &self.nodes[v.index()]
    }

    /// Executes one round. Returns `false` once a stop has been requested
    /// (further calls do nothing).
    pub fn step(&mut self) -> bool {
        if self.stop_requested {
            return false;
        }
        let r = self.round + 1;
        let mut clock = self.timeline.as_ref().map(|(t, _)| t.round_clock());
        self.metrics.note_round(r);
        self.telemetry.rounds += 1;
        // Wake-ups and crashes that fall due now join the visit set.
        while let Some(&Reverse((at, v))) = self.calendar.peek() {
            if at > r {
                break;
            }
            self.calendar.pop();
            self.visit.insert(v as usize);
        }
        // With no mail, no due wake-up and no crash, no node runs and
        // nothing is sent: the round is empty.
        let flow = if self.visit.any {
            self.work(r, &mut clock)
        } else {
            RoundFlow { round: r, ..RoundFlow::default() }
        };
        self.telemetry.deliveries += flow.deliveries;
        self.telemetry.peak_inflight = self.telemetry.peak_inflight.max(flow.deliveries);
        for s in self.sinks.iter_mut() {
            s.end_round(&flow);
        }
        if let Some(mut c) = clock {
            c.mark(crate::timeline::STAGE_TELEMETRY);
            if let Some((tl, lane)) = self.timeline.as_ref() {
                tl.push_round(r, *lane, c);
            }
        }
        self.round = r;
        true
    }

    /// Round `r`'s walk and inbox scatter: walks the visit set in
    /// ascending id, logging the crashes that fall due and running every
    /// live node that has mail or a due wake-up, then builds next round's
    /// inboxes and visit set. Returns the round's traffic.
    fn work(&mut self, r: Round, clock: &mut Option<crate::timeline::RoundClock>) -> RoundFlow {
        let n = self.graph.len();
        let mut stop = false;
        let Engine {
            graph,
            nodes,
            in_len,
            in_end,
            cur_from,
            cur_midx,
            cur_src,
            cur_arena,
            pend_arena,
            pend_src,
            sends,
            receivers,
            outbox,
            wake,
            visit,
            visit_next,
            calendar,
            crash_round,
            partial_rx,
            metrics,
            sinks,
            next_event_id,
            delivery_ids,
            send_ids,
            causes,
            kind_acc,
            wants,
            ..
        } = self;
        // `observed` gates the send events and their ids; `tracing` gates
        // only the per-delivery work (Deliver events and the src-id
        // column), so sends still reach sinks that all declined
        // deliveries.
        let observed = *wants >= Wants::Events;
        let tracing = *wants >= Wants::Deliveries;
        // Stage attribution granularity: with an event sink installed the
        // loop already pays per-event encoding costs, so per-node clock
        // reads (2–3 per live node) disappear into them and buy exact
        // trace/absorb/send splits. Without one the whole node loop is
        // charged to `absorb` in one read — per-node reads would
        // dominate idle nodes at N = 2²⁰ and sink the <5% overhead
        // budget.
        let fine = clock.is_some() && observed;
        sends.clear();
        pend_arena.clear();
        pend_src.clear();
        if let Some(c) = clock.as_mut() {
            c.mark(crate::timeline::STAGE_SCATTER);
        }
        let mut round_bits: u64 = 0;
        let mut round_logical: u64 = 0;
        visit.any = false;
        for si in 0..visit.summary.len() {
            let mut summary = std::mem::take(&mut visit.summary[si]);
            while summary != 0 {
                let wi = si * 64 + summary.trailing_zeros() as usize;
                summary &= summary - 1;
                let mut bits = std::mem::take(&mut visit.words[wi]);
                // This word's nodes that are due again next round.
                let mut again = 0u64;
                while bits != 0 {
                    let bit = bits & bits.wrapping_neg();
                    bits ^= bit;
                    let i = wi * 64 + bit.trailing_zeros() as usize;
                    let me = NodeId(i as u32);
                    let dies = crash_round[i];
                    if r >= dies {
                        // The calendar visits a dead node in its crash
                        // round; a stale entry may visit it again later.
                        if r == dies.max(1) {
                            record_all(sinks, &Event::Crash { round: r, node: me });
                        }
                        continue;
                    }
                    let len = in_len[i];
                    let (lo, hi) = if len == 0 {
                        if wake[i] > r {
                            continue; // a stale calendar entry
                        }
                        (0, 0)
                    } else {
                        in_len[i] = 0;
                        ((in_end[i] - len) as usize, in_end[i] as usize)
                    };
                    delivery_ids.clear();
                    if tracing {
                        // Deliveries are logged when the node consumes its
                        // inbox (this round), keeping the event log
                        // round-ordered. Each gets a fresh id and points
                        // back at the producing send.
                        for j in lo..hi {
                            *next_event_id += 1;
                            let id = EventId(*next_event_id);
                            delivery_ids.push(id);
                            let e = Event::Deliver {
                                round: r,
                                node: me,
                                from: cur_from[j],
                                bits: cur_arena[cur_midx[j] as usize].bit_len(),
                                id,
                                // NONE for deliveries enqueued before the
                                // sink was installed (src column left
                                // empty).
                                src: cur_src.get(j).copied().unwrap_or(EventId::NONE),
                            };
                            record_all(sinks, &e);
                        }
                        if fine {
                            if let Some(c) = clock.as_mut() {
                                c.mark(crate::timeline::STAGE_TRACE);
                            }
                        }
                    }
                    outbox.clear();
                    causes.clear();
                    {
                        let mut ctx = RoundCtx::assemble(
                            me,
                            n,
                            r,
                            Inbox::new(&cur_from[lo..hi], &cur_midx[lo..hi], cur_arena),
                            &mut *outbox,
                            &mut stop,
                            &*delivery_ids,
                            &mut *causes,
                        );
                        nodes[i].on_round(&mut ctx);
                    }
                    // Any stored round <= r + 1 means "due next round", so
                    // a node that keeps the default (`r + 1`) never
                    // rewrites its entry. A later wake-up goes into the
                    // calendar, unless it is the one already there.
                    let w = nodes[i].next_wake(r);
                    if w <= r + 1 {
                        again |= bit;
                        if wake[i] > r + 1 {
                            wake[i] = w;
                        }
                    } else if w != wake[i] {
                        wake[i] = w;
                        if w != Round::MAX {
                            calendar.push(Reverse((w, i as u32)));
                        }
                    }
                    if fine {
                        if let Some(c) = clock.as_mut() {
                            c.mark(crate::timeline::STAGE_ABSORB);
                        }
                    }
                    if outbox.is_empty() {
                        continue;
                    }
                    let bits: u64 = outbox.iter().map(Message::bit_len).sum();
                    metrics.record_send(me, r, bits, outbox.len() as u64);
                    round_bits += bits;
                    round_logical += outbox.len() as u64;
                    send_ids.clear();
                    if observed {
                        // Group the outbox by message kind and emit one
                        // Send event per kind, so per-kind bits partition
                        // the node's round total exactly (the metrics
                        // above still see one combined broadcast).
                        // Outboxes hold a handful of kinds at most, so a
                        // linear scan beats hashing.
                        kind_acc.clear();
                        for m in outbox.iter() {
                            let k = m.kind();
                            let slot = match kind_acc.iter().position(|g| g.0 == k) {
                                Some(p) => p,
                                None => {
                                    *next_event_id += 1;
                                    kind_acc.push((k, 0, 0, EventId(*next_event_id)));
                                    kind_acc.len() - 1
                                }
                            };
                            kind_acc[slot].1 += m.bit_len();
                            kind_acc[slot].2 += 1;
                            if tracing {
                                // The per-message id column only feeds the
                                // delivery-side src pointers, which a deaf
                                // sink never sees.
                                send_ids.push(kind_acc[slot].3);
                            }
                        }
                        for &(k, kind_bits, logical, id) in kind_acc.iter() {
                            let e = Event::Send {
                                round: r,
                                node: me,
                                bits: kind_bits,
                                logical,
                                id,
                                kind: k.to_string(),
                                causes: causes.clone(),
                            };
                            record_all(sinks, &e);
                        }
                    }
                    // Defer delivery: move the outbox into the round arena
                    // and remember the window; the scatter below gives
                    // each receiver ascending senders, each in send order.
                    let win_lo = pend_arena.len() as u32;
                    pend_arena.append(outbox);
                    let win_hi = pend_arena.len() as u32;
                    if tracing {
                        for mi in 0..(win_hi - win_lo) as usize {
                            pend_src.push(send_ids.get(mi).copied().unwrap_or(EventId::NONE));
                        }
                    }
                    sends.push(SendRec { sender: i as u32, lo: win_lo, hi: win_hi });
                    if fine {
                        if let Some(c) = clock.as_mut() {
                            c.mark(crate::timeline::STAGE_SEND);
                        }
                    }
                }
                if again != 0 {
                    visit_next.insert_word(wi, again);
                }
            }
        }
        if !fine {
            if let Some(c) = clock.as_mut() {
                c.mark(crate::timeline::STAGE_ABSORB);
            }
        }
        // ---- Delivery build: a counting-sort scatter into the (now
        // dead) consumed CSR, in O(receivers + deliveries) when few nodes
        // get mail. The walk zeroed every length it read, so every
        // `in_len` is 0 here.
        let mut enqueued: u64 = 0;
        cur_from.clear();
        cur_midx.clear();
        cur_src.clear();
        receivers.clear();
        if !sends.is_empty() {
            // From this many receivers on, the windows are placed by one
            // pass over every node, and the receiver list is not needed.
            let dense = n / 8;
            // Pass 1: how many entries each receiver gets. A sender
            // crashing exactly at r + 1 may have its final broadcast
            // restricted to a subset, and dead receivers hear nothing.
            for s in sends.iter() {
                let si = s.sender as usize;
                let msgs = s.hi - s.lo;
                let restriction: Option<&[NodeId]> =
                    if crash_round[si] == r + 1 { partial_rx[si].as_deref() } else { None };
                for &w in graph.neighbors(NodeId(s.sender)) {
                    if r + 1 >= crash_round[w.index()] {
                        continue;
                    }
                    if let Some(rx) = restriction {
                        if rx.binary_search(&w).is_err() {
                            continue;
                        }
                    }
                    let len = &mut in_len[w.index()];
                    if *len == 0 && receivers.len() < dense {
                        receivers.push(w.0);
                    }
                    *len += msgs;
                    enqueued += u64::from(msgs);
                }
            }
            // Place the windows: each `in_end` takes its window's start
            // and becomes pass 2's write cursor. With many receivers one
            // sequential pass over every node keeps the windows in id
            // order, which the walk reads in; otherwise only the
            // receivers are placed, in the order pass 1 met them.
            let mut total: u32 = 0;
            let mut place = |i: usize| {
                in_end[i] = total;
                total = total
                    .checked_add(in_len[i])
                    .expect("round delivery volume exceeds u32 CSR capacity");
            };
            if receivers.len() >= dense {
                for wi in 0..n.div_ceil(64) {
                    let mut mail = 0u64;
                    #[allow(clippy::needless_range_loop)] // `place` borrows both columns
                    for i in wi * 64..n.min(wi * 64 + 64) {
                        mail |= u64::from(in_len[i] != 0) << (i & 63);
                        place(i);
                    }
                    if mail != 0 {
                        visit_next.insert_word(wi, mail);
                    }
                }
            } else {
                for &w in receivers.iter() {
                    place(w as usize);
                    visit_next.insert(w as usize);
                }
            }
            let total = total as usize;
            cur_from.resize(total, NodeId(0));
            cur_midx.resize(total, 0);
            if tracing {
                cur_src.resize(total, EventId::NONE);
            }
            // Pass 2: scatter. Senders are visited in ascending id order
            // and each window in send order, so every receiver's slice
            // comes out in delivery order, and its cursor ends at the
            // window's end.
            for s in sends.iter() {
                let si = s.sender as usize;
                let restriction: Option<&[NodeId]> =
                    if crash_round[si] == r + 1 { partial_rx[si].as_deref() } else { None };
                for &w in graph.neighbors(NodeId(s.sender)) {
                    if r + 1 >= crash_round[w.index()] {
                        continue;
                    }
                    if let Some(rx) = restriction {
                        if rx.binary_search(&w).is_err() {
                            continue;
                        }
                    }
                    let wi = w.index();
                    let mut pos = in_end[wi] as usize;
                    for mi in s.lo..s.hi {
                        cur_from[pos] = NodeId(s.sender);
                        cur_midx[pos] = mi;
                        if tracing {
                            cur_src[pos] = pend_src[mi as usize];
                        }
                        pos += 1;
                    }
                    in_end[wi] = pos as u32;
                }
            }
        }
        // The round's payloads become next round's arena; the old arena's
        // allocation is recycled for the round after.
        std::mem::swap(cur_arena, pend_arena);
        std::mem::swap(visit, visit_next);
        if let Some(c) = clock.as_mut() {
            c.mark(crate::timeline::STAGE_SCATTER);
        }
        if stop {
            self.stop_requested = true;
        }
        RoundFlow { round: r, bits: round_bits, logical: round_logical, deliveries: enqueued }
    }

    /// Runs until a stop is requested or `max_rounds` rounds have executed.
    pub fn run(&mut self, max_rounds: Round) -> RunReport {
        let t0 = Instant::now();
        let report = loop {
            if self.round >= max_rounds {
                break RunReport { rounds: self.round, cause: StopCause::RoundLimit };
            }
            self.step();
            if self.stop_requested {
                break RunReport { rounds: self.round, cause: StopCause::Requested };
            }
        };
        self.telemetry.busy += t0.elapsed();
        report
    }

    /// Nodes that are alive at round `round` *and* connected to `root` in
    /// the residual graph — the support of the paper's surviving input set
    /// `s1` (nodes partitioned from the root count as failed).
    pub fn alive_connected(&self, root: NodeId, round: Round) -> Vec<NodeId> {
        let dead = self.schedule.dead_by(round);
        self.graph.reachable_from(root, &dead)
    }
}

/// Hands `e` to every sink, in installation order.
fn record_all(sinks: &mut [Box<dyn TraceSink>], e: &Event) {
    for s in sinks {
        s.record(e);
    }
}

/// The engine under its former name, `netsim::SoaEngine`, which the
/// benchmark in `perfbench/` builds against.
pub type SoaEngine<M, L> = Engine<M, L>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[derive(Clone, Debug)]
    struct Blob(u64);
    impl Message for Blob {
        fn bit_len(&self) -> u64 {
            self.0
        }
    }

    /// Broadcasts `sizes[r-1]` bits in round r until exhausted; remembers
    /// everything received.
    struct Chatter {
        sizes: Vec<u64>,
        heard: Vec<(Round, NodeId, u64)>,
        stop_at: Option<Round>,
    }

    impl NodeLogic<Blob> for Chatter {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Blob>) {
            for r in ctx.inbox() {
                self.heard.push((ctx.round(), r.from, r.msg.0));
            }
            let idx = (ctx.round() - 1) as usize;
            if let Some(&s) = self.sizes.get(idx) {
                if s > 0 {
                    ctx.send(Blob(s));
                }
            }
            if self.stop_at == Some(ctx.round()) {
                ctx.stop();
            }
        }
    }

    fn quiet() -> Chatter {
        Chatter { sizes: vec![], heard: vec![], stop_at: None }
    }

    #[test]
    fn delivery_is_next_round_neighbors_only() {
        let g = topology::path(3);
        let mut eng = Engine::new(g, FailureSchedule::none(), |v| {
            if v == NodeId(0) {
                Chatter { sizes: vec![7], heard: vec![], stop_at: None }
            } else {
                quiet()
            }
        });
        eng.run(3);
        // Node 1 (neighbor) hears it in round 2; node 2 never does.
        assert_eq!(eng.node(NodeId(1)).heard, vec![(2, NodeId(0), 7)]);
        assert!(eng.node(NodeId(2)).heard.is_empty());
    }

    #[test]
    fn bits_metered_per_logical_message() {
        let g = topology::path(2);
        let mut eng = Engine::new(g, FailureSchedule::none(), |v| {
            if v == NodeId(0) {
                Chatter { sizes: vec![3, 5], heard: vec![], stop_at: None }
            } else {
                quiet()
            }
        });
        eng.run(4);
        assert_eq!(eng.metrics().bits_of(NodeId(0)), 8);
        assert_eq!(eng.metrics().bits_of(NodeId(1)), 0);
        assert_eq!(eng.metrics().max_bits(), 8);
    }

    #[test]
    fn dead_nodes_do_not_execute_or_receive() {
        let g = topology::path(3);
        let mut schedule = FailureSchedule::none();
        schedule.crash(NodeId(1), 2); // alive only in round 1
        let mut eng = Engine::new(g, schedule, |_v| Chatter {
            sizes: vec![1, 1, 1],
            heard: vec![],
            stop_at: None,
        });
        let _ = v_run(&mut eng, 4);
        // Node 1 sent only in round 1.
        assert_eq!(eng.metrics().bits_of(NodeId(1)), 1);
        // Node 0 heard node 1's round-1 send in round 2 and nothing after.
        assert_eq!(eng.node(NodeId(0)).heard, vec![(2, NodeId(1), 1)]);
        // Node 1 heard nothing: it died before any delivery (round 2).
        assert!(eng.node(NodeId(1)).heard.is_empty());
    }

    fn v_run(eng: &mut Engine<Blob, Chatter>, r: Round) -> RunReport {
        eng.run(r)
    }

    #[test]
    fn final_broadcast_delivered_on_clean_crash() {
        // Node 1 crashes at round 2: its round-1 broadcast still arrives.
        let g = topology::path(3);
        let mut schedule = FailureSchedule::none();
        schedule.crash(NodeId(1), 2);
        let mut eng =
            Engine::new(g, schedule, |_| Chatter { sizes: vec![9], heard: vec![], stop_at: None });
        eng.run(3);
        assert_eq!(eng.node(NodeId(0)).heard, vec![(2, NodeId(1), 9)]);
        assert_eq!(eng.node(NodeId(2)).heard, vec![(2, NodeId(1), 9)]);
    }

    #[test]
    fn partial_crash_restricts_final_broadcast() {
        let g = topology::path(3);
        let mut schedule = FailureSchedule::none();
        schedule.crash_partial(NodeId(1), 2, vec![NodeId(2)]);
        let mut eng =
            Engine::new(g, schedule, |_| Chatter { sizes: vec![9], heard: vec![], stop_at: None });
        eng.run(3);
        // Node 0 misses the final broadcast; node 2 gets it.
        assert!(eng.node(NodeId(0)).heard.is_empty());
        assert_eq!(eng.node(NodeId(2)).heard, vec![(2, NodeId(1), 9)]);
    }

    #[test]
    fn stop_request_halts_run() {
        let g = topology::path(2);
        let mut eng = Engine::new(g, FailureSchedule::none(), |v| Chatter {
            sizes: vec![1; 100],
            heard: vec![],
            stop_at: if v == NodeId(0) { Some(5) } else { None },
        });
        let report = eng.run(100);
        assert_eq!(report.rounds, 5);
        assert_eq!(report.cause, StopCause::Requested);
        // Subsequent steps are no-ops.
        assert!(!eng.step());
        assert_eq!(eng.round(), 5);
    }

    #[test]
    fn round_limit_reported() {
        let g = topology::path(2);
        let mut eng = Engine::new(g, FailureSchedule::none(), |_| quiet());
        let report = eng.run(7);
        assert_eq!(report.rounds, 7);
        assert_eq!(report.cause, StopCause::RoundLimit);
    }

    #[test]
    fn alive_connected_accounts_for_partition() {
        let g = topology::path(4);
        let mut schedule = FailureSchedule::none();
        schedule.crash(NodeId(1), 3);
        let eng = Engine::new(g, schedule, |_| quiet());
        assert_eq!(
            eng.alive_connected(NodeId(0), 2),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        // After the crash, 2 and 3 are partitioned from the root.
        assert_eq!(eng.alive_connected(NodeId(0), 3), vec![NodeId(0)]);
    }

    #[test]
    fn telemetry_counts_rounds_deliveries_and_peaks() {
        // A 3-path where everyone talks for 2 rounds: round 2 and round 3
        // each enqueue deliveries; the middle node doubles the fan-out.
        let g = topology::path(3);
        let mut eng = Engine::new(g, FailureSchedule::none(), |_| Chatter {
            sizes: vec![1, 1],
            heard: vec![],
            stop_at: None,
        });
        eng.enter_phase("talk");
        eng.run(4);
        eng.exit_phase();
        let t = eng.telemetry().clone();
        assert_eq!(t.rounds, 4);
        // Rounds 1 and 2: ends reach 1 neighbor each, middle reaches 2 → 4
        // deliveries enqueued per talking round.
        assert_eq!(t.deliveries, 8);
        assert_eq!(t.peak_inflight, 4);
        // Wall-clock figures exist but are never asserted for magnitude.
        assert!(t.busy >= std::time::Duration::ZERO);
    }

    #[test]
    fn multiple_sends_combined_one_round() {
        #[derive(Clone, Debug)]
        struct Two;
        impl Message for Two {
            fn bit_len(&self) -> u64 {
                2
            }
        }
        struct Multi;
        impl NodeLogic<Two> for Multi {
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, Two>) {
                if ctx.round() == 1 && ctx.me() == NodeId(0) {
                    ctx.send(Two);
                    ctx.send(Two);
                    ctx.send(Two);
                }
            }
        }
        let g = topology::path(2);
        let mut eng = Engine::new(g, FailureSchedule::none(), |_| Multi);
        eng.run(2);
        assert_eq!(eng.metrics().bits_of(NodeId(0)), 6);
        assert_eq!(eng.metrics().sends_of(NodeId(0)), 3);
    }

    #[test]
    fn a_round_only_sink_leaves_the_event_path_cold() {
        use crate::telemetry::RoundStats;
        use std::{cell::RefCell, rc::Rc};
        let mut eng = Engine::new(topology::path(3), FailureSchedule::none(), |_| Chatter {
            sizes: vec![8, 8],
            heard: vec![],
            stop_at: None,
        });
        let stats = Rc::new(RefCell::new(RoundStats::new()));
        eng.add_sink(Box::new(Rc::clone(&stats)));
        eng.run(4);
        // A send or delivery event takes an id when it is built: none was.
        assert_eq!(eng.wants, Wants::Rounds);
        assert_eq!(eng.next_event_id, 0, "a round-only sink builds no send or delivery event");
        // `end_round` fired once per round, and the stats agree with the
        // engine's own meters and the non-lean per-round ledger. Rounds 1
        // and 2: all 3 nodes send one 8-bit message; ends reach 1
        // neighbor, the middle reaches 2 → 4 deliveries per talking round.
        let (s, t, m) = (stats.borrow(), eng.telemetry(), eng.metrics());
        assert_eq!((s.rounds, s.bits, s.logical, s.deliveries), (4, 48, 6, 8));
        assert_eq!(
            (s.rounds, s.deliveries, s.inflight_peak),
            (t.rounds, t.deliveries, t.peak_inflight)
        );
        assert_eq!(s.bits, (1..=4).map(|r| m.bits_in_round(r)).sum::<u64>());
        assert_eq!(s.logical, (0..3).map(|v| m.sends_of(NodeId(v))).sum::<u64>());
        assert_eq!((s.round_bits.samples(), s.round_bits.max(), s.inflight_last), (4, 24, 0));
    }

    #[test]
    fn a_watchdog_builds_no_delivery_alone_and_audits_them_beside_a_trace() {
        use crate::monitor::{MonitorConfig, Watchdog};
        use crate::trace::Trace;
        use std::{cell::RefCell, rc::Rc};
        // Rounds 1 and 2 bring 6 sends and 8 deliveries. Alone, the
        // watchdog has the engine build the sends and no delivery; a
        // trace beside it has the engine build the deliveries too, and
        // the watchdog audits every one.
        for (trace, wants, delivers) in [(false, Wants::Events, 0), (true, Wants::Deliveries, 8)] {
            let mut eng = Engine::new(topology::path(3), FailureSchedule::none(), |_| Chatter {
                sizes: vec![8, 8],
                heard: vec![],
                stop_at: None,
            });
            if trace {
                eng.add_sink(Box::new(Trace::new()));
            }
            let watchdog = Rc::new(RefCell::new(Watchdog::new(MonitorConfig::new(3))));
            eng.add_sink(Box::new(Rc::clone(&watchdog)));
            eng.run(4);
            assert_eq!(eng.wants, wants);
            assert_eq!(eng.next_event_id, 6 + delivers, "one id per event built");
            let report = watchdog.borrow_mut().finish();
            assert!(report.is_clean(), "{}", report.render());
            assert_eq!((report.sends, report.delivers), (6, delivers));
        }
    }

    #[test]
    fn lean_metrics_keep_totals_but_skip_the_ledger() {
        let mut eng = Engine::new(topology::path(3), FailureSchedule::none(), |_| Chatter {
            sizes: vec![8, 8],
            heard: vec![],
            stop_at: None,
        });
        eng.use_lean_metrics();
        eng.run(4);
        assert!(eng.metrics().is_lean());
        assert_eq!(eng.metrics().total_bits(), 6 * 8);
        assert_eq!(eng.metrics().max_bits(), 16);
        // The per-round ledger was never materialized.
        assert_eq!(eng.metrics().bits_in_round(1), 0);
    }

    /// Logs the rounds it runs in; broadcasts in the rounds of `send_at`
    /// and, if `relay`, on its first mail. `wakes: None` keeps the default
    /// wake-up, every round; `Some(rounds)` declares exactly those.
    struct Sleeper {
        wakes: Option<Vec<Round>>,
        send_at: Vec<Round>,
        relay: bool,
        calls: Vec<Round>,
    }

    impl NodeLogic<Blob> for Sleeper {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Blob>) {
            self.calls.push(ctx.round());
            let relay = self.relay && !ctx.inbox().is_empty();
            if relay || self.send_at.contains(&ctx.round()) {
                ctx.send(Blob(1));
            }
            self.relay &= !relay;
        }

        fn next_wake(&self, round: Round) -> Round {
            match &self.wakes {
                None => round + 1,
                Some(w) => w.iter().copied().find(|&x| x > round).unwrap_or(Round::MAX),
            }
        }
    }

    fn sleeper(wakes: &[Round], send_at: &[Round], relay: bool) -> Sleeper {
        Sleeper { wakes: Some(wakes.to_vec()), send_at: send_at.to_vec(), relay, calls: vec![] }
    }

    #[test]
    fn a_sleeping_node_runs_only_on_mail_or_a_due_wake_up() {
        // Path 0 - 1 - 2 - 3. Node 0 wakes at 3 and 7 and sends at 3;
        // node 1 relays its first mail; node 2 declares nothing; node 3
        // keeps the default.
        let mut eng = Engine::new(topology::path(4), FailureSchedule::none(), |v| match v.0 {
            0 => sleeper(&[3, 7], &[3], false),
            1 => sleeper(&[], &[], true),
            2 => sleeper(&[], &[], false),
            _ => Sleeper { wakes: None, send_at: vec![], relay: false, calls: vec![] },
        });
        eng.run(10);
        // 0's round-3 send reaches 1 in round 4; 1's relay reaches 0 and
        // 2 in round 5. Node 2 never sends, so node 3 hears nothing.
        assert_eq!(eng.node(NodeId(0)).calls, vec![3, 5, 7]);
        assert_eq!(eng.node(NodeId(1)).calls, vec![4]);
        assert_eq!(eng.node(NodeId(2)).calls, vec![5]);
        assert_eq!(eng.node(NodeId(3)).calls, (1..=10).collect::<Vec<_>>());
        assert_eq!(eng.metrics().total_bits(), 2);
    }

    #[test]
    fn empty_rounds_still_reach_every_round_sink() {
        use crate::telemetry::RoundStats;
        use std::{cell::RefCell, rc::Rc};
        // Only node 0 ever runs, in round 2; every other round is empty.
        let mut eng = Engine::new(topology::path(3), FailureSchedule::none(), |v| {
            if v == NodeId(0) {
                sleeper(&[2], &[2], false)
            } else {
                sleeper(&[], &[], false)
            }
        });
        let stats = Rc::new(RefCell::new(RoundStats::new()));
        eng.add_sink(Box::new(Rc::clone(&stats)));
        eng.run(20);
        let s = stats.borrow();
        assert_eq!(s.rounds, eng.round());
        assert_eq!(s.rounds, eng.telemetry().rounds);
        assert_eq!((s.rounds, s.bits, s.deliveries), (20, 1, 1));
        assert_eq!(eng.metrics().current_round(), 20);
        assert_eq!(eng.node(NodeId(1)).calls, vec![3], "mail alone wakes a sleeper");
    }

    #[test]
    fn a_crash_in_an_empty_round_is_logged_in_that_round() {
        use crate::trace::Trace;
        use std::{cell::RefCell, rc::Rc};
        let mut schedule = FailureSchedule::none();
        schedule.crash(NodeId(1), 6);
        let mut eng = Engine::new(topology::path(3), schedule, |_| sleeper(&[], &[], false));
        let trace = Rc::new(RefCell::new(Trace::new()));
        eng.add_sink(Box::new(Rc::clone(&trace)));
        eng.run(10);
        assert_eq!(trace.borrow().events(), &[Event::Crash { round: 6, node: NodeId(1) }]);
        assert!((0..3).all(|v| eng.node(NodeId(v)).calls.is_empty()), "nobody ran");
    }

    #[test]
    fn a_far_wake_up_runs_once_after_thousands_of_empty_rounds() {
        // Node 0 runs in round 1 and declares round 10,000: rounds 2 to
        // 9,999 are empty, and its send in round 10,000 wakes node 1.
        let mut eng = Engine::new(topology::path(2), FailureSchedule::none(), |v| match v.0 {
            0 => sleeper(&[1, 10_000], &[10_000], false),
            _ => sleeper(&[], &[], false),
        });
        eng.run(10_005);
        assert_eq!(eng.node(NodeId(0)).calls, vec![1, 10_000]);
        assert_eq!(eng.node(NodeId(1)).calls, vec![10_001]);
        assert_eq!((eng.round(), eng.telemetry().rounds), (10_005, 10_005));
    }

    #[test]
    fn a_crash_due_while_nothing_else_is_due_is_logged_in_its_round() {
        use crate::trace::Trace;
        use std::{cell::RefCell, rc::Rc};
        // Path 0 - 1 - 2. Node 0 wakes in rounds 2 and 9. Node 1 crashes
        // cleanly in round 6, when no wake-up or mail is due. Node 2
        // declared round 8 but crashes in round 5, so its wake-up
        // outlives it.
        let mut schedule = FailureSchedule::none();
        schedule.crash(NodeId(1), 6).crash(NodeId(2), 5);
        let mut eng = Engine::new(topology::path(3), schedule, |v| match v.0 {
            0 => sleeper(&[2, 9], &[], false),
            1 => sleeper(&[], &[], false),
            _ => sleeper(&[8], &[], false),
        });
        let trace = Rc::new(RefCell::new(Trace::new()));
        eng.add_sink(Box::new(Rc::clone(&trace)));
        eng.run(10);
        assert_eq!(
            trace.borrow().events(),
            &[
                Event::Crash { round: 5, node: NodeId(2) },
                Event::Crash { round: 6, node: NodeId(1) }
            ]
        );
        assert_eq!(eng.node(NodeId(0)).calls, vec![2, 9]);
        assert!((1..3).all(|v| eng.node(NodeId(v)).calls.is_empty()), "the dead never ran");
    }

    /// Runs on mail or on the wake-ups of a script: declares `first`
    /// before round 1 and, after running in round r, the round `script`
    /// pairs with r (none: only on mail). Sends in the rounds of
    /// `send_at` and logs (round, inbox length) of each call.
    struct Scripted {
        first: Round,
        script: Vec<(Round, Round)>,
        send_at: Vec<Round>,
        calls: Vec<(Round, usize)>,
    }

    impl NodeLogic<Blob> for Scripted {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Blob>) {
            self.calls.push((ctx.round(), ctx.inbox().len()));
            if self.send_at.contains(&ctx.round()) {
                ctx.send(Blob(1));
            }
        }

        fn next_wake(&self, round: Round) -> Round {
            if round == 0 {
                return self.first;
            }
            self.script.iter().find(|s| s.0 == round).map_or(Round::MAX, |s| s.1)
        }
    }

    #[test]
    fn a_node_due_twice_over_runs_once() {
        // Node 0 sends in rounds 3, 4 and 5, so node 1 has mail in rounds
        // 4, 5 and 6. Node 1 is also due in round 4. Its wake-ups go 9,
        // then 7, then 9 again: the calendar holds a stale entry for
        // round 7 and two for round 9.
        let mut eng = Engine::new(topology::path(2), FailureSchedule::none(), |v| match v.0 {
            0 => Scripted {
                first: 3,
                script: vec![(3, 4), (4, 5)],
                send_at: vec![3, 4, 5],
                calls: vec![],
            },
            _ => Scripted {
                first: 4,
                script: vec![(4, 9), (5, 7), (6, 9)],
                send_at: vec![],
                calls: vec![],
            },
        });
        eng.run(12);
        assert_eq!(eng.node(NodeId(0)).calls, vec![(3, 0), (4, 0), (5, 0)]);
        assert_eq!(eng.node(NodeId(1)).calls, vec![(4, 1), (5, 1), (6, 1), (9, 0)]);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::telemetry::FlightRecorder;
    use crate::topology;
    use crate::trace::{Event, JsonlSink, Trace};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Clone, Debug)]
    struct One;
    impl Message for One {
        fn bit_len(&self) -> u64 {
            1
        }
    }
    struct Talk;
    impl NodeLogic<One> for Talk {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, One>) {
            if ctx.round() <= 2 {
                ctx.send(One);
            }
        }
    }

    /// Installs `sink` on `eng` and hands back the caller's handle to it.
    fn add<S: TraceSink + 'static>(eng: &mut Engine<One, Talk>, sink: S) -> Rc<RefCell<S>> {
        let handle = Rc::new(RefCell::new(sink));
        eng.add_sink(Box::new(Rc::clone(&handle)));
        handle
    }

    #[test]
    fn trace_records_sends_and_crashes() {
        let g = topology::path(3);
        let mut s = FailureSchedule::none();
        s.crash(NodeId(2), 2);
        let mut eng = Engine::new(g, s, |_| Talk);
        let trace = add(&mut eng, Trace::new());
        eng.run(4);
        let t = trace.borrow();
        // Node 2 sent once (round 1), then crashed at round 2.
        assert_eq!(t.send_rounds(NodeId(2)), vec![1]);
        assert!(t.events().contains(&Event::Crash { round: 2, node: NodeId(2) }));
        // Crash logged exactly once.
        assert_eq!(t.events().iter().filter(|e| matches!(e, Event::Crash { .. })).count(), 1);
        // Nodes 0 and 1 sent in rounds 1 and 2.
        assert_eq!(t.send_rounds(NodeId(0)), vec![1, 2]);
        // The last event is the round-3 delivery of the round-2 sends.
        assert_eq!(t.last_round(), Some(3));
    }

    #[test]
    fn tracing_off_by_default() {
        let g = topology::path(2);
        let mut eng = Engine::new(g, FailureSchedule::none(), |_| Talk);
        eng.run(3);
        assert!(eng.sinks.is_empty());
        assert_eq!(eng.wants, Wants::Rounds);
        assert_eq!(eng.next_event_id, 0, "no sink, no event ids");
    }

    #[test]
    fn deliveries_are_traced_at_consumption_round() {
        let g = topology::path(3);
        let mut eng = Engine::new(g, FailureSchedule::none(), |_| Talk);
        let trace = add(&mut eng, Trace::new());
        eng.run(3);
        let t = trace.borrow();
        // Node 1 hears both neighbors' round-1 sends in round 2.
        let deliveries: Vec<_> = t
            .of_node(NodeId(1))
            .filter_map(|e| match e {
                Event::Deliver { round, from, bits, .. } => Some((*round, *from, *bits)),
                _ => None,
            })
            .collect();
        assert!(deliveries.contains(&(2, NodeId(0), 1)));
        assert!(deliveries.contains(&(2, NodeId(2), 1)));
        // The event log stays round-ordered (in_round's invariant).
        let rounds: Vec<Round> = t.events().iter().map(Event::round).collect();
        assert!(rounds.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn phase_markers_reach_trace_and_metrics() {
        let g = topology::path(2);
        let mut eng = Engine::new(g, FailureSchedule::none(), |_| Talk);
        let trace = add(&mut eng, Trace::new());
        assert_eq!(eng.enter_phase("warmup"), 1);
        eng.run(2);
        let (label, end) = eng.exit_phase().expect("phase open");
        assert_eq!((label.as_str(), end), ("warmup", 2));
        assert!(eng.exit_phase().is_none());
        let t = trace.borrow();
        assert!(t.events().contains(&Event::PhaseEnter { round: 1, label: "warmup".into() }));
        assert!(t.events().contains(&Event::PhaseExit { round: 2, label: "warmup".into() }));
        let ph = eng.metrics().phases();
        assert_eq!(ph.len(), 1);
        assert_eq!((ph[0].start, ph[0].end), (1, 2));
        assert_eq!(ph[0].bits, eng.metrics().total_bits());
    }

    #[test]
    fn recorder_and_jsonl_sinks_observe_the_same_events() {
        let engine = || {
            let g = topology::path(3);
            let mut s = FailureSchedule::none();
            s.crash(NodeId(2), 2);
            Engine::new(g, s, |_| Talk)
        };
        let mut full = engine();
        let full_trace = add(&mut full, Trace::new());
        let recorder = FlightRecorder::new(64);
        full.add_sink(Box::new(recorder.clone()));
        full.run(4);
        let mut jsonl = engine();
        let jsonl_sink = add(&mut jsonl, JsonlSink::new(Vec::<u8>::new()));
        jsonl.run(4);
        drop(jsonl);

        let full_trace = full_trace.borrow();
        // The sibling recorder kept every event but the deliveries.
        let dump = recorder.snapshot_jsonl();
        let kept = Trace::from_jsonl(dump.as_bytes()).unwrap();
        let sent: Vec<&Event> =
            full_trace.events().iter().filter(|e| !matches!(e, Event::Deliver { .. })).collect();
        assert_eq!(kept.events().iter().collect::<Vec<_>>(), sent);
        // The JSONL sink round-trips to the identical event sequence.
        let jsonl_sink = Rc::try_unwrap(jsonl_sink).expect("the engine is gone").into_inner();
        let bytes = jsonl_sink.finish().unwrap();
        let back = Trace::from_jsonl(&bytes[..]).unwrap();
        assert_eq!(back.events(), full_trace.events());
    }

    /// Talk on a 2-path for 3 rounds: 2 sends in round 1, 2 deliveries
    /// and 2 sends in round 2, 2 deliveries in round 3.
    fn two_path() -> Engine<One, Talk> {
        Engine::new(topology::path(2), FailureSchedule::none(), |_| Talk)
    }

    #[test]
    fn sinks_all_see_every_event_and_the_engine_builds_the_most_any_wants() {
        let mut eng = two_path();
        let trace = add(&mut eng, Trace::new());
        let deaf = FlightRecorder::new(2);
        eng.add_sink(Box::new(deaf.clone()));
        eng.run(3);
        // The trace still wants deliveries, so the engine builds them,
        // and the deliver-less recorder is offered them too.
        let t = trace.borrow();
        assert_eq!(t.events().len(), 8);
        assert_eq!(t.events().iter().filter(|e| matches!(e, Event::Deliver { .. })).count(), 4);
        assert_eq!(deaf.stats().total_events, 8);

        // No sink wants deliveries: the engine never builds one.
        let mut eng = two_path();
        let (a, b) = (FlightRecorder::new(2), FlightRecorder::new(2));
        eng.add_sink(Box::new(a.clone())).add_sink(Box::new(b.clone()));
        eng.run(3);
        assert_eq!(eng.wants, Wants::Events);
        assert_eq!(a.stats().total_events, 4, "sends only");
        assert_eq!(b.stats().total_events, 4, "sends only");
    }

    #[test]
    fn each_event_reaches_the_sinks_in_installation_order() {
        /// Logs its tag and each event into a log shared with its siblings.
        struct Tagged(char, Rc<RefCell<Vec<(char, Event)>>>);
        impl TraceSink for Tagged {
            fn record(&mut self, e: &Event) {
                self.1.borrow_mut().push((self.0, e.clone()));
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut eng = two_path();
        eng.add_sink(Box::new(Tagged('a', Rc::clone(&log))));
        eng.add_sink(Box::new(Tagged('b', Rc::clone(&log))));
        eng.run(3);
        let log = log.borrow();
        assert_eq!(log.len(), 16);
        for pair in log.chunks(2) {
            assert_eq!((pair[0].0, pair[1].0), ('a', 'b'));
            assert_eq!(pair[0].1, pair[1].1, "both sinks see the same event");
        }
    }

    #[test]
    fn sinks_keep_fanning_out_when_one_truncates() {
        // A one-round flight recorder evicts its oldest round and says so,
        // while the sibling trace keeps the whole stream — one degraded
        // sink never steals events from the others.
        let mut eng = two_path();
        let tiny = FlightRecorder::new(1);
        eng.add_sink(Box::new(tiny.clone()));
        let full = add(&mut eng, Trace::new());
        eng.run(3);
        let tiny = tiny.stats();
        assert_eq!(tiny.total_events, 8);
        assert_eq!(tiny.evicted_rounds, 1, "eviction must be visible downstream");
        assert_eq!((tiny.oldest_round, tiny.events_buffered), (2, 2));
        let full = full.borrow();
        assert_eq!(full.events().len(), 8);
        assert!(!full.truncated());
    }

    #[test]
    fn an_erroring_sink_is_isolated_and_its_error_stays_visible() {
        use std::io::{self, Write};

        /// Accepts the schema header, then fails every later write.
        #[derive(Debug)]
        struct FailAfterHeader {
            writes: u32,
        }
        impl Write for FailAfterHeader {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                if self.writes > 1 {
                    return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        // One round of Talk on a 2-path: two sends.
        let mut eng = two_path();
        let jsonl = add(&mut eng, JsonlSink::new(FailAfterHeader { writes: 0 }));
        let trace = add(&mut eng, Trace::new());
        eng.run(1);
        // The failing writer latched on its first event line and wrote
        // nothing further; the sibling still saw every event.
        assert_eq!(jsonl.borrow().lines(), 1, "only the header made it out");
        assert_eq!(trace.borrow().events().len(), 2, "fan-out must survive a failing sibling");
        // The latched error is propagated, not swallowed: finish()
        // surfaces the first I/O error.
        drop(eng);
        let jsonl = Rc::try_unwrap(jsonl).expect("the engine is gone").into_inner();
        let err = jsonl.finish().expect_err("the latched write error must surface");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }
}
