//! # Wall-clock timeline profiler with Chrome-trace export
//!
//! Every observability layer so far (events, causal DAG, watchdog,
//! round stats) measures the *logical* execution — rounds,
//! bits, causality. This module adds first-class **wall-clock
//! attribution**: typed monotonic-clock spans
//!
//! ```text
//! run ▸ trial ▸ phase ▸ round ▸ engine stage
//!                               {inbox-scatter, absorb, send,
//!                                trace-encode, telemetry}
//! ```
//!
//! recorded into a bounded ring behind a cloneable [`Timeline`] handle,
//! plus counter tracks (bits/round, in-flight, RSS, allocations) and
//! sampled async *flow* arrows from a `Send` event to its first
//! delivery. The whole data set exports to **Chrome Trace Event Format
//! JSON** — loadable in Perfetto or `chrome://tracing` — via
//! [`chrome_trace_json`], and [`validate_chrome_trace`] re-parses an
//! exported file so CI can gate on structural validity without external
//! tooling.
//!
//! The engines follow the crate's one-branch observer idiom: a
//! [`Timeline`] is installed behind an `Option`, so the timeline-off
//! hot path pays a single `is_some()` test per round (pinned by the
//! `perf.timeline.recorded_ratio` benchmark next to the telemetry and
//! tracing ratios). Timestamps are nanoseconds relative to the
//! handle's creation instant; the exporter renders microseconds with
//! fractional precision, which is what the Trace Event spec expects.
//!
//! Lane 0 is the main thread; the parallel [`crate::Runner`] records
//! each worker's trials on lane `worker + 1`, giving one Perfetto
//! thread track per worker.

use crate::adversary::Round;
use crate::json::{quote, Json};
use crate::trace::{Event, TraceSink};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The span taxonomy, outermost first. Exported as the Chrome trace
/// `cat` so Perfetto can filter by level.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One whole driver invocation (a sweep, a mine, a `timeline` run).
    Run,
    /// One runner trial (one seed) on one worker lane.
    Trial,
    /// One protocol phase (AGG, VERI, ...) on an engine.
    Phase,
    /// One engine round.
    Round,
    /// One engine stage within a round (see [`STAGES`]).
    Stage,
}

impl SpanKind {
    /// The stable lowercase name (Chrome trace `cat`).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Trial => "trial",
            SpanKind::Phase => "phase",
            SpanKind::Round => "round",
            SpanKind::Stage => "stage",
        }
    }
}

/// Index of the inbox-scatter stage in [`STAGES`].
pub const STAGE_SCATTER: usize = 0;
/// Index of the absorb (node logic) stage in [`STAGES`].
pub const STAGE_ABSORB: usize = 1;
/// Index of the send-metering stage in [`STAGES`].
pub const STAGE_SEND: usize = 2;
/// Index of the trace-encoding stage in [`STAGES`].
pub const STAGE_TRACE: usize = 3;
/// Index of the telemetry/observer stage in [`STAGES`].
pub const STAGE_TELEMETRY: usize = 4;

/// The engine stages a round decomposes into, in emission order:
/// inbox buffer management and the delivery scatter, node logic
/// (`on_round`), send metering and event grouping, per-delivery trace
/// encoding, and the telemetry tail (counters + every sink's `end_round`).
pub const STAGES: [&str; 5] = ["inbox-scatter", "absorb", "send", "trace-encode", "telemetry"];

/// One recorded span: a `[start, start + dur)` window on a lane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Taxonomy level.
    pub kind: SpanKind,
    /// Display name (Chrome trace `name`); spans sharing a name group
    /// in Perfetto's aggregation views.
    pub label: String,
    /// Thread track (0 = main, `w + 1` = runner worker `w`).
    pub lane: u32,
    /// Nanoseconds since the timeline's epoch.
    pub start_ns: u64,
    /// Span length in nanoseconds.
    pub dur_ns: u64,
    /// Optional numeric payload (round number, trial seed), exported
    /// as `args.n`.
    pub arg: Option<u64>,
}

/// One sample on a counter track (exported as a Chrome `C` event).
#[derive(Clone, Debug, PartialEq)]
pub struct CounterSample {
    /// Track name (e.g. `bits/round`, `rss_mb`).
    pub track: String,
    /// Nanoseconds since the timeline's epoch.
    pub at_ns: u64,
    /// Sampled value.
    pub value: f64,
}

/// One endpoint of a sampled causal flow arrow (`s` or `f` event).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowPoint {
    /// Flow id; the matching start and finish share it.
    pub id: u64,
    /// Lane the endpoint sits on.
    pub lane: u32,
    /// Nanoseconds since the timeline's epoch.
    pub at_ns: u64,
    /// `true` for the producing end (`s`), `false` for the consuming
    /// end (`f`).
    pub start: bool,
}

/// Everything a [`Timeline`] captured, cloned out by
/// [`Timeline::snapshot`] for export and analysis.
#[derive(Clone, Debug, Default)]
pub struct TimelineData {
    /// Recorded spans (ring-bounded; oldest evicted first).
    pub spans: Vec<Span>,
    /// Counter track samples, in record order.
    pub counters: Vec<CounterSample>,
    /// Flow endpoints, in record order.
    pub flows: Vec<FlowPoint>,
    /// Lane names (lane 0 defaults to `main`).
    pub lanes: BTreeMap<u32, String>,
    /// Spans discarded because the ring was full.
    pub dropped_spans: u64,
    /// Counter samples discarded because the buffer was full.
    pub dropped_counters: u64,
}

struct State {
    spans: Vec<Span>,
    /// Ring cursor into `spans` once the capacity is reached.
    head: usize,
    counters: Vec<CounterSample>,
    flows: Vec<FlowPoint>,
    lanes: BTreeMap<u32, String>,
    dropped_spans: u64,
    dropped_counters: u64,
}

struct Inner {
    epoch: Instant,
    span_cap: usize,
    counter_cap: usize,
    flow_cap: usize,
    state: Mutex<State>,
}

/// The cloneable profiler handle: `Arc`-shared, so the main thread,
/// engine, and every runner worker record into one bounded store. All
/// methods take `&self`; recording costs one short uncontended mutex
/// section (spans are emitted once per round/trial/phase, never per
/// message).
#[derive(Clone)]
pub struct Timeline {
    inner: Arc<Inner>,
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline::new()
    }
}

impl Timeline {
    /// A timeline with the default capacities (65 536 spans, 65 536
    /// counter samples, 16 384 flow endpoints).
    pub fn new() -> Timeline {
        Timeline::with_capacity(1 << 16)
    }

    /// A timeline retaining at most `span_cap` spans (ring-evicted,
    /// oldest first). Counter and flow buffers scale with it.
    pub fn with_capacity(span_cap: usize) -> Timeline {
        let span_cap = span_cap.max(16);
        Timeline {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                span_cap,
                counter_cap: span_cap,
                flow_cap: (span_cap / 4).max(16),
                state: Mutex::new(State {
                    spans: Vec::new(),
                    head: 0,
                    counters: Vec::new(),
                    flows: Vec::new(),
                    lanes: BTreeMap::new(),
                    dropped_spans: 0,
                    dropped_counters: 0,
                }),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Nanoseconds since this timeline's epoch.
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Epoch-relative nanoseconds of an [`Instant`] captured elsewhere
    /// (e.g. a phase's recorded start). Instants before the epoch clamp
    /// to 0.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.inner.epoch).as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Names a lane for the exporter's thread-track metadata.
    pub fn name_lane(&self, lane: u32, name: &str) {
        self.lock().lanes.insert(lane, name.to_string());
    }

    /// Records one span. When the ring is full the oldest span is
    /// evicted and counted in [`TimelineData::dropped_spans`].
    pub fn record_span(
        &self,
        kind: SpanKind,
        label: &str,
        lane: u32,
        start_ns: u64,
        dur_ns: u64,
        arg: Option<u64>,
    ) {
        let span = Span { kind, label: label.to_string(), lane, start_ns, dur_ns, arg };
        let mut st = self.lock();
        push_ring(&mut st, span, self.inner.span_cap);
    }

    /// Times `f` and records it as a span ending now.
    pub fn scoped<T>(&self, kind: SpanKind, label: &str, lane: u32, f: impl FnOnce() -> T) -> T {
        let t0 = self.now_ns();
        let out = f();
        let t1 = self.now_ns();
        self.record_span(kind, label, lane, t0, t1.saturating_sub(t0), None);
        out
    }

    /// Samples a counter track at the current instant.
    pub fn counter(&self, track: &str, value: f64) {
        let at = self.now_ns();
        self.counter_at(track, at, value);
    }

    /// Samples a counter track at an explicit epoch-relative timestamp
    /// (used by the saved-trace replay, which synthesizes a timebase).
    pub fn counter_at(&self, track: &str, at_ns: u64, value: f64) {
        let mut st = self.lock();
        if st.counters.len() >= self.inner.counter_cap {
            st.dropped_counters += 1;
            return;
        }
        st.counters.push(CounterSample { track: track.to_string(), at_ns, value });
    }

    /// Records one flow endpoint at an explicit timestamp. Flow buffers
    /// are bounded; endpoints beyond the cap are silently dropped (the
    /// producing sink samples, so losing tail flows is by design).
    pub fn flow_at(&self, id: u64, lane: u32, at_ns: u64, start: bool) {
        let mut st = self.lock();
        if st.flows.len() >= self.inner.flow_cap {
            return;
        }
        st.flows.push(FlowPoint { id, lane, at_ns, start });
    }

    /// Starts a chained per-round stage clock (see [`RoundClock`]).
    pub fn round_clock(&self) -> RoundClock {
        let now = Instant::now();
        RoundClock { start: now, mark: now, acc: [Duration::ZERO; STAGES.len()] }
    }

    /// Emits one [`SpanKind::Round`] span plus its [`SpanKind::Stage`]
    /// children from a finished [`RoundClock`]. The stage children are
    /// laid out back-to-back from the round start in [`STAGES`] order —
    /// the accumulators interleave across the node loop, so a
    /// contiguous synthesized layout is the honest rendering (total
    /// stage time is exact; within-round positions are aggregated).
    /// Zero-length stages are skipped.
    pub fn push_round(&self, round: Round, lane: u32, clock: RoundClock) {
        let start_ns = self.ns_of(clock.start);
        let dur_ns = dur_to_ns(clock.start.elapsed());
        let mut st = self.lock();
        push_ring(
            &mut st,
            Span {
                kind: SpanKind::Round,
                label: "round".to_string(),
                lane,
                start_ns,
                dur_ns,
                arg: Some(round),
            },
            self.inner.span_cap,
        );
        let mut cursor = start_ns;
        for (i, acc) in clock.acc.iter().enumerate() {
            let stage_ns = dur_to_ns(*acc);
            if stage_ns == 0 {
                continue;
            }
            push_ring(
                &mut st,
                Span {
                    kind: SpanKind::Stage,
                    label: STAGES[i].to_string(),
                    lane,
                    start_ns: cursor,
                    dur_ns: stage_ns,
                    arg: None,
                },
                self.inner.span_cap,
            );
            cursor = cursor.saturating_add(stage_ns);
        }
    }

    /// Spans evicted so far (spans, counter samples).
    pub fn dropped(&self) -> (u64, u64) {
        let st = self.lock();
        (st.dropped_spans, st.dropped_counters)
    }

    /// Clones out everything captured so far, with the span ring
    /// unrolled into record order.
    pub fn snapshot(&self) -> TimelineData {
        let st = self.lock();
        let mut spans = Vec::with_capacity(st.spans.len());
        // `head` points at the oldest entry once the ring has wrapped.
        spans.extend_from_slice(&st.spans[st.head..]);
        spans.extend_from_slice(&st.spans[..st.head]);
        TimelineData {
            spans,
            counters: st.counters.clone(),
            flows: st.flows.clone(),
            lanes: st.lanes.clone(),
            dropped_spans: st.dropped_spans,
            dropped_counters: st.dropped_counters,
        }
    }
}

fn push_ring(st: &mut State, span: Span, cap: usize) {
    if st.spans.len() < cap {
        st.spans.push(span);
    } else {
        st.spans[st.head] = span;
        st.head = (st.head + 1) % cap;
        st.dropped_spans += 1;
    }
}

fn dur_to_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Chained per-round stage accumulator. [`RoundClock::mark`]
/// attributes the time since the previous mark to one stage, so one
/// `Instant::now` per segment boundary covers the whole round. The
/// engines read the clock a handful of times per round (charging the
/// whole node loop to `absorb`), switching to exact per-node stage
/// splits only when a trace sink is installed — that path already pays
/// per-event encoding costs that dwarf the clock reads.
pub struct RoundClock {
    start: Instant,
    mark: Instant,
    acc: [Duration; STAGES.len()],
}

impl RoundClock {
    /// Attributes the time since the last mark (or the round start) to
    /// `stage`, and re-arms. `stage` indexes [`STAGES`].
    #[inline]
    pub fn mark(&mut self, stage: usize) {
        let now = Instant::now();
        self.acc[stage] += now.saturating_duration_since(self.mark);
        self.mark = now;
    }

    /// Total attributed to `stage` so far.
    pub fn stage_total(&self, stage: usize) -> Duration {
        self.acc[stage]
    }
}

// ---------------------------------------------------------------------------
// Flow sampling sink
// ---------------------------------------------------------------------------

/// A [`TraceSink`] that turns a deterministic 1-in-`k` sample of
/// `Send → first Deliver` pairs into timeline flow arrows, stamped at
/// the wall-clock instant the engine records each event. Installed by
/// the `timeline` driver next to (or instead of) other sinks; the
/// sample is keyed on the send's [`crate::EventId`], so reruns with
/// the same seed pick the same flows.
pub struct TimelineFlowSink {
    tl: Timeline,
    lane: u32,
    k: u64,
    seed: u64,
    /// Sampled send id → flow id, drained at the first delivery.
    open: BTreeMap<u64, u64>,
    next_flow: u64,
    cap: usize,
}

impl TimelineFlowSink {
    /// Samples 1 in `k` sends (`k = 0` and `k = 1` sample every send)
    /// onto `lane`, holding at most 4 096 open flows.
    pub fn new(tl: Timeline, lane: u32, k: u64, seed: u64) -> TimelineFlowSink {
        TimelineFlowSink { tl, lane, k, seed, open: BTreeMap::new(), next_flow: 0, cap: 4096 }
    }

    /// Flows completed (started and finished) so far.
    pub fn flows_closed(&self) -> u64 {
        self.next_flow - self.open.len() as u64
    }
}

impl TraceSink for TimelineFlowSink {
    fn record(&mut self, e: &Event) {
        match e {
            Event::Send { id, .. } => {
                let admit =
                    self.k <= 1 || crate::telemetry::mix64(self.seed ^ id.0).is_multiple_of(self.k);
                if admit && self.open.len() < self.cap {
                    let flow = self.next_flow;
                    self.next_flow += 1;
                    self.open.insert(id.0, flow);
                    let at = self.tl.now_ns();
                    self.tl.flow_at(flow, self.lane, at, true);
                }
            }
            Event::Deliver { src, .. } => {
                // Only the first delivery closes the arrow: a local
                // broadcast has many receivers, but a Chrome flow is
                // one `s` + one `f`.
                if let Some(flow) = self.open.remove(&src.0) {
                    let at = self.tl.now_ns();
                    self.tl.flow_at(flow, self.lane, at, false);
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Chrome Trace Event Format export
// ---------------------------------------------------------------------------

/// Microseconds with fractional precision, trimmed (Chrome trace `ts`
/// and `dur` are doubles in µs; sub-µs stages stay visible).
fn ts_us(ns: u64) -> String {
    let whole = ns / 1000;
    let frac = ns % 1000;
    if frac == 0 {
        format!("{whole}")
    } else {
        format!("{whole}.{frac:03}")
    }
}

/// Renders captured timeline data as Chrome Trace Event Format JSON:
/// one process (`pid` 1) named `process_name`, one thread track per
/// lane, `X` duration events per span, `C` counter events per sample,
/// and `s`/`f` flow pairs. The output loads in Perfetto
/// (<https://ui.perfetto.dev>) and `chrome://tracing`.
pub fn chrome_trace_json(data: &TimelineData, process_name: &str) -> String {
    let mut events: Vec<String> = Vec::with_capacity(
        data.spans.len() + data.counters.len() + data.flows.len() + data.lanes.len() + 2,
    );
    events.push(format!(
        "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":{}}}}}",
        quote(process_name)
    ));
    // Thread-track names: lane 0 is the main thread unless renamed.
    let mut lanes: BTreeMap<u32, String> = data.lanes.clone();
    for s in &data.spans {
        lanes.entry(s.lane).or_insert_with(|| {
            if s.lane == 0 {
                "main".to_string()
            } else {
                format!("worker {}", s.lane - 1)
            }
        });
    }
    lanes.entry(0).or_insert_with(|| "main".to_string());
    for (lane, name) in &lanes {
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{lane},\
             \"args\":{{\"name\":{}}}}}",
            quote(name)
        ));
    }
    for s in &data.spans {
        let args = match s.arg {
            Some(v) => format!(",\"args\":{{\"n\":{v}}}"),
            None => String::new(),
        };
        events.push(format!(
            "{{\"ph\":\"X\",\"name\":{},\"cat\":{},\"pid\":1,\"tid\":{},\
             \"ts\":{},\"dur\":{}{args}}}",
            quote(&s.label),
            quote(s.kind.as_str()),
            s.lane,
            ts_us(s.start_ns),
            ts_us(s.dur_ns),
        ));
    }
    for c in &data.counters {
        events.push(format!(
            "{{\"ph\":\"C\",\"name\":{},\"pid\":1,\"tid\":0,\"ts\":{},\
             \"args\":{{\"value\":{}}}}}",
            quote(&c.track),
            ts_us(c.at_ns),
            fmt_f64(c.value),
        ));
    }
    for f in &data.flows {
        let ph = if f.start { "s" } else { "f" };
        let bind = if f.start { "" } else { ",\"bp\":\"e\"" };
        events.push(format!(
            "{{\"ph\":\"{ph}\",\"id\":{},\"name\":\"deliver\",\"cat\":\"flow\",\
             \"pid\":1,\"tid\":{},\"ts\":{}{bind}}}",
            f.id,
            f.lane,
            ts_us(f.at_ns),
        ));
    }
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(e);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// What [`validate_chrome_trace`] measured about a trace file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// `X` duration events.
    pub duration_events: usize,
    /// Distinct counter track names.
    pub counter_tracks: Vec<String>,
    /// Distinct `tid`s carrying duration events.
    pub lanes: Vec<u64>,
    /// Completed `s`/`f` flow pairs.
    pub flows: usize,
    /// Distinct span categories seen (`run`, `phase`, `round`, ...).
    pub categories: Vec<String>,
}

/// Parses and structurally validates a Chrome Trace Event JSON file:
/// a top-level object with a `traceEvents` array whose members each
/// carry a known `ph`, the fields that phase requires (`X` needs
/// `name`/`ts`/`dur`/`pid`/`tid`, `C` needs a numeric `args` value,
/// `s`/`f` need an `id`), non-negative timestamps, and every flow
/// finish paired with a start. Returns coverage counts for CI gates.
///
/// # Errors
///
/// Returns a one-line description of the first structural violation.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let root = Json::parse(text)?;
    let events = root.get("traceEvents").ok_or("top-level object has no 'traceEvents' key")?;
    let events = events.as_array().ok_or("'traceEvents' is not an array")?;
    if events.is_empty() {
        return Err("'traceEvents' is empty".to_string());
    }
    let mut check = TraceCheck { events: events.len(), ..TraceCheck::default() };
    // Counter tracks keep first-seen order; the set keeps the check linear.
    let mut tracks: Vec<String> = Vec::new();
    let mut seen_tracks: HashSet<&str> = HashSet::new();
    let mut lanes: BTreeSet<u64> = BTreeSet::new();
    let mut cats: BTreeSet<String> = BTreeSet::new();
    let mut flow_starts: HashSet<u64> = HashSet::new();
    let mut flow_ends: Vec<u64> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string 'ph'"))?;
        let need_num = |key: &str| -> Result<f64, String> {
            e.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("event {i} (ph {ph}): missing numeric '{key}'"))
        };
        let need_str = |key: &str| -> Result<&str, String> {
            e.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("event {i} (ph {ph}): missing string '{key}'"))
        };
        match ph {
            "X" => {
                need_str("name")?;
                let ts = need_num("ts")?;
                let dur = need_num("dur")?;
                need_num("pid")?;
                let tid = need_num("tid")?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i}: negative ts/dur"));
                }
                check.duration_events += 1;
                lanes.insert(tid as u64);
                if let Some(cat) = e.get("cat").and_then(Json::as_str) {
                    cats.insert(cat.to_string());
                }
            }
            "C" => {
                let name = need_str("name")?;
                let ts = need_num("ts")?;
                if ts < 0.0 {
                    return Err(format!("event {i}: negative ts"));
                }
                let args =
                    e.get("args").ok_or_else(|| format!("event {i}: counter without 'args'"))?;
                let Some(series) = args.as_object() else {
                    return Err(format!("event {i}: counter 'args' is not an object"));
                };
                if !series.values().any(|v| matches!(v, Json::Num(_))) {
                    return Err(format!("event {i}: counter 'args' has no numeric series"));
                }
                if seen_tracks.insert(name) {
                    tracks.push(name.to_string());
                }
            }
            "s" | "f" => {
                let id = e
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("event {i} (ph {ph}): missing integer 'id'"))?;
                need_num("ts")?;
                if ph == "s" {
                    flow_starts.insert(id);
                } else {
                    flow_ends.push(id);
                }
            }
            "M" => {
                let name = need_str("name")?;
                if name != "process_name" && name != "thread_name" {
                    return Err(format!("event {i}: unknown metadata {name:?}"));
                }
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: metadata without args.name"))?;
            }
            "B" | "E" | "i" | "b" | "e" | "n" | "t" => {
                // Legal Trace Event phases we do not emit; accept them
                // so hand-edited traces still validate.
            }
            other => return Err(format!("event {i}: unknown ph {other:?}")),
        }
    }
    for id in &flow_ends {
        if !flow_starts.contains(id) {
            return Err(format!("flow finish id {id} has no matching start"));
        }
    }
    check.flows = flow_ends.len();
    check.counter_tracks = tracks;
    check.lanes = lanes.into_iter().collect();
    check.categories = cats.into_iter().collect();
    Ok(check)
}

// ---------------------------------------------------------------------------
// Self-time aggregation
// ---------------------------------------------------------------------------

/// One row of the self-time profile: spans aggregated by
/// `(kind, label)`, with `self` = total minus time covered by direct
/// children on the same lane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelfTimeRow {
    /// Taxonomy level.
    pub kind: SpanKind,
    /// Span label.
    pub label: String,
    /// Number of spans aggregated.
    pub count: u64,
    /// Summed wall time, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (total minus direct children), nanoseconds.
    pub self_ns: u64,
}

/// Aggregates spans into a self-time profile: per lane, spans are
/// sorted by start (ties: longer first) and nested by containment, so
/// each span's direct-child time is subtracted from its self time.
/// Rows come back sorted by descending self time.
pub fn self_time(data: &TimelineData) -> Vec<SelfTimeRow> {
    use std::collections::HashMap;
    let mut by_lane: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in &data.spans {
        by_lane.entry(s.lane).or_default().push(s);
    }
    let mut agg: HashMap<(SpanKind, &str), SelfTimeRow> = HashMap::new();
    for (_, mut spans) in by_lane {
        spans.sort_by(|a, b| {
            a.start_ns.cmp(&b.start_ns).then(b.dur_ns.cmp(&a.dur_ns)).then(a.kind.cmp(&b.kind))
        });
        // Containment stack: (end_ns, index into `spans`).
        let mut child_ns: Vec<u64> = vec![0; spans.len()];
        let mut stack: Vec<(u64, usize)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let end = s.start_ns.saturating_add(s.dur_ns);
            while let Some(&(top_end, _)) = stack.last() {
                if top_end <= s.start_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(_, parent)) = stack.last() {
                child_ns[parent] = child_ns[parent].saturating_add(s.dur_ns);
            }
            stack.push((end, i));
        }
        for (i, s) in spans.iter().enumerate() {
            let row = agg.entry((s.kind, s.label.as_str())).or_insert_with(|| SelfTimeRow {
                kind: s.kind,
                label: s.label.clone(),
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            row.count += 1;
            row.total_ns = row.total_ns.saturating_add(s.dur_ns);
            row.self_ns = row.self_ns.saturating_add(s.dur_ns.saturating_sub(child_ns[i]));
        }
    }
    let mut rows: Vec<SelfTimeRow> = agg.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.label.cmp(&b.label)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;
    use crate::trace::EventId;

    #[test]
    fn spans_ring_evicts_oldest_and_counts_drops() {
        let tl = Timeline::with_capacity(16);
        for i in 0..20u64 {
            tl.record_span(SpanKind::Round, "round", 0, i * 10, 5, Some(i));
        }
        let data = tl.snapshot();
        assert_eq!(data.spans.len(), 16);
        assert_eq!(data.dropped_spans, 4);
        // Oldest four evicted; record order preserved.
        assert_eq!(data.spans.first().unwrap().arg, Some(4));
        assert_eq!(data.spans.last().unwrap().arg, Some(19));
    }

    #[test]
    fn counter_buffer_is_bounded() {
        let tl = Timeline::with_capacity(16);
        for i in 0..40 {
            tl.counter_at("bits", i, 1.0);
        }
        let data = tl.snapshot();
        assert_eq!(data.counters.len(), 16);
        assert_eq!(data.dropped_counters, 24);
    }

    #[test]
    fn round_clock_partitions_the_round_into_stages() {
        let tl = Timeline::new();
        let mut clock = tl.round_clock();
        std::thread::sleep(Duration::from_millis(2));
        clock.mark(STAGE_ABSORB);
        std::thread::sleep(Duration::from_millis(1));
        clock.mark(STAGE_SEND);
        tl.push_round(7, 0, clock);
        let data = tl.snapshot();
        let round = data.spans.iter().find(|s| s.kind == SpanKind::Round).expect("round span");
        assert_eq!(round.arg, Some(7));
        let stages: Vec<&Span> = data.spans.iter().filter(|s| s.kind == SpanKind::Stage).collect();
        assert!(stages.iter().any(|s| s.label == "absorb"));
        assert!(stages.iter().any(|s| s.label == "send"));
        // Stage children stay inside the round span.
        let end = round.start_ns + round.dur_ns;
        for s in &stages {
            assert!(s.start_ns >= round.start_ns && s.start_ns + s.dur_ns <= end);
        }
    }

    #[test]
    fn export_roundtrips_through_the_validator() {
        let tl = Timeline::new();
        tl.name_lane(1, "worker 0");
        tl.record_span(SpanKind::Run, "timeline", 0, 0, 10_000, None);
        tl.record_span(SpanKind::Phase, "AGG", 0, 100, 4_000, None);
        tl.record_span(SpanKind::Round, "round", 0, 200, 1_500, Some(1));
        tl.record_span(SpanKind::Stage, "absorb", 0, 200, 900, None);
        tl.record_span(SpanKind::Trial, "trial", 1, 300, 2_000, Some(42));
        tl.counter_at("bits/round", 250, 1024.0);
        tl.counter_at("in-flight", 250, 33.0);
        tl.counter_at("rss_mb", 260, 12.5);
        tl.flow_at(0, 0, 210, true);
        tl.flow_at(0, 0, 900, false);
        let json = chrome_trace_json(&tl.snapshot(), "ftagg");
        let check = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(check.duration_events, 5);
        assert_eq!(check.counter_tracks.len(), 3);
        assert_eq!(check.lanes, vec![0, 1]);
        assert_eq!(check.flows, 1);
        assert!(check.categories.iter().any(|c| c == "stage"));
    }

    #[test]
    fn validator_rejects_structural_damage() {
        assert!(validate_chrome_trace("{}").is_err(), "no traceEvents");
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err(), "empty");
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\"}]}").is_err(),
            "X without ts/dur"
        );
        assert!(
            validate_chrome_trace(
                "{\"traceEvents\":[{\"ph\":\"f\",\"id\":9,\"ts\":1,\"pid\":1,\"tid\":0}]}"
            )
            .is_err(),
            "flow finish without start"
        );
        assert!(validate_chrome_trace("not json").is_err());
    }

    #[test]
    fn validator_is_linear_on_multi_megabyte_traces() {
        let tl = Timeline::with_capacity(1 << 16);
        for i in 0..40_000u64 {
            tl.record_span(SpanKind::Round, "round \u{e9}tape", (i % 4) as u32, i * 10, 5, Some(i));
        }
        for id in 0..8_000u64 {
            tl.flow_at(id, 0, id * 10, true);
            tl.flow_at(id, 1, id * 10 + 5, false);
        }
        let json = chrome_trace_json(&tl.snapshot(), "big");
        assert!(json.len() > 4 << 20, "only {} bytes", json.len());
        let check = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(check.duration_events, 40_000);
        assert_eq!(check.flows, 8_000);
        assert_eq!(check.lanes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn fractional_microsecond_timestamps_survive_export() {
        let tl = Timeline::new();
        tl.record_span(SpanKind::Stage, "absorb", 0, 1_500, 250, None);
        let json = chrome_trace_json(&tl.snapshot(), "p");
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":0.250"), "{json}");
        validate_chrome_trace(&json).expect("fractional ts is legal");
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let tl = Timeline::new();
        // parent [0, 100), child [10, 60), grandchild [20, 30).
        tl.record_span(SpanKind::Phase, "parent", 0, 0, 100, None);
        tl.record_span(SpanKind::Round, "child", 0, 10, 50, None);
        tl.record_span(SpanKind::Stage, "grandchild", 0, 20, 10, None);
        let rows = self_time(&tl.snapshot());
        let get = |label: &str| rows.iter().find(|r| r.label == label).unwrap();
        assert_eq!(get("parent").self_ns, 50, "only the direct child subtracts");
        assert_eq!(get("child").self_ns, 40);
        assert_eq!(get("grandchild").self_ns, 10);
    }

    #[test]
    fn flow_sink_samples_sends_and_closes_on_first_delivery() {
        let tl = Timeline::new();
        let mut sink = TimelineFlowSink::new(tl.clone(), 0, 1, 7);
        sink.record(&Event::Send {
            round: 1,
            node: NodeId(0),
            bits: 8,
            logical: 1,
            id: EventId(1),
            kind: "k".to_string(),
            causes: Vec::new(),
        });
        for _ in 0..3 {
            sink.record(&Event::Deliver {
                round: 2,
                node: NodeId(1),
                from: NodeId(0),
                bits: 8,
                id: EventId(2),
                src: EventId(1),
            });
        }
        assert_eq!(sink.flows_closed(), 1);
        let data = tl.snapshot();
        assert_eq!(data.flows.len(), 2, "one s + one f, later deliveries ignored");
        assert!(data.flows[0].start && !data.flows[1].start);
    }

    #[test]
    fn snapshot_is_shared_across_clones() {
        let tl = Timeline::new();
        let tl2 = tl.clone();
        tl2.record_span(SpanKind::Trial, "trial", 3, 0, 5, None);
        assert_eq!(tl.snapshot().spans.len(), 1);
    }
}
