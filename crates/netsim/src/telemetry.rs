//! # Scale-proof telemetry: counters, sampled tracing, flight recorder
//!
//! Observability for the regime where full tracing is impossible. At
//! N = 2²⁰ the engines move hundreds of millions of deliveries per run;
//! a [`TraceSink`] that touches every one of them costs
//! more than the simulation itself. This module layers three cheaper
//! instruments, each with a stated fidelity:
//!
//! - **[`TelemetryHub`]** — a registry of atomic [`Counter`]s/[`Gauge`]s
//!   plus mergeable log₂-bucket + reservoir histograms ([`TeleHist`]).
//!   Fed per *round* (not per delivery) from the engines' round stream
//!   via [`round_observer`], so the per-delivery cost is exactly zero.
//!   Exported as Prometheus-style text or JSON.
//! - **[`SamplingSink`]** — wraps any sink and forwards the events of a
//!   seed-deterministic 1-in-k subset of nodes, stratified per message
//!   kind, while metering the full stream; [`SamplingSink::factors`]
//!   returns the unbiased scale-up factor and the relative error of each
//!   stratum so reports can state their confidence instead of presenting
//!   samples as exact.
//! - **[`FlightRecorder`]** — a black box: a bounded ring of the last R
//!   rounds of full-fidelity events, delta-encoded per round with
//!   [`DeltaSink`], dumped as a versioned v2 JSONL artifact on a watchdog
//!   violation, a mining counterexample, or a panic
//!   ([`FlightRecorderHandle::install_panic_hook`]). A 16-second
//!   million-node run that trips an invariant leaves a replayable tail
//!   instead of nothing.
//!
//! Every sink here answers [`TraceSink::wants_delivers`], so the engine
//! can skip per-delivery event construction entirely when no installed
//! sink needs it — that interest bit is what keeps the recorded
//! million-node run within a few percent of the blind one.

use crate::adversary::Round;
use crate::engine::RoundFlow;
use crate::graph::NodeId;
use crate::runner::Histogram;
use crate::trace::{DeltaSink, Event, TraceSink, TRACE_SCHEMA_VERSION};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer. Used for
/// every deterministic "coin" in this module (reservoir replacement,
/// node admission) so results are identical across runs and platforms.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a name: stable seeds for named histograms.
fn fnv64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Poison-tolerant lock: the flight-recorder panic hook must read state
/// *after* an arbitrary panic, so a poisoned mutex yields its data.
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether `name` is a valid Prometheus metric identifier
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`). Everything this crate registers in a
/// [`TelemetryHub`] must pass, or the exported exposition text is not
/// scrapeable; the CLI's export golden test lints every exported name
/// through this.
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut bytes = name.bytes();
    let Some(first) = bytes.next() else { return false };
    let head_ok = first.is_ascii_alphabetic() || first == b'_' || first == b':';
    head_ok && bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
}

// ---------------------------------------------------------------------------
// Counters, gauges, histograms
// ---------------------------------------------------------------------------

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `v`.
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins atomic gauge with a running-maximum helper.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger.
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// How many raw samples a [`TeleHist`] reservoir keeps (quantiles are
/// exact up to this many samples, estimated past it).
pub const RESERVOIR_CAP: usize = 256;

/// A deterministic Algorithm-R reservoir over `u64` samples.
///
/// The replacement coin for sample `i` is `mix64(seed ^ i) % i`, so the
/// kept subset depends only on the seed and the sample order — never on
/// wall clock or a global RNG — and two runs of the same workload keep
/// byte-identical reservoirs.
#[derive(Clone, Debug)]
pub struct Reservoir {
    cap: usize,
    seed: u64,
    seen: u64,
    samples: Vec<u64>,
}

impl Reservoir {
    /// An empty reservoir holding at most `cap` samples.
    pub fn new(cap: usize, seed: u64) -> Reservoir {
        Reservoir { cap: cap.max(1), seed, seen: 0, samples: Vec::new() }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(v);
        } else {
            let j = mix64(self.seed ^ self.seen) % self.seen;
            if (j as usize) < self.cap {
                self.samples[j as usize] = v;
            }
        }
    }

    /// Total samples offered (kept or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept samples, in arrival/replacement order.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// The `q`-quantile over the *kept* samples (`0 < q <= 1`); `None`
    /// when empty. Exact while `seen() <= cap`, an estimate after.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    /// Feeds every kept sample of `other` through this reservoir's own
    /// deterministic replacement. (A merge of saturated reservoirs is an
    /// approximation — fine for dashboards, not for exact gates.)
    pub fn merge(&mut self, other: &Reservoir) {
        for &v in &other.samples {
            self.record(v);
        }
    }
}

/// A mergeable histogram cell: log₂ buckets (full range, 2× bucket
/// resolution) plus a bounded reservoir (exact small-count quantiles).
#[derive(Clone, Debug)]
pub struct TeleHist {
    hist: Histogram,
    reservoir: Reservoir,
}

impl TeleHist {
    /// An empty cell whose reservoir coins derive from `seed`.
    pub fn new(seed: u64) -> TeleHist {
        TeleHist { hist: Histogram::new(), reservoir: Reservoir::new(RESERVOIR_CAP, seed) }
    }

    /// Records one sample into both representations.
    pub fn record(&mut self, v: u64) {
        self.hist.record(v);
        self.reservoir.record(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.hist.samples()
    }

    /// Exact maximum sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.hist.max()
    }

    /// The `q`-quantile: exact (reservoir) while at most
    /// [`RESERVOIR_CAP`] samples were recorded, otherwise the log₂
    /// bucket's upper edge capped at the true maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.reservoir.seen() <= RESERVOIR_CAP as u64 {
            self.reservoir.quantile(q).unwrap_or(0)
        } else {
            self.hist.quantile(q)
        }
    }

    /// The log₂-bucket representation.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Absorbs `other` (bucket counts add exactly; reservoirs merge
    /// deterministically).
    pub fn merge(&mut self, other: &TeleHist) {
        self.hist.merge(&other.hist);
        self.reservoir.merge(&other.reservoir);
    }
}

/// A shared, internally synchronized [`TeleHist`] registered in a
/// [`TelemetryHub`]. Recording takes an uncontended mutex — callers feed
/// it per round, not per delivery.
#[derive(Debug)]
pub struct HistCell {
    inner: Mutex<TeleHist>,
}

impl HistCell {
    fn new(seed: u64) -> HistCell {
        HistCell { inner: Mutex::new(TeleHist::new(seed)) }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        lock_ok(&self.inner).record(v);
    }

    /// A point-in-time copy of the cell.
    pub fn snapshot(&self) -> TeleHist {
        lock_ok(&self.inner).clone()
    }

    /// Merges an already-aggregated [`TeleHist`] into the cell (bucket
    /// counts add exactly; reservoirs merge deterministically).
    pub fn absorb(&self, other: &TeleHist) {
        lock_ok(&self.inner).merge(other);
    }
}

/// A lock-free-ish registry of named counters, gauges, and histogram
/// cells. Registration (first lookup of a name) takes a mutex; the
/// returned handles are plain atomics ([`Counter`], [`Gauge`]) or
/// per-cell mutexes ([`HistCell`]), so steady-state recording never
/// touches the registry lock. Lookups are get-or-create: two callers
/// asking for the same name share one instrument.
#[derive(Debug, Default)]
pub struct TelemetryHub {
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
    hists: Mutex<Vec<(String, Arc<HistCell>)>>,
}

impl TelemetryHub {
    /// An empty hub.
    pub fn new() -> TelemetryHub {
        TelemetryHub::default()
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut v = lock_ok(&self.counters);
        if let Some((_, c)) = v.iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        v.push((name.to_string(), Arc::clone(&c)));
        c
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut v = lock_ok(&self.gauges);
        if let Some((_, g)) = v.iter().find(|(n, _)| n == name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::default());
        v.push((name.to_string(), Arc::clone(&g)));
        g
    }

    /// The histogram cell registered under `name` (created on first use;
    /// its reservoir seed derives from the name, so layouts are stable
    /// across processes).
    pub fn histogram(&self, name: &str) -> Arc<HistCell> {
        let mut v = lock_ok(&self.hists);
        if let Some((_, h)) = v.iter().find(|(n, _)| n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(HistCell::new(fnv64(name)));
        v.push((name.to_string(), Arc::clone(&h)));
        h
    }

    /// Merges every instrument of `other` into this hub: counters add,
    /// gauges keep the maximum, histograms merge bucket-exactly. The
    /// merge walks `other`'s instruments in sorted-name order, so folding
    /// a fixed set of hubs (e.g. one per runner worker, in worker order)
    /// produces a deterministic registry regardless of how each hub's
    /// instruments were first touched. Totals (counter sums, histogram
    /// counts) are therefore identical across thread counts whenever the
    /// per-hub totals partition the same work.
    pub fn merge_from(&self, other: &TelemetryHub) {
        for (name, v) in other.sorted_counters() {
            self.counter(&name).add(v);
        }
        for (name, v) in other.sorted_gauges() {
            self.gauge(&name).raise(v);
        }
        for (name, h) in other.sorted_hists() {
            self.histogram(&name).absorb(&h);
        }
    }

    /// Every counter as `(name, value)`, sorted by name.
    pub fn sorted_counters(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> =
            lock_ok(&self.counters).iter().map(|(n, c)| (n.clone(), c.get())).collect();
        v.sort();
        v
    }

    /// Every gauge as `(name, value)`, sorted by name.
    pub fn sorted_gauges(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> =
            lock_ok(&self.gauges).iter().map(|(n, g)| (n.clone(), g.get())).collect();
        v.sort();
        v
    }

    /// A snapshot of every histogram as `(name, hist)`, sorted by name.
    pub fn sorted_hists(&self) -> Vec<(String, TeleHist)> {
        let mut v: Vec<(String, TeleHist)> =
            lock_ok(&self.hists).iter().map(|(n, h)| (n.clone(), h.snapshot())).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Renders every instrument as Prometheus exposition text (counters
    /// and gauges as-is; histograms as summaries with `quantile` labels
    /// plus `_count` and `_max` series), names sorted.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in self.sorted_counters() {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in self.sorted_gauges() {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        for (name, h) in self.sorted_hists() {
            let _ = writeln!(out, "# TYPE {name} summary");
            for q in ["0.5", "0.9", "0.99"] {
                let qv = h.quantile(q.parse().expect("literal quantile"));
                let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {qv}");
            }
            let _ = writeln!(out, "{name}_count {}\n{name}_max {}", h.count(), h.max());
        }
        out
    }

    /// Renders every instrument as one deterministic JSON object
    /// (`{"counters":{...},"gauges":{...},"histograms":{...}}`, names
    /// sorted).
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let scalar_obj = |items: &[(String, u64)]| {
            let fields: Vec<String> = items.iter().map(|(n, v)| format!("\"{n}\": {v}")).collect();
            format!("{{{}}}", fields.join(", "))
        };
        let mut out = String::new();
        let _ = write!(out, "{{\"counters\": {}", scalar_obj(&self.sorted_counters()));
        let _ = write!(out, ", \"gauges\": {}", scalar_obj(&self.sorted_gauges()));
        let hists: Vec<String> = self
            .sorted_hists()
            .iter()
            .map(|(n, h)| {
                format!(
                    "\"{n}\": {{\"count\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                    h.count(),
                    h.max(),
                    h.quantile(0.5),
                    h.quantile(0.9),
                    h.quantile(0.99)
                )
            })
            .collect();
        let _ = write!(out, ", \"histograms\": {{{}}}}}", hists.join(", "));
        out.push('\n');
        out
    }
}

/// Builds a per-round callback for `Engine::stream_rounds` that feeds the standard engine instruments
/// of `hub`: `engine_rounds_total`, `engine_bits_total`,
/// `engine_logical_messages_total`, `engine_deliveries_total` counters,
/// `engine_inflight_last` / `engine_inflight_peak` gauges, and the
/// `engine_round_bits` / `engine_round_deliveries` histograms. Cost is
/// O(1) per **round**; nothing here runs per delivery.
pub fn round_observer(hub: &Arc<TelemetryHub>) -> impl FnMut(RoundFlow) + 'static {
    let rounds = hub.counter("engine_rounds_total");
    let bits = hub.counter("engine_bits_total");
    let logical = hub.counter("engine_logical_messages_total");
    let deliveries = hub.counter("engine_deliveries_total");
    let inflight = hub.gauge("engine_inflight_last");
    let inflight_peak = hub.gauge("engine_inflight_peak");
    let round_bits = hub.histogram("engine_round_bits");
    let round_deliveries = hub.histogram("engine_round_deliveries");
    move |flow: RoundFlow| {
        rounds.inc();
        bits.add(flow.bits);
        logical.add(flow.logical);
        deliveries.add(flow.deliveries);
        inflight.set(flow.deliveries);
        inflight_peak.raise(flow.deliveries);
        round_bits.record(flow.bits);
        round_deliveries.record(flow.deliveries);
    }
}

// ---------------------------------------------------------------------------
// Sampled tracing
// ---------------------------------------------------------------------------

/// Per-stratum sampling bookkeeping exposed by
/// [`SamplingSink::factors`]: everything a report needs to scale sampled
/// counts back up and state how much to trust the estimate.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleFactor {
    /// Stratum label: `send/<kind>` (`send/-` for untagged sends) or
    /// `deliver`.
    pub stratum: String,
    /// Events seen in the full stream.
    pub total_events: u64,
    /// Events forwarded to the inner sink.
    pub sampled_events: u64,
    /// Bits seen in the full stream.
    pub total_bits: u64,
    /// Bits forwarded to the inner sink.
    pub sampled_bits: u64,
}

impl SampleFactor {
    /// The unbiased scale-up factor: multiply sampled counts by this to
    /// estimate full-stream counts (1.0 when nothing was dropped).
    pub fn scale(&self) -> f64 {
        if self.sampled_events == 0 {
            1.0
        } else {
            self.total_events as f64 / self.sampled_events as f64
        }
    }

    /// The relative standard error of a scaled-up count, `1/sqrt(m)` for
    /// `m` sampled events (1.0 when the stratum has no samples — i.e. no
    /// confidence at all).
    pub fn rel_error(&self) -> f64 {
        if self.sampled_events == 0 {
            1.0
        } else {
            1.0 / (self.sampled_events as f64).sqrt()
        }
    }
}

/// A [`TraceSink`] wrapper that forwards the `Send`/`Deliver` events of a
/// deterministic 1-in-k subset of nodes and drops the rest, while
/// metering the *full* stream per stratum so the dropped volume is known
/// exactly.
///
/// Admission is by node: node `v` is admitted to stratum `s` iff
/// `mix64(seed ^ fnv64(s) ^ v) % k == 0`. Hashing the stratum in means
/// each message kind draws its own independent 1-in-k node subset
/// (per-kind stratification); hashing the node (rather than a message
/// counter) means an admitted node contributes *all* of its events for
/// that kind, so per-node blame tables computed on the sample are exact
/// for the sampled nodes and scale up unbiasedly across nodes.
///
/// Structural events (`Crash`, `PhaseEnter`/`PhaseExit`, `Decide`) are
/// always forwarded — they are rare and analyses need them whole. With
/// `k = 1` every event is forwarded and the wrapper is an exact
/// passthrough.
pub struct SamplingSink {
    inner: Box<dyn TraceSink>,
    k: u64,
    seed: u64,
    strata: Vec<(u64, SampleFactor)>,
    /// Index of the stratum the previous event hit — consecutive events
    /// overwhelmingly share a kind, so this skips the table scan on the
    /// million-event hot path.
    last: usize,
}

impl SamplingSink {
    /// Wraps `inner`, keeping 1 in `k` nodes per stratum (`k = 0` is
    /// treated as 1: keep everything).
    pub fn new(inner: Box<dyn TraceSink>, k: u64, seed: u64) -> SamplingSink {
        SamplingSink { inner, k: k.max(1), seed, strata: Vec::new(), last: 0 }
    }

    /// The deterministic admission rule (also usable by readers that
    /// want to know which nodes a sampled trace covers): whether node
    /// `node` is admitted to the stratum hashed as `stratum_hash` under
    /// `seed` and rate `k`.
    pub fn admits(seed: u64, k: u64, stratum_hash: u64, node: NodeId) -> bool {
        k <= 1 || mix64(seed ^ stratum_hash ^ u64::from(node.0)).is_multiple_of(k)
    }

    /// The stratum hash for a send of message kind `kind` (empty string
    /// for untagged sends).
    pub fn send_stratum(kind: &str) -> u64 {
        fnv64("send") ^ fnv64(kind)
    }

    /// The stratum hash for deliveries.
    pub fn deliver_stratum() -> u64 {
        fnv64("deliver")
    }

    /// The per-stratum totals, sampled counts, scale-up factors, and
    /// error bars, in first-seen order.
    pub fn factors(&self) -> Vec<SampleFactor> {
        self.strata.iter().map(|(_, f)| f.clone()).collect()
    }

    /// The sampling rate (1 in `k`).
    pub fn k(&self) -> u64 {
        self.k
    }

    fn stratum_mut(&mut self, hash: u64, label: &dyn Fn() -> String) -> &mut SampleFactor {
        if let Some((h, _)) = self.strata.get(self.last) {
            if *h == hash {
                return &mut self.strata[self.last].1;
            }
        }
        if let Some(i) = self.strata.iter().position(|(h, _)| *h == hash) {
            self.last = i;
            return &mut self.strata[i].1;
        }
        self.strata.push((
            hash,
            SampleFactor {
                stratum: label(),
                total_events: 0,
                sampled_events: 0,
                total_bits: 0,
                sampled_bits: 0,
            },
        ));
        self.last = self.strata.len() - 1;
        &mut self.strata.last_mut().expect("just pushed").1
    }
}

impl TraceSink for SamplingSink {
    fn record(&mut self, e: &Event) {
        let (hash, node, bits) = match e {
            Event::Send { node, bits, kind, .. } => (Self::send_stratum(kind), *node, *bits),
            Event::Deliver { node, bits, .. } => (Self::deliver_stratum(), *node, *bits),
            _ => {
                // Structural events pass through whole.
                self.inner.record(e);
                return;
            }
        };
        let (k, seed) = (self.k, self.seed);
        let admitted = Self::admits(seed, k, hash, node);
        let f = self.stratum_mut(hash, &|| match e {
            Event::Send { kind, .. } if kind.is_empty() => "send/-".to_string(),
            Event::Send { kind, .. } => format!("send/{kind}"),
            _ => "deliver".to_string(),
        });
        f.total_events += 1;
        f.total_bits += bits;
        if admitted {
            f.sampled_events += 1;
            f.sampled_bits += bits;
            self.inner.record(e);
        }
    }

    fn wants_delivers(&self) -> bool {
        self.inner.wants_delivers()
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// One sealed round of delta-encoded events.
#[derive(Clone, Debug)]
struct Segment {
    round: Round,
    bytes: Vec<u8>,
    events: u64,
}

#[derive(Debug)]
struct RecorderCore {
    rounds_cap: usize,
    segments: VecDeque<Segment>,
    cur: DeltaSink,
    cur_round: Round,
    record_delivers: bool,
    total_events: u64,
    recorded_events: u64,
    evicted_rounds: u64,
    dumped: bool,
}

impl RecorderCore {
    fn seal_current(&mut self) {
        if self.cur.event_count() == 0 {
            return;
        }
        let sink = std::mem::replace(&mut self.cur, DeltaSink::new());
        let events = sink.event_count();
        self.segments.push_back(Segment {
            round: self.cur_round,
            bytes: sink.into_bytes(),
            events,
        });
        // The now-open round occupies one of the `rounds_cap` slots, so
        // the ring retains exactly the last `rounds_cap` rounds overall.
        while self.segments.len() + 1 > self.rounds_cap {
            self.segments.pop_front();
            self.evicted_rounds += 1;
        }
    }

    fn offer(&mut self, e: &Event) {
        self.total_events += 1;
        if !self.record_delivers {
            if let Event::Deliver { .. } = e {
                return;
            }
        }
        let r = e.round();
        if r != self.cur_round && self.cur.event_count() > 0 {
            self.seal_current();
        }
        self.cur_round = r;
        self.cur.record(e);
        self.recorded_events += 1;
    }

    /// Every retained event, decoded back to one v2 JSONL document
    /// (schema header + one line per event, byte-compatible with
    /// `JsonlSink` output for the same events).
    fn snapshot_jsonl(&self) -> Result<String, String> {
        let mut out = format!("{{\"schema\":\"ftagg-trace\",\"v\":{TRACE_SCHEMA_VERSION}}}\n");
        for seg in &self.segments {
            for e in DeltaSink::decode(&seg.bytes)? {
                out.push_str(&e.to_jsonl());
                out.push('\n');
            }
        }
        for e in DeltaSink::decode(self.cur.bytes())? {
            out.push_str(&e.to_jsonl());
            out.push('\n');
        }
        Ok(out)
    }

    fn stats(&self) -> RecorderStats {
        let open = u64::from(self.cur.event_count() > 0);
        RecorderStats {
            rounds_buffered: self.segments.len() as u64 + open,
            events_buffered: self.segments.iter().map(|s| s.events).sum::<u64>()
                + self.cur.event_count(),
            bytes_buffered: self.segments.iter().map(|s| s.bytes.len() as u64).sum::<u64>()
                + self.cur.bytes().len() as u64,
            total_events: self.total_events,
            recorded_events: self.recorded_events,
            evicted_rounds: self.evicted_rounds,
            oldest_round: self.segments.front().map_or(self.cur_round, |s| s.round),
            newest_round: self.cur_round,
        }
    }
}

/// Point-in-time bookkeeping of a [`FlightRecorder`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Rounds currently held in the ring (sealed + open).
    pub rounds_buffered: u64,
    /// Events currently held in the ring.
    pub events_buffered: u64,
    /// Encoded bytes currently held in the ring.
    pub bytes_buffered: u64,
    /// Events offered to the recorder over its lifetime.
    pub total_events: u64,
    /// Events actually encoded (differs from `total_events` when
    /// deliveries are excluded).
    pub recorded_events: u64,
    /// Rounds evicted from the head of the ring.
    pub evicted_rounds: u64,
    /// The oldest round still retained.
    pub oldest_round: Round,
    /// The newest round seen.
    pub newest_round: Round,
}

/// The black box: a [`TraceSink`] keeping the last R rounds of events as
/// per-round [`DeltaSink`] segments in a bounded ring. Dumping decodes
/// the retained segments back into one versioned v2 JSONL artifact that
/// `ftagg-cli explain --input` / `report --input` replay directly.
///
/// Cloneable [`FlightRecorderHandle`]s (see [`FlightRecorder::handle`])
/// share the ring, so a CLI can install the recorder into an engine and
/// still dump it from a panic hook or after a watchdog violation.
pub struct FlightRecorder {
    core: Arc<Mutex<RecorderCore>>,
}

impl FlightRecorder {
    /// A recorder retaining the last `rounds` rounds (at least 1).
    pub fn new(rounds: usize) -> FlightRecorder {
        FlightRecorder {
            core: Arc::new(Mutex::new(RecorderCore {
                rounds_cap: rounds.max(1),
                segments: VecDeque::new(),
                cur: DeltaSink::new(),
                cur_round: 0,
                record_delivers: true,
                total_events: 0,
                recorded_events: 0,
                evicted_rounds: 0,
                dumped: false,
            })),
        }
    }

    /// Excludes per-delivery events (and tells the engine not to build
    /// them, via [`TraceSink::wants_delivers`]). This is the
    /// million-node configuration: sends, crashes, phases, and decides
    /// are retained at full fidelity — enough for replay, metrics, and
    /// blame, which are all send-driven — at a per-round instead of
    /// per-delivery cost.
    #[must_use]
    pub fn without_delivers(self) -> FlightRecorder {
        lock_ok(&self.core).record_delivers = false;
        self
    }

    /// A shared handle for dumping/inspecting the ring after the
    /// recorder itself has been boxed into an engine.
    pub fn handle(&self) -> FlightRecorderHandle {
        FlightRecorderHandle { core: Arc::clone(&self.core) }
    }
}

impl TraceSink for FlightRecorder {
    fn record(&mut self, e: &Event) {
        lock_ok(&self.core).offer(e);
    }

    fn wants_delivers(&self) -> bool {
        lock_ok(&self.core).record_delivers
    }
}

/// A cloneable view onto a [`FlightRecorder`]'s ring.
#[derive(Clone)]
pub struct FlightRecorderHandle {
    core: Arc<Mutex<RecorderCore>>,
}

impl FlightRecorderHandle {
    /// Decodes the retained ring into one v2 JSONL document.
    ///
    /// # Errors
    ///
    /// Returns a message if a segment fails to decode (corrupt memory —
    /// should not happen).
    pub fn snapshot_jsonl(&self) -> Result<String, String> {
        lock_ok(&self.core).snapshot_jsonl()
    }

    /// Writes [`Self::snapshot_jsonl`] to `path`, returning the
    /// recorder's stats at dump time.
    ///
    /// # Errors
    ///
    /// Returns a message on decode or IO failure.
    pub fn dump_to(&self, path: &std::path::Path) -> Result<RecorderStats, String> {
        let (text, stats) = {
            let core = lock_ok(&self.core);
            (core.snapshot_jsonl()?, core.stats())
        };
        std::fs::write(path, text)
            .map_err(|e| format!("cannot write flight recording '{}': {e}", path.display()))?;
        Ok(stats)
    }

    /// Like [`Self::dump_to`], but a no-op returning `Ok(None)` if any
    /// handle of this recorder already dumped — so a watchdog-triggered
    /// dump and the panic hook cannot double-write.
    ///
    /// # Errors
    ///
    /// Returns a message on decode or IO failure.
    pub fn dump_once(&self, path: &std::path::Path) -> Result<Option<RecorderStats>, String> {
        {
            let mut core = lock_ok(&self.core);
            if core.dumped {
                return Ok(None);
            }
            core.dumped = true;
        }
        self.dump_to(path).map(Some)
    }

    /// Current bookkeeping.
    pub fn stats(&self) -> RecorderStats {
        lock_ok(&self.core).stats()
    }

    /// Installs a process-wide panic hook that dumps the ring to `path`
    /// (once) before delegating to the previously installed hook. The
    /// ring's mutex is poison-tolerant, so the dump works even when the
    /// panic unwound through a recording engine.
    pub fn install_panic_hook(&self, path: std::path::PathBuf) {
        let handle = self.clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            match handle.dump_once(&path) {
                Ok(Some(stats)) => eprintln!(
                    "flight recorder: dumped {} events over {} rounds to {}",
                    stats.events_buffered,
                    stats.rounds_buffered,
                    path.display()
                ),
                Ok(None) => {}
                Err(e) => eprintln!("flight recorder: dump failed: {e}"),
            }
            prev(info);
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn counters_gauges_and_histograms_register_once() {
        let hub = TelemetryHub::new();
        hub.counter("c").add(3);
        hub.counter("c").add(4);
        assert_eq!(hub.counter("c").get(), 7);
        hub.gauge("g").set(5);
        hub.gauge("g").raise(2);
        assert_eq!(hub.gauge("g").get(), 5);
        hub.gauge("g").raise(9);
        assert_eq!(hub.gauge("g").get(), 9);
        hub.histogram("h").record(10);
        hub.histogram("h").record(20);
        assert_eq!(hub.histogram("h").snapshot().count(), 2);
    }

    #[test]
    fn hub_merge_adds_counters_raises_gauges_and_merges_hists() {
        let a = TelemetryHub::new();
        a.counter("trials_total").add(3);
        a.gauge("peak").set(10);
        a.histogram("lat").record(4);
        a.histogram("lat").record(8);
        let b = TelemetryHub::new();
        b.counter("trials_total").add(5);
        b.counter("steals_total").add(2);
        b.gauge("peak").set(7);
        b.histogram("lat").record(100);
        let merged = TelemetryHub::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.counter("trials_total").get(), 8);
        assert_eq!(merged.counter("steals_total").get(), 2);
        assert_eq!(merged.gauge("peak").get(), 10, "gauges merge by max");
        let lat = merged.histogram("lat").snapshot();
        assert_eq!(lat.count(), 3);
        assert_eq!(lat.max(), 100);
        // Merging in either order gives the same rendered registry.
        let flipped = TelemetryHub::new();
        flipped.merge_from(&b);
        flipped.merge_from(&a);
        assert_eq!(flipped.render_prometheus(), merged.render_prometheus());
    }

    #[test]
    fn metric_name_lint_accepts_prom_identifiers_only() {
        for ok in ["engine_bits_total", "_hidden", "a:b:c", "x9", "Runner_p99"] {
            assert!(is_valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "9lives", "has space", "dash-ed", "dot.ted", "ütf"] {
            assert!(!is_valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn reservoir_is_deterministic_and_exact_when_small() {
        let mut a = Reservoir::new(8, 42);
        let mut b = Reservoir::new(8, 42);
        for v in 0..100u64 {
            a.record(v * 3);
            b.record(v * 3);
        }
        assert_eq!(a.samples(), b.samples(), "same seed, same stream, same reservoir");
        assert_eq!(a.seen(), 100);

        let mut small = Reservoir::new(RESERVOIR_CAP, 1);
        for v in [5u64, 1, 9, 3, 7] {
            small.record(v);
        }
        assert_eq!(small.quantile(0.5), Some(5));
        assert_eq!(small.quantile(1.0), Some(9));
        assert_eq!(Reservoir::new(4, 0).quantile(0.5), None);
    }

    #[test]
    fn telehist_quantiles_exact_then_bounded() {
        let mut h = TeleHist::new(7);
        for v in 1..=10u64 {
            h.record(v);
        }
        // Ten samples fit the reservoir: exact quantiles.
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(1.0), 10);
        for v in 0..1000u64 {
            h.record(v);
        }
        // Saturated: falls back to the log2 bucket edge, never past max.
        let p99 = h.quantile(0.99);
        assert!(p99 <= h.max(), "p99 {p99} must not exceed max {}", h.max());
        let mut other = TeleHist::new(7);
        other.record(1_000_000);
        h.merge(&other);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.count(), 1011);
    }

    #[test]
    fn hub_renders_prometheus_and_json_sorted() {
        let hub = TelemetryHub::new();
        hub.counter("b_total").add(2);
        hub.counter("a_total").add(1);
        hub.gauge("inflight").set(4);
        hub.histogram("lat").record(100);
        let prom = hub.render_prometheus();
        let a = prom.find("a_total 1").expect("a_total rendered");
        let b = prom.find("b_total 2").expect("b_total rendered");
        assert!(a < b, "names sorted:\n{prom}");
        assert!(prom.contains("# TYPE inflight gauge"), "{prom}");
        assert!(prom.contains("lat{quantile=\"0.5\"} 100"), "{prom}");
        assert!(prom.contains("lat_count 1"), "{prom}");
        let json = hub.render_json();
        assert!(json.contains("\"a_total\": 1, \"b_total\": 2"), "{json}");
        assert!(json.contains("\"inflight\": 4"), "{json}");
        assert!(json.contains("\"lat\": {\"count\": 1"), "{json}");
    }

    #[test]
    fn round_observer_feeds_the_standard_instruments() {
        let hub = Arc::new(TelemetryHub::new());
        let mut cb = round_observer(&hub);
        cb(RoundFlow { round: 1, bits: 24, logical: 3, deliveries: 4 });
        cb(RoundFlow { round: 2, bits: 8, logical: 1, deliveries: 2 });
        assert_eq!(hub.counter("engine_rounds_total").get(), 2);
        assert_eq!(hub.counter("engine_bits_total").get(), 32);
        assert_eq!(hub.counter("engine_logical_messages_total").get(), 4);
        assert_eq!(hub.counter("engine_deliveries_total").get(), 6);
        assert_eq!(hub.gauge("engine_inflight_last").get(), 2);
        assert_eq!(hub.gauge("engine_inflight_peak").get(), 4);
        assert_eq!(hub.histogram("engine_round_bits").snapshot().count(), 2);
    }

    fn send(round: Round, node: u32, bits: u64) -> Event {
        Event::send(round, NodeId(node), bits, 1)
    }

    #[test]
    fn sampling_k1_is_an_exact_passthrough() {
        let mut plain = Trace::default();
        let inner = Rc::new(RefCell::new(Trace::default()));
        let mut sampler = SamplingSink::new(Box::new(Rc::clone(&inner)), 1, 99);
        for r in 1..=3 {
            for v in 0..10u32 {
                let e = send(r, v, 8);
                plain.record(&e);
                sampler.record(&e);
                let d = Event::deliver(r, NodeId(v), NodeId((v + 1) % 10), 8);
                plain.record(&d);
                sampler.record(&d);
            }
        }
        for f in sampler.factors() {
            assert_eq!(f.total_events, f.sampled_events, "{f:?}");
            assert!((f.scale() - 1.0).abs() < 1e-12);
        }
        assert_eq!(inner.borrow().events(), plain.events(), "k=1 must be byte-identical");
    }

    #[test]
    fn sampling_is_node_deterministic_and_metered() {
        let k = 4u64;
        let seed = 7u64;
        let inner = Rc::new(RefCell::new(Trace::default()));
        let mut sampler = SamplingSink::new(Box::new(Rc::clone(&inner)), k, seed);
        let n = 1000u32;
        for v in 0..n {
            sampler.record(&send(1, v, 16));
        }
        // Structural events always pass.
        sampler.record(&Event::Crash { round: 1, node: NodeId(3) });
        let f = &sampler.factors()[0];
        assert_eq!(f.total_events, u64::from(n));
        assert_eq!(f.total_bits, 16 * u64::from(n));
        assert!(f.sampled_events > 0 && f.sampled_events < u64::from(n));
        // Scale-up is unbiased-by-construction: total/sampled.
        let est = f.sampled_events as f64 * f.scale();
        assert!((est - f.total_events as f64).abs() < 1e-6);
        // Around n/k nodes admitted, within 5 standard deviations.
        let expect = n as f64 / k as f64;
        let sd = (expect * (1.0 - 1.0 / k as f64)).sqrt();
        assert!(
            (f.sampled_events as f64 - expect).abs() < 5.0 * sd,
            "sampled {} vs expected {expect}",
            f.sampled_events
        );
        // Every forwarded send is from an admitted node; the crash came through.
        let hash = SamplingSink::send_stratum("");
        for e in inner.borrow().events() {
            match e {
                Event::Send { node, .. } => {
                    assert!(SamplingSink::admits(seed, k, hash, *node));
                }
                Event::Crash { node, .. } => assert_eq!(node.0, 3),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn sampling_strata_are_independent_per_kind() {
        let mut sampler = SamplingSink::new(Box::new(Trace::default()), 2, 1);
        for v in 0..200u32 {
            sampler.record(&Event::Send {
                round: 1,
                node: NodeId(v),
                bits: 8,
                logical: 1,
                id: crate::trace::EventId::NONE,
                kind: "alpha".to_string(),
                causes: Vec::new(),
            });
            sampler.record(&Event::Send {
                round: 1,
                node: NodeId(v),
                bits: 8,
                logical: 1,
                id: crate::trace::EventId::NONE,
                kind: "beta".to_string(),
                causes: Vec::new(),
            });
        }
        let factors = sampler.factors();
        assert_eq!(factors.len(), 2);
        assert_eq!(factors[0].stratum, "send/alpha");
        assert_eq!(factors[1].stratum, "send/beta");
        // Different kinds draw different node subsets (overwhelmingly).
        let a = SamplingSink::send_stratum("alpha");
        let b = SamplingSink::send_stratum("beta");
        let subset = |h: u64| -> Vec<u32> {
            (0..200).filter(|&v| SamplingSink::admits(1, 2, h, NodeId(v))).collect()
        };
        assert_ne!(subset(a), subset(b), "strata must be independently seeded");
    }

    #[test]
    fn flight_recorder_retains_the_last_rounds_and_replays() {
        let mut rec = FlightRecorder::new(3);
        let handle = rec.handle();
        for r in 1..=10u64 {
            rec.record(&Event::PhaseEnter { round: r, label: format!("P{r}") });
            rec.record(&send(r, (r % 5) as u32, 8));
            rec.record(&Event::deliver(r, NodeId(0), NodeId(1), 8));
        }
        let stats = handle.stats();
        assert_eq!(stats.total_events, 30);
        assert_eq!(stats.recorded_events, 30);
        assert_eq!(stats.evicted_rounds, 7);
        assert_eq!(stats.rounds_buffered, 3);
        assert_eq!(stats.oldest_round, 8);
        assert_eq!(stats.newest_round, 10);
        let jsonl = handle.snapshot_jsonl().expect("decodes");
        assert!(jsonl.starts_with("{\"schema\":\"ftagg-trace\",\"v\":2}\n"), "{jsonl}");
        // Only rounds 8..=10 survive, in order, fully decoded.
        let trace = Trace::from_jsonl(jsonl.as_bytes()).expect("replayable");
        let rounds: Vec<Round> = trace.events().iter().map(Event::round).collect();
        assert_eq!(trace.events().len(), 9);
        assert!(rounds.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*rounds.first().expect("events"), 8);
        assert_eq!(*rounds.last().expect("events"), 10);
    }

    #[test]
    fn flight_recorder_without_delivers_drops_them_and_reports_interest() {
        let mut rec = FlightRecorder::new(4).without_delivers();
        assert!(!rec.wants_delivers());
        let handle = rec.handle();
        rec.record(&send(1, 0, 8));
        rec.record(&Event::deliver(1, NodeId(1), NodeId(0), 8));
        rec.record(&Event::Crash { round: 1, node: NodeId(2) });
        let stats = handle.stats();
        assert_eq!(stats.total_events, 3);
        assert_eq!(stats.recorded_events, 2);
        let jsonl = handle.snapshot_jsonl().expect("decodes");
        assert!(!jsonl.contains("\"ev\":\"deliver\""), "{jsonl}");
        assert!(jsonl.contains("\"ev\":\"crash\""), "{jsonl}");
    }

    #[test]
    fn flight_recorder_dump_once_fires_once() {
        let dir = std::env::temp_dir().join("ftagg-telemetry-test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("dump_once.jsonl");
        let mut rec = FlightRecorder::new(2);
        rec.record(&send(1, 0, 8));
        let handle = rec.handle();
        let first = handle.dump_once(&path).expect("dump");
        assert!(first.is_some());
        let second = handle.dump_once(&path).expect("second call is a no-op");
        assert!(second.is_none());
        let text = std::fs::read_to_string(&path).expect("artifact written");
        assert!(text.contains("\"ev\":\"send\""), "{text}");
        std::fs::remove_file(&path).ok();
    }
}
