//! # Scale-proof telemetry: counters, sampled tracing, flight recorder
//!
//! Observability for the regime where full tracing is impossible. At
//! N = 2²⁰ the engines move hundreds of millions of deliveries per run;
//! a [`TraceSink`] that touches every one of them costs
//! more than the simulation itself. This module layers three cheaper
//! instruments, each with a stated fidelity:
//!
//! - **[`RoundStats`]** — the engine's fixed round-level meters: four
//!   counters, two gauges and two mergeable [`Histogram`]s (log₂
//!   buckets, exact quantiles up to 256 rounds). It is a sink that reads
//!   only [`TraceSink::end_round`], so it costs one call per *round* and
//!   the engine builds no send or delivery event for it. Exported as
//!   Prometheus-style text or JSON.
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
//! Every sink here answers [`TraceSink::wants`] below
//! [`Wants::Deliveries`], so the engine skips per-delivery event
//! construction entirely when no other installed sink needs it.

use crate::adversary::Round;
use crate::engine::RoundFlow;
use crate::graph::NodeId;
use crate::runner::Histogram;
use crate::trace::{DeltaSink, Event, TraceSink, Wants, TRACE_SCHEMA_VERSION};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer. Used for
/// every deterministic "coin" (sampled-node admission, sampled timeline
/// flows) so results are identical across runs and platforms.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a name: stable seeds for sampling strata.
pub(crate) fn fnv64(s: &str) -> u64 {
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
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`). Every name [`RoundStats`] exports must
/// pass, or the exposition text is not scrapeable; the CLI's export
/// golden test lints every exported name through this.
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut bytes = name.bytes();
    let Some(first) = bytes.next() else { return false };
    let head_ok = first.is_ascii_alphabetic() || first == b'_' || first == b':';
    head_ok && bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
}

/// The engine's round-level meters: a sink that reads only
/// [`TraceSink::end_round`], so it costs one call per round and turns on
/// no send or delivery event. Each field is one exported instrument; the
/// name in its doc is the one [`RoundStats::render_prometheus`] and
/// [`RoundStats::render_json`] write.
#[derive(Clone, Debug, Default)]
pub struct RoundStats {
    /// Rounds retired (`engine_rounds_total`).
    pub rounds: u64,
    /// Bits broadcast (`engine_bits_total`).
    pub bits: u64,
    /// Logical messages broadcast (`engine_logical_messages_total`).
    pub logical: u64,
    /// Deliveries enqueued (`engine_deliveries_total`).
    pub deliveries: u64,
    /// Deliveries the last round enqueued (`engine_inflight_last`).
    pub inflight_last: u64,
    /// The most deliveries one round enqueued (`engine_inflight_peak`).
    pub inflight_peak: u64,
    /// Bits broadcast per round (`engine_round_bits`).
    pub round_bits: Histogram,
    /// Deliveries enqueued per round (`engine_round_deliveries`).
    pub round_deliveries: Histogram,
}

impl RoundStats {
    /// All meters at zero.
    pub fn new() -> RoundStats {
        RoundStats::default()
    }

    /// Absorbs `other`: counters add, gauges keep the maximum and
    /// histograms merge bucket-exactly. Folding a fixed list of stats in
    /// list order gives the same totals at any thread count.
    pub fn merge(&mut self, other: &RoundStats) {
        self.rounds += other.rounds;
        self.bits += other.bits;
        self.logical += other.logical;
        self.deliveries += other.deliveries;
        self.inflight_last = self.inflight_last.max(other.inflight_last);
        self.inflight_peak = self.inflight_peak.max(other.inflight_peak);
        self.round_bits.merge(&other.round_bits);
        self.round_deliveries.merge(&other.round_deliveries);
    }

    /// The counters as `(name, value)`, sorted by name.
    fn counters(&self) -> [(&'static str, u64); 4] {
        [
            ("engine_bits_total", self.bits),
            ("engine_deliveries_total", self.deliveries),
            ("engine_logical_messages_total", self.logical),
            ("engine_rounds_total", self.rounds),
        ]
    }

    /// The gauges as `(name, value)`, sorted by name.
    fn gauges(&self) -> [(&'static str, u64); 2] {
        [("engine_inflight_last", self.inflight_last), ("engine_inflight_peak", self.inflight_peak)]
    }

    /// The histograms as `(name, hist)`, sorted by name.
    fn hists(&self) -> [(&'static str, &Histogram); 2] {
        [
            ("engine_round_bits", &self.round_bits),
            ("engine_round_deliveries", &self.round_deliveries),
        ]
    }

    /// Renders every instrument as Prometheus exposition text (counters
    /// and gauges as-is; histograms as summaries with `quantile` labels
    /// plus `_count` and `_max` series), names sorted within each kind.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in self.counters() {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in self.gauges() {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        for (name, h) in self.hists() {
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", h.quantile(q));
            }
            let _ = writeln!(out, "{name}_count {}\n{name}_max {}", h.samples(), h.max());
        }
        out
    }

    /// Renders every instrument as one deterministic JSON object
    /// (`{"counters":{...},"gauges":{...},"histograms":{...}}`, names
    /// sorted).
    pub fn render_json(&self) -> String {
        let scalars = |items: &[(&str, u64)]| {
            let fields: Vec<String> = items.iter().map(|(n, v)| format!("\"{n}\": {v}")).collect();
            format!("{{{}}}", fields.join(", "))
        };
        let hists: Vec<String> = self
            .hists()
            .iter()
            .map(|(n, h)| {
                format!(
                    "\"{n}\": {{\"count\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                    h.samples(),
                    h.max(),
                    h.quantile(0.5),
                    h.quantile(0.9),
                    h.quantile(0.99)
                )
            })
            .collect();
        format!(
            "{{\"counters\": {}, \"gauges\": {}, \"histograms\": {{{}}}}}\n",
            scalars(&self.counters()),
            scalars(&self.gauges()),
            hists.join(", ")
        )
    }
}

impl TraceSink for RoundStats {
    fn record(&mut self, _: &Event) {}

    fn end_round(&mut self, flow: &RoundFlow) {
        self.rounds += 1;
        self.bits += flow.bits;
        self.logical += flow.logical;
        self.deliveries += flow.deliveries;
        self.inflight_last = flow.deliveries;
        self.inflight_peak = self.inflight_peak.max(flow.deliveries);
        self.round_bits.record(flow.bits);
        self.round_deliveries.record(flow.deliveries);
    }

    fn wants(&self) -> Wants {
        Wants::Rounds
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

    fn end_round(&mut self, flow: &RoundFlow) {
        self.inner.end_round(flow);
    }

    fn wants(&self) -> Wants {
        self.inner.wants()
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
        if let Event::Deliver { .. } = e {
            return;
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
    /// Events actually encoded: `total_events` minus the deliveries a
    /// sibling sink had the engine build.
    pub recorded_events: u64,
    /// Rounds evicted from the head of the ring.
    pub evicted_rounds: u64,
    /// The oldest round still retained.
    pub oldest_round: Round,
    /// The newest round seen.
    pub newest_round: Round,
}

/// The black box: a [`TraceSink`] keeping the last R rounds of events as
/// per-round [`DeltaSink`] segments in a bounded ring. It never records
/// deliveries and tells the engine not to build them
/// ([`Wants::Events`]): sends, crashes, phases and decides are retained
/// at full fidelity — enough for replay, metrics and blame, which are all
/// send-driven — at a per-round instead of per-delivery cost. Dumping decodes
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
                total_events: 0,
                recorded_events: 0,
                evicted_rounds: 0,
                dumped: false,
            })),
        }
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

    fn wants(&self) -> Wants {
        Wants::Events
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

    /// Stats over two rounds: 24 bits, 3 messages and 4 deliveries, then
    /// 8 bits, 1 message and 2 deliveries.
    fn two_rounds() -> RoundStats {
        let mut s = RoundStats::new();
        s.end_round(&RoundFlow { round: 1, bits: 24, logical: 3, deliveries: 4 });
        s.end_round(&RoundFlow { round: 2, bits: 8, logical: 1, deliveries: 2 });
        s
    }

    #[test]
    fn round_stats_meter_every_round_and_want_nothing_else() {
        let s = two_rounds();
        assert_eq!((s.rounds, s.bits, s.logical, s.deliveries), (2, 32, 4, 6));
        assert_eq!((s.inflight_last, s.inflight_peak), (2, 4));
        assert_eq!((s.round_bits.samples(), s.round_bits.max()), (2, 24));
        assert_eq!((s.round_deliveries.samples(), s.round_deliveries.max()), (2, 4));
        assert_eq!(s.wants(), Wants::Rounds);
    }

    #[test]
    fn round_stats_merge_adds_counters_raises_gauges_and_merges_hists() {
        let a = two_rounds();
        let mut b = RoundStats::new();
        b.end_round(&RoundFlow { round: 1, bits: 100, logical: 2, deliveries: 3 });
        let mut merged = RoundStats::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!((merged.rounds, merged.bits, merged.logical, merged.deliveries), (3, 132, 6, 9));
        assert_eq!(merged.inflight_last, 3, "gauges merge by max");
        assert_eq!(merged.inflight_peak, 4, "gauges merge by max");
        assert_eq!((merged.round_bits.samples(), merged.round_bits.max()), (3, 100));
        // Merging in either order gives the same rendered stats.
        let mut flipped = RoundStats::new();
        flipped.merge(&b);
        flipped.merge(&a);
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
    fn round_stats_render_prometheus_and_json_sorted() {
        let s = two_rounds();
        let prom = s.render_prometheus();
        let bits = prom.find("engine_bits_total 32").expect("bits rendered");
        let rounds = prom.find("engine_rounds_total 2").expect("rounds rendered");
        assert!(bits < rounds, "names sorted:\n{prom}");
        assert!(prom.contains("# TYPE engine_inflight_peak gauge"), "{prom}");
        assert!(prom.contains("engine_round_bits{quantile=\"0.5\"} 8"), "{prom}");
        assert!(prom.contains("engine_round_deliveries_count 2"), "{prom}");
        let json = s.render_json();
        assert!(json.starts_with("{\"counters\": {\"engine_bits_total\": 32, "), "{json}");
        assert!(
            json.contains("\"engine_inflight_last\": 2, \"engine_inflight_peak\": 4"),
            "{json}"
        );
        assert!(json.contains("\"engine_round_bits\": {\"count\": 2, \"max\": 24"), "{json}");
        assert!(json.ends_with("}}\n"), "{json}");
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
        assert_eq!(stats.recorded_events, 20, "deliveries are offered but never recorded");
        assert_eq!(stats.evicted_rounds, 7);
        assert_eq!(stats.rounds_buffered, 3);
        assert_eq!(stats.oldest_round, 8);
        assert_eq!(stats.newest_round, 10);
        let jsonl = handle.snapshot_jsonl().expect("decodes");
        assert!(jsonl.starts_with("{\"schema\":\"ftagg-trace\",\"v\":2}\n"), "{jsonl}");
        // Only rounds 8..=10 survive, in order, fully decoded.
        let trace = Trace::from_jsonl(jsonl.as_bytes()).expect("replayable");
        let rounds: Vec<Round> = trace.events().iter().map(Event::round).collect();
        assert_eq!(trace.events().len(), 6);
        assert!(rounds.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*rounds.first().expect("events"), 8);
        assert_eq!(*rounds.last().expect("events"), 10);
    }

    #[test]
    fn flight_recorder_drops_deliveries_and_wants_events() {
        let mut rec = FlightRecorder::new(4);
        assert_eq!(rec.wants(), Wants::Events);
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
