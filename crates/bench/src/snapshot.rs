//! Machine-readable benchmark snapshots (`BENCH_<date>.json`).
//!
//! A snapshot is one flat, versioned JSON object capturing both **exact**
//! behavioral statistics (deterministic for fixed seeds on any machine:
//! simulated bit counts, delivery counts, watchdog violation totals) and
//! **perf** figures (wall-clock throughput and thread-scaling, valid only
//! on the machine whose fingerprint is recorded under `info.*`). The
//! `bench_snapshot` binary and `ftagg-cli bench snapshot` emit one;
//! `ftagg-cli bench compare` diffs two:
//!
//! - `exact.*` keys must match **bit for bit** — any drift is a behavioral
//!   regression and fails the comparison;
//! - `perf.*` keys are oriented higher-is-better and are enforced within a
//!   relative tolerance only when the two machine fingerprints agree (or
//!   `--enforce-perf` is passed); across different machines they are
//!   reported as advisory.
//!
//! The workloads behind the numbers: the `bench_engine` flooding
//! micro-benchmark (engine throughput, with and without a [`Watchdog`]
//! sink — the monitored-vs-off overhead), a deterministic Algorithm 1
//! mini-sweep under `run_tradeoff_monitored` (CC statistics + violation
//! totals), and the work-stealing [`Runner`] at 1/2/4 threads
//! (thread-scaling speedups).

use crate::Env;
use caaf::Sum;
use ftagg::tradeoff::{run_tradeoff, run_tradeoff_monitored, TradeoffConfig};
use ftagg::Instance;
use netsim::{
    round_observer, topology, AnyEngine, BitFlood, EngineKind, FailureSchedule, FlightRecorder,
    FloodState, Message, MonitorConfig, NodeId, NodeLogic, RecorderStats, Round, RoundCtx, Runner,
    SampleFactor, SamplingSink, SoaEngine, SpanKind, Telemetry, TelemetryHub, Timeline,
    TimelineData, Watchdog,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Schema tag written into every snapshot.
pub const BENCH_SCHEMA: &str = "ftagg-bench";
/// Schema version written into every snapshot.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// A 32-bit flooding token (the `bench_engine` workload message).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Token(pub u32);

impl Message for Token {
    #[inline]
    fn bit_len(&self) -> u64 {
        32
    }
}

/// Every node originates one token in round 1; everyone floods everything
/// (shared with the `bench_engine` criterion bench).
pub struct Flooder {
    me: NodeId,
    flood: FloodState<Token>,
}

impl Flooder {
    /// The flooder for node `me`.
    #[inline]
    pub fn new(me: NodeId) -> Self {
        Flooder { me, flood: FloodState::new() }
    }
}

impl NodeLogic<Token> for Flooder {
    #[inline]
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Token>) {
        if ctx.round() == 1 {
            let t = Token(self.me.0);
            self.flood.mark_seen(t.clone());
            ctx.send(t);
        }
        let inbox: Vec<Token> = ctx.inbox().iter().map(|m| (*m.msg).clone()).collect();
        for t in inbox {
            if self.flood.first_sighting(t.clone()) {
                ctx.send(t);
            }
        }
    }
}

/// One all-to-all flood on a `side × side` grid, optionally under a
/// budget-less [`Watchdog`]; returns the engine telemetry, the total bits
/// sent, and the watchdog's violation count (0 when unmonitored).
pub fn flood_grid(side: usize, monitored: bool) -> (Telemetry, u64, u64) {
    flood_grid_on(side, monitored, EngineKind::Classic)
}

/// [`flood_grid`] on an explicit engine implementation — the SoA run of
/// the identical workload must reproduce the classic `exact.*` statistics
/// bit for bit (the snapshot-level equivalence pin).
pub fn flood_grid_on(side: usize, monitored: bool, kind: EngineKind) -> (Telemetry, u64, u64) {
    let g = topology::grid(side, side);
    let n = g.len();
    let d = Round::from(g.diameter());
    let mut eng = AnyEngine::new(kind, g, FailureSchedule::none(), Flooder::new);
    if monitored {
        eng.set_sink(Box::new(Watchdog::new(MonitorConfig::new(n))));
    }
    eng.run(2 * d + 2);
    let violations = match eng.take_sink() {
        Some(mut sink) => {
            sink.as_any_mut()
                .downcast_mut::<Watchdog>()
                .expect("flood_grid installs a Watchdog sink")
                .finish()
                .total
        }
        None => 0,
    };
    let bits = eng.metrics().total_bits();
    (eng.telemetry().clone(), bits, violations)
}

/// Single-origin flooder: node 0 injects one token in round 1 and every
/// node forwards it on first sighting — the million-node workload (its
/// delivery count is exactly the sum of live degrees, so it scales to
/// N = 2²⁰ where the all-to-all flood cannot).
pub struct SingleFlood {
    me: NodeId,
    seen: bool,
}

impl SingleFlood {
    /// The single-origin flooder for node `me`.
    #[inline]
    pub fn new(me: NodeId) -> Self {
        SingleFlood { me, seen: false }
    }
}

impl NodeLogic<Token> for SingleFlood {
    #[inline]
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Token>) {
        if ctx.round() == 1 && self.me == NodeId(0) {
            self.seen = true;
            ctx.send(Token(0));
            return;
        }
        if !self.seen && !ctx.inbox().is_empty() {
            self.seen = true;
            ctx.send(Token(0));
        }
    }
}

/// One single-origin flood over `hypercube(dim)` on the SoA engine with
/// lean (streaming) metrics; returns the telemetry and total bits. The
/// hypercube diameter is `dim` by construction, so no all-pairs BFS is
/// needed at N = 2²⁰.
pub fn flood_hypercube_soa(dim: u32) -> (Telemetry, u64) {
    let g = topology::hypercube(dim);
    let mut eng = SoaEngine::new(g, FailureSchedule::none(), SingleFlood::new);
    eng.use_lean_metrics();
    eng.run(Round::from(dim) + 2);
    let bits = eng.metrics().total_bits();
    (eng.telemetry().clone(), bits)
}

/// Sampling rate of the production recording rig (1-in-16 nodes per
/// stratum) and the deterministic admission seed the snapshot pins.
pub const RECORDED_SAMPLE_K: u64 = 16;
/// Seed of the recorded rig's deterministic node-admission hash.
pub const RECORDED_SAMPLE_SEED: u64 = 7;

/// [`flood_hypercube_soa`] with the production recording rig attached:
/// a telemetry hub observing the engine's round stream, plus sampled
/// tracing (a deterministic 1-in-[`RECORDED_SAMPLE_K`] [`SamplingSink`])
/// feeding a deliver-less [`FlightRecorder`] black box. Returns the
/// engine telemetry, total bits, the hub, the flight ring's final stats,
/// and the sampler's scale-up factors — the `exact.*` instrument
/// readings the snapshot pins.
pub fn flood_hypercube_soa_recorded(
    dim: u32,
) -> (Telemetry, u64, Arc<TelemetryHub>, RecorderStats, Vec<SampleFactor>) {
    let g = topology::hypercube(dim);
    let mut eng = SoaEngine::new(g, FailureSchedule::none(), SingleFlood::new);
    eng.use_lean_metrics();
    let hub = Arc::new(TelemetryHub::new());
    eng.stream_rounds(round_observer(&hub));
    let rec = FlightRecorder::new(8).without_delivers();
    let flight = rec.handle();
    eng.set_sink(Box::new(SamplingSink::new(
        Box::new(rec),
        RECORDED_SAMPLE_K,
        RECORDED_SAMPLE_SEED,
    )));
    eng.run(Round::from(dim) + 2);
    let bits = eng.metrics().total_bits();
    let factors = eng
        .take_sink()
        .and_then(|mut s| s.as_any_mut().downcast_mut::<SamplingSink>().map(|s| s.factors()))
        .unwrap_or_default();
    (eng.telemetry().clone(), bits, hub, flight.stats(), factors)
}

/// [`flood_hypercube_soa`] with the timeline profiler installed on
/// lane 1 — per-round engine-stage spans into the bounded ring, no flow
/// sink, matching the default `ftagg-cli timeline` rig (flow arrows are
/// opt-in because any sink turns on the per-delivery tracing path).
/// Returns the engine telemetry, total bits, and the captured timeline.
pub fn flood_hypercube_soa_timed(dim: u32) -> (Telemetry, u64, TimelineData) {
    let g = topology::hypercube(dim);
    let mut eng = SoaEngine::new(g, FailureSchedule::none(), SingleFlood::new);
    eng.use_lean_metrics();
    let tl = Timeline::new();
    tl.name_lane(1, "worker 0");
    eng.set_timeline(&tl, 1);
    eng.run(Round::from(dim) + 2);
    let bits = eng.metrics().total_bits();
    (eng.telemetry().clone(), bits, tl.snapshot())
}

/// One parsed (or freshly collected) benchmark snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Machine fingerprint and provenance (`info.*`): host, os, arch,
    /// cpus, date, workload size.
    pub info: BTreeMap<String, String>,
    /// Deterministic behavioral statistics (`exact.*`), equal across
    /// machines for a fixed workload.
    pub exact: BTreeMap<String, u64>,
    /// Wall-clock figures (`perf.*`), oriented higher-is-better.
    pub perf: BTreeMap<String, f64>,
}

impl Snapshot {
    /// Runs every snapshot workload and collects the numbers. `quick`
    /// shrinks the workloads for CI; snapshots taken at different sizes
    /// are not comparable and `compare` refuses to diff them.
    pub fn collect(quick: bool) -> Snapshot {
        let mut s = Snapshot::default();
        s.info.insert("info.host".into(), hostname());
        s.info.insert("info.os".into(), std::env::consts::OS.into());
        s.info.insert("info.arch".into(), std::env::consts::ARCH.into());
        s.info.insert(
            "info.cpus".into(),
            std::thread::available_parallelism().map_or(1, |n| n.get()).to_string(),
        );
        s.info.insert("info.date".into(), today_utc());
        s.info.insert("info.workload".into(), if quick { "quick" } else { "full" }.into());

        s.collect_engine(quick);
        s.collect_soa(quick);
        s.collect_telemetry(quick);
        s.collect_timeline(quick);
        s.collect_sweep(quick);
        s.collect_runner(quick);
        s
    }

    /// Telemetry overhead A/B: the production recording rig (hub on the
    /// round stream + 1-in-16 sampled tracing into a deliver-less flight
    /// recorder) against the plain engine on the identical single-origin
    /// hypercube flood, with the arms interleaved inside each rep so
    /// thermal and cache drift hit both equally. `exact.telemetry.*`
    /// pins the deterministic instrument readings (the hub must agree
    /// with the engine's own meters bit for bit; the sampler's full-
    /// stream meters and deterministic admission are pinned too);
    /// `perf.telemetry.recorded_ratio` is recorded-on / off throughput —
    /// the < 5% overhead acceptance at N = 2²⁰ reads as ratio ≥ 0.95 on
    /// the full workload.
    fn collect_telemetry(&mut self, quick: bool) {
        let dim = if quick { 12 } else { 20 };
        // More reps than the other lanes: the overhead gate reads a
        // ratio of two ~0.8 s arms, so both maxes need to converge.
        let reps = if quick { 2 } else { 5 };
        let (mut off_dps, mut on_dps) = (0.0f64, 0.0f64);
        let mut readings = None;
        for _ in 0..reps {
            let (t, _) = flood_hypercube_soa(dim);
            off_dps = off_dps.max(t.deliveries_per_sec());
            let (t, bits, hub, fs, factors) = flood_hypercube_soa_recorded(dim);
            on_dps = on_dps.max(t.deliveries_per_sec());
            readings = Some((t.deliveries, bits, hub, fs, factors));
        }
        let (deliveries, bits, hub, fs, factors) = readings.expect("at least one rep ran");
        let hub_deliveries = hub.counter("engine_deliveries_total").get();
        let hub_bits = hub.counter("engine_bits_total").get();
        assert_eq!(hub_deliveries, deliveries, "hub must agree with the engine's meters");
        assert_eq!(hub_bits, bits, "hub must agree with the engine's meters");
        // The sampler meters the full stream, so its per-stratum totals
        // are exact even though only 1-in-k nodes reach the black box.
        let sends_total: u64 = factors.iter().map(|f| f.total_events).sum();
        let sends_sampled: u64 = factors.iter().map(|f| f.sampled_events).sum();
        self.exact
            .insert("exact.telemetry.rounds".into(), hub.counter("engine_rounds_total").get());
        self.exact.insert("exact.telemetry.deliveries".into(), hub_deliveries);
        self.exact.insert("exact.telemetry.bits".into(), hub_bits);
        self.exact.insert("exact.telemetry.send_events".into(), sends_total);
        self.exact.insert("exact.telemetry.sampled_events".into(), sends_sampled);
        self.exact.insert("exact.telemetry.flight_rounds".into(), fs.rounds_buffered);
        self.exact.insert("exact.telemetry.flight_events".into(), fs.events_buffered);
        self.perf.insert(
            "perf.telemetry.recorded_ratio".into(),
            if off_dps > 0.0 { on_dps / off_dps } else { 0.0 },
        );
    }

    /// Timeline profiler overhead A/B: the SoA engine with per-round
    /// stage spans recorded into the bounded ring (the default
    /// `ftagg-cli timeline` rig — no flow sink, so the per-delivery
    /// tracing path stays cold) against the bare engine on the identical
    /// single-origin hypercube flood, arms interleaved inside each rep.
    /// `exact.timeline.*` pins the deterministic span inventory — one
    /// `Round` span per simulated round, nothing evicted — and the
    /// instrumented run's meters bit-identical to the bare run's (the
    /// profiler is a pure observer). `perf.timeline.recorded_ratio` is
    /// timeline-on / off throughput; the ≥ 0.95 acceptance reads
    /// directly off the full workload.
    fn collect_timeline(&mut self, quick: bool) {
        let dim = if quick { 12 } else { 20 };
        let reps = if quick { 2 } else { 5 };
        let (mut off_dps, mut on_dps) = (0.0f64, 0.0f64);
        let mut captured = None;
        for _ in 0..reps {
            let (t, bits_off) = flood_hypercube_soa(dim);
            off_dps = off_dps.max(t.deliveries_per_sec());
            let (t, bits, data) = flood_hypercube_soa_timed(dim);
            on_dps = on_dps.max(t.deliveries_per_sec());
            captured = Some((t.deliveries, bits, bits_off, data));
        }
        let (deliveries, bits, bits_off, data) = captured.expect("at least one rep ran");
        assert_eq!(bits, bits_off, "the timeline must not change simulated behavior");
        let round_spans = data.spans.iter().filter(|s| s.kind == SpanKind::Round).count() as u64;
        self.exact.insert("exact.timeline.round_spans".into(), round_spans);
        self.exact.insert("exact.timeline.deliveries".into(), deliveries);
        self.exact.insert("exact.timeline.bits".into(), bits);
        self.exact.insert("exact.timeline.dropped_spans".into(), data.dropped_spans);
        self.perf.insert(
            "perf.timeline.recorded_ratio".into(),
            if off_dps > 0.0 { on_dps / off_dps } else { 0.0 },
        );
    }

    /// Engine flood throughput, plain and monitored (best of `reps`).
    fn collect_engine(&mut self, quick: bool) {
        let side = if quick { 8 } else { 16 };
        let reps = if quick { 2 } else { 3 };
        let (mut rps, mut dps, mut mon_dps) = (0.0f64, 0.0f64, 0.0f64);
        let (mut bits, mut deliveries, mut peak, mut violations) = (0, 0, 0, 0);
        for _ in 0..reps {
            let (t, b, _) = flood_grid(side, false);
            rps = rps.max(t.rounds_per_sec());
            dps = dps.max(t.deliveries_per_sec());
            bits = b;
            deliveries = t.deliveries;
            peak = t.peak_inflight;
        }
        for _ in 0..reps {
            let (t, _, v) = flood_grid(side, true);
            mon_dps = mon_dps.max(t.deliveries_per_sec());
            violations = v;
        }
        self.exact.insert("exact.engine.total_bits".into(), bits);
        self.exact.insert("exact.engine.deliveries".into(), deliveries);
        self.exact.insert("exact.engine.peak_inflight".into(), peak);
        self.exact.insert("exact.monitor.flood_violations".into(), violations);
        self.perf.insert("perf.engine.rounds_per_sec".into(), rps);
        self.perf.insert("perf.engine.deliveries_per_sec".into(), dps);
        self.perf
            .insert("perf.monitor.flood_ratio".into(), if dps > 0.0 { mon_dps / dps } else { 0.0 });
    }

    /// The struct-of-arrays engine lane: (a) the SoA engine on the exact
    /// classic flood workload — its `exact.*` statistics must match
    /// `exact.engine.*` bit for bit; (b) the bit-packed [`BitFlood`] lane
    /// on a larger grid (the ≥ 10× flood microbench); (c) a single-origin
    /// flood on `hypercube(20)` (N = 2²⁰; `dim = 12` under `--quick`) —
    /// the million-node sweep the tentpole targets.
    fn collect_soa(&mut self, quick: bool) {
        // (a) SoA mirror of the classic flood.
        let side = if quick { 8 } else { 16 };
        let reps = if quick { 2 } else { 3 };
        let (mut dps, mut bits, mut deliveries, mut peak) = (0.0f64, 0, 0, 0);
        for _ in 0..reps {
            let (t, b, _) = flood_grid_on(side, false, EngineKind::Soa);
            dps = dps.max(t.deliveries_per_sec());
            bits = b;
            deliveries = t.deliveries;
            peak = t.peak_inflight;
        }
        self.exact.insert("exact.soa.total_bits".into(), bits);
        self.exact.insert("exact.soa.deliveries".into(), deliveries);
        self.exact.insert("exact.soa.peak_inflight".into(), peak);
        self.perf.insert("perf.soa.deliveries_per_sec".into(), dps);

        // (b) Bit-packed all-to-all flood: same workload family at a size
        // where the word-parallel lane can show its throughput.
        let side = if quick { 24 } else { 48 };
        let g = topology::grid(side, side);
        let d = Round::from(g.diameter());
        let origins: Vec<NodeId> = g.nodes().collect();
        let (mut fdps, mut freport) = (0.0f64, None);
        for _ in 0..reps {
            let mut lane = BitFlood::new(g.clone(), &FailureSchedule::none(), &origins, 32);
            let r = lane.run(2 * d + 2);
            fdps = fdps.max(r.deliveries_per_sec());
            freport = Some(r);
        }
        let r = freport.expect("at least one flood rep ran");
        self.exact.insert("exact.flood.deliveries".into(), r.deliveries);
        self.exact.insert("exact.flood.total_bits".into(), r.total_bits);
        self.exact.insert("exact.flood.max_bits".into(), r.max_bits);
        self.perf.insert("perf.flood.deliveries_per_sec".into(), fdps);

        // (c) Million-node single-origin flood (SoA, lean metrics).
        let dim = if quick { 12 } else { 20 };
        let (t, bits) = flood_hypercube_soa(dim);
        self.exact.insert("exact.e6.total_bits".into(), bits);
        self.exact.insert("exact.e6.deliveries".into(), t.deliveries);
        self.perf.insert("perf.e6.deliveries_per_sec".into(), t.deliveries_per_sec());
    }

    /// Deterministic Algorithm 1 mini-sweep, plain then monitored: CC
    /// statistics come from the monitored runs (identical to plain by the
    /// watchdog's passivity); the two timed loops give the monitored
    /// overhead on a real protocol.
    fn collect_sweep(&mut self, quick: bool) {
        let trials = if quick { 4 } else { 8 };
        let (b, c, f) = (84u64, 2u32, 5usize);
        let env = Env::random(17, if quick { 20 } else { 28 }, f, b, c);
        let inst = env.instance();
        let t_plain = Instant::now();
        for seed in 0..trials {
            let r = run_tradeoff(&Sum, &inst, &TradeoffConfig { b, c, f, seed });
            assert!(r.correct, "snapshot sweep must be correct (seed {seed})");
        }
        let plain = t_plain.elapsed().as_secs_f64();
        let (mut sum_cc, mut worst_cc, mut sum_rounds, mut correct, mut violations) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let t_mon = Instant::now();
        for seed in 0..trials {
            let (r, m) =
                run_tradeoff_monitored(&Sum, &inst, &TradeoffConfig { b, c, f, seed }, false);
            sum_cc += r.metrics.max_bits();
            worst_cc = worst_cc.max(r.metrics.max_bits());
            sum_rounds += r.rounds;
            correct += u64::from(r.correct);
            violations += m.total;
        }
        let mon = t_mon.elapsed().as_secs_f64();
        self.exact.insert("exact.sweep.trials".into(), trials);
        self.exact.insert("exact.sweep.sum_cc".into(), sum_cc);
        self.exact.insert("exact.sweep.worst_cc".into(), worst_cc);
        self.exact.insert("exact.sweep.sum_rounds".into(), sum_rounds);
        self.exact.insert("exact.sweep.correct".into(), correct);
        self.exact.insert("exact.sweep.violations".into(), violations);
        self.perf
            .insert("perf.monitor.sweep_ratio".into(), if mon > 0.0 { plain / mon } else { 0.0 });
    }

    /// Work-stealing runner thread-scaling over a fixed trial set.
    fn collect_runner(&mut self, quick: bool) {
        let trials: Vec<u64> = (0..if quick { 8 } else { 16 }).collect();
        let (b, c, f) = (63u64, 2u32, 4usize);
        let env = Env::random(23, 24, f, b, c);
        let graph = env.graph.clone();
        let horizon = b * Round::from(graph.diameter().max(1));
        let trial = |s: u64| -> u64 {
            let mut rng = StdRng::seed_from_u64(s);
            let schedule =
                crate::stretch_respecting_schedule(&graph, NodeId(0), f, horizon, c, 50, &mut rng);
            let n = graph.len();
            let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100)).collect();
            let inst = Instance::new(graph.clone(), NodeId(0), inputs, schedule, 100)
                .expect("snapshot trial instances are valid");
            run_tradeoff(&Sum, &inst, &TradeoffConfig { b, c, f, seed: s }).metrics.max_bits()
        };
        let time_at = |threads: usize| -> (f64, Vec<u64>) {
            let t0 = Instant::now();
            let out = Runner::new(threads).run(&trials, trial);
            (t0.elapsed().as_secs_f64(), out)
        };
        let (t1, ccs) = time_at(1);
        let (t2, _) = time_at(2);
        let (t4, _) = time_at(4);
        self.exact.insert("exact.runner.trials".into(), trials.len() as u64);
        self.exact.insert("exact.runner.sum_cc".into(), ccs.iter().sum());
        self.perf.insert("perf.runner.speedup_2t".into(), if t2 > 0.0 { t1 / t2 } else { 0.0 });
        self.perf.insert("perf.runner.speedup_4t".into(), if t4 > 0.0 { t1 / t4 } else { 0.0 });

        // Per-worker telemetry overhead: plain vs instrumented runs
        // interleaved within each rep, best-of-reps each arm, ratio
        // plain/instrumented (1.0 = free, < 1.0 = instrumented slower).
        let reps = if quick { 2 } else { 3 };
        let (mut best_plain, mut best_instr) = (f64::INFINITY, f64::INFINITY);
        let mut instr_trials = 0u64;
        for _ in 0..reps {
            let t0 = Instant::now();
            let _ = Runner::new(0).run(&trials, trial);
            best_plain = best_plain.min(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let (_, tele) = Runner::new(0).run_observed(&trials, |s, _| trial(s), None, None);
            best_instr = best_instr.min(t0.elapsed().as_secs_f64());
            instr_trials = tele.trials();
        }
        self.exact.insert("exact.runner.telemetry_trials".into(), instr_trials);
        self.perf.insert(
            "perf.runner.telemetry_ratio".into(),
            if best_instr > 0.0 { best_plain / best_instr } else { 0.0 },
        );
    }

    /// Renders the snapshot as its canonical JSON form: one flat object,
    /// one key per line (git-diff friendly), keys sorted within the
    /// `info.*` / `exact.*` / `perf.*` groups.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"{BENCH_SCHEMA}\",");
        let _ = writeln!(out, "  \"v\": {BENCH_SCHEMA_VERSION},");
        for (k, v) in &self.info {
            let _ = writeln!(out, "  \"{k}\": \"{}\",", escape(v));
        }
        for (k, v) in &self.exact {
            let _ = writeln!(out, "  \"{k}\": {v},");
        }
        let mut rest = self.perf.iter().peekable();
        while let Some((k, v)) = rest.next() {
            let comma = if rest.peek().is_some() { "," } else { "" };
            let _ = writeln!(out, "  \"{k}\": {v}{comma}");
        }
        out.push_str("}\n");
        out
    }

    /// Parses a snapshot from its JSON form, sorting keys into the
    /// `info.*` / `exact.*` / `perf.*` groups by prefix.
    ///
    /// # Errors
    ///
    /// Returns a one-line message on malformed JSON, a wrong schema tag or
    /// version, or a value that does not parse for its key's group.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let body = text
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or("snapshot is not a JSON object")?;
        let mut s = Snapshot::default();
        let (mut schema, mut version) = (None, None);
        for entry in split_top_level(body) {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = parse_entry(entry)?;
            match key.as_str() {
                "schema" => schema = Some(value),
                "v" => {
                    version =
                        Some(value.parse::<u64>().map_err(|_| format!("bad version {value:?}"))?);
                }
                k if k.starts_with("info.") => {
                    s.info.insert(key, value);
                }
                k if k.starts_with("exact.") => {
                    let v = value.parse().map_err(|_| format!("bad integer for {k:?}"))?;
                    s.exact.insert(key, v);
                }
                k if k.starts_with("perf.") => {
                    let v = value.parse().map_err(|_| format!("bad number for {k:?}"))?;
                    s.perf.insert(key, v);
                }
                other => return Err(format!("unknown snapshot key {other:?}")),
            }
        }
        match (schema.as_deref(), version) {
            (Some(BENCH_SCHEMA), Some(BENCH_SCHEMA_VERSION)) => Ok(s),
            (Some(BENCH_SCHEMA), v) => Err(format!(
                "unsupported snapshot version {v:?} (this build reads v{BENCH_SCHEMA_VERSION})"
            )),
            (got, _) => Err(format!("not a {BENCH_SCHEMA} snapshot (schema tag {got:?})")),
        }
    }

    /// The machine fingerprint relevant to perf comparability.
    fn fingerprint(&self) -> Vec<Option<&String>> {
        ["info.os", "info.arch", "info.cpus"].iter().map(|k| self.info.get(*k)).collect()
    }

    /// The recorded `info.cpus` (available parallelism at collection
    /// time), if present and numeric.
    pub fn cpus(&self) -> Option<u64> {
        self.info.get("info.cpus").and_then(|c| c.parse().ok())
    }
}

/// The thread count a thread-scaling perf key measures
/// (`perf.runner.speedup_4t` → 4), or `None` for ordinary perf keys.
/// Scaling figures measured on a host with fewer cores than the thread
/// count are scheduler noise, not signal — `compare` and the trend
/// engine skip them with a soft warning instead of failing.
pub fn scaling_threads(key: &str) -> Option<u64> {
    key.strip_prefix("perf.runner.speedup_")?.strip_suffix('t')?.parse().ok()
}

/// Diffs `candidate` against `baseline`.
///
/// Every `exact.*` statistic present in the baseline must match the
/// candidate exactly. `perf.*` figures must stay within `tolerance`
/// (relative, e.g. `0.15` = up to 15% slower) when the machine
/// fingerprints agree or `enforce_perf` is set; otherwise they are
/// reported as advisory. Returns the rendered comparison on success.
///
/// # Errors
///
/// Returns the rendered comparison plus a regression summary when any
/// enforced statistic regressed, or a one-line message when the two
/// snapshots were collected at different workload sizes.
pub fn compare(
    baseline: &Snapshot,
    candidate: &Snapshot,
    tolerance: f64,
    enforce_perf: bool,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let (bw, cw) = (baseline.info.get("info.workload"), candidate.info.get("info.workload"));
    if bw != cw {
        return Err(format!(
            "snapshots are not comparable: baseline workload {bw:?} vs candidate {cw:?}"
        ));
    }
    let same_machine = baseline.fingerprint() == candidate.fingerprint();
    let enforce = enforce_perf || same_machine;
    let mut out = String::new();
    let mut failures: Vec<String> = Vec::new();
    let _ = writeln!(
        out,
        "bench compare: {} baseline vs {} candidate (fingerprint {}, perf {})",
        baseline.info.get("info.date").map_or("?", String::as_str),
        candidate.info.get("info.date").map_or("?", String::as_str),
        if same_machine { "match" } else { "differs" },
        if enforce {
            format!("enforced at {:.0}% tolerance", tolerance * 100.0)
        } else {
            "advisory".into()
        },
    );
    for (k, bv) in &baseline.exact {
        match candidate.exact.get(k) {
            Some(cv) if cv == bv => {
                let _ = writeln!(out, "  ok       {k} = {bv}");
            }
            Some(cv) => {
                failures.push(format!("{k} changed: {bv} -> {cv}"));
                let _ = writeln!(out, "  CHANGED  {k}: {bv} -> {cv}");
            }
            None => {
                failures.push(format!("{k} missing from candidate"));
                let _ = writeln!(out, "  MISSING  {k}");
            }
        }
    }
    let host_cpus = candidate.cpus();
    for (k, bv) in &baseline.perf {
        match candidate.perf.get(k) {
            Some(cv) => {
                if let Some(n) = scaling_threads(k) {
                    if host_cpus.is_none_or(|c| c < n) {
                        let _ = writeln!(
                            out,
                            "  skipped  {k}: {bv:.2} -> {cv:.2} (host has {} cores, \
                             {n}-thread scaling not meaningful)",
                            host_cpus.map_or("?".into(), |c| c.to_string()),
                        );
                        continue;
                    }
                }
                let ratio = if *bv > 0.0 { cv / bv } else { 1.0 };
                let regressed = ratio < 1.0 - tolerance;
                let verdict = match (regressed, enforce) {
                    (false, _) => "ok      ",
                    (true, true) => "SLOWER  ",
                    (true, false) => "advisory",
                };
                let _ = writeln!(
                    out,
                    "  {verdict} {k}: {bv:.1} -> {cv:.1} ({:+.1}%)",
                    (ratio - 1.0) * 100.0
                );
                if regressed && enforce {
                    failures.push(format!("{k} regressed by {:.1}%", (1.0 - ratio) * 100.0));
                }
            }
            None => {
                failures.push(format!("{k} missing from candidate"));
                let _ = writeln!(out, "  MISSING  {k}");
            }
        }
    }
    for k in candidate.exact.keys().filter(|k| !baseline.exact.contains_key(*k)) {
        let _ = writeln!(out, "  new      {k} (not in baseline)");
    }
    if failures.is_empty() {
        let _ = writeln!(out, "no regressions.");
        Ok(out)
    } else {
        let _ = writeln!(out, "{} regression(s):", failures.len());
        for f in &failures {
            let _ = writeln!(out, "  - {f}");
        }
        Err(out)
    }
}

/// The default snapshot file name for today: `BENCH_<yyyy-mm-dd>.json`.
pub fn default_snapshot_name() -> String {
    format!("BENCH_{}.json", today_utc())
}

pub(crate) fn hostname() -> String {
    if let Ok(h) = std::env::var("HOSTNAME") {
        if !h.trim().is_empty() {
            return h.trim().to_string();
        }
    }
    std::fs::read_to_string("/etc/hostname")
        .ok()
        .map(|h| h.trim().to_string())
        .filter(|h| !h.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Today's UTC date as `yyyy-mm-dd` (civil-from-days; no external crates).
pub(crate) fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Howard Hinnant's `civil_from_days`: days since 1970-01-01 → (y, m, d).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

pub(crate) fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c => vec![c],
        })
        .collect()
}

/// Splits a JSON object body into `"key": value` entries at top level
/// (commas inside quoted strings do not split).
pub(crate) fn split_top_level(body: &str) -> Vec<String> {
    let mut entries = Vec::new();
    let mut cur = String::new();
    let (mut in_str, mut esc) = (false, false);
    for ch in body.chars() {
        if esc {
            esc = false;
            cur.push(ch);
            continue;
        }
        match ch {
            '\\' if in_str => {
                esc = true;
                cur.push(ch);
            }
            '"' => {
                in_str = !in_str;
                cur.push(ch);
            }
            ',' if !in_str => {
                entries.push(std::mem::take(&mut cur));
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        entries.push(cur);
    }
    entries
}

/// Parses one `"key": value` entry; string values are unquoted and
/// unescaped, numeric values returned as their raw text.
pub(crate) fn parse_entry(entry: &str) -> Result<(String, String), String> {
    let rest = entry.trim().strip_prefix('"').ok_or_else(|| format!("bad entry {entry:?}"))?;
    let end = rest.find('"').ok_or_else(|| format!("unterminated key in {entry:?}"))?;
    let key = rest[..end].to_string();
    let value = rest[end + 1..]
        .trim()
        .strip_prefix(':')
        .ok_or_else(|| format!("missing ':' in {entry:?}"))?
        .trim();
    if let Some(quoted) = value.strip_prefix('"') {
        let inner =
            quoted.strip_suffix('"').ok_or_else(|| format!("unterminated string in {entry:?}"))?;
        Ok((key, inner.replace("\\\"", "\"").replace("\\\\", "\\")))
    } else {
        Ok((key, value.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Snapshot {
        let mut s = Snapshot::default();
        s.info.insert("info.os".into(), "linux".into());
        s.info.insert("info.arch".into(), "x86_64".into());
        s.info.insert("info.cpus".into(), "8".into());
        s.info.insert("info.date".into(), "2026-08-06".into());
        s.info.insert("info.workload".into(), "quick".into());
        s.exact.insert("exact.sweep.sum_cc".into(), 1234);
        s.perf.insert("perf.engine.rounds_per_sec".into(), 5000.5);
        s
    }

    #[test]
    fn json_roundtrips() {
        let s = tiny();
        let parsed = Snapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(Snapshot::from_json("").is_err());
        assert!(Snapshot::from_json("[]").is_err());
        assert!(Snapshot::from_json("{\"schema\": \"other\", \"v\": 1}").is_err());
        let wrong_v = "{\"schema\": \"ftagg-bench\", \"v\": 99}";
        assert!(Snapshot::from_json(wrong_v).unwrap_err().contains("version"));
        let bad_num = "{\"schema\": \"ftagg-bench\", \"v\": 1, \"exact.x\": \"nope\"}";
        assert!(Snapshot::from_json(bad_num).is_err());
        let stray = "{\"schema\": \"ftagg-bench\", \"v\": 1, \"mystery\": 3}";
        assert!(Snapshot::from_json(stray).unwrap_err().contains("mystery"));
    }

    #[test]
    fn compare_flags_exact_drift_and_perf_regressions() {
        let base = tiny();
        assert!(compare(&base, &base.clone(), 0.1, false).is_ok());

        let mut drift = base.clone();
        drift.exact.insert("exact.sweep.sum_cc".into(), 999);
        let err = compare(&base, &drift, 0.1, false).unwrap_err();
        assert!(err.contains("1234 -> 999"), "{err}");

        // Same fingerprint: a 50% perf drop beyond 10% tolerance fails...
        let mut slow = base.clone();
        slow.perf.insert("perf.engine.rounds_per_sec".into(), 2500.0);
        assert!(compare(&base, &slow, 0.1, false).is_err());
        // ...but a drop within tolerance passes.
        let mut ok = base.clone();
        ok.perf.insert("perf.engine.rounds_per_sec".into(), 4800.0);
        assert!(compare(&base, &ok, 0.1, false).is_ok());

        // Different fingerprint: perf is advisory unless enforced.
        let mut other_machine = slow.clone();
        other_machine.info.insert("info.cpus".into(), "2".into());
        let report = compare(&base, &other_machine, 0.1, false).unwrap();
        assert!(report.contains("advisory"), "{report}");
        assert!(compare(&base, &other_machine, 0.1, true).is_err());
    }

    #[test]
    fn compare_skips_thread_scaling_beyond_host_cores() {
        assert_eq!(scaling_threads("perf.runner.speedup_4t"), Some(4));
        assert_eq!(scaling_threads("perf.runner.speedup_2t"), Some(2));
        assert_eq!(scaling_threads("perf.engine.rounds_per_sec"), None);
        assert_eq!(scaling_threads("perf.runner.telemetry_ratio"), None);

        // A 1-cpu host reporting speedup_4t = 0.5 would fail the tolerance
        // band, but the guard downgrades it to a skip: thread scaling on a
        // single core is scheduler noise.
        let mut base = tiny();
        base.info.insert("info.cpus".into(), "1".into());
        base.perf.insert("perf.runner.speedup_4t".into(), 1.0);
        let mut cand = base.clone();
        cand.perf.insert("perf.runner.speedup_4t".into(), 0.5);
        let report = compare(&base, &cand, 0.1, false).unwrap();
        assert!(report.contains("skipped"), "{report}");
        assert!(report.contains("4-thread scaling not meaningful"), "{report}");

        // On a host with enough cores the same drop still fails.
        let mut big_base = tiny();
        big_base.perf.insert("perf.runner.speedup_4t".into(), 1.0);
        let mut big_cand = big_base.clone();
        big_cand.perf.insert("perf.runner.speedup_4t".into(), 0.5);
        assert!(compare(&big_base, &big_cand, 0.1, false).is_err());
    }

    #[test]
    fn compare_refuses_mismatched_workloads() {
        let base = tiny();
        let mut full = base.clone();
        full.info.insert("info.workload".into(), "full".into());
        assert!(compare(&base, &full, 0.1, false).unwrap_err().contains("not comparable"));
    }

    #[test]
    fn collect_quick_produces_clean_deterministic_stats() {
        let s = Snapshot::collect(true);
        assert_eq!(s.exact["exact.monitor.flood_violations"], 0);
        assert_eq!(s.exact["exact.sweep.violations"], 0);
        assert_eq!(s.exact["exact.sweep.correct"], s.exact["exact.sweep.trials"]);
        assert!(s.exact["exact.engine.total_bits"] > 0);
        assert!(s.perf["perf.engine.rounds_per_sec"] > 0.0);
        assert!(s.perf["perf.monitor.flood_ratio"] > 0.0);
        // The SoA engine ran the identical workload: exact statistics must
        // agree with the classic engine's bit for bit.
        assert_eq!(s.exact["exact.soa.total_bits"], s.exact["exact.engine.total_bits"]);
        assert_eq!(s.exact["exact.soa.deliveries"], s.exact["exact.engine.deliveries"]);
        assert_eq!(s.exact["exact.soa.peak_inflight"], s.exact["exact.engine.peak_inflight"]);
        assert!(s.exact["exact.flood.deliveries"] > 0);
        assert!(s.perf["perf.flood.deliveries_per_sec"] > 0.0);
        assert!(s.exact["exact.e6.deliveries"] > 0);
        assert!(s.perf["perf.e6.deliveries_per_sec"] > 0.0);
        // The recorded run's instruments agree with the plain run's meters.
        assert_eq!(s.exact["exact.telemetry.deliveries"], s.exact["exact.e6.deliveries"]);
        assert_eq!(s.exact["exact.telemetry.bits"], s.exact["exact.e6.total_bits"]);
        // Every node floods exactly once, so the sampler's full-stream
        // meter must equal N, and the 1-in-16 admission keeps a strict,
        // non-empty subset of the black box's input.
        assert_eq!(s.exact["exact.telemetry.send_events"], 1 << 12);
        assert!(s.exact["exact.telemetry.sampled_events"] > 0);
        assert!(s.exact["exact.telemetry.sampled_events"] < s.exact["exact.telemetry.send_events"]);
        assert!(s.exact["exact.telemetry.flight_events"] > 0);
        assert!(s.exact["exact.telemetry.flight_rounds"] > 0);
        assert!(s.perf["perf.telemetry.recorded_ratio"] > 0.0);
        // The timeline profiler is a pure observer: the instrumented run
        // reproduces the bare run's meters bit for bit, records exactly
        // one Round span per simulated round, and evicts nothing.
        assert_eq!(s.exact["exact.timeline.deliveries"], s.exact["exact.e6.deliveries"]);
        assert_eq!(s.exact["exact.timeline.bits"], s.exact["exact.e6.total_bits"]);
        assert_eq!(s.exact["exact.timeline.round_spans"], s.exact["exact.telemetry.rounds"]);
        assert_eq!(s.exact["exact.timeline.dropped_spans"], 0);
        assert!(s.perf["perf.timeline.recorded_ratio"] > 0.0);
        // The instrumented runner ran the same trial set as the plain one.
        assert_eq!(s.exact["exact.runner.telemetry_trials"], s.exact["exact.runner.trials"]);
        assert!(s.perf["perf.runner.telemetry_ratio"] > 0.0);
        // The exact group must be reproducible within one process.
        let again = Snapshot::collect(true);
        assert_eq!(s.exact, again.exact);
        // And survive the JSON round trip.
        let parsed = Snapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed.exact, s.exact);
    }

    #[test]
    fn bitflood_matches_engine_flood_counters() {
        // The bit-packed lane on the snapshot's own workload family: every
        // counter it reports must equal the generic engine running the
        // per-message flooder on the same grid.
        let side = 6;
        let (t, bits, _) = flood_grid_on(side, false, EngineKind::Classic);
        let g = topology::grid(side, side);
        let d = Round::from(g.diameter());
        let origins: Vec<NodeId> = g.nodes().collect();
        let mut lane = BitFlood::new(g, &FailureSchedule::none(), &origins, 32);
        let r = lane.run(2 * d + 2);
        assert_eq!(r.deliveries, t.deliveries);
        assert_eq!(r.total_bits, bits);
    }

    #[test]
    fn civil_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        assert_eq!(civil_from_days(20_671), (2026, 8, 6));
    }
}
