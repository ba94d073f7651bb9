//! Machine-readable benchmark snapshots (`BENCH_<date>.json`).
//!
//! A snapshot is one flat, versioned JSON object holding two groups of
//! numbers. `ftagg-cli bench snapshot` emits one; `ftagg-cli bench
//! compare` diffs two.
//!
//! - `exact.*` keys are behaviour digests: simulated bit counts, delivery
//!   counts and watchdog verdicts of fixed workloads. They are the same
//!   on every machine, and `compare` requires them to match bit for bit.
//! - `perf.*` keys are observer-overhead A/B ratios. Each lane runs a
//!   bare arm and an instrumented arm in interleaved reps and takes one
//!   ratio per rep (bare seconds over instrumented seconds, so 1.0 means
//!   the observer is free). The key holds the median ratio and its
//!   `<key>_iqr` partner holds IQR/median. They describe the host the
//!   snapshot ran on, so `compare` does not check them.
//!
//! Simulator speed is measured by `perfbench/` (medians with spreads,
//! bounds in `BENCHMARK.json`). Workloads that no overhead lane times
//! run once, for their `exact.*` keys.

use crate::Env;
use caaf::Sum;
use ftagg::tradeoff::{run_tradeoff, run_tradeoff_monitored, TradeoffConfig};
use ftagg::Instance;
use netsim::json::{quote, Json};
use netsim::{
    topology, Engine, FailureSchedule, FlightRecorder, FloodState, Message, MonitorConfig, NodeId,
    NodeLogic, RecorderStats, Round, RoundCtx, RoundStats, Runner, SampleFactor, SamplingSink,
    SpanKind, Telemetry, Timeline, TimelineData, Watchdog,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
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

/// Every node originates one token in round 1; everyone floods everything.
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
    let g = topology::grid(side, side);
    let n = g.len();
    let d = Round::from(g.diameter());
    let mut eng = Engine::new(g, FailureSchedule::none(), Flooder::new);
    let watchdog = monitored.then(|| Rc::new(RefCell::new(Watchdog::new(MonitorConfig::new(n)))));
    if let Some(w) = &watchdog {
        eng.add_sink(Box::new(Rc::clone(w)));
    }
    eng.run(2 * d + 2);
    let violations = watchdog.map_or(0, |w| w.borrow_mut().finish().total);
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

/// One single-origin flood over `hypercube(dim)` with lean (streaming)
/// metrics; returns the telemetry and total bits. The
/// hypercube diameter is `dim` by construction, so the flood never asks
/// the graph for it: every hypercube node has the same eccentricity,
/// which makes it the slowest case of [`netsim::Graph::diameter`].
pub fn flood_hypercube_soa(dim: u32) -> (Telemetry, u64) {
    let g = topology::hypercube(dim);
    let mut eng = Engine::new(g, FailureSchedule::none(), SingleFlood::new);
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
/// [`RoundStats`] metering every round, plus sampled tracing (a
/// deterministic 1-in-[`RECORDED_SAMPLE_K`] [`SamplingSink`]) feeding a
/// [`FlightRecorder`] black box. Returns the engine telemetry, total
/// bits, the round stats, the flight ring's final stats, and the
/// sampler's scale-up factors — the `exact.*` instrument readings the
/// snapshot pins.
pub fn flood_hypercube_soa_recorded(
    dim: u32,
) -> (Telemetry, u64, RoundStats, RecorderStats, Vec<SampleFactor>) {
    let g = topology::hypercube(dim);
    let mut eng = Engine::new(g, FailureSchedule::none(), SingleFlood::new);
    eng.use_lean_metrics();
    let stats = Rc::new(RefCell::new(RoundStats::new()));
    eng.add_sink(Box::new(Rc::clone(&stats)));
    let rec = FlightRecorder::new(8);
    let flight = rec.handle();
    let sampler = Rc::new(RefCell::new(SamplingSink::new(
        Box::new(rec),
        RECORDED_SAMPLE_K,
        RECORDED_SAMPLE_SEED,
    )));
    eng.add_sink(Box::new(Rc::clone(&sampler)));
    eng.run(Round::from(dim) + 2);
    let bits = eng.metrics().total_bits();
    let factors = sampler.borrow().factors();
    (eng.telemetry().clone(), bits, stats.take(), flight.stats(), factors)
}

/// [`flood_hypercube_soa`] with the timeline profiler installed on
/// lane 1 — per-round engine-stage spans into the bounded ring, no flow
/// sink, matching the default `ftagg-cli timeline` rig (flow arrows are
/// opt-in because any sink turns on the per-delivery tracing path).
/// Returns the engine telemetry, total bits, and the captured timeline.
pub fn flood_hypercube_soa_timed(dim: u32) -> (Telemetry, u64, TimelineData) {
    let g = topology::hypercube(dim);
    let mut eng = Engine::new(g, FailureSchedule::none(), SingleFlood::new);
    eng.use_lean_metrics();
    let tl = Timeline::new();
    tl.name_lane(1, "worker 0");
    eng.set_timeline(&tl, 1);
    eng.run(Round::from(dim) + 2);
    let bits = eng.metrics().total_bits();
    (eng.telemetry().clone(), bits, tl.snapshot())
}

/// Interleaved reps per overhead lane on the full workload.
const FULL_REPS: usize = 7;
/// Back-to-back grid floods timed per arm of the full workload's
/// `perf.monitor.flood_ratio` lane. One 16×16 flood takes about 15 ms
/// (2-vCPU x86-64 VM), too short to time alone; eight make each arm
/// take over 100 ms.
const FULL_FLOOD_BATCH: usize = 8;
/// Interleaved reps per overhead lane on the `--quick` workload.
const QUICK_REPS: usize = 3;

/// One observer-overhead A/B lane. Runs the bare arm (`off`) and the
/// instrumented arm (`on`) `reps` times each, alternating which goes
/// first so drift in host speed hits both arms alike, and takes one
/// ratio per rep: bare seconds over instrumented seconds (1.0 = free,
/// 0.9 = the observer costs 10% of throughput). Each arm returns the
/// seconds it measured. Returns the median ratio and IQR/median.
fn overhead_ratio(
    reps: usize,
    mut off: impl FnMut() -> f64,
    mut on: impl FnMut() -> f64,
) -> (f64, f64) {
    let mut ratios: Vec<f64> = (0..reps)
        .map(|rep| {
            let (off_s, on_s) = if rep % 2 == 0 {
                let off_s = off();
                (off_s, on())
            } else {
                let on_s = on();
                (off(), on_s)
            };
            off_s / on_s
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = quantile(&ratios, 0.5);
    (median, (quantile(&ratios, 0.75) - quantile(&ratios, 0.25)) / median)
}

/// The `p`-quantile of a non-empty ascending sample set, interpolating
/// linearly between the closest ranks.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let h = (sorted.len() - 1) as f64 * p;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// One parsed (or freshly collected) benchmark snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Provenance (`info.*`): host, os, arch, cpus, date, workload size.
    pub info: BTreeMap<String, String>,
    /// Deterministic behavioral statistics (`exact.*`), equal across
    /// machines for a fixed workload.
    pub exact: BTreeMap<String, u64>,
    /// Observer-overhead ratios (`perf.*`): per-lane medians and their
    /// `_iqr` spreads.
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

        let reps = if quick { QUICK_REPS } else { FULL_REPS };
        s.collect_floods(quick, reps);
        s.collect_telemetry(quick, reps);
        s.collect_timeline(quick, reps);
        s.collect_sweep(quick, reps);
        s.collect_runner(quick);
        s
    }

    /// Records one overhead lane: the median under `key`, IQR/median
    /// under `<key>_iqr`.
    fn record_ratio(&mut self, key: &str, (median, iqr): (f64, f64)) {
        self.perf.insert(key.into(), median);
        self.perf.insert(format!("{key}_iqr"), iqr);
    }

    /// Telemetry overhead A/B: the production recording rig
    /// ([`RoundStats`] + 1-in-16 sampled tracing into a flight recorder)
    /// against the plain engine on the identical single-origin hypercube
    /// flood. The bare arm is the million-node flood itself
    /// (`exact.e6.*`). `exact.telemetry.*` pins the deterministic
    /// instrument readings: the stats must agree with the engine's own
    /// meters bit for bit, and the sampler's full-stream meters and
    /// deterministic admission are pinned too.
    /// `perf.telemetry.recorded_ratio` is recorded-on / off throughput.
    fn collect_telemetry(&mut self, quick: bool, reps: usize) {
        let dim = if quick { 12 } else { 20 };
        let (mut bare, mut recorded) = (None, None);
        let ratio = overhead_ratio(
            reps,
            || {
                let (t, bits) = flood_hypercube_soa(dim);
                bare = Some((t.deliveries, bits));
                t.busy.as_secs_f64()
            },
            || {
                let run = flood_hypercube_soa_recorded(dim);
                let secs = run.0.busy.as_secs_f64();
                recorded = Some(run);
                secs
            },
        );
        let (bare_deliveries, bare_bits) = bare.expect("at least one rep ran");
        self.exact.insert("exact.e6.deliveries".into(), bare_deliveries);
        self.exact.insert("exact.e6.total_bits".into(), bare_bits);
        let (t, bits, stats, fs, factors) = recorded.expect("at least one rep ran");
        assert_eq!(stats.deliveries, t.deliveries, "stats must agree with the engine's meters");
        assert_eq!(stats.bits, bits, "stats must agree with the engine's meters");
        // The sampler meters the full stream, so its per-stratum totals
        // are exact even though only 1-in-k nodes reach the black box.
        let sends_total: u64 = factors.iter().map(|f| f.total_events).sum();
        let sends_sampled: u64 = factors.iter().map(|f| f.sampled_events).sum();
        self.exact.insert("exact.telemetry.rounds".into(), stats.rounds);
        self.exact.insert("exact.telemetry.deliveries".into(), stats.deliveries);
        self.exact.insert("exact.telemetry.bits".into(), stats.bits);
        self.exact.insert("exact.telemetry.send_events".into(), sends_total);
        self.exact.insert("exact.telemetry.sampled_events".into(), sends_sampled);
        self.exact.insert("exact.telemetry.flight_rounds".into(), fs.rounds_buffered);
        self.exact.insert("exact.telemetry.flight_events".into(), fs.events_buffered);
        self.record_ratio("perf.telemetry.recorded_ratio", ratio);
    }

    /// Timeline profiler overhead A/B: the engine with per-round
    /// stage spans recorded into the bounded ring (the default
    /// `ftagg-cli timeline` rig — no flow sink, so the per-delivery
    /// tracing path stays cold) against the bare engine on the identical
    /// single-origin hypercube flood. `exact.timeline.*` pins the
    /// deterministic span inventory — one `Round` span per simulated
    /// round, nothing evicted — and the instrumented run's meters
    /// bit-identical to the bare run's (the profiler is a pure observer).
    /// `perf.timeline.recorded_ratio` is timeline-on / off throughput.
    fn collect_timeline(&mut self, quick: bool, reps: usize) {
        let dim = if quick { 12 } else { 20 };
        let (mut bits_off, mut timed) = (0, None);
        let ratio = overhead_ratio(
            reps,
            || {
                let (t, bits) = flood_hypercube_soa(dim);
                bits_off = bits;
                t.busy.as_secs_f64()
            },
            || {
                let (t, bits, data) = flood_hypercube_soa_timed(dim);
                timed = Some((t.deliveries, bits, data));
                t.busy.as_secs_f64()
            },
        );
        let (deliveries, bits, data) = timed.expect("at least one rep ran");
        assert_eq!(bits, bits_off, "the timeline must not change simulated behavior");
        let round_spans = data.spans.iter().filter(|s| s.kind == SpanKind::Round).count() as u64;
        self.exact.insert("exact.timeline.round_spans".into(), round_spans);
        self.exact.insert("exact.timeline.deliveries".into(), deliveries);
        self.exact.insert("exact.timeline.bits".into(), bits);
        self.exact.insert("exact.timeline.dropped_spans".into(), data.dropped_spans);
        self.record_ratio("perf.timeline.recorded_ratio", ratio);
    }

    /// The all-to-all grid flood, plain against watchdog-monitored: one
    /// flood of each arm gives `exact.engine.*` and `exact.monitor.*`, and
    /// each arm of the `perf.monitor.flood_ratio` lane sums the engine's
    /// busy time over a batch of back-to-back floods.
    fn collect_floods(&mut self, quick: bool, reps: usize) {
        let side = if quick { 8 } else { 16 };
        let batch = if quick { 1 } else { FULL_FLOOD_BATCH };
        let (mut plain, mut violations) = (None, 0);
        let ratio = overhead_ratio(
            reps,
            || {
                (0..batch)
                    .map(|_| {
                        let (t, bits, _) = flood_grid(side, false);
                        let secs = t.busy.as_secs_f64();
                        plain = Some((t, bits));
                        secs
                    })
                    .sum()
            },
            || {
                (0..batch)
                    .map(|_| {
                        let (t, _, v) = flood_grid(side, true);
                        violations = v;
                        t.busy.as_secs_f64()
                    })
                    .sum()
            },
        );
        let (t, bits) = plain.expect("at least one rep ran");
        self.exact.insert("exact.engine.total_bits".into(), bits);
        self.exact.insert("exact.engine.deliveries".into(), t.deliveries);
        self.exact.insert("exact.engine.peak_inflight".into(), t.peak_inflight);
        self.exact.insert("exact.monitor.flood_violations".into(), violations);
        self.record_ratio("perf.monitor.flood_ratio", ratio);
    }

    /// Deterministic Algorithm 1 mini-sweep, plain against monitored:
    /// CC statistics come from the monitored runs (identical to plain by
    /// the watchdog's passivity); the pair gives the monitored overhead
    /// on a real protocol as `perf.monitor.sweep_ratio`.
    fn collect_sweep(&mut self, quick: bool, reps: usize) {
        let trials = if quick { 4 } else { 8 };
        let (b, c, f) = (84u64, 2u32, 5usize);
        let env = Env::random(17, if quick { 20 } else { 28 }, f, b, c);
        let inst = env.instance();
        let mut totals = None;
        let ratio = overhead_ratio(
            reps,
            || {
                let t0 = Instant::now();
                for seed in 0..trials {
                    let r = run_tradeoff(&Sum, &inst, &TradeoffConfig { b, c, f, seed });
                    assert!(r.correct, "snapshot sweep must be correct (seed {seed})");
                }
                t0.elapsed().as_secs_f64()
            },
            || {
                let t0 = Instant::now();
                let (mut sum_cc, mut worst_cc, mut sum_rounds, mut correct, mut violations) =
                    (0u64, 0u64, 0u64, 0u64, 0u64);
                for seed in 0..trials {
                    let cfg = TradeoffConfig { b, c, f, seed };
                    let (r, m) = run_tradeoff_monitored(&Sum, &inst, &cfg, false);
                    sum_cc += r.metrics.max_bits();
                    worst_cc = worst_cc.max(r.metrics.max_bits());
                    sum_rounds += r.rounds;
                    correct += u64::from(r.correct);
                    violations += m.total;
                }
                let secs = t0.elapsed().as_secs_f64();
                totals = Some((sum_cc, worst_cc, sum_rounds, correct, violations));
                secs
            },
        );
        let (sum_cc, worst_cc, sum_rounds, correct, violations) =
            totals.expect("at least one rep ran");
        self.exact.insert("exact.sweep.trials".into(), trials);
        self.exact.insert("exact.sweep.sum_cc".into(), sum_cc);
        self.exact.insert("exact.sweep.worst_cc".into(), worst_cc);
        self.exact.insert("exact.sweep.sum_rounds".into(), sum_rounds);
        self.exact.insert("exact.sweep.correct".into(), correct);
        self.exact.insert("exact.sweep.violations".into(), violations);
        self.record_ratio("perf.monitor.sweep_ratio", ratio);
    }

    /// A fixed Algorithm 1 trial set through the runner on one worker, as
    /// perfbench runs it: `exact.runner.*` pins the trial count, the
    /// summed CC and the trials the runner's telemetry counted.
    fn collect_runner(&mut self, quick: bool) {
        let trials: Vec<u64> = (0..if quick { 8 } else { 16 }).collect();
        let (b, c, f) = (63u64, 2u32, 4usize);
        let env = Env::random(23, 24, f, b, c);
        let graph = env.graph.clone();
        let horizon = b * Round::from(graph.diameter().max(1));
        let trial = |s: u64, _lane: u32| -> u64 {
            let mut rng = StdRng::seed_from_u64(s);
            let schedule =
                crate::stretch_respecting_schedule(&graph, NodeId(0), f, horizon, c, 50, &mut rng);
            let n = graph.len();
            let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100)).collect();
            let inst = Instance::new(graph.clone(), NodeId(0), inputs, schedule, 100)
                .expect("snapshot trial instances are valid");
            run_tradeoff(&Sum, &inst, &TradeoffConfig { b, c, f, seed: s }).metrics.max_bits()
        };
        let (ccs, tele) = Runner::new(1).run_observed(&trials, trial, None, None);
        self.exact.insert("exact.runner.trials".into(), trials.len() as u64);
        self.exact.insert("exact.runner.sum_cc".into(), ccs.iter().sum());
        self.exact.insert("exact.runner.telemetry_trials".into(), tele.trials());
    }

    /// Renders the snapshot as its canonical JSON form: one flat object,
    /// one key per line (git-diff friendly), keys sorted within the
    /// `info.*` / `exact.*` / `perf.*` groups.
    pub fn to_json(&self) -> String {
        let mut entries = vec![
            format!("\"schema\": {}", quote(BENCH_SCHEMA)),
            format!("\"v\": {BENCH_SCHEMA_VERSION}"),
        ];
        entries.extend(self.info.iter().map(|(k, v)| format!("{}: {}", quote(k), quote(v))));
        entries.extend(self.exact.iter().map(|(k, v)| format!("{}: {v}", quote(k))));
        entries.extend(self.perf.iter().map(|(k, v)| format!("{}: {v}", quote(k))));
        format!("{{\n  {}\n}}\n", entries.join(",\n  "))
    }

    /// Parses a snapshot from its JSON form, sorting keys into the
    /// `info.*` / `exact.*` / `perf.*` groups by prefix.
    ///
    /// # Errors
    ///
    /// Returns a one-line message on malformed JSON, a wrong schema tag or
    /// version, or a value that does not parse for its key's group.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let root = Json::parse(text)?;
        let entries = root.as_object().ok_or("snapshot is not a JSON object")?;
        let version = entries.get("v").and_then(Json::as_u64);
        match (entries.get("schema").and_then(Json::as_str), version) {
            (Some(BENCH_SCHEMA), Some(BENCH_SCHEMA_VERSION)) => {}
            (Some(BENCH_SCHEMA), v) => {
                return Err(format!(
                    "unsupported snapshot version {v:?} (this build reads v{BENCH_SCHEMA_VERSION})"
                ))
            }
            (got, _) => return Err(format!("not a {BENCH_SCHEMA} snapshot (schema tag {got:?})")),
        }
        let mut s = Snapshot::default();
        for (key, value) in entries {
            let bad = |what: &str| format!("bad {what} for {key:?}");
            if key.starts_with("info.") {
                s.info.insert(key.to_string(), value.as_str().ok_or_else(|| bad("string"))?.into());
            } else if key.starts_with("exact.") {
                s.exact.insert(key.to_string(), value.as_u64().ok_or_else(|| bad("integer"))?);
            } else if key.starts_with("perf.") {
                s.perf.insert(key.to_string(), value.as_f64().ok_or_else(|| bad("number"))?);
            } else if key != "schema" && key != "v" {
                return Err(format!("unknown snapshot key {key:?}"));
            }
        }
        Ok(s)
    }
}

/// Diffs `candidate` against `baseline` on the behaviour digests: every
/// `exact.*` key of the baseline must be in the candidate with the same
/// value. `perf.*` keys measure the host and are not compared. Returns
/// the rendered comparison on success.
///
/// # Errors
///
/// Returns the rendered comparison plus a summary when an `exact.*` key
/// changed or went missing, or a one-line message when the two snapshots
/// were collected at different workload sizes.
pub fn compare(baseline: &Snapshot, candidate: &Snapshot) -> Result<String, String> {
    use std::fmt::Write as _;
    let (bw, cw) = (baseline.info.get("info.workload"), candidate.info.get("info.workload"));
    if bw != cw {
        return Err(format!(
            "snapshots are not comparable: baseline workload {bw:?} vs candidate {cw:?}"
        ));
    }
    let mut out = String::new();
    let mut failures: Vec<String> = Vec::new();
    let _ = writeln!(
        out,
        "bench compare: {} baseline vs {} candidate (exact.* keys)",
        baseline.info.get("info.date").map_or("?", String::as_str),
        candidate.info.get("info.date").map_or("?", String::as_str),
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

fn hostname() -> String {
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
fn today_utc() -> String {
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
        s.exact.insert("exact.sweep.trials".into(), 8);
        s.perf.insert("perf.telemetry.recorded_ratio".into(), 0.93);
        s.perf.insert("perf.telemetry.recorded_ratio_iqr".into(), 0.04);
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
    fn compare_checks_exact_keys_only() {
        let base = tiny();
        assert!(compare(&base, &base.clone()).is_ok());

        // Perf keys and the host fingerprint are not compared: a halved
        // ratio, a new perf key and a different machine all pass.
        let mut other_host = base.clone();
        other_host.perf.insert("perf.telemetry.recorded_ratio".into(), 0.4);
        other_host.perf.insert("perf.monitor.flood_ratio".into(), 0.7);
        other_host.info.insert("info.cpus".into(), "1".into());
        let report = compare(&base, &other_host).unwrap();
        assert!(report.contains("no regressions"), "{report}");

        let mut drift = base.clone();
        drift.exact.insert("exact.sweep.sum_cc".into(), 999);
        let err = compare(&base, &drift).unwrap_err();
        assert!(err.contains("1234 -> 999"), "{err}");

        let mut missing = base.clone();
        missing.exact.remove("exact.sweep.trials");
        let err = compare(&base, &missing).unwrap_err();
        assert!(err.contains("exact.sweep.trials missing"), "{err}");

        // A key only the candidate has is reported, not failed.
        let mut extra = base.clone();
        extra.exact.insert("exact.sweep.new_digest".into(), 7);
        let report = compare(&base, &extra).unwrap();
        assert!(report.contains("new      exact.sweep.new_digest"), "{report}");
    }

    #[test]
    fn compare_refuses_mismatched_workloads() {
        let base = tiny();
        let mut full = base.clone();
        full.info.insert("info.workload".into(), "full".into());
        assert!(compare(&base, &full).unwrap_err().contains("not comparable"));
    }

    #[test]
    fn overhead_lane_alternates_arms_and_takes_median_and_iqr() {
        use std::cell::RefCell;
        // Off is always 1 s; on varies, so the per-rep ratios are
        // 0.8, 2.0, 0.5, 1.0, 1.25 — sorted 0.5, 0.8, 1.0, 1.25, 2.0.
        let on_secs = [1.25, 0.5, 2.0, 1.0, 0.8];
        let calls = RefCell::new(Vec::new());
        let mut on_rep = 0;
        let (median, iqr) = overhead_ratio(
            on_secs.len(),
            || {
                calls.borrow_mut().push("off");
                1.0
            },
            || {
                calls.borrow_mut().push("on");
                on_rep += 1;
                on_secs[on_rep - 1]
            },
        );
        assert_eq!(
            calls.into_inner(),
            ["off", "on", "on", "off", "off", "on", "on", "off", "off", "on"],
            "the arm that runs first alternates rep by rep"
        );
        assert_eq!(median, 1.0);
        // Quartiles at ranks 1 and 3 of five: 0.8 and 1.25.
        assert!((iqr - 0.45).abs() < 1e-12, "iqr/median = {iqr}");
        // Quartiles interpolate between ranks on an even-sized set.
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.25), 1.75);
        // An observer that costs nothing reads 1.0 with no spread.
        assert_eq!(overhead_ratio(3, || 2.0, || 2.0), (1.0, 0.0));
    }

    #[test]
    fn collect_quick_produces_clean_deterministic_stats() {
        let s = Snapshot::collect(true);
        assert_eq!(s.exact["exact.monitor.flood_violations"], 0);
        assert_eq!(s.exact["exact.sweep.violations"], 0);
        assert_eq!(s.exact["exact.sweep.correct"], s.exact["exact.sweep.trials"]);
        assert!(s.exact["exact.engine.total_bits"] > 0);
        assert!(s.exact["exact.e6.deliveries"] > 0);
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
        // The timeline profiler is a pure observer: the instrumented run
        // reproduces the bare run's meters bit for bit, records exactly
        // one Round span per simulated round, and evicts nothing.
        assert_eq!(s.exact["exact.timeline.deliveries"], s.exact["exact.e6.deliveries"]);
        assert_eq!(s.exact["exact.timeline.bits"], s.exact["exact.e6.total_bits"]);
        assert_eq!(s.exact["exact.timeline.round_spans"], s.exact["exact.telemetry.rounds"]);
        assert_eq!(s.exact["exact.timeline.dropped_spans"], 0);
        // The runner's telemetry counted every trial it ran.
        assert_eq!(s.exact["exact.runner.telemetry_trials"], s.exact["exact.runner.trials"]);
        // The only perf keys are the four overhead lanes, each a positive
        // median with a finite, non-negative spread.
        let lanes = [
            "perf.monitor.flood_ratio",
            "perf.monitor.sweep_ratio",
            "perf.telemetry.recorded_ratio",
            "perf.timeline.recorded_ratio",
        ];
        let mut want: Vec<String> =
            lanes.iter().flat_map(|k| [k.to_string(), format!("{k}_iqr")]).collect();
        want.sort();
        assert_eq!(s.perf.keys().cloned().collect::<Vec<_>>(), want);
        for k in lanes {
            assert!(s.perf[k] > 0.0, "{k} = {}", s.perf[k]);
            let iqr = s.perf[&format!("{k}_iqr")];
            assert!(iqr.is_finite() && iqr >= 0.0, "{k}_iqr = {iqr}");
        }
        // The exact group must be reproducible within one process.
        let again = Snapshot::collect(true);
        assert_eq!(s.exact, again.exact);
        // And survive the JSON round trip.
        let parsed = Snapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed.exact, s.exact);
    }

    #[test]
    fn civil_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        assert_eq!(civil_from_days(20_671), (2026, 8, 6));
    }
}
