//! The observability layer's one inviolable contract: observing an
//! execution may never perturb it. For a grid of seeded scenarios each
//! execution is run three ways — tracing off, with the in-memory
//! [`Trace`] sink, and with the streaming [`JsonlSink`] — and everything
//! observable without a sink (delivered messages, node activations,
//! [`PairReport`] outcomes, every [`Metrics`] counter) must be
//! byte-identical across the three.

use std::cell::RefCell;
use std::rc::Rc;

use caaf::Sum;
use ftagg::pair::Tweaks;
use ftagg::{run_pair, run_pair_observed, Instance, Observe, PairReport};
use netsim::{
    adversary::schedules, topology, Engine, Event, FailureSchedule, FlightRecorder, Graph,
    JsonlSink, Message, Metrics, NodeId, NodeLogic, PhaseStats, Received, Round, RoundCtx,
    RoundStats, SamplingSink, SpanKind, Timeline, Trace, TraceSink,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sink the test keeps a handle to, so it can read it after the run.
fn shared<S>(sink: S) -> Rc<RefCell<S>> {
    Rc::new(RefCell::new(sink))
}

/// Everything a [`Metrics`] exposes, collected into one comparable value.
#[derive(Debug, PartialEq, Eq)]
struct MetricsFingerprint {
    bits_per_node: Vec<u64>,
    per_round: Vec<(Round, u64)>,
    max_bits: u64,
    total_bits: u64,
    bottleneck: Option<NodeId>,
    last_send_round: Option<Round>,
    phases: Vec<PhaseStats>,
}

fn fingerprint(m: &Metrics) -> MetricsFingerprint {
    MetricsFingerprint {
        bits_per_node: m.bits_per_node().to_vec(),
        per_round: m.per_round_bits().collect(),
        max_bits: m.max_bits(),
        total_bits: m.total_bits(),
        bottleneck: m.bottleneck(),
        last_send_round: m.last_send_round(),
        phases: m.phases(),
    }
}

// ---------------------------------------------------------------------
// Part 1: raw engine with probe nodes that record their own deliveries.
// The probes observe the execution from the inside, so "delivered
// messages are identical" is checked without relying on any sink.
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
struct Ping {
    from: NodeId,
    sent_round: Round,
}

impl Message for Ping {
    fn bit_len(&self) -> u64 {
        32
    }
}

/// Deterministic per-(node, round) send decision (cheap mix).
fn sends_in(seed: u64, v: NodeId, r: Round) -> bool {
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(v.0).wrapping_mul(0x517c_c1b7_2722_0a95))
        .wrapping_add(r.wrapping_mul(0x2545_f491_4f6c_dd1d));
    x ^= x >> 31;
    x % 2 == 0
}

struct Probe {
    me: NodeId,
    seed: u64,
    active_rounds: Vec<Round>,
    received: Vec<(NodeId, Round, Round)>,
}

impl NodeLogic<Ping> for Probe {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Ping>) {
        let r = ctx.round();
        self.active_rounds.push(r);
        for m in ctx.inbox() {
            let Received { from, msg } = m;
            self.received.push((from, msg.sent_round, r));
        }
        if sends_in(self.seed, self.me, r) {
            ctx.send(Ping { from: self.me, sent_round: r });
        }
    }
}

fn probe_setup(seed: u64) -> (Graph, FailureSchedule, Round) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 6 + (seed % 10) as usize;
    let g = if seed.is_multiple_of(2) {
        topology::connected_gnp(n, 0.3, &mut rng)
    } else {
        topology::random_tree(n, &mut rng)
    };
    let horizon = 12;
    let mut s = FailureSchedule::none();
    for _ in 0..(seed % 3) {
        s.crash(NodeId(rng.gen_range(1..n as u32)), rng.gen_range(1..=horizon));
    }
    (g, s, horizon)
}

/// What one probe run exposes without any sink.
type ProbeObservation = (Vec<(Vec<Round>, Vec<(NodeId, Round, Round)>)>, MetricsFingerprint);

fn run_probes(
    seed: u64,
    observe: impl FnOnce(&mut Engine<Ping, Probe>),
) -> (ProbeObservation, Engine<Ping, Probe>) {
    let (g, s, horizon) = probe_setup(seed);
    let mut eng = Engine::new(g, s, |v| Probe {
        me: v,
        seed,
        active_rounds: Vec::new(),
        received: Vec::new(),
    });
    observe(&mut eng);
    eng.run(horizon);
    let per_node = eng
        .graph()
        .nodes()
        .map(|v| {
            let p = eng.node(v);
            (p.active_rounds.clone(), p.received.clone())
        })
        .collect();
    let fp = fingerprint(eng.metrics());
    ((per_node, fp), eng)
}

#[test]
fn engine_observers_do_not_perturb_deliveries_or_metrics() {
    for seed in 0..12u64 {
        let (quiet, _) = run_probes(seed, |_| {});
        let trace = shared(Trace::new());
        let (with_trace, _) = run_probes(seed, |e| {
            e.add_sink(Box::new(Rc::clone(&trace)));
        });
        let jsonl = shared(JsonlSink::new(Vec::<u8>::new()));
        let (with_jsonl, _) = run_probes(seed, |e| {
            e.add_sink(Box::new(Rc::clone(&jsonl)));
        });
        assert_eq!(with_trace, quiet, "in-memory Trace sink perturbed seed {seed}");
        assert_eq!(with_jsonl, quiet, "JsonlSink perturbed seed {seed}");

        // The two sinks also saw the *same* event stream: the JSONL file
        // parses back into exactly the in-memory trace.
        let jsonl = Rc::try_unwrap(jsonl).expect("the engine is gone").into_inner();
        let bytes = jsonl.finish().unwrap();
        let parsed = Trace::from_jsonl(&bytes[..]).unwrap();
        assert_eq!(parsed.events(), trace.borrow().events(), "sinks diverged on seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Part 1b: the engine under the full observer stack — samplers, flight
// recorders, several sinks at once, and the round stats must all leave
// its execution byte-identical too.
// ---------------------------------------------------------------------

#[test]
fn soa_engine_observer_stack_does_not_perturb() {
    for seed in 0..12u64 {
        let (quiet, quiet_eng) = run_probes(seed, |_| {});

        // Reference event stream: the plain in-memory trace.
        let trace = shared(Trace::new());
        let (with_trace, _) = run_probes(seed, |e| {
            e.add_sink(Box::new(Rc::clone(&trace)));
        });
        assert_eq!(with_trace, quiet, "Trace sink perturbed the engine on seed {seed}");
        let trace = trace.take();

        // A 1-in-1 sampler is a transparent pipe: unperturbed execution,
        // and its inner sink sees every event the plain trace saw.
        let sampled = shared(Trace::new());
        let (with_sampler, _) = run_probes(seed, |e| {
            e.add_sink(Box::new(SamplingSink::new(Box::new(Rc::clone(&sampled)), 1, seed)));
        });
        assert_eq!(with_sampler, quiet, "SamplingSink perturbed the engine on seed {seed}");
        assert_eq!(
            sampled.borrow().events(),
            trace.events(),
            "k=1 sampler dropped events on seed {seed}"
        );

        // A lone flight recorder takes no deliveries, so it takes the
        // engine down its skip-deliveries fast path — which must still
        // deliver every message.
        let (with_rec, _eng_r) = run_probes(seed, |e| {
            e.add_sink(Box::new(FlightRecorder::new(64)));
        });
        assert_eq!(with_rec, quiet, "FlightRecorder perturbed the engine on seed {seed}");

        // The whole stack at once: round stats, a trace and a flight
        // recorder whose ring outlives the run. Still byte-identical; the
        // trace beside the recorder is still exact; the recorder is a
        // faithful ledger (its ring dumps back into the exact stream,
        // deliveries aside); and the stats agree with the engine's own
        // accounting.
        let stats = shared(RoundStats::new());
        let stacked_trace = shared(Trace::new());
        let recorder = FlightRecorder::new(64);
        let (with_stack, _) = run_probes(seed, |e| {
            e.add_sink(Box::new(Rc::clone(&stats)));
            e.add_sink(Box::new(Rc::clone(&stacked_trace)));
            e.add_sink(Box::new(recorder.clone()));
        });
        assert_eq!(with_stack, quiet, "stats + two sinks perturbed the engine on seed {seed}");
        assert_eq!(
            stats.borrow().bits,
            quiet.1.total_bits,
            "stats bit counter disagrees with Metrics on seed {seed}"
        );
        assert_eq!(
            stats.borrow().deliveries,
            quiet_eng.telemetry().deliveries,
            "stats delivery counter disagrees with engine telemetry on seed {seed}"
        );
        assert_eq!(
            stacked_trace.borrow().events(),
            trace.events(),
            "trace beside the recorder diverged on seed {seed}"
        );
        let ring = Trace::from_jsonl(recorder.snapshot_jsonl().as_bytes()).unwrap();
        let sent: Vec<&Event> =
            trace.events().iter().filter(|e| !matches!(e, Event::Deliver { .. })).collect();
        assert_eq!(
            ring.events().iter().collect::<Vec<_>>(),
            sent,
            "flight ring diverged on seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------
// Part 1c: the wall-clock timeline profiler, in both of its stage-
// attribution modes (coarse without a sink, per-node with one) — pure
// observation, byte-identical executions.
// ---------------------------------------------------------------------

#[test]
fn timeline_profiler_does_not_perturb_the_engine() {
    for seed in 0..6u64 {
        // Coarse mode (no sink installed).
        let (quiet, _) = run_probes(seed, |_| {});
        let tl = Timeline::new();
        let (timed, _) = run_probes(seed, |e| {
            e.set_timeline(&tl, 1);
        });
        assert_eq!(timed, quiet, "timeline perturbed the engine on seed {seed}");
        let data = tl.snapshot();
        assert!(
            data.spans.iter().any(|s| s.kind == SpanKind::Round),
            "timeline captured no round spans on seed {seed}"
        );

        // Fine mode: timeline + trace sink flips the engine into per-node
        // stage attribution — still byte-identical, and the trace still
        // exact against a timeline-less reference.
        let ref_trace = shared(Trace::new());
        let (reference, _) = run_probes(seed, |e| {
            e.add_sink(Box::new(Rc::clone(&ref_trace)));
        });
        let tl = Timeline::new();
        let fine_trace = shared(Trace::new());
        let (fine, _) = run_probes(seed, |e| {
            e.set_timeline(&tl, 1);
            e.add_sink(Box::new(Rc::clone(&fine_trace)));
        });
        assert_eq!(fine, reference, "fine-mode timeline perturbed the engine on seed {seed}");
        assert_eq!(fine, quiet, "sink + timeline perturbed the engine on seed {seed}");
        assert_eq!(
            fine_trace.borrow().events(),
            ref_trace.borrow().events(),
            "timeline changed the event stream on seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------
// Part 2: the full AGG+VERI pair protocol through the public drivers.
// ---------------------------------------------------------------------

/// The comparable surface of a [`PairReport`].
fn report_fingerprint(r: &PairReport) -> (Option<u64>, Option<bool>, Round, Option<bool>, bool) {
    (r.result(), r.verdict, r.rounds, r.correct, r.accepted())
}

fn pair_scenario(seed: u64) -> (Instance, u32, u32) {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = 2u32;
    let n = 8 + (seed % 8) as usize;
    let g = match seed % 3 {
        0 => topology::connected_gnp(n, 0.3, &mut rng),
        1 => topology::random_tree(n, &mut rng),
        _ => topology::grid(3, n / 3),
    };
    let n = g.len();
    let horizon = 40 * u64::from(g.diameter().max(1));
    let s = {
        let mut best = FailureSchedule::none();
        for _ in 0..50 {
            let cand = schedules::random(&g, NodeId(0), (seed % 3) as usize, horizon, &mut rng);
            if cand.stretch_factor(&g, NodeId(0)) <= f64::from(c) {
                best = cand;
                break;
            }
        }
        best
    };
    let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..32)).collect();
    let t = 1 + (seed % 2) as u32;
    (Instance::new(g, NodeId(0), inputs, s, 31).unwrap(), c, t)
}

#[test]
fn pair_reports_and_metrics_are_identical_across_sinks() {
    for seed in 0..10u64 {
        let (inst, c, t) = pair_scenario(seed);
        let quiet = run_pair(&Sum, &inst, c, t, true);
        let with_sink = |sink: Box<dyn TraceSink>| {
            let obs = Observe { sinks: vec![sink], ..Observe::default() };
            run_pair_observed(&Sum, &inst, c, t, true, Tweaks::default(), obs).0
        };
        let trace = shared(Trace::new());
        let jsonl = shared(JsonlSink::new(Vec::<u8>::new()));
        let traced = with_sink(Box::new(Rc::clone(&trace)));
        let streamed = with_sink(Box::new(Rc::clone(&jsonl)));

        assert_eq!(
            report_fingerprint(&traced),
            report_fingerprint(&quiet),
            "Trace sink perturbed the pair outcome on seed {seed}"
        );
        assert_eq!(
            report_fingerprint(&streamed),
            report_fingerprint(&quiet),
            "JsonlSink perturbed the pair outcome on seed {seed}"
        );
        assert_eq!(
            fingerprint(&traced.metrics),
            fingerprint(&quiet.metrics),
            "Trace sink perturbed the metrics on seed {seed}"
        );
        assert_eq!(
            fingerprint(&streamed.metrics),
            fingerprint(&quiet.metrics),
            "JsonlSink perturbed the metrics on seed {seed}"
        );

        // And the two observers agree with each other event for event.
        let trace = trace.take();
        let jsonl = Rc::try_unwrap(jsonl).expect("the engine is gone").into_inner();
        let parsed = Trace::from_jsonl(&jsonl.finish().unwrap()[..]).unwrap();
        assert_eq!(parsed.events(), trace.events(), "pair sinks diverged on seed {seed}");

        // The trace is a faithful ledger: replaying it reproduces the
        // quiet run's send accounting and AGG/VERI phase windows.
        let replayed = fingerprint(&trace.replay_metrics());
        let reference = fingerprint(&quiet.metrics);
        assert_eq!(replayed.bits_per_node, reference.bits_per_node, "seed {seed}");
        assert_eq!(replayed.per_round, reference.per_round, "seed {seed}");
        assert_eq!(replayed.phases, reference.phases, "seed {seed}");
    }
}

/// The multi-engine drivers carry their whole bundle at once — trace,
/// watchdog and a timeline lane — and still report exactly what the quiet
/// run reports; the merged trace replays to the merged metrics.
#[test]
fn tradeoff_and_doubling_carry_every_observer_without_perturbing() {
    use ftagg::doubling::{run_doubling_observed, DoublingConfig};
    use ftagg::tradeoff::{run_tradeoff_observed, TradeoffConfig};

    for seed in 0..6u64 {
        let (inst, c, _) = pair_scenario(seed);
        let tl = Timeline::new();
        let observe = || Observe {
            trace: true,
            watchdog: Some(false),
            timeline: Some((&tl, 1)),
            ..Observe::default()
        };
        let check = |what: &str, metrics: &Metrics, seen: ftagg::Observed| {
            let trace = seen.trace.expect("trace requested");
            assert!(seen.monitor.expect("watchdog requested").is_clean(), "{what}");
            assert_eq!(trace.replay_metrics().bits_per_node(), metrics.bits_per_node(), "{what}");
        };

        let cfg = TradeoffConfig { b: 42, c, f: inst.edge_failures().max(1), seed };
        let quiet = ftagg::tradeoff::run_tradeoff(&Sum, &inst, &cfg);
        let (r, seen) = run_tradeoff_observed(&Sum, &inst, &cfg, observe());
        let what = format!("tradeoff seed {seed}");
        assert_eq!(
            (r.result, r.rounds, r.pairs_run),
            (quiet.result, quiet.rounds, quiet.pairs_run)
        );
        assert_eq!(fingerprint(&r.metrics), fingerprint(&quiet.metrics), "{what}");
        check(&what, &r.metrics, seen);

        let cfg = DoublingConfig { c, max_stages: 4 };
        let quiet = ftagg::doubling::run_doubling(&Sum, &inst, &cfg);
        let (r, seen) = run_doubling_observed(&Sum, &inst, &cfg, observe());
        let what = format!("doubling seed {seed}");
        assert_eq!((r.result, r.rounds, r.stages), (quiet.result, quiet.rounds, quiet.stages));
        assert_eq!(fingerprint(&r.metrics), fingerprint(&quiet.metrics), "{what}");
        check(&what, &r.metrics, seen);
    }
}

#[test]
#[should_panic(expected = "takes no extra sink")]
fn multi_engine_runs_reject_an_extra_sink() {
    use ftagg::tradeoff::{run_tradeoff_observed, TradeoffConfig};
    let (inst, c, _) = pair_scenario(0);
    let cfg = TradeoffConfig { b: 42, c, f: 1, seed: 0 };
    let obs = Observe { sinks: vec![Box::new(Trace::new())], ..Observe::default() };
    run_tradeoff_observed(&Sum, &inst, &cfg, obs);
}
