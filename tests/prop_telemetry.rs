//! Property-based checks of the sampled-telemetry layer: a
//! [`SamplingSink`] meters the full event stream exactly and forwards
//! precisely the deterministic 1-in-k node subset it advertises, its
//! scaled-up estimates converge onto the exact totals within the stated
//! error bars, and a [`FlightRecorder`]'s ring dumps byte-for-byte the
//! JSONL a [`JsonlSink`] wrote for the same run, deliveries aside —
//! evicting exactly the rounds older than its retention window.

use std::cell::RefCell;
use std::rc::Rc;

use netsim::{
    topology, Engine, Event, FailureSchedule, FlightRecorder, Graph, JsonlSink, Message, NodeId,
    NodeLogic, Received, Round, RoundCtx, SamplingSink, Trace, TraceSink, Wants,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Debug, PartialEq, Eq)]
struct Ping {
    from: NodeId,
    bits: u64,
}

impl Message for Ping {
    fn bit_len(&self) -> u64 {
        self.bits
    }
}

/// Deterministic per-(node, round) traffic: whether to send, and how big.
fn traffic(seed: u64, v: NodeId, r: Round) -> Option<u64> {
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(v.0).wrapping_mul(0x517c_c1b7_2722_0a95))
        .wrapping_add(r.wrapping_mul(0x2545_f491_4f6c_dd1d));
    x ^= x >> 29;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 32;
    (x % 3 != 0).then_some(8 + x % 57)
}

struct Chatter {
    me: NodeId,
    seed: u64,
}

impl NodeLogic<Ping> for Chatter {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Ping>) {
        let r = ctx.round();
        for m in ctx.inbox() {
            let Received { from, msg, .. } = m;
            debug_assert!(msg.bits > 0, "from {from}");
        }
        if let Some(bits) = traffic(self.seed, self.me, r) {
            ctx.send(Ping { from: self.me, bits });
        }
    }
}

fn random_setup(seed: u64, n: usize, crashes: usize, horizon: Round) -> (Graph, FailureSchedule) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = if rng.gen_bool(0.5) {
        topology::connected_gnp(n, 0.25, &mut rng)
    } else {
        topology::random_tree(n, &mut rng)
    };
    let mut s = FailureSchedule::none();
    let n = g.len();
    for _ in 0..crashes {
        let v = NodeId(rng.gen_range(1..n as u32));
        let r = rng.gen_range(1..=horizon);
        s.crash(v, r);
    }
    (g, s)
}

/// Runs the chatter network to `horizon` with `sinks` installed, in order.
fn run_with_sinks(
    seed: u64,
    n: usize,
    crashes: usize,
    horizon: Round,
    sinks: Vec<Box<dyn TraceSink>>,
) {
    let (g, s) = random_setup(seed, n, crashes, horizon);
    let mut eng = Engine::new(g, s, |v| Chatter { me: v, seed });
    for sink in sinks {
        eng.add_sink(sink);
    }
    eng.run(horizon);
}

/// The reference event stream of a scenario: a plain full-fidelity trace.
fn reference_trace(seed: u64, n: usize, crashes: usize, horizon: Round) -> Trace {
    let trace = Rc::new(RefCell::new(Trace::new()));
    run_with_sinks(seed, n, crashes, horizon, vec![Box::new(Rc::clone(&trace))]);
    trace.take()
}

/// Discards every event and wants no deliveries: a sampler over it only
/// meters, and the engine builds no delivery events for it.
struct Discard;

impl TraceSink for Discard {
    fn record(&mut self, _: &Event) {}

    fn wants(&self) -> Wants {
        Wants::Events
    }
}

/// The admission decision the sampler documents for `e` (structural
/// events are always admitted).
fn admitted(e: &Event, seed: u64, k: u64) -> bool {
    match e {
        Event::Send { node, kind, .. } => {
            SamplingSink::admits(seed, k, SamplingSink::send_stratum(kind), *node)
        }
        Event::Deliver { node, .. } => {
            SamplingSink::admits(seed, k, SamplingSink::deliver_stratum(), *node)
        }
        _ => true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The sampler is exactly the filter it advertises: the inner sink
    /// receives precisely the events whose node passes the documented
    /// admission rule, and every stratum's `total_*` meters agree with
    /// an exhaustive scan of the full stream — so the dropped volume is
    /// known exactly, never estimated.
    #[test]
    fn sampler_forwards_the_advertised_subset_and_meters_the_rest(
        seed in 0u64..1_000_000,
        n in 4usize..24,
        crashes in 0usize..4,
        ki in 0usize..3,
    ) {
        let k = [1u64, 4, 16][ki];
        let horizon: Round = 14;
        let reference = reference_trace(seed, n, crashes, horizon);

        let inner = Rc::new(RefCell::new(Trace::new()));
        let sampler =
            Rc::new(RefCell::new(SamplingSink::new(Box::new(Rc::clone(&inner)), k, seed)));
        run_with_sinks(seed, n, crashes, horizon, vec![Box::new(Rc::clone(&sampler))]);
        let factors = sampler.borrow().factors();
        let inner = inner.take();

        let expected: Vec<&Event> =
            reference.events().iter().filter(|e| admitted(e, seed, k)).collect();
        let got: Vec<&Event> = inner.events().iter().collect();
        prop_assert_eq!(got, expected, "inner sink saw a different subset");

        // Per-stratum meters vs an exhaustive scan of the reference.
        for f in &factors {
            let in_stratum = |e: &&Event| match (f.stratum.as_str(), e) {
                ("deliver", Event::Deliver { .. }) => true,
                ("send/-", Event::Send { kind, .. }) => kind.is_empty(),
                (s, Event::Send { kind, .. }) => s == format!("send/{kind}"),
                _ => false,
            };
            let all: Vec<&Event> = reference.events().iter().filter(in_stratum).collect();
            fn bits(e: &Event) -> u64 {
                match e {
                    Event::Send { bits, .. } | Event::Deliver { bits, .. } => *bits,
                    _ => 0,
                }
            }
            prop_assert_eq!(f.total_events, all.len() as u64, "{}", &f.stratum);
            prop_assert_eq!(
                f.total_bits,
                all.iter().map(|e| bits(e)).sum::<u64>(),
                "{}", &f.stratum
            );
            let kept: Vec<&&Event> = all.iter().filter(|e| admitted(e, seed, k)).collect();
            prop_assert_eq!(f.sampled_events, kept.len() as u64, "{}", &f.stratum);
            prop_assert_eq!(
                f.sampled_bits,
                kept.iter().map(|e| bits(e)).sum::<u64>(),
                "{}", &f.stratum
            );
            prop_assert!(f.scale() >= 1.0, "scale of {} below 1", &f.stratum);
            if k == 1 {
                prop_assert_eq!(f.sampled_events, f.total_events, "k=1 must keep everything");
                prop_assert!((f.scale() - 1.0).abs() < 1e-12);
            }
        }
    }

    /// A flight recorder whose ring outlives the run reproduces the
    /// JSONL a [`JsonlSink`] wrote for the same events, byte for byte,
    /// minus the delivery lines the recorder never keeps.
    #[test]
    fn flight_ring_round_trips_byte_for_byte(
        seed in 0u64..1_000_000,
        n in 4usize..24,
        crashes in 0usize..4,
    ) {
        let horizon: Round = 14;
        let recorder = FlightRecorder::new(horizon as usize + 8);
        let jsonl = Rc::new(RefCell::new(JsonlSink::new(Vec::<u8>::new())));
        run_with_sinks(
            seed, n, crashes, horizon,
            vec![Box::new(Rc::clone(&jsonl)), Box::new(recorder.clone())],
        );

        let jsonl = Rc::try_unwrap(jsonl).expect("the engine is gone").into_inner();
        let written = String::from_utf8(jsonl.finish().unwrap()).unwrap();
        let sent: String = written
            .split_inclusive('\n')
            .filter(|line| !line.starts_with("{\"ev\":\"deliver\""))
            .collect();
        prop_assert_eq!(recorder.snapshot_jsonl(), sent, "ring dump diverged");
    }

    /// A bounded ring retains exactly the last `r` rounds that bear an
    /// event other than a delivery: the dump equals the reference
    /// stream, deliveries aside, restricted to those rounds, and the
    /// stats ledger (buffered/evicted/oldest/newest) matches the same
    /// arithmetic.
    #[test]
    fn flight_ring_evicts_all_but_the_last_r_rounds(
        seed in 0u64..1_000_000,
        n in 4usize..24,
        crashes in 0usize..4,
        r in 1usize..6,
    ) {
        let horizon: Round = 14;
        // The reference rides beside the recorder, so both see the same
        // event ids; the recorder is offered its deliveries and drops them.
        let trace = Rc::new(RefCell::new(Trace::new()));
        let recorder = FlightRecorder::new(r);
        run_with_sinks(
            seed, n, crashes, horizon,
            vec![Box::new(Rc::clone(&trace)), Box::new(recorder.clone())],
        );
        let reference = trace.take();
        let kept: Vec<&Event> =
            reference.events().iter().filter(|e| !matches!(e, Event::Deliver { .. })).collect();
        let mut rounds: Vec<Round> = kept.iter().map(|e| e.round()).collect();
        rounds.dedup(); // event streams are round-monotone
        let retained: Vec<Round> = rounds[rounds.len().saturating_sub(r)..].to_vec();

        let dumped = Trace::from_jsonl(recorder.snapshot_jsonl().as_bytes()).unwrap();
        let expected: Vec<&Event> =
            kept.iter().copied().filter(|e| retained.contains(&e.round())).collect();
        let got: Vec<&Event> = dumped.events().iter().collect();
        prop_assert_eq!(got, expected, "ring kept the wrong window");

        let stats = recorder.stats();
        prop_assert_eq!(stats.rounds_buffered, retained.len() as u64);
        prop_assert_eq!(stats.evicted_rounds, (rounds.len() - retained.len()) as u64);
        prop_assert_eq!(stats.events_buffered, expected.len() as u64);
        prop_assert_eq!(stats.recorded_events, kept.len() as u64);
        prop_assert_eq!(stats.total_events, reference.events().len() as u64);
        if let (Some(first), Some(last)) = (retained.first(), retained.last()) {
            prop_assert_eq!(stats.oldest_round, *first);
            prop_assert_eq!(stats.newest_round, *last);
        }
    }
}

/// The estimator converges: scaling each stratum's sampled bits by the
/// unbiased factor lands within ~3 standard errors of the exact total
/// at every supported rate. Deterministic seeds; large enough networks
/// that k = 16 still admits a few nodes per stratum.
#[test]
fn scaled_estimates_converge_at_all_rates() {
    for seed in 0..6u64 {
        let horizon: Round = 16;
        let n = 48 + (seed % 16) as usize;
        for k in [1u64, 4, 16] {
            let sampler = Rc::new(RefCell::new(SamplingSink::new(Box::new(Discard), k, seed)));
            run_with_sinks(
                seed,
                n,
                (seed % 3) as usize,
                horizon,
                vec![Box::new(Rc::clone(&sampler))],
            );
            for f in sampler.borrow().factors() {
                let est = f.sampled_bits as f64 * f.scale();
                let exact = f.total_bits as f64;
                let band = 3.0 * f.rel_error() * exact + 1.0;
                assert!(
                    (est - exact).abs() <= band,
                    "stratum {} at k={k} seed {seed}: est {est} vs exact {exact} (band {band})",
                    f.stratum
                );
                if k == 1 {
                    assert_eq!(f.sampled_bits, f.total_bits, "k=1 must be exact");
                }
            }
        }
    }
}
