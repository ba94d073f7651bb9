//! Property-based checks of the trace ledger: the event stream a sink
//! receives is a *complete and faithful* account of the execution. Send
//! events reproduce the `record_send` ledgers exactly (per node and per
//! round), crashed nodes emit nothing after their crash, and the phase
//! markers are well-nested spans whose attributed bits partition the
//! run's total.

use std::cell::RefCell;
use std::rc::Rc;

use netsim::{
    topology, Engine, Event, FailureSchedule, Graph, Message, NodeId, NodeLogic, Received, Round,
    RoundCtx, Trace,
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

/// Runs the chatter network to `horizon` with a [`Trace`] sink installed,
/// optionally splitting the run into `segments` contiguous phases.
fn traced_run(
    seed: u64,
    n: usize,
    crashes: usize,
    horizon: Round,
    segments: usize,
) -> (Engine<Ping, Chatter>, Trace) {
    let (g, s) = random_setup(seed, n, crashes, horizon);
    let mut eng = Engine::new(g, s, |v| Chatter { me: v, seed });
    let trace = Rc::new(RefCell::new(Trace::new()));
    eng.add_sink(Box::new(Rc::clone(&trace)));
    if segments <= 1 {
        eng.run(horizon);
    } else {
        // Segment boundaries partition 1..=horizon into non-empty windows.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let mut cuts: Vec<Round> = (0..segments - 1).map(|_| rng.gen_range(1..horizon)).collect();
        cuts.push(horizon);
        cuts.sort_unstable();
        cuts.dedup();
        let mut upto = 0;
        for (k, &cut) in cuts.iter().enumerate() {
            if cut <= upto {
                continue;
            }
            eng.enter_phase(&format!("seg {k}"));
            eng.run(cut);
            eng.exit_phase();
            upto = cut;
        }
    }
    let trace = trace.take();
    (eng, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Send events are the `record_send` ledger, event for event: per-node
    /// bit and logical-send sums, and per-round bit sums, agree exactly
    /// with every [`netsim::Metrics`] accessor.
    #[test]
    fn send_events_reproduce_the_metrics_ledgers(
        seed in 0u64..1_000_000,
        n in 3usize..20,
        crashes in 0usize..5,
    ) {
        let horizon: Round = 14;
        let (eng, trace) = traced_run(seed, n, crashes, horizon, 1);
        let m = eng.metrics();

        let mut bits_by_node = vec![0u64; n.max(eng.graph().len())];
        let mut logical_by_node = vec![0u64; bits_by_node.len()];
        let mut bits_by_round = std::collections::BTreeMap::<Round, u64>::new();
        for e in trace.events() {
            if let Event::Send { round, node, bits, logical, .. } = *e {
                bits_by_node[node.index()] += bits;
                logical_by_node[node.index()] += logical;
                *bits_by_round.entry(round).or_default() += bits;
            }
        }
        for v in eng.graph().nodes() {
            prop_assert_eq!(bits_by_node[v.index()], m.bits_of(v), "bits of {}", v);
            prop_assert_eq!(logical_by_node[v.index()], m.sends_of(v), "sends of {}", v);
        }
        let from_events: Vec<(Round, u64)> = bits_by_round.into_iter().collect();
        let from_metrics: Vec<(Round, u64)> = m.per_round_bits().collect();
        prop_assert_eq!(from_events, from_metrics, "per-round ledgers");
        prop_assert_eq!(
            trace.events().iter().filter_map(Event::node).count() > 0,
            m.total_bits() > 0 || trace.events().iter().any(|e| e.kind() == "crash"),
        );
    }

    /// Crashed nodes fall silent in the trace too: after a `Crash` event
    /// for node `v` in round `r`, the stream contains no event of `v` at
    /// any round ≥ `r` — and the crash is recorded at the schedule's
    /// round, exactly once.
    #[test]
    fn no_events_after_a_crash(
        seed in 0u64..1_000_000,
        n in 3usize..20,
        crashes in 1usize..6,
    ) {
        let horizon: Round = 14;
        let (_eng, trace) = traced_run(seed, n, crashes, horizon, 1);

        let mut crashed_at = std::collections::HashMap::<NodeId, Round>::new();
        for e in trace.events() {
            if let Event::Crash { round, node } = *e {
                let prev = crashed_at.insert(node, round);
                prop_assert!(prev.is_none(), "node {} crashed twice", node);
                continue;
            }
            if let Some(v) = e.node() {
                if let Some(&cr) = crashed_at.get(&v) {
                    prop_assert!(
                        e.round() < cr,
                        "{} event of crashed node {} at round {} (crashed {})",
                        e.kind(), v, e.round(), cr
                    );
                }
            }
        }
        // The log is round-monotone, so `in_round` binary search is valid.
        let rounds: Vec<Round> = trace.events().iter().map(Event::round).collect();
        prop_assert!(rounds.windows(2).all(|w| w[0] <= w[1]), "log not round-ordered");
        for r in 1..=horizon {
            let slice: Vec<&Event> = trace.in_round(r).collect();
            prop_assert!(slice.iter().all(|e| e.round() == r));
            let linear = trace.events().iter().filter(|e| e.round() == r).count();
            prop_assert_eq!(slice.len(), linear, "in_round({}) disagrees with scan", r);
        }
    }

    /// Phase markers are well-nested (stack discipline over the event
    /// stream), each phase's attributed bits equal the raw ledger window
    /// query, and the top-level phases partition the run's total traffic.
    #[test]
    fn phases_are_well_nested_and_partition_the_total(
        seed in 0u64..1_000_000,
        n in 3usize..20,
        crashes in 0usize..4,
        segments in 2usize..6,
    ) {
        let horizon: Round = 18;
        let (eng, trace) = traced_run(seed, n, crashes, horizon, segments);
        let m = eng.metrics();

        // Stack discipline: every exit matches the innermost open enter.
        let mut stack: Vec<&str> = Vec::new();
        let mut seen = 0usize;
        for e in trace.events() {
            match e {
                Event::PhaseEnter { label, .. } => {
                    stack.push(label);
                    seen += 1;
                }
                Event::PhaseExit { label, .. } => {
                    prop_assert_eq!(stack.pop(), Some(label.as_str()), "mismatched exit");
                }
                _ => {}
            }
        }
        prop_assert!(stack.is_empty(), "unclosed phases: {:?}", stack);
        prop_assert!(seen >= 1, "segmented run produced no phase markers");

        // The metrics-side spans agree with the ledger and partition it.
        let phases = m.phases();
        prop_assert_eq!(phases.len(), seen, "metrics and trace disagree on phase count");
        let mut top_bits = 0u64;
        let mut prev_end = 0;
        for ph in &phases {
            prop_assert_eq!(ph.bits, m.bits_in_rounds(ph.start..=ph.end), "{}", &ph.label);
            prop_assert!(ph.start <= ph.end);
            if ph.depth == 0 {
                prop_assert_eq!(ph.start, prev_end + 1, "top-level gap before {}", &ph.label);
                prev_end = ph.end;
                top_bits += ph.bits;
            }
        }
        prop_assert_eq!(prev_end, horizon, "top-level phases must cover the run");
        prop_assert_eq!(top_bits, m.total_bits(), "phase bits must partition the total");

        // Replaying the trace reproduces the same phase table.
        let replayed = trace.replay_metrics();
        prop_assert_eq!(replayed.phases(), phases, "replayed phases diverge");
    }
}
