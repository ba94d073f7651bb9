//! Property suite for the engine's visit set: a round walks only the
//! nodes with mail, a due wake-up or a due crash, and places inboxes by a
//! pass over every node when many got mail or over the receivers alone
//! when few did. On graphs of 64 to 255 nodes, under partial crashes,
//! with default-wake nodes beside sleepers, one run takes both placement
//! branches and the wake-up calendar, and stays bit-identical to the test
//! reference ([`netsim::testkit::Reference`]), which runs every live node
//! in every round.

use netsim::testkit::{assert_equivalent, capture, Reference};
use netsim::{
    topology, Engine, Event, FailureSchedule, Graph, Message, NodeId, NodeLogic, Round, RoundCtx,
    Trace,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

const HORIZON: Round = 30;

/// A cheap hash of (seed, node, round, salt).
fn mix(seed: u64, v: NodeId, r: Round, salt: u64) -> u64 {
    let mut x = seed ^ (u64::from(v.0) << 32) ^ r.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A payload that is a pure function of its header, so a receiver can
/// check it was handed the bytes its sender enqueued.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Blob {
    from: NodeId,
    sent_round: Round,
    copy: u8,
    payload: u64,
}

impl Blob {
    fn new(seed: u64, from: NodeId, sent_round: Round, copy: u8) -> Self {
        Blob { from, sent_round, copy, payload: mix(seed, from, sent_round, u64::from(copy)) }
    }
}

impl Message for Blob {
    fn bit_len(&self) -> u64 {
        16 + self.payload % 48
    }
}

/// Default-wake nodes (`wakes: None`) run every round; they broadcast in
/// every sixth round from round 1, when most of the graph hears them,
/// and otherwise in about one round in 128. Sleepers run on mail and on
/// their seeded wake-ups, which are two or more rounds apart, and
/// broadcast in about one wake-up in eight.
struct Mixed {
    me: NodeId,
    seed: u64,
    wakes: Option<Vec<Round>>,
    received: Vec<(NodeId, Round, u8)>,
    /// (round, inbox length) of every call.
    calls: Vec<(Round, usize)>,
}

impl NodeLogic<Blob> for Mixed {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Blob>) {
        let r = ctx.round();
        self.calls.push((r, ctx.inbox().len()));
        for m in ctx.inbox() {
            assert_eq!(*m.msg, Blob::new(self.seed, m.msg.from, m.msg.sent_round, m.msg.copy));
            self.received.push((m.from, m.msg.sent_round, m.msg.copy));
        }
        let sends = match &self.wakes {
            None => r % 6 == 1 || mix(self.seed, self.me, r, 1).is_multiple_of(128),
            Some(wakes) => wakes.contains(&r) && mix(self.seed, self.me, r, 1).is_multiple_of(8),
        };
        if sends {
            for copy in 0..1 + (mix(self.seed, self.me, r, 2) % 2) as u8 {
                ctx.send(Blob::new(self.seed, self.me, r, copy));
            }
        }
    }

    fn next_wake(&self, round: Round) -> Round {
        match &self.wakes {
            None => round + 1,
            Some(wakes) => wakes.iter().copied().find(|&w| w > round).unwrap_or(Round::MAX),
        }
    }
}

/// A sparse graph of `n` nodes, a crash schedule (some partial), and each
/// node's wake-ups (`None` for about half: the default wake-up).
fn setup(seed: u64, n: usize, crashes: usize) -> (Graph, FailureSchedule, Vec<Option<Vec<Round>>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = match seed % 3 {
        0 => topology::random_tree(n, &mut rng),
        1 => topology::grid(n / 8, 8),
        _ => topology::connected_gnp(n, 3.0 / n as f64, &mut rng),
    };
    let n = g.len();
    let mut s = FailureSchedule::none();
    for _ in 0..crashes {
        let v = NodeId(rng.gen_range(1..n as u32));
        let r = rng.gen_range(1..=HORIZON);
        if rng.gen_bool(0.4) {
            let rx: Vec<NodeId> =
                g.neighbors(v).iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
            s.crash_partial(v, r, rx);
        } else {
            s.crash(v, r);
        }
    }
    let wakes = (0..n)
        .map(|_| {
            rng.gen_bool(0.5).then(|| {
                let mut at: Round = rng.gen_range(2..8);
                let mut wakes = Vec::new();
                while at <= HORIZON {
                    wakes.push(at);
                    at += rng.gen_range(2..12u64);
                }
                wakes
            })
        })
        .collect();
    (g, s, wakes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sparse and dense rounds, sleepers and partial crashes in one run:
    /// the engine's trace bytes, bit ledgers, telemetry and every node's
    /// delivery log equal the reference's. The run must also show each
    /// visit source it is meant to cover: a round whose mail reached at
    /// least N/8 nodes, a round whose mail reached fewer, and a sleeper
    /// run by a calendar wake-up (no mail, and no call in the round
    /// before).
    #[test]
    fn sparse_and_dense_rounds_match_the_reference(
        seed in 0u64..1_000_000,
        n in 64usize..256,
        crashes in 0usize..12,
    ) {
        let (g, s, wakes) = setup(seed, n, crashes);
        let node = |v: NodeId| Mixed {
            me: v,
            seed,
            wakes: wakes[v.index()].clone(),
            received: Vec::new(),
            calls: Vec::new(),
        };
        let mut eng = Engine::new(g.clone(), s.clone(), node);
        let trace = Rc::new(RefCell::new(Trace::new()));
        eng.add_sink(Box::new(Rc::clone(&trace)));
        eng.run(HORIZON);
        let mut reference = Reference::new(g.clone(), s, node);
        reference.run(HORIZON);

        assert_equivalent(
            &capture(&eng, &trace.borrow()),
            &reference.artifacts(),
            &format!("mixed seed {seed}, n {n}, {crashes} crashes"),
        );
        for v in g.nodes() {
            prop_assert_eq!(
                &eng.node(v).received,
                &reference.node(v).received,
                "node {} delivery log", v
            );
        }

        // Distinct receivers per delivery round, from the engine's trace.
        let mut receivers: BTreeMap<Round, Vec<NodeId>> = BTreeMap::new();
        for e in trace.borrow().events() {
            if let Event::Deliver { round, node, .. } = e {
                receivers.entry(*round).or_default().push(*node);
            }
        }
        let counts: Vec<usize> = receivers
            .into_values()
            .map(|mut v| {
                v.dedup();
                v.len()
            })
            .collect();
        let n = g.len();
        prop_assert!(counts.iter().any(|&c| c >= n / 8), "no dense round: {:?}", counts);
        prop_assert!(counts.iter().any(|&c| c < n / 8), "no sparse round: {:?}", counts);
        let calendar_wake = g.nodes().filter(|v| wakes[v.index()].is_some()).any(|v| {
            let calls = &eng.node(v).calls;
            calls.iter().enumerate().any(|(k, &(r, mail))| {
                mail == 0 && r >= 2 && (k == 0 || calls[k - 1].0 < r - 1)
            })
        });
        prop_assert!(calendar_wake, "no sleeper woke from the calendar");
    }
}
