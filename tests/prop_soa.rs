//! Property suite for the engine's struct-of-arrays layout: the message
//! arena never aliases live messages — payloads read from an inbox are
//! byte-identical to what the sender enqueued, on every round of
//! randomized chatter, while the whole run stays bit-identical to the
//! test reference ([`netsim::testkit::Reference`]).

use netsim::testkit::{assert_equivalent, capture, Reference};
use netsim::{
    topology, Engine, FailureSchedule, Graph, Message, NodeId, NodeLogic, Round, RoundCtx, Trace,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

// ---------------------------------------------------------------------
// Shared randomized environment
// ---------------------------------------------------------------------

fn random_setup(seed: u64, n: usize, crashes: usize, horizon: Round) -> (Graph, FailureSchedule) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = match seed % 3 {
        0 => topology::connected_gnp(n, 0.3, &mut rng),
        1 => topology::random_tree(n, &mut rng),
        _ => topology::grid(2.max(n / 3), 3),
    };
    let n = g.len();
    let mut s = FailureSchedule::none();
    for _ in 0..crashes {
        let v = NodeId(rng.gen_range(1..n as u32));
        let r = rng.gen_range(1..=horizon);
        if rng.gen_bool(0.4) {
            // Partial broadcast: the crashing node's last message reaches
            // only a random subset of its neighbors.
            let rx: Vec<NodeId> =
                g.neighbors(v).iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
            s.crash_partial(v, r, rx);
        } else {
            s.crash(v, r);
        }
    }
    (g, s)
}

// ---------------------------------------------------------------------
// Arena aliasing: payload integrity + full engine/reference equivalence
// ---------------------------------------------------------------------

/// A message whose payload is a pure function of (sender, round, copy):
/// any arena aliasing or premature reuse shows up as a payload that no
/// longer matches its header.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Blob {
    from: NodeId,
    sent_round: Round,
    copy: u8,
    payload: Vec<u8>,
}

fn blob_payload(seed: u64, v: NodeId, r: Round, copy: u8) -> Vec<u8> {
    let mut x = seed ^ (u64::from(v.0) << 32) ^ (r << 8) ^ u64::from(copy);
    (0..(1 + (x % 13) as usize))
        .map(|_| {
            x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
            (x >> 56) as u8
        })
        .collect()
}

impl Message for Blob {
    fn bit_len(&self) -> u64 {
        16 + 8 * self.payload.len() as u64
    }
}

/// Sends 0–2 fresh blobs a round and verifies every delivered payload
/// against its header before recording it.
struct Chatter {
    me: NodeId,
    seed: u64,
    received: Vec<(NodeId, Round, u8)>,
}

impl NodeLogic<Blob> for Chatter {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Blob>) {
        let r = ctx.round();
        for m in ctx.inbox().iter() {
            assert_eq!(
                m.msg.payload,
                blob_payload(self.seed, m.msg.from, m.msg.sent_round, m.msg.copy),
                "aliased or corrupted payload from {} (sent round {})",
                m.msg.from,
                m.msg.sent_round
            );
            self.received.push((m.from, m.msg.sent_round, m.msg.copy));
        }
        let copies = (self.seed ^ u64::from(self.me.0) ^ r) % 3;
        for copy in 0..copies as u8 {
            ctx.send(Blob {
                from: self.me,
                sent_round: r,
                copy,
                payload: blob_payload(self.seed, self.me, r, copy),
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized chatter with fresh multi-copy payloads every round: the
    /// arena must hand every receiver exactly the bytes the sender
    /// enqueued (checked inside `on_round`), and the full run — trace
    /// bytes, bit ledgers, telemetry — must be bit-identical to the
    /// reference's, which clones every payload per delivery.
    #[test]
    fn arena_never_aliases_live_messages(
        seed in 0u64..1_000_000,
        n in 3usize..16,
        crashes in 0usize..4,
    ) {
        let horizon: Round = 12;
        let (g, s) = random_setup(seed, n, crashes, horizon);

        let mut eng = Engine::new(g.clone(), s.clone(), |v| Chatter {
            me: v, seed, received: Vec::new(),
        });
        let trace = Rc::new(RefCell::new(Trace::new()));
        eng.add_sink(Box::new(Rc::clone(&trace)));
        eng.run(horizon);

        let mut reference = Reference::new(g.clone(), s, |v| Chatter {
            me: v, seed, received: Vec::new(),
        });
        reference.run(horizon);

        assert_equivalent(
            &capture(&eng, &trace.borrow()),
            &reference.artifacts(),
            &format!("chatter seed {seed}"),
        );
        // The per-node delivery logs (order included) agree too — the
        // inbox visit order is part of the pinned semantics.
        for v in g.nodes() {
            prop_assert_eq!(
                &eng.node(v).received,
                &reference.node(v).received,
                "node {} delivery log", v
            );
        }
    }
}
