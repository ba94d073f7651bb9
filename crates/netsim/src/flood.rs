//! The flooding primitive's bookkeeping.
//!
//! The paper's `flood` primitive: the source sends the message to its
//! neighbors; every other node forwards it *upon first receiving it*, and a
//! second flooded message with the same content is not forwarded again.
//! [`FloodState`] implements the dedup set protocols embed to realize this:
//! call [`FloodState::first_sighting`] on each incoming flood payload, and
//! re-broadcast only when it returns `true`.
//!
//! Flood identity is the payload value itself (source id + body); the
//! immediate-sender id attached to every broadcast is *not* part of the
//! identity, so copies arriving over different links deduplicate.
//!
//! [`BitFlood`] is a bit-packed lane for flood-style workloads where a
//! message is just "token `t` exists": per-node seen/frontier bitsets and
//! word-parallel OR replace per-message work entirely.

use crate::adversary::{FailureSchedule, Round};
use crate::graph::{Graph, NodeId};
use std::collections::HashSet;
use std::hash::Hash;
use std::time::{Duration, Instant};

/// Dedup set for flooded payloads of key type `K`.
///
/// # Examples
///
/// ```
/// use netsim::FloodState;
/// let mut fs: FloodState<(u32, &str)> = FloodState::new();
/// assert!(fs.first_sighting((7, "psum")));   // forward this one
/// assert!(!fs.first_sighting((7, "psum")));  // duplicate: drop
/// assert!(fs.first_sighting((8, "psum")));   // different source: forward
/// assert!(fs.seen(&(7, "psum")));
/// ```
#[derive(Clone, Debug, Default)]
pub struct FloodState<K> {
    seen: HashSet<K>,
}

impl<K: Eq + Hash + Clone> FloodState<K> {
    /// An empty dedup set.
    pub fn new() -> Self {
        FloodState { seen: HashSet::new() }
    }

    /// Registers `key`; returns `true` iff it had not been seen before
    /// (i.e. the caller should act on it and forward it).
    pub fn first_sighting(&mut self, key: K) -> bool {
        self.seen.insert(key)
    }

    /// Marks `key` as seen without signaling (used by a flood *source*,
    /// which must not re-forward its own message).
    pub fn mark_seen(&mut self, key: K) {
        self.seen.insert(key);
    }

    /// True iff `key` has been seen (as source or receiver).
    pub fn seen(&self, key: &K) -> bool {
        self.seen.contains(key)
    }

    /// Number of distinct flood payloads seen.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True iff nothing has been seen.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Clears all state (protocols reuse one set per execution).
    pub fn clear(&mut self) {
        self.seen.clear();
    }
}

/// Summary of a finished [`BitFlood`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BitFloodReport {
    /// Rounds stepped (the lane stops early once no frontier bit is set).
    pub rounds: Round,
    /// Logical deliveries (one per recipient per token), counted exactly
    /// as the generic engine's `Telemetry::deliveries`.
    pub deliveries: u64,
    /// System-wide bits broadcast (`bits_per_token` per forwarded token).
    pub total_bits: u64,
    /// The paper's CC: maximum bits over nodes.
    pub max_bits: u64,
    /// Wall-clock time inside [`BitFlood::run`].
    pub busy: Duration,
}

impl BitFloodReport {
    /// Deliveries per second of busy time (0 if no busy time recorded).
    pub fn deliveries_per_sec(&self) -> f64 {
        let s = self.busy.as_secs_f64();
        if s > 0.0 {
            self.deliveries as f64 / s
        } else {
            0.0
        }
    }
}

/// Bit-packed flood lane: executes the standard "every origin floods its
/// token, nodes forward each token on first sighting" workload with
/// per-node bitsets instead of per-message inboxes.
///
/// Token `t` is origin node `t`'s id; a node's round state is two bitsets
/// over the token space — `seen` (ever sighted) and `frontier` (first
/// sighted last round, i.e. what it broadcasts). Delivery is a
/// word-parallel OR along each live edge and the per-round new-token set
/// is `incoming & !seen`, so a round costs O(E · N/64) words instead of
/// O(deliveries) message operations.
///
/// The counters mirror the generic engine running the equivalent
/// per-message flooder exactly (same crash/partial-crash predicates, same
/// delivery counting; pinned by `prop_soa.rs`): `deliveries` counts one
/// per recipient per token and each forwarded token charges
/// `bits_per_token` to its sender.
pub struct BitFlood {
    graph: Graph,
    crash_round: Vec<Round>,
    partial_rx: Vec<Option<Vec<NodeId>>>,
    /// Words per node: `ceil(n / 64)` over the token space.
    words: usize,
    /// `seen[v * words ..][..words]`: tokens node `v` has ever sighted.
    seen: Vec<u64>,
    /// Tokens first sighted by `v` in the round just executed — exactly
    /// what `v` broadcast that round.
    frontier: Vec<u64>,
    /// OR of the frontiers delivered to `v`, consumed next round.
    incoming: Vec<u64>,
    /// Per-node bits broadcast (the flood lane's `Metrics::bits_of`).
    bits: Vec<u64>,
    bits_per_token: u64,
    round: Round,
    deliveries: u64,
    quiescent: bool,
}

impl BitFlood {
    /// A flood lane over `graph` under `schedule`, where every node in
    /// `origins` injects its own token in round 1. `bits_per_token` is the
    /// metered size of one forwarded token.
    pub fn new(
        graph: Graph,
        schedule: &FailureSchedule,
        origins: &[NodeId],
        bits_per_token: u64,
    ) -> Self {
        let n = graph.len();
        let words = n.div_ceil(64);
        let mut crash_round = vec![Round::MAX; n];
        let mut partial_rx: Vec<Option<Vec<NodeId>>> = vec![None; n];
        for (v, e) in schedule.iter() {
            if v.index() >= n {
                continue;
            }
            crash_round[v.index()] = e.round;
            partial_rx[v.index()] = e.partial.as_ref().map(|rx| {
                let mut rx = rx.clone();
                rx.sort_unstable();
                rx
            });
        }
        let mut seen = vec![0u64; n * words];
        // Round 1 is the injection round: each live origin marks its own
        // token seen and broadcasts it (the generic flooder's round-1 arm).
        let mut injected = vec![0u64; n * words];
        for &o in origins {
            if o.index() < n && crash_round[o.index()] > 1 {
                let bit = o.index();
                injected[o.index() * words + bit / 64] |= 1u64 << (bit % 64);
                seen[o.index() * words + bit / 64] |= 1u64 << (bit % 64);
            }
        }
        BitFlood {
            crash_round,
            partial_rx,
            words,
            seen,
            frontier: injected,
            incoming: vec![0u64; n * words],
            bits: vec![0; n],
            bits_per_token,
            graph,
            round: 0,
            deliveries: 0,
            quiescent: false,
        }
    }

    /// Executes one round. Returns `false` once the flood is quiescent (no
    /// node has anything left to broadcast — no further round can change
    /// any state or counter).
    pub fn step(&mut self) -> bool {
        if self.quiescent {
            return false;
        }
        let r = self.round + 1;
        let n = self.graph.len();
        let words = self.words;
        // Consume: tokens delivered last round that are new to each live
        // node become its broadcast frontier (skipped in round 1, where
        // the frontier holds the injected origin tokens instead).
        if r > 1 {
            for i in 0..n {
                let base = i * words;
                if r >= self.crash_round[i] {
                    // Dead nodes consume nothing; drop what was queued.
                    self.incoming[base..base + words].iter_mut().for_each(|w| *w = 0);
                    self.frontier[base..base + words].iter_mut().for_each(|w| *w = 0);
                    continue;
                }
                for k in 0..words {
                    let inc = self.incoming[base + k];
                    let new = inc & !self.seen[base + k];
                    self.seen[base + k] |= inc;
                    self.frontier[base + k] = new;
                    self.incoming[base + k] = 0;
                }
            }
        }
        // Broadcast: word-parallel OR of each live sender's frontier into
        // every eligible receiver, with the engine's exact crash and
        // partial-restriction predicates and delivery counting.
        let mut any = false;
        for i in 0..n {
            if r >= self.crash_round[i] {
                continue;
            }
            let base = i * words;
            let tokens: u32 =
                self.frontier[base..base + words].iter().map(|w| w.count_ones()).sum();
            if tokens == 0 {
                continue;
            }
            any = true;
            self.bits[i] += self.bits_per_token * u64::from(tokens);
            let restriction: Option<&[NodeId]> =
                if self.crash_round[i] == r + 1 { self.partial_rx[i].as_deref() } else { None };
            for &w in self.graph.neighbors(NodeId(i as u32)) {
                if r + 1 >= self.crash_round[w.index()] {
                    continue;
                }
                if let Some(rx) = restriction {
                    if rx.binary_search(&w).is_err() {
                        continue;
                    }
                }
                let wbase = w.index() * words;
                for k in 0..words {
                    self.incoming[wbase + k] |= self.frontier[base + k];
                }
                self.deliveries += u64::from(tokens);
            }
        }
        self.round = r;
        if !any {
            self.quiescent = true;
        }
        true
    }

    /// Runs until quiescent or `max_rounds` rounds have executed.
    pub fn run(&mut self, max_rounds: Round) -> BitFloodReport {
        let t0 = Instant::now();
        while self.round < max_rounds && self.step() {}
        BitFloodReport {
            rounds: self.round,
            deliveries: self.deliveries,
            total_bits: self.bits.iter().sum(),
            max_bits: self.bits.iter().copied().max().unwrap_or(0),
            busy: t0.elapsed(),
        }
    }

    /// The last executed round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Deliveries counted so far.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Bits broadcast by `v` so far.
    pub fn bits_of(&self, v: NodeId) -> u64 {
        self.bits[v.index()]
    }

    /// The tokens node `v` has sighted, ascending — the dense flooder's
    /// seen-set, decoded from the bitset.
    pub fn seen_tokens(&self, v: NodeId) -> Vec<NodeId> {
        let base = v.index() * self.words;
        let mut out = Vec::new();
        for k in 0..self.words {
            let mut w = self.seen[base + k];
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                out.push(NodeId((k * 64 + b) as u32));
                w &= w - 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Message, NodeLogic, RoundCtx};
    use crate::topology;

    #[test]
    fn dedup_behavior() {
        let mut fs = FloodState::new();
        assert!(fs.is_empty());
        assert!(fs.first_sighting(1u32));
        assert!(!fs.first_sighting(1u32));
        assert!(fs.first_sighting(2u32));
        assert_eq!(fs.len(), 2);
        assert!(fs.seen(&1));
        assert!(!fs.seen(&3));
    }

    #[test]
    fn mark_seen_suppresses_forwarding() {
        let mut fs = FloodState::new();
        fs.mark_seen("mine");
        assert!(!fs.first_sighting("mine"));
    }

    #[test]
    fn clear_resets() {
        let mut fs = FloodState::new();
        fs.mark_seen(9u8);
        fs.clear();
        assert!(fs.is_empty());
        assert!(fs.first_sighting(9u8));
    }

    /// Dense reference flooder (the bench microbench's logic, inlined):
    /// round 1 injects the own token; every first sighting is re-sent.
    struct DenseFlood {
        me: NodeId,
        flood: FloodState<u32>,
        seen_list: Vec<u32>,
    }

    #[derive(Clone, Debug)]
    struct Tok(u32);
    impl Message for Tok {
        fn bit_len(&self) -> u64 {
            32
        }
    }

    impl NodeLogic<Tok> for DenseFlood {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Tok>) {
            if ctx.round() == 1 {
                self.flood.mark_seen(self.me.0);
                self.seen_list.push(self.me.0);
                ctx.send(Tok(self.me.0));
            }
            let inbox: Vec<u32> = ctx.inbox().iter().map(|m| m.msg.0).collect();
            for t in inbox {
                if self.flood.first_sighting(t) {
                    self.seen_list.push(t);
                    ctx.send(Tok(t));
                }
            }
        }
    }

    #[test]
    fn bitflood_matches_the_dense_flooder_under_crashes() {
        let g = topology::grid(4, 3);
        let n = g.len();
        let mut sched = FailureSchedule::none();
        sched.crash(NodeId(5), 3);
        sched.crash_partial(NodeId(7), 2, vec![NodeId(6), NodeId(11)]);
        let rounds = 2 * u64::from(g.diameter()) + 2;

        let mut eng = Engine::new(g.clone(), sched.clone(), |v| DenseFlood {
            me: v,
            flood: FloodState::new(),
            seen_list: Vec::new(),
        });
        eng.run(rounds);

        let origins: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let mut lane = BitFlood::new(g, &sched, &origins, 32);
        let report = lane.run(rounds);

        assert_eq!(report.deliveries, eng.telemetry().deliveries);
        assert_eq!(report.total_bits, eng.metrics().total_bits());
        assert_eq!(report.max_bits, eng.metrics().max_bits());
        for v in 0..n as u32 {
            assert_eq!(lane.bits_of(NodeId(v)), eng.metrics().bits_of(NodeId(v)), "node {v}");
            let mut dense: Vec<NodeId> =
                eng.node(NodeId(v)).seen_list.iter().map(|&t| NodeId(t)).collect();
            dense.sort_unstable();
            assert_eq!(lane.seen_tokens(NodeId(v)), dense, "node {v} seen set");
        }
    }
}
