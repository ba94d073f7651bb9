//! Property-based checks of the adversary-mining layer:
//!
//! 1. every schedule produced by `adversary::mutate::schedule` respects
//!    the `f` edge-failure budget and the `c·d` stretch constraint and
//!    never crashes the root — whatever the bias, base, or RNG state;
//! 2. topology mutations keep the graph connected and keep the schedule
//!    valid and within budget on the *mutated* graph;
//! 3. the hill-climbing miner's recorded history is strictly improving
//!    (each accepted step is a new best), starting from the initial
//!    evaluation at iteration 0;
//! 4. a mined corpus entry round-trips through its text format and
//!    replays to the recorded objective value bit for bit.

use caaf::Sum;
use ftagg_bench::search::{
    corpus_entry, mine, replay_entry, Acceptance, MineConfig, MineProtocol, Objective,
};
use ftagg_bench::Env;
use netsim::adversary::{mutate, schedules};
use netsim::{topology, CorpusEntry, FailureSchedule, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const C: u32 = 2;

fn random_setup(seed: u64) -> (netsim::Graph, FailureSchedule, u64, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = match seed % 3 {
        0 => topology::connected_gnp(10 + (seed % 8) as usize, 0.25, &mut rng),
        1 => topology::caterpillar(6 + (seed % 6) as usize, 1),
        _ => topology::grid(3, 3 + (seed % 3) as usize),
    };
    let horizon = 42 * u64::from(g.diameter().max(1));
    let f_budget = 2 + (seed % 5) as usize;
    // A base that already satisfies the constraints (mutate falls back to
    // the base when no attempt sticks, so it must start inside them).
    let mut base = FailureSchedule::none();
    for _ in 0..50 {
        let cand = schedules::random_with_edge_budget(&g, NodeId(0), f_budget, horizon, &mut rng);
        if cand.stretch_factor(&g, NodeId(0)) <= f64::from(C) {
            base = cand;
            break;
        }
    }
    (g, base, horizon, f_budget)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chains of schedule mutations never escape the `f` budget, the
    /// `c·d` stretch constraint, or model validity.
    #[test]
    fn mutated_schedules_respect_f_budget_and_stretch(seed in 0u64..100_000) {
        let (g, base, horizon, f_budget) = random_setup(seed);
        let root = NodeId(0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
        let mut bias = mutate::MutationBias::default();
        let mut cur = base;
        for step in 0..12 {
            // Alternate between uniform and hot-spot-biased mutations.
            if step == 6 {
                bias.nodes = g.nodes().filter(|&v| v != root).take(3).collect();
                bias.rounds = vec![1, horizon / 2, horizon];
            }
            cur = mutate::schedule(&cur, &g, root, f_budget, horizon, C, &bias, &mut rng);
            prop_assert!(
                cur.edge_failures(&g) <= f_budget,
                "step {step}: {} edge failures exceed budget {f_budget}",
                cur.edge_failures(&g),
            );
            prop_assert!(
                cur.stretch_factor(&g, root) <= f64::from(C),
                "step {step}: stretch {} exceeds c = {C}",
                cur.stretch_factor(&g, root),
            );
            prop_assert!(cur.validate(&g, root).is_ok());
            prop_assert!(!cur.ever_crashes(root), "root crashed at step {step}");
            for (_, e) in cur.iter() {
                prop_assert!(e.round >= 1 && e.round <= horizon, "round {} off horizon", e.round);
            }
        }
    }

    /// Topology mutations stay connected and keep the schedule valid and
    /// within budget on the mutated graph.
    #[test]
    fn mutated_topologies_stay_connected_and_in_budget(seed in 0u64..100_000) {
        let (g, schedule, _horizon, f_budget) = random_setup(seed);
        let root = NodeId(0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let mut cur = g;
        for step in 0..8 {
            let Some(next) = mutate::topology(&cur, root, &schedule, f_budget, C, &mut rng) else {
                continue;
            };
            prop_assert!(next.is_connected(), "disconnected at step {step}");
            prop_assert_eq!(next.len(), cur.len(), "node count must not change");
            prop_assert!(schedule.edge_failures(&next) <= f_budget);
            prop_assert!(schedule.stretch_factor(&next, root) <= f64::from(C));
            prop_assert!(schedule.validate(&next, root).is_ok());
            let delta = next.edge_count() as i64 - cur.edge_count() as i64;
            prop_assert!(delta.abs() == 1, "one edge added or removed, got delta {delta}");
            cur = next;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Hill climbing only ever records improvements: the history starts
    /// with the initial evaluation and is strictly increasing, and the
    /// final value equals the last history entry.
    #[test]
    fn hill_climb_history_is_strictly_improving(seed in 0u64..10_000) {
        let env = Env::caterpillar(seed, 6, 3, 42, C);
        let cfg = MineConfig {
            iterations: 10,
            coin_seeds: 2,
            seed,
            threads: 1,
            b: 42,
            c: C,
            f_budget: 3,
            objective: Objective::BottleneckCc,
            protocol: MineProtocol::Tradeoff { f: 3 },
            acceptance: Acceptance::HillClimb,
            mutate_topology: false,
        };
        let r = mine(&Sum, &env.graph, &env.inputs, env.max_input, &cfg, Some(&env.schedule), None);
        prop_assert!(!r.history.is_empty());
        prop_assert_eq!(r.history[0].iteration, 0, "history starts at the initial evaluation");
        for w in r.history.windows(2) {
            prop_assert!(
                w[1].value > w[0].value,
                "accepted step did not improve: {} -> {}", w[0].value, w[1].value,
            );
            prop_assert!(w[1].iteration > w[0].iteration);
        }
        prop_assert_eq!(r.value, r.history.last().unwrap().value);
        prop_assert_eq!(r.evaluations, cfg.iterations + 1);
    }

    /// Corpus round-trip: serialize, reparse, replay — the reparsed entry
    /// is structurally identical and replays to the recorded value bit
    /// for bit under the strict watchdog.
    #[test]
    fn corpus_round_trip_replays_bit_for_bit(seed in 0u64..10_000) {
        let env = Env::caterpillar(seed, 5, 2, 42, C);
        let cfg = MineConfig {
            iterations: 6,
            coin_seeds: 2,
            seed,
            threads: 1,
            b: 42,
            c: C,
            f_budget: 2,
            objective: Objective::RootCc,
            protocol: MineProtocol::Tradeoff { f: 2 },
            acceptance: Acceptance::HillClimb,
            mutate_topology: false,
        };
        let r = mine(&Sum, &env.graph, &env.inputs, env.max_input, &cfg, Some(&env.schedule), None);
        let entry = corpus_entry("prop-rt", &Sum, &env.inputs, env.max_input, &cfg, &r);
        let text = entry.to_text();
        let parsed = CorpusEntry::from_text(&text).expect("round trip parses");
        prop_assert_eq!(parsed.to_text(), text, "serialization is a fixed point");
        prop_assert_eq!(&parsed.value, &entry.value);
        prop_assert_eq!(parsed.graph.edges(), entry.graph.edges());
        let replay = replay_entry(&parsed, true).expect("replay runs");
        prop_assert_eq!(replay.value, entry.value, "replayed CC drifted");
        prop_assert!(replay.monitor.is_clean(), "strict watchdog flagged the replay");
        prop_assert_eq!(replay.counterexamples, 0usize);
    }
}
