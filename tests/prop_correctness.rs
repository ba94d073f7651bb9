//! Property-based end-to-end correctness: on random connected graphs with
//! random oblivious crash schedules (filtered to the model's `c·d`
//! assumption), every protocol in the repository must emit a correct
//! result — the paper's zero-error requirement.

use caaf::Sum;
use ftagg::baselines::{run_brute, run_folklore};
use ftagg::doubling::{run_doubling, DoublingConfig};
use ftagg::tradeoff::{run_tradeoff, TradeoffConfig};
use ftagg::Instance;
use netsim::{adversary::schedules, topology, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const C: u32 = 2;

/// Builds a random instance from a seed; returns `None` when the sampled
/// schedule violates the stretch assumption.
fn make_instance(seed: u64, n: usize, crashes: usize) -> Option<Instance> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = if rng.gen_bool(0.5) {
        topology::connected_gnp(n, 0.15, &mut rng)
    } else {
        topology::random_tree(n, &mut rng)
    };
    let horizon = 300 * u64::from(g.diameter());
    let s = schedules::random(&g, NodeId(0), crashes, horizon, &mut rng);
    if s.stretch_factor(&g, NodeId(0)) > f64::from(C) {
        return None;
    }
    let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..64)).collect();
    Some(Instance::new(g, NodeId(0), inputs, s, 63).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn tradeoff_always_correct(seed in 0u64..1_000_000, n in 8usize..28, crashes in 0usize..5, b_mult in 1u64..6) {
        if let Some(inst) = make_instance(seed, n, crashes) {
            let cfg = TradeoffConfig {
                b: 21 * u64::from(C) * b_mult,
                c: C,
                f: inst.edge_failures().max(1),
                seed,
            };
            let r = run_tradeoff(&Sum, &inst, &cfg);
            prop_assert!(r.correct, "seed {seed}: result {} incorrect", r.result);
            prop_assert!(r.flooding_rounds <= cfg.b + 1, "TC {} > budget {}", r.flooding_rounds, cfg.b);
        }
    }

    #[test]
    fn brute_always_correct(seed in 0u64..1_000_000, n in 4usize..30, crashes in 0usize..8) {
        if let Some(inst) = make_instance(seed, n, crashes) {
            let r = run_brute(&Sum, &inst, C);
            prop_assert!(r.correct, "seed {seed}: brute result {} incorrect", r.result);
        }
    }

    #[test]
    fn folklore_always_correct_when_not_exhausted(seed in 0u64..1_000_000, n in 4usize..24, crashes in 0usize..4) {
        if let Some(inst) = make_instance(seed, n, crashes) {
            let r = run_folklore(&Sum, &inst, C, 2 * crashes + 2);
            if !r.exhausted {
                prop_assert!(r.correct, "seed {seed}: folklore result {} incorrect", r.result);
            }
        }
    }

    #[test]
    fn doubling_always_correct(seed in 0u64..1_000_000, n in 8usize..20, crashes in 0usize..3) {
        if let Some(inst) = make_instance(seed, n, crashes) {
            let r = run_doubling(&Sum, &inst, &DoublingConfig { c: C, max_stages: 6 });
            prop_assert!(r.correct, "seed {seed}: doubling result {} incorrect", r.result);
        }
    }
}
