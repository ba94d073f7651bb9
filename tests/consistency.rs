//! Cross-cutting consistency invariants of the implementation itself:
//! determinism under fixed seeds, agreement between the engine's bit
//! meter and the protocol's internal accounting, and report arithmetic.

use caaf::Sum;
use ftagg::run::run_pair_engine;
use ftagg::tradeoff::{run_tradeoff, TradeoffConfig};
use ftagg::Instance;
use netsim::{adversary::schedules, topology, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const C: u32 = 2;

fn make(seed: u64, n: usize, k: usize) -> Option<Instance> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = topology::connected_gnp(n, 0.15, &mut rng);
    let horizon = 26 * u64::from(g.diameter());
    let s = schedules::random(&g, NodeId(0), k, horizon, &mut rng);
    if s.stretch_factor(&g, NodeId(0)) > f64::from(C) {
        return None;
    }
    let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100)).collect();
    Some(Instance::new(g, NodeId(0), inputs, s, 99).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    #[test]
    fn engine_meter_equals_protocol_accounting(seed in 0u64..100_000, n in 6usize..24, k in 0usize..4, t in 0u32..5) {
        // The engine's per-node bit meter and PairNode's internal
        // agg/veri counters measure the same traffic (the budget symbols
        // are the only exempt messages; they are 4-bit tags).
        if let Some(inst) = make(seed, n, k) {
            let (eng, _params) = run_pair_engine(&Sum, &inst, C, t, true);
            for v in inst.graph.nodes() {
                let metered = eng.metrics().bits_of(v);
                let internal = eng.node(v).agg_bits_sent() + eng.node(v).veri_bits_sent();
                // Metered may exceed internal only by the exempt symbols.
                prop_assert!(metered >= internal, "node {v}: meter {metered} < internal {internal}");
                prop_assert!(metered - internal <= 8, "node {v}: {} exempt bits", metered - internal);
            }
        }
    }

    #[test]
    fn identical_seeds_identical_everything(seed in 0u64..100_000, n in 6usize..20) {
        if let Some(inst) = make(seed, n, 2) {
            let cfg = TradeoffConfig { b: 63, c: C, f: 5, seed };
            let a = run_tradeoff(&Sum, &inst, &cfg);
            let b = run_tradeoff(&Sum, &inst, &cfg);
            prop_assert_eq!(a.result, b.result);
            prop_assert_eq!(a.rounds, b.rounds);
            prop_assert_eq!(a.pairs_run, b.pairs_run);
            prop_assert_eq!(a.metrics.max_bits(), b.metrics.max_bits());
            prop_assert_eq!(a.metrics.total_bits(), b.metrics.total_bits());
        }
    }

    #[test]
    fn metrics_totals_are_sums(seed in 0u64..100_000, n in 6usize..20, t in 0u32..4) {
        if let Some(inst) = make(seed, n, 2) {
            let (eng, _p) = run_pair_engine(&Sum, &inst, C, t, true);
            let m = eng.metrics();
            let sum: u64 = inst.graph.nodes().map(|v| m.bits_of(v)).sum();
            prop_assert_eq!(m.total_bits(), sum);
            let max = inst.graph.nodes().map(|v| m.bits_of(v)).max().unwrap();
            prop_assert_eq!(m.max_bits(), max);
            if let Some(bn) = m.bottleneck() {
                prop_assert_eq!(m.bits_of(bn), max);
            }
        }
    }
}
