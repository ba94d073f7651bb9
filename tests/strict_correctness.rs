//! Footnote 6's *strict* correctness: the paper notes all results hold
//! under the stronger definition "the result equals `◇_{o∈s} o` for some
//! `s1 ⊆ s ⊆ s2`" — not merely a value in the interval. For SUM this is a
//! subset-sum condition and is a much sharper net for double-counting
//! bugs: adding a blocked partial sum twice can easily stay inside the
//! interval but will rarely hit an achievable subset sum.
//!
//! The representative-set machinery (§4.3) is exactly what guarantees it:
//! every input is counted at most once, live inputs exactly once.

use caaf::oracle::achievable_results;
use caaf::Sum;
use ftagg::pair::AggOutcome;
use ftagg::run::run_pair_engine;
use ftagg::tradeoff::{run_tradeoff, TradeoffConfig};
use ftagg::Instance;
use netsim::{adversary::schedules, topology, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const C: u32 = 2;

/// Splits inputs into (mandatory, optional) at `end_round` and checks the
/// strict subset-sum condition.
fn strictly_correct(inst: &Instance, result: u64, end_round: u64) -> bool {
    let dead = inst.schedule.dead_by(end_round);
    let alive: std::collections::HashSet<NodeId> =
        inst.graph.reachable_from(inst.root, &dead).into_iter().collect();
    let mut mandatory = Vec::new();
    let mut optional = Vec::new();
    for v in inst.graph.nodes() {
        if alive.contains(&v) {
            mandatory.push(inst.inputs[v.index()]);
        } else {
            optional.push(inst.inputs[v.index()]);
        }
    }
    assert!(optional.len() <= 20, "keep enumeration tractable");
    achievable_results(&Sum, &mandatory, &optional).contains(&result)
}

/// Powers-of-two inputs make subset sums unique: any double count or
/// half-count lands outside the achievable set with certainty.
fn pow2_inputs(n: usize) -> Vec<u64> {
    (0..n).map(|i| 1u64 << (i % 16)).collect()
}

#[test]
fn pair_results_are_strictly_correct() {
    let mut rng = StdRng::seed_from_u64(61);
    let mut checked = 0;
    for trial in 0..60u64 {
        let g = match trial % 3 {
            0 => topology::cycle(14),
            1 => topology::connected_gnp(16, 0.2, &mut rng),
            _ => topology::caterpillar(6, 1),
        };
        let n = g.len();
        let horizon = 26 * u64::from(g.diameter()) + 10;
        let k = rng.gen_range(0..4);
        let s = schedules::random(&g, NodeId(0), k, horizon, &mut rng);
        if s.stretch_factor(&g, NodeId(0)) > f64::from(C) {
            continue;
        }
        let inst = Instance::new(g, NodeId(0), pow2_inputs(n), s, 1 << 15).unwrap();
        let t = rng.gen_range(0..5);
        let (eng, params) = run_pair_engine(&Sum, &inst, C, t, true);
        let root = eng.node(inst.root);
        // Per Theorem 5 the strict guarantee only binds when there is no
        // LFC; the acceptance condition (no abort + VERI true) implies it.
        if let AggOutcome::Result(v) = root.agg_outcome() {
            if root.veri_verdict() {
                assert!(
                    strictly_correct(&inst, v, params.total_rounds()),
                    "trial {trial}: accepted result {v} is not an achievable subset sum"
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 30, "want coverage, got {checked}");
}

#[test]
fn tradeoff_results_are_strictly_correct() {
    let mut rng = StdRng::seed_from_u64(62);
    let mut checked = 0;
    for trial in 0..40u64 {
        let g = topology::connected_gnp(18, 0.18, &mut rng);
        let n = g.len();
        let horizon = 63 * u64::from(g.diameter());
        let k = rng.gen_range(0..4);
        let s = schedules::random(&g, NodeId(0), k, horizon, &mut rng);
        if s.stretch_factor(&g, NodeId(0)) > f64::from(C) {
            continue;
        }
        let inst = Instance::new(g, NodeId(0), pow2_inputs(n), s, 1 << 15).unwrap();
        let cfg = TradeoffConfig { b: 63, c: C, f: inst.edge_failures().max(1), seed: trial };
        let r = run_tradeoff(&Sum, &inst, &cfg);
        assert!(
            strictly_correct(&inst, r.result, r.rounds),
            "trial {trial}: Algorithm 1 result {} is not an achievable subset sum",
            r.result
        );
        checked += 1;
    }
    assert!(checked >= 25, "want coverage, got {checked}");
}
