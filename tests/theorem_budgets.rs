//! E5 — Theorems 3 and 6: AGG and VERI stay within their explicit round
//! and bit budgets on every topology family, with and without failures.
//!
//! - AGG: ≤ `7cd + 4` rounds (≤ 11c flooding rounds) and
//!   ≤ `(11t + 14)(log N + 5)` bits per node;
//! - VERI: ≤ `5cd + 3` rounds (≤ 8c flooding rounds) and
//!   ≤ `(5t + 7)(3·log N + 10)` bits per node.

use caaf::Sum;
use ftagg::msg::{agg_bit_budget, veri_bit_budget};
use ftagg::run::run_pair_engine;
use ftagg::Instance;
use netsim::{adversary::schedules, topology, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const C: u32 = 2;

fn check_budgets(inst: &Instance, t: u32, label: &str) {
    let n = inst.n();
    let (eng, params) = run_pair_engine(&Sum, inst, C, t, true);
    // Round budgets are structural (the state machines are phase-driven).
    assert_eq!(params.agg_rounds(), 7 * params.model.cd() + 4);
    assert_eq!(params.veri_rounds(), 5 * params.model.cd() + 3);
    assert!(params.model.to_flooding_rounds(params.agg_rounds()) <= 11 * u64::from(C) + 1);
    assert!(params.model.to_flooding_rounds(params.veri_rounds()) <= 8 * u64::from(C) + 1);
    // Bit budgets per node.
    let ab = agg_bit_budget(n, t);
    let vb = veri_bit_budget(n, t);
    for v in inst.graph.nodes() {
        let node = eng.node(v);
        assert!(
            node.agg_bits_sent() <= ab,
            "{label}: node {v} AGG bits {} > budget {ab} (t = {t})",
            node.agg_bits_sent()
        );
        assert!(
            node.veri_bits_sent() <= vb,
            "{label}: node {v} VERI bits {} > budget {vb} (t = {t})",
            node.veri_bits_sent()
        );
    }
}

#[test]
fn budgets_hold_failure_free_across_families() {
    let mut rng = StdRng::seed_from_u64(77);
    for fam in topology::Family::ALL {
        let g = fam.build(24, &mut rng);
        let n = g.len();
        for t in [0u32, 1, 3, 6] {
            let inst = Instance::new(
                g.clone(),
                NodeId(0),
                (0..n as u64).collect(),
                netsim::FailureSchedule::none(),
                n as u64,
            )
            .unwrap();
            check_budgets(&inst, t, &format!("{fam}"));
        }
    }
}

#[test]
fn budgets_hold_under_failures() {
    let mut rng = StdRng::seed_from_u64(78);
    for trial in 0..30 {
        let g = topology::connected_gnp(24, 0.12, &mut rng);
        let horizon = 13 * u64::from(C) * u64::from(g.diameter()) + 10;
        let k = rng.gen_range(0..6);
        let s = schedules::random(&g, NodeId(0), k, horizon, &mut rng);
        if s.stretch_factor(&g, NodeId(0)) > f64::from(C) {
            continue;
        }
        let inputs: Vec<u64> = (0..24).map(|_| rng.gen_range(0..100)).collect();
        let t = rng.gen_range(0..8);
        let inst = Instance::new(g, NodeId(0), inputs, s, 99).unwrap();
        check_budgets(&inst, t, &format!("trial {trial}"));
    }
}

#[test]
fn abort_mechanism_caps_bits_even_under_mass_failure() {
    // Kill a third of a big caterpillar mid-protocol with a tiny t: AGG
    // may abort, but no node may ever exceed its AGG budget.
    let mut rng = StdRng::seed_from_u64(79);
    let g = topology::caterpillar(12, 2);
    let n = g.len();
    let cd = u64::from(C) * u64::from(g.diameter());
    let mut s = netsim::FailureSchedule::none();
    for v in 1..=n as u32 / 3 {
        s.crash(NodeId(v * 2), 2 * cd + rng.gen_range(1..4 * cd));
    }
    let inst = Instance::new(g, NodeId(0), vec![1; n], s, 1).unwrap();
    check_budgets(&inst, 1, "mass failure");
}

#[test]
fn cc_grows_linearly_in_t() {
    // Theorem 3's O((t+1)·logN) shape: on a deep caterpillar, doubling t
    // (roughly) doubles the tree-construction cost (2t-entry ancestor
    // lists dominate).
    let g = topology::caterpillar(16, 1);
    let n = g.len();
    let inst = Instance::new(g, NodeId(0), vec![1; n], netsim::FailureSchedule::none(), 1).unwrap();
    let mut costs = Vec::new();
    for t in [1u32, 2, 4, 8] {
        let (eng, _) = run_pair_engine(&Sum, &inst, C, t, true);
        let max = inst.graph.nodes().map(|v| eng.node(v).agg_bits_sent()).max().unwrap();
        costs.push((t, max));
    }
    for w in costs.windows(2) {
        let (t0, c0) = w[0];
        let (t1, c1) = w[1];
        assert!(c1 >= c0, "cost must not drop as t grows: {costs:?}");
        // Sub-linear headroom check: cost(2t) ≤ 2.5 × cost(t) + overhead.
        assert!(c1 <= c0 * 5 / 2 + 200, "t {t0} -> {t1}: cost jumped {c0} -> {c1}");
    }
}
