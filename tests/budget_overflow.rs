//! The bit-budget enforcement paths: AGG's abort symbol and VERI's
//! overflow symbol. Under mass failure with a tiny `t`, flood traffic
//! exceeds the per-node budgets `(11t+14)(logN+5)` / `(5t+7)(3logN+10)`;
//! the protocols must then degrade *safely* — abort / output false —
//! while every node's metered bits stay within budget.

use caaf::Sum;
use ftagg::msg::{agg_bit_budget, veri_bit_budget};
use ftagg::pair::AggOutcome;
use ftagg::run::run_pair_engine;
use ftagg::tradeoff::{run_tradeoff_monitored, TradeoffConfig};
use ftagg::Instance;
use netsim::{topology, FailureSchedule, NodeId};

const C: u32 = 2;

/// Torus with 8 scattered nodes dying around phase offset `round_off·cd`:
/// the graph stays connected (stretch ≈ 1.2), so every failure's recovery
/// floods reach every node — maximum traffic against a t = 0 budget.
fn mass_failure_instance(round_off: u64) -> Instance {
    let g = topology::torus(4, 8);
    let n = g.len();
    let cd = u64::from(C) * u64::from(g.diameter());
    let mut s = FailureSchedule::none();
    for &v in &[3u32, 6, 10, 13, 17, 20, 26, 29] {
        s.crash(NodeId(v), round_off * cd + 2 + u64::from(v) % 3);
    }
    Instance::new(g, NodeId(0), vec![1; n], s, 1).unwrap()
}

#[test]
fn agg_aborts_but_never_exceeds_budget() {
    // Deaths right after tree construction (round offset 2 ≈ start of
    // aggregation): a storm of critical-failure and speculative floods
    // against a t = 0 budget.
    let inst = mass_failure_instance(2);
    let t = 0;
    let (eng, _params) = run_pair_engine(&Sum, &inst, inst.schedule.clone(), C, t, true);
    let root = eng.node(inst.root);
    assert_eq!(
        root.agg_outcome(),
        AggOutcome::Aborted,
        "mass failure with t = 0 must trip the abort budget"
    );
    let budget = agg_bit_budget(inst.n(), t);
    for v in inst.graph.nodes() {
        assert!(
            eng.node(v).agg_bits_sent() <= budget,
            "node {v}: {} > {budget}",
            eng.node(v).agg_bits_sent()
        );
    }
}

#[test]
fn veri_overflow_forces_false_within_budget() {
    // Deaths during the speculative-flooding phase (offset 5): AGG's tree
    // already aggregated cleanly, so AGG stays under budget, but VERI
    // faces a storm of failed-parent/failed-child floods at t = 0.
    let inst = mass_failure_instance(5);
    let t = 0;
    let (eng, _params) = run_pair_engine(&Sum, &inst, inst.schedule.clone(), C, t, true);
    let root = eng.node(inst.root);
    // With t = 0 there are no witnesses, so any failed-parent claim that
    // reaches the root (or an overflow) forces false — the one-sided rule.
    assert!(!root.veri_verdict(), "VERI must output false (overflow or detected failures)");
    assert!(
        !root.failed_parents_seen().is_empty(),
        "the failed-parent claims must have reached the root"
    );
    let budget = veri_bit_budget(inst.n(), t);
    for v in inst.graph.nodes() {
        assert!(
            eng.node(v).veri_bits_sent() <= budget,
            "node {v}: {} > {budget}",
            eng.node(v).veri_bits_sent()
        );
    }
}

#[test]
fn tradeoff_runs_multiple_pairs_when_intervals_fail() {
    // Algorithm 1's retry path, pinned. b = 400 gives x = 10 intervals
    // and pair tolerance t = ⌊2f/x⌋ = 0 at f = 4. One crash early in
    // aggregation (round 2cd + 2, where cd = 12 on the 4×8 torus) fails
    // node 13's 4 edges and keeps the stretch at 1. The schedule does not
    // read the coins. At coin seed 9, VERI rejects the first pair and a
    // second pair runs.
    let g = topology::torus(4, 8);
    let n = g.len();
    let cd = u64::from(C) * u64::from(g.diameter());
    let mut s = FailureSchedule::none();
    s.crash(NodeId(13), 2 * cd + 2);
    let inst = Instance::new(g, NodeId(0), vec![2; n], s, 2).unwrap();
    assert_eq!(inst.schedule.stretch_factor(&inst.graph, inst.root), 1.0);
    let b = 400;
    let cfg = TradeoffConfig { b, c: C, f: 4, seed: 9 };
    let (r, monitor) = run_tradeoff_monitored(&Sum, &inst, &cfg, true);
    assert_eq!(r.pairs_run, 2, "the first pair must be rejected and retried");
    assert!(!r.used_fallback);
    assert!(r.correct, "result {} incorrect", r.result);
    assert!(r.flooding_rounds <= b + 1);
    assert!(monitor.is_clean(), "{}", monitor.render());
}
