//! Property-based checks of the trace-diff layer (`netsim::diff`) over
//! real protocol executions:
//!
//! 1. `diff(t, t)` is empty for every traced execution — and so is the
//!    diff of two *independent* reruns of the same configuration (the
//!    engine is deterministic, and diffing ignores nothing it shouldn't);
//! 2. moving one crash to a later round yields a first divergence whose
//!    round sits inside `[original, perturbed]`: executions are
//!    bit-identical before the earlier crash round and must part ways by
//!    the later one.

use caaf::Sum;
use ftagg::pair::Tweaks;
use ftagg::tradeoff::{run_tradeoff_observed, TradeoffConfig, TradeoffReport};
use ftagg::{run_pair_observed, Instance, Observe, PairReport};
use netsim::{adversary::schedules, diff, topology, FailureSchedule, NodeId, Trace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_instance(seed: u64, c: u32) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = match seed % 3 {
        0 => topology::connected_gnp(12 + (seed % 8) as usize, 0.2, &mut rng),
        1 => topology::random_tree(10 + (seed % 8) as usize, &mut rng),
        _ => topology::grid(3, 3 + (seed % 3) as usize),
    };
    let n = g.len();
    let horizon = 60 * u64::from(g.diameter().max(1));
    let mut schedule = FailureSchedule::none();
    for _ in 0..20 {
        let cand = schedules::random_with_edge_budget(&g, NodeId(0), 4, horizon, &mut rng);
        if cand.stretch_factor(&g, NodeId(0)) <= f64::from(c) {
            schedule = cand;
            break;
        }
    }
    let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..50)).collect();
    Instance::new(g, NodeId(0), inputs, schedule, 50).unwrap()
}

fn traced_pair(inst: &Instance, c: u32) -> (PairReport, Trace) {
    let obs = Observe::trace();
    let (r, seen, _) = run_pair_observed(&Sum, inst, c, 2, true, Tweaks::default(), obs);
    (r, seen.trace.expect("trace requested"))
}

fn traced_tradeoff(inst: &Instance, cfg: &TradeoffConfig) -> (TradeoffReport, Trace) {
    let (r, seen) = run_tradeoff_observed(&Sum, inst, cfg, Observe::trace());
    (r, seen.trace.expect("trace requested"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pair traces: self-diff and rerun-diff are both empty.
    #[test]
    fn pair_self_diff_is_empty(seed in 0u64..100_000) {
        let c = 2;
        let inst = random_instance(seed, c);
        let (_r, t) = traced_pair(&inst, c);
        let d = diff(&t, &t);
        prop_assert!(d.is_empty(), "self-diff must be empty: {:?}", d.divergence);
        prop_assert_eq!(d.events.0, t.events().len());
        // Determinism, witnessed through the diff: an independent rerun
        // of the same configuration is observationally identical.
        let (_r2, t2) = traced_pair(&inst, c);
        prop_assert!(diff(&t, &t2).is_empty(), "rerun must diff empty");
    }

    /// Full Algorithm 1 traces: self-diff and rerun-diff are both empty.
    #[test]
    fn tradeoff_self_diff_is_empty(seed in 0u64..100_000) {
        let c = 2;
        let inst = random_instance(seed, c);
        let cfg = TradeoffConfig { b: 42, c, f: 4, seed };
        let (_r, t) = traced_tradeoff(&inst, &cfg);
        prop_assert!(diff(&t, &t).is_empty());
        let (_r2, t2) = traced_tradeoff(&inst, &cfg);
        prop_assert!(diff(&t, &t2).is_empty(), "rerun must diff empty");
    }

    /// Moving one crash later by a few rounds: the two traces share every
    /// event before the original round and must diverge by the perturbed
    /// one, so the first divergence lands in `[original, perturbed]`.
    #[test]
    fn crash_perturbation_diverges_at_or_before_the_perturbed_round(seed in 0u64..100_000) {
        let c = 2;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
        // A grid stays connected after any single crash, so both
        // schedules are valid instances.
        let g = topology::grid(3, 3 + (seed % 3) as usize);
        let n = g.len();
        let node = NodeId(1 + (seed % (n as u64 - 1)) as u32);
        let r1 = 2 + (seed % 6); // 2..=7: well inside every pair budget
        let r2 = r1 + 1 + (seed % 3); // strictly later: r1+1..=r1+3
        let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..50)).collect();
        let mut s1 = FailureSchedule::none();
        s1.crash(node, r1);
        let mut s2 = FailureSchedule::none();
        s2.crash(node, r2);
        // Each run is judged by the schedule it runs: one instance each.
        let inst = |s| Instance::new(g.clone(), NodeId(0), inputs.clone(), s, 50).unwrap();
        let (_ra, ta) = traced_pair(&inst(s1), c);
        let (_rb, tb) = traced_pair(&inst(s2), c);
        let d = diff(&ta, &tb);
        let dv = d.divergence.as_ref().expect("a moved crash must diverge");
        prop_assert!(
            dv.round <= r2,
            "divergence at round {} but the perturbed crash is at {}", dv.round, r2
        );
        prop_assert!(
            dv.round >= r1,
            "divergence at round {} before the original crash at {} — \
             the shared prefix leaked", dv.round, r1
        );
    }
}

/// The acceptance pin: on a fixed grid, moving one clean crash by one
/// round diverges exactly at the original crash round, classified as a
/// crash-schedule change, with the crashed node's CC delta visible.
#[test]
fn pinned_crash_move_is_classified_and_bounded() {
    let g = topology::grid(3, 4);
    let n = g.len();
    let inputs: Vec<u64> = (1..=n as u64).collect();
    let mut s1 = FailureSchedule::none();
    s1.crash(NodeId(5), 4);
    let mut s2 = FailureSchedule::none();
    s2.crash(NodeId(5), 5);
    let inst = |s| Instance::new(g.clone(), NodeId(0), inputs.clone(), s, n as u64).unwrap();
    let (_ra, ta) = traced_pair(&inst(s1), 2);
    let (_rb, tb) = traced_pair(&inst(s2), 2);
    let d = diff(&ta, &tb);
    let dv = d.divergence.expect("moved crash diverges");
    assert!((4..=5).contains(&dv.round), "round {}", dv.round);
    // At the divergence the left trace is missing node 5's round-4
    // activity (it is already dead) or shows the crash itself — either
    // way the classifier must blame the schedule or the traffic it
    // suppressed, never topology/length.
    assert!(
        matches!(
            dv.class,
            netsim::DivergenceClass::CrashSchedule | netsim::DivergenceClass::ProtocolMessage
        ),
        "class {:?}",
        dv.class
    );
    // One extra live round for node 5 means its CC can only grow.
    let n5 = d.node_deltas.iter().find(|delta| delta.label == "n5");
    if let Some(delta) = n5 {
        assert!(delta.signed() > 0, "crashing later cannot shrink n5's CC: {delta:?}");
    }
}
