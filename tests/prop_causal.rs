//! Property-based checks of the causal provenance layer (`netsim::causal`)
//! over real protocol executions:
//!
//! 1. the message-lineage DAG is acyclic, with every edge pointing from a
//!    strictly earlier round to a later one;
//! 2. per-node per-kind CC blame *partitions* `Metrics::bits_of` exactly —
//!    the engine emits one `Send` event per message kind with bits summed
//!    per kind, so the kinds of a node sum to its meter, bit for bit;
//! 3. the critical path's length equals the root's measured decision
//!    round, for single pairs and for full Algorithm 1 executions.

use ftagg::pair::Tweaks;
use ftagg::tradeoff::{run_tradeoff_observed, TradeoffConfig, TradeoffReport};
use ftagg::{run_pair_observed, Instance, Observe, PairReport};
use netsim::{adversary::schedules, topology, Blame, CausalDag, FailureSchedule, NodeId, Trace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The blame kinds `ftagg::msg` threads through the engine, plus the
/// doubling wrapper's blanket tag and the untagged bucket.
const KNOWN_KINDS: &[&str] = &[
    "tree-construct",
    "aggregate",
    "veri",
    "interval-sample",
    "fallback",
    "doubling-stage",
    netsim::UNTAGGED,
];

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

fn traced_pair(inst: &Instance, schedule: FailureSchedule, c: u32) -> (PairReport, Trace) {
    let obs = Observe::trace();
    let (r, seen, _) =
        run_pair_observed(&caaf::Sum, inst, schedule, c, 2, true, 0, Tweaks::default(), obs);
    (r, seen.trace.expect("trace requested"))
}

fn traced_tradeoff(inst: &Instance, cfg: &TradeoffConfig) -> (TradeoffReport, Trace) {
    let (r, seen) = run_tradeoff_observed(&caaf::Sum, inst, cfg, Observe::trace());
    (r, seen.trace.expect("trace requested"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pair-run DAG is acyclic: the trace is round-ordered, so a
    /// strictly-earlier-round parent is also an earlier vertex — a
    /// topological order, which a cyclic graph cannot have.
    #[test]
    fn pair_dag_is_acyclic_with_forward_edges(seed in 0u64..100_000) {
        let c = 2;
        let inst = random_instance(seed, c);
        let (_rep, trace) =
            traced_pair(&inst, inst.schedule.clone(), c);
        let dag = CausalDag::from_trace(&trace);
        for (p, ch) in dag.edges() {
            prop_assert!(p < ch, "parent {} not before child {} in vertex order", p, ch);
            prop_assert!(
                dag.send_info(p).1 < dag.send_info(ch).1,
                "edge {} -> {} does not advance rounds ({} >= {})",
                p, ch, dag.send_info(p).1, dag.send_info(ch).1
            );
        }
    }

    /// Blame partitions the engine's own per-node bit meters exactly, and
    /// every kind the protocol emits is a known pseudocode stage.
    #[test]
    fn pair_blame_partitions_bits_of(seed in 0u64..100_000) {
        let c = 2;
        let inst = random_instance(seed, c);
        let (rep, trace) =
            traced_pair(&inst, inst.schedule.clone(), c);
        let blame = Blame::from_trace(&trace);
        for v in inst.graph.nodes() {
            prop_assert_eq!(
                blame.node_total(v),
                rep.metrics.bits_of(v),
                "blame must partition bits_of at {}", v
            );
        }
        for kind in blame.kinds() {
            prop_assert!(KNOWN_KINDS.contains(&kind.as_str()), "unknown kind '{}'", kind);
        }
    }

    /// Whenever the pair decides, the critical path terminates at that
    /// decision: its length (= decision round) matches the measured
    /// rounds, its hops strictly advance in round, and the decider is the
    /// root.
    #[test]
    fn pair_critical_path_matches_the_decision_round(seed in 0u64..100_000) {
        let c = 2;
        let inst = random_instance(seed, c);
        let (rep, trace) =
            traced_pair(&inst, inst.schedule.clone(), c);
        let dag = CausalDag::from_trace(&trace);
        match (rep.result(), dag.critical_path()) {
            (Some(_), Some(cp)) => {
                prop_assert_eq!(cp.decide_node, inst.root);
                prop_assert_eq!(cp.length_rounds(), rep.rounds, "path length vs measured rounds");
                for w in cp.hops.windows(2) {
                    prop_assert!(w[0].round < w[1].round, "hops must advance rounds");
                }
                if let Some(last) = cp.hops.last() {
                    prop_assert!(last.round < cp.decide_round);
                }
            }
            (None, None) => {} // aborted: no decision, no path
            (res, path) => {
                prop_assert!(false, "decide {:?} but path {:?}", res, path.is_some());
            }
        }
    }

    /// The full Algorithm 1 invariants: one decision, critical-path length
    /// == termination round, blame partitions the merged metrics.
    #[test]
    fn tradeoff_trace_explains_the_whole_run(seed in 0u64..100_000) {
        let c = 2;
        let inst = random_instance(seed, c);
        let cfg = TradeoffConfig { b: 42, c, f: 4, seed };
        let (rep, trace) = traced_tradeoff(&inst, &cfg);
        prop_assert!(rep.correct);
        let dag = CausalDag::from_trace(&trace);
        let cp = dag.critical_path().expect("a tradeoff run always decides");
        prop_assert_eq!(cp.decide_node, inst.root);
        prop_assert_eq!(cp.length_rounds(), rep.rounds);
        let blame = Blame::from_trace(&trace);
        for v in inst.graph.nodes() {
            prop_assert_eq!(blame.node_total(v), rep.metrics.bits_of(v), "node {}", v);
        }
        // Coverage ⊇ the paper's mandatory set: every node alive and
        // root-connected at the decision round is causally included.
        let cov = dag.coverage();
        let dead = inst.schedule.dead_by(rep.rounds);
        for v in inst.graph.reachable_from(inst.root, &dead) {
            prop_assert!(cov.included.contains(&v), "surviving {} not included", v);
        }
    }
}

/// The acceptance pin: a deterministic Theorem 1 run on a fixed seed where
/// all three analyses must agree with the run report exactly.
#[test]
fn pinned_theorem1_run_is_fully_explained() {
    let mut rng = StdRng::seed_from_u64(1014);
    let g = topology::connected_gnp(20, 0.15, &mut rng);
    let horizon = 42 * u64::from(g.diameter().max(1));
    let s = schedules::random_with_edge_budget(&g, NodeId(0), 5, horizon, &mut rng);
    assert!(s.stretch_factor(&g, NodeId(0)) <= 2.0, "pinned seed must satisfy the stretch");
    let inputs: Vec<u64> = (0..20).map(|_| rng.gen_range(0..50)).collect();
    let inst = Instance::new(g, NodeId(0), inputs, s, 50).unwrap();
    let cfg = TradeoffConfig { b: 42, c: 2, f: 5, seed: 1014 };
    let (rep, trace) = traced_tradeoff(&inst, &cfg);
    assert!(rep.correct);

    let dag = CausalDag::from_trace(&trace);
    // Critical path length == measured termination round.
    let cp = dag.critical_path().expect("the run decides");
    assert_eq!(cp.length_rounds(), rep.rounds);
    assert_eq!(cp.decide_value, rep.result);
    // Blame partitions bits_of exactly, node by node.
    let blame = Blame::from_trace(&trace);
    for v in inst.graph.nodes() {
        assert_eq!(blame.node_total(v), rep.metrics.bits_of(v), "node {v}");
    }
    assert_eq!(
        (0..inst.n() as u32).map(|v| blame.node_total(NodeId(v))).sum::<u64>(),
        rep.metrics.total_bits()
    );
    // Coverage consistent with the CAAF envelope: the surviving set is
    // included, and the decided value sits inside the envelope those
    // mandatory inputs generate.
    let cov = dag.coverage();
    let dead = inst.schedule.dead_by(rep.rounds);
    for v in inst.graph.reachable_from(inst.root, &dead) {
        assert!(cov.included.contains(&v), "surviving {v} not causally included");
    }
    assert!(inst.correct_interval(&caaf::Sum, rep.rounds).contains(rep.result));
}
