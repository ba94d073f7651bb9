//! Partial-broadcast crashes: a node's *final* local broadcast reaches only
//! an adversary-chosen subset of neighbors (crash in the middle of the
//! radio transmission). The protocols' correctness must survive this
//! strictly stronger adversary.

use caaf::Sum;
use ftagg::baselines::run_brute;
use ftagg::tradeoff::{run_tradeoff, TradeoffConfig};
use ftagg::Instance;
use netsim::{topology, FailureSchedule, NodeId};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};

const C: u32 = 2;

fn random_partial_schedule(
    g: &netsim::Graph,
    k: usize,
    horizon: u64,
    rng: &mut StdRng,
) -> FailureSchedule {
    let mut s = FailureSchedule::none();
    let mut pool: Vec<NodeId> = g.nodes().filter(|&v| v != NodeId(0)).collect();
    pool.shuffle(rng);
    for &v in pool.iter().take(k) {
        let round = rng.gen_range(2..=horizon);
        let nbrs = g.neighbors(v);
        let keep = rng.gen_range(0..=nbrs.len());
        let mut rx: Vec<NodeId> = nbrs.to_vec();
        rx.shuffle(rng);
        rx.truncate(keep);
        s.crash_partial(v, round, rx);
    }
    s
}

#[test]
fn tradeoff_survives_partial_broadcast_crashes() {
    let mut rng = StdRng::seed_from_u64(31);
    let mut checked = 0;
    for trial in 0..40u64 {
        let g = topology::connected_gnp(22, 0.15, &mut rng);
        let horizon = 63 * u64::from(g.diameter());
        let s = random_partial_schedule(&g, rng.gen_range(0..5), horizon, &mut rng);
        if s.stretch_factor(&g, NodeId(0)) > f64::from(C) {
            continue;
        }
        let inputs: Vec<u64> = (0..22).map(|_| rng.gen_range(0..64)).collect();
        let inst = Instance::new(g, NodeId(0), inputs, s, 63).unwrap();
        let cfg = TradeoffConfig { b: 63, c: C, f: inst.edge_failures().max(1), seed: trial };
        let r = run_tradeoff(&Sum, &inst, &cfg);
        assert!(r.correct, "trial {trial}: result {} incorrect under partial broadcasts", r.result);
        checked += 1;
    }
    assert!(checked >= 25, "want coverage, got {checked}");
}

#[test]
fn brute_force_survives_partial_broadcast_crashes() {
    let mut rng = StdRng::seed_from_u64(33);
    for trial in 0..40u64 {
        let g = topology::connected_gnp(18, 0.18, &mut rng);
        let horizon = 4 * u64::from(C) * u64::from(g.diameter());
        let s = random_partial_schedule(&g, rng.gen_range(0..6), horizon, &mut rng);
        if s.stretch_factor(&g, NodeId(0)) > f64::from(C) {
            continue;
        }
        let inputs: Vec<u64> = (0..18).map(|_| rng.gen_range(0..32)).collect();
        let inst = Instance::new(g, NodeId(0), inputs, s, 31).unwrap();
        let r = run_brute(&Sum, &inst, C);
        assert!(r.correct, "trial {trial}: brute result {} incorrect", r.result);
    }
}

#[test]
fn targeted_partial_loses_only_dead_inputs() {
    // Node 1 (level 1 on a star-ish graph) sends its aggregation but the
    // broadcast reaches only its child, not the root: the root treats it
    // as a critical failure and the child's speculative flood recovers.
    let g = netsim::Graph::new(4, &[(0, 1), (1, 2), (0, 3), (3, 2)]).unwrap();
    let d = u64::from(g.diameter()); // 2
    let cd = u64::from(C) * d;
    let action_1 = (2 * cd + 1) + (cd - 1 + 1);
    let mut s = FailureSchedule::none();
    // Final broadcast = the aggregation message sent at action_1; deliver
    // it to child 2 only (not to the root).
    s.crash_partial(NodeId(1), action_1 + 1, vec![NodeId(2)]);
    let inst = Instance::new(g, NodeId(0), vec![1, 10, 100, 1000], s, 1000).unwrap();
    let cfg = TradeoffConfig { b: 21 * u64::from(C), c: C, f: 2, seed: 0 };
    let r = run_tradeoff(&Sum, &inst, &cfg);
    assert!(r.correct);
    // Nodes 0, 2, 3 stay alive and connected: only node 1's input (10) may
    // be missing.
    assert!(r.result >= 1 + 100 + 1000, "live inputs lost: {}", r.result);
}
