//! Quickstart: fault-tolerant SUM on a random network.
//!
//! Builds a 64-node connected random graph, schedules a handful of crash
//! failures, and runs the paper's Algorithm 1 (the communication-time
//! tradeoff protocol) next to the two baselines, printing what each one
//! costs.
//!
//! Run with: `cargo run --release --example quickstart`

use caaf::Sum;
use ftagg::baselines::{run_brute, run_folklore};
use ftagg::tradeoff::{run_tradeoff, TradeoffConfig};
use ftagg::Instance;
use netsim::{adversary::schedules, topology, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(2014);
    let n = 64;
    let root = NodeId(0);

    // A connected random topology and a failure schedule the model allows
    // (live diameter stays within c·d for c = 2).
    let graph = topology::connected_gnp(n, 0.08, &mut rng);
    let d = graph.diameter();
    let b = 63; // TC budget in flooding rounds (≥ 21c)
    let f = 12; // known bound on edge failures
    let horizon = u64::from(d) * b;
    let schedule = loop {
        let s = schedules::random_with_edge_budget(&graph, root, f, horizon, &mut rng);
        if s.stretch_factor(&graph, root) <= 2.0 {
            break s;
        }
    };
    let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100)).collect();
    let inst = Instance::new(graph, root, inputs, schedule, 100)?;

    println!(
        "N = {n} nodes, diameter d = {d}, f = {} edge failures scheduled",
        inst.edge_failures()
    );
    println!("sum of all inputs = {}\n", inst.full_aggregate(&Sum));

    // The paper's protocol (Algorithm 1).
    let cfg = TradeoffConfig { b, c: 2, f, seed: 7 };
    let r = run_tradeoff(&Sum, &inst, &cfg);
    println!("Algorithm 1  (b = {b}):");
    println!("  result   = {} (correct: {})", r.result, r.correct);
    println!("  CC       = {} bits at the bottleneck node", r.metrics.max_bits());
    println!(
        "  TC       = {} flooding rounds, {} pairs run, fallback: {}\n",
        r.flooding_rounds, r.pairs_run, r.used_fallback
    );

    // Baseline: brute-force flooding (O(1) TC, O(N log N) CC).
    let br = run_brute(&Sum, &inst, 2);
    println!("Brute force:");
    println!("  result   = {} (correct: {})", br.result, br.correct);
    println!("  CC       = {} bits\n", br.metrics.max_bits());

    // Baseline: folklore retry-until-clean (O(f) TC, O(f log N) CC).
    let fo = run_folklore(&Sum, &inst, 2, 2 * f + 2);
    println!("Folklore retry:");
    println!("  result   = {} (correct: {})", fo.result, fo.correct);
    println!("  CC       = {} bits over {} attempts", fo.metrics.max_bits(), fo.attempts);

    assert!(r.correct && br.correct && fo.correct);
    Ok(())
}
