//! Explore the communication-time tradeoff: Figure 1, live.
//!
//! Sweeps the TC budget `b` and prints, for each point, the measured CC of
//! Algorithm 1 next to the paper's upper- and lower-bound curves and the
//! two baselines — a terminal rendition of Figure 1.
//!
//! Run with: `cargo run --release --example tradeoff_explorer`

use caaf::Sum;
use ftagg::baselines::{run_brute, run_folklore};
use ftagg::bounds;
use ftagg::tradeoff::{run_tradeoff, TradeoffConfig};
use ftagg::Instance;
use netsim::{adversary::schedules, topology, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(41);
    let n = 96;
    let f = 24;
    let c = 2;
    let root = NodeId(0);
    let graph = topology::connected_gnp(n, 0.07, &mut rng);
    let d = graph.diameter();

    let horizon = u64::from(d) * 400;
    let schedule = loop {
        let s = schedules::random_with_edge_budget(&graph, root, f, horizon, &mut rng);
        if s.stretch_factor(&graph, root) <= f64::from(c) {
            break s;
        }
    };
    let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..64)).collect();
    let inst = Instance::new(graph, root, inputs, schedule, 64)?;

    println!("N = {n}, f = {} (scheduled), d = {d}, c = {c}", inst.edge_failures());
    println!(
        "\n{:>5} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "b", "measured CC", "upper bound", "lower bound", "old lower", "correct"
    );
    for b in [42u64, 63, 84, 126, 189, 252, 378] {
        let cfg = TradeoffConfig { b, c, f, seed: b };
        let r = run_tradeoff(&Sum, &inst, &cfg);
        println!(
            "{b:>5} {:>12} {:>12.0} {:>12.1} {:>12.2} {:>12}",
            r.metrics.max_bits(),
            bounds::upper_bound_simple(n, f, b),
            bounds::lower_bound_new(n, f, b),
            bounds::lower_bound_old(f, b),
            r.correct
        );
        assert!(r.correct);
    }

    let br = run_brute(&Sum, &inst, c);
    let fo = run_folklore(&Sum, &inst, c, 2 * f + 2);
    println!("\nbaselines (fixed TC):");
    println!(
        "  brute force : CC = {:>7} bits (theory ~ N·logN = {:.0})",
        br.metrics.max_bits(),
        bounds::brute_cc(n)
    );
    println!(
        "  folklore    : CC = {:>7} bits over {} attempts (theory ~ f·logN = {:.0})",
        fo.metrics.max_bits(),
        fo.attempts,
        bounds::folklore_cc(n, f)
    );
    assert!(br.correct && fo.correct);
    Ok(())
}
