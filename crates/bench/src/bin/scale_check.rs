//! E14 — scale check: the simulator and protocols at N up to a few
//! thousand nodes, reporting CC and TC on standard output and each run's
//! wall-clock on standard error, so downstream users know what instance
//! sizes are practical.

use caaf::Sum;
use ftagg::tradeoff::{run_tradeoff, TradeoffConfig};
use ftagg::Instance;
use ftagg_bench::{f, Table};
use netsim::{topology, FailureSchedule, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    println!("Scale check — Algorithm 1 end-to-end at growing N (c = 2, f = N/16)\n");
    let mut t = Table::new(vec!["N", "topology", "d", "CC bits", "TC fl.rounds", "correct"]);
    for &n in &[100usize, 250, 500, 1000, 2000] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let side = (n as f64).sqrt().round() as usize;
        let g = topology::grid(side, side);
        let real_n = g.len();
        let d = g.diameter();
        let ff = (real_n / 16).max(1);
        let mut s = FailureSchedule::none();
        for _ in 0..ff / 4 {
            let v = rng.gen_range(1..real_n as u32);
            s.crash(NodeId(v), rng.gen_range(1..200 * u64::from(d)));
        }
        if s.stretch_factor(&g, NodeId(0)) > 2.0 {
            s = FailureSchedule::none();
        }
        let inputs: Vec<u64> = (0..real_n).map(|_| rng.gen_range(0..1000)).collect();
        let inst = Instance::new(g, NodeId(0), inputs, s, 999).unwrap();
        let cfg = TradeoffConfig { b: 63, c: 2, f: ff, seed: 1 };
        let start = Instant::now();
        let r = run_tradeoff(&Sum, &inst, &cfg);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        eprintln!("N = {real_n}: {} ms", f(ms, 1));
        assert!(r.correct, "N = {real_n}: incorrect result");
        t.row(vec![
            real_n.to_string(),
            format!("grid {side}x{side}"),
            d.to_string(),
            r.metrics.max_bits().to_string(),
            r.flooding_rounds.to_string(),
            r.correct.to_string(),
        ]);
    }
    t.print();
    println!("\nok — thousands of nodes simulate in seconds on one core.");
}
