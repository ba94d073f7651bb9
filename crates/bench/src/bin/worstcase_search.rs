//! E11 — adversarial CC via schedule search.
//!
//! The paper's CC is a worst case over oblivious adversaries. This harness
//! hill-climbs in schedule space to approximate that worst case, and
//! compares: random adversaries vs searched adversaries vs the bound
//! curves, across the TC budget `b`. The searched curve is the honest one
//! to read against Theorem 1.

use caaf::Sum;
use ftagg::bounds;
use ftagg_bench::search::{mine, Acceptance, MineConfig, MineProtocol, Objective};
use ftagg_bench::{f, threads_from_args, Table};
use netsim::{topology, Runner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let g = topology::caterpillar(30, 1);
    let n = g.len();
    let f_budget = 16usize;
    let c = 2u32;
    let mut rng = StdRng::seed_from_u64(3);
    let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..32)).collect();

    println!(
        "Adversary search — locally-worst oblivious schedules (N = {n}, f = {f_budget}, c = {c})\n"
    );
    let mut t = Table::new(vec!["b", "searched CC", "improvements", "upper bound", "crashes used"]);
    // Each hill-climb is seeded by its b, so the three searches are
    // independent trials the runner can fan out; rows come back in b order.
    let budgets = [42u64, 126, 378];
    let rows = Runner::new(threads_from_args()).run(&budgets, |b| {
        // A schedules-only bottleneck-CC hill-climb over Algorithm 1.
        let cfg = MineConfig {
            iterations: 40,
            coin_seeds: 2,
            seed: b,
            threads: 1,
            b,
            c,
            f_budget,
            objective: Objective::BottleneckCc,
            protocol: MineProtocol::Tradeoff { f: f_budget },
            acceptance: Acceptance::HillClimb,
            mutate_topology: false,
        };
        let r = mine(&Sum, &g, &inputs, 31, &cfg, None, None);
        vec![
            b.to_string(),
            f(r.mean(), 0),
            (r.history.len() - 1).to_string(),
            f(bounds::upper_bound_simple(n, f_budget, b), 0),
            r.schedule.crash_count().to_string(),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t.print();
    println!("\nok — every evaluated schedule produced a correct result (zero-error).");
}
