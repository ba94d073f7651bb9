//! E5 — **Theorems 3 and 6**: measured AGG/VERI time and bits against the
//! paper's explicit budgets, sweeping `t`, `N`, and topology family.
//!
//! - AGG: `7cd + 4` rounds (≤ 11c flooding rounds), `(11t+14)(logN+5)` bits;
//! - VERI: `5cd + 3` rounds (≤ 8c flooding rounds), `(5t+7)(3·logN+10)` bits.

use caaf::Sum;
use ftagg::msg::{agg_bit_budget, veri_bit_budget};
use ftagg::run::run_pair_engine;
use ftagg::Instance;
use ftagg_bench::{f, Table};
use netsim::{adversary::schedules, topology, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let c = 2u32;
    println!("Theorems 3 & 6 — AGG/VERI budgets (c = {c})\n");
    let mut t = Table::new(vec![
        "family",
        "N",
        "t",
        "AGG bits max",
        "AGG budget",
        "VERI bits max",
        "VERI budget",
        "AGG fl.rounds",
        "11c",
        "VERI fl.rounds",
        "8c",
    ]);
    let mut rng = StdRng::seed_from_u64(1);
    for fam in topology::Family::ALL {
        for &tt in &[1u32, 4, 8] {
            let g = fam.build(48, &mut rng);
            let n = g.len();
            let horizon = 26 * u64::from(g.diameter()) + 10;
            let s = loop {
                let s = schedules::random(&g, NodeId(0), 3, horizon, &mut rng);
                if s.stretch_factor(&g, NodeId(0)) <= f64::from(c) {
                    break s;
                }
            };
            let inst = Instance::new(g, NodeId(0), vec![3; n], s, 3).unwrap();
            let (eng, params) = run_pair_engine(&Sum, &inst, c, tt, true);
            let agg_max = inst.graph.nodes().map(|v| eng.node(v).agg_bits_sent()).max().unwrap();
            let veri_max = inst.graph.nodes().map(|v| eng.node(v).veri_bits_sent()).max().unwrap();
            let ab = agg_bit_budget(n, tt);
            let vb = veri_bit_budget(n, tt);
            assert!(agg_max <= ab && veri_max <= vb, "{fam}: budget violated");
            let agg_fl = params.model.to_flooding_rounds(params.agg_rounds());
            let veri_fl = params.model.to_flooding_rounds(params.veri_rounds());
            t.row(vec![
                fam.to_string(),
                n.to_string(),
                tt.to_string(),
                agg_max.to_string(),
                ab.to_string(),
                veri_max.to_string(),
                vb.to_string(),
                agg_fl.to_string(),
                (11 * c).to_string(),
                veri_fl.to_string(),
                (8 * c).to_string(),
            ]);
        }
    }
    t.print();

    // Utilization summary: how much of the theoretical budget is actually
    // used (interesting for the constants discussion in EXPERIMENTS.md).
    println!("\nCC-vs-t scaling on a deep caterpillar (levels ≫ 2t):");
    let mut t2 = Table::new(vec!["t", "AGG bits max", "budget", "utilization"]);
    let g = topology::caterpillar(24, 1);
    let n = g.len();
    let inst = Instance::new(g, NodeId(0), vec![1; n], netsim::FailureSchedule::none(), 1).unwrap();
    for &tt in &[0u32, 1, 2, 4, 8, 16] {
        let (eng, _) = run_pair_engine(&Sum, &inst, c, tt, true);
        let agg_max = inst.graph.nodes().map(|v| eng.node(v).agg_bits_sent()).max().unwrap();
        let ab = agg_bit_budget(n, tt);
        t2.row(vec![
            tt.to_string(),
            agg_max.to_string(),
            ab.to_string(),
            f(agg_max as f64 / ab as f64, 2),
        ]);
    }
    t2.print();
    println!("\nok — every run within the Theorem 3/6 budgets.");
}
