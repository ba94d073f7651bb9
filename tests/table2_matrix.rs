//! E2 — Table 2: the guarantee matrix of AGG and VERI.
//!
//! | scenario | AGG | VERI |
//! |---|---|---|
//! | ≤ t edge failures (⟹ no LFC) | correct result | true |
//! | > t failures, no LFC | correct result or abort | (no guarantee) |
//! | > t failures, LFC | (no guarantee) | false |
//!
//! Hundreds of randomized pair executions are classified into their
//! scenario by the white-box oracle and checked against the row's
//! guarantee.

use caaf::Sum;
use ftagg::analysis::{classify, Scenario};
use ftagg::pair::AggOutcome;
use ftagg::run::run_pair_engine;
use ftagg::Instance;
use netsim::{adversary::schedules, topology, FailureSchedule, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const C: u32 = 2;

struct Tally {
    few: usize,
    many_no_lfc: usize,
    many_lfc: usize,
}

fn run_matrix(mut make: impl FnMut(u64) -> (Instance, u32)) -> Tally {
    let mut tally = Tally { few: 0, many_no_lfc: 0, many_lfc: 0 };
    for trial in 0..120 {
        let (inst, t) = make(trial);
        if inst.schedule.stretch_factor(&inst.graph, inst.root) > f64::from(C) {
            continue; // outside the model's c·d assumption
        }
        let (eng, params) = run_pair_engine(&Sum, &inst, C, t, true);
        let (scenario, _) = classify(&inst, &eng, &params);
        let root = eng.node(inst.root);
        let outcome = root.agg_outcome();
        let verdict = root.veri_verdict();
        let correct = |v: u64| inst.correct_interval(&Sum, params.total_rounds()).contains(v);
        match scenario {
            Scenario::FewFailures => {
                tally.few += 1;
                match outcome {
                    AggOutcome::Result(v) => assert!(
                        correct(v),
                        "trial {trial}: scenario 1 result {v} incorrect (t = {t})"
                    ),
                    AggOutcome::Aborted => panic!("trial {trial}: scenario 1 must not abort"),
                }
                assert!(verdict, "trial {trial}: scenario 1 VERI must be true");
            }
            Scenario::ManyFailuresNoLfc => {
                tally.many_no_lfc += 1;
                if let AggOutcome::Result(v) = outcome {
                    assert!(correct(v), "trial {trial}: scenario 2 result {v} incorrect (t = {t})");
                }
                // VERI unconstrained.
            }
            Scenario::ManyFailuresLfc => {
                tally.many_lfc += 1;
                assert!(!verdict, "trial {trial}: scenario 3 VERI must be false");
            }
        }
    }
    tally
}

#[test]
fn table2_random_graphs() {
    let tally = run_matrix(|trial| {
        let mut rng = StdRng::seed_from_u64(1000 + trial);
        let g = topology::connected_gnp(20, 0.15, &mut rng);
        let horizon = 13 * u64::from(C) * u64::from(g.diameter()) + 10;
        let k = rng.gen_range(0..5);
        let s = schedules::random(&g, NodeId(0), k, horizon, &mut rng);
        let inputs: Vec<u64> = (0..20).map(|_| rng.gen_range(0..32)).collect();
        let t = rng.gen_range(0..5);
        (Instance::new(g, NodeId(0), inputs, s, 31).unwrap(), t)
    });
    assert!(tally.few >= 20, "want scenario-1 coverage, got {}", tally.few);
    assert!(
        tally.many_no_lfc + tally.many_lfc >= 10,
        "want >t coverage, got {} + {}",
        tally.many_no_lfc,
        tally.many_lfc
    );
}

#[test]
fn table2_cycles_force_lfcs() {
    // Cycles keep blocked subtrees root-connected, the breeding ground for
    // LFCs: kill a run of consecutive nodes near the root's neighbor.
    let tally = run_matrix(|trial| {
        let mut rng = StdRng::seed_from_u64(5000 + trial);
        let n = 16;
        let g = topology::cycle(n);
        let cd = u64::from(C) * u64::from(g.diameter());
        let run_len = rng.gen_range(1..4usize);
        let mut s = FailureSchedule::none();
        // Nodes 1..=run_len die just after tree construction: a failed
        // chain whose descendants stay alive around the cycle.
        for v in 1..=run_len {
            s.crash(NodeId(v as u32), 2 * cd + 2 + rng.gen_range(0u64..3));
        }
        let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..16)).collect();
        let t = rng.gen_range(1..4);
        (Instance::new(g, NodeId(0), inputs, s, 15).unwrap(), t)
    });
    assert!(tally.many_lfc >= 10, "this family should produce LFCs, got {}", tally.many_lfc);
}

#[test]
fn table2_caterpillars() {
    // Caterpillar spines create deep trees where witness horizons (2t)
    // actually truncate.
    let tally = run_matrix(|trial| {
        let mut rng = StdRng::seed_from_u64(9000 + trial);
        let g = topology::caterpillar(8, 2);
        let n = g.len();
        let horizon = 13 * u64::from(C) * u64::from(g.diameter()) + 10;
        let k = rng.gen_range(0..4);
        let s = schedules::random(&g, NodeId(0), k, horizon, &mut rng);
        let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..8)).collect();
        let t = rng.gen_range(0..3);
        (Instance::new(g, NodeId(0), inputs, s, 7).unwrap(), t)
    });
    assert!(tally.few + tally.many_no_lfc + tally.many_lfc >= 60);
}
