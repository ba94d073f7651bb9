//! E2 — regenerates **Table 2**: the guarantee matrix of AGG and VERI.
//!
//! Runs hundreds of randomized pair executions — each under the strict
//! invariant watchdog ([`ftagg::monitored`]), so a single budget,
//! crash-silence, phase or envelope violation aborts the regeneration —
//! classifies each into its Table 2 scenario with the white-box oracle,
//! and tabulates what AGG and VERI actually did. The paper's guarantees
//! (✓ cells) must hold with zero violations; the "no guarantee" cells
//! report the observed mix.

use caaf::Sum;
use ftagg::analysis::{classify, Scenario};
use ftagg::pair::{AggOutcome, Tweaks};
use ftagg::{run_pair_observed, Instance, Observe};
use ftagg_bench::{threads_from_args, Table};
use netsim::{adversary::schedules, topology, FailureSchedule, NodeId, Runner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Default)]
struct Cell {
    runs: usize,
    agg_correct: usize,
    agg_abort: usize,
    agg_wrong: usize,
    veri_true: usize,
    veri_false: usize,
}

/// One trial's classification: scenario index, AGG behavior
/// (0 = correct, 1 = abort, 2 = wrong), VERI verdict, guarantee violated.
/// `None` when the drawn schedule breaks the `c·d` stretch assumption.
type Observation = Option<(usize, u8, bool, bool)>;

/// Runs and classifies one randomized pair execution. Pure in `trial`, so
/// the runner can fan trials across threads without changing any count.
fn run_trial(trial: u64, c: u32) -> Observation {
    let mut rng = StdRng::seed_from_u64(trial);
    let inst = match trial % 3 {
        0 => {
            let g = topology::connected_gnp(20, 0.15, &mut rng);
            let horizon = 26 * u64::from(g.diameter()) + 10;
            let k = rng.gen_range(0..6);
            let s = schedules::random(&g, NodeId(0), k, horizon, &mut rng);
            let inputs: Vec<u64> = (0..20).map(|_| rng.gen_range(0..32)).collect();
            Instance::new(g, NodeId(0), inputs, s, 31).unwrap()
        }
        1 => {
            // Consecutive failures on a cycle: the LFC factory.
            let g = topology::cycle(16);
            let cd = u64::from(c) * u64::from(g.diameter());
            let run_len = rng.gen_range(0..4usize);
            let mut s = FailureSchedule::none();
            for v in 1..=run_len {
                s.crash(NodeId(v as u32), 2 * cd + 2 + rng.gen_range(0u64..3));
            }
            let inputs: Vec<u64> = (0..16).map(|_| rng.gen_range(0..16)).collect();
            Instance::new(g, NodeId(0), inputs, s, 15).unwrap()
        }
        _ => {
            let g = topology::caterpillar(8, 2);
            let n = g.len();
            let horizon = 26 * u64::from(g.diameter()) + 10;
            let k = rng.gen_range(0..4);
            let s = schedules::random(&g, NodeId(0), k, horizon, &mut rng);
            let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..8)).collect();
            Instance::new(g, NodeId(0), inputs, s, 7).unwrap()
        }
    };
    if inst.schedule.stretch_factor(&inst.graph, inst.root) > f64::from(c) {
        return None;
    }
    let t = rng.gen_range(0..5);
    let obs = Observe::watchdog(true);
    let s = inst.schedule.clone();
    let (_, seen, eng) = run_pair_observed(&Sum, &inst, s, c, t, true, 0, Tweaks::default(), obs);
    let monitor = seen.monitor.expect("watchdog requested");
    let params = *eng.node(inst.root).params();
    assert!(monitor.is_clean(), "trial {trial}: {}", monitor.render());
    let (scenario, _) = classify(&inst, &inst.schedule, &eng, &params);
    let root = eng.node(inst.root);
    let iv = inst.correct_interval(&Sum, params.total_rounds());
    let idx = match scenario {
        Scenario::FewFailures => 0,
        Scenario::ManyFailuresNoLfc => 1,
        Scenario::ManyFailuresLfc => 2,
    };
    let agg = match root.agg_outcome() {
        AggOutcome::Result(v) if iv.contains(v) => 0u8,
        AggOutcome::Aborted => 1,
        AggOutcome::Result(_) => 2,
    };
    let veri = root.veri_verdict();
    // Check the paper's guarantee cells.
    let violated = match scenario {
        Scenario::FewFailures => agg != 0 || !veri,
        Scenario::ManyFailuresNoLfc => agg == 2,
        Scenario::ManyFailuresLfc => veri,
    };
    Some((idx, agg, veri, violated))
}

fn main() {
    let c = 2u32;
    let mut cells = [Cell::default(), Cell::default(), Cell::default()];
    let mut violations = 0usize;

    let seeds: Vec<u64> = (0..600).collect();
    let observations = Runner::new(threads_from_args()).run(&seeds, |trial| run_trial(trial, c));
    for (idx, agg, veri, violated) in observations.into_iter().flatten() {
        let cell = &mut cells[idx];
        cell.runs += 1;
        match agg {
            0 => cell.agg_correct += 1,
            1 => cell.agg_abort += 1,
            _ => cell.agg_wrong += 1,
        }
        if veri {
            cell.veri_true += 1;
        } else {
            cell.veri_false += 1;
        }
        violations += usize::from(violated);
    }

    println!("Table 2 — observed AGG/VERI behavior by scenario (600 randomized runs)\n");
    let mut t = Table::new(vec![
        "scenario",
        "runs",
        "AGG correct",
        "AGG abort",
        "AGG wrong",
        "VERI true",
        "VERI false",
    ]);
    let names = ["1: ≤ t failures", "2: > t, no LFC", "3: > t, LFC"];
    for (name, cell) in names.iter().zip(&cells) {
        t.row(vec![
            name.to_string(),
            cell.runs.to_string(),
            cell.agg_correct.to_string(),
            cell.agg_abort.to_string(),
            cell.agg_wrong.to_string(),
            cell.veri_true.to_string(),
            cell.veri_false.to_string(),
        ]);
    }
    t.print();
    println!("\npaper guarantees: scenario 1 ⟹ AGG correct ∧ VERI true;");
    println!("                  scenario 2 ⟹ AGG correct-or-abort;");
    println!("                  scenario 3 ⟹ VERI false.");
    println!("violations observed: {violations}");
    assert_eq!(violations, 0, "Table 2 guarantee violated");
}
