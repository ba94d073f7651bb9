//! E12 — ablations of AGG's two key design choices.
//!
//! DESIGN.md calls out two load-bearing mechanisms the paper motivates:
//!
//! 1. **Speculative flooding** (§4.2): blocked partial sums are flooded
//!    *before* knowing whether the flood is needed. Ablating it (nodes
//!    only react to their own parent's silence… not at all) silently
//!    drops live subtrees behind every critical failure.
//! 2. **The 2t-ancestor horizon** (§4.3): witnesses need 2t ancestors so
//!    that "boundary not in my table" provably implies domination.
//!    Halving it to t lets double-counting slip through.
//!
//! This harness runs faithful vs ablated AGG over failure scenarios and
//! tabulates violations of the scenario-1 guarantee (≤ t failures ⟹
//! correct result). The faithful protocol must show zero; the ablations
//! must show some — otherwise they would not be load-bearing.

use caaf::Sum;
use ftagg::pair::{AggOutcome, Tweaks};
use ftagg::{run_pair_observed, Instance, Observe};
use ftagg_bench::Table;
use netsim::{topology, FailureSchedule, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Outcome {
    runs: usize,
    wrong: usize,
    aborted: usize,
    veri_false: usize,
    undercount: u64,
}

fn check(out: &mut Outcome, inst: &Instance, t: u32, tweaks: Tweaks) {
    let c = 2u32;
    let obs = Observe::default();
    let (rep, _, _) =
        run_pair_observed(&Sum, inst, inst.schedule.clone(), c, t, true, 0, tweaks, obs);
    out.runs += 1;
    match rep.outcome {
        AggOutcome::Result(v) => {
            let iv = inst.correct_interval(&Sum, rep.rounds);
            if !iv.contains(v) {
                out.wrong += 1;
                out.undercount += iv.lo.saturating_sub(v);
            }
        }
        AggOutcome::Aborted => out.aborted += 1,
    }
    // Scenario 1 demands VERI = true; a false here is a guarantee
    // violation too (Algorithm 1 would wastefully run more intervals).
    if rep.verdict == Some(false) {
        out.veri_false += 1;
    }
}

fn run_family(tweaks: Tweaks, trials: u64) -> Outcome {
    let c = 2u32;
    let mut out = Outcome { runs: 0, wrong: 0, aborted: 0, veri_false: 0, undercount: 0 };
    for trial in 0..trials {
        let mut rng = StdRng::seed_from_u64(trial);
        // Family A — cycles with one critical failure: descendants stay
        // connected, so a missing speculative flood visibly loses live
        // inputs (stresses the speculative-flooding choice).
        let n = rng.gen_range(8..20);
        let g = topology::cycle(n);
        let cd = u64::from(c) * u64::from(g.diameter());
        let victim = rng.gen_range(1..4u32);
        let lvl = u64::from(g.bfs_distances(NodeId(0))[victim as usize].unwrap());
        let action = (2 * cd + 1) + (cd - lvl + 1);
        let mut s = FailureSchedule::none();
        s.crash(NodeId(victim), action);
        let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(1..32)).collect();
        let inst = Instance::new(g, NodeId(0), inputs, s, 31).unwrap();
        let f = inst.edge_failures();
        check(&mut out, &inst, f as u32, tweaks); // scenario 1: t = f

        // Family B — a failed chain dying *after* aggregation with a long
        // live chain below it: VERI witnesses far below the failed parent
        // need ancestor indices in (t, 2t] (stresses the 2t horizon).
        let n = 16;
        let g = topology::cycle(n);
        let cd = u64::from(c) * u64::from(g.diameter());
        let chain = rng.gen_range(2..4u32); // dead nodes 1..=chain
        let mut s = FailureSchedule::none();
        for v in 1..=chain {
            // Die in the speculative-flooding phase: after aggregating
            // (no critical failures) but before VERI.
            s.crash(NodeId(v), 4 * cd + 2 + u64::from(v));
        }
        let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(1..32)).collect();
        let inst = Instance::new(g, NodeId(0), inputs, s, 31).unwrap();
        let f = inst.edge_failures();
        check(&mut out, &inst, f as u32, tweaks); // scenario 1 again
    }
    out
}

fn main() {
    let trials = 120;
    println!("Ablations — scenario-1 (≤ t failures) guarantee under design changes\n");
    let mut t = Table::new(vec![
        "variant",
        "runs",
        "wrong results",
        "aborts",
        "VERI false (must be 0)",
        "total undercount",
    ]);
    let variants = [
        ("faithful (2t horizon, speculative)", Tweaks::default()),
        ("no speculative flooding", Tweaks { speculative_flooding: false, ..Tweaks::default() }),
        ("t-ancestor horizon", Tweaks { ancestor_factor: 1, ..Tweaks::default() }),
    ];
    let mut faithful_wrong = 0;
    let mut ablated_wrong = 0;
    for (i, (name, tw)) in variants.iter().enumerate() {
        let o = run_family(*tw, trials);
        if i == 0 {
            faithful_wrong = o.wrong + o.aborted + o.veri_false;
        } else {
            ablated_wrong += o.wrong + o.veri_false;
        }
        t.row(vec![
            name.to_string(),
            o.runs.to_string(),
            o.wrong.to_string(),
            o.aborted.to_string(),
            o.veri_false.to_string(),
            o.undercount.to_string(),
        ]);
    }
    t.print();
    println!();
    assert_eq!(faithful_wrong, 0, "the faithful protocol must never err in scenario 1");
    assert!(
        ablated_wrong > 0,
        "the ablations should break something — otherwise they are not load-bearing"
    );
    println!("ok — faithful: 0 violations; ablations demonstrably break the guarantee.");
}
