//! Strict-watchdog coverage over the experiment configurations.
//!
//! The E1/E2 regeneration bins (`fig1_landscape`, `table2_guarantees`) run
//! every execution under the strict invariant watchdog; these tests pin
//! the same property — zero violations of the budget, crash-silence,
//! phase-discipline, and CAAF-envelope invariants — on reduced
//! slices of those configurations so the guarantee is enforced by
//! `cargo test` too, not only by running the bins.

use caaf::Sum;
use ftagg::pair::Tweaks;
use ftagg::tradeoff::{run_tradeoff_monitored, TradeoffConfig};
use ftagg::{run_pair_observed, Instance, Observe};
use ftagg_bench::Env;
use netsim::{adversary::schedules, topology, FailureSchedule, NodeId, Runner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const C: u32 = 2;

/// Reduced table2-style pair slice: random G(n,p) / cycle / caterpillar
/// instances with random crash schedules, AGG + VERI both monitored in
/// strict mode (a violation panics), lenient report asserted clean too.
/// As in the Table 2 bin, the envelope judges every value except one VERI
/// rejected with more failures than `t`: there the paper lets AGG be
/// wrong, but then VERI must say false.
#[test]
fn strict_watchdog_clean_on_table2_style_pairs() {
    let seeds: Vec<u64> = (0..60).collect();
    let ran = Runner::new(0).run(&seeds, |trial| {
        let mut rng = StdRng::seed_from_u64(0x007A_B1E2 ^ trial);
        let inst = match trial % 3 {
            0 => {
                let g = topology::connected_gnp(18, 0.16, &mut rng);
                let horizon = 26 * u64::from(g.diameter()) + 10;
                let k = rng.gen_range(0..5);
                let s = schedules::random(&g, NodeId(0), k, horizon, &mut rng);
                let inputs: Vec<u64> = (0..18).map(|_| rng.gen_range(0..32)).collect();
                Instance::new(g, NodeId(0), inputs, s, 31).unwrap()
            }
            1 => {
                let g = topology::cycle(12);
                let horizon = 26 * u64::from(g.diameter()) + 10;
                let k = rng.gen_range(0..4);
                let s = schedules::random(&g, NodeId(0), k, horizon, &mut rng);
                let inputs: Vec<u64> = (0..12).map(|_| rng.gen_range(0..16)).collect();
                Instance::new(g, NodeId(0), inputs, s, 15).unwrap()
            }
            _ => {
                let g = topology::caterpillar(7, 2);
                let n = g.len();
                let horizon = 26 * u64::from(g.diameter()) + 10;
                let k = rng.gen_range(0..4);
                let s = schedules::random(&g, NodeId(0), k, horizon, &mut rng);
                let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..8)).collect();
                Instance::new(g, NodeId(0), inputs, s, 7).unwrap()
            }
        };
        if inst.schedule.stretch_factor(&inst.graph, inst.root) > f64::from(C) {
            return false;
        }
        let t = rng.gen_range(0..5);
        let obs = Observe::watchdog(true);
        let (_, seen, _) = run_pair_observed(
            &Sum,
            &inst,
            inst.schedule.clone(),
            C,
            t,
            true,
            0,
            Tweaks::default(),
            obs,
        );
        let monitor = seen.monitor.expect("watchdog requested");
        assert!(monitor.is_clean(), "trial {trial}: {}", monitor.render());
        true
    });
    let executed = ran.into_iter().filter(|&x| x).count();
    assert!(executed >= 30, "too many stretch-violating schedules skipped: {executed}");
}

/// Reduced fig1-style tradeoff slice: caterpillar instances across a few
/// TC budgets, the full Algorithm 1 regeneration loop monitored strict.
/// The one value the envelope exempts: AGG wrong, VERI false, and more
/// edge failures in the pair's window than `t` (Table 2's third row).
#[test]
fn strict_watchdog_exempts_a_rejected_value_beyond_t_failures() {
    // Two crashes on a 9-cycle cost 3 edge failures, more than t = 0.
    let mut s = FailureSchedule::none();
    s.crash(NodeId(2), 16).crash(NodeId(3), 18);
    let inputs = vec![3, 7, 4, 1, 1, 1, 0, 3, 3];
    let inst = Instance::new(topology::cycle(9), NodeId(0), inputs, s, 7).unwrap();
    let (obs, s) = (Observe::watchdog(true), inst.schedule.clone());
    let (report, seen, _) =
        run_pair_observed(&Sum, &inst, s, C, 0, true, 0, Tweaks::default(), obs);
    assert_eq!((report.verdict, report.correct), (Some(false), Some(false)));
    let failures = ftagg::analysis::effective_edge_failures(
        &inst.graph,
        &inst.schedule,
        inst.root,
        report.rounds,
    );
    assert_eq!(failures, 3);
    let monitor = seen.monitor.expect("watchdog requested");
    assert_eq!(monitor.decides, 1);
    assert!(monitor.is_clean(), "{}", monitor.render());
}

#[test]
fn strict_watchdog_clean_on_fig1_style_tradeoff_slice() {
    let f_bound = 12;
    let work: Vec<u64> =
        [42u64, 84].iter().flat_map(|&b| (0..3).map(move |t| b * 10 + t)).collect();
    Runner::new(0).run(&work, |item| {
        let b = item / 10;
        let trial = item % 10;
        let env = Env::caterpillar(1000 * b + trial, 24, f_bound, b, C);
        let inst = env.instance();
        let cfg = TradeoffConfig { b, c: C, f: f_bound, seed: trial };
        let (r, monitor) = run_tradeoff_monitored(&Sum, &inst, &cfg, true);
        assert!(r.correct, "b = {b}, trial {trial}: incorrect result");
        assert!(monitor.is_clean(), "b = {b}, trial {trial}: {}", monitor.render());
    });
}
