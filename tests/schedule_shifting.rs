//! The interval machinery Algorithm 1 relies on: shifting a global failure
//! schedule into a sub-execution's local round frame, and attributing edge
//! failures to round windows.

use caaf::Sum;
use ftagg::{run_pair_with_schedule, Instance};
use netsim::{adversary::schedules, topology, CrashEvent, FailureSchedule, NodeId, Round};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn shifted_moves_rounds_and_clamps() {
    let mut s = FailureSchedule::none();
    s.crash(NodeId(1), 5);
    s.crash(NodeId(2), 100);
    let sh = s.shifted(10);
    // Node 1 crashed before the window: dead from local round 1.
    assert_eq!(sh.event(NodeId(1)), Some(&CrashEvent::clean(1)));
    // Node 2's crash lands at local round 90.
    assert_eq!(sh.event(NodeId(2)), Some(&CrashEvent::clean(90)));
}

#[test]
fn shifted_zero_is_identity() {
    let mut s = FailureSchedule::none();
    s.crash(NodeId(3), 7);
    s.crash_partial(NodeId(4), 9, vec![NodeId(3)]);
    assert_eq!(s.shifted(0), s);
}

#[test]
fn shifted_drops_stale_partial_restrictions() {
    let mut s = FailureSchedule::none();
    s.crash_partial(NodeId(4), 9, vec![NodeId(3)]);
    // Window starts after the partial broadcast already happened: the node
    // is simply dead (no restriction left to model).
    let sh = s.shifted(9);
    assert_eq!(sh.event(NodeId(4)), Some(&CrashEvent::clean(1)));
    // Window starts right before: restriction survives, round shifts.
    let sh = s.shifted(7);
    assert_eq!(sh.event(NodeId(4)), Some(&CrashEvent::partial(2, vec![NodeId(3)])));
}

#[test]
fn composition_of_shifts() {
    let mut s = FailureSchedule::none();
    s.crash(NodeId(5), 50);
    assert_eq!(s.shifted(20).shifted(10), s.shifted(30));
}

/// A random connected graph with one to four crashes in `1..=horizon`,
/// about half of them partial broadcasts.
fn crashy_instance(seed: u64, horizon: Round) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = topology::connected_gnp(6 + (seed % 10) as usize, 0.3, &mut rng);
    let drawn = schedules::random(&g, NodeId(0), 1 + (seed % 4) as usize, horizon, &mut rng);
    let mut s = FailureSchedule::none();
    for (v, e) in drawn.iter() {
        if rng.gen_bool(0.5) {
            let rx = g.neighbors(v).iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
            s.crash_partial(v, e.round, rx);
        } else {
            s.crash(v, e.round);
        }
    }
    let inputs = (0..g.len()).map(|_| rng.gen_range(0..50)).collect();
    Instance::new(g, NodeId(0), inputs, s, 50).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A stage that starts after global round `o` judges its local round
    /// `r` as the whole run judges round `o + r`, and shifting a stage
    /// again is shifting the run once by the sum.
    #[test]
    fn a_stage_is_judged_at_its_global_round(seed in 0u64..100_000, o in 0u64..40, p in 0u64..40) {
        let horizon = 60;
        let inst = crashy_instance(seed, horizon);
        let stage = inst.shifted(o);
        for r in 1..=horizon {
            let (local, global) = (stage.correct_interval(&Sum, r), inst.correct_interval(&Sum, o + r));
            prop_assert_eq!(local, global, "seed {} o {} r {}", seed, o, r);
        }
        prop_assert_eq!(stage.shifted(p).schedule, inst.shifted(o + p).schedule);
    }
}

#[test]
#[should_panic(expected = "shifted by 5")]
fn run_pair_with_schedule_refuses_a_schedule_its_stage_does_not_run() {
    let mut s = FailureSchedule::none();
    s.crash(NodeId(2), 9);
    let inst = Instance::new(topology::path(4), NodeId(0), vec![1; 4], s, 1).unwrap();
    // The unshifted schedule is not the stage's: node 2 would die at
    // local round 9 instead of 4.
    let _ = run_pair_with_schedule(&Sum, &inst, inst.schedule.clone(), 1, 1, true, 5);
}
