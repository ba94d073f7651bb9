//! The watchdog's protocol knowledge: what a live [`netsim::Watchdog`]
//! checks on an AGG+VERI pair.
//!
//! The watchdog itself ([`netsim::monitor`]) knows nothing about the
//! protocols — budgets are data and the decision judgment is a closure.
//! This module is the bridge: it parameterizes a [`MonitorConfig`] with
//! the paper's explicit formulas (the Theorem 3/6 wire ceilings exported
//! by [`crate::msg`], windowed by [`PairParams`]'s round layout) and the
//! CAAF correctness envelope of `caaf::oracle`. The drivers install the
//! watchdog through [`crate::observe::Observe::watchdog`]. The watchdog is
//! passive, so a monitored execution is bit-identical to an unmonitored
//! one — pinned by this module's tests.

use crate::msg::{agg_wire_ceiling, veri_wire_ceiling};
use crate::pair::PairParams;
use caaf::oracle::CorrectInterval;
use netsim::{DecideCheck, MonitorConfig, NodeId};

/// A [`MonitorConfig`] enforcing one AGG(+VERI) pair's invariants:
///
/// - per-node bits in the AGG window (rounds `1..=7cd+4`) within the
///   Theorem 3 wire ceiling;
/// - per-node bits in the VERI window (the following `5cd+3` rounds)
///   within the Theorem 6 wire ceiling;
/// - per-node bits over the whole pair within their sum — the per-interval
///   budget Theorem 1's CC accounting charges Algorithm 1 for each pair.
pub fn pair_monitor_config(params: &PairParams) -> MonitorConfig {
    let (n, t) = (params.model.n, params.t);
    let mut cfg = MonitorConfig::new(n).budget(
        "AGG (Thm 3)",
        1..=params.agg_rounds(),
        agg_wire_ceiling(n, t),
    );
    if params.run_veri {
        cfg = cfg
            .budget(
                "VERI (Thm 6)",
                params.agg_rounds() + 1..=params.total_rounds(),
                veri_wire_ceiling(n, t),
            )
            .budget(
                "pair (Thm 1 interval)",
                1..=params.total_rounds(),
                agg_wire_ceiling(n, t) + veri_wire_ceiling(n, t),
            );
    }
    cfg
}

/// The CAAF correctness-envelope judgment for `Decide` events: only
/// `root` may decide, and the value must lie in `interval`, the paper's
/// correct interval for the surviving inputs at the decision round.
pub fn decide_envelope(root: NodeId, interval: CorrectInterval) -> DecideCheck {
    Box::new(move |_round, node, value| {
        if node != root {
            return Err(format!("decision by non-root node {}", node.0));
        }
        if interval.contains(value) {
            Ok(())
        } else {
            Err(format!("outside the CAAF envelope [{}, {}]", interval.lo, interval.hi))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Instance;
    use crate::observe::Observe;
    use crate::pair::Tweaks;
    use crate::run::{run_pair, run_pair_observed, PairReport};
    use caaf::Sum;
    use netsim::{adversary::schedules, topology, FailureSchedule, MonitorReport};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn inst(n: usize) -> Instance {
        Instance::new(
            topology::path(n),
            NodeId(0),
            (1..=n as u64).collect(),
            FailureSchedule::none(),
            n as u64,
        )
        .unwrap()
    }

    fn monitored(i: &Instance, c: u32, t: u32, strict: bool) -> (PairReport, MonitorReport) {
        let obs = Observe::watchdog(strict);
        let (report, seen, _) = run_pair_observed(&Sum, i, c, t, true, Tweaks::default(), obs);
        (report, seen.monitor.expect("watchdog requested"))
    }

    #[test]
    fn clean_pair_run_is_clean_and_identical_to_unmonitored() {
        let i = inst(6);
        let (report, monitor) = monitored(&i, 1, 1, true);
        assert!(monitor.is_clean(), "{}", monitor.render());
        // A watchdog alone turns deliveries down, so it audited none.
        assert!(monitor.sends > 0 && monitor.delivers == 0);
        assert_eq!(monitor.decides, 1);
        let plain = run_pair(&Sum, &i, 1, 1, true);
        assert_eq!(report.result(), plain.result());
        assert_eq!(report.rounds, plain.rounds);
        assert_eq!(report.metrics.max_bits(), plain.metrics.max_bits());
        assert_eq!(report.metrics.total_bits(), plain.metrics.total_bits());
    }

    #[test]
    fn crashy_pair_runs_stay_clean_under_the_watchdog() {
        // Randomized instances with real crashes: the protocol must never
        // trip a single invariant.
        for seed in 0..12 {
            let mut rng = StdRng::seed_from_u64(900 + seed);
            let g = topology::connected_gnp(16, 0.2, &mut rng);
            let s = schedules::random(&g, NodeId(0), 3, 200, &mut rng);
            let i = Instance::new(g, NodeId(0), vec![3; 16], s, 3).unwrap();
            let (_, monitor) = monitored(&i, 2, 2, false);
            assert!(monitor.is_clean(), "seed {seed}: {}", monitor.render());
        }
    }

    #[test]
    fn recorded_pair_run_is_identical_and_its_dump_replays() {
        let i = inst(6);
        let recorder = netsim::FlightRecorder::new(8);
        let obs = Observe { sinks: vec![Box::new(recorder.clone())], ..Observe::watchdog(true) };
        let (report, seen, _) = run_pair_observed(&Sum, &i, 1, 1, true, Tweaks::default(), obs);
        let monitor = seen.monitor.expect("watchdog requested");
        assert!(monitor.is_clean(), "{}", monitor.render());
        let plain = run_pair(&Sum, &i, 1, 1, true);
        assert_eq!(report.result(), plain.result());
        assert_eq!(report.metrics.total_bits(), plain.metrics.total_bits());
        // The black box holds the tail of the run and replays as a trace.
        let stats = recorder.stats();
        assert!(stats.rounds_buffered > 0 && stats.rounds_buffered <= 8);
        assert!(stats.events_buffered > 0);
        let jsonl = recorder.snapshot_jsonl();
        let trace = netsim::Trace::from_jsonl(jsonl.as_bytes()).expect("dump must replay");
        assert_eq!(trace.events().len() as u64, stats.events_buffered);
    }

    #[test]
    fn decide_envelope_rejects_wrong_values() {
        let i = inst(4);
        let check = decide_envelope(i.root, i.correct_interval(&Sum, 20));
        // 1+2+3+4 = 10 is the failure-free aggregate.
        assert!(check(20, NodeId(0), 10).is_ok());
        assert!(check(20, NodeId(0), 11).unwrap_err().contains("envelope"));
        assert!(check(20, NodeId(2), 10).unwrap_err().contains("non-root"));
    }
}
