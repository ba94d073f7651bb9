//! Algorithm 1 — the upper-bound protocol of Theorem 1.
//!
//! Given a TC budget of `b ≥ 21c` flooding rounds, the first `b − 2c`
//! flooding rounds are divided into `x = ⌊(b − 2c) / 19c⌋` intervals of
//! `19c` flooding rounds each. The root privately selects `log N` interval
//! indices uniformly at random (with replacement); in each *distinct*
//! selected interval it initiates one AGG + VERI pair with
//! `t = ⌊2f / x⌋`. The first pair where AGG does not abort **and** VERI
//! outputs true yields the output (Theorems 5 and 7 make that output
//! correct). If every selected interval fails — probability at most
//! `1/N` — the final `2c` flooding rounds run the brute-force protocol.
//!
//! The CC accounting mirrors the proof of Theorem 1: at most
//! `min(x, f + 1, log N)` pairs run, each costing `O((t + 1) log N)` bits,
//! plus an `O(log N)` expected contribution from the rare fallback.

use crate::config::Instance;
use crate::interval::IntervalLayout;
use crate::observe::{Merge, Observe, Observed};
use crate::pair::Tweaks;
use crate::run::run_pair_observed;
use caaf::Caaf;
use netsim::{Metrics, MonitorReport, Round};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of one Algorithm 1 execution.
#[derive(Clone, Copy, Debug)]
pub struct TradeoffConfig {
    /// TC budget `b` in flooding rounds; must be at least `21c`.
    pub b: u64,
    /// Stretch constant `c`.
    pub c: u32,
    /// Known upper bound `f` on edge failures.
    pub f: usize,
    /// Seed for the root's private coins.
    pub seed: u64,
}

/// Outcome of an Algorithm 1 execution.
#[derive(Clone, Debug)]
pub struct TradeoffReport {
    /// The output aggregate.
    pub result: u64,
    /// Whether the output is correct per the paper's oracle (must always
    /// be true — asserted by the test suite, reported for the harness).
    pub correct: bool,
    /// Global rounds consumed until termination.
    pub rounds: Round,
    /// TC consumed, in flooding rounds (`≤ b`).
    pub flooding_rounds: u64,
    /// Merged bit meters over every sub-execution.
    pub metrics: Metrics,
    /// Number of AGG+VERI pairs that ran.
    pub pairs_run: usize,
    /// Whether the brute-force fallback produced the output.
    pub used_fallback: bool,
    /// The interval count `x`.
    pub x: u64,
    /// The tolerance `t = ⌊2f/x⌋` used by the pairs.
    pub t: u32,
}

/// Runs Algorithm 1 over `inst`.
///
/// # Examples
///
/// ```
/// use caaf::Max;
/// use ftagg::{tradeoff::{run_tradeoff, TradeoffConfig}, Instance};
/// use netsim::{topology, FailureSchedule, NodeId};
///
/// let inst = Instance::new(
///     topology::wheel(8), NodeId(0), vec![3, 1, 4, 1, 5, 9, 2, 6], FailureSchedule::none(), 9,
/// )?;
/// let cfg = TradeoffConfig { b: 21, c: 1, f: 2, seed: 0 };
/// let report = run_tradeoff(&Max, &inst, &cfg);
/// assert_eq!(report.result, 9);
/// assert!(report.correct && !report.used_fallback);
/// # Ok::<(), String>(())
/// ```
///
/// # Panics
///
/// Panics if `cfg.b < 21 * c` (the theorem's precondition) or the instance
/// and config disagree structurally.
pub fn run_tradeoff<C: Caaf + 'static>(
    op: &C,
    inst: &Instance,
    cfg: &TradeoffConfig,
) -> TradeoffReport {
    run_tradeoff_observed(op, inst, cfg, Observe::default()).0
}

/// [`run_tradeoff`] with every AGG+VERI pair running under a live
/// [`netsim::Watchdog`] (Theorem 3/6 budgets, the per-interval Theorem 1
/// budget, crash silence, phase discipline, and the CAAF envelope at each
/// decision; deliveries go unchecked, see [`netsim::monitor`]). See
/// [`run_tradeoff_observed`].
///
/// The watchdog is passive: the returned [`TradeoffReport`] is identical
/// to [`run_tradeoff`]'s for the same inputs.
pub fn run_tradeoff_monitored<C: Caaf + 'static>(
    op: &C,
    inst: &Instance,
    cfg: &TradeoffConfig,
    strict: bool,
) -> (TradeoffReport, MonitorReport) {
    let (report, seen) = run_tradeoff_observed(op, inst, cfg, Observe::watchdog(strict));
    (report, seen.monitor.expect("watchdog requested"))
}

/// The one Algorithm 1 driver, with the observers in `obs` attached to
/// every sub-execution and merged onto the global timeline. In the merged
/// trace, interval windows appear as `PhaseEnter`/`PhaseExit` markers
/// mirroring the metrics spans, and a rejected pair's `Decide` event (AGG
/// produced a value but VERI said no) is stripped, so the trace carries
/// exactly one decision — the run's actual output, at the run's actual
/// termination round. Feed it to [`netsim::CausalDag`] or `ftagg-cli
/// explain`. The per-pair watchdog verdicts are merged into one
/// [`MonitorReport`] with violation rounds shifted into the global
/// timeline; the brute-force fallback (the paper's unbudgeted last `2c`
/// flooding rounds) runs outside the budget model and is not monitored.
///
/// # Panics
///
/// As [`run_tradeoff`].
pub fn run_tradeoff_observed<C: Caaf>(
    op: &C,
    inst: &Instance,
    cfg: &TradeoffConfig,
    obs: Observe<'_>,
) -> (TradeoffReport, Observed) {
    let model = inst.model(cfg.c);
    let layout = IntervalLayout::new(cfg.b, cfg.c, model.d).unwrap_or_else(|e| panic!("{e}"));
    let x = layout.x();
    let t = layout.t(cfg.f);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Line 1: log N draws from [1, x], in non-decreasing order.
    let draws = u64::from(model.id_bits()).max(1);
    let mut ys: Vec<u64> = (0..draws).map(|_| rng.gen_range(1..=x)).collect();
    ys.sort_unstable();
    ys.dedup(); // Line 2's "i = 1 or y_i != y_{i-1}" skip.

    let mut merge = Merge::new(obs, inst);
    let mut pairs_run = 0;
    let mut output = None;
    for &y in &ys {
        // Line 3: the pair starts at flooding round (y-1)·19c + 1.
        let offset: Round = layout.pair_offset(y);
        let (stage, sub) = (inst.shifted(offset), merge.stage(true));
        let (rep, seen, _) = run_pair_observed(op, stage, cfg.c, t, true, Tweaks::default(), sub);
        // The interval's full 19c-flooding-round window is the phase.
        let window = layout.interval_window(y);
        merge.absorb(&rep.metrics, seen, offset, format!("interval {y}"), window, rep.accepted());
        pairs_run += 1;
        if rep.accepted() {
            // Line 4: output AGG's result and terminate. The pair judged
            // it on its stage instance at its last round, which is this
            // run's last round too.
            let result = rep.result().expect("accepted implies a result");
            let correct = rep.correct.expect("a result carries its verdict");
            output = Some((result, correct, offset + rep.rounds));
            break;
        }
    }
    // Line 6: brute force in the last 2c flooding rounds.
    let (result, correct, rounds) =
        output.unwrap_or_else(|| merge.fallback(op, cfg.c, layout.fallback_start() - 1));
    let (metrics, seen) = merge.finish();
    let report = TradeoffReport {
        result,
        correct,
        rounds,
        flooding_rounds: model.to_flooding_rounds(rounds),
        metrics,
        pairs_run,
        used_fallback: output.is_none(),
        x,
        t,
    };
    (report, seen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caaf::Sum;
    use netsim::{adversary::schedules, topology, Event, FailureSchedule, NodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn inst(g: netsim::Graph, inputs: Vec<u64>, s: FailureSchedule) -> Instance {
        let max = inputs.iter().copied().max().unwrap_or(0).max(1);
        Instance::new(g, NodeId(0), inputs, s, max).unwrap()
    }

    #[test]
    fn failure_free_uses_one_pair() {
        let i = inst(topology::grid(3, 3), (1..=9).collect(), FailureSchedule::none());
        let cfg = TradeoffConfig { b: 21, c: 1, f: 3, seed: 1 };
        let r = run_tradeoff(&Sum, &i, &cfg);
        assert_eq!(r.result, 45);
        assert!(r.correct);
        assert_eq!(r.pairs_run, 1);
        assert!(!r.used_fallback);
        assert!(r.flooding_rounds <= cfg.b);
        assert_eq!(r.x, (21 - 2) / 19);
    }

    #[test]
    #[should_panic(expected = "b >= 21c")]
    fn rejects_small_b() {
        let i = inst(topology::path(3), vec![1; 3], FailureSchedule::none());
        let cfg = TradeoffConfig { b: 20, c: 1, f: 1, seed: 0 };
        let _ = run_tradeoff(&Sum, &i, &cfg);
    }

    #[test]
    fn bigger_b_means_more_intervals_and_smaller_t() {
        let i = inst(topology::grid(4, 4), vec![1; 16], FailureSchedule::none());
        let small = run_tradeoff(&Sum, &i, &TradeoffConfig { b: 21, c: 1, f: 8, seed: 3 });
        let large = run_tradeoff(&Sum, &i, &TradeoffConfig { b: 21 * 8, c: 1, f: 8, seed: 3 });
        assert!(large.x > small.x);
        assert!(large.t < small.t);
    }

    #[test]
    fn random_failures_always_correct() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..15 {
            let g = topology::connected_gnp(24, 0.12, &mut rng);
            let d = g.diameter().max(1) as u64;
            let cfg = TradeoffConfig { b: 42, c: 2, f: 10, seed: trial };
            let horizon = cfg.b * u64::from(g.diameter().max(1));
            let s = schedules::random_with_edge_budget(&g, NodeId(0), 8, horizon, &mut rng);
            // Keep only schedules that respect the c·d stretch assumption.
            if s.stretch_factor(&g, NodeId(0)) > 2.0 {
                continue;
            }
            let inputs: Vec<u64> = (0..24).map(|_| rng.gen_range(0..50)).collect();
            let i = inst(g, inputs, s);
            let r = run_tradeoff(&Sum, &i, &cfg);
            assert!(
                r.correct,
                "trial {trial}: result {} incorrect (d = {d}, pairs = {}, fallback = {})",
                r.result, r.pairs_run, r.used_fallback
            );
            assert!(r.flooding_rounds <= cfg.b, "TC budget exceeded");
        }
    }

    #[test]
    fn monitored_runs_are_clean_and_identical_to_plain() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..8 {
            let g = topology::connected_gnp(20, 0.15, &mut rng);
            let cfg = TradeoffConfig { b: 42, c: 2, f: 8, seed: trial };
            let horizon = cfg.b * u64::from(g.diameter().max(1));
            let s = schedules::random(&g, NodeId(0), 5, horizon, &mut rng);
            if s.stretch_factor(&g, NodeId(0)) > 2.0 {
                continue;
            }
            let inputs: Vec<u64> = (0..20).map(|_| rng.gen_range(0..9)).collect();
            let i = inst(g, inputs, s);
            let plain = run_tradeoff(&Sum, &i, &cfg);
            let (rep, watch) = run_tradeoff_monitored(&Sum, &i, &cfg, true);
            assert!(watch.is_clean(), "trial {trial}: {}", watch.render());
            assert!(watch.sends > 0, "watchdog saw no traffic");
            // The watchdog is passive: same execution, same numbers.
            assert_eq!(rep.result, plain.result);
            assert_eq!(rep.rounds, plain.rounds);
            assert_eq!(rep.pairs_run, plain.pairs_run);
            assert_eq!(rep.metrics.max_bits(), plain.metrics.max_bits());
        }
    }

    #[test]
    fn traced_runs_match_plain_and_carry_one_decision() {
        let i = inst(topology::grid(3, 3), (1..=9).collect(), FailureSchedule::none());
        let cfg = TradeoffConfig { b: 42, c: 1, f: 4, seed: 9 };
        let plain = run_tradeoff(&Sum, &i, &cfg);
        let (rep, seen) = run_tradeoff_observed(&Sum, &i, &cfg, Observe::trace());
        let trace = seen.trace.expect("trace requested");
        // Tracing is passive: same execution, same numbers.
        assert_eq!(rep.result, plain.result);
        assert_eq!(rep.rounds, plain.rounds);
        assert_eq!(rep.metrics.max_bits(), plain.metrics.max_bits());
        // Exactly one decision — the run's output at its termination round.
        let decides: Vec<&Event> =
            trace.events().iter().filter(|e| matches!(e, Event::Decide { .. })).collect();
        assert_eq!(decides.len(), 1);
        assert_eq!(
            *decides[0],
            Event::Decide { round: rep.rounds, node: i.root, value: rep.result }
        );
        // The merged trace replays to the run's per-node bit meters.
        let replay = trace.replay_metrics();
        for v in i.graph.nodes() {
            assert_eq!(replay.bits_of(v), rep.metrics.bits_of(v), "node {v:?}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let i = inst(topology::grid(3, 3), (1..=9).collect(), FailureSchedule::none());
        let cfg = TradeoffConfig { b: 42, c: 1, f: 4, seed: 9 };
        let a = run_tradeoff(&Sum, &i, &cfg);
        let b = run_tradeoff(&Sum, &i, &cfg);
        assert_eq!(a.result, b.result);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.metrics.max_bits(), b.metrics.max_bits());
    }
}
