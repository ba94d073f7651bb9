//! Unknown-`f` operation via the standard doubling trick.
//!
//! The conference paper (and its full version) notes that the known-`f`
//! assumption can be removed with a doubling trick at a `log N`-factor CC
//! cost, yielding early-termination-like behavior: the protocol's overhead
//! tracks the number of failures that *actually* occur.
//!
//! Reconstruction (DESIGN.md §5): stages `k = 0, 1, 2, …` guess
//! `f̂ = 2^k`. Stage `k` runs one AGG + VERI pair with `t = f̂`. By
//! Theorems 5 and 7, any accepted result (AGG alive ∧ VERI true) is
//! correct, whatever the real failure count — so the guesses only affect
//! *when* we stop, never correctness. Once `f̂` reaches the number of edge
//! failures the adversary still has left to spend, the stage must accept.
//! A final brute-force fallback keeps the worst case bounded.

use crate::config::Instance;
use crate::observe::{Merge, Observe, Observed};
use crate::pair::Tweaks;
use crate::run::run_pair_observed;
use caaf::Caaf;
use netsim::{Metrics, Round};

/// Configuration for the doubling wrapper.
#[derive(Clone, Copy, Debug)]
pub struct DoublingConfig {
    /// Stretch constant `c`.
    pub c: u32,
    /// Maximum number of doubling stages before the brute-force fallback
    /// (`log2 N + 1` suffices for `f ≤ N`).
    pub max_stages: u32,
}

/// Outcome of a doubling run.
#[derive(Clone, Debug)]
pub struct DoublingReport {
    /// The output aggregate.
    pub result: u64,
    /// Whether the output is correct per the oracle.
    pub correct: bool,
    /// Stages executed (1 = the `f̂ = 1` stage sufficed).
    pub stages: u32,
    /// The final guess `f̂` used (0 if the fallback produced the output).
    pub final_guess: u64,
    /// Total rounds consumed.
    pub rounds: Round,
    /// Merged bit meters.
    pub metrics: Metrics,
    /// Whether the brute-force fallback produced the output.
    pub used_fallback: bool,
}

/// Runs the doubling wrapper over `inst` without knowing `f`.
///
/// # Examples
///
/// ```
/// use caaf::Sum;
/// use ftagg::{doubling::{run_doubling, DoublingConfig}, Instance};
/// use netsim::{topology, FailureSchedule, NodeId};
///
/// let inst = Instance::new(
///     topology::binary_tree(7), NodeId(0), (1..=7).collect(), FailureSchedule::none(), 7,
/// )?;
/// let report = run_doubling(&Sum, &inst, &DoublingConfig { c: 1, max_stages: 5 });
/// assert_eq!(report.result, 28);
/// assert_eq!(report.stages, 1); // no failures: the f̂ = 1 stage suffices
/// assert!(report.correct);
/// # Ok::<(), String>(())
/// ```
pub fn run_doubling<C: Caaf>(op: &C, inst: &Instance, cfg: &DoublingConfig) -> DoublingReport {
    run_doubling_observed(op, inst, cfg, Observe::default()).0
}

/// The one doubling driver, with the observers in `obs` attached to every
/// stage and merged onto the global timeline, as
/// [`crate::tradeoff::run_tradeoff_observed`] merges Algorithm 1's
/// intervals: stage windows become `PhaseEnter`/`PhaseExit` markers,
/// rejected stages' `Decide` events are stripped, and every stage runs
/// under the watchdog, the fallback excepted. Each stage's messages carry
/// the blanket kind `"doubling-stage"` (via [`Tweaks::kind_override`]) so
/// the blame analysis attributes the wrapper's CC as a whole.
pub fn run_doubling_observed<C: Caaf>(
    op: &C,
    inst: &Instance,
    cfg: &DoublingConfig,
    obs: Observe<'_>,
) -> (DoublingReport, Observed) {
    let tweaks = Tweaks { kind_override: Some("doubling-stage"), ..Tweaks::default() };
    let mut merge = Merge::new(obs, inst);
    let mut offset: Round = 0;
    let mut output = None;
    for k in 0..cfg.max_stages {
        let guess: u64 = 1 << k;
        let t = guess.min(u32::MAX as u64) as u32;
        let (stage, sub) = (inst.shifted(offset), merge.stage(true));
        let (rep, seen, _) = run_pair_observed(op, stage, cfg.c, t, true, tweaks, sub);
        // Each stage's round window is a phase.
        let window = (offset + 1, offset + rep.rounds);
        merge.absorb(&rep.metrics, seen, offset, format!("stage {k}"), window, rep.accepted());
        offset += rep.rounds;
        if rep.accepted() {
            let result = rep.result().expect("accepted implies a result");
            let correct = rep.correct.expect("a result carries its verdict");
            output = Some((result, correct, k + 1, guess, offset));
            break;
        }
    }
    let (result, correct, stages, final_guess, rounds) = output.unwrap_or_else(|| {
        let (result, correct, rounds) = merge.fallback(op, cfg.c, offset);
        (result, correct, cfg.max_stages, 0, rounds)
    });
    let (metrics, seen) = merge.finish();
    let used_fallback = output.is_none();
    let report =
        DoublingReport { result, correct, stages, final_guess, rounds, metrics, used_fallback };
    (report, seen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caaf::Sum;
    use netsim::{topology, Event, FailureSchedule, NodeId};

    fn inst(g: netsim::Graph, inputs: Vec<u64>, s: FailureSchedule) -> Instance {
        let max = inputs.iter().copied().max().unwrap_or(0).max(1);
        Instance::new(g, NodeId(0), inputs, s, max).unwrap()
    }

    #[test]
    fn failure_free_stops_at_first_stage() {
        let i = inst(topology::grid(3, 3), (1..=9).collect(), FailureSchedule::none());
        let r = run_doubling(&Sum, &i, &DoublingConfig { c: 1, max_stages: 6 });
        assert_eq!(r.result, 45);
        assert_eq!(r.stages, 1);
        assert_eq!(r.final_guess, 1);
        assert!(r.correct);
        assert!(!r.used_fallback);
    }

    #[test]
    fn adapts_to_actual_failures() {
        // A failure inside stage 1's window (with descendants that stay
        // root-connected around the cycle) forces VERI(1) to reject stage 1;
        // the next stage, with the node already gone, accepts.
        let g = topology::cycle(6);
        let cd = 2 * g.diameter() as u64; // c = 2
        let action_of_1 = (2 * cd + 1) + (cd - 1 + 1);
        let mut s = FailureSchedule::none();
        s.crash(NodeId(1), action_of_1);
        let i = inst(g, vec![1; 6], s);
        // c = 2: the residual cycle-minus-a-node is a path of diameter
        // 5 > d = 3, so the model's stretch constant must cover it.
        let r = run_doubling(&Sum, &i, &DoublingConfig { c: 2, max_stages: 8 });
        assert!(r.correct, "doubling must stay correct, got {}", r.result);
        assert!(!r.used_fallback);
        assert!(r.stages >= 2, "the stage-1 failure must be noticed");
    }

    #[test]
    fn traced_doubling_tags_everything_as_doubling_stage() {
        // A failure inside stage 1's window forces a second stage; the
        // merged trace must still carry one decision, and every send must
        // wear the wrapper's blanket kind.
        let g = topology::cycle(6);
        let cd = 2 * g.diameter() as u64;
        let action_of_1 = (2 * cd + 1) + (cd - 1 + 1);
        let mut s = FailureSchedule::none();
        s.crash(NodeId(1), action_of_1);
        let i = inst(g, vec![1; 6], s);
        let cfg = DoublingConfig { c: 2, max_stages: 8 };
        let plain = run_doubling(&Sum, &i, &cfg);
        let (rep, seen) = run_doubling_observed(&Sum, &i, &cfg, Observe::trace());
        let trace = seen.trace.expect("trace requested");
        assert_eq!(rep.result, plain.result);
        assert_eq!(rep.rounds, plain.rounds);
        assert_eq!(rep.stages, plain.stages);
        assert_eq!(rep.metrics.max_bits(), plain.metrics.max_bits());
        let mut sends = 0;
        for e in trace.events() {
            if let Event::Send { kind, .. } = e {
                assert_eq!(kind, "doubling-stage");
                sends += 1;
            }
        }
        assert!(sends > 0, "traced run saw no sends");
        let decides = trace.events().iter().filter(|e| matches!(e, Event::Decide { .. })).count();
        assert_eq!(decides, 1);
        let blame = netsim::Blame::from_trace(&trace);
        assert_eq!(blame.kinds(), vec!["doubling-stage".to_string()]);
    }

    #[test]
    fn cheap_when_quiet_expensive_when_failing() {
        let quiet = inst(topology::grid(4, 4), vec![1; 16], FailureSchedule::none());
        let rq = run_doubling(&Sum, &quiet, &DoublingConfig { c: 1, max_stages: 8 });

        let g = topology::grid(4, 4);
        let d = g.diameter() as u64;
        let mut s = FailureSchedule::none();
        // Two staged failures inside the first two stage windows.
        s.crash(NodeId(5), 2 * d + 2);
        s.crash(NodeId(6), 13 * d + 10);
        let busy = inst(g, vec![1; 16], s);
        let rb = run_doubling(&Sum, &busy, &DoublingConfig { c: 1, max_stages: 8 });

        assert!(rq.correct && rb.correct);
        assert!(
            rb.metrics.max_bits() >= rq.metrics.max_bits(),
            "overhead should track actual failures: quiet {} vs busy {}",
            rq.metrics.max_bits(),
            rb.metrics.max_bits()
        );
    }
}
