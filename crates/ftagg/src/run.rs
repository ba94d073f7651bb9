//! Drivers: run a protocol on an [`Instance`] and evaluate the outcome
//! against the paper's correctness oracle.

use crate::analysis::effective_edge_failures;
use crate::config::Instance;
use crate::monitored::{decide_envelope, pair_monitor_config};
use crate::msg::Envelope;
use crate::observe::{Observe, Observed};
use crate::pair::{AggOutcome, PairNode, PairParams, Tweaks};
use caaf::Caaf;
use netsim::{AnyEngine, Event, FailureSchedule, Metrics, NodeId, Round};
use std::cell::Cell;
use std::rc::Rc;

/// Outcome of one AGG (+ optional VERI) pair execution.
#[derive(Clone, Debug)]
pub struct PairReport {
    /// AGG's outcome at the root.
    pub outcome: AggOutcome,
    /// VERI's verdict, if VERI was run.
    pub verdict: Option<bool>,
    /// Rounds the execution occupied.
    pub rounds: Round,
    /// Bit meters for the execution.
    pub metrics: Metrics,
    /// Whether the produced result (if any) is correct per the paper's
    /// interval definition, evaluated at the end of the execution.
    pub correct: Option<bool>,
}

impl PairReport {
    /// True iff AGG produced a result and VERI (if run) said `true` —
    /// Algorithm 1's acceptance condition (line 4).
    pub fn accepted(&self) -> bool {
        matches!(self.outcome, AggOutcome::Result(_)) && self.verdict.unwrap_or(true)
    }

    /// The numeric result, if AGG did not abort.
    pub fn result(&self) -> Option<u64> {
        match self.outcome {
            AggOutcome::Result(v) => Some(v),
            AggOutcome::Aborted => None,
        }
    }
}

/// Runs one AGG (+ VERI) pair over `inst` with stretch constant `c` and
/// tolerance `t`, using the instance's own failure schedule.
///
/// # Examples
///
/// ```
/// use caaf::Sum;
/// use ftagg::{Instance, run_pair};
/// use netsim::{topology, FailureSchedule, NodeId};
///
/// let inst = Instance::new(
///     topology::grid(3, 3), NodeId(0), vec![2; 9], FailureSchedule::none(), 2,
/// )?;
/// let report = run_pair(&Sum, &inst, 1, 1, true);
/// assert_eq!(report.result(), Some(18));
/// assert_eq!(report.verdict, Some(true));
/// assert!(report.accepted());
/// # Ok::<(), String>(())
/// ```
pub fn run_pair<C: Caaf>(op: &C, inst: &Instance, c: u32, t: u32, run_veri: bool) -> PairReport {
    run_pair_with_schedule(op, inst, inst.schedule.clone(), c, t, run_veri, 0)
}

/// Like [`run_pair`] but with an explicit (already shifted) schedule and a
/// global-round offset used only for correctness evaluation — Algorithm 1
/// runs pairs inside later intervals of a longer execution.
pub fn run_pair_with_schedule<C: Caaf>(
    op: &C,
    inst: &Instance,
    schedule: FailureSchedule,
    c: u32,
    t: u32,
    run_veri: bool,
    global_offset: Round,
) -> PairReport {
    let obs = Observe::default();
    run_pair_observed(op, inst, schedule, c, t, run_veri, global_offset, Tweaks::default(), obs).0
}

/// The one AGG (+ VERI) driver: builds the engine over `schedule` with
/// ablation `tweaks` (the default gives the faithful protocol), attaches
/// the observers in `obs`, attributes the AGG and VERI round windows as
/// metrics phases (mirrored to the sinks as `PhaseEnter`/`PhaseExit`),
/// runs to the pair's round budget, adds a `Decide` event if the root
/// produced a result, and evaluates the paper's correctness oracle at
/// global round `global_offset + rounds`. Returns the report, what the
/// observers collected, and the engine for white-box inspection (tree
/// snapshots, per-node flood state).
///
/// The watchdog enforces [`pair_monitor_config`]'s Theorem 3/6 budgets
/// and the CAAF envelope at the decision. Per Table 2, AGG may be wrong
/// only when the pair saw more than `t` edge failures, and VERI then says
/// false; such a rejected value is exempt from the envelope, every other
/// one is judged.
#[allow(clippy::too_many_arguments)]
pub fn run_pair_observed<C: Caaf>(
    op: &C,
    inst: &Instance,
    schedule: FailureSchedule,
    c: u32,
    t: u32,
    run_veri: bool,
    global_offset: Round,
    tweaks: Tweaks,
    obs: Observe<'_>,
) -> (PairReport, Observed, AnyEngine<Envelope, PairNode<C>>) {
    let params = PairParams { model: inst.model(c), t, run_veri, tweaks };
    let op2 = op.clone();
    let inputs = inst.inputs.clone();
    let mut eng: AnyEngine<Envelope, PairNode<C>> =
        AnyEngine::new(inst.engine, inst.graph.clone(), schedule, |v| {
            PairNode::new(params, op2.clone(), v, inputs[v.index()])
        });
    // The pair always ends at its round budget, so the correct interval
    // at the decision round is known before the run.
    let interval = inst.correct_interval(op, global_offset + params.total_rounds());
    // Whether a rejected value is exempt; set after the run, before the
    // decision is annotated.
    let mut exempt = None;
    let attached = obs.attach(&mut eng, || {
        let (skip, envelope) = (Rc::new(Cell::new(false)), decide_envelope(inst.root, interval));
        exempt = Some(Rc::clone(&skip));
        pair_monitor_config(&params).decide_check(Box::new(move |round, node, value| {
            if skip.get() {
                Ok(())
            } else {
                envelope(round, node, value)
            }
        }))
    });
    eng.enter_phase("AGG");
    eng.run(params.agg_rounds());
    eng.exit_phase();
    if run_veri {
        eng.enter_phase("VERI");
        eng.run(params.total_rounds());
        eng.exit_phase();
    }
    let rounds = eng.round();
    let root = eng.node(inst.root);
    let outcome = root.agg_outcome();
    let verdict = run_veri.then(|| root.veri_verdict());
    let correct = match outcome {
        AggOutcome::Result(v) => Some(interval.contains(v)),
        AggOutcome::Aborted => None,
    };
    let report = PairReport { outcome, verdict, rounds, metrics: eng.metrics().clone(), correct };
    if let Some(v) = report.result() {
        if let (Some(exempt), false) = (&exempt, report.accepted()) {
            // Failures counted as Table 2's classification counts them.
            let failures = effective_edge_failures(eng.graph(), eng.schedule(), inst.root, rounds);
            exempt.set(failures > t as usize);
        }
        eng.annotate(Event::Decide { round: rounds, node: inst.root, value: v });
    }
    let seen = attached.collect(&mut eng);
    (report, seen, eng)
}

/// Runs the pair and returns the whole engine for white-box inspection
/// (tree snapshots, per-node flood state). Used by the fragment/LFC
/// analyses and tests.
pub fn run_pair_engine<C: Caaf>(
    op: &C,
    inst: &Instance,
    schedule: FailureSchedule,
    c: u32,
    t: u32,
    run_veri: bool,
) -> (AnyEngine<Envelope, PairNode<C>>, PairParams) {
    let obs = Observe::default();
    let (_, _, eng) =
        run_pair_observed(op, inst, schedule, c, t, run_veri, 0, Tweaks::default(), obs);
    let params = *eng.node(inst.root).params();
    (eng, params)
}

/// Convenience: the id of every node, used by harness sweeps.
pub fn all_nodes(inst: &Instance) -> Vec<NodeId> {
    inst.graph.nodes().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use caaf::Sum;
    use netsim::{topology, FailureSchedule};

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

    #[test]
    fn run_pair_failure_free() {
        let i = inst(5);
        let r = run_pair(&Sum, &i, 1, 1, true);
        assert_eq!(r.result(), Some(15));
        assert_eq!(r.verdict, Some(true));
        assert!(r.accepted());
        assert_eq!(r.correct, Some(true));
        assert!(r.metrics.max_bits() > 0);
    }

    #[test]
    fn run_pair_without_veri() {
        let i = inst(4);
        let r = run_pair(&Sum, &i, 1, 0, false);
        assert_eq!(r.result(), Some(10));
        assert_eq!(r.verdict, None);
        assert!(r.accepted());
    }

    #[test]
    fn pair_metrics_carry_agg_veri_phases() {
        let i = inst(5);
        let r = run_pair(&Sum, &i, 1, 1, true);
        let params =
            PairParams { model: i.model(1), t: 1, run_veri: true, tweaks: Tweaks::default() };
        let ph = r.metrics.phases();
        assert_eq!(ph.len(), 2);
        assert_eq!((ph[0].label.as_str(), ph[0].start, ph[0].end), ("AGG", 1, params.agg_rounds()));
        assert_eq!(
            (ph[1].label.as_str(), ph[1].start, ph[1].end),
            ("VERI", params.agg_rounds() + 1, params.total_rounds())
        );
        // The two phases partition the run: their bits sum to the total.
        assert_eq!(ph[0].bits + ph[1].bits, r.metrics.total_bits());
        // Without VERI there is a single AGG phase.
        let r = run_pair(&Sum, &i, 1, 0, false);
        assert_eq!(r.metrics.phases().len(), 1);
    }

    #[test]
    fn sink_returns_trace_with_phase_markers_and_decision() {
        use netsim::{Event, Trace};
        let i = inst(5);
        let (s, obs) = (i.schedule.clone(), Observe::trace());
        let (r, seen, _) = run_pair_observed(&Sum, &i, s, 1, 1, true, 0, Tweaks::default(), obs);
        assert_eq!(r.result(), Some(15));
        let t: Trace = seen.trace.expect("trace requested");
        let kinds: Vec<&str> = t.events().iter().map(Event::kind).collect();
        assert!(kinds.contains(&"phase_enter"));
        assert!(kinds.contains(&"phase_exit"));
        assert!(kinds.contains(&"deliver"));
        // Exactly one decision, at the root, with the aggregate.
        let decides: Vec<&Event> =
            t.events().iter().filter(|e| matches!(e, Event::Decide { .. })).collect();
        assert_eq!(decides.len(), 1);
        assert_eq!(*decides[0], Event::Decide { round: r.rounds, node: NodeId(0), value: 15 });
    }

    #[test]
    fn engine_access_exposes_snapshots() {
        let i = inst(4);
        let (eng, params) = run_pair_engine(&Sum, &i, i.schedule.clone(), 1, 1, true);
        assert_eq!(eng.round(), params.total_rounds());
        let snap = eng.node(NodeId(3)).snapshot();
        assert_eq!(snap.level, Some(3));
        assert_eq!(snap.parent, Some(NodeId(2)));
    }
}
