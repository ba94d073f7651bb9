//! One observer bundle for every protocol driver.
//!
//! The pair, Algorithm 1, doubling and brute-force cores each take an
//! [`Observe`] value naming what to attach to the engines they build — an
//! in-memory trace, the Theorem 3/6 watchdog, an extra event sink, a
//! round-flow callback and a timeline lane — and hand back an
//! [`Observed`] with what those observers collected. Observers are
//! passive: a run's report is the same whatever the bundle holds (pinned
//! by `tests/observer_noninterference.rs`).

use crate::baselines::brute::run_brute_observed;
use crate::config::Instance;
use caaf::Caaf;
use netsim::{
    Engine, Event, Message, Metrics, MonitorConfig, MonitorReport, NodeLogic, Round, RoundFlow,
    Timeline, Trace, TraceSink, Watchdog,
};
use std::cell::RefCell;
use std::rc::Rc;

/// A per-round flow callback (see [`Observe::rounds`]).
pub type RoundCallback = Box<dyn FnMut(RoundFlow)>;

/// The observers a driver attaches to the engines it builds.
/// `Observe::default()` attaches none.
#[derive(Default)]
pub struct Observe<'a> {
    /// Record the run's causal event log (schema v2: ids, kinds, lineage)
    /// into [`Observed::trace`]. A run over several engines merges it
    /// onto its global round timeline.
    pub trace: bool,
    /// `Some(strict)` runs every AGG+VERI pair under the Theorem 3/6
    /// watchdog (budgets, crash silence, delivery causality, phase
    /// discipline, and the CAAF envelope at each decision, with the one
    /// exemption [`crate::run_pair_observed`] names); the merged verdict
    /// lands in [`Observed::monitor`]. Strict mode panics on the first
    /// violation.
    pub watchdog: Option<bool>,
    /// One more event sink, installed after the trace and the watchdog.
    /// Keep an `Rc<RefCell<_>>` handle to it to read it after the run (see
    /// [`netsim::TraceSink`]). Only the pair core takes one; the
    /// multi-engine cores panic on it.
    pub sink: Option<Box<dyn TraceSink>>,
    /// Called with each round's flow as the round retires. Only the pair
    /// core takes one; the multi-engine cores panic on it.
    pub rounds: Option<RoundCallback>,
    /// A wall-clock timeline recording round/stage/phase spans on a lane.
    pub timeline: Option<(&'a Timeline, u32)>,
}

/// What the observers of an [`Observe`] bundle collected.
#[derive(Default)]
pub struct Observed {
    /// The causal event log, if [`Observe::trace`] was set.
    pub trace: Option<Trace>,
    /// The watchdog's verdict, if [`Observe::watchdog`] was set.
    pub monitor: Option<MonitorReport>,
}

impl<'a> Observe<'a> {
    /// A bundle that records the trace and nothing else.
    pub fn trace() -> Self {
        Observe { trace: true, ..Observe::default() }
    }

    /// A bundle that runs the watchdog, `strict` or not, and nothing else.
    pub fn watchdog(strict: bool) -> Self {
        Observe { watchdog: Some(strict), ..Observe::default() }
    }

    /// Attaches the bundle to a freshly built engine. `config` builds the
    /// watchdog's configuration for this engine's protocol; it is called
    /// only when a watchdog is requested. The sinks go in as trace,
    /// watchdog, extra sink: a strict watchdog that panics on an event
    /// leaves that event already recorded in the trace.
    pub(crate) fn attach<M: Message, L: NodeLogic<M>>(
        self,
        eng: &mut Engine<M, L>,
        config: impl FnOnce() -> MonitorConfig,
    ) -> Attached {
        let attached = Attached {
            trace: self.trace.then(|| Rc::new(RefCell::new(Trace::new()))),
            watchdog: self.watchdog.map(|strict| {
                let cfg = if strict { config().strict() } else { config() };
                Rc::new(RefCell::new(Watchdog::new(cfg)))
            }),
        };
        if let Some(trace) = &attached.trace {
            eng.add_sink(Box::new(Rc::clone(trace)));
        }
        if let Some(watchdog) = &attached.watchdog {
            eng.add_sink(Box::new(Rc::clone(watchdog)));
        }
        if let Some(sink) = self.sink {
            eng.add_sink(sink);
        }
        if let Some(cb) = self.rounds {
            eng.stream_rounds(cb);
        }
        if let Some((tl, lane)) = self.timeline {
            eng.set_timeline(tl, lane);
        }
        attached
    }
}

/// Handles to the trace and watchdog [`Observe::attach`] installed.
pub(crate) struct Attached {
    trace: Option<Rc<RefCell<Trace>>>,
    watchdog: Option<Rc<RefCell<Watchdog>>>,
}

impl Attached {
    /// Reads what the trace and the watchdog collected, after the run.
    pub(crate) fn collect(self) -> Observed {
        Observed {
            trace: self.trace.map(|trace| trace.take()),
            monitor: self.watchdog.map(|watchdog| watchdog.borrow_mut().finish()),
        }
    }
}

/// Merges the metrics and observations of a run that executes one engine
/// after another — Algorithm 1's intervals, the doubling stages, the
/// brute-force fallback — onto the run's global round timeline.
pub(crate) struct Merge<'a> {
    metrics: Metrics,
    trace: Option<Trace>,
    watchdog: Option<bool>,
    monitor: Option<MonitorReport>,
    timeline: Option<(&'a Timeline, u32)>,
}

impl<'a> Merge<'a> {
    /// # Panics
    ///
    /// Panics if `obs` carries an extra sink or a round callback.
    pub(crate) fn new(obs: Observe<'a>, n: usize) -> Self {
        assert!(
            obs.sink.is_none() && obs.rounds.is_none(),
            "a run over several engines takes no extra sink or round callback"
        );
        Merge {
            metrics: Metrics::new(n),
            trace: obs.trace.then(Trace::new),
            watchdog: obs.watchdog,
            monitor: obs.watchdog.map(|_| MonitorReport::default()),
            timeline: obs.timeline,
        }
    }

    /// The bundle for one stage. `watched` says whether the watchdog
    /// covers the stage: the brute-force fallback runs outside the budget
    /// model.
    pub(crate) fn stage(&self, watched: bool) -> Observe<'a> {
        Observe {
            trace: self.trace.is_some(),
            watchdog: self.watchdog.filter(|_| watched),
            timeline: self.timeline,
            ..Observe::default()
        }
    }

    /// Folds in one stage: its metrics and trace inside a `label` phase
    /// spanning global rounds `lo..=hi` (the stage's own phases nest
    /// inside it), and its watchdog verdict, all shifted by `offset`. A
    /// stage that did not produce the run's output loses its `Decide`
    /// event (AGG may have produced a value VERI then rejected), so the
    /// merged trace carries exactly one decision.
    pub(crate) fn absorb(
        &mut self,
        metrics: &Metrics,
        seen: Observed,
        offset: Round,
        label: String,
        (lo, hi): (Round, Round),
        decided: bool,
    ) {
        self.metrics.push_span(label.clone(), lo, hi);
        self.metrics.absorb_shifted(metrics, offset);
        if let (Some(trace), Some(mut sub)) = (self.trace.as_mut(), seen.trace) {
            if !decided {
                sub.retain(|e| !matches!(e, Event::Decide { .. }));
            }
            trace.push(Event::PhaseEnter { round: lo, label: label.clone() });
            trace.absorb_shifted(&sub, offset);
            trace.push(Event::PhaseExit { round: hi, label });
        }
        if let (Some(monitor), Some(sub)) = (self.monitor.as_mut(), seen.monitor) {
            monitor.absorb_shifted(&sub, offset);
        }
    }

    /// Runs the brute-force fallback as the run's last stage, after
    /// global round `offset` and outside the watchdog's budget model. The
    /// protocol decides nothing in-band, so the root's aggregate at the
    /// horizon is recorded as the run's decision. Returns the result, the
    /// oracle's verdict and the global end round.
    pub(crate) fn fallback<C: Caaf>(
        &mut self,
        op: &C,
        inst: &Instance,
        c: u32,
        offset: Round,
    ) -> (u64, bool, Round) {
        let shifted = inst.schedule.shifted(offset);
        let (rep, seen) = run_brute_observed(op, inst, shifted, c, offset, self.stage(false));
        let end = offset + rep.rounds;
        self.absorb(&rep.metrics, seen, offset, "fallback".into(), (offset + 1, end), true);
        if let Some(trace) = self.trace.as_mut() {
            trace.push(Event::Decide { round: end, node: inst.root, value: rep.result });
        }
        (rep.result, rep.correct, end)
    }

    /// The merged metrics and observations.
    pub(crate) fn finish(self) -> (Metrics, Observed) {
        (self.metrics, Observed { trace: self.trace, monitor: self.monitor })
    }
}
