//! Mutation tests for the invariant watchdog: deliberately broken
//! executions must trip exactly the violation class they break.
//!
//! The over-budget sender runs through the real engine (a node that
//! floods far past its `BudgetRule` allowance). The other mutations —
//! post-crash sends, phantom deliveries, unbalanced phases — cannot be
//! produced by the engine at all (it enforces them structurally), so they
//! are injected as synthetic event streams straight into the sink, the
//! same way a corrupted trace replay would present them.

use netsim::{
    topology, Engine, Event, FailureSchedule, Message, MonitorConfig, NodeId, NodeLogic, RoundCtx,
    TraceSink, ViolationKind, Watchdog,
};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Clone, Debug)]
struct Blob;

impl Message for Blob {
    fn bit_len(&self) -> u64 {
        32
    }
}

/// A broken protocol: broadcasts 32 bits every single round, ignoring any
/// budget it was supposed to respect.
struct Chatterbox;

impl NodeLogic<Blob> for Chatterbox {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Blob>) {
        ctx.send(Blob);
    }
}

fn kinds(report: &netsim::MonitorReport) -> Vec<&'static str> {
    report
        .violations
        .iter()
        .map(|v| match v.kind {
            ViolationKind::BudgetExceeded { .. } => "budget",
            ViolationKind::PostCrashActivity { .. } => "post-crash",
            ViolationKind::UnmatchedDelivery { .. } => "unmatched-delivery",
            ViolationKind::RoundOrder { .. } => "round-order",
            ViolationKind::PhaseUnderflow { .. } => "phase-underflow",
            ViolationKind::PhaseMismatch { .. } => "phase-mismatch",
            ViolationKind::PhaseLeftOpen { .. } => "phase-left-open",
            ViolationKind::UnattributedBits { .. } => "unattributed-bits",
            ViolationKind::DecideRejected { .. } => "decide-rejected",
        })
        .collect()
}

/// Runs a synthetic event stream through a fresh watchdog.
fn watch(cfg: MonitorConfig, events: &[Event]) -> netsim::MonitorReport {
    let mut dog = Watchdog::new(cfg);
    for e in events {
        dog.record(e);
    }
    dog.finish()
}

#[test]
fn over_budget_sender_trips_budget_violation_through_the_engine() {
    // 3-node path, everyone floods 32 bits per round for 6 rounds = 192
    // bits per node, against a 100-bit allowance.
    let mut eng = Engine::new(topology::path(3), FailureSchedule::none(), |_| Chatterbox);
    let dog = Rc::new(RefCell::new(Watchdog::new(MonitorConfig::new(3).budget(
        "tiny (mutation)",
        1..=6,
        100,
    ))));
    eng.add_sink(Box::new(Rc::clone(&dog)));
    eng.run(6);
    let report = dog.borrow_mut().finish();
    assert!(!report.is_clean());
    assert!(kinds(&report).contains(&"budget"), "{}", report.render());
    // Flagged once per node per rule, not once per extra send.
    assert_eq!(report.violations.len(), 3, "{}", report.render());
    let netsim::ViolationKind::BudgetExceeded { budget, actual, .. } = &report.violations[0].kind
    else {
        panic!("expected a budget violation");
    };
    assert_eq!(*budget, 100);
    assert!(*actual > 100);
}

#[test]
fn post_crash_send_and_delivery_trip_crash_silence() {
    // Crash silence is attributed to the offending node's own events (the
    // root cause): the dead node's send and its claimed delivery both
    // flag, while the sender side of deliveries is covered by causality.
    let report = watch(
        MonitorConfig::new(3),
        &[
            Event::send(1, NodeId(1), 8, 1),
            Event::Crash { round: 2, node: NodeId(1) },
            Event::send(3, NodeId(1), 8, 1),
            Event::deliver(4, NodeId(1), NodeId(0), 8),
        ],
    );
    let ks = kinds(&report);
    assert_eq!(ks.iter().filter(|k| **k == "post-crash").count(), 2, "{}", report.render());
    // The phantom delivery (node 0 never sent in round 3) also breaks
    // causality.
    assert!(ks.contains(&"unmatched-delivery"), "{}", report.render());
}

#[test]
fn phantom_delivery_trips_causality() {
    // Nothing was sent in round 1, yet node 0 claims a delivery in round 2;
    // and node 2's round-3 delivery claims more bits than were broadcast.
    let report = watch(
        MonitorConfig::new(3),
        &[
            Event::deliver(2, NodeId(0), NodeId(1), 8),
            Event::send(2, NodeId(0), 4, 1),
            Event::deliver(3, NodeId(2), NodeId(0), 16),
        ],
    );
    let ks = kinds(&report);
    assert_eq!(ks.iter().filter(|k| **k == "unmatched-delivery").count(), 2, "{}", report.render());
}

#[test]
fn unbalanced_phases_trip_phase_discipline() {
    // Exit without an enter.
    let underflow =
        watch(MonitorConfig::new(2), &[Event::PhaseExit { round: 1, label: "AGG".into() }]);
    assert_eq!(kinds(&underflow), vec!["phase-underflow"], "{}", underflow.render());

    // Mismatched label.
    let mismatch = watch(
        MonitorConfig::new(2),
        &[
            Event::PhaseEnter { round: 1, label: "AGG".into() },
            Event::PhaseExit { round: 2, label: "VERI".into() },
        ],
    );
    assert!(kinds(&mismatch).contains(&"phase-mismatch"), "{}", mismatch.render());

    // Never closed.
    let open = watch(MonitorConfig::new(2), &[Event::PhaseEnter { round: 1, label: "AGG".into() }]);
    assert_eq!(kinds(&open), vec!["phase-left-open"], "{}", open.render());

    // Bits outside every phase once phases are in use break the
    // partition-of-cost property.
    let stray = watch(
        MonitorConfig::new(2),
        &[
            Event::PhaseEnter { round: 1, label: "AGG".into() },
            Event::PhaseExit { round: 2, label: "AGG".into() },
            Event::send(3, NodeId(0), 8, 1),
        ],
    );
    assert!(kinds(&stray).contains(&"unattributed-bits"), "{}", stray.render());
}

#[test]
fn rejected_decision_trips_the_envelope_check() {
    let cfg = MonitorConfig::new(2).decide_check(Box::new(|_, _, value| {
        if value == 42 {
            Ok(())
        } else {
            Err(format!("{value} is not the answer"))
        }
    }));
    let report = watch(
        cfg,
        &[
            Event::Decide { round: 5, node: NodeId(0), value: 42 },
            Event::Decide { round: 5, node: NodeId(0), value: 7 },
        ],
    );
    assert_eq!(kinds(&report), vec!["decide-rejected"], "{}", report.render());
    assert_eq!(report.decides, 2);
}

#[test]
#[should_panic(expected = "watchdog (strict)")]
fn strict_mode_panics_on_the_first_violation() {
    let mut dog = Watchdog::new(MonitorConfig::new(2).strict());
    dog.record(&Event::PhaseExit { round: 1, label: "AGG".into() });
}
