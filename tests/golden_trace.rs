//! Golden-trace conformance: on a fixed tiny instance, the exact rounds in
//! which each node broadcasts are pinned against Algorithms 2 and 3's
//! schedules. Any timing regression in the phase arithmetic shows up here
//! as a changed round number, not as a subtle downstream correctness bug.
//!
//! Instance: failure-free path `0-1-2-3`, c = 1, d = 3 (so cd = 3), t = 1.
//!
//! Expected schedule (execution-local rounds):
//!
//! | phase | rounds | events |
//! |---|---|---|
//! | A1 tree | 1..=7 | tc waves at 1/3/5, acks at 2/4/6 |
//! | A2 aggregation | 8..=14 | level-l node acts at `7 + (3 − l + 1)` |
//! | A3 speculative | 15..=21 | root floods at 15; others forward |
//! | A4 selection | 22..=25 | determinations at 22, forwards after |
//! | V1 | 26..=32 | root's bit at 26, forwards 27/28 |
//! | V2 | 33..=39 | beacon at `32 + (3 − l + 1)` |
//! | V3 | 40..=43 | (no failed parents: silence) |

use caaf::Sum;
use ftagg::msg::Envelope;
use ftagg::pair::{PairNode, PairParams, Tweaks};
use ftagg::{Instance, Model};
use netsim::testkit::{assert_equivalent, capture, Reference};
use netsim::{topology, Engine, Event, FailureSchedule, JsonlSink, NodeId, Trace};
use std::cell::RefCell;
use std::rc::Rc;

/// The golden pair's parameters: N = 4, d = 3, c = 1, t = 1, with VERI.
fn golden() -> PairParams {
    PairParams {
        model: Model { n: 4, root: NodeId(0), d: 3, c: 1, max_input: 4 },
        t: 1,
        run_veri: true,
        tweaks: Tweaks::default(),
    }
}

fn run_traced() -> (Engine<Envelope, PairNode<Sum>>, Rc<RefCell<Trace>>) {
    let g = topology::path(4);
    let inst = Instance::new(g, NodeId(0), vec![1, 2, 3, 4], FailureSchedule::none(), 4).unwrap();
    let params = golden();
    let inputs = inst.inputs.clone();
    let mut eng = Engine::new(inst.graph.clone(), FailureSchedule::none(), |v| {
        PairNode::new(params, Sum, v, inputs[v.index()])
    });
    let trace = Rc::new(RefCell::new(Trace::new()));
    eng.add_sink(Box::new(Rc::clone(&trace)));
    eng.run(params.total_rounds());
    (eng, trace)
}

#[test]
fn send_rounds_match_the_pseudocode_schedule() {
    let (_, trace) = run_traced();
    let t = trace.borrow();
    // cd = 3. Phase starts: A2 at 8, A3 at 15, A4 at 22, V1 at 26, V2 at 33.
    //
    // Node 0 (root, level 0):
    //   1: tree_construct. 10+1=11: aggregation action (cd-0+1=4 → 7+4).
    //   15: psum flood. 16: forward node 1's... no — failure-free: only
    //   the root floods in A3; nodes forward it (they send as forwarders).
    //   22: (root's own determination for its psum). 26: detect bit.
    //   36: V2 beacon (32 + 3-0+1 = 36).
    let r0 = t.send_rounds(NodeId(0));
    assert!(r0.contains(&1), "root tc at round 1: {r0:?}");
    assert!(r0.contains(&11), "root aggregation at 11: {r0:?}");
    assert!(r0.contains(&15), "root psum flood at 15: {r0:?}");
    assert!(r0.contains(&22), "root determination at 22: {r0:?}");
    assert!(r0.contains(&26), "root V1 bit at 26: {r0:?}");
    assert!(r0.contains(&36), "root V2 beacon at 36: {r0:?}");

    // Node 1 (level 1): activated round 2 (ack), tc at 3, aggregation at
    // 7 + (3-1+1) = 10, forwards root's flood at 16. At 22 node 1 is
    // *itself* a witness of the root's psum (distance 1 ≤ t) and initiates
    // the identical determination — the paper's "flooded multiple times,
    // identical content" case; the root's own copy arriving at 23 is then
    // deduplicated. V1 bit forward at 27, V2 beacon at 32 + (3-1+1) = 35.
    let r1 = t.send_rounds(NodeId(1));
    assert_eq!(r1, vec![2, 3, 10, 16, 22, 27, 35], "node 1 schedule");

    // Node 2 (level 2): ack at 4, tc at 5, aggregation at 9, forward flood
    // 17, forward the (deduplicated) determination at 23, forward V1 bit
    // 28, beacon at 34.
    let r2 = t.send_rounds(NodeId(2));
    assert_eq!(r2, vec![4, 5, 9, 17, 23, 28, 34], "node 2 schedule");

    // Node 3 (leaf, level 3): ack at 6, tc at 7, aggregation at 8 (first!),
    // forward flood 18, forward determination 24, forward V1 29, beacon 33.
    let r3 = t.send_rounds(NodeId(3));
    assert_eq!(r3, vec![6, 7, 8, 18, 24, 29, 33], "node 3 schedule");
}

/// Golden snapshot of the JSONL trace format on the same instance, with
/// AGG/VERI annotated as phases and the root's decision recorded.
///
/// The first line is the schema header; this test asserts on its version
/// field (`"v":2` = `netsim::TRACE_SCHEMA_VERSION`). **If you change the
/// on-disk format, bump `TRACE_SCHEMA_VERSION` and re-pin these lines** —
/// saved traces in formats newer than the reader must be rejected loudly
/// by `Trace::from_jsonl`, never reinterpreted silently (v1, the one
/// compatible ancestor, parses with empty lineage — see
/// `tests/schema_guard.rs`).
#[test]
fn jsonl_trace_format_snapshot() {
    let g = topology::path(4);
    let inst = Instance::new(g, NodeId(0), vec![1, 2, 3, 4], FailureSchedule::none(), 4).unwrap();
    let params = PairParams {
        model: Model { n: 4, root: NodeId(0), d: 3, c: 1, max_input: 4 },
        t: 1,
        run_veri: true,
        tweaks: Tweaks::default(),
    };
    let inputs = inst.inputs.clone();
    let mut eng: Engine<Envelope, PairNode<Sum>> =
        Engine::new(inst.graph.clone(), FailureSchedule::none(), |v| {
            PairNode::new(params, Sum, v, inputs[v.index()])
        });
    let sink = Rc::new(RefCell::new(JsonlSink::new(Vec::<u8>::new())));
    eng.add_sink(Box::new(Rc::clone(&sink)));
    eng.enter_phase("AGG");
    eng.run(params.agg_rounds());
    eng.exit_phase();
    eng.enter_phase("VERI");
    eng.run(params.total_rounds());
    eng.exit_phase();
    if let ftagg::AggOutcome::Result(v) = eng.node(NodeId(0)).agg_outcome() {
        eng.annotate(Event::Decide { round: eng.round(), node: NodeId(0), value: v });
    }
    drop(eng);
    let sink = Rc::try_unwrap(sink).expect("the engine is gone").into_inner();
    let text = String::from_utf8(sink.finish().unwrap()).unwrap();
    let lines: Vec<&str> = text.lines().collect();

    // The pinned on-disk format: schema header + the execution's opening
    // events, byte for byte.
    assert_eq!(
        &lines[..7],
        &[
            r#"{"schema":"ftagg-trace","v":2}"#,
            r#"{"ev":"phase_enter","r":1,"label":"AGG"}"#,
            r#"{"ev":"send","r":1,"n":0,"bits":7,"logical":1,"id":1,"kind":"tree-construct"}"#,
            r#"{"ev":"deliver","r":2,"n":1,"from":0,"bits":7,"id":2,"src":1}"#,
            r#"{"ev":"send","r":2,"n":1,"bits":6,"logical":1,"id":3,"kind":"tree-construct","causes":[2]}"#,
            r#"{"ev":"deliver","r":3,"n":0,"from":1,"bits":6,"id":4,"src":3}"#,
            r#"{"ev":"send","r":3,"n":1,"bits":9,"logical":1,"id":5,"kind":"tree-construct","causes":[2]}"#,
        ],
        "JSONL opening lines drifted — bump TRACE_SCHEMA_VERSION if intentional"
    );
    // The phase boundary and closing events (cd = 3: AGG ends at 7·3+4 = 25).
    assert_eq!(lines[50], r#"{"ev":"phase_exit","r":25,"label":"AGG"}"#);
    assert_eq!(lines[51], r#"{"ev":"phase_enter","r":26,"label":"VERI"}"#);
    assert_eq!(lines[72], r#"{"ev":"phase_exit","r":43,"label":"VERI"}"#);
    assert_eq!(lines[73], r#"{"ev":"decide","r":43,"n":0,"value":10}"#);
    assert_eq!(lines.len(), 74, "event count drifted");

    // The format round-trips: parsing the file reproduces the events and
    // the replayed metrics agree with the quiet-run accounting.
    let back = Trace::from_jsonl(text.as_bytes()).unwrap();
    assert_eq!(back.events().len(), 73);
    assert_eq!(back.send_rounds(NodeId(1)), vec![2, 3, 10, 16, 22, 27, 35]);
    let replayed = back.replay_metrics();
    let phases = replayed.phases();
    assert_eq!(phases.len(), 2);
    assert_eq!((phases[0].label.as_str(), phases[0].start, phases[0].end), ("AGG", 1, 25));
    assert_eq!((phases[1].label.as_str(), phases[1].start, phases[1].end), ("VERI", 26, 43));
    assert_eq!(phases[0].bits + phases[1].bits, replayed.total_bits());
}

/// The golden schedule is implementation-independent: the test reference
/// reproduces the engine's full traced execution of the golden instance
/// (trace bytes, ledgers, telemetry), so the pinned send rounds hold on
/// both.
#[test]
fn golden_schedule_is_pinned_on_both_engines() {
    let (eng, trace) = run_traced();
    let mut reference = Reference::new(topology::path(4), FailureSchedule::none(), |v| {
        PairNode::new(golden(), Sum, v, u64::from(v.0) + 1)
    });
    reference.run(golden().total_rounds());
    let t = trace.borrow();
    assert_eq!(t.send_rounds(NodeId(1)), vec![2, 3, 10, 16, 22, 27, 35], "node 1 schedule");
    assert_eq!(t.send_rounds(NodeId(2)), vec![4, 5, 9, 17, 23, 28, 34], "node 2 schedule");
    assert_eq!(t.send_rounds(NodeId(3)), vec![6, 7, 8, 18, 24, 29, 33], "node 3 schedule");
    assert_equivalent(&capture(&eng, &t), &reference.artifacts(), "golden instance");
}

#[test]
fn failure_free_traffic_is_quiet() {
    // The paper's first design feature: no failures ⟹ no speculative
    // floods, no critical-failure floods, no failed-parent claims. Message
    // counts are therefore minimal: every node sends exactly 7 broadcasts
    // (the schedule above), except the root's 6… let's pin totals.
    let (eng, _) = run_traced();
    let m = eng.metrics();
    for v in eng.graph().nodes() {
        let sends = m.sends_of(v);
        assert!(
            (6..=8).contains(&sends),
            "node {v} sent {sends} logical messages; expected a quiet run"
        );
    }
    // The root's flooded psum is the only psum flood.
    let root = eng.node(NodeId(0));
    assert_eq!(root.flooded_psums_seen().len(), 1);
    assert_eq!(root.compulsory_seen().len(), 1);
    assert!(root.failed_parents_seen().is_empty());
}

#[test]
fn non_zero_root_works_identically() {
    // The root id is a parameter, not an assumption: run rooted at 3.
    let g = topology::path(4);
    let inst = Instance::new(g, NodeId(3), vec![1, 2, 3, 4], FailureSchedule::none(), 4).unwrap();
    let params = PairParams {
        model: Model { n: 4, root: NodeId(3), d: 3, c: 1, max_input: 4 },
        t: 1,
        run_veri: true,
        tweaks: Tweaks::default(),
    };
    let inputs = inst.inputs.clone();
    let mut eng = Engine::new(inst.graph.clone(), FailureSchedule::none(), |v| {
        PairNode::new(params, Sum, v, inputs[v.index()])
    });
    eng.run(params.total_rounds());
    let root = eng.node(NodeId(3));
    assert_eq!(root.agg_outcome(), ftagg::AggOutcome::Result(10));
    assert!(root.veri_verdict());
    // Levels mirror: node 0 is now the deepest.
    assert_eq!(eng.node(NodeId(0)).snapshot().level, Some(3));
    assert_eq!(eng.node(NodeId(0)).snapshot().parent, Some(NodeId(1)));
}
