//! The differential equivalence harness: the production [`Engine`]
//! against [`netsim::testkit::Reference`], a deliberately simple second
//! implementation of the synchronous model.
//!
//! The engine is a hot-path build (arena payloads, CSR inbox scatter,
//! lean streaming metrics); nothing about the *semantics* may move. Each
//! protocol node type — `PairNode` (AGG-only and AGG+VERI, at several
//! tolerances, on the unshifted schedule and on schedules shifted to
//! Algorithm 1's pair offsets), `BruteNode` and `FolkNode` — runs on both
//! implementations through the same phase script, across a
//! topology × crash-schedule matrix, random instances, the windows
//! Algorithm 1 and the doubling wrapper run, and the mined adversary
//! corpus. Every run must give byte-identical observables via
//! [`netsim::testkit`]: v2 JSONL trace bytes, per-node/per-round bit
//! ledgers, phase spans, telemetry counts and every node's final state.
//! Any divergence names the first differing trace line or meter, so a
//! broken engine invariant points at the guilty round and node directly.
//!
//! The drivers' merge logic on top (interval and stage offsets, the
//! fallback, merged traces) is pinned separately by the goldens and the
//! benchmark digests.

use caaf::{Caaf, Max, Sum};
use ftagg::baselines::brute::BruteNode;
use ftagg::baselines::folklore::FolkNode;
use ftagg::interval::IntervalLayout;
use ftagg::pair::Tweaks;
use ftagg::{Instance, PairNode, PairParams};
use netsim::testkit::{assert_equivalent, capture, Reference};
use netsim::{
    adversary::schedules, topology, CorpusEntry, Engine, FailureSchedule, Graph, Message, NodeId,
    NodeLogic, Round, Trace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;

const C: u32 = 2;
/// A TC budget giving Algorithm 1 three intervals (`x = ⌊(b − 2c)/19c⌋`).
const B3: u64 = 59 * C as u64;

/// Runs `factory`'s nodes over `graph` under `schedule` on the engine and
/// on the reference, entering phase `label` and running to round `until`
/// for each step of `script`, and asserts byte-identical artifacts and
/// equal per-node `state`.
fn assert_runs_agree<M: Message, L: NodeLogic<M>>(
    graph: &Graph,
    schedule: &FailureSchedule,
    factory: impl Fn(NodeId) -> L,
    script: &[(&str, Round)],
    state: impl Fn(&L) -> String,
    context: &str,
) {
    let mut eng = Engine::new(graph.clone(), schedule.clone(), &factory);
    let mut reference = Reference::new(graph.clone(), schedule.clone(), &factory);
    let trace = Rc::new(RefCell::new(Trace::new()));
    eng.add_sink(Box::new(Rc::clone(&trace)));
    for &(label, until) in script {
        eng.enter_phase(label);
        eng.run(until);
        eng.exit_phase();
        reference.enter_phase(label);
        reference.run(until);
        reference.exit_phase();
    }
    assert_equivalent(&capture(&eng, &trace.borrow()), &reference.artifacts(), context);
    for v in graph.nodes() {
        assert_eq!(state(eng.node(v)), state(reference.node(v)), "{context}: node {v} state");
    }
}

/// One AGG (+ VERI) pair over `inst` under `schedule`, with the driver's
/// phase script: `AGG` to its last round, then `VERI` to the pair's end.
fn assert_pair_agrees<C2: Caaf>(
    op: &C2,
    inst: &Instance,
    schedule: &FailureSchedule,
    params: PairParams,
    context: &str,
) {
    let mut script = vec![("AGG", params.agg_rounds())];
    if params.run_veri {
        script.push(("VERI", params.total_rounds()));
    }
    let factory = |v: NodeId| PairNode::new(params, op.clone(), v, inst.inputs[v.index()]);
    let state = |node: &PairNode<C2>| {
        let (snap, agg, veri) = (node.snapshot(), node.agg_outcome(), node.veri_verdict());
        let (crit, psums) = (node.critical_failures_seen(), node.flooded_psums_seen());
        format!("{snap:?} {agg:?} {veri} {crit:?} {psums:?}")
    };
    assert_runs_agree(&inst.graph, schedule, factory, &script, state, context);
}

/// The brute-force protocol over `inst` under `schedule`, run to the
/// driver's horizon `2cd + 2`.
fn assert_brute_agrees<C2: Caaf>(
    op: &C2,
    inst: &Instance,
    schedule: &FailureSchedule,
    context: &str,
) {
    let model = inst.model(C);
    let (id_bits, value_bits) = (model.id_bits(), op.value_bits(model.n, model.max_input));
    let factory =
        |v: NodeId| BruteNode::new(v, inst.root, inst.inputs[v.index()], id_bits, value_bits);
    let script = [("fallback", 2 * model.cd() + 2)];
    let state = |node: &BruteNode| node.result(op).to_string();
    assert_runs_agree(&inst.graph, schedule, factory, &script, state, context);
}

/// One tree-aggregation attempt (TAG and each folklore retry) over
/// `inst` under `schedule`.
fn assert_folk_agrees<C2: Caaf>(
    op: &C2,
    inst: &Instance,
    schedule: &FailureSchedule,
    context: &str,
) {
    let model = inst.model(C);
    let (cd, value_bits) = (model.cd(), op.value_bits(model.n, model.max_input));
    let factory = |v: NodeId| {
        FolkNode::new(op.clone(), v, inst.root, model.n, cd, value_bits, inst.inputs[v.index()])
    };
    let script = [("attempt", FolkNode::<C2>::attempt_rounds(cd))];
    let state = |node: &FolkNode<C2>| format!("{} {}", node.result(), node.clean());
    assert_runs_agree(&inst.graph, schedule, factory, &script, state, context);
}

/// Every node type over one instance. `PairNode` runs AGG-only and
/// AGG+VERI at t ∈ {0, 1, 2}, each on the instance's schedule shifted to
/// every pair offset of Algorithm 1 at budget `b` (offset 0 is the
/// unshifted schedule); `BruteNode` runs unshifted and at the fallback
/// window; `FolkNode` runs the first three folklore attempts.
fn assert_every_node_type_agrees<C2: Caaf>(op: &C2, inst: &Instance, b: u64, context: &str) {
    let model = inst.model(C);
    let layout = IntervalLayout::new(b, C, model.d).expect("b >= 21c");
    for y in 1..=layout.x() {
        let offset = layout.pair_offset(y);
        let schedule = inst.schedule.shifted(offset);
        for run_veri in [false, true] {
            for t in 0..=2 {
                let params = PairParams { model, t, run_veri, tweaks: Tweaks::default() };
                let ctx = format!("{context}: pair t={t} veri={run_veri} offset={offset}");
                assert_pair_agrees(op, inst, &schedule, params, &ctx);
            }
        }
    }
    for offset in [0, layout.fallback_start() - 1] {
        let ctx = format!("{context}: brute offset={offset}");
        assert_brute_agrees(op, inst, &inst.schedule.shifted(offset), &ctx);
    }
    let attempt = FolkNode::<C2>::attempt_rounds(model.cd());
    for k in 0..3 {
        let ctx = format!("{context}: folklore attempt {k}");
        assert_folk_agrees(op, inst, &inst.schedule.shifted(k * attempt), &ctx);
    }
}

/// The schedule matrix every topology runs under: clean, one clean crash,
/// one partial-broadcast crash (delivered to an id-alternating subset of
/// the victim's neighbors), and two random multi-crash schedules.
fn schedule_matrix(g: &Graph, seed: u64, horizon: Round) -> Vec<(String, FailureSchedule)> {
    let victim = NodeId((g.len() / 2) as u32).min(NodeId(g.len() as u32 - 1));
    let mut partial = FailureSchedule::none();
    partial.crash_partial(
        victim,
        2,
        g.neighbors(victim).iter().copied().filter(|v| v.0 % 2 == 0).collect(),
    );
    let mut one = FailureSchedule::none();
    one.crash(victim, 3.min(horizon));
    let mut out = vec![
        ("clean".to_string(), FailureSchedule::none()),
        ("one-crash".to_string(), one),
        ("partial-crash".to_string(), partial),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..2u64 {
        out.push((
            format!("random-{i}"),
            schedules::random(
                g,
                NodeId(0),
                1 + (seed as usize + i as usize) % 3,
                horizon,
                &mut rng,
            ),
        ));
    }
    out
}

// ---------------------------------------------------------------------
// One AGG+VERI pair
// ---------------------------------------------------------------------

#[test]
fn pair_runs_are_byte_identical_across_engines() {
    let topos: Vec<(&str, Graph)> = vec![
        ("path-6", topology::path(6)),
        ("grid-3x3", topology::grid(3, 3)),
        ("star-7", topology::star(7)),
    ];
    for (tname, g) in topos {
        let n = g.len();
        let d = g.diameter();
        let horizon = Round::from(21 * C * d.max(1));
        for (sname, s) in schedule_matrix(&g, 0xa11ce ^ n as u64, horizon) {
            let inputs: Vec<u64> = (0..n as u64).map(|i| 1 + (i * 7) % 32).collect();
            let inst = Instance::new(g.clone(), NodeId(0), inputs, s, 32).unwrap();
            assert_every_node_type_agrees(&Sum, &inst, B3, &format!("sum {tname}/{sname}"));
        }
    }
    // And a different (idempotent) aggregate on one of the matrices.
    let g = topology::grid(3, 3);
    let inputs: Vec<u64> = (0..9u64).map(|i| (i * 13) % 40).collect();
    let mut s = FailureSchedule::none();
    s.crash(NodeId(4), 2);
    let inst = Instance::new(g, NodeId(0), inputs, s, 40).unwrap();
    assert_every_node_type_agrees(&Max, &inst, B3, "max grid-3x3/one-crash");
}

#[test]
fn randomized_pair_instances_are_byte_identical_across_engines() {
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(0xE0_0E ^ seed);
        let n = 5 + (seed % 8) as usize;
        let g = topology::connected_gnp(n, 0.35, &mut rng);
        let horizon = Round::from(21 * C * g.diameter().max(1));
        let s = schedules::random(&g, NodeId(0), (seed % 3) as usize, horizon, &mut rng);
        let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..50)).collect();
        let inst = Instance::new(g, NodeId(0), inputs, s, 49).unwrap();
        assert_every_node_type_agrees(&Sum, &inst, B3, &format!("random seed {seed}"));
    }
}

// ---------------------------------------------------------------------
// Algorithm 1's windows
// ---------------------------------------------------------------------

/// The pairs Algorithm 1 can run on `inst` — AGG+VERI at `t = ⌊2f/x⌋` in
/// every interval — and its brute-force fallback window.
fn assert_tradeoff_windows_agree(inst: &Instance, b: u64, f: usize, context: &str) {
    let model = inst.model(C);
    let layout = IntervalLayout::new(b, C, model.d).expect("b >= 21c");
    let params = PairParams { model, t: layout.t(f), run_veri: true, tweaks: Tweaks::default() };
    for y in 1..=layout.x() {
        let schedule = inst.schedule.shifted(layout.pair_offset(y));
        assert_pair_agrees(&Sum, inst, &schedule, params, &format!("{context}: interval {y}"));
    }
    let schedule = inst.schedule.shifted(layout.fallback_start() - 1);
    assert_brute_agrees(&Sum, inst, &schedule, &format!("{context}: fallback"));
}

#[test]
fn tradeoff_runs_are_byte_identical_across_engines() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0x7ade ^ seed);
        let n = 8 + (seed % 10) as usize;
        let g = topology::connected_gnp(n, 0.3, &mut rng);
        let b = 21 * u64::from(C) * (1 + seed % 3);
        let horizon = b * u64::from(g.diameter().max(1));
        let s = {
            // Keep the stretch within c so Algorithm 1's guarantees apply
            // (mirrors `runner_determinism`'s trial generator).
            let mut best = FailureSchedule::none();
            for _ in 0..50 {
                let cand = schedules::random(&g, NodeId(0), (seed % 4) as usize, horizon, &mut rng);
                if cand.stretch_factor(&g, NodeId(0)) <= f64::from(C) {
                    best = cand;
                    break;
                }
            }
            best
        };
        let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..64)).collect();
        let inst = Instance::new(g, NodeId(0), inputs, s, 63).unwrap();
        let f = inst.edge_failures().max(1);
        assert_tradeoff_windows_agree(&inst, b, f, &format!("tradeoff seed {seed}"));
    }
}

// ---------------------------------------------------------------------
// Doubling wrapper (unknown f)
// ---------------------------------------------------------------------

/// The doubling wrapper's stages — AGG+VERI at `t = 2^k` under the
/// blanket `"doubling-stage"` kind, each starting where the last ended —
/// and the brute-force fallback after the last stage.
#[test]
fn doubling_runs_are_byte_identical_across_engines() {
    let tweaks = Tweaks { kind_override: Some("doubling-stage"), ..Tweaks::default() };
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xD0_0B ^ seed);
        let n = 6 + (seed % 6) as usize;
        let g = topology::connected_gnp(n, 0.4, &mut rng);
        let s = schedules::random(&g, NodeId(0), 1 + (seed % 3) as usize, 60, &mut rng);
        let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..32)).collect();
        let inst = Instance::new(g, NodeId(0), inputs, s, 31).unwrap();
        let model = inst.model(C);
        let mut offset: Round = 0;
        for k in 0..4 {
            let params = PairParams { model, t: 1 << k, run_veri: true, tweaks };
            let schedule = inst.schedule.shifted(offset);
            let context = format!("doubling seed {seed}, stage {k}");
            assert_pair_agrees(&Sum, &inst, &schedule, params, &context);
            offset += params.total_rounds();
        }
        let context = format!("doubling seed {seed}, fallback");
        assert_brute_agrees(&Sum, &inst, &inst.schedule.shifted(offset), &context);
    }
}

// ---------------------------------------------------------------------
// The mined adversary corpus
// ---------------------------------------------------------------------

/// Every committed mined schedule — hill-climbed to maximize protocol
/// cost, so disproportionately likely to hit engine corner cases — must
/// produce byte-identical runs of every node type, and of Algorithm 1's
/// windows at the entry's own budget.
#[test]
fn mined_corpus_runs_are_byte_identical_across_engines() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "corpus"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "mined corpus is part of the equivalence matrix");
    for p in &paths {
        let entry =
            CorpusEntry::from_text(&std::fs::read_to_string(p).expect("corpus entry readable"))
                .unwrap_or_else(|e| panic!("{} does not parse: {e}", p.display()));
        assert_eq!(entry.meta_str("op"), Some("sum"), "{}: harness covers sum", p.display());
        assert_eq!(entry.meta_u64("c"), Some(u64::from(C)), "{}: harness runs c = 2", p.display());
        let f = entry
            .meta_str("protocol")
            .and_then(|t| t.strip_prefix("tradeoff:"))
            .and_then(|f| f.parse::<usize>().ok())
            .unwrap_or_else(|| panic!("{}: harness covers tradeoff entries", p.display()));
        let b = entry.meta_u64("b").expect("corpus records b");
        let inst = Instance::new(
            entry.graph.clone(),
            entry.root,
            entry.inputs.clone(),
            entry.schedule.clone(),
            entry.max_input,
        )
        .unwrap();
        let context = format!("corpus {}", p.display());
        assert_tradeoff_windows_agree(&inst, b, f, &context);
        assert_every_node_type_agrees(&Sum, &inst, b, &context);
    }
}
