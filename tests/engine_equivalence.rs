//! The differential equivalence harness — the contract behind
//! `--engine soa|classic`.
//!
//! The struct-of-arrays engine is a hot-path rebuild (arena payloads,
//! CSR inbox scatter, bit-packed flood lane, lean streaming metrics);
//! nothing about the *semantics* may move. This harness runs the real
//! protocol drivers — one AGG+VERI pair, Algorithm 1's tradeoff, the
//! unknown-`f` doubling wrapper — on both engines across topology ×
//! crash-schedule matrices plus the mined adversary corpus, and asserts
//! byte-identical observables at small N via [`netsim::testkit`]:
//! v2 JSONL trace bytes, per-node/per-round bit ledgers, phase spans,
//! and the protocol decisions themselves. Any divergence names the first
//! differing trace line or meter, so a broken SoA invariant points at
//! the guilty round and node directly.

use caaf::{Caaf, Max, Sum};
use ftagg::doubling::{run_doubling_observed, DoublingConfig, DoublingReport};
use ftagg::pair::Tweaks;
use ftagg::tradeoff::{run_tradeoff_observed, TradeoffConfig, TradeoffReport};
use ftagg::{run_pair_observed, Instance, Observe, PairReport};
use netsim::testkit::{assert_equivalent, capture_parts, RunArtifacts};
use netsim::{
    adversary::schedules, topology, CorpusEntry, EngineKind, FailureSchedule, Metrics, NodeId,
    Round, Telemetry, Trace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

const C: u32 = 2;

/// Driver-level artifacts: the drivers expose their merged [`Trace`] and
/// [`Metrics`] but keep engine telemetry internal, so the wall-clock-free
/// subset is compared (trace bytes already pin every send and delivery).
fn artifacts(engine: EngineKind, trace: &Trace, metrics: &Metrics, rounds: Round) -> RunArtifacts {
    capture_parts(engine.name(), Some(trace), metrics, &Telemetry::default(), rounds)
}

fn traced_pair<C2: Caaf>(op: &C2, inst: &Instance, t: u32) -> (PairReport, Trace) {
    let s = inst.schedule.clone();
    let (r, seen, _) =
        run_pair_observed(op, inst, s, C, t, true, 0, Tweaks::default(), Observe::trace());
    (r, seen.trace.expect("trace requested"))
}

fn traced_tradeoff(inst: &Instance, cfg: &TradeoffConfig) -> (TradeoffReport, Trace) {
    let (r, seen) = run_tradeoff_observed(&Sum, inst, cfg, Observe::trace());
    (r, seen.trace.expect("trace requested"))
}

fn traced_doubling(inst: &Instance, cfg: &DoublingConfig) -> (DoublingReport, Trace) {
    let (r, seen) = run_doubling_observed(&Sum, inst, cfg, Observe::trace());
    (r, seen.trace.expect("trace requested"))
}

/// The schedule matrix every topology runs under: clean, one clean crash,
/// one partial-broadcast crash (delivered to an id-alternating subset of
/// the victim's neighbors), and two random multi-crash schedules.
fn schedule_matrix(g: &netsim::Graph, seed: u64, horizon: Round) -> Vec<(String, FailureSchedule)> {
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

fn both_engines(inst: &Instance) -> [Instance; 2] {
    [inst.clone().with_engine(EngineKind::Classic), inst.clone().with_engine(EngineKind::Soa)]
}

// ---------------------------------------------------------------------
// One AGG+VERI pair
// ---------------------------------------------------------------------

fn assert_pair_equivalent<C2: Caaf>(op: &C2, inst: &Instance, t: u32, context: &str) {
    let [classic, soa] = both_engines(inst);
    let (rc, tc) = traced_pair(op, &classic, t);
    let (rs, ts) = traced_pair(op, &soa, t);
    assert_eq!(rc.outcome, rs.outcome, "{context}: AGG outcome");
    assert_eq!(rc.verdict, rs.verdict, "{context}: VERI verdict");
    assert_eq!(rc.rounds, rs.rounds, "{context}: rounds");
    assert_eq!(rc.correct, rs.correct, "{context}: oracle");
    assert_equivalent(
        &artifacts(EngineKind::Classic, &tc, &rc.metrics, rc.rounds),
        &artifacts(EngineKind::Soa, &ts, &rs.metrics, rs.rounds),
        context,
    );
}

#[test]
fn pair_runs_are_byte_identical_across_engines() {
    let topos: Vec<(&str, netsim::Graph)> = vec![
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
            let t = (inst.edge_failures() as u32).max(1);
            assert_pair_equivalent(&Sum, &inst, t, &format!("pair sum {tname}/{sname}"));
        }
    }
    // And a different (idempotent) aggregate on one of the matrices.
    let g = topology::grid(3, 3);
    let inputs: Vec<u64> = (0..9u64).map(|i| (i * 13) % 40).collect();
    let mut s = FailureSchedule::none();
    s.crash(NodeId(4), 2);
    let inst = Instance::new(g, NodeId(0), inputs, s, 40).unwrap();
    assert_pair_equivalent(&Max, &inst, 4, "pair max grid-3x3/one-crash");
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
        let t = (inst.edge_failures() as u32).max(1);
        assert_pair_equivalent(&Sum, &inst, t, &format!("pair random seed {seed}"));
    }
}

// ---------------------------------------------------------------------
// Algorithm 1 (tradeoff driver)
// ---------------------------------------------------------------------

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
        let cfg = TradeoffConfig { b, c: C, f: inst.edge_failures().max(1), seed };
        let [classic, soa] = both_engines(&inst);
        let (rc, tc) = traced_tradeoff(&classic, &cfg);
        let (rs, ts) = traced_tradeoff(&soa, &cfg);
        let context = format!("tradeoff seed {seed}");
        assert_eq!(rc.result, rs.result, "{context}: result");
        assert_eq!(rc.correct, rs.correct, "{context}: oracle");
        assert_eq!(rc.rounds, rs.rounds, "{context}: rounds");
        assert_eq!(rc.flooding_rounds, rs.flooding_rounds, "{context}: TC");
        assert_eq!(rc.pairs_run, rs.pairs_run, "{context}: pairs run");
        assert_eq!(rc.used_fallback, rs.used_fallback, "{context}: fallback");
        assert_eq!((rc.x, rc.t), (rs.x, rs.t), "{context}: layout");
        assert_equivalent(
            &artifacts(EngineKind::Classic, &tc, &rc.metrics, rc.rounds),
            &artifacts(EngineKind::Soa, &ts, &rs.metrics, rs.rounds),
            &context,
        );
    }
}

// ---------------------------------------------------------------------
// Doubling wrapper (unknown f)
// ---------------------------------------------------------------------

#[test]
fn doubling_runs_are_byte_identical_across_engines() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xD0_0B ^ seed);
        let n = 6 + (seed % 6) as usize;
        let g = topology::connected_gnp(n, 0.4, &mut rng);
        let s = schedules::random(&g, NodeId(0), 1 + (seed % 3) as usize, 60, &mut rng);
        let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..32)).collect();
        let inst = Instance::new(g, NodeId(0), inputs, s, 31).unwrap();
        let [classic, soa] = both_engines(&inst);
        // No stages at all forces the brute-force fallback, which must
        // run on the instance's engine too.
        for max_stages in [4, 0] {
            let cfg = DoublingConfig { c: C, max_stages };
            let (rc, tc) = traced_doubling(&classic, &cfg);
            let (rs, ts) = traced_doubling(&soa, &cfg);
            let context = format!("doubling seed {seed}, {max_stages} stages");
            assert_eq!(rc.result, rs.result, "{context}: result");
            assert_eq!(rc.correct, rs.correct, "{context}: oracle");
            assert_eq!(rc.stages, rs.stages, "{context}: stages");
            assert_eq!(rc.final_guess, rs.final_guess, "{context}: final guess");
            assert_eq!(rc.rounds, rs.rounds, "{context}: rounds");
            assert_eq!(rc.used_fallback, rs.used_fallback, "{context}: fallback");
            assert!(rc.used_fallback || max_stages > 0, "{context}: no stage, no fallback");
            assert_equivalent(
                &artifacts(EngineKind::Classic, &tc, &rc.metrics, rc.rounds),
                &artifacts(EngineKind::Soa, &ts, &rs.metrics, rs.rounds),
                &context,
            );
        }
    }
}

// ---------------------------------------------------------------------
// The mined adversary corpus
// ---------------------------------------------------------------------

/// Every committed mined schedule — hill-climbed to maximize protocol
/// cost, so disproportionately likely to hit engine corner cases — must
/// produce byte-identical traced executions on both engines.
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
        let f = entry
            .meta_str("protocol")
            .and_then(|t| t.strip_prefix("tradeoff:"))
            .and_then(|f| f.parse::<usize>().ok())
            .unwrap_or_else(|| panic!("{}: harness covers tradeoff entries", p.display()));
        let cfg = TradeoffConfig {
            b: entry.meta_u64("b").expect("corpus records b"),
            c: entry.meta_u64("c").expect("corpus records c") as u32,
            f,
            seed: 0,
        };
        let inst = Instance::new(
            entry.graph.clone(),
            entry.root,
            entry.inputs.clone(),
            entry.schedule.clone(),
            entry.max_input,
        )
        .unwrap();
        let [classic, soa] = both_engines(&inst);
        let (rc, tc) = traced_tradeoff(&classic, &cfg);
        let (rs, ts) = traced_tradeoff(&soa, &cfg);
        let context = format!("corpus {}", p.display());
        assert_eq!(rc.result, rs.result, "{context}: result");
        assert_eq!(rc.rounds, rs.rounds, "{context}: rounds");
        assert!(rc.correct && rs.correct, "{context}: both engines correct");
        assert_equivalent(
            &artifacts(EngineKind::Classic, &tc, &rc.metrics, rc.rounds),
            &artifacts(EngineKind::Soa, &ts, &rs.metrics, rs.rounds),
            &context,
        );
    }
}
