//! Randomized stress over the zero-error guarantee and budget invariants,
//! with every pair execution running under the strict invariant watchdog
//! ([`ftagg::monitored`]).
//!
//! The fast slice (~50 trials on small instances) runs in the default
//! suite; the heavy sweeps (thousands of trials, larger N) stay behind
//! `cargo test --test stress -- --ignored`. All of them fan trials out
//! through [`netsim::Runner`]: each trial is a pure function of its seed
//! and returns only `Send` summaries (the engine itself is not `Send`),
//! so the counts are identical at any thread count.

use caaf::Sum;
use ftagg::analysis::{classify, Scenario};
use ftagg::msg::{agg_bit_budget, veri_bit_budget};
use ftagg::pair::{AggOutcome, Tweaks};
use ftagg::tradeoff::{run_tradeoff, TradeoffConfig};
use ftagg::{run_pair_observed, Instance, Observe};
use ftagg_bench::search::replay_entry;
use netsim::{adversary::schedules, topology, CorpusEntry, NodeId, Runner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const C: u32 = 2;

/// One randomized pair execution: draw a small instance from `seed`, run
/// AGG+VERI, assert this trial's Table 2 guarantee row and the per-node
/// bit budgets, and report which scenario it landed in (`None` when the
/// drawn schedule violates the `c·d` stretch assumption and is skipped).
fn pair_trial(seed: u64) -> Option<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(10usize..40);
    let g = match seed % 4 {
        0 => topology::cycle(n.max(3)),
        1 => topology::connected_gnp(n, 0.15, &mut rng),
        2 => topology::caterpillar(n / 2, 1),
        _ => topology::random_tree(n, &mut rng),
    };
    let n = g.len();
    let horizon = 26 * u64::from(g.diameter()) + 10;
    let k = rng.gen_range(0..6);
    let s = schedules::random(&g, NodeId(0), k, horizon, &mut rng);
    if s.stretch_factor(&g, NodeId(0)) > f64::from(C) {
        return None;
    }
    let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..64)).collect();
    let t = rng.gen_range(0..6);
    let inst = Instance::new(g, NodeId(0), inputs, s, 63).unwrap();
    // Strict watchdog: any budget / crash-silence / phase / envelope
    // violation panics the trial on the spot.
    let obs = Observe::watchdog(true);
    let (_, seen, eng) = run_pair_observed(
        &Sum,
        &inst,
        inst.schedule.clone(),
        C,
        t,
        true,
        0,
        Tweaks::default(),
        obs,
    );
    let monitor = seen.monitor.expect("watchdog requested");
    let params = *eng.node(inst.root).params();
    assert!(monitor.is_clean(), "seed {seed}: {}", monitor.render());
    let (scenario, _) = classify(&inst, &inst.schedule, &eng, &params);
    let root = eng.node(inst.root);
    let iv = inst.correct_interval(&Sum, params.total_rounds());
    let idx = match scenario {
        Scenario::FewFailures => {
            assert!(matches!(root.agg_outcome(), AggOutcome::Result(v) if iv.contains(v)));
            assert!(root.veri_verdict());
            0
        }
        Scenario::ManyFailuresNoLfc => {
            if let AggOutcome::Result(v) = root.agg_outcome() {
                assert!(iv.contains(v));
            }
            1
        }
        Scenario::ManyFailuresLfc => {
            assert!(!root.veri_verdict());
            2
        }
    };
    // Budgets always.
    for v in inst.graph.nodes() {
        assert!(eng.node(v).agg_bits_sent() <= agg_bit_budget(n, t));
        assert!(eng.node(v).veri_bits_sent() <= veri_bit_budget(n, t));
    }
    Some(idx)
}

/// Folds scenario indices into per-scenario counts.
fn scenario_counts(observed: Vec<Option<usize>>) -> [usize; 3] {
    let mut counts = [0usize; 3];
    for idx in observed.into_iter().flatten() {
        counts[idx] += 1;
    }
    counts
}

/// Tier-1 slice: ~50 randomized pair executions on small instances, fast
/// enough for the default suite. Same trial body as the 2000-run sweep.
#[test]
fn stress_fast_slice_fifty_runs() {
    let seeds: Vec<u64> = (0..50).map(|t| 1_000_000 + t).collect();
    let counts = scenario_counts(Runner::new(0).run(&seeds, pair_trial));
    // Coverage here is necessarily looser than the heavy sweep's: just
    // require that the slice exercised a healthy number of executions.
    assert!(counts.iter().sum::<usize>() >= 25, "too many skipped: {counts:?}");
    assert!(counts[0] > 0, "no few-failure runs: {counts:?}");
}

/// Tier-1 slice: the mined-adversary corpus replays bit for bit under the
/// strict watchdog — deliberately-searched worst cases ride along with
/// the random stress (full gate in `corpus_replay.rs`).
#[test]
fn stress_fast_slice_corpus_replay() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("corpus");
    let mut replayed = 0;
    for e in std::fs::read_dir(&dir).expect("tests/corpus exists").flatten() {
        let p = e.path();
        if p.extension().is_none_or(|x| x != "corpus") {
            continue;
        }
        let entry = CorpusEntry::from_text(&std::fs::read_to_string(&p).unwrap())
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", p.display()));
        let replay = replay_entry(&entry, true).expect("corpus entry replays");
        assert_eq!(replay.value, entry.value, "{}: mined CC drifted", p.display());
        assert!(replay.monitor.is_clean(), "{}: watchdog violations", p.display());
        replayed += 1;
    }
    assert!(replayed >= 3, "expected the promoted corpus, found {replayed} entries");
}

/// Tier-1 slice: large-N smoke for the engine hot path — a single-origin
/// flood over a hypercube with N ≈ 10⁵ nodes under a handful of crashes,
/// wall-time-bounded. On a clean run every node forwards the token once,
/// so deliveries = Σ degrees = dim·2^dim; each crashed node forfeits at
/// most its `dim` forwards and its `dim` inbound deliveries. Catches
/// accidental O(N²) scans or per-delivery allocations the small-N
/// equivalence matrix can't see.
#[test]
fn stress_fast_slice_large_n_smoke() {
    use netsim::{Engine, FailureSchedule, Message, NodeLogic, Round, RoundCtx};

    #[derive(Clone, Debug)]
    struct Tok;
    impl Message for Tok {
        fn bit_len(&self) -> u64 {
            32
        }
    }
    struct Flood {
        origin: bool,
        seen: bool,
    }
    impl NodeLogic<Tok> for Flood {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Tok>) {
            if (ctx.round() == 1 && self.origin) || (!self.seen && !ctx.inbox().is_empty()) {
                self.seen = true;
                ctx.send(Tok);
            }
        }
    }

    let dim = 17u32; // N = 131_072
    let n: u64 = 1 << dim;
    let start = std::time::Instant::now();
    let mut schedule = FailureSchedule::none();
    for j in 1..=8u64 {
        schedule.crash(NodeId((j * (n / 9)) as u32), 2 + (j % 4));
    }
    let mut eng = Engine::new(topology::hypercube(dim), schedule, |v| Flood {
        origin: v == NodeId(0),
        seen: false,
    });
    eng.use_lean_metrics();
    eng.run(Round::from(dim) + 2);
    let clean = u64::from(dim) * n;
    let deliveries = eng.telemetry().deliveries;
    assert!(
        deliveries <= clean && deliveries >= clean - 2 * 8 * u64::from(dim),
        "flood at N = {n}: {deliveries} deliveries, clean bound {clean}"
    );
    // Every live node broadcasts the 32-bit token exactly once; the 8
    // crashed nodes never get to.
    assert_eq!(eng.metrics().total_bits(), 32 * (n - 8), "bit meter tracks broadcasts");
    let wall = start.elapsed();
    // Generous even for an unoptimized debug build; an O(N²) regression
    // blows far past it.
    assert!(wall.as_secs() < 30, "large-N smoke took {wall:?}");
}

#[test]
#[ignore = "heavy: ~2000 randomized executions"]
fn stress_table2_two_thousand_runs() {
    let seeds: Vec<u64> = (0..2000).map(|t| 1_000_000 + t).collect();
    let counts = scenario_counts(Runner::new(0).run(&seeds, pair_trial));
    assert!(counts.iter().all(|&c| c > 50), "scenario coverage: {counts:?}");
}

#[test]
#[ignore = "heavy: large-N tradeoff sweep"]
fn stress_tradeoff_large_instances() {
    let seeds: Vec<u64> = (0..40).map(|t| 2_000_000 + t).collect();
    let ran = Runner::new(0).run(&seeds, |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(100..300);
        let g = topology::connected_gnp(n, (3.0 * (n as f64).ln() / n as f64).min(0.3), &mut rng);
        let b = 21 * u64::from(C) * rng.gen_range(1u64..6);
        let horizon = b * u64::from(g.diameter());
        let f = rng.gen_range(1..n / 4);
        let s = schedules::random_with_edge_budget(&g, NodeId(0), f, horizon, &mut rng);
        if s.stretch_factor(&g, NodeId(0)) > f64::from(C) {
            return false;
        }
        let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1024)).collect();
        let inst = Instance::new(g, NodeId(0), inputs, s, 1023).unwrap();
        let cfg = TradeoffConfig { b, c: C, f, seed };
        let r = run_tradeoff(&Sum, &inst, &cfg);
        assert!(r.correct, "seed {seed} (n={n}, b={b}, f={f}): wrong result");
        assert!(r.flooding_rounds <= b + 1);
        true
    });
    let executed = ran.into_iter().filter(|&x| x).count();
    assert!(executed >= 10, "too many stretch-violating schedules skipped: {executed}");
}
