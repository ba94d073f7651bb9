//! The PR's pinned contract: the parallel trial runner is a drop-in
//! replacement for the serial `for seed in seeds` loop — byte-identical
//! results at every thread count — and the engine's hot-path machinery
//! (reused inboxes, shared delivery, compiled crash schedule) reproduces
//! the exact message schedule and bit accounting of the reference
//! execution pinned in `golden_trace.rs`.

use caaf::Sum;
use ftagg::msg::Envelope;
use ftagg::pair::{PairNode, PairParams, Tweaks};
use ftagg::tradeoff::{run_tradeoff, TradeoffConfig};
use ftagg::{Instance, Model};
use netsim::{
    adversary::schedules, topology, Engine, FailureSchedule, NodeId, Round, Runner, Trace,
    TrialStats, TrialSummary,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

const C: u32 = 2;

/// Everything observable from one tradeoff trial, compared bit for bit.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Record {
    seed: u64,
    result: u64,
    correct: bool,
    rounds: u64,
    pairs_run: usize,
    max_bits: u64,
    total_bits: u64,
    bits_per_node: Vec<u64>,
    per_round: Vec<(Round, u64)>,
}

fn tradeoff_trial(seed: u64) -> Record {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 10 + (seed % 12) as usize;
    let g = topology::connected_gnp(n, 0.25, &mut rng);
    let b = 21 * u64::from(C) * (1 + seed % 3);
    let horizon = b * u64::from(g.diameter().max(1));
    let s = {
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
    let r = run_tradeoff(&Sum, &inst, &cfg);
    Record {
        seed,
        result: r.result,
        correct: r.correct,
        rounds: r.rounds,
        pairs_run: r.pairs_run,
        max_bits: r.metrics.max_bits(),
        total_bits: r.metrics.total_bits(),
        bits_per_node: r.metrics.bits_per_node().to_vec(),
        per_round: r.metrics.per_round_bits().collect(),
    }
}

/// The headline guarantee: `Runner::run` at 1, 2, and 8 threads returns
/// exactly what the plain serial loop produces — including full per-node
/// and per-round bit ledgers — in the same order.
#[test]
fn parallel_runner_matches_serial_loop_at_1_2_8_threads() {
    let seeds: Vec<u64> = (0..24).collect();
    let serial: Vec<Record> = seeds.iter().map(|&s| tradeoff_trial(s)).collect();
    assert!(serial.iter().all(|r| r.correct), "reference trials must be correct");
    for threads in [1usize, 2, 8] {
        let parallel = Runner::exact(threads).run(&seeds, tradeoff_trial);
        assert_eq!(parallel, serial, "threads = {threads}");
    }
}

/// Aggregation through `TrialStats`/`TrialSummary` is likewise
/// thread-count-invariant (the reduction happens in seed order).
#[test]
fn trial_summaries_are_identical_across_thread_counts() {
    let seeds: Vec<u64> = (0..16).collect();
    let summarize = |threads: usize| -> TrialSummary {
        let stats = Runner::exact(threads).run(&seeds, |seed| {
            let r = tradeoff_trial(seed);
            TrialStats {
                seed,
                rounds: r.rounds,
                max_bits: r.max_bits,
                total_bits: r.total_bits,
                bottleneck: None,
                phases: vec![],
                violations: 0,
            }
        });
        stats.iter().collect()
    };
    let serial = summarize(1);
    assert!(serial.worst_max_bits > 0);
    assert_eq!(summarize(2), serial);
    assert_eq!(summarize(8), serial);
}

/// The golden-trace instance of `golden_trace.rs`: failure-free path
/// `0-1-2-3`, c = 1, t = 1.
fn golden_engine() -> (Engine<Envelope, PairNode<Sum>>, Rc<RefCell<Trace>>) {
    let g = topology::path(4);
    let inst = Instance::new(g, NodeId(0), vec![1, 2, 3, 4], FailureSchedule::none(), 4).unwrap();
    let params = PairParams {
        model: Model { n: 4, root: NodeId(0), d: 3, c: 1, max_input: 4 },
        t: 1,
        run_veri: true,
        tweaks: Tweaks::default(),
    };
    let inputs = inst.inputs.clone();
    let mut eng = Engine::new(inst.graph.clone(), FailureSchedule::none(), |v| {
        PairNode::new(params, Sum, v, inputs[v.index()])
    });
    let trace = Rc::new(RefCell::new(Trace::new()));
    eng.add_sink(Box::new(Rc::clone(&trace)));
    eng.run(params.total_rounds());
    (eng, trace)
}

/// The refactored engine reproduces the reference execution exactly: the
/// pinned per-node send schedule of `golden_trace.rs` and, stronger, a
/// bit ledger that is identical across repeated runs — also when the
/// replicas execute concurrently inside the runner.
#[test]
fn engine_reproduces_golden_trace_schedule_and_bit_counts() {
    let reference = {
        let (eng, trace) = golden_engine();
        let t = trace.borrow();
        let sends: Vec<Vec<Round>> = eng.graph().nodes().map(|v| t.send_rounds(v)).collect();
        let m = eng.metrics();
        (sends, m.bits_per_node().to_vec(), m.per_round_bits().collect::<Vec<_>>())
    };
    // The schedule pinned against Algorithms 2/3 in golden_trace.rs.
    assert_eq!(reference.0[1], vec![2, 3, 10, 16, 22, 27, 35], "node 1 schedule");
    assert_eq!(reference.0[2], vec![4, 5, 9, 17, 23, 28, 34], "node 2 schedule");
    assert_eq!(reference.0[3], vec![6, 7, 8, 18, 24, 29, 33], "node 3 schedule");
    assert!(reference.1.iter().all(|&b| b > 0), "every node broadcasts");
    assert_eq!(
        reference.1.iter().sum::<u64>(),
        reference.2.iter().map(|&(_, b)| b).sum::<u64>(),
        "per-node and per-round ledgers agree"
    );

    // Eight concurrent replicas, all byte-identical to the reference.
    let seeds: Vec<u64> = (0..8).collect();
    let replicas = Runner::exact(8).run(&seeds, |_| {
        let (eng, trace) = golden_engine();
        let t = trace.borrow();
        let sends: Vec<Vec<Round>> = eng.graph().nodes().map(|v| t.send_rounds(v)).collect();
        let m = eng.metrics();
        (sends, m.bits_per_node().to_vec(), m.per_round_bits().collect::<Vec<_>>())
    });
    for replica in replicas {
        assert_eq!(replica, reference);
    }
}

/// Per-worker instrumentation is observation only: `run_observed`
/// returns the same seed-ordered records as the plain runner at every
/// thread count, and the merged per-worker hubs land on exact totals —
/// the trial counter and the latency histogram population both equal the
/// seed count at 1, 2, and 4 workers, and the per-worker breakdown
/// partitions the trials without gaps or double counting.
#[test]
fn instrumented_runner_observes_without_perturbing_at_1_2_4_threads() {
    let seeds: Vec<u64> = (0..12).collect();
    let reference: Vec<Record> = seeds.iter().map(|&s| tradeoff_trial(s)).collect();
    for threads in [1usize, 2, 4] {
        let (records, tele) =
            Runner::exact(threads).run_observed(&seeds, |s, _| tradeoff_trial(s), None, None);
        assert_eq!(records, reference, "instrumented threads = {threads}");
        assert_eq!(
            tele.hub.counter("runner_trials_total").get(),
            seeds.len() as u64,
            "merged trial counter, threads = {threads}"
        );
        assert_eq!(
            tele.hub.histogram("runner_trial_micros").snapshot().count(),
            seeds.len() as u64,
            "merged latency histogram population, threads = {threads}"
        );
        assert_eq!(tele.workers.len(), threads, "one load row per worker");
        assert_eq!(
            tele.workers.iter().map(|w| w.trials).sum::<u64>(),
            seeds.len() as u64,
            "worker breakdown partitions the trials, threads = {threads}"
        );
    }
}
