//! E15 — **scaling to a million nodes**: the struct-of-arrays engine at
//! N = 2²⁰, plus a Figure-1-style CC-vs-b sweep executed at that scale.
//!
//! ```text
//! fig1_e6 [--quick] [--force-violation] [--flight-out PATH]
//! ```
//!
//! Part 1 is the engine-scaling table: a single-origin flood (node 0's
//! token reaches all N nodes; deliveries = Σ live degrees) on hypercubes
//! of growing dimension, reporting deliveries, plus wall-clock,
//! deliveries/s and resident-memory growth — the "memory /
//! deliveries-per-second table" of EXPERIMENTS.md.
//!
//! Standard output is deterministic; every wall-clock, speed and memory
//! number goes to standard error.
//!
//! Part 2 is the Figure 1 shape at N = 2²⁰: for each TC budget `b`,
//! Algorithm 1's dominant CC term is ⌈f/b⌉ concurrent group floods of
//! Θ(log²N)-bit summaries (Theorem 3's header arithmetic). We execute
//! exactly those floods on the engine — under a crash schedule, with
//! lean streaming metrics — and compare the measured bottleneck CC with
//! the paper's Theorem 1 / Theorem 2 curves. The measured point must sit
//! at or below the upper curve at every `b`; the bin exits nonzero if not.
//!
//! Every Part 2 run is *recorded* with the production rig: a
//! `RoundStats` sink meters each round, and a
//! deterministic 1-in-16 sampler feeds a flight recorder keeping the
//! last rounds of sampled send events. `--force-violation` arms a
//! watchdog (on the full stream) with an absurd 1-bit budget so the
//! first send trips it; with `--flight-out PATH` the violating run's
//! black box is dumped as replayable v2 JSONL
//! (`ftagg-cli explain --input PATH`) and the bin exits 1.
//!
//! `--quick` shrinks both parts (dim 12, f = 64) for CI smoke; the full
//! run completes at N = 1,048,576 on one box.

use ftagg::bounds;
use ftagg_bench::{f, rss_mb, Table};
use netsim::{
    topology, Engine, FailureSchedule, FlightRecorder, Graph, Message, MonitorConfig, NodeId,
    NodeLogic, Round, RoundCtx, RoundStats, SamplingSink, Watchdog,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// A group-summary token: `idx` names the flooding group (< 64), metered
/// at `bits` wire bits — Θ(log²N) for the Theorem 3 summary headers.
#[derive(Clone, Debug)]
struct Tok {
    idx: u8,
    bits: u64,
}

impl Message for Tok {
    #[inline]
    fn bit_len(&self) -> u64 {
        self.bits
    }
}

/// Floods every group token on first sighting; a 64-bit seen-mask is the
/// whole node state, so a million nodes cost 24 MB of logic.
struct GroupFlood {
    token: Option<u8>,
    seen: u64,
    bits: u64,
}

impl NodeLogic<Tok> for GroupFlood {
    #[inline]
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Tok>) {
        let mut new = 0u64;
        if ctx.round() == 1 {
            if let Some(t) = self.token {
                new |= 1u64 << t;
            }
        }
        for m in ctx.inbox().iter() {
            new |= 1u64 << m.msg.idx;
        }
        new &= !self.seen;
        self.seen |= new;
        let mut idx = 0u8;
        let mut rest = new;
        while rest != 0 {
            if rest & 1 == 1 {
                ctx.send(Tok { idx, bits: self.bits });
            }
            rest >>= 1;
            idx += 1;
        }
    }
}

/// One single-origin flood on `graph` (known diameter `d`) with lean
/// metrics; returns (wall seconds, deliveries, RSS-MB growth while the
/// engine was alive).
fn flood_once(graph: Graph, d: u32) -> (f64, u64, f64) {
    let before = rss_mb().unwrap_or(0.0);
    let t0 = Instant::now();
    let mut eng = Engine::new(graph, FailureSchedule::none(), |v| GroupFlood {
        token: (v == NodeId(0)).then_some(0),
        seen: 0,
        bits: 32,
    });
    eng.use_lean_metrics();
    eng.run(Round::from(d) + 2);
    let wall = t0.elapsed().as_secs_f64();
    let deliveries = eng.telemetry().deliveries;
    let grew = (rss_mb().unwrap_or(0.0) - before).max(0.0);
    (wall, deliveries, grew)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut force_violation = false;
    let mut flight_out: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => quick = true,
            "--force-violation" => force_violation = true,
            "--flight-out" => {
                i += 1;
                let Some(p) = argv.get(i) else {
                    eprintln!("--flight-out needs a path");
                    std::process::exit(2);
                };
                flight_out = Some(p.clone());
            }
            _ => {
                eprintln!("usage: fig1_e6 [--quick] [--force-violation] [--flight-out PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // ── Part 1: engine scaling on hypercubes ──────────────────────────
    let dims: &[u32] = if quick { &[10, 12] } else { &[14, 16, 18, 20] };
    println!(
        "Scaling to a million nodes — single-origin flood on hypercube(dim), one box{}\n",
        if quick { " (--quick)" } else { "" }
    );
    let mut t1 = Table::new(vec!["N", "dim", "deliveries"]);
    let mut speed = Table::new(vec!["N", "wall s", "Mdel/s", "+RSS MB"]);
    let mut e6_mdps = 0.0f64;
    for &dim in dims {
        let (wall, deliveries, grew) = flood_once(topology::hypercube(dim), dim);
        e6_mdps = deliveries as f64 / wall / 1e6;
        let n = (1usize << dim).to_string();
        t1.row(vec![n.clone(), dim.to_string(), deliveries.to_string()]);
        speed.row(vec![n, f(wall, 2), f(e6_mdps, 1), f(grew, 0)]);
    }
    t1.print();
    eprint!("{}", speed.render());

    // ── Part 2: Figure-1-style CC sweep at N = 2^20 ───────────────────
    let dim: u32 = if quick { 12 } else { 20 };
    let n = 1usize << dim;
    let f_bound: usize = if quick { 64 } else { 256 };
    let bs: &[u64] = if quick { &[42, 84, 252] } else { &[42, 63, 84, 126, 252] };
    let log2n = bounds::log2c(n as f64);
    let summary_bits = (log2n * log2n).round() as u64;
    println!(
        "\nFigure 1 shape at N = {n} (hypercube({dim}), d = {dim}, f = {f_bound}): \
         per budget b, the \u{2308}f/b\u{2309} group floods of log\u{b2}N = {summary_bits}-bit \
         summaries that dominate Algorithm 1's CC\n"
    );
    let mut t2 = Table::new(vec![
        "b",
        "groups",
        "measured CC",
        "upper f/b·log²N",
        "lower new",
        "lower old",
        "rounds",
    ]);
    let mut walls = Table::new(vec!["b", "wall s"]);
    let mut violations = 0usize;
    let mut forced_violations = 0u64;
    let mut flight_dumped = false;
    let mut tele_lines: Vec<String> = Vec::new();
    for &b in bs {
        let groups = (f_bound as u64).div_ceil(b) as usize;
        assert!(groups <= 64, "group mask is a u64");
        // Origins spread evenly over the id space; a deterministic crash
        // set (every 2^dim/64-th node, offset to avoid the origins)
        // exercises the engine's crash paths at full scale.
        let origin_ids: Vec<NodeId> =
            (0..groups).map(|i| NodeId((i * (n / groups)) as u32)).collect();
        let mut schedule = FailureSchedule::none();
        let crashes = if quick { 8 } else { 32 };
        for j in 0..crashes {
            let v = NodeId((j * (n / crashes) + n / (2 * crashes) + 1) as u32);
            if !origin_ids.contains(&v) {
                schedule.crash(v, 3 + (j % 5) as Round);
            }
        }
        let origins = Arc::new(origin_ids);
        let factory = {
            let origins = Arc::clone(&origins);
            move |v: NodeId| GroupFlood {
                token: origins.iter().position(|&o| o == v).map(|i| i as u8),
                seen: 0,
                bits: summary_bits,
            }
        };
        let t0 = Instant::now();
        let mut eng = Engine::new(topology::hypercube(dim), schedule, factory);
        eng.use_lean_metrics();
        // Every Part-2 run is recorded with the production rig: the
        // round stats meter each round (O(1) per round), and a
        // deterministic 1-in-16 sampler feeds a flight recorder keeping
        // the last 8 rounds of sampled send events (the recorder takes
        // no deliveries, so the hot delivery loop stays untouched) — the
        // configuration whose overhead the snapshot's
        // `perf.telemetry.recorded_ratio` lane measures.
        let stats = Rc::new(RefCell::new(RoundStats::new()));
        eng.add_sink(Box::new(Rc::clone(&stats)));
        let recorder = FlightRecorder::new(8);
        let flight = recorder.handle();
        // An absurd 1-bit per-node ceiling over the whole window: the
        // very first summary send trips it, exercising the
        // dump-on-violation path at scale. The watchdog taps the full
        // stream (budgets must see real counts); only the black box sits
        // behind the sampler.
        let watchdog = force_violation.then(|| {
            let cfg = MonitorConfig::new(n).budget(
                "forced (absurd 1-bit ceiling)",
                1..=Round::from(dim) + 2,
                1,
            );
            Rc::new(RefCell::new(Watchdog::new(cfg)))
        });
        if let Some(w) = &watchdog {
            eng.add_sink(Box::new(Rc::clone(w)));
        }
        eng.add_sink(Box::new(SamplingSink::new(Box::new(recorder), 16, 7)));
        let report = eng.run(Round::from(dim) + 2);
        let wall = t0.elapsed().as_secs_f64();
        let cc = eng.metrics().max_bits();
        if let Some(w) = watchdog {
            let verdict = w.borrow_mut().finish();
            forced_violations += verdict.total;
            if !verdict.is_clean() && !flight_dumped {
                if let Some(path) = &flight_out {
                    match flight.dump_once(std::path::Path::new(path)) {
                        Ok(Some(stats)) => {
                            flight_dumped = true;
                            eprintln!(
                                "flight recorder: dumped {} events over rounds {}..={} to {path}",
                                stats.events_buffered, stats.oldest_round, stats.newest_round
                            );
                        }
                        Ok(None) => {}
                        Err(e) => {
                            eprintln!("flight recorder: dump to {path} failed: {e}");
                            std::process::exit(2);
                        }
                    }
                }
            }
        }
        let (fs, stats) = (flight.stats(), stats.borrow());
        tele_lines.push(format!(
            "b = {b:>4}: rounds = {}, deliveries = {}, bits = {}, in-flight peak = {}; \
             flight ring rounds {}..={} ({} events, {} bytes, {} evicted)",
            stats.rounds,
            stats.deliveries,
            stats.bits,
            stats.inflight_peak,
            fs.oldest_round,
            fs.newest_round,
            fs.events_buffered,
            fs.bytes_buffered,
            fs.evicted_rounds,
        ));
        let upper = bounds::upper_bound_simple(n, f_bound, b);
        if cc as f64 > upper {
            violations += 1;
        }
        t2.row(vec![
            b.to_string(),
            groups.to_string(),
            cc.to_string(),
            f(upper, 0),
            f(bounds::lower_bound_new(n, f_bound, b), 1),
            f(bounds::lower_bound_old(f_bound, b), 2),
            report.rounds.to_string(),
        ]);
        walls.row(vec![b.to_string(), f(wall, 2)]);
    }
    t2.print();
    eprint!("{}", walls.render());

    println!("\nrecorded telemetry (round stats + flight-recorder ring, per budget):");
    for line in &tele_lines {
        println!("  {line}");
    }

    if force_violation {
        if forced_violations == 0 {
            eprintln!("\nERROR: --force-violation tripped nothing (the absurd budget must fire)");
            std::process::exit(2);
        }
        eprintln!(
            "\nforced violation: watchdog collected {forced_violations} violation(s){}",
            match &flight_out {
                Some(p) if flight_dumped => format!("; black box at {p}"),
                _ => String::new(),
            }
        );
        std::process::exit(1);
    }

    if violations > 0 {
        eprintln!("\nVIOLATION: measured CC above the Theorem 1 curve at {violations} point(s)");
        std::process::exit(1);
    }
    eprintln!("single-origin flood: {} Mdel/s", f(e6_mdps, 1));
    println!(
        "\nok — the sweep completed at N = {n} on one box; \
         measured CC sits below the Theorem 1 curve at every b."
    );
}
