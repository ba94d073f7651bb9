//! E15 — **scaling to a million nodes**: the struct-of-arrays engine and
//! the bit-packed flood lane at N = 2²⁰, plus a Figure-1-style CC-vs-b
//! sweep executed at that scale.
//!
//! ```text
//! fig1_e6 [--quick] [--force-violation] [--flight-out PATH]
//! ```
//!
//! Part 1 is the engine-scaling table: a single-origin flood (node 0's
//! token reaches all N nodes; deliveries = Σ live degrees) on hypercubes
//! of growing dimension, classic engine vs SoA, reporting wall-clock,
//! deliveries/s, and resident-memory growth — the "memory /
//! deliveries-per-second table vs. the classic engine" of EXPERIMENTS.md.
//! The bit-packed all-to-all lane is appended at the largest dimension its
//! O(N²/64) token bitsets allow, to show what word-parallelism buys on
//! flood-style kinds.
//!
//! Part 2 is the Figure 1 shape at N = 2²⁰: for each TC budget `b`,
//! Algorithm 1's dominant CC term is ⌈f/b⌉ concurrent group floods of
//! Θ(log²N)-bit summaries (Theorem 3's header arithmetic). We execute
//! exactly those floods on the SoA engine — under a crash schedule, with
//! lean streaming metrics — and compare the measured bottleneck CC with
//! the paper's Theorem 1 / Theorem 2 curves. The measured point must sit
//! at or below the upper curve at every `b`; the bin exits nonzero if not.
//!
//! Every Part 2 run is *recorded* with the production rig: a telemetry
//! hub observes each round through the engine's round stream, and a
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
use ftagg_bench::{f, Table};
use netsim::{
    round_observer, topology, AnyEngine, BitFlood, EngineKind, FailureSchedule, FlightRecorder,
    Graph, Message, MonitorConfig, NodeId, NodeLogic, Round, RoundCtx, SamplingSink, SoaEngine,
    TeeSink, TelemetryHub, Watchdog,
};
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

/// Resident set size in MB from `/proc/self/status` (0 when unavailable).
fn rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: f64 = rest.trim().trim_end_matches(" kB").trim().parse().unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// One single-origin flood on `graph` (known diameter `d`), on the chosen
/// engine with lean metrics; returns (wall seconds, deliveries, RSS-MB
/// growth while the engine was alive).
fn flood_once(graph: Graph, d: u32, kind: EngineKind) -> (f64, u64, f64) {
    let before = rss_mb();
    let origins = Arc::new(vec![NodeId(0)]);
    let factory = {
        let origins = Arc::clone(&origins);
        move |v: NodeId| GroupFlood {
            token: origins.iter().position(|&o| o == v).map(|i| i as u8),
            seen: 0,
            bits: 32,
        }
    };
    let t0 = Instant::now();
    let mut eng = match kind {
        EngineKind::Soa => {
            let mut e = SoaEngine::new(graph, FailureSchedule::none(), factory);
            e.use_lean_metrics();
            AnyEngine::Soa(e)
        }
        EngineKind::Classic => AnyEngine::new(kind, graph, FailureSchedule::none(), factory),
    };
    eng.run(Round::from(d) + 2);
    let wall = t0.elapsed().as_secs_f64();
    let deliveries = eng.telemetry().deliveries;
    let grew = (rss_mb() - before).max(0.0);
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
    let classic_cap: u32 = if quick { 12 } else { 20 };
    println!(
        "Scaling to a million nodes — single-origin flood on hypercube(dim), one box{}\n",
        if quick { " (--quick)" } else { "" }
    );
    let mut t1 =
        Table::new(vec!["N", "dim", "engine", "wall s", "deliveries", "Mdel/s", "+RSS MB"]);
    let mut soa_e6 = 0.0f64;
    for &dim in dims {
        let n = 1usize << dim;
        for kind in [EngineKind::Classic, EngineKind::Soa] {
            if kind == EngineKind::Classic && dim > classic_cap {
                t1.row(vec![
                    n.to_string(),
                    dim.to_string(),
                    "classic".into(),
                    "—".into(),
                    "—".into(),
                    "—".into(),
                    "—".into(),
                ]);
                continue;
            }
            let (wall, deliveries, grew) = flood_once(topology::hypercube(dim), dim, kind);
            let mdps = deliveries as f64 / wall / 1e6;
            if kind == EngineKind::Soa {
                soa_e6 = mdps;
            }
            t1.row(vec![
                n.to_string(),
                dim.to_string(),
                kind.name().into(),
                f(wall, 2),
                deliveries.to_string(),
                f(mdps, 1),
                f(grew, 0),
            ]);
        }
    }
    t1.print();

    // The bit-packed lane at the largest dimension its O(N²/64) bitsets
    // allow: all N tokens flood at once, word-parallel.
    let bdim: u32 = if quick { 9 } else { 13 };
    let g = topology::hypercube(bdim);
    let origins: Vec<NodeId> = g.nodes().collect();
    let t0 = Instant::now();
    let mut lane = BitFlood::new(g, &FailureSchedule::none(), &origins, 32);
    let rep = lane.run(Round::from(bdim) + 2);
    let wall = t0.elapsed().as_secs_f64();
    println!(
        "\nbit-packed lane, hypercube({bdim}) all-to-all ({} tokens): {} deliveries in {} s = {} Mdel/s",
        1usize << bdim,
        rep.deliveries,
        f(wall, 2),
        f(rep.deliveries as f64 / wall / 1e6, 0),
    );

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
        "wall s",
    ]);
    let mut violations = 0usize;
    let mut forced_violations = 0u64;
    let mut flight_dumped = false;
    let mut tele_lines: Vec<String> = Vec::new();
    for &b in bs {
        let groups = (f_bound as u64).div_ceil(b) as usize;
        assert!(groups <= 64, "group mask is a u64");
        // Origins spread evenly over the id space; a deterministic crash
        // set (every 2^dim/64-th node, offset to avoid the origins)
        // exercises the SoA crash paths at full scale.
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
        let mut eng = SoaEngine::new(topology::hypercube(dim), schedule, factory);
        eng.use_lean_metrics();
        // Every Part-2 run is recorded with the production rig: the
        // telemetry hub observes each round through the round stream
        // (O(1) per round), and a deterministic 1-in-16 sampler feeds a
        // flight recorder keeping the last 8 rounds of sampled send
        // events (deliveries excluded, so the hot delivery loop stays
        // untouched) — the configuration whose overhead the snapshot's
        // `perf.telemetry.recorded_ratio` lane measures.
        let hub = Arc::new(TelemetryHub::new());
        eng.stream_rounds(round_observer(&hub));
        let recorder = FlightRecorder::new(8).without_delivers();
        let flight = recorder.handle();
        let sampled = SamplingSink::new(Box::new(recorder), 16, 7);
        if force_violation {
            // An absurd 1-bit per-node ceiling over the whole window:
            // the very first summary send trips it, exercising the
            // dump-on-violation path at scale. The watchdog taps the
            // full stream (budgets must see real counts); only the
            // black box sits behind the sampler.
            let cfg = MonitorConfig::new(n).budget(
                "forced (absurd 1-bit ceiling)",
                1..=Round::from(dim) + 2,
                1,
            );
            eng.set_sink(Box::new(
                TeeSink::new().with(Box::new(Watchdog::new(cfg))).with(Box::new(sampled)),
            ));
        } else {
            eng.set_sink(Box::new(sampled));
        }
        let report = eng.run(Round::from(dim) + 2);
        let wall = t0.elapsed().as_secs_f64();
        let cc = eng.metrics().max_bits();
        if force_violation {
            let mut sink = eng.take_sink().expect("the tee we installed");
            let tee =
                sink.as_any_mut().downcast_mut::<TeeSink>().expect("forced runs install a TeeSink");
            let verdict = tee.sinks_mut()[0]
                .as_any_mut()
                .downcast_mut::<Watchdog>()
                .expect("first teed sink is the Watchdog")
                .finish();
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
        let fs = flight.stats();
        tele_lines.push(format!(
            "b = {b:>4}: rounds = {}, deliveries = {}, bits = {}, in-flight peak = {}; \
             flight ring rounds {}..={} ({} events, {} bytes, {} evicted)",
            hub.counter("engine_rounds_total").get(),
            hub.counter("engine_deliveries_total").get(),
            hub.counter("engine_bits_total").get(),
            hub.gauge("engine_inflight_peak").get(),
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
            f(wall, 2),
        ]);
    }
    t2.print();

    println!("\nrecorded telemetry (hub counters + flight-recorder ring, per budget):");
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
    println!(
        "\nok — the sweep completed at N = {n} on one box (SoA single-origin flood: {} Mdel/s); \
         measured CC sits below the Theorem 1 curve at every b.",
        f(soa_e6, 1)
    );
}
