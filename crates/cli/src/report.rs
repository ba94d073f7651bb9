//! `report` — a run report: from a saved JSONL trace, or live over
//! seeded Algorithm 1 trials.

use crate::{
    alg1_instance, check_layout, count, load_trace, spec, stretch_c, truncation_warning, Args,
    CmdOutput, Mode,
};
use caaf::Sum;
use ftagg::tradeoff::{run_tradeoff_observed, TradeoffConfig};
use ftagg::Observe;

// From a file, `--seed` only seeds the sampler.
const FILE: Mode = Mode::new("report --input without --sampled", "input render top monitor");
const SAMPLED_FILE: Mode =
    Mode::new("report --input --sampled", "input render top monitor sampled seed");
const LIVE: Mode =
    Mode::new("live report", "topology trials b c f seed threads top monitor sampled workers");

pub(crate) const MODES: &[Mode] = &[LIVE, FILE, SAMPLED_FILE];

pub(crate) fn cmd_report(args: &Args) -> Result<CmdOutput, String> {
    let input = args.get("input");
    args.check_mode(match (input, args.get("sampled")) {
        (None, _) => &LIVE,
        (Some(_), None) => &FILE,
        (Some(_), Some(_)) => &SAMPLED_FILE,
    })?;
    let top: usize = args.num("top", 3)?;
    match input {
        Some(path) => report_from_jsonl(args, path, top),
        None => report_live(args, top),
    }
}

/// The `top` nodes that sent the most bits, heaviest first (ties by id),
/// leaving out nodes that sent nothing.
fn heaviest_nodes(bits: &[u64], top: usize) -> Vec<(usize, u64)> {
    let mut per_node: Vec<(usize, u64)> = bits.iter().copied().enumerate().collect();
    per_node.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    per_node.truncate(top);
    per_node.retain(|&(_, bits)| bits > 0);
    per_node
}

/// Offline mode: reconstruct metrics from a saved JSONL trace and render
/// the same report a live run would produce. With `--monitor`, the events
/// are additionally replayed through a budget-less [`netsim::Watchdog`]
/// (crash silence, delivery causality, phase discipline); violations turn
/// the exit code to 1. A truncated trace (a flight recorder's tail) is
/// reported from its first retained round and judged as a tail.
fn report_from_jsonl(args: &Args, path: &str, top: usize) -> Result<CmdOutput, String> {
    use netsim::Event;
    use std::fmt::Write as _;

    let (trace, max_id) = load_trace(path)?;
    let metrics = trace.replay_metrics();

    let mut out = String::new();
    let mut code = 0;
    out.push_str(truncation_warning(&trace));
    let mut counts = [0u64; 4]; // sends, delivers, crashes, decides
    for e in trace.events() {
        match e {
            Event::Send { .. } => counts[0] += 1,
            Event::Deliver { .. } => counts[1] += 1,
            Event::Crash { .. } => counts[2] += 1,
            Event::Decide { .. } => counts[3] += 1,
            _ => {}
        }
    }
    let first = match trace.events().first() {
        Some(e) if trace.truncated() => e.round(),
        _ => 1,
    };
    let _ = writeln!(
        out,
        "trace report: {} events over rounds {first}..={} (schema v{})",
        trace.events().len(),
        trace.last_round().unwrap_or(0),
        netsim::TRACE_SCHEMA_VERSION,
    );
    let _ = writeln!(
        out,
        "sends = {}, delivers = {}, crashes = {}, decides = {}",
        counts[0], counts[1], counts[2], counts[3]
    );
    let _ = writeln!(
        out,
        "CC = {} bits at {:?}, total = {} bits",
        metrics.max_bits(),
        metrics.bottleneck().unwrap_or(netsim::NodeId(0)),
        metrics.total_bits()
    );
    for e in trace.events() {
        if let Event::Decide { round, node, value } = e {
            let _ = writeln!(out, "decision: {node:?} output {value} in round {round}");
        }
    }

    if args.get("sampled").is_some() {
        let k = count(args, "sampled", 16)?;
        let seed: u64 = args.num("seed", 0)?;
        out.push_str(&sampled_section(trace.events(), k, seed));
    }

    if args.get("monitor").is_some() {
        use netsim::TraceSink as _;
        let n = (max_id as usize) + 1;
        let mut cfg = netsim::MonitorConfig::new(n);
        if trace.truncated() {
            cfg = cfg.tail();
        }
        let mut dog = netsim::Watchdog::new(cfg);
        for e in trace.events() {
            dog.record(e);
        }
        let verdict = dog.finish();
        if verdict.is_clean() {
            let _ = writeln!(
                out,
                "watchdog: clean ({} events, {} sends, {} delivers audited)",
                verdict.events, verdict.sends, verdict.delivers
            );
        } else {
            let first = verdict
                .violations
                .first()
                .map(ToString::to_string)
                .unwrap_or_else(|| "(not stored)".into());
            let _ = writeln!(out, "MONITOR FAILED: {} violation(s); first: {first}", verdict.total);
            code = 1;
        }
    }

    let phases = metrics.phases();
    if !phases.is_empty() {
        out.push_str("\nphase table:\n");
        out.push_str(&ftagg_bench::chart::phase_stats_table(&phases).render());
    }

    out.push_str("\ntop bottleneck nodes:\n");
    for (v, bits) in heaviest_nodes(metrics.bits_per_node(), top) {
        let _ = writeln!(out, "  n{v:<5} {bits} bits");
    }

    if args.get("render").is_some() {
        out.push_str("\ntrace replay:\n");
        out.push_str(&trace.render());
    }
    Ok(CmdOutput { text: out, code })
}

/// Live mode: sweep Algorithm 1 over `--trials` seeded instances on one
/// topology and aggregate the per-trial stats (deterministically, in seed
/// order, for any `--threads`). With `--monitor`, watchdog violations turn
/// the exit code to 1.
fn report_live(args: &Args, top: usize) -> Result<CmdOutput, String> {
    use netsim::{Runner, TrialStats, TrialSummary};
    use std::fmt::Write as _;

    let monitor = args.get("monitor").is_some();
    let seed: u64 = args.num("seed", 0)?;
    let topo_spec = args.get("topology").unwrap_or("grid:5x5").to_string();
    let graph = spec::parse_topology(&topo_spec, seed)?;
    let n = graph.len();
    let c = stretch_c(args)?;
    let b: u64 = args.num("b", 42 * u64::from(c))?;
    let f: usize = args.num("f", n / 8)?;
    check_layout(b, c)?;
    let trials = count(args, "trials", 16)?;
    let sampled = args.get("sampled").map(|_| count(args, "sampled", 16)).transpose()?;
    let threads: usize = args.num("threads", 1)?;

    // One instance per trial: trial i draws its schedule and inputs from
    // seed ^ i's stream on the shared topology, so the report is a
    // distribution over adversaries and inputs, not a single execution.
    let horizon = b * u64::from(graph.diameter().max(1));
    let seeds: Vec<u64> = (0..trials).map(|i| seed.wrapping_add(i)).collect();
    let make_trial = |s: u64| {
        let inst = alg1_instance(graph.clone(), f, c, horizon, s)
            .expect("topology and inputs are valid by construction");
        (inst, TradeoffConfig { b, c, f, seed: s })
    };
    // The instrumented runner returns identical seed-ordered results for
    // any thread count; the per-worker breakdown rides along for the
    // `--workers` table.
    let (results, tele) = Runner::new(threads).run_observed(
        &seeds,
        |s, _| {
            let (inst, cfg) = make_trial(s);
            let obs = Observe { watchdog: monitor.then_some(false), ..Observe::default() };
            let (r, seen) = run_tradeoff_observed(&Sum, &inst, &cfg, obs);
            let violations = seen.monitor.map_or(0, |m| m.total);
            let stats =
                TrialStats::from_metrics(s, r.rounds, &r.metrics).with_violations(violations);
            (stats, r.metrics.bits_per_node().to_vec(), r.correct)
        },
        None,
        None,
    );

    let mut summary = TrialSummary::default();
    let mut node_bits = vec![0u64; n];
    let mut bottleneck_hits = vec![0u64; n];
    let mut all_correct = true;
    for (stats, bits, correct) in &results {
        if let Some(v) = stats.bottleneck {
            bottleneck_hits[v.index()] += 1;
        }
        summary.absorb(stats);
        for (acc, &b) in node_bits.iter_mut().zip(bits) {
            *acc += b;
        }
        all_correct &= correct;
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "run report: {trials} tradeoff trials over {topo_spec} (N = {n}, b = {b}, c = {c}, f = {f})"
    );
    let _ = writeln!(out, "all correct = {all_correct}");
    if monitor {
        let _ = writeln!(
            out,
            "watchdog violations = {} in {}/{trials} trials (budgets, crash silence, phases, envelope)",
            summary.sum_violations, summary.violation_trials
        );
    }
    let _ = writeln!(
        out,
        "CC     p50 = {:>8}  p90 = {:>8}  max = {:>8}  mean = {:.1}  (worst seed {})",
        summary.hist_max_bits.quantile(0.5),
        summary.hist_max_bits.quantile(0.9),
        summary.hist_max_bits.max(),
        summary.mean_max_bits(),
        summary.worst_seed.unwrap_or(0),
    );
    let _ = writeln!(
        out,
        "rounds p50 = {:>8}  p90 = {:>8}  max = {:>8}  mean = {:.1}",
        summary.hist_rounds.quantile(0.5),
        summary.hist_rounds.quantile(0.9),
        summary.hist_rounds.max(),
        summary.mean_rounds(),
    );

    out.push_str("\nphase table (aggregated over trials):\n");
    out.push_str(&ftagg_bench::chart::phase_agg_table(&summary.phases).render());

    out.push_str("\nCC histogram (bits at bottleneck node, per trial):\n");
    out.push_str(&ftagg_bench::chart::histogram_lines(&summary.hist_max_bits));

    out.push_str("\ntop bottleneck nodes (summed over trials):\n");
    for (v, bits) in heaviest_nodes(&node_bits, top) {
        let _ = writeln!(
            out,
            "  n{v:<5} {bits:>10} bits total, bottleneck in {}/{} trials",
            bottleneck_hits[v], trials
        );
    }
    // Worker wall times vary run to run, so the breakdown is opt-in:
    // the default report stays byte-identical for every --threads value.
    if args.get("workers").is_some() {
        out.push_str("\nper-worker load:\n");
        out.push_str(&tele.workers_table());
    }
    if let Some(k) = sampled {
        // One traced rerun of the first trial, replayed through the
        // sampler, so the scaled estimates sit next to exact meters the
        // reader can check them against.
        let (inst, cfg) = make_trial(seeds[0]);
        let (_, seen) = run_tradeoff_observed(&Sum, &inst, &cfg, Observe::trace());
        let trace = seen.trace.expect("trace requested");
        out.push_str(&sampled_section(trace.events(), k, seeds[0]));
    }
    let mut code = 0;
    if monitor && summary.sum_violations > 0 {
        let _ = writeln!(
            out,
            "MONITOR FAILED: {} violation(s) in {}/{trials} trials",
            summary.sum_violations, summary.violation_trials
        );
        code = 1;
    }
    Ok(CmdOutput { text: out, code })
}

/// The `report --sampled K` section: replay the trace's events through a
/// 1-in-K node-stratified [`netsim::SamplingSink`] and print, per stratum,
/// the sampled volume, the unbiased scale-up factor, the scaled bit
/// estimate next to the exact meter, and the ~95% relative confidence
/// band (`1.96 / sqrt(sampled events)`).
fn sampled_section(events: &[netsim::Event], k: u64, seed: u64) -> String {
    use netsim::TraceSink as _;
    use std::fmt::Write as _;
    // The sampler meters every stratum; the admitted events it forwards
    // are already in memory, so the inner trace is dropped unread.
    let mut sink = netsim::SamplingSink::new(Box::new(netsim::Trace::new()), k, seed);
    for e in events {
        sink.record(e);
    }
    let mut out = String::new();
    let _ = writeln!(out, "\nsampled telemetry (1-in-{k} nodes per stratum, seed {seed}):");
    let _ = writeln!(
        out,
        "{:<14} {:>9} {:>9} {:>7} {:>14} {:>14} {:>9}",
        "stratum", "sampled", "total", "scale", "est. bits", "exact bits", "band"
    );
    for f in sink.factors() {
        let est = f.sampled_bits as f64 * f.scale();
        let _ = writeln!(
            out,
            "{:<14} {:>9} {:>9} {:>7.2} {:>14.0} {:>14} {:>8.1}%",
            f.stratum,
            f.sampled_events,
            f.total_events,
            f.scale(),
            est,
            f.total_bits,
            100.0 * 1.96 * f.rel_error(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::{args, cli, dispatch, dispatch_full, tmp};

    #[test]
    fn report_live_mode() {
        let report = |threads: &str| {
            dispatch(&cli(&format!(
                "report --topology grid:4x4 --trials 4 --b 42 --c 2 --f 3 --threads {threads}"
            )))
            .unwrap()
        };
        let out = report("1");
        assert!(out.contains("run report: 4 tradeoff trials"), "{out}");
        assert!(out.contains("all correct = true"), "{out}");
        assert!(out.contains("phase table"), "{out}");
        assert!(out.contains("interval"), "{out}");
        assert!(out.contains("AGG"), "{out}");
        assert!(out.contains("CC histogram"), "{out}");
        assert!(out.contains("top bottleneck nodes"), "{out}");
        // Deterministic for any thread count.
        assert_eq!(report("4"), out);
        assert!(dispatch(&args(&["report", "--trials", "0"])).is_err());
    }

    #[test]
    fn report_live_monitored_reports_zero_violations() {
        let out =
            dispatch(&cli("report --topology grid:4x4 --trials 3 --b 42 --f 3 --monitor yes"))
                .unwrap();
        assert!(out.contains("watchdog violations = 0 in 0/3 trials"), "{out}");
    }

    #[test]
    fn report_rejects_corrupt_jsonl_with_one_line_errors() {
        let check = |name: &str, content: &str, needle: &str| {
            let path = tmp(name);
            std::fs::write(path, content).unwrap();
            let err = dispatch(&args(&["report", "--input", path])).unwrap_err();
            assert!(!err.contains('\n'), "error must be one line: {err:?}");
            assert!(err.contains(needle), "{name}: {err}");
            std::fs::remove_file(path).ok();
        };
        let header = "{\"schema\":\"ftagg-trace\",\"v\":1}\n";
        check("empty.jsonl", "", "empty");
        check("badver.jsonl", "{\"schema\":\"ftagg-trace\",\"v\":9}\n", "v9 unsupported");
        check(
            "truncated.jsonl",
            &format!("{header}{{\"ev\":\"send\",\"r\":1,\"n\":0,"),
            "truncated.jsonl",
        );
        // A syntactically valid trace claiming an absurd node id must be
        // refused before replay tries to allocate its ledgers.
        check(
            "hugenode.jsonl",
            &format!(
                "{header}{{\"ev\":\"send\",\"r\":1,\"n\":4000000000,\"bits\":8,\"logical\":1}}\n"
            ),
            "replay limit",
        );
        check(
            "hugeround.jsonl",
            &format!(
                "{header}{{\"ev\":\"send\",\"r\":999999999999,\"n\":0,\"bits\":8,\"logical\":1}}\n"
            ),
            "replay limit",
        );
    }

    #[test]
    fn report_monitor_exit_codes_clean_and_violating() {
        // Clean live run: exit code 0, no failure line.
        let out =
            dispatch_full(&cli("report --topology grid:4x4 --trials 2 --b 42 --f 3 --monitor yes"))
                .unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(!out.text.contains("MONITOR FAILED"), "{}", out.text);

        // Offline, clean: a real trace replays through the watchdog clean.
        let clean = tmp("clean_monitor.jsonl");
        dispatch(&args(&["trace", "--topology", "cycle:6", "--jsonl", clean])).unwrap();
        let out = dispatch_full(&args(&["report", "--input", clean, "--monitor", "yes"])).unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("watchdog: clean"), "{}", out.text);
        std::fs::remove_file(clean).ok();

        // Offline, violating: a delivery with no matching send trips the
        // causality invariant; one-line summary, exit code 1.
        let bad = tmp("violating_monitor.jsonl");
        std::fs::write(
            bad,
            "{\"schema\":\"ftagg-trace\",\"v\":2}\n\
             {\"ev\":\"deliver\",\"r\":2,\"n\":1,\"from\":0,\"bits\":8,\"id\":1,\"src\":7}\n",
        )
        .unwrap();
        let out = dispatch_full(&args(&["report", "--input", bad, "--monitor", "yes"])).unwrap();
        assert_eq!(out.code, 1, "{}", out.text);
        let line = out
            .text
            .lines()
            .find(|l| l.starts_with("MONITOR FAILED"))
            .expect("one-line violation summary");
        assert!(line.contains("1 violation(s)"), "{line}");
        assert!(line.contains("first:"), "{line}");
        std::fs::remove_file(bad).ok();

        // Without --monitor the same file reports fine with exit 0.
        let bad2 = tmp("violating_monitor2.jsonl");
        std::fs::write(
            bad2,
            "{\"schema\":\"ftagg-trace\",\"v\":2}\n\
             {\"ev\":\"deliver\",\"r\":2,\"n\":1,\"from\":0,\"bits\":8,\"id\":1,\"src\":7}\n",
        )
        .unwrap();
        let out = dispatch_full(&args(&["report", "--input", bad2])).unwrap();
        assert_eq!(out.code, 0);
        std::fs::remove_file(bad2).ok();
    }

    #[test]
    fn report_judges_an_evicting_flight_dump_as_a_tail() {
        // The default 64-round ring evicts the pair's first 13 rounds,
        // among them the phase entries whose exits it keeps.
        let dump = tmp("report_tail_flight.jsonl");
        dispatch(&cli(&format!("top --topology grid:6x6 --refresh-ms 0 --flight-out {dump}")))
            .unwrap();
        let text = std::fs::read_to_string(dump).unwrap();
        let (header, events) = text.split_once('\n').unwrap();
        assert_eq!(header, "{\"schema\":\"ftagg-trace\",\"v\":2,\"truncated\":true}");
        let out = dispatch_full(&args(&["report", "--input", dump, "--monitor", "yes"])).unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.starts_with("warning: trace was truncated"), "{}", out.text);
        assert!(out.text.contains("events over rounds 14..=247"), "{}", out.text);
        assert!(out.text.contains("watchdog: clean"), "{}", out.text);
        // The same events under a whole-run header: the stray exits are
        // violations again.
        let whole = tmp("report_tail_flight_whole.jsonl");
        std::fs::write(whole, format!("{{\"schema\":\"ftagg-trace\",\"v\":2}}\n{events}")).unwrap();
        let out = dispatch_full(&args(&["report", "--input", whole, "--monitor", "yes"])).unwrap();
        assert_eq!(out.code, 1, "{}", out.text);
        assert!(out.text.contains("events over rounds 1..=247"), "{}", out.text);
        assert!(out.text.contains("phase_exit 'AGG' with no phase open"), "{}", out.text);
        std::fs::remove_file(dump).ok();
        std::fs::remove_file(whole).ok();
    }

    #[test]
    fn report_sampled_prints_factors_and_bands() {
        // File mode: k=1 admits everything, so every stratum's estimate
        // equals its exact meter.
        let path_s = tmp("report_sampled.jsonl");
        dispatch(&args(&["trace", "--topology", "grid:5x5", "--jsonl", path_s])).unwrap();
        let out = dispatch(&args(&["report", "--input", path_s, "--sampled", "1", "--top", "2"]))
            .unwrap();
        assert!(out.contains("sampled telemetry (1-in-1"), "{out}");
        assert!(out.contains("deliver"), "{out}");
        assert!(out.contains("send/"), "{out}");
        for line in out.lines().filter(|l| l.starts_with("send/") || l.starts_with("deliver")) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cols[1], cols[2], "k=1 samples everything: {line}");
            assert_eq!(cols[3], "1.00", "k=1 scale is exactly 1: {line}");
        }
        std::fs::remove_file(path_s).ok();

        // Live mode: the section renders after the trial summary.
        let out = dispatch(&cli("report --topology grid:4x4 --trials 2 --b 42 --f 3 --sampled 4"))
            .unwrap();
        assert!(out.contains("run report: 2 tradeoff trials"), "{out}");
        assert!(out.contains("sampled telemetry (1-in-4"), "{out}");
        assert!(out.contains('%'), "{out}");
    }

    #[test]
    fn report_workers_table_is_gated() {
        let quiet = ["report", "--topology", "grid:4x4", "--trials", "3", "--b", "42", "--f", "2"];
        let out = dispatch(&args(&quiet)).unwrap();
        assert!(!out.contains("per-worker load"), "{out}");
        let mut loud = quiet.to_vec();
        loud.extend_from_slice(&["--workers", "yes"]);
        let out = dispatch(&args(&loud)).unwrap();
        assert!(out.contains("per-worker load"), "{out}");
        assert!(out.contains("worker"), "{out}");
        assert!(out.contains("busy_ms"), "{out}");
    }
}
