//! `explain` — the causal-provenance report over one Algorithm 1 run:
//! critical path into the decision, per-node per-kind CC blame, and the
//! coverage audit, each cross-checked against the run's own meters and
//! the CAAF envelope in live mode. File mode loads a saved JSONL trace
//! (v1 traces parse with empty lineage; the conservative closure then
//! reconstructs the DAG from rounds alone).

use crate::{
    alg1_instance, check_layout, count, load_trace, spec, stretch_c, truncation_warning, Args,
    CmdOutput, Mode,
};
use caaf::Sum;
use ftagg::tradeoff::{run_tradeoff_observed, TradeoffConfig};
use ftagg::{Instance, Observe};
use netsim::NodeId;

const FILE: Mode = Mode::new("explain --input", "input folded");
const LIVE: Mode = Mode::new("live explain", "topology b c f seed ring folded");

pub(crate) const MODES: &[Mode] = &[LIVE, FILE];

pub(crate) fn cmd_explain(args: &Args) -> Result<CmdOutput, String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut code = 0;

    struct LiveRun {
        report: ftagg::tradeoff::TradeoffReport,
        inst: Instance,
    }
    let input = args.get("input");
    args.check_mode(if input.is_some() { &FILE } else { &LIVE })?;
    let (trace, live) = match input {
        Some(path) => {
            let (trace, _) = load_trace(path)?;
            let _ = writeln!(out, "explain: saved trace {path} ({} events)", trace.events().len());
            (trace, None)
        }
        None => {
            let seed: u64 = args.num("seed", 0)?;
            let topo_spec = args.get("topology").unwrap_or("grid:5x5").to_string();
            let graph = spec::parse_topology(&topo_spec, seed)?;
            let n = graph.len();
            let c = stretch_c(args)?;
            let b: u64 = args.num("b", 42 * u64::from(c))?;
            let f: usize = args.num("f", n / 8)?;
            check_layout(b, c)?;
            // `report` live mode's instance for one trial, so a report
            // anomaly can be explained by rerunning its seed here.
            let horizon = b * u64::from(graph.diameter().max(1));
            let inst = alg1_instance(graph, f, c, horizon, seed)?;
            let cfg = TradeoffConfig { b, c, f, seed };
            let (report, seen) = run_tradeoff_observed(&Sum, &inst, &cfg, Observe::trace());
            let trace = seen.trace.expect("trace requested");
            let _ = writeln!(
                out,
                "explain: tradeoff over {topo_spec} (N = {n}, b = {b}, c = {c}, f = {f}, seed = {seed})"
            );
            let _ = writeln!(
                out,
                "result = {} (correct: {}), rounds = {}, pairs run = {}, fallback = {}",
                report.result,
                report.correct,
                report.rounds,
                report.pairs_run,
                report.used_fallback
            );
            // --ring N: keep only the last N events, the tail a
            // memory-capped recorder would keep, so the analyses see a
            // truncated trace. The whole trace is recorded first, so peak
            // memory is that of the full trace.
            let trace = match args.get("ring") {
                None => trace,
                Some(_) => {
                    let events = trace.events();
                    let dropped = events.len().saturating_sub(count(args, "ring", 0)? as usize);
                    let mut tail = netsim::Trace::new();
                    for e in &events[dropped..] {
                        tail.push(e.clone());
                    }
                    tail.set_truncated(dropped > 0);
                    tail
                }
            };
            (trace, Some(LiveRun { report, inst }))
        }
    };

    out.push_str(truncation_warning(&trace));

    let dag = netsim::CausalDag::from_trace(&trace);

    match dag.critical_path() {
        None => out.push_str("\nno decision in the trace: no critical path\n"),
        Some(cp) => {
            out.push_str("\ncritical path (longest causal chain into the decision):\n");
            out.push_str(&ftagg_bench::chart::critical_path_table(&cp).render());
            let _ = writeln!(
                out,
                "length = {} rounds (= decision round), lead-in = {}, slack = {}, decision = {} at n{}",
                cp.length_rounds(),
                cp.lead_in(),
                cp.total_slack(),
                cp.decide_value,
                cp.decide_node.0
            );
            if let Some(live) = &live {
                if cp.length_rounds() != live.report.rounds {
                    let _ = writeln!(
                        out,
                        "CHECK FAILED: critical path length {} != measured termination round {}",
                        cp.length_rounds(),
                        live.report.rounds
                    );
                    code = 1;
                }
            }
        }
    }

    let blame = netsim::Blame::from_trace(&trace);
    out.push_str("\nCC blame (bits per node per message kind):\n");
    out.push_str(&ftagg_bench::chart::blame_table(&blame).render());
    if trace.truncated() {
        out.push_str("blame partition check: skipped (truncated trace)\n");
    } else {
        // The partition property: for every node the kinds sum to exactly
        // the bit meter — the run's own in live mode, the replay's offline.
        let meters = match &live {
            Some(l) => l.report.metrics.clone(),
            None => trace.replay_metrics(),
        };
        let n_all = blame.n().max(meters.bits_per_node().len());
        let mismatch =
            (0..n_all as u32).map(NodeId).find(|&v| blame.node_total(v) != meters.bits_of(v));
        match mismatch {
            None => out.push_str("blame partition check: OK (kinds sum to each node's CC meter)\n"),
            Some(v) => {
                let _ = writeln!(
                    out,
                    "CHECK FAILED: blame total {} != CC meter {} at n{}",
                    blame.node_total(v),
                    meters.bits_of(v),
                    v.0
                );
                code = 1;
            }
        }
    }

    let cov = dag.coverage();
    out.push_str("\ncoverage audit (backward walk from the decision):\n");
    let _ = writeln!(
        out,
        "included = {}/{} nodes provably on a causal path into the output",
        cov.included.len(),
        dag.node_count()
    );
    if !cov.excluded.is_empty() {
        let list: Vec<String> = cov.excluded.iter().map(|v| format!("n{}", v.0)).collect();
        let _ = writeln!(out, "excluded = [{}]", list.join(", "));
    }
    if !cov.crashed.is_empty() {
        let list: Vec<String> = cov.crashed.iter().map(|v| format!("n{}", v.0)).collect();
        let _ = writeln!(out, "crashed  = [{}]", list.join(", "));
    }
    if let Some(live) = &live {
        // CAAF cross-check: every node alive and root-connected at the
        // decision round (the paper's mandatory set) must be causally
        // included, and the output must sit inside the CAAF envelope.
        let dead = live.inst.schedule.dead_by(live.report.rounds);
        let s1 = live.inst.graph.reachable_from(live.inst.root, &dead);
        let included: std::collections::HashSet<NodeId> = cov.included.iter().copied().collect();
        let missing: Vec<String> =
            s1.iter().filter(|v| !included.contains(v)).map(|v| format!("n{}", v.0)).collect();
        if missing.is_empty() {
            let _ = writeln!(
                out,
                "CAAF cross-check: all {} surviving (alive+connected) nodes causally included",
                s1.len()
            );
        } else {
            let _ = writeln!(
                out,
                "CHECK FAILED: surviving nodes not causally included: [{}]",
                missing.join(", ")
            );
            code = 1;
        }
        let iv = live.inst.correct_interval(&caaf::Sum, live.report.rounds);
        let inside = iv.contains(live.report.result);
        let _ = writeln!(
            out,
            "CAAF envelope at decision: [{}, {}], output {} inside = {inside}",
            iv.lo, iv.hi, live.report.result
        );
        if !inside {
            code = 1;
        }
    }

    if args.get("folded").is_some() {
        out.push_str("\nfolded stacks (stack bits):\n");
        for (stack, w) in netsim::folded_stacks(&trace) {
            let _ = writeln!(out, "{stack} {w}");
        }
    }
    Ok(CmdOutput { text: out, code })
}

#[cfg(test)]
mod tests {
    use crate::{args, cli, dispatch, dispatch_full, tmp};

    #[test]
    fn explain_live_file_and_ring_modes() {
        // Live: all three analyses render, all cross-checks pass, exit 0.
        let live = dispatch_full(&cli(
            "explain --topology grid:4x4 --b 42 --c 2 --f 3 --seed 5 --folded yes",
        ))
        .unwrap();
        assert_eq!(live.code, 0, "{}", live.text);
        assert!(live.text.contains("critical path"), "{}", live.text);
        assert!(live.text.contains("(= decision round)"), "{}", live.text);
        assert!(live.text.contains("CC blame"), "{}", live.text);
        assert!(live.text.contains("blame partition check: OK"), "{}", live.text);
        assert!(live.text.contains("coverage audit"), "{}", live.text);
        assert!(live.text.contains("CAAF cross-check: all"), "{}", live.text);
        assert!(live.text.contains("inside = true"), "{}", live.text);
        assert!(live.text.contains("folded stacks"), "{}", live.text);
        assert!(live.text.contains(";tree-construct "), "{}", live.text);
        assert!(!live.text.contains("CHECK FAILED"), "{}", live.text);

        // File: a saved pair trace explains offline (replay-metric checks).
        let path = tmp("explain_file.jsonl");
        dispatch(&args(&["trace", "--topology", "cycle:6", "--jsonl", path])).unwrap();
        let file = dispatch_full(&args(&["explain", "--input", path])).unwrap();
        assert_eq!(file.code, 0, "{}", file.text);
        assert!(file.text.contains("explain: saved trace"), "{}", file.text);
        assert!(file.text.contains("blame partition check: OK"), "{}", file.text);
        std::fs::remove_file(path).ok();
        assert!(dispatch_full(&args(&["explain", "--input", "/nonexistent/x.jsonl"])).is_err());

        // Ring capture: a tiny capacity truncates, the warning is visible,
        // and the partition check steps aside instead of lying.
        let ring = dispatch_full(&cli(
            "explain --topology grid:4x4 --b 42 --c 2 --f 3 --seed 5 --ring 10",
        ))
        .unwrap();
        assert!(ring.text.contains("warning: trace was truncated"), "{}", ring.text);
        assert!(
            ring.text.contains("blame partition check: skipped (truncated trace)"),
            "{}",
            ring.text
        );
        assert!(dispatch_full(&args(&["explain", "--topology", "cycle:6", "--ring", "0"])).is_err());
    }
}
