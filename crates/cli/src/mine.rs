//! `mine` — search for a worst-case oblivious adversary and print the
//! result as JSON.

use crate::{check_layout, spec, stretch_c, write_chrome_trace, Args, CmdOutput, Mode};
use caaf::Caaf;
use ftagg::{Instance, Observe};
use netsim::json::quote;
use netsim::NodeId;

pub(crate) const MODES: &[Mode] = &[Mode::new(
    "mine",
    "topology inputs op seed f b c objective protocol accept iterations coin-seeds threads \
     mutate-topology progress crash corpus-out name timeline",
)];

/// Everything `cmd_mine` reports for one mined adversary, independent of
/// the operator's concrete type.
struct MineOutcome {
    result: ftagg_bench::search::MineResult,
    entry: netsim::CorpusEntry,
    monitor_violations: u64,
}

#[allow(clippy::too_many_arguments)]
fn mine_with_op<C: Caaf + Sync + 'static>(
    op: &C,
    graph: &netsim::Graph,
    inputs: &[u64],
    max_input: u64,
    cfg: &ftagg_bench::search::MineConfig,
    initial: Option<&netsim::FailureSchedule>,
    progress: Option<&mut dyn FnMut(&ftagg_bench::search::MineProgress)>,
    name: &str,
) -> MineOutcome {
    use ftagg_bench::search::{corpus_entry, mine, run_protocol};

    let result = mine(op, graph, inputs, max_input, cfg, initial, progress);
    // Confirmation run of the best find under the (collecting) watchdog.
    let inst = Instance::new(
        result.graph.clone(),
        NodeId(0),
        inputs.to_vec(),
        result.schedule.clone(),
        max_input,
    )
    .expect("mined instances are valid");
    let (_, _, seen) = run_protocol(op, &inst, cfg, 0, Observe::watchdog(false));
    let monitor_violations = seen.monitor.expect("watchdog requested").total;
    let entry = corpus_entry(name, op, inputs, max_input, cfg, &result);
    MineOutcome { result, entry, monitor_violations }
}

pub(crate) fn cmd_mine(args: &Args) -> Result<CmdOutput, String> {
    use ftagg_bench::search::{Acceptance, MineConfig, MineProgress, MineProtocol, Objective};
    use std::fmt::Write as _;

    let seed: u64 = args.num("seed", 0)?;
    let graph = spec::parse_topology(args.get("topology").unwrap_or("caterpillar:30x1"), seed)?;
    let n = graph.len();
    let (inputs, gen_max) = spec::parse_inputs(args.get("inputs").unwrap_or("random:32"), n, seed)?;
    let op = spec::parse_op(args.get("op").unwrap_or("sum"))?;
    let (inputs, max_input) = op.clamp(inputs, gen_max);

    let c = stretch_c(args)?;
    let b: u64 = args.num("b", 21 * u64::from(c))?;
    let f: usize = args.num("f", 4)?;
    let objective = Objective::parse(args.get("objective").unwrap_or("root-cc"))?;
    let protocol = match args.get("protocol").unwrap_or("tradeoff") {
        "tradeoff" => MineProtocol::Tradeoff { f },
        "pair" => MineProtocol::Pair { t: 1 },
        "doubling" => MineProtocol::Doubling { max_stages: 8 },
        other => MineProtocol::parse(other)?,
    };
    if matches!(protocol, MineProtocol::Tradeoff { .. }) {
        check_layout(b, c)?;
    }
    let acceptance = Acceptance::parse(args.get("accept").unwrap_or("hill"))?;
    let cfg = MineConfig {
        iterations: args.num("iterations", 40)?,
        coin_seeds: args.num("coin-seeds", 2)?,
        seed,
        threads: args.num("threads", 0usize)?,
        b,
        c,
        f_budget: f,
        objective,
        protocol,
        acceptance,
        mutate_topology: args.get("mutate-topology") == Some("yes"),
    };
    let initial = {
        let crashes = args.get_all("crash");
        if crashes.is_empty() {
            None
        } else {
            Some(spec::parse_crashes(crashes)?)
        }
    };
    if let Some(s) = &initial {
        s.validate(&graph, NodeId(0))?;
    }

    let show_progress = args.get("progress") == Some("yes");
    // `--timeline PATH` profiles the search: one span per mutation
    // iteration plus best/evaluations counter tracks, exported as
    // Chrome trace JSON after the run (stdout stays pure JSON).
    let tl = args.get("timeline").map(|_| netsim::Timeline::new());
    let tl_cb = tl.clone();
    let mut iter_started = tl.as_ref().map_or(0, netsim::Timeline::now_ns);
    let mut last: Option<std::time::Instant> = None;
    let total_iters = cfg.iterations;
    let mut progress_cb = move |p: &MineProgress| {
        if let Some(t) = &tl_cb {
            let now = t.now_ns();
            t.record_span(
                netsim::SpanKind::Trial,
                "iteration",
                0,
                iter_started,
                now.saturating_sub(iter_started),
                Some(p.iteration as u64),
            );
            iter_started = now;
            t.counter("best", p.best as f64);
            t.counter("evaluations", p.evaluations as f64);
        }
        if !show_progress {
            return;
        }
        let due = last.is_none_or(|t| t.elapsed().as_millis() >= 200);
        if due || p.iteration == p.iterations {
            last = Some(std::time::Instant::now());
            eprint!(
                "\r  mine: {}/{} iterations, {} evaluations, best {}   ",
                p.iteration, p.iterations, p.evaluations, p.best
            );
            if p.iteration == total_iters {
                eprintln!();
            }
        }
    };
    let progress: Option<&mut dyn FnMut(&MineProgress)> =
        if show_progress || tl.is_some() { Some(&mut progress_cb) } else { None };

    let name = args.get("name").unwrap_or("mined").to_string();
    let outcome = spec::with_op!(op, o => mine_with_op(
        &o,
        &graph,
        &inputs,
        max_input,
        &cfg,
        initial.as_ref(),
        progress,
        &name
    ));
    let r = &outcome.result;

    if let (Some(tl), Some(path)) = (&tl, args.get("timeline")) {
        tl.name_lane(0, "search");
        tl.record_span(
            netsim::SpanKind::Run,
            "mine",
            0,
            0,
            tl.now_ns(),
            Some(cfg.iterations as u64),
        );
        let data = write_chrome_trace(tl, "ftagg mine", path)?;
        // Stdout is the machine-readable mine JSON; the note goes to
        // stderr like the progress line.
        eprintln!("wrote mine timeline ({} spans) to {path}", data.spans.len());
    }

    let corpus_path = match args.get("corpus-out") {
        None => None,
        Some(path) => {
            std::fs::write(path, outcome.entry.to_text())
                .map_err(|e| format!("cannot write corpus file '{path}': {e}"))?;
            Some(path.to_string())
        }
    };

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": 1,");
    let _ = writeln!(out, "  \"objective\": \"{}\",", cfg.objective.tag());
    let _ = writeln!(out, "  \"protocol\": \"{}\",", cfg.protocol.tag());
    let _ = writeln!(out, "  \"accept\": \"{}\",", cfg.acceptance.tag());
    let _ = writeln!(
        out,
        "  \"n\": {}, \"b\": {}, \"c\": {}, \"f_budget\": {}, \"seed\": {},",
        n, cfg.b, cfg.c, cfg.f_budget, cfg.seed
    );
    let _ = writeln!(
        out,
        "  \"iterations\": {}, \"evaluations\": {}, \"runs_per_eval\": {},",
        cfg.iterations, r.evaluations, r.runs_per_eval
    );
    let _ = writeln!(out, "  \"value\": {}, \"mean\": {:.2},", r.value, r.mean());
    let _ = writeln!(out, "  \"edges\": {}, \"crashes\": {},", r.graph.edges().len(), {
        r.schedule.crash_count()
    });
    let steps: Vec<String> = r
        .history
        .iter()
        .map(|h| {
            let class = match &h.class {
                None => "null".to_string(),
                Some(c) => quote(c),
            };
            format!(
                "{{\"iteration\": {}, \"value\": {}, \"class\": {}}}",
                h.iteration, h.value, class
            )
        })
        .collect();
    let _ = writeln!(out, "  \"history\": [{}],", steps.join(", "));
    let divs: Vec<String> =
        r.divergences.iter().map(|(k, v)| format!("{}: {v}", quote(k))).collect();
    let _ = writeln!(out, "  \"divergences\": {{{}}},", divs.join(", "));
    let cexs: Vec<String> = r
        .counterexamples
        .iter()
        .map(|cx| {
            format!(
                "{{\"coin_seed\": {}, \"result\": {}, \"lo\": {}, \"hi\": {}, \"crashes\": {}}}",
                cx.coin_seed,
                cx.result,
                cx.lo,
                cx.hi,
                cx.schedule.crash_count()
            )
        })
        .collect();
    let _ = writeln!(out, "  \"counterexamples\": [{}],", cexs.join(", "));
    let _ = writeln!(out, "  \"monitor_violations\": {},", outcome.monitor_violations);
    let _ = writeln!(
        out,
        "  \"corpus\": {}",
        match &corpus_path {
            None => "null".to_string(),
            Some(p) => quote(p),
        }
    );
    let _ = writeln!(out, "}}");

    let code = i32::from(!r.counterexamples.is_empty() || outcome.monitor_violations > 0);
    Ok(CmdOutput { text: out, code })
}

#[cfg(test)]
mod tests {
    use crate::{args, cli, dispatch, dispatch_full, tmp};

    #[test]
    fn mine_emits_json_and_is_deterministic_across_threads() {
        let mine = |threads: &str| {
            dispatch_full(&cli(&format!(
                "mine --topology caterpillar:6x1 --f 4 --b 42 --iterations 6 --coin-seeds 1 \
                 --seed 7 --threads {threads}"
            )))
            .unwrap()
        };
        let out = mine("1");
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("\"objective\": \"root-cc\""), "{}", out.text);
        assert!(out.text.contains("\"protocol\": \"tradeoff:4\""), "{}", out.text);
        assert!(out.text.contains("\"history\": [{\"iteration\": 0"), "{}", out.text);
        assert!(out.text.contains("\"counterexamples\": []"), "{}", out.text);
        assert!(out.text.contains("\"monitor_violations\": 0"), "{}", out.text);
        // Identical result at any worker count.
        assert_eq!(mine("4").text, out.text);
    }

    #[test]
    fn mine_writes_a_replayable_corpus_entry() {
        let path_s = tmp("mine_corpus.corpus");
        let out = dispatch_full(&args(&[
            "mine",
            "--topology",
            "caterpillar:6x1",
            "--f",
            "4",
            "--iterations",
            "5",
            "--coin-seeds",
            "1",
            "--seed",
            "3",
            "--threads",
            "1",
            "--corpus-out",
            path_s,
            "--name",
            "cli-test",
        ]))
        .unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains(&format!("\"corpus\": \"{path_s}\"")), "{}", out.text);
        let text = std::fs::read_to_string(path_s).unwrap();
        let entry = netsim::CorpusEntry::from_text(&text).unwrap();
        assert_eq!(entry.name, "cli-test");
        let mined_value: u64 = out
            .text
            .lines()
            .find(|l| l.contains("\"value\""))
            .and_then(|l| l.split("\"value\": ").nth(1))
            .and_then(|v| v.split(',').next())
            .and_then(|v| v.parse().ok())
            .expect("value line");
        assert_eq!(entry.value, mined_value);
        let replay = ftagg_bench::search::replay_entry(&entry, true).unwrap();
        assert_eq!(replay.value, entry.value, "corpus replay must be bit-for-bit");
        assert!(replay.monitor.is_clean());
        std::fs::remove_file(path_s).ok();
    }

    #[test]
    fn mine_other_protocols_objectives_and_errors() {
        for (proto, obj) in [("pair:2", "bottleneck-cc"), ("doubling:5", "rounds")] {
            let out = dispatch_full(&cli(&format!(
                "mine --topology caterpillar:5x1 --f 3 --iterations 3 --seed 1 --threads 1 \
                 --protocol {proto} --objective {obj}"
            )))
            .unwrap();
            assert_eq!(out.code, 0, "{proto}: {}", out.text);
            assert!(out.text.contains(&format!("\"protocol\": \"{proto}\"")), "{}", out.text);
            assert!(out.text.contains("\"runs_per_eval\": 1"), "{}", out.text);
        }
        assert!(dispatch(&args(&["mine", "--objective", "speed"])).is_err());
        assert!(dispatch(&args(&["mine", "--protocol", "carrier"])).is_err());
        assert!(dispatch(&args(&["mine", "--accept", "perhaps"])).is_err());
        // Seeding from an invalid schedule (root crash) is a usage error.
        assert!(dispatch(&args(&["mine", "--crash", "0@5"])).is_err());
    }
}
