//! `trace` — one AGG+VERI pair with its per-round event log, the
//! aggregation tree, and optionally a JSONL export and a DOT drawing.

use crate::{pair_instance, Args, CmdOutput, Mode};
use caaf::Sum;
use ftagg::pair::Tweaks;
use ftagg::{run_pair_observed, Observe};
use netsim::NodeId;

pub(crate) const MODES: &[Mode] = &[Mode::new("trace", "topology crash c t seed dot jsonl")];

pub(crate) fn cmd_trace(args: &Args) -> Result<CmdOutput, String> {
    let (inst, c, t) = pair_instance(args, "cycle:8")?;
    let (graph, schedule) = (&inst.graph, &inst.schedule);
    let dot = args.get("dot").is_some();
    let obs = Observe::trace();
    let (_, seen, eng) = run_pair_observed(&Sum, &inst, c, t, true, Tweaks::default(), obs);
    let mut out = String::new();
    use std::fmt::Write as _;
    let root = eng.node(NodeId(0));
    let _ = writeln!(out, "AGG outcome: {:?}", root.agg_outcome());
    let _ = writeln!(out, "VERI verdict: {}", root.veri_verdict());
    let _ = writeln!(out, "visible critical failures: {:?}", root.critical_failures_seen());
    let _ = writeln!(out, "flooded psums at root: {:?}\n", root.flooded_psums_seen());
    let tree = ftagg::analysis::TreeView::from_engine(&eng, NodeId(0));
    let crashed: std::collections::BTreeSet<NodeId> = schedule.all_crashed().into_iter().collect();
    out.push_str("aggregation tree:\n");
    out.push_str(&tree.render_ascii(&crashed));
    out.push('\n');
    let trace = seen.trace.expect("trace requested");
    out.push_str(&trace.render());
    if let Some(path) = args.get("jsonl") {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create --jsonl file '{path}': {e}"))?;
        let mut sink = netsim::JsonlSink::new(std::io::BufWriter::new(file));
        for e in trace.events() {
            use netsim::TraceSink as _;
            sink.record(e);
        }
        let lines = sink.lines();
        sink.finish().map_err(|e| format!("writing '{path}': {e}"))?;
        let _ = writeln!(out, "\nwrote {lines} JSONL lines to {path}");
    }
    if dot {
        let _ = writeln!(out, "\n{}", graph.to_dot("execution", &schedule.all_crashed()));
    }
    Ok(CmdOutput::ok(out))
}

#[cfg(test)]
mod tests {
    use crate::{args, cli, dispatch, tmp};

    #[test]
    fn trace_command() {
        let out = dispatch(&cli("trace --topology cycle:6 --crash 2@20 --t 1 --dot yes")).unwrap();
        assert!(out.contains("AGG outcome"));
        assert!(out.contains("-- round 1 --"));
        assert!(out.contains("graph execution {"));
        assert!(out.contains("fillcolor=red"));
    }

    #[test]
    fn trace_jsonl_roundtrips_into_file_report() {
        let path = tmp("trace_jsonl_roundtrip.jsonl");
        let out = dispatch(&args(&[
            "trace",
            "--topology",
            "cycle:6",
            "--crash",
            "2@20",
            "--jsonl",
            path,
        ]))
        .unwrap();
        assert!(out.contains("JSONL lines"), "{out}");
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.starts_with("{\"schema\":\"ftagg-trace\",\"v\":2}"), "{text}");

        let report =
            dispatch(&args(&["report", "--input", path, "--render", "yes", "--top", "2"])).unwrap();
        assert!(report.contains("trace report:"), "{report}");
        assert!(report.contains("phase table"), "{report}");
        assert!(report.contains("AGG"), "{report}");
        assert!(report.contains("VERI"), "{report}");
        assert!(report.contains("crashes = 1"), "{report}");
        assert!(report.contains("top bottleneck nodes"), "{report}");
        assert!(report.contains("-- round 1 --"), "{report}");
        // The replayed CC equals the trace's own send accounting.
        std::fs::remove_file(path).ok();
        assert!(dispatch(&args(&["report", "--input", "/nonexistent/x.jsonl"])).is_err());
    }
}
