//! `sweep` — Algorithm 1 on one instance across the TC budget `b`: the
//! measured CC next to the Theorem 1 upper curve.

use crate::{
    alg1_instance, check_layout, spec, stretch_c, write_chrome_trace, Args, CmdOutput, Mode,
};
use caaf::Sum;
use ftagg::bounds;
use ftagg::tradeoff::{run_tradeoff, TradeoffConfig};

pub(crate) const MODES: &[Mode] =
    &[Mode::new("sweep", "topology f c from to points seed threads progress timeline")];

pub(crate) fn cmd_sweep(args: &Args) -> Result<CmdOutput, String> {
    use std::fmt::Write as _;

    let seed: u64 = args.num("seed", 0)?;
    let topo_spec = args.get("topology").unwrap_or("caterpillar:20x1");
    let graph = spec::parse_topology(topo_spec, seed)?;
    let n = graph.len();
    let c = stretch_c(args)?;
    let f: usize = args.num("f", n / 8)?;
    let from: u64 = args.num("from", 21 * u64::from(c))?;
    let to: u64 = args.num("to", from * 8)?;
    let points: u32 = args.num("points", 5)?;
    check_layout(from, c)?;
    if to < from || points == 0 {
        return Err("need from <= to and points >= 1".into());
    }
    let horizon = to * u64::from(graph.diameter().max(1));
    let inst = alg1_instance(graph, f, c, horizon, seed)?;

    let threads: usize = args.num("threads", 1)?;
    let mut out = String::new();
    let _ = writeln!(out, "N = {n}, f = {} scheduled, c = {c}", inst.edge_failures());
    let _ = writeln!(
        out,
        "{:>7} {:>12} {:>14} {:>8} {:>9}",
        "b", "measured CC", "upper bound", "pairs", "correct"
    );
    // One sweep point per "seed"; the runner hands rows back in point
    // order, so the report is identical for every --threads value. The
    // progress sink writes to stderr only, so stdout is byte-identical
    // with --progress on or off.
    let points_idx: Vec<u64> = (0..u64::from(points)).collect();
    let point = |i: u64| {
        let b = if points == 1 { from } else { from + (to - from) * i / u64::from(points - 1) };
        let cfg = TradeoffConfig { b, c, f, seed };
        let r = run_tradeoff(&Sum, &inst, &cfg);
        format!(
            "{b:>7} {:>12} {:>14.0} {:>8} {:>9}\n",
            r.metrics.max_bits(),
            bounds::upper_bound_simple(n, f, b),
            r.pairs_run,
            r.correct
        )
    };
    // The instrumented runner returns the identical seed-ordered rows;
    // its per-worker instruments give the `--progress` line p50/p99
    // trial latency and a straggler flag.
    let runner = netsim::Runner::new(threads);
    // `--timeline PATH` profiles the sweep itself: one Trial span per
    // point on the executing worker's lane, exported as Chrome trace
    // JSON. The rows stay byte-identical either way.
    let tl = args.get("timeline").map(|_| netsim::Timeline::new());
    let progress = args.get("progress").map(|_| netsim::ConsoleProgress::new());
    let progress = progress.as_ref().map(|p| p as &dyn netsim::ProgressSink);
    let (rows, _) = runner.run_observed(&points_idx, |i, _lane| point(i), progress, tl.as_ref());
    for row in rows {
        out.push_str(&row);
    }
    if let (Some(tl), Some(path)) = (&tl, args.get("timeline")) {
        tl.name_lane(0, "main");
        tl.record_span(netsim::SpanKind::Run, "sweep", 0, 0, tl.now_ns(), Some(u64::from(points)));
        let data = write_chrome_trace(tl, &format!("ftagg sweep {topo_spec}"), path)?;
        let _ = writeln!(out, "wrote sweep timeline ({} spans) to {path}", data.spans.len());
    }
    Ok(CmdOutput::ok(out))
}

#[cfg(test)]
mod tests {
    use crate::{args, cli, dispatch};

    #[test]
    fn sweep_command() {
        let out =
            dispatch(&cli("sweep --topology grid:4x4 --f 3 --from 42 --to 84 --points 2")).unwrap();
        assert!(out.contains("measured CC"), "{out}");
        assert_eq!(out.matches("true").count(), 2, "{out}");
        assert!(dispatch(&args(&["sweep", "--from", "5"])).is_err());
    }

    #[test]
    fn sweep_output_is_identical_across_thread_counts() {
        let sweep = |threads: &str| {
            dispatch(&cli(&format!(
                "sweep --topology grid:4x4 --f 3 --from 42 --to 126 --points 3 --threads {threads}"
            )))
            .unwrap()
        };
        let serial = sweep("1");
        assert_eq!(sweep("2"), serial);
        assert_eq!(sweep("8"), serial);
    }

    #[test]
    fn sweep_progress_leaves_stdout_unchanged() {
        let run = |extra: &[&str]| {
            let mut v = vec![
                "sweep",
                "--topology",
                "grid:4x4",
                "--f",
                "3",
                "--from",
                "42",
                "--to",
                "84",
                "--points",
                "2",
                "--threads",
                "2",
            ];
            v.extend_from_slice(extra);
            dispatch(&args(&v)).unwrap()
        };
        let plain = run(&[]);
        assert_eq!(run(&["--progress", "yes"]), plain);
    }
}
