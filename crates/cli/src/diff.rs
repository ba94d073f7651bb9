//! `diff` — align two saved JSONL traces, report the first divergence
//! (classified) plus the per-node / per-kind / per-phase metric deltas.
//! Identical executions print nothing and exit 0; any divergence or
//! metric delta exits 1 (corrupt inputs stay on the `Err` path, exit 2).

use crate::{load_trace, Args, CmdOutput, Mode};

pub(crate) const MODES: &[Mode] = &[Mode::new("diff", "")];

pub(crate) fn cmd_diff(args: &Args) -> Result<CmdOutput, String> {
    use std::fmt::Write as _;
    let [left_path, right_path] = args.positional.as_slice() else {
        return Err(format!(
            "diff needs exactly two trace files: ftagg-cli diff A.jsonl B.jsonl (got {})",
            args.positional.len()
        ));
    };
    let (left, _) = load_trace(left_path)?;
    let (right, _) = load_trace(right_path)?;
    let d = netsim::diff(&left, &right);
    if d.is_empty() {
        return Ok(CmdOutput::ok(String::new()));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace diff: {left_path} ({} events) vs {right_path} ({} events)",
        d.events.0, d.events.1
    );
    match &d.divergence {
        None => out.push_str("event streams identical; metric deltas only\n"),
        Some(dv) => {
            let _ = writeln!(
                out,
                "first divergence at event #{}, round {}, class {}",
                dv.index,
                dv.round,
                dv.class.tag()
            );
            let render = |e: &Option<netsim::Event>| match e {
                Some(e) => e.to_jsonl(),
                None => "(end of trace)".into(),
            };
            let _ = writeln!(out, "  left:  {}", render(&dv.left));
            let _ = writeln!(out, "  right: {}", render(&dv.right));
            if !dv.context.is_empty() {
                let _ = writeln!(out, "  shared context (last {} events):", dv.context.len());
                for e in &dv.context {
                    let _ = writeln!(out, "    {}", e.to_jsonl());
                }
            }
        }
    }
    if d.decide_rounds.0 != d.decide_rounds.1 {
        let _ =
            writeln!(out, "decision round changed: {} -> {}", d.decide_rounds.0, d.decide_rounds.1);
    }
    let mut section = |title: &str, deltas: &[netsim::Delta]| {
        if !deltas.is_empty() {
            let _ = writeln!(out, "\n{title} (left -> right):");
            out.push_str(&ftagg_bench::chart::delta_table(deltas).render());
        }
    };
    section("per-node bit deltas", &d.node_deltas);
    section("per-kind bit deltas", &d.kind_deltas);
    section("per-phase bit deltas", &d.phase_deltas);
    Ok(CmdOutput { text: out, code: 1 })
}

#[cfg(test)]
mod tests {
    use crate::{args, dispatch, dispatch_full, tmp, Args};

    #[test]
    fn diff_parses_positionals_but_other_commands_reject_them() {
        let a = args(&["diff", "a.jsonl", "b.jsonl"]);
        assert_eq!(a.command, "diff");
        assert_eq!(a.positional, vec!["a.jsonl".to_string(), "b.jsonl".to_string()]);
        assert!(Args::parse(["sweep".into(), "a.jsonl".into()].into_iter()).is_err());
        // Wrong arity is a usage error.
        assert!(dispatch(&args(&["diff"])).unwrap_err().contains("two trace files"));
        assert!(dispatch(&args(&["diff", "a", "b", "c"])).is_err());
    }

    #[test]
    fn diff_self_is_empty_and_injected_crash_diverges() {
        let a = tmp("diff_base.jsonl");
        let b = tmp("diff_crash.jsonl");
        dispatch(&args(&["trace", "--topology", "cycle:6", "--jsonl", a])).unwrap();
        dispatch(&args(&["trace", "--topology", "cycle:6", "--crash", "3@4", "--jsonl", b]))
            .unwrap();

        // Self-diff: empty output, exit 0.
        let same = dispatch_full(&args(&["diff", a, a])).unwrap();
        assert_eq!(same.code, 0, "{}", same.text);
        assert!(same.text.is_empty(), "{}", same.text);

        // One injected crash: first divergence classified crash-schedule,
        // at or before the crash round, with metric deltas, exit 1.
        let out = dispatch_full(&args(&["diff", a, b])).unwrap();
        assert_eq!(out.code, 1, "{}", out.text);
        assert!(out.text.contains("first divergence"), "{}", out.text);
        assert!(out.text.contains("class crash-schedule"), "{}", out.text);
        let round: u64 = out
            .text
            .lines()
            .find(|l| l.contains("first divergence"))
            .and_then(|l| l.split("round ").nth(1))
            .and_then(|r| r.split(',').next())
            .and_then(|r| r.parse().ok())
            .expect("divergence line carries the round");
        assert!(round <= 4, "divergence must be at or before the injected crash round: {round}");
        assert!(out.text.contains("per-node bit deltas"), "{}", out.text);
        assert!(out.text.contains("shared context"), "{}", out.text);

        // Symmetric call diverges identically (classes are symmetric).
        let rev = dispatch_full(&args(&["diff", b, a])).unwrap();
        assert_eq!(rev.code, 1);
        assert!(rev.text.contains("class crash-schedule"), "{}", rev.text);

        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
    }

    #[test]
    fn diff_rejects_corrupt_jsonl_with_one_line_errors() {
        let good = tmp("diff_good.jsonl");
        dispatch(&args(&["trace", "--topology", "cycle:6", "--jsonl", good])).unwrap();
        let check = |name: &str, content: &str, needle: &str| {
            let path = tmp(name);
            std::fs::write(path, content).unwrap();
            // Corrupt on either side must fail identically.
            for pair in [[path, good], [good, path]] {
                let err = dispatch(&args(&["diff", pair[0], pair[1]])).unwrap_err();
                assert!(!err.contains('\n'), "error must be one line: {err:?}");
                assert!(err.contains(needle), "{name}: {err}");
            }
            std::fs::remove_file(path).ok();
        };
        let header = "{\"schema\":\"ftagg-trace\",\"v\":1}\n";
        check("diff_empty.jsonl", "", "empty");
        check("diff_badver.jsonl", "{\"schema\":\"ftagg-trace\",\"v\":9}\n", "v9 unsupported");
        check(
            "diff_truncated.jsonl",
            &format!("{header}{{\"ev\":\"send\",\"r\":1,\"n\":0,"),
            "diff_truncated.jsonl",
        );
        check(
            "diff_hugenode.jsonl",
            &format!(
                "{header}{{\"ev\":\"send\",\"r\":1,\"n\":4000000000,\"bits\":8,\"logical\":1}}\n"
            ),
            "replay limit",
        );
        check(
            "diff_hugeround.jsonl",
            &format!(
                "{header}{{\"ev\":\"send\",\"r\":999999999999,\"n\":0,\"bits\":8,\"logical\":1}}\n"
            ),
            "replay limit",
        );
        std::fs::remove_file(good).ok();
        assert!(dispatch(&args(&["diff", "/nonexistent/a.jsonl", "/nonexistent/b.jsonl"])).is_err());
    }
}
