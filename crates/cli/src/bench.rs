//! `bench snapshot | compare` — collect or diff machine-readable
//! `BENCH_*.json` snapshots (see `ftagg_bench::snapshot`).

use crate::{Args, CmdOutput, Mode, USAGE};

const SNAPSHOT: Mode = Mode::new("bench snapshot", "out quick");
const COMPARE: Mode = Mode::new("bench compare", "baseline candidate");

pub(crate) const MODES: &[Mode] = &[SNAPSHOT, COMPARE];

pub(crate) fn cmd_bench(args: &Args) -> Result<CmdOutput, String> {
    use ftagg_bench::snapshot::{compare, default_snapshot_name, Snapshot};
    match args.sub.as_deref() {
        Some("snapshot") => {
            args.check_mode(&SNAPSHOT)?;
            let quick = args.get("quick").is_some();
            let path = args.get("out").map(str::to_string).unwrap_or_else(default_snapshot_name);
            let snap = Snapshot::collect(quick);
            let json = snap.to_json();
            std::fs::write(&path, &json)
                .map_err(|e| format!("cannot write snapshot '{path}': {e}"))?;
            Ok(CmdOutput::ok(format!("{json}wrote {path}\n")))
        }
        Some("compare") => {
            args.check_mode(&COMPARE)?;
            let base_path = args.get("baseline").ok_or("bench compare needs --baseline")?;
            let cand_path = args.get("candidate").ok_or("bench compare needs --candidate")?;
            let load = |p: &str| -> Result<Snapshot, String> {
                let text = std::fs::read_to_string(p)
                    .map_err(|e| format!("cannot read snapshot '{p}': {e}"))?;
                Snapshot::from_json(&text).map_err(|e| format!("parsing '{p}': {e}"))
            };
            compare(&load(base_path)?, &load(cand_path)?).map(CmdOutput::ok)
        }
        other => {
            Err(format!("bench needs a sub-action: snapshot | compare (got {other:?})\n{USAGE}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{args, dispatch, tmp};

    #[test]
    fn bench_snapshot_and_compare_round_trip() {
        let path = tmp("bench_cli_snapshot.json");
        let out = dispatch(&args(&["bench", "snapshot", "--out", path, "--quick", "yes"])).unwrap();
        assert!(out.contains("\"schema\": \"ftagg-bench\""), "{out}");
        assert!(out.contains("exact.sweep.sum_cc"), "{out}");
        // A snapshot always passes a self-comparison.
        let cmp = dispatch(&args(&["bench", "compare", "--baseline", path, "--candidate", path]))
            .unwrap();
        assert!(cmp.contains("no regressions"), "{cmp}");

        // Candidates edited line by line from the snapshot file: only the
        // exact.* keys are compared.
        let text = std::fs::read_to_string(path).unwrap();
        let compare_with = |edit: &dyn Fn(&str) -> Option<String>| {
            let cand = tmp("bench_cli_candidate.json");
            let body: Vec<String> = text.lines().filter_map(edit).collect();
            std::fs::write(cand, body.join("\n")).unwrap();
            dispatch(&args(&["bench", "compare", "--baseline", path, "--candidate", cand]))
        };
        let perf_only = compare_with(&|l| {
            Some(match l.split_once("\"perf.telemetry.recorded_ratio\":") {
                Some((head, _)) => format!("{head}\"perf.telemetry.recorded_ratio\": 0.01,"),
                None => l.to_string(),
            })
        });
        assert!(perf_only.unwrap().contains("no regressions"));
        let drift = compare_with(&|l| {
            Some(if l.contains("\"exact.sweep.sum_cc\"") {
                "  \"exact.sweep.sum_cc\": 1,".into()
            } else {
                l.to_string()
            })
        });
        assert!(drift.unwrap_err().contains("exact.sweep.sum_cc changed"));
        let missing = compare_with(&|l| (!l.contains("\"exact.sweep.trials\"")).then(|| l.into()));
        assert!(missing.unwrap_err().contains("exact.sweep.trials missing"));
        std::fs::remove_file(tmp("bench_cli_candidate.json")).ok();
        std::fs::remove_file(path).ok();
        assert!(dispatch(&args(&["bench"])).is_err());
        assert!(dispatch(&args(&["bench", "mystery"])).is_err());
        assert!(dispatch(&args(&["bench", "compare", "--baseline", "/nonexistent.json"])).is_err());
    }
}
