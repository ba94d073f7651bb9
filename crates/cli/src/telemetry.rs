//! `telemetry export` — run the instrumented workload and export the hub's
//! registry as Prometheus-style text (`--format prom`, the default) or
//! JSON (`--format json`), to stdout or `--out PATH`.

use crate::{run_observed_pair, Args, CmdOutput, Mode, USAGE};

pub(crate) const MODES: &[Mode] =
    &[Mode::new("telemetry export", "topology crash c t seed format out")];

pub(crate) fn cmd_telemetry(args: &Args) -> Result<CmdOutput, String> {
    match args.sub.as_deref() {
        Some("export") => {
            let format = args.get("format").unwrap_or("prom");
            let run = run_observed_pair(args, 0, None, None, None)?;
            let text = match format {
                "prom" | "prometheus" => run.hub.render_prometheus(),
                "json" => run.hub.render_json(),
                other => return Err(format!("unknown --format '{other}' (prom | json)")),
            };
            match args.get("out") {
                Some(path) => {
                    std::fs::write(path, &text)
                        .map_err(|e| format!("cannot write telemetry file '{path}': {e}"))?;
                    Ok(CmdOutput::ok(format!("wrote telemetry ({format}) to {path}\n")))
                }
                None => Ok(CmdOutput::ok(text)),
            }
        }
        other => Err(format!("telemetry needs a sub-action: export (got {other:?})\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use crate::{args, dispatch, tmp};

    #[test]
    fn telemetry_export_prom_and_json() {
        let base = ["telemetry", "export", "--topology", "grid:5x5"];
        let prom = dispatch(&args(&base)).unwrap();
        assert!(prom.contains("# TYPE engine_bits_total counter"), "{prom}");
        assert!(prom.contains("engine_round_bits{quantile=\"0.99\"}"), "{prom}");
        assert!(prom.contains("engine_inflight_peak"), "{prom}");
        let mut json_args = base.to_vec();
        json_args.extend_from_slice(&["--format", "json"]);
        let json = dispatch(&args(&json_args)).unwrap();
        assert!(json.contains("\"counters\""), "{json}");
        assert!(json.contains("\"engine_deliveries_total\""), "{json}");
        assert!(json.contains("\"p99\""), "{json}");

        // --out writes the file instead of stdout.
        let path_s = tmp("telemetry_export.prom");
        let mut out_args = base.to_vec();
        out_args.extend_from_slice(&["--out", path_s]);
        let out = dispatch(&args(&out_args)).unwrap();
        assert!(out.contains("wrote telemetry"), "{out}");
        assert_eq!(std::fs::read_to_string(path_s).unwrap(), prom);
        std::fs::remove_file(path_s).ok();

        assert!(dispatch(&args(&["telemetry"])).is_err());
        assert!(dispatch(&args(&["telemetry", "publish"])).is_err());
        assert!(dispatch(&args(&["telemetry", "export", "--format", "xml"])).is_err());
    }
}
