//! `top` — one instrumented pair run with a throttled live stats line on
//! stderr (rounds/s, deliveries/s, bits so far) and a deterministic
//! telemetry summary on stdout. A flight recorder rides along; `--flight-out`
//! dumps it on exit and arms the panic hook so a crash mid-run leaves the
//! same artifact.

use crate::{count, run_observed_pair, Args, CmdOutput, Mode};
use netsim::{Event, RoundFlow, RoundStats, TraceSink, Wants};
use std::time::Instant;

const SINGLE: Mode =
    Mode::new("top without --trials", "topology crash c t seed refresh-ms ring flight-out");
const FLEET: Mode = Mode::new("top --trials", "topology crash c t seed trials threads");

pub(crate) const MODES: &[Mode] = &[SINGLE, FLEET];

pub(crate) fn cmd_top(args: &Args) -> Result<CmdOutput, String> {
    use std::fmt::Write as _;
    if args.get("trials").is_some() {
        args.check_mode(&FLEET)?;
        return top_trials(args);
    }
    args.check_mode(&SINGLE)?;
    let refresh: u64 = args.num("refresh-ms", 200)?;
    let ring = count(args, "ring", 64)? as usize;
    let flight_out = args.get("flight-out").map(std::path::PathBuf::from);

    let recorder = netsim::FlightRecorder::new(ring);
    if let Some(path) = &flight_out {
        recorder.install_panic_hook(path.clone());
    }
    let live = LiveLine {
        refresh: u128::from(refresh),
        start: Instant::now(),
        last: None,
        deliveries: 0,
        bits: 0,
    };
    let run = run_observed_pair(args, vec![Box::new(recorder.clone()), Box::new(live)], None)?;
    eprintln!();

    let stats = &run.stats;
    let mut out = String::new();
    let _ = writeln!(out, "top: AGG+VERI pair over {} nodes, {} rounds", run.n, run.rounds);
    out.push_str(&totals_line(stats));
    let _ =
        writeln!(out, "in-flight last = {}, peak = {}", stats.inflight_last, stats.inflight_peak);
    for (name, h) in [
        ("engine_round_bits", &stats.round_bits),
        ("engine_round_deliveries", &stats.round_deliveries),
    ] {
        let _ = writeln!(
            out,
            "{name:<24} p50 = {:>8}  p90 = {:>8}  p99 = {:>8}  max = {:>8}",
            h.quantile(0.5),
            h.quantile(0.9),
            h.quantile(0.99),
            h.max(),
        );
    }
    let s = recorder.stats();
    let _ = writeln!(
        out,
        "flight recorder: rounds {}..={} buffered ({} events), {} rounds evicted",
        s.oldest_round, s.newest_round, s.events_buffered, s.evicted_rounds,
    );
    if let Some(path) = &flight_out {
        if let Some(dumped) = recorder.dump_once(path)? {
            let _ = writeln!(
                out,
                "wrote flight dump ({} events) to {}",
                dumped.events_buffered,
                path.display()
            );
        }
    }
    Ok(CmdOutput::ok(out))
}

/// The live stats line: rounds/s, deliveries/s and bits so far. It is
/// wall-clock-throttled to one redraw per `refresh` ms and rate-bearing,
/// so it goes to stderr only; stdout stays byte-deterministic.
struct LiveLine {
    refresh: u128,
    start: Instant,
    last: Option<Instant>,
    deliveries: u64,
    bits: u64,
}

impl TraceSink for LiveLine {
    fn record(&mut self, _: &Event) {}

    fn end_round(&mut self, f: &RoundFlow) {
        self.deliveries += f.deliveries;
        self.bits += f.bits;
        if self.last.is_none_or(|t| t.elapsed().as_millis() >= self.refresh) {
            self.last = Some(Instant::now());
            let secs = self.start.elapsed().as_secs_f64().max(1e-9);
            eprint!(
                "\r  top: round {:>7} | {:>9.0} rounds/s | {:>11.0} deliveries/s | {:>13} bits   ",
                f.round,
                f.round as f64 / secs,
                self.deliveries as f64 / secs,
                self.bits
            );
        }
    }

    fn wants(&self) -> Wants {
        Wants::Rounds
    }
}

/// `top --trials K` — K instrumented copies of the observed pair
/// workload through the work-stealing runner: the merged round totals are
/// exactly K× the single-run meters for any `--threads`, and the
/// per-worker load table (trials, steals, busy/idle wall time, trial
/// latency quantiles) shows how the pool divided them.
fn top_trials(args: &Args) -> Result<CmdOutput, String> {
    use std::fmt::Write as _;
    let trials = count(args, "trials", 4)?;
    let threads: usize = args.num("threads", 0)?;
    let seeds: Vec<u64> = (0..trials).collect();
    let runner = netsim::Runner::new(threads);
    let (runs, tele) =
        runner.run_observed(&seeds, |_s, _| run_observed_pair(args, Vec::new(), None), None, None);
    let mut total = RoundStats::new();
    let (mut n, mut rounds): (usize, netsim::Round) = (0, 0);
    for run in runs {
        let run = run?;
        total.merge(&run.stats);
        n = run.n;
        rounds = run.rounds;
    }
    let mut out = String::new();
    let _ =
        writeln!(out, "top: {trials} AGG+VERI pair trials over {n} nodes, {rounds} rounds each");
    out.push_str(&totals_line(&total));
    let _ =
        writeln!(out, "trial latency p50 = {}us  p99 = {}us", tele.p50_micros(), tele.p99_micros());
    out.push_str("\nper-worker load (wall times vary run to run):\n");
    out.push_str(&tele.workers_table());
    if let Some(w) = tele.straggler() {
        let _ = writeln!(out, "straggler: worker {w} (busy > 2x the mean)");
    }
    Ok(CmdOutput::ok(out))
}

/// The engine totals line, as both summaries print it.
fn totals_line(stats: &RoundStats) -> String {
    format!(
        "rounds = {}, deliveries = {}, messages = {}, bits = {}\n",
        stats.rounds, stats.deliveries, stats.logical, stats.bits,
    )
}

#[cfg(test)]
mod tests {
    use crate::{args, cli, dispatch, dispatch_full, tmp};

    #[test]
    fn top_prints_the_summary_and_dumps_a_replayable_flight_recording() {
        let flight_s = tmp("top_flight.jsonl");
        let out = dispatch(&args(&[
            "top",
            "--topology",
            "grid:6x6",
            "--crash",
            "7@3",
            "--ring",
            "16",
            "--flight-out",
            flight_s,
        ]))
        .unwrap();
        assert!(out.contains("top: AGG+VERI pair over 36 nodes"), "{out}");
        assert!(out.contains("in-flight last = "), "{out}");
        assert!(out.contains("engine_round_bits"), "{out}");
        assert!(out.contains("flight recorder: rounds"), "{out}");
        assert!(out.contains("wrote flight dump"), "{out}");
        // The dump replays through the offline explain path, exit 0.
        let explain = dispatch_full(&args(&["explain", "--input", flight_s])).unwrap();
        assert_eq!(explain.code, 0, "{}", explain.text);
        assert!(explain.text.contains("explain: saved trace"), "{}", explain.text);
        std::fs::remove_file(flight_s).ok();
        // The summary table is deterministic run to run.
        let once = dispatch(&args(&["top", "--topology", "grid:6x6"])).unwrap();
        assert_eq!(once, dispatch(&args(&["top", "--topology", "grid:6x6"])).unwrap());
        assert!(dispatch(&args(&["top", "--ring", "0"])).is_err());
    }

    #[test]
    fn top_trials_mode_reports_worker_loads_and_scales_totals() {
        let single = dispatch(&args(&["top", "--topology", "grid:6x6", "--t", "1"])).unwrap();
        let bits_of = |out: &str| -> u64 {
            out.lines()
                .find(|l| l.starts_with("rounds = "))
                .and_then(|l| l.rsplit_once("bits = "))
                .and_then(|(_, v)| v.trim().parse().ok())
                .expect("summary line")
        };
        let fleet = dispatch(&cli("top --topology grid:6x6 --t 1 --trials 3 --threads 2")).unwrap();
        // Merged totals are exactly trials × the single-run meters.
        assert_eq!(bits_of(&fleet), 3 * bits_of(&single), "{fleet}");
        assert!(fleet.contains("per-worker load"), "{fleet}");
        assert!(fleet.contains("trial latency p50"), "{fleet}");
    }
}
