//! # ftagg-cli — command-line driver for the fault-tolerant aggregation
//! protocols
//!
//! A thin, dependency-free (beyond the workspace) CLI over the `ftagg`
//! library: build a topology from a textual spec, schedule crashes, pick
//! an operator and a protocol, run, and print the report. The argument
//! parsing and command logic live in this library crate so they are unit
//! tested; `src/main.rs` is a two-line shim.
//!
//! ```text
//! ftagg-cli run --topology grid:6x6 --protocol tradeoff --b 63 --c 2 \
//!     --f 8 --inputs random:100 --crash 5@40 --crash 9@60 --op sum
//! ftagg-cli topo --topology caterpillar:10x2
//! ftagg-cli trace --topology cycle:8 --crash 2@20 --t 1 --dot yes
//! ftagg-cli sweep --topology caterpillar:20x1 --f 10 --from 42 --to 336
//! ftagg-cli bounds --n 1024 --f 128 --b 42
//! ```

// The optional counting allocator is the crate's single unsafe item
// (`unsafe impl GlobalAlloc`); every other configuration keeps the
// blanket ban.
#![cfg_attr(not(feature = "alloc-telemetry"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-telemetry", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod alloc_meter;
pub mod spec;

use caaf::{Caaf, Sum};
use ftagg::baselines::{run_brute, run_folklore, run_tag_once};
use ftagg::doubling::{run_doubling, DoublingConfig};
use ftagg::pair::Tweaks;
use ftagg::tradeoff::{run_tradeoff, run_tradeoff_observed, TradeoffConfig};
use ftagg::{bounds, run_pair_observed, Instance, Observe};
use ftagg_bench::stretch_respecting_schedule;
use netsim::json::quote;
use netsim::NodeId;
use spec::OpSpec;
use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` options
/// (repeatable keys accumulate).
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// The subcommand (`run`, `topo`, `trace`, `sweep`, `bounds`, ...).
    pub command: String,
    /// The sub-action, for commands that take one (`bench snapshot`,
    /// `bench compare`).
    pub sub: Option<String>,
    /// Positional operands, for commands that take them
    /// (`diff a.jsonl b.jsonl`).
    pub positional: Vec<String>,
    opts: BTreeMap<String, Vec<String>>,
}

impl Args {
    /// Parses raw arguments (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns a message on a missing subcommand, an option without a
    /// value, or a stray positional argument.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, String> {
        let mut it = raw.into_iter().peekable();
        let command = it.next().ok_or(
            "missing subcommand (run | topo | trace | sweep | report | explain | diff | radar | bench | bounds | mine | top | telemetry | timeline)",
        )?;
        // `bench` and `telemetry` take one sub-action positional
        // (`bench snapshot | compare`, `telemetry export`).
        let sub = if command == "bench" || command == "telemetry" {
            it.next_if(|a| !a.starts_with("--"))
        } else {
            None
        };
        // `diff` takes its two trace paths as positionals.
        let takes_positionals = command == "diff";
        let mut positional = Vec::new();
        let mut opts: BTreeMap<String, Vec<String>> = BTreeMap::new();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                if takes_positionals {
                    positional.push(key);
                    continue;
                }
                return Err(format!("unexpected positional argument '{key}'"));
            };
            let value = it.next().ok_or_else(|| format!("option --{name} needs a value"))?;
            opts.entry(name.to_string()).or_default().push(value);
        }
        Ok(Args { command, sub, positional, opts })
    }

    /// Last value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.get_all(key).last().map(String::as_str)
    }

    /// All values of a repeatable `--key`.
    pub fn get_all(&self, key: &str) -> &[String] {
        debug_assert!(self.reads(key), "`{}` reads --{key}; add it to options_of", self.command);
        self.opts.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether the subcommand reads `--key` (every key passes for an
    /// unknown subcommand, which dispatch refuses anyway).
    fn reads(&self, key: &str) -> bool {
        options_of(&self.command).is_none_or(|known| known.split_whitespace().any(|k| k == key))
    }

    /// Refuses the first `--key` the subcommand does not read, naming it.
    fn check_options(&self) -> Result<(), String> {
        match self.opts.keys().find(|k| !self.reads(k)) {
            Some(k) => Err(format!("unknown option --{k} for '{}'", self.command)),
            None => Ok(()),
        }
    }

    /// Parses `--key` as a number with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} value '{v}'")),
        }
    }
}

/// The options each subcommand reads, space-separated; [`dispatch_full`]
/// refuses any other `--key`, so a typo or a stale flag fails instead of
/// running with defaults. `trace`, `top`, `telemetry` and `timeline` share
/// the pair workload's `topology crash c t seed` (see `pair_instance`).
/// `None` for an unknown subcommand.
fn options_of(command: &str) -> Option<&'static str> {
    Some(match command {
        "run" => "topology protocol op inputs crash b c f seed root",
        "topo" => "topology seed",
        "trace" => "topology crash c t seed dot jsonl",
        "sweep" => "topology f c from to points seed threads progress timeline",
        "report" => "input render top monitor sampled workers topology trials b c f seed threads",
        "explain" => "input topology b c f seed ring folded",
        "diff" | "help" | "--help" | "-h" => "",
        "radar" => "quick tolerance threads progress",
        "bench" => "out quick baseline candidate",
        "bounds" => "n f b",
        "mine" => {
            "topology inputs op seed f b c t objective protocol accept iterations coin-seeds \
             threads mutate-topology progress crash corpus-out name timeline"
        }
        "top" => "topology crash c t seed refresh-ms ring flight-out trials threads",
        "telemetry" => "topology crash c t seed format out",
        "timeline" => {
            "topology crash c t seed trials threads flows input validate min-spans min-counters \
             min-lanes out top cap"
        }
        _ => return None,
    })
}

/// A subcommand's outcome: the report text plus the process exit code
/// (`0` = success, `1` = the command ran but found violations — e.g.
/// `report --monitor` with watchdog findings, `explain` with a broken
/// invariant; argument/IO errors stay on the `Err` path, exit `2`).
#[derive(Clone, Debug)]
pub struct CmdOutput {
    /// The report text (printed to stdout by `main`).
    pub text: String,
    /// The process exit code.
    pub code: i32,
}

impl CmdOutput {
    fn ok(text: String) -> CmdOutput {
        CmdOutput { text, code: 0 }
    }
}

/// Runs a subcommand, returning the report text (printed by `main`).
/// Thin wrapper over [`dispatch_full`] that discards the exit code — the
/// binary uses `dispatch_full` so violation-detecting commands can fail
/// the process.
///
/// # Errors
///
/// Returns a usage/validation message for the user.
pub fn dispatch(args: &Args) -> Result<String, String> {
    dispatch_full(args).map(|o| o.text)
}

/// Runs a subcommand, returning the report text and exit code.
///
/// # Errors
///
/// Returns a usage/validation message for the user.
pub fn dispatch_full(args: &Args) -> Result<CmdOutput, String> {
    args.check_options()?;
    match args.command.as_str() {
        "run" => cmd_run(args).map(CmdOutput::ok),
        "topo" => cmd_topo(args).map(CmdOutput::ok),
        "trace" => cmd_trace(args).map(CmdOutput::ok),
        "sweep" => cmd_sweep(args).map(CmdOutput::ok),
        "report" => cmd_report(args),
        "explain" => cmd_explain(args),
        "diff" => cmd_diff(args),
        "radar" => cmd_radar(args),
        "bench" => cmd_bench(args).map(CmdOutput::ok),
        "bounds" => cmd_bounds(args).map(CmdOutput::ok),
        "mine" => cmd_mine(args),
        "top" => cmd_top(args).map(CmdOutput::ok),
        "telemetry" => cmd_telemetry(args).map(CmdOutput::ok),
        "timeline" => cmd_timeline(args),
        "help" | "--help" | "-h" => Ok(CmdOutput::ok(USAGE.to_string())),
        other => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    }
}

/// Usage text.
pub const USAGE: &str = "\
usage: ftagg-cli <command> [options]

commands:
  run     execute a protocol on a topology
          --topology SPEC (default grid:5x5)   --protocol tradeoff|brute|folklore|tag|doubling
          --op sum|count|max|min:T|or|and|gcd|modsum:M
          --inputs const:V|random:MAX|ramp     --crash NODE@ROUND (repeatable)
          --b B --c C --f F --seed S --root R
  topo    print topology statistics            --topology SPEC --seed S
  trace   run one AGG+VERI pair with a per-round event log
          --topology SPEC --t T --c C --seed S --crash NODE@ROUND --dot (print DOT)
          --jsonl PATH (also export the event log as versioned JSONL)
  sweep   sweep the TC budget b and print the measured tradeoff curve
          --topology SPEC --f F --c C --from B0 --to B1 --points K --seed S
          --threads T (parallel trial runner; 0 = auto, same output any T)
          --progress yes (live trials/throughput/ETA line on stderr)
          --timeline PATH (Chrome trace of the sweep itself)
  report  render a run report: phase table, CC/round histograms, top-k nodes
          live:  --topology SPEC --trials K --b B --c C --f F --seed S
                 --threads T --top K --monitor yes (run under the watchdog)
          file:  --input TRACE.jsonl [--render yes] --top K
                 [--monitor yes] (replay through the invariant watchdog)
          --sampled K (replay the events through the 1-in-K node sampler
          and print per-stratum scale-up factors, scaled estimates next
          to the exact meters, and ~95% confidence bands)
          --workers yes (append the per-worker runner load table; wall
          times vary run to run, so this is off by default)
          exits 1 when --monitor finds violations
  explain causal provenance of one Algorithm 1 run: critical path into the
          decision, per-node per-kind CC blame, coverage audit
          live:  --topology SPEC --b B --c C --f F --seed S
                 [--ring N] (bounded-memory capture; analyses get the tail)
          file:  --input TRACE.jsonl
          [--folded yes] (also emit speedscope/inferno folded stacks)
          exits 1 when an invariant cross-check fails
  diff    align two saved JSONL traces, report the first divergence
          (classified: crash-schedule | topology | protocol-message |
          decision | phase | length) and per-node / per-kind / per-phase
          metric deltas
          diff A.jsonl B.jsonl
          exits 1 on divergence; identical traces print nothing, exit 0
  radar   fit measured CC across the (N, f, b) grid against the Theorem 1
          envelope a*(f/b)*log^2(N) + b*log^2(N); flag residual outliers
          [--quick yes] [--tolerance 0.6] [--threads T] [--progress yes]
          exits 1 on envelope violations
  bench   machine-readable benchmark snapshots (BENCH_<date>.json):
          exact.* behaviour digests plus observer-overhead ratios
          bench snapshot [--out PATH] [--quick yes]
          bench compare --baseline A.json --candidate B.json
          (fails when an exact.* key changed or is missing)
  bounds  print the paper's bound curves       --n N --f F --b B
  mine    search for a worst-case oblivious adversary (schedule mutation,
          optionally topology too) and emit a JSON result with the
          convergence history; worst finds can be promoted to the
          regression corpus
          --topology SPEC --inputs SPEC --op OP --seed S
          --f F (edge-failure budget) --b B --c C
          --objective root-cc|bottleneck-cc|rounds
          --protocol tradeoff|pair:T|doubling:STAGES
          --accept hill|anneal|anneal:T0:COOLING
          --iterations K --coin-seeds K --threads T (same result any T)
          --mutate-topology yes --progress yes
          --crash NODE@ROUND (seed the search from this schedule)
          --corpus-out PATH --name NAME (write a tests/corpus entry)
          --timeline PATH (Chrome trace of the search)
          exits 1 on correctness counterexamples or watchdog violations
  top     run one AGG+VERI pair with live telemetry: a throttled stats
          line on stderr while the run is in flight, a deterministic
          summary table on stdout, and a flight recorder riding along
          --topology SPEC --c C --t T --seed S
          --crash NODE@ROUND (repeatable)   --refresh-ms MS (stderr rate)
          --ring R (flight-recorder rounds retained, default 64)
          --flight-out PATH (dump the black box on exit and on panic)
          --trials K --threads T (fleet mode: run K instrumented copies
          through the work-stealing runner and print the merged hub
          totals plus the per-worker load table)
  telemetry  export the telemetry registry of one instrumented run
          telemetry export [--format prom|json] [--out PATH]
          (run options as top: --topology --c --t --seed --crash)
  timeline  wall-clock profiler: run the instrumented AGG+VERI pair
          workload (or replay a saved trace) under a span timeline and
          export Chrome Trace Event JSON for Perfetto / chrome://tracing
          live:  --trials K --threads T (per-worker lanes; trial spans
                 wrap round ▸ stage spans; counter tracks: bits/round,
                 messages/round, in-flight, rss_mb, heap with the
                 alloc-telemetry feature; --flows yes adds sampled
                 send->deliver arrows at per-delivery tracing cost)
                 (run options as top: --topology --c --t --seed --crash)
          file:  --input TRACE.jsonl (synthetic 1us-per-event timebase)
          check: --validate PATH [--min-spans N] [--min-counters N]
                 [--min-lanes N] (structural + coverage gate, exits 1
                 on a malformed or under-covered trace)
          --out PATH (default timeline.trace.json)
          --top K (self-time table)  --cap N (span ring capacity)
";

fn cmd_run(args: &Args) -> Result<String, String> {
    let seed: u64 = args.num("seed", 0)?;
    let graph = spec::parse_topology(args.get("topology").unwrap_or("grid:5x5"), seed)?;
    let n = graph.len();
    let root = NodeId(args.num("root", 0u32)?);
    let (inputs, gen_max) = spec::parse_inputs(args.get("inputs").unwrap_or("ramp"), n, seed)?;
    let schedule = spec::parse_crashes(args.get_all("crash"))?;
    let op = spec::parse_op(args.get("op").unwrap_or("sum"))?;
    let max_input = match op {
        OpSpec::Count(_) | OpSpec::Or(_) | OpSpec::And(_) => 1,
        OpSpec::Min(m) => gen_max.min(m.top()),
        OpSpec::ModSum(m) => gen_max.min(m.modulus() - 1),
        _ => gen_max,
    };
    let inputs: Vec<u64> = inputs.into_iter().map(|v| v.min(max_input)).collect();
    let inst = Instance::new(graph, root, inputs, schedule, max_input)?;

    let c = stretch_c(args)?;
    let b: u64 = args.num("b", 21 * u64::from(c))?;
    let f: usize = args.num("f", inst.edge_failures().max(1))?;
    let protocol = args.get("protocol").unwrap_or("tradeoff").to_string();

    macro_rules! with_op {
        ($op:expr) => {
            run_protocol(&protocol, $op, &inst, b, c, f, seed)
        };
    }
    match op {
        OpSpec::Sum(o) => with_op!(&o),
        OpSpec::Count(o) => with_op!(&o),
        OpSpec::Max(o) => with_op!(&o),
        OpSpec::Min(o) => with_op!(&o),
        OpSpec::Or(o) => with_op!(&o),
        OpSpec::And(o) => with_op!(&o),
        OpSpec::Gcd(o) => with_op!(&o),
        OpSpec::ModSum(o) => with_op!(&o),
    }
}

/// Algorithm 1's preconditions on the budget and the stretch constant
/// (`c >= 1`, `b >= 21c`), checked before a run so a bad flag gets
/// [`ftagg::interval::IntervalLayout::new`]'s one-line error instead of a
/// panic. `Instance::model` clamps the diameter to at least 1, so `d = 1`
/// stands in for any topology.
fn check_layout(b: u64, c: u32) -> Result<(), String> {
    ftagg::interval::IntervalLayout::new(b, c, 1).map(|_| ())
}

/// `--c` (default 2), the stretch constant every protocol divides its
/// flooding rounds by. `c = 0` would give zero-length flooding rounds and
/// wrong answers from the zero-error protocols, so it is refused.
fn stretch_c(args: &Args) -> Result<u32, String> {
    match args.num("c", 2)? {
        0 => Err("--c must be at least 1 (c and d must be positive)".into()),
        c => Ok(c),
    }
}

fn run_protocol<C: Caaf + 'static>(
    protocol: &str,
    op: &C,
    inst: &Instance,
    b: u64,
    c: u32,
    f: usize,
    seed: u64,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} over {} nodes (d = {}, f_sched = {}), operator {}",
        protocol,
        inst.n(),
        inst.graph.diameter(),
        inst.edge_failures(),
        op.name()
    );
    let (result, correct, cc, rounds): (u64, bool, u64, u64) = match protocol {
        "tradeoff" => {
            check_layout(b, c)?;
            let r = run_tradeoff(op, inst, &TradeoffConfig { b, c, f, seed });
            let _ = writeln!(
                out,
                "pairs run = {}, fallback = {}, x = {}, t = {}",
                r.pairs_run, r.used_fallback, r.x, r.t
            );
            (r.result, r.correct, r.metrics.max_bits(), r.rounds)
        }
        "brute" => {
            let r = run_brute(op, inst, inst.schedule.clone(), c, 0);
            (r.result, r.correct, r.metrics.max_bits(), r.rounds)
        }
        "folklore" => {
            let r = run_folklore(op, inst, c, 2 * f + 2);
            let _ = writeln!(out, "attempts = {}, exhausted = {}", r.attempts, r.exhausted);
            (r.result, r.correct, r.metrics.max_bits(), r.rounds)
        }
        "tag" => {
            let r = run_tag_once(op, inst, inst.schedule.clone(), c, 0);
            let _ = writeln!(out, "clean = {}", r.clean);
            (r.result, r.correct, r.metrics.max_bits(), r.rounds)
        }
        "doubling" => {
            let r = run_doubling(op, inst, &DoublingConfig { c, max_stages: 8 });
            let _ = writeln!(out, "stages = {}, final guess = {}", r.stages, r.final_guess);
            (r.result, r.correct, r.metrics.max_bits(), r.rounds)
        }
        other => return Err(format!("unknown protocol '{other}'")),
    };
    let _ = writeln!(out, "result  = {result} (correct: {correct})");
    let _ = writeln!(out, "CC      = {cc} bits at the bottleneck node");
    let _ = writeln!(out, "rounds  = {rounds}");
    Ok(out)
}

fn cmd_trace(args: &Args) -> Result<String, String> {
    let (inst, c, t) = pair_instance(args, "cycle:8")?;
    let (graph, schedule) = (&inst.graph, &inst.schedule);
    let dot = args.get("dot").is_some();
    let (s, obs) = (schedule.clone(), Observe::trace());
    let (_, seen, eng) = run_pair_observed(&Sum, &inst, s, c, t, true, 0, Tweaks::default(), obs);
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
    Ok(out)
}

/// One instrumented AGG+VERI pair: the shared workload behind `top` and
/// `telemetry export`. The telemetry hub observes every round through the
/// engine's round stream; when `flight_rounds > 0` a [`netsim::FlightRecorder`]
/// (deliveries excluded, so the per-delivery path stays untouched) rides
/// as the engine sink, with the panic hook armed when `flight_out` names
/// a dump path.
struct ObservedRun {
    hub: std::sync::Arc<netsim::TelemetryHub>,
    flight: Option<netsim::FlightRecorderHandle>,
    n: usize,
    rounds: netsim::Round,
}

/// How often the timeline's process-wide counter tracks (RSS, heap)
/// are sampled, in rounds. The per-round tracks (bits, deliveries,
/// in-flight) are exact.
const TIMELINE_PROC_SAMPLE_ROUNDS: u64 = 64;

fn run_observed_pair(
    args: &Args,
    flight_rounds: usize,
    flight_out: Option<&std::path::Path>,
    extra: Option<Box<dyn FnMut(netsim::RoundFlow)>>,
    timeline: Option<(&netsim::Timeline, u32)>,
) -> Result<ObservedRun, String> {
    let (inst, c, t) = pair_instance(args, "grid:16x16")?;
    // The after-AGG heap sample needs AGG's last round, which costs a
    // diameter pass: only worth it with the allocation meter built in.
    let agg_end = crate::alloc_meter::live_mb().map(|_| {
        let model = inst.model(c);
        ftagg::PairParams { model, t, run_veri: true, tweaks: Tweaks::default() }.agg_rounds()
    });
    let hub = std::sync::Arc::new(netsim::TelemetryHub::new());
    let mut obs = netsim::round_observer(&hub);
    let gauges = std::sync::Arc::clone(&hub);
    let mut extra = extra;
    // With a timeline installed, every round feeds the exact counter
    // tracks and (every TIMELINE_PROC_SAMPLE_ROUNDS rounds) the
    // process-wide RSS/heap samples. One branch per round otherwise.
    let tl_counters = timeline.map(|(tl, _)| tl.clone());
    let mut proc_tick: u64 = 0;
    let rounds = Box::new(move |flow: netsim::RoundFlow| {
        obs(flow);
        if let Some(tl) = &tl_counters {
            tl.counter("bits/round", flow.bits as f64);
            tl.counter("messages/round", flow.logical as f64);
            tl.counter("in-flight", flow.deliveries as f64);
            if proc_tick.is_multiple_of(TIMELINE_PROC_SAMPLE_ROUNDS) {
                if let Some(mb) = crate::alloc_meter::rss_mb() {
                    tl.counter("rss_mb", mb);
                }
                if let Some(mb) = crate::alloc_meter::live_mb() {
                    tl.counter("heap_live_mb", mb);
                }
            }
            proc_tick += 1;
        }
        if Some(flow.round) == agg_end {
            if let Some(mb) = crate::alloc_meter::live_mb() {
                gauges.gauge("alloc_live_mb_after_agg").set(mb.round().max(0.0) as u64);
            }
        }
        if let Some(cb) = extra.as_mut() {
            cb(flow);
        }
    });
    let (sink, flight): (Option<Box<dyn netsim::TraceSink>>, _) = if flight_rounds > 0 {
        let rec = netsim::FlightRecorder::new(flight_rounds).without_delivers();
        let handle = rec.handle();
        if let Some(path) = flight_out {
            handle.install_panic_hook(path.to_path_buf());
        }
        (Some(Box::new(rec)), Some(handle))
    } else if let Some((tl, lane)) = timeline.filter(|_| args.get("flows").is_some()) {
        // `--flows yes` and no flight recorder competing for the sink
        // slot: sample causal send→deliver flows into the timeline
        // (rendered as arrows between rounds in the Perfetto view).
        // Opt-in because any sink turns on the engine's per-delivery
        // event path, which the span profiler otherwise leaves cold.
        let seed: u64 = args.num("seed", 0)?;
        (Some(Box::new(netsim::TimelineFlowSink::new(tl.clone(), lane, 64, seed))), None)
    } else {
        (None, None)
    };
    let obs = Observe { sink, rounds: Some(rounds), timeline, ..Observe::default() };
    let s = inst.schedule.clone();
    let (report, _, _) = run_pair_observed(&Sum, &inst, s, c, t, true, 0, Tweaks::default(), obs);
    if let Some(mb) = crate::alloc_meter::peak_mb() {
        hub.gauge("alloc_peak_mb").set(mb.round().max(0.0) as u64);
    }
    Ok(ObservedRun { hub, flight, n: inst.n(), rounds: report.rounds })
}

/// The pair workload `trace`, `top`, `telemetry` and `timeline` share:
/// `--topology` (default `default_topology`), `--crash` schedules, node
/// `v`'s input `v`, and the pair's `--c` and `--t`.
fn pair_instance(args: &Args, default_topology: &str) -> Result<(Instance, u32, u32), String> {
    let seed: u64 = args.num("seed", 0)?;
    let graph = spec::parse_topology(args.get("topology").unwrap_or(default_topology), seed)?;
    let n = graph.len();
    let schedule = spec::parse_crashes(args.get_all("crash"))?;
    let inputs = (0..n as u64).collect();
    let inst = Instance::new(graph, NodeId(0), inputs, schedule, n as u64)?;
    Ok((inst, stretch_c(args)?, args.num("t", 1)?))
}

/// `top` — one instrumented pair run with a throttled live stats line on
/// stderr (rounds/s, deliveries/s, bits so far) and a deterministic
/// telemetry summary on stdout. A flight recorder rides along; `--flight-out`
/// dumps it on exit and arms the panic hook so a crash mid-run leaves the
/// same artifact.
fn cmd_top(args: &Args) -> Result<String, String> {
    use std::fmt::Write as _;
    if args.get("trials").is_some() {
        return top_trials(args);
    }
    let refresh: u64 = args.num("refresh-ms", 200)?;
    let ring: usize = args.num("ring", 64)?;
    if ring == 0 {
        return Err("--ring needs a capacity >= 1".into());
    }
    let flight_out = args.get("flight-out").map(std::path::PathBuf::from);

    // The live line is wall-clock-throttled and rate-bearing, so it goes
    // to stderr only; stdout stays byte-deterministic.
    let start = std::time::Instant::now();
    let mut last: Option<std::time::Instant> = None;
    let mut deliveries: u64 = 0;
    let mut bits: u64 = 0;
    let live: Box<dyn FnMut(netsim::RoundFlow)> = Box::new(move |f| {
        deliveries += f.deliveries;
        bits += f.bits;
        if last.is_none_or(|t| t.elapsed().as_millis() >= u128::from(refresh)) {
            last = Some(std::time::Instant::now());
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            eprint!(
                "\r  top: round {:>7} | {:>9.0} rounds/s | {:>11.0} deliveries/s | {:>13} bits   ",
                f.round,
                f.round as f64 / secs,
                deliveries as f64 / secs,
                bits
            );
        }
    });
    let run = run_observed_pair(args, ring, flight_out.as_deref(), Some(live), None)?;
    eprintln!();

    let hub = &run.hub;
    let mut out = String::new();
    let _ = writeln!(out, "top: AGG+VERI pair over {} nodes, {} rounds", run.n, run.rounds);
    let _ = writeln!(
        out,
        "rounds = {}, deliveries = {}, messages = {}, bits = {}",
        hub.counter("engine_rounds_total").get(),
        hub.counter("engine_deliveries_total").get(),
        hub.counter("engine_logical_messages_total").get(),
        hub.counter("engine_bits_total").get(),
    );
    let _ = writeln!(
        out,
        "in-flight last = {}, peak = {}",
        hub.gauge("engine_inflight_last").get(),
        hub.gauge("engine_inflight_peak").get(),
    );
    for name in ["engine_round_bits", "engine_round_deliveries"] {
        let h = hub.histogram(name).snapshot();
        let _ = writeln!(
            out,
            "{name:<24} p50 = {:>8}  p90 = {:>8}  p99 = {:>8}  max = {:>8}",
            h.quantile(0.5),
            h.quantile(0.9),
            h.quantile(0.99),
            h.max(),
        );
    }
    if let Some(flight) = &run.flight {
        let s = flight.stats();
        let _ = writeln!(
            out,
            "flight recorder: rounds {}..={} buffered ({} events, {} bytes), {} rounds evicted",
            s.oldest_round, s.newest_round, s.events_buffered, s.bytes_buffered, s.evicted_rounds,
        );
        if let Some(path) = &flight_out {
            if let Some(dumped) = flight.dump_once(path)? {
                let _ = writeln!(
                    out,
                    "wrote flight dump ({} events) to {}",
                    dumped.events_buffered,
                    path.display()
                );
            }
        }
    }
    Ok(out)
}

/// `top --trials K` — K instrumented copies of the observed pair
/// workload through the work-stealing runner: the merged hub totals are
/// exactly K× the single-run meters for any `--threads`, and the
/// per-worker load table (trials, steals, busy/idle wall time, trial
/// latency quantiles) shows how the pool divided them.
fn top_trials(args: &Args) -> Result<String, String> {
    use std::fmt::Write as _;
    let trials: u64 = args.num("trials", 4)?;
    if trials == 0 {
        return Err("need --trials >= 1".into());
    }
    let threads: usize = args.num("threads", 0)?;
    let seeds: Vec<u64> = (0..trials).collect();
    let runner = netsim::Runner::new(threads);
    let (runs, tele) = runner.run_observed(
        &seeds,
        |_s, _| run_observed_pair(args, 0, None, None, None),
        None,
        None,
    );
    let total = netsim::TelemetryHub::new();
    let (mut n, mut rounds): (usize, netsim::Round) = (0, 0);
    for run in runs {
        let run = run?;
        total.merge_from(&run.hub);
        n = run.n;
        rounds = run.rounds;
    }
    let mut out = String::new();
    let _ =
        writeln!(out, "top: {trials} AGG+VERI pair trials over {n} nodes, {rounds} rounds each");
    let _ = writeln!(
        out,
        "rounds = {}, deliveries = {}, messages = {}, bits = {}",
        total.counter("engine_rounds_total").get(),
        total.counter("engine_deliveries_total").get(),
        total.counter("engine_logical_messages_total").get(),
        total.counter("engine_bits_total").get(),
    );
    let _ =
        writeln!(out, "trial latency p50 = {}us  p99 = {}us", tele.p50_micros(), tele.p99_micros());
    out.push_str("\nper-worker load (wall times vary run to run):\n");
    out.push_str(&tele.workers_table());
    if let Some(w) = tele.straggler() {
        let _ = writeln!(out, "straggler: worker {w} (busy > 2x the mean)");
    }
    Ok(out)
}

/// `telemetry export` — run the instrumented workload and export the hub's
/// registry as Prometheus-style text (`--format prom`, the default) or
/// JSON (`--format json`), to stdout or `--out PATH`.
fn cmd_telemetry(args: &Args) -> Result<String, String> {
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
                    Ok(format!("wrote telemetry ({format}) to {path}\n"))
                }
                None => Ok(text),
            }
        }
        other => Err(format!("telemetry needs a sub-action: export (got {other:?})\n{USAGE}")),
    }
}

/// `timeline` — the wall-clock profiler driver. Three modes:
///
/// - **live** (default): run `--trials` copies of the instrumented
///   AGG+VERI pair workload through the work-stealing runner with a
///   [`netsim::Timeline`] installed — trial spans on per-worker lanes,
///   round/stage/phase spans nested inside, counter tracks (bits,
///   messages, in-flight, RSS, heap when `alloc-telemetry` is on) and
///   sampled send→deliver flow arrows — then export Chrome Trace Event
///   JSON to `--out` (open in Perfetto / `chrome://tracing`).
/// - **replay** (`--input TRACE.jsonl`): rebuild the same view from a
///   saved event log on a synthetic 1 µs-per-event timebase.
/// - **validate** (`--validate PATH`): structurally check an exported
///   `.trace.json` and enforce `--min-spans/--min-counters/--min-lanes`
///   coverage floors; exits 1 when the file fails — the CI gate.
///
/// `--top K` appends a self-time table (wall time inside a span but
/// outside its direct children), the flame-graph view in text form.
fn cmd_timeline(args: &Args) -> Result<CmdOutput, String> {
    use std::fmt::Write as _;
    if let Some(path) = args.get("validate") {
        return timeline_validate(args, path);
    }
    let top_k: usize = args.num("top", 0)?;
    let cap: usize = args.num("cap", 1usize << 18)?;
    let out_path =
        args.get("out").map(str::to_string).unwrap_or_else(|| "timeline.trace.json".into());
    let tl = netsim::Timeline::with_capacity(cap);
    tl.name_lane(0, "main");

    let mut out = String::new();
    let process_name = if let Some(input) = args.get("input") {
        let (trace, _) = load_trace(input)?;
        replay_trace_into_timeline(&trace, &tl);
        let _ = writeln!(
            out,
            "timeline: replayed {} saved events from {input} (synthetic 1us-per-event timebase)",
            trace.events().len()
        );
        format!("ftagg replay {input}")
    } else {
        let trials: u64 = args.num("trials", 1)?;
        if trials == 0 {
            return Err("need --trials >= 1".into());
        }
        let threads: usize = args.num("threads", 0)?;
        let run_t0 = tl.now_ns();
        let seeds: Vec<u64> = (0..trials).collect();
        let (runs, tele) = netsim::Runner::new(threads).run_observed(
            &seeds,
            |_s, lane| run_observed_pair(args, 0, None, None, Some((&tl, lane))),
            None,
            Some(&tl),
        );
        let (mut n, mut rounds): (usize, netsim::Round) = (0, 0);
        for run in runs {
            let run = run?;
            n = run.n;
            rounds = run.rounds;
        }
        tl.record_span(
            netsim::SpanKind::Run,
            "AGG+VERI pair fleet",
            0,
            run_t0,
            tl.now_ns().saturating_sub(run_t0),
            Some(trials),
        );
        let _ = writeln!(
            out,
            "timeline: {trials} AGG+VERI pair trial(s) over {n} nodes, {rounds} rounds each, \
             {} worker(s)",
            tele.workers.len()
        );
        format!("ftagg {}", args.get("topology").unwrap_or("grid:16x16"))
    };

    let data = tl.snapshot();
    let json = netsim::chrome_trace_json(&data, &process_name);
    std::fs::write(&out_path, &json)
        .map_err(|e| format!("cannot write trace file '{out_path}': {e}"))?;
    let tracks: std::collections::BTreeSet<&str> =
        data.counters.iter().map(|c| c.track.as_str()).collect();
    let lanes: std::collections::BTreeSet<u32> = data.spans.iter().map(|s| s.lane).collect();
    let _ = writeln!(
        out,
        "wrote {out_path}: {} spans on {} lane(s), {} counter samples on {} track(s), \
         {} flow endpoint(s)",
        data.spans.len(),
        lanes.len(),
        data.counters.len(),
        tracks.len(),
        data.flows.len(),
    );
    if data.dropped_spans > 0 || data.dropped_counters > 0 {
        let _ = writeln!(
            out,
            "ring overflow: {} span(s), {} counter sample(s) evicted oldest-first \
             (raise --cap, currently {cap})",
            data.dropped_spans, data.dropped_counters,
        );
    }
    if top_k > 0 {
        let rows = netsim::self_time(&data);
        out.push_str("\nself time (wall time outside direct children):\n");
        out.push_str(&ftagg_bench::chart::self_time_table(&rows, top_k).render());
    }
    Ok(CmdOutput::ok(out))
}

/// `timeline --validate PATH`: parse + structurally check a Chrome
/// trace JSON export, then enforce the coverage floors. Structural or
/// coverage failures exit 1 (the report says why); only IO errors take
/// the usage path.
fn timeline_validate(args: &Args, path: &str) -> Result<CmdOutput, String> {
    use std::fmt::Write as _;
    let min_spans: usize = args.num("min-spans", 1)?;
    let min_counters: usize = args.num("min-counters", 0)?;
    let min_lanes: usize = args.num("min-lanes", 0)?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read --validate '{path}': {e}"))?;
    let check = match netsim::validate_chrome_trace(&text) {
        Ok(c) => c,
        Err(e) => {
            return Ok(CmdOutput { text: format!("INVALID Chrome trace '{path}': {e}\n"), code: 1 })
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "valid Chrome trace: {} events ({} duration spans on {} lane(s), {} counter track(s), \
         {} completed flow(s))",
        check.events,
        check.duration_events,
        check.lanes.len(),
        check.counter_tracks.len(),
        check.flows,
    );
    let _ = writeln!(out, "categories: {}", check.categories.join(", "));
    let _ = writeln!(out, "counter tracks: {}", check.counter_tracks.join(", "));
    let mut problems = Vec::new();
    if check.duration_events < min_spans {
        problems
            .push(format!("{} duration spans < --min-spans {min_spans}", check.duration_events));
    }
    if check.counter_tracks.len() < min_counters {
        problems.push(format!(
            "{} counter tracks < --min-counters {min_counters}",
            check.counter_tracks.len()
        ));
    }
    if check.lanes.len() < min_lanes {
        problems.push(format!("{} lanes < --min-lanes {min_lanes}", check.lanes.len()));
    }
    if problems.is_empty() {
        Ok(CmdOutput::ok(out))
    } else {
        for p in &problems {
            let _ = writeln!(out, "COVERAGE FAILED: {p}");
        }
        Ok(CmdOutput { text: out, code: 1 })
    }
}

/// Rebuilds a timeline from a saved JSONL event log on a synthetic
/// timebase (each event advances the clock 1 µs): round spans with
/// per-stage children (deliveries → absorb, broadcasts → send, crashes
/// and decisions → inbox-scatter), phase spans from the harness
/// markers, exact bits/deliveries counter tracks, and sampled
/// send→deliver flow arrows. Positions are synthetic; event counts,
/// per-round volumes and causal arrows are the trace's own.
fn replay_trace_into_timeline(trace: &netsim::Trace, tl: &netsim::Timeline) {
    use netsim::timeline::{STAGES, STAGE_ABSORB, STAGE_SCATTER, STAGE_SEND};
    use netsim::{Event, SpanKind};
    const EVENT_NS: u64 = 1_000;
    const FLOW_SAMPLE: u64 = 8;
    const FLOW_CAP: usize = 4096;
    tl.name_lane(0, "trace");
    let events = trace.events();
    let mut cursor: u64 = 0;
    let run_start = cursor;
    let mut open_phases: Vec<(String, u64)> = Vec::new();
    let mut send_at: BTreeMap<u64, u64> = BTreeMap::new();
    let mut i = 0;
    while i < events.len() {
        let round = events[i].round();
        let round_start = cursor;
        let mut stage_ns = [0u64; 5];
        let (mut bits, mut delivers) = (0u64, 0u64);
        let mut j = i;
        while j < events.len() && events[j].round() == round {
            match &events[j] {
                Event::Deliver { src, .. } => {
                    stage_ns[STAGE_ABSORB] += EVENT_NS;
                    delivers += 1;
                    if let Some(s_ns) = send_at.remove(&src.0) {
                        tl.flow_at(src.0, 0, s_ns, true);
                        tl.flow_at(src.0, 0, cursor, false);
                    }
                }
                Event::Send { bits: b, id, .. } => {
                    stage_ns[STAGE_SEND] += EVENT_NS;
                    bits += b;
                    if id.0 != 0 && id.0 % FLOW_SAMPLE == 0 && send_at.len() < FLOW_CAP {
                        send_at.insert(id.0, cursor);
                    }
                }
                Event::Crash { .. } | Event::Decide { .. } => {
                    stage_ns[STAGE_SCATTER] += EVENT_NS;
                }
                Event::PhaseEnter { label, .. } => open_phases.push((label.clone(), cursor)),
                Event::PhaseExit { .. } => {
                    if let Some((label, p0)) = open_phases.pop() {
                        tl.record_span(
                            SpanKind::Phase,
                            &label,
                            0,
                            p0,
                            cursor.saturating_sub(p0).max(EVENT_NS),
                            None,
                        );
                    }
                }
            }
            cursor += EVENT_NS;
            j += 1;
        }
        tl.record_span(SpanKind::Round, "round", 0, round_start, cursor - round_start, Some(round));
        let mut pos = round_start;
        for (st, &ns) in stage_ns.iter().enumerate() {
            if ns > 0 {
                tl.record_span(SpanKind::Stage, STAGES[st], 0, pos, ns, None);
                pos += ns;
            }
        }
        tl.counter_at("bits/round", cursor, bits as f64);
        tl.counter_at("deliveries/round", cursor, delivers as f64);
        i = j;
    }
    for (label, p0) in open_phases.into_iter().rev() {
        tl.record_span(SpanKind::Phase, &label, 0, p0, cursor.saturating_sub(p0), None);
    }
    tl.record_span(SpanKind::Run, "trace replay", 0, run_start, cursor, None);
}

/// The `report --sampled K` section: replay the trace's events through a
/// 1-in-K node-stratified [`netsim::SamplingSink`] and print, per stratum,
/// the sampled volume, the unbiased scale-up factor, the scaled bit
/// estimate next to the exact meter, and the ~95% relative confidence
/// band (`1.96 / sqrt(sampled events)`).
fn sampled_section(events: &[netsim::Event], k: u64, seed: u64) -> String {
    use netsim::TraceSink as _;
    use std::fmt::Write as _;
    // An empty tee is the null sink: the sampler still meters every
    // stratum, we just discard the admitted events.
    let mut sink = netsim::SamplingSink::new(Box::new(netsim::TeeSink::new()), k, seed);
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

/// `bench snapshot | compare` — collect or diff machine-readable
/// `BENCH_*.json` snapshots (see `ftagg_bench::snapshot`).
fn cmd_bench(args: &Args) -> Result<String, String> {
    use ftagg_bench::snapshot::{compare, default_snapshot_name, Snapshot};
    match args.sub.as_deref() {
        Some("snapshot") => {
            let quick = args.get("quick").is_some();
            let path = args.get("out").map(str::to_string).unwrap_or_else(default_snapshot_name);
            let snap = Snapshot::collect(quick);
            let json = snap.to_json();
            std::fs::write(&path, &json)
                .map_err(|e| format!("cannot write snapshot '{path}': {e}"))?;
            Ok(format!("{json}wrote {path}\n"))
        }
        Some("compare") => {
            let base_path = args.get("baseline").ok_or("bench compare needs --baseline")?;
            let cand_path = args.get("candidate").ok_or("bench compare needs --candidate")?;
            let load = |p: &str| -> Result<Snapshot, String> {
                let text = std::fs::read_to_string(p)
                    .map_err(|e| format!("cannot read snapshot '{p}': {e}"))?;
                Snapshot::from_json(&text).map_err(|e| format!("parsing '{p}': {e}"))
            };
            compare(&load(base_path)?, &load(cand_path)?)
        }
        other => {
            Err(format!("bench needs a sub-action: snapshot | compare (got {other:?})\n{USAGE}"))
        }
    }
}

fn cmd_report(args: &Args) -> Result<CmdOutput, String> {
    let top: usize = args.num("top", 3)?;
    match args.get("input") {
        Some(path) => report_from_jsonl(args, path, top),
        None => report_live(args, top),
    }
}

/// Opens and parses a saved JSONL trace, refusing empty, truncated, or
/// version-skewed files with a one-line error: the only place the CLI
/// opens a trace file (`report`, `explain` and `timeline` with `--input`,
/// and both sides of `diff`). Replay, watchdog and causal passes allocate
/// per-node and per-round ledgers sized by the largest id/round the trace
/// mentions, so corrupt traces claiming absurd dimensions are refused here
/// instead of attempting multi-gigabyte allocations. Returns the trace and
/// the largest node id it mentions.
fn load_trace(path: &str) -> Result<(netsim::Trace, u32), String> {
    use netsim::Event;
    const MAX_REPLAY_NODES: u32 = 2_097_152;
    const MAX_REPLAY_ROUND: netsim::Round = 50_000_000;
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open '{path}': {e}"))?;
    let trace = netsim::Trace::from_jsonl(std::io::BufReader::new(file))
        .map_err(|e| format!("parsing '{path}': {e}"))?;
    let max_id = trace
        .events()
        .iter()
        .filter_map(|e| match *e {
            Event::Send { node, .. } => Some(node.0),
            Event::Deliver { node, from, .. } => Some(node.0.max(from.0)),
            Event::Crash { node, .. } | Event::Decide { node, .. } => Some(node.0),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    if max_id >= MAX_REPLAY_NODES {
        return Err(format!(
            "'{path}' looks corrupt: node id {max_id} is over the replay limit ({MAX_REPLAY_NODES} nodes)"
        ));
    }
    if let Some(last) = trace.last_round() {
        if last > MAX_REPLAY_ROUND {
            return Err(format!(
                "'{path}' looks corrupt: round {last} is over the replay limit ({MAX_REPLAY_ROUND})"
            ));
        }
    }
    Ok((trace, max_id))
}

/// `diff` — align two saved traces, report the first divergence
/// (classified) plus the per-node / per-kind / per-phase metric deltas.
/// Identical executions print nothing and exit 0; any divergence or
/// metric delta exits 1 (corrupt inputs stay on the `Err` path, exit 2).
fn cmd_diff(args: &Args) -> Result<CmdOutput, String> {
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

/// `radar` — fit measured CC across the (N, f, b) grid against the
/// Theorem 1 envelope. Exits 1 on envelope-residual violations.
fn cmd_radar(args: &Args) -> Result<CmdOutput, String> {
    use ftagg_bench::radar;
    let tolerance: f64 = args.num("tolerance", radar::DEFAULT_TOLERANCE)?;
    let quick = args.get("quick").is_some();
    let threads: usize = args.num("threads", 0)?;
    let sink = netsim::ConsoleProgress::new();
    let progress: Option<&dyn netsim::ProgressSink> =
        args.get("progress").is_some().then_some(&sink);
    let cells = radar::measure_grid(quick, threads, progress);
    let fit = radar::fit_envelope(&cells)?;
    let code = i32::from(!fit.violations(tolerance).is_empty());
    Ok(CmdOutput { text: fit.render(tolerance), code })
}

/// Offline mode: reconstruct metrics from a saved JSONL trace and render
/// the same report a live run would produce. With `--monitor`, the events
/// are additionally replayed through a budget-less [`netsim::Watchdog`]
/// (crash silence, delivery causality, phase discipline); violations turn
/// the exit code to 1.
fn report_from_jsonl(args: &Args, path: &str, top: usize) -> Result<CmdOutput, String> {
    use netsim::Event;
    use std::fmt::Write as _;

    let (trace, max_id) = load_trace(path)?;
    let metrics = trace.replay_metrics();

    let mut out = String::new();
    let mut code = 0;
    if trace.truncated() {
        out.push_str(
            "warning: trace was truncated (ring buffer dropped events); \
             analyses cover only the retained tail\n",
        );
    }
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
    let _ = writeln!(
        out,
        "trace report: {} events over rounds 1..={} (schema v{})",
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
        let k: u64 = args.num("sampled", 16)?;
        if k == 0 {
            return Err("need --sampled >= 1 (1-in-K node sampling)".into());
        }
        let seed: u64 = args.num("seed", 0)?;
        out.push_str(&sampled_section(trace.events(), k, seed));
    }

    if args.get("monitor").is_some() {
        use netsim::TraceSink as _;
        let n = (max_id as usize) + 1;
        let mut dog = netsim::Watchdog::new(netsim::MonitorConfig::new(n));
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

    let mut per_node: Vec<(usize, u64)> =
        metrics.bits_per_node().iter().copied().enumerate().collect();
    per_node.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out.push_str("\ntop bottleneck nodes:\n");
    for &(v, bits) in per_node.iter().take(top).filter(|&&(_, bits)| bits > 0) {
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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
    let trials: u64 = args.num("trials", 16)?;
    if trials == 0 {
        return Err("need --trials >= 1".into());
    }
    if args.get("sampled").is_some() && args.num::<u64>("sampled", 16)? == 0 {
        return Err("need --sampled >= 1 (1-in-K node sampling)".into());
    }
    let threads: usize = args.num("threads", 1)?;

    // One instance per trial: trial i draws its schedule and inputs from
    // seed ^ i's stream on the shared topology, so the report is a
    // distribution over adversaries and inputs, not a single execution.
    let horizon = b * u64::from(graph.diameter().max(1));
    let seeds: Vec<u64> = (0..trials).map(|i| seed.wrapping_add(i)).collect();
    let make_trial = |s: u64| {
        let mut rng = StdRng::seed_from_u64(s);
        let schedule = stretch_respecting_schedule(&graph, NodeId(0), f, horizon, c, 50, &mut rng);
        let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100)).collect();
        let inst = Instance::new(graph.clone(), NodeId(0), inputs, schedule, 100)
            .expect("topology and inputs are valid by construction");
        (inst, TradeoffConfig { b, c, f, seed: s })
    };
    // The instrumented runner returns identical seed-ordered results for
    // any thread count; the per-worker breakdown rides along for the
    // summary and the `--workers` table.
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
    summary.set_workers(tele.workers.clone());

    let mut out = String::new();
    let _ = writeln!(
        out,
        "run report: {trials} tradeoff trials over {topo_spec} (N = {n}, b = {b}, c = {c}, f = {f})"
    );
    let _ = writeln!(out, "all correct = {all_correct}");
    if monitor {
        let _ = writeln!(
            out,
            "watchdog violations = {} in {}/{trials} trials (budgets, crash silence, causality, phases, envelope)",
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

    let mut per_node: Vec<(usize, u64)> = node_bits.iter().copied().enumerate().collect();
    per_node.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out.push_str("\ntop bottleneck nodes (summed over trials):\n");
    for &(v, bits) in per_node.iter().take(top).filter(|&&(_, bits)| bits > 0) {
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
    if args.get("sampled").is_some() {
        let k: u64 = args.num("sampled", 16)?;
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

/// `explain` — the causal-provenance report over one Algorithm 1 run:
/// critical path into the decision, per-node per-kind CC blame, and the
/// coverage audit, each cross-checked against the run's own meters and
/// the CAAF envelope in live mode. File mode loads a saved JSONL trace
/// (v1 traces parse with empty lineage; the conservative closure then
/// reconstructs the DAG from rounds alone).
fn cmd_explain(args: &Args) -> Result<CmdOutput, String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut code = 0;

    struct LiveRun {
        report: ftagg::tradeoff::TradeoffReport,
        inst: Instance,
    }
    let (trace, live) = match args.get("input") {
        Some(path) => {
            let (trace, _) = load_trace(path)?;
            let _ = writeln!(out, "explain: saved trace {path} ({} events)", trace.events().len());
            (trace, None)
        }
        None => {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let seed: u64 = args.num("seed", 0)?;
            let topo_spec = args.get("topology").unwrap_or("grid:5x5").to_string();
            let graph = spec::parse_topology(&topo_spec, seed)?;
            let n = graph.len();
            let c = stretch_c(args)?;
            let b: u64 = args.num("b", 42 * u64::from(c))?;
            let f: usize = args.num("f", n / 8)?;
            check_layout(b, c)?;
            // The same seeded instance construction as `report` live mode,
            // restricted to one trial, so a report anomaly can be explained
            // by rerunning its seed here.
            let horizon = b * u64::from(graph.diameter().max(1));
            let mut rng = StdRng::seed_from_u64(seed);
            let schedule =
                stretch_respecting_schedule(&graph, NodeId(0), f, horizon, c, 50, &mut rng);
            let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100)).collect();
            let inst = Instance::new(graph, NodeId(0), inputs, schedule, 100)?;
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
            // --ring N: route the events through a bounded ring buffer, as
            // a memory-capped deployment would; analyses then see the tail.
            let trace = match args.get("ring") {
                None => trace,
                Some(_) => {
                    use netsim::TraceSink as _;
                    let cap: usize = args.num("ring", 0)?;
                    if cap == 0 {
                        return Err("--ring needs a capacity >= 1".into());
                    }
                    let mut ring = netsim::RingSink::new(cap);
                    for e in trace.events() {
                        ring.record(e);
                    }
                    ring.to_trace()
                }
            };
            (trace, Some(LiveRun { report, inst }))
        }
    };

    if trace.truncated() {
        out.push_str(
            "warning: trace was truncated (ring buffer dropped events); \
             analyses cover only the retained tail\n",
        );
    }

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

fn cmd_topo(args: &Args) -> Result<String, String> {
    let seed: u64 = args.num("seed", 0)?;
    let g = spec::parse_topology(args.get("topology").ok_or("--topology required")?, seed)?;
    let degrees: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    Ok(format!(
        "nodes      = {}\nedges      = {}\ndiameter   = {}\nmin degree = {}\nmax degree = {}\nid bits    = {}\n",
        g.len(),
        g.edge_count(),
        g.diameter(),
        degrees.iter().min().unwrap(),
        degrees.iter().max().unwrap(),
        wire_id_bits(g.len()),
    ))
}

fn wire_id_bits(n: usize) -> u32 {
    wire::id_bits(n)
}

fn cmd_sweep(args: &Args) -> Result<String, String> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::fmt::Write as _;

    let seed: u64 = args.num("seed", 0)?;
    let topo_spec = args.get("topology").unwrap_or("caterpillar:20x1").to_string();
    let graph = spec::parse_topology(&topo_spec, seed)?;
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
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = to * u64::from(graph.diameter().max(1));
    let schedule = stretch_respecting_schedule(&graph, NodeId(0), f, horizon, c, 50, &mut rng);
    let inputs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100)).collect();
    let inst = Instance::new(graph, NodeId(0), inputs, schedule, 100)?;

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
        let data = tl.snapshot();
        let json = netsim::chrome_trace_json(&data, &format!("ftagg sweep {topo_spec}"));
        std::fs::write(path, &json)
            .map_err(|e| format!("cannot write timeline file '{path}': {e}"))?;
        let _ = writeln!(out, "wrote sweep timeline ({} spans) to {path}", data.spans.len());
    }
    Ok(out)
}

fn cmd_bounds(args: &Args) -> Result<String, String> {
    let n: usize = args.num("n", 1024)?;
    let f: usize = args.num("f", 64)?;
    let b: u64 = args.num("b", 42)?;
    Ok(format!(
        "N = {n}, f = {f}, b = {b}\n\
         upper (precise)  = {:.1}\n\
         upper (simple)   = {:.1}\n\
         lower (new)      = {:.2}\n\
         lower (old)      = {:.3}\n\
         brute-force CC   = {:.0}\n\
         folklore CC      = {:.0}\n\
         upper/lower gap  = {:.1} (polylog budget {:.1})\n",
        bounds::upper_bound_new(n, f, b),
        bounds::upper_bound_simple(n, f, b),
        bounds::lower_bound_new(n, f, b),
        bounds::lower_bound_old(f, b),
        bounds::brute_cc(n),
        bounds::folklore_cc(n, f),
        bounds::gap(n, f, b),
        bounds::log2c(n as f64).powi(2) * bounds::log2c(b as f64),
    ))
}

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

fn cmd_mine(args: &Args) -> Result<CmdOutput, String> {
    use ftagg_bench::search::{Acceptance, MineConfig, MineProgress, MineProtocol, Objective};
    use std::fmt::Write as _;

    let seed: u64 = args.num("seed", 0)?;
    let graph = spec::parse_topology(args.get("topology").unwrap_or("caterpillar:30x1"), seed)?;
    let n = graph.len();
    let (inputs, gen_max) = spec::parse_inputs(args.get("inputs").unwrap_or("random:32"), n, seed)?;
    let op = spec::parse_op(args.get("op").unwrap_or("sum"))?;
    let max_input = match op {
        OpSpec::Count(_) | OpSpec::Or(_) | OpSpec::And(_) => 1,
        OpSpec::Min(m) => gen_max.min(m.top()),
        OpSpec::ModSum(m) => gen_max.min(m.modulus() - 1),
        _ => gen_max,
    };
    let inputs: Vec<u64> = inputs.into_iter().map(|v| v.min(max_input)).collect();

    let c = stretch_c(args)?;
    let b: u64 = args.num("b", 21 * u64::from(c))?;
    let f: usize = args.num("f", 4)?;
    let objective = Objective::parse(args.get("objective").unwrap_or("root-cc"))?;
    let protocol = match args.get("protocol").unwrap_or("tradeoff") {
        "tradeoff" => MineProtocol::Tradeoff { f },
        "pair" => MineProtocol::Pair { t: args.num("t", 1)? },
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
    macro_rules! with_op {
        ($op:expr) => {
            mine_with_op($op, &graph, &inputs, max_input, &cfg, initial.as_ref(), progress, &name)
        };
    }
    let outcome = match op {
        OpSpec::Sum(o) => with_op!(&o),
        OpSpec::Count(o) => with_op!(&o),
        OpSpec::Max(o) => with_op!(&o),
        OpSpec::Min(o) => with_op!(&o),
        OpSpec::Or(o) => with_op!(&o),
        OpSpec::And(o) => with_op!(&o),
        OpSpec::Gcd(o) => with_op!(&o),
        OpSpec::ModSum(o) => with_op!(&o),
    };
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
        let data = tl.snapshot();
        let json = netsim::chrome_trace_json(&data, "ftagg mine");
        std::fs::write(path, &json)
            .map_err(|e| format!("cannot write timeline file '{path}': {e}"))?;
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
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(list.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn parse_options_and_repeats() {
        let a = args(&["run", "--b", "63", "--crash", "1@5", "--crash", "2@9"]);
        assert_eq!(a.command, "run");
        assert_eq!(a.get("b"), Some("63"));
        assert_eq!(a.get_all("crash"), &["1@5".to_string(), "2@9".to_string()]);
        assert_eq!(a.num("b", 0u64).unwrap(), 63);
        assert_eq!(a.num("c", 7u32).unwrap(), 7);
    }

    #[test]
    fn parse_errors() {
        assert!(Args::parse(Vec::<String>::new().into_iter()).is_err());
        assert!(Args::parse(["run".into(), "stray".into()].into_iter()).is_err());
        assert!(Args::parse(["run".into(), "--b".into()].into_iter()).is_err());
        let a = args(&["run", "--b", "xyz"]);
        assert!(a.num("b", 0u64).is_err());
    }

    #[test]
    fn topo_command() {
        let out = dispatch(&args(&["topo", "--topology", "grid:4x4"])).unwrap();
        assert!(out.contains("nodes      = 16"));
        assert!(out.contains("diameter   = 6"));
    }

    #[test]
    fn bounds_command() {
        let out = dispatch(&args(&["bounds", "--n", "256", "--f", "32", "--b", "42"])).unwrap();
        assert!(out.contains("N = 256"));
        assert!(out.contains("upper (simple)"));
    }

    #[test]
    fn run_command_all_protocols() {
        for proto in ["tradeoff", "brute", "folklore", "tag", "doubling"] {
            let out = dispatch(&args(&[
                "run",
                "--topology",
                "grid:4x4",
                "--protocol",
                proto,
                "--inputs",
                "const:2",
                "--crash",
                "5@40",
                "--b",
                "63",
            ]))
            .unwrap();
            assert!(out.contains("result  = "), "{proto}: {out}");
            assert!(out.contains("correct: true"), "{proto} must be correct here: {out}");
        }
    }

    #[test]
    fn run_command_operators() {
        for op in ["sum", "count", "max", "min:100", "or", "and", "gcd", "modsum:13"] {
            let out = dispatch(&args(&[
                "run",
                "--topology",
                "cycle:8",
                "--op",
                op,
                "--inputs",
                "random:50",
            ]))
            .unwrap();
            assert!(out.contains("result  = "), "{op}: {out}");
        }
    }

    #[test]
    fn sweep_command() {
        let out = dispatch(&args(&[
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
        ]))
        .unwrap();
        assert!(out.contains("measured CC"), "{out}");
        assert_eq!(out.matches("true").count(), 2, "{out}");
        assert!(dispatch(&args(&["sweep", "--from", "5"])).is_err());
    }

    #[test]
    fn sweep_output_is_identical_across_thread_counts() {
        let sweep = |threads: &str| {
            dispatch(&args(&[
                "sweep",
                "--topology",
                "grid:4x4",
                "--f",
                "3",
                "--from",
                "42",
                "--to",
                "126",
                "--points",
                "3",
                "--threads",
                threads,
            ]))
            .unwrap()
        };
        let serial = sweep("1");
        assert_eq!(sweep("2"), serial);
        assert_eq!(sweep("8"), serial);
    }

    #[test]
    fn trace_command() {
        let out = dispatch(&args(&[
            "trace",
            "--topology",
            "cycle:6",
            "--crash",
            "2@20",
            "--t",
            "1",
            "--dot",
            "yes",
        ]))
        .unwrap();
        assert!(out.contains("AGG outcome"));
        assert!(out.contains("-- round 1 --"));
        assert!(out.contains("graph execution {"));
        assert!(out.contains("fillcolor=red"));
    }

    #[test]
    fn report_live_mode() {
        let report = |threads: &str| {
            dispatch(&args(&[
                "report",
                "--topology",
                "grid:4x4",
                "--trials",
                "4",
                "--b",
                "42",
                "--c",
                "2",
                "--f",
                "3",
                "--threads",
                threads,
            ]))
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
    fn trace_jsonl_roundtrips_into_file_report() {
        let dir = std::env::temp_dir().join("ftagg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace_jsonl_roundtrip.jsonl");
        let path = path.to_str().unwrap();
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

    #[test]
    fn report_live_monitored_reports_zero_violations() {
        let out = dispatch(&args(&[
            "report",
            "--topology",
            "grid:4x4",
            "--trials",
            "3",
            "--b",
            "42",
            "--f",
            "3",
            "--monitor",
            "yes",
        ]))
        .unwrap();
        assert!(out.contains("watchdog violations = 0 in 0/3 trials"), "{out}");
    }

    #[test]
    fn report_rejects_corrupt_jsonl_with_one_line_errors() {
        let dir = std::env::temp_dir().join("ftagg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let check = |name: &str, content: &str, needle: &str| {
            let path = dir.join(name);
            std::fs::write(&path, content).unwrap();
            let err = dispatch(&args(&["report", "--input", path.to_str().unwrap()])).unwrap_err();
            assert!(!err.contains('\n'), "error must be one line: {err:?}");
            assert!(err.contains(needle), "{name}: {err}");
            std::fs::remove_file(&path).ok();
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
        let out = dispatch_full(&args(&[
            "report",
            "--topology",
            "grid:4x4",
            "--trials",
            "2",
            "--b",
            "42",
            "--f",
            "3",
            "--monitor",
            "yes",
        ]))
        .unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(!out.text.contains("MONITOR FAILED"), "{}", out.text);

        let dir = std::env::temp_dir().join("ftagg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();

        // Offline, clean: a real trace replays through the watchdog clean.
        let clean = dir.join("clean_monitor.jsonl");
        let clean = clean.to_str().unwrap();
        dispatch(&args(&["trace", "--topology", "cycle:6", "--jsonl", clean])).unwrap();
        let out = dispatch_full(&args(&["report", "--input", clean, "--monitor", "yes"])).unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("watchdog: clean"), "{}", out.text);
        std::fs::remove_file(clean).ok();

        // Offline, violating: a delivery with no matching send trips the
        // causality invariant; one-line summary, exit code 1.
        let bad = dir.join("violating_monitor.jsonl");
        std::fs::write(
            &bad,
            "{\"schema\":\"ftagg-trace\",\"v\":2}\n\
             {\"ev\":\"deliver\",\"r\":2,\"n\":1,\"from\":0,\"bits\":8,\"id\":1,\"src\":7}\n",
        )
        .unwrap();
        let out =
            dispatch_full(&args(&["report", "--input", bad.to_str().unwrap(), "--monitor", "yes"]))
                .unwrap();
        assert_eq!(out.code, 1, "{}", out.text);
        let line = out
            .text
            .lines()
            .find(|l| l.starts_with("MONITOR FAILED"))
            .expect("one-line violation summary");
        assert!(line.contains("1 violation(s)"), "{line}");
        assert!(line.contains("first:"), "{line}");
        std::fs::remove_file(&bad).ok();

        // Without --monitor the same file reports fine with exit 0.
        let bad2 = dir.join("violating_monitor2.jsonl");
        std::fs::write(
            &bad2,
            "{\"schema\":\"ftagg-trace\",\"v\":2}\n\
             {\"ev\":\"deliver\",\"r\":2,\"n\":1,\"from\":0,\"bits\":8,\"id\":1,\"src\":7}\n",
        )
        .unwrap();
        let out = dispatch_full(&args(&["report", "--input", bad2.to_str().unwrap()])).unwrap();
        assert_eq!(out.code, 0);
        std::fs::remove_file(&bad2).ok();
    }

    #[test]
    fn explain_live_file_and_ring_modes() {
        // Live: all three analyses render, all cross-checks pass, exit 0.
        let live = dispatch_full(&args(&[
            "explain",
            "--topology",
            "grid:4x4",
            "--b",
            "42",
            "--c",
            "2",
            "--f",
            "3",
            "--seed",
            "5",
            "--folded",
            "yes",
        ]))
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
        let dir = std::env::temp_dir().join("ftagg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("explain_file.jsonl");
        let path = path.to_str().unwrap();
        dispatch(&args(&["trace", "--topology", "cycle:6", "--jsonl", path])).unwrap();
        let file = dispatch_full(&args(&["explain", "--input", path])).unwrap();
        assert_eq!(file.code, 0, "{}", file.text);
        assert!(file.text.contains("explain: saved trace"), "{}", file.text);
        assert!(file.text.contains("blame partition check: OK"), "{}", file.text);
        std::fs::remove_file(path).ok();
        assert!(dispatch_full(&args(&["explain", "--input", "/nonexistent/x.jsonl"])).is_err());

        // Ring capture: a tiny capacity truncates, the warning is visible,
        // and the partition check steps aside instead of lying.
        let ring = dispatch_full(&args(&[
            "explain",
            "--topology",
            "grid:4x4",
            "--b",
            "42",
            "--c",
            "2",
            "--f",
            "3",
            "--seed",
            "5",
            "--ring",
            "10",
        ]))
        .unwrap();
        assert!(ring.text.contains("warning: trace was truncated"), "{}", ring.text);
        assert!(
            ring.text.contains("blame partition check: skipped (truncated trace)"),
            "{}",
            ring.text
        );
        assert!(dispatch_full(&args(&["explain", "--topology", "cycle:6", "--ring", "0"])).is_err());
    }

    #[test]
    fn bench_snapshot_and_compare_round_trip() {
        let dir = std::env::temp_dir().join("ftagg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench_cli_snapshot.json");
        let path = path.to_str().unwrap();
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
            let cand = dir.join("bench_cli_candidate.json");
            let body: Vec<String> = text.lines().filter_map(edit).collect();
            std::fs::write(&cand, body.join("\n")).unwrap();
            let cand = cand.to_str().unwrap();
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
        std::fs::remove_file(dir.join("bench_cli_candidate.json")).ok();
        std::fs::remove_file(path).ok();
        assert!(dispatch(&args(&["bench"])).is_err());
        assert!(dispatch(&args(&["bench", "mystery"])).is_err());
        assert!(dispatch(&args(&["bench", "compare", "--baseline", "/nonexistent.json"])).is_err());
    }

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
        let dir = std::env::temp_dir().join("ftagg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("diff_base.jsonl");
        let a = a.to_str().unwrap();
        let b = dir.join("diff_crash.jsonl");
        let b = b.to_str().unwrap();
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
        let dir = std::env::temp_dir().join("ftagg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("diff_good.jsonl");
        let good = good.to_str().unwrap();
        dispatch(&args(&["trace", "--topology", "cycle:6", "--jsonl", good])).unwrap();
        let check = |name: &str, content: &str, needle: &str| {
            let path = dir.join(name);
            std::fs::write(&path, content).unwrap();
            // Corrupt on either side must fail identically.
            for pair in [[path.to_str().unwrap(), good], [good, path.to_str().unwrap()]] {
                let err = dispatch(&args(&["diff", pair[0], pair[1]])).unwrap_err();
                assert!(!err.contains('\n'), "error must be one line: {err:?}");
                assert!(err.contains(needle), "{name}: {err}");
            }
            std::fs::remove_file(&path).ok();
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

    #[test]
    fn radar_live_quick_fits_the_envelope() {
        let out = dispatch_full(&args(&["radar", "--quick", "yes", "--threads", "2"])).unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("radar: CC ~"), "{}", out.text);
        assert!(out.text.contains("all 4 residuals within"), "{}", out.text);
        // An absurdly tight tolerance flags violations and exits 1.
        let tight = dispatch_full(&args(&[
            "radar",
            "--quick",
            "yes",
            "--threads",
            "2",
            "--tolerance",
            "0.0001",
        ]))
        .unwrap();
        assert_eq!(tight.code, 1, "{}", tight.text);
        assert!(tight.text.contains("VIOLATION"), "{}", tight.text);
        // stdout is identical with --progress (the sink writes to stderr).
        let progressed = dispatch_full(&args(&[
            "radar",
            "--quick",
            "yes",
            "--threads",
            "2",
            "--progress",
            "yes",
        ]))
        .unwrap();
        assert_eq!(progressed.text, out.text);
        assert_eq!(progressed.code, 0);
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

    #[test]
    fn mine_emits_json_and_is_deterministic_across_threads() {
        let mine = |threads: &str| {
            dispatch_full(&args(&[
                "mine",
                "--topology",
                "caterpillar:6x1",
                "--f",
                "4",
                "--b",
                "42",
                "--iterations",
                "6",
                "--coin-seeds",
                "1",
                "--seed",
                "7",
                "--threads",
                threads,
            ]))
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
        let dir = std::env::temp_dir().join("ftagg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mine_corpus.corpus");
        let path_s = path.to_str().unwrap();
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
        let text = std::fs::read_to_string(&path).unwrap();
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
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mine_other_protocols_objectives_and_errors() {
        for (proto, obj) in [("pair:2", "bottleneck-cc"), ("doubling:5", "rounds")] {
            let out = dispatch_full(&args(&[
                "mine",
                "--topology",
                "caterpillar:5x1",
                "--f",
                "3",
                "--iterations",
                "3",
                "--seed",
                "1",
                "--threads",
                "1",
                "--protocol",
                proto,
                "--objective",
                obj,
            ]))
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

    #[test]
    fn top_prints_the_summary_and_dumps_a_replayable_flight_recording() {
        let dir = std::env::temp_dir().join("ftagg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let flight = dir.join("top_flight.jsonl");
        let flight_s = flight.to_str().unwrap();
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
        std::fs::remove_file(&flight).ok();
        // The summary table is deterministic run to run.
        let once = dispatch(&args(&["top", "--topology", "grid:6x6"])).unwrap();
        assert_eq!(once, dispatch(&args(&["top", "--topology", "grid:6x6"])).unwrap());
        assert!(dispatch(&args(&["top", "--ring", "0"])).is_err());
    }

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
        let dir = std::env::temp_dir().join("ftagg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("telemetry_export.prom");
        let path_s = path.to_str().unwrap();
        let mut out_args = base.to_vec();
        out_args.extend_from_slice(&["--out", path_s]);
        let out = dispatch(&args(&out_args)).unwrap();
        assert!(out.contains("wrote telemetry"), "{out}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), prom);
        std::fs::remove_file(&path).ok();

        assert!(dispatch(&args(&["telemetry"])).is_err());
        assert!(dispatch(&args(&["telemetry", "publish"])).is_err());
        assert!(dispatch(&args(&["telemetry", "export", "--format", "xml"])).is_err());
    }

    #[test]
    fn report_sampled_prints_factors_and_bands() {
        // File mode: k=1 admits everything, so every stratum's estimate
        // equals its exact meter.
        let dir = std::env::temp_dir().join("ftagg-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report_sampled.jsonl");
        let path_s = path.to_str().unwrap();
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
        std::fs::remove_file(&path).ok();

        // Live mode: the section renders after the trial summary.
        let out = dispatch(&args(&[
            "report",
            "--topology",
            "grid:4x4",
            "--trials",
            "2",
            "--b",
            "42",
            "--f",
            "3",
            "--sampled",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("run report: 2 tradeoff trials"), "{out}");
        assert!(out.contains("sampled telemetry (1-in-4"), "{out}");
        assert!(out.contains('%'), "{out}");
    }

    #[test]
    fn unknown_bits_error_cleanly() {
        assert!(dispatch(&args(&["fly"])).is_err());
        assert!(dispatch(&args(&["run", "--protocol", "magic"])).is_err());
        assert!(dispatch(&args(&["run", "--topology", "blob:3"])).is_err());
        let help = dispatch(&args(&["help"])).unwrap();
        assert!(help.contains("usage"));
    }

    #[test]
    fn report_workers_table_is_gated_and_summary_carries_workers() {
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
        let fleet = dispatch(&args(&[
            "top",
            "--topology",
            "grid:6x6",
            "--t",
            "1",
            "--trials",
            "3",
            "--threads",
            "2",
        ]))
        .unwrap();
        // Merged totals are exactly trials × the single-run meters.
        assert_eq!(bits_of(&fleet), 3 * bits_of(&single), "{fleet}");
        assert!(fleet.contains("per-worker load"), "{fleet}");
        assert!(fleet.contains("trial latency p50"), "{fleet}");
    }
}
