//! # ftagg-cli — command-line driver for the fault-tolerant aggregation
//! protocols
//!
//! A thin, dependency-free (beyond the workspace) CLI over the `ftagg`
//! library: build a topology from a textual spec, schedule crashes, pick
//! an operator and a protocol, run, and print the report. The argument
//! parsing and command logic live in this library crate so they are unit
//! tested; `src/main.rs` is a two-line shim.
//!
//! Each subcommand is one module (`run`, `topo`, `trace`, `sweep`,
//! `report`, `explain`, `diff`, `radar`, `bench`, `bounds`, `mine`,
//! `top`, `telemetry`, `timeline`) holding its handler, the options each
//! of its modes reads, and its unit tests. This file keeps [`Args`], the
//! command table, [`dispatch_full`], [`USAGE`] and the helpers several
//! subcommands share; [`spec`] parses the textual specs.
//!
//! ```text
//! ftagg-cli run --topology grid:6x6 --protocol tradeoff --b 63 --c 2 \
//!     --f 8 --inputs random:100 --crash 5@40 --crash 9@60 --op sum
//! ftagg-cli topo --topology caterpillar:10x2
//! ftagg-cli trace --topology cycle:8 --crash 2@20 --t 1 --dot yes
//! ftagg-cli sweep --topology caterpillar:20x1 --f 10 --from 42 --to 336
//! ftagg-cli bounds --n 1024 --f 128 --b 42
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench;
mod bounds;
mod diff;
mod explain;
mod mine;
mod radar;
mod report;
mod run;
pub mod spec;
mod sweep;
mod telemetry;
mod timeline;
mod top;
mod topo;
mod trace;

use caaf::Sum;
use ftagg::pair::Tweaks;
use ftagg::{run_pair_observed, Instance, Observe};
use ftagg_bench::stretch_respecting_schedule;
use netsim::{Graph, NodeId, Round};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

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
        let command = it.next().ok_or_else(|| {
            let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
            format!("missing subcommand ({})", names.join(" | "))
        })?;
        let operands = lookup(&command).map_or(Operands::None, |c| c.operands);
        let sub =
            if operands == Operands::Action { it.next_if(|a| !a.starts_with("--")) } else { None };
        let mut positional = Vec::new();
        let mut opts: BTreeMap<String, Vec<String>> = BTreeMap::new();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                if operands == Operands::Paths {
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
        debug_assert!(
            self.reads(key),
            "`{}` reads --{key}; add it to the options of one of its modes",
            self.command
        );
        self.opts.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether the subcommand reads `--key` in any of its modes (every key
    /// passes for an unknown subcommand, which dispatch refuses anyway).
    fn reads(&self, key: &str) -> bool {
        lookup(&self.command).is_none_or(|c| c.modes.iter().any(|m| m.reads(key)))
    }

    /// Refuses the first `--key` the subcommand does not read, naming it.
    fn check_options(&self) -> Result<(), String> {
        match self.opts.keys().find(|k| !self.reads(k)) {
            Some(k) => Err(format!("unknown option --{k} for '{}'", self.command)),
            None => Ok(()),
        }
    }

    /// Refuses the first `--key` that `mode` does not read. A subcommand
    /// with several modes calls this once it has picked one, so an option
    /// only another mode reads fails instead of being dropped.
    fn check_mode(&self, mode: &Mode) -> Result<(), String> {
        match self.opts.keys().find(|k| !mode.reads(k)) {
            Some(k) => Err(format!("option --{k} is not read by {}", mode.name)),
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

/// One entry of the command table: a subcommand's name, the options each
/// of its modes reads (one mode for most), the operands it takes and its
/// handler. [`dispatch_full`] refuses any `--key` no mode reads, so a typo
/// or a stale flag fails instead of running with defaults.
struct Command {
    name: &'static str,
    modes: &'static [Mode],
    operands: Operands,
    run: fn(&Args) -> Result<CmdOutput, String>,
}

impl Command {
    const fn new(
        name: &'static str,
        modes: &'static [Mode],
        operands: Operands,
        run: fn(&Args) -> Result<CmdOutput, String>,
    ) -> Command {
        Command { name, modes, operands, run }
    }
}

/// One way to run a subcommand (`report --input`, `top --trials`, ...)
/// and the options it reads, space-separated.
struct Mode {
    name: &'static str,
    options: &'static str,
}

impl Mode {
    const fn new(name: &'static str, options: &'static str) -> Mode {
        Mode { name, options }
    }

    fn reads(&self, key: &str) -> bool {
        self.options.split_whitespace().any(|k| k == key)
    }
}

/// The non-option arguments a subcommand takes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Operands {
    None,
    /// One sub-action right after the subcommand (`bench snapshot`).
    Action,
    /// Any number of positionals (`diff A.jsonl B.jsonl`).
    Paths,
}

/// The subcommands, in the order the missing-subcommand error lists them.
const COMMANDS: &[Command] = &[
    Command::new("run", run::MODES, Operands::None, run::cmd_run),
    Command::new("topo", topo::MODES, Operands::None, topo::cmd_topo),
    Command::new("trace", trace::MODES, Operands::None, trace::cmd_trace),
    Command::new("sweep", sweep::MODES, Operands::None, sweep::cmd_sweep),
    Command::new("report", report::MODES, Operands::None, report::cmd_report),
    Command::new("explain", explain::MODES, Operands::None, explain::cmd_explain),
    Command::new("diff", diff::MODES, Operands::Paths, diff::cmd_diff),
    Command::new("radar", radar::MODES, Operands::None, radar::cmd_radar),
    Command::new("bench", bench::MODES, Operands::Action, bench::cmd_bench),
    Command::new("bounds", bounds::MODES, Operands::None, bounds::cmd_bounds),
    Command::new("mine", mine::MODES, Operands::None, mine::cmd_mine),
    Command::new("top", top::MODES, Operands::None, top::cmd_top),
    Command::new("telemetry", telemetry::MODES, Operands::Action, telemetry::cmd_telemetry),
    Command::new("timeline", timeline::MODES, Operands::None, timeline::cmd_timeline),
];

/// `help` (also `--help` and `-h`): prints [`USAGE`]; reads no option.
const HELP: Command = Command::new("help", &[Mode::new("help", "")], Operands::None, |_| {
    Ok(CmdOutput::ok(USAGE.to_string()))
});

fn lookup(name: &str) -> Option<&'static Command> {
    match name {
        "help" | "--help" | "-h" => Some(&HELP),
        _ => COMMANDS.iter().find(|c| c.name == name),
    }
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
    let Some(command) = lookup(&args.command) else {
        return Err(format!("unknown subcommand '{}'\n{USAGE}", args.command));
    };
    args.check_options()?;
    (command.run)(args)
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
                 [--ring N] (analyses get the last N events; the whole
                 trace is recorded first, so memory is not bounded)
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
          through the work-stealing runner and print the merged round
          totals plus the per-worker load table)
  telemetry  export the round meters of one instrumented run
          telemetry export [--format prom|json] [--out PATH]
          (run options as top: --topology --c --t --seed --crash)
  timeline  wall-clock profiler: run the instrumented AGG+VERI pair
          workload (or replay a saved trace) under a span timeline and
          export Chrome Trace Event JSON for Perfetto / chrome://tracing
          live:  --trials K --threads T (per-worker lanes; trial spans
                 wrap round ▸ stage spans; counter tracks: bits/round,
                 messages/round, in-flight, rss_mb; --flows yes adds
                 sampled send->deliver arrows at per-delivery tracing cost)
                 (run options as top: --topology --c --t --seed --crash)
          file:  --input TRACE.jsonl (synthetic 1us-per-event timebase)
          check: --validate PATH [--min-spans N] [--min-counters N]
                 [--min-lanes N] (structural + coverage gate, exits 1
                 on a malformed or under-covered trace)
          --out PATH (default timeline.trace.json)
          --top K (self-time table)  --cap N (span ring capacity)
";

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

/// `--key` (default `default`) as a count that must be at least 1:
/// `--trials`, `--ring` and `--sampled`, each refused at 0 in its own
/// words.
fn count(args: &Args, key: &str, default: u64) -> Result<u64, String> {
    match args.num(key, default)? {
        0 => Err(match key {
            "ring" => "--ring needs a capacity >= 1".into(),
            "sampled" => "need --sampled >= 1 (1-in-K node sampling)".into(),
            _ => format!("need --{key} >= 1"),
        }),
        k => Ok(k),
    }
}

/// One Algorithm 1 instance, as `report`, `explain` and `sweep` draw it:
/// a schedule of about `f` edge failures over `horizon` rounds that
/// respects the `c·d` stretch (50 tries), then inputs in `0..100`, both
/// from `seed`'s stream, rooted at node 0. The caller passes the horizon
/// so it computes the diameter once per run.
fn alg1_instance(
    graph: Graph,
    f: usize,
    c: u32,
    horizon: Round,
    seed: u64,
) -> Result<Instance, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let schedule = stretch_respecting_schedule(&graph, NodeId(0), f, horizon, c, 50, &mut rng);
    let inputs: Vec<u64> = (0..graph.len()).map(|_| rng.gen_range(0..100)).collect();
    Instance::new(graph, NodeId(0), inputs, schedule, 100)
}

/// Exports `tl` as Chrome Trace Event JSON to `path` (the `timeline`
/// file, `sweep --timeline`, `mine --timeline`) and returns the snapshot
/// it wrote, for the caller's note.
fn write_chrome_trace(
    tl: &netsim::Timeline,
    process_name: &str,
    path: &str,
) -> Result<netsim::TimelineData, String> {
    let data = tl.snapshot();
    std::fs::write(path, netsim::chrome_trace_json(&data, process_name))
        .map_err(|e| format!("cannot write Chrome trace '{path}': {e}"))?;
    Ok(data)
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
    if max_id as usize >= spec::MAX_NODES {
        return Err(format!(
            "'{path}' looks corrupt: node id {max_id} is over the replay limit ({} nodes)",
            spec::MAX_NODES
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

/// The warning `report --input` and `explain` print over a trace a ring
/// buffer cut short.
fn truncation_warning(trace: &netsim::Trace) -> &'static str {
    if trace.truncated() {
        "warning: trace was truncated (ring buffer dropped events); \
         analyses cover only the retained tail\n"
    } else {
        ""
    }
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

/// One instrumented AGG+VERI pair: the shared workload behind `top`,
/// `telemetry export` and `timeline`. A [`netsim::RoundStats`] meters
/// every round; `sinks` ride after it in order, and `timeline`, when
/// given, records the run's round, stage and phase spans.
struct ObservedRun {
    stats: netsim::RoundStats,
    n: usize,
    rounds: Round,
}

fn run_observed_pair(
    args: &Args,
    sinks: Vec<Box<dyn netsim::TraceSink>>,
    timeline: Option<(&netsim::Timeline, u32)>,
) -> Result<ObservedRun, String> {
    let (inst, c, t) = pair_instance(args, "grid:16x16")?;
    let stats = Rc::new(RefCell::new(netsim::RoundStats::new()));
    let mut all: Vec<Box<dyn netsim::TraceSink>> = vec![Box::new(Rc::clone(&stats))];
    all.extend(sinks);
    let obs = Observe { sinks: all, timeline, ..Observe::default() };
    let (report, _, _) = run_pair_observed(&Sum, &inst, c, t, true, Tweaks::default(), obs);
    Ok(ObservedRun { stats: stats.take(), n: inst.n(), rounds: report.rounds })
}

/// Test shorthand: parses a literal argument list.
#[cfg(test)]
fn args(list: &[&str]) -> Args {
    Args::parse(list.iter().map(|s| s.to_string())).unwrap()
}

/// Test shorthand: parses a command line written as one string, split on
/// whitespace.
#[cfg(test)]
fn cli(line: &str) -> Args {
    Args::parse(line.split_whitespace().map(String::from)).unwrap()
}

/// Test shorthand: the path of `name` in the unit tests' directory under
/// the system temp dir, leaked so it reads as the `&str` argument lists
/// take.
#[cfg(test)]
fn tmp(name: &str) -> &'static str {
    let dir = std::env::temp_dir().join("ftagg-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string().leak()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn unknown_bits_error_cleanly() {
        assert!(dispatch(&args(&["fly"])).is_err());
        assert!(dispatch(&args(&["run", "--protocol", "magic"])).is_err());
        assert!(dispatch(&args(&["run", "--topology", "blob:3"])).is_err());
        let help = dispatch(&args(&["help"])).unwrap();
        assert!(help.contains("usage"));
    }

    #[test]
    fn usage_documents_exactly_the_options_each_command_reads() {
        // Each command's block starts at a line indented by two spaces
        // that begins with its name; continuation lines are indented
        // further.
        let mut blocks: BTreeMap<&str, String> = BTreeMap::new();
        let mut current = None;
        for line in USAGE.lines() {
            if let Some(head) = line.strip_prefix("  ").filter(|l| !l.starts_with(' ')) {
                current = head.split_whitespace().next();
            }
            if let Some(name) = current {
                blocks.entry(name).or_default().push_str(line);
            }
        }
        for command in COMMANDS {
            let block =
                blocks.get(command.name).unwrap_or_else(|| panic!("{} undocumented", command.name));
            let documented: Vec<&str> = block
                .split("--")
                .skip(1)
                .map(|rest| {
                    rest.split(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '-'))
                        .next()
                        .unwrap_or("")
                })
                .filter(|key| !key.is_empty())
                .collect();
            for key in &documented {
                assert!(
                    command.modes.iter().any(|m| m.reads(key)),
                    "USAGE documents --{key} for `{}`, which does not read it",
                    command.name
                );
            }
            for mode in command.modes {
                for key in mode.options.split_whitespace() {
                    assert!(
                        documented.contains(&key),
                        "`{}` reads --{key}, which its USAGE block does not document",
                        command.name
                    );
                }
            }
        }
    }
}
