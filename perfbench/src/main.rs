//! The repository benchmark: seeded workloads over the ftagg protocols,
//! timed end to end, with a separate traced run for per-layer numbers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload alg1-sweep|e6-flood|tiny-checked --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is a closed loop: one process, one worker
//! (`Runner::new(1)`), trials in a fixed order, whole cycles over the
//! workload's cells until `--seconds` have passed. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `perfbench/README.md`.

mod flood;
mod layers;
mod stats;
mod sweep;

use layers::Counts;
use netsim::{chrome_trace_json, Runner, SpanKind, Timeline};
use stats::{median, sorted, status_mb, tail, Digest};
use std::time::Instant;

/// The seed later performance claims are measured on.
const DEFAULT_SEED: u64 = 1;

/// Digest of the first cycle's simulated statistics at [`DEFAULT_SEED`],
/// per workload. A change that alters any result, round count, bit meter
/// or delivery count of those trials changes it.
const PINNED_DIGESTS: [(&str, u64); 3] = [
    ("alg1-sweep", 0x69ba_467e_aab8_3f4c),
    ("e6-flood", 0x2153_9793_3105_aa44),
    ("tiny-checked", 0x2129_83c6_4fa1_58c8),
];

/// Set-up runs at least this many times, and until [`SETUP_MIN_S`] have
/// been spent on it; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 25;

/// Traced trials are capped so every span fits the timeline's ring.
const TRACE_SPAN_CAP: usize = 1 << 19;
const TRACE_MAX_TRIALS: u64 = 20_000;

/// One trial's outcome.
#[derive(Default)]
pub struct Outcome {
    /// Simulated statistics (results, rounds, bit meters, deliveries);
    /// the first cycle's are digested.
    pub sim: Vec<u64>,
    /// The checks this trial failed, one line each.
    pub failures: Vec<String>,
    /// Named counts the per-layer metrics are derived from.
    pub counts: Counts,
}

impl Outcome {
    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }
}

/// A set-up workload: a fixed cycle of cells, one trial per cell.
pub trait Workload: Sync {
    /// Trials in one cycle.
    fn cells(&self) -> usize;
    /// The class of trial `k`'s cell, used as its trace span label.
    fn class(&self, k: u64) -> &'static str;
    /// Runs trial `k`, recording layer spans on `tl` when given.
    fn trial(&self, k: u64, tl: Option<&Timeline>) -> Outcome;
}

const WORKLOADS: [&str; 3] = ["alg1-sweep", "e6-flood", "tiny-checked"];

/// Builds a workload's topologies, schedules, inputs and instances.
fn setup(name: &str, seed: u64, tl: Option<&Timeline>, counts: &mut Counts) -> Box<dyn Workload> {
    match name {
        "alg1-sweep" => Box::new(sweep::alg1(seed, tl, counts)),
        "e6-flood" => Box::new(flood::setup(seed, tl)),
        "tiny-checked" => Box::new(sweep::tiny(seed, tl, counts)),
        _ => unreachable!("workload names are checked at parse time"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value} (one of {WORKLOADS:?})"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Trials run by one [`measure`] call.
struct Measured {
    trials: u64,
    wall_s: f64,
    trial_ms: Vec<f64>,
    failed: u64,
    first_failures: Vec<String>,
    counts: Counts,
    digest: Digest,
}

impl Measured {
    fn trials_per_s(&self) -> f64 {
        self.trials as f64 / self.wall_s
    }
}

/// Runs whole cycles of trials through a one-worker [`Runner`] until
/// `seconds` have passed (or, traced, until `max_trials`). Trial `k` runs
/// cell `k mod cells`, so every call starts with the same cycle, whose
/// simulated statistics are digested.
fn measure(w: &dyn Workload, seconds: f64, tl: Option<&Timeline>, max_trials: u64) -> Measured {
    let runner = Runner::new(1);
    let cells = w.cells() as u64;
    let mut m = Measured {
        trials: 0,
        wall_s: 0.0,
        trial_ms: Vec::new(),
        failed: 0,
        first_failures: Vec::new(),
        counts: Counts::default(),
        digest: Digest::default(),
    };
    let start = Instant::now();
    loop {
        let seeds: Vec<u64> = (m.trials..m.trials + cells).collect();
        let cycle = layers::span_kind(tl, SpanKind::Run, "runner.run", || {
            runner.run(&seeds, |k| {
                let t0 = Instant::now();
                let out = match tl {
                    Some(tl) => tl.scoped(SpanKind::Trial, w.class(k), 0, || w.trial(k, Some(tl))),
                    None => w.trial(k, None),
                };
                (out, t0.elapsed())
            })
        });
        for (&k, (out, took)) in seeds.iter().zip(cycle) {
            m.trial_ms.push(took.as_secs_f64() * 1e3);
            if k < cells {
                m.digest.word(k);
                out.sim.iter().for_each(|&s| m.digest.word(s));
            }
            if !out.failures.is_empty() {
                m.failed += 1;
                if m.first_failures.len() < 5 {
                    m.first_failures.push(format!("trial {k}: {}", out.failures.join("; ")));
                }
            }
            m.counts.merge(&out.counts);
        }
        m.trials += cells;
        if start.elapsed().as_secs_f64() >= seconds || m.trials + cells > max_trials {
            break;
        }
    }
    m.wall_s = start.elapsed().as_secs_f64();
    m
}

/// Runs set-up [`SETUP_MIN_REPS`]+ times; returns the last workload and
/// the median set-up time.
fn timed_setups(
    name: &str,
    seed: u64,
    tl: Option<&Timeline>,
    counts: &mut Counts,
) -> (Box<dyn Workload>, f64, usize) {
    let mut times = Vec::new();
    let mut last: Option<Box<dyn Workload>> = None;
    while times.len() < SETUP_MIN_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_S && times.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup(name, seed, tl, counts));
        times.push(t0.elapsed().as_secs_f64());
    }
    let reps = times.len();
    (last.expect("at least one set-up"), median(&sorted(&times)), reps)
}

/// A metric for the result line.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Reports failed trials and checks the first cycle's digest at the
/// default seed; returns whether both are clean.
fn check(name: &str, seed: u64, m: &Measured) -> bool {
    for f in &m.first_failures {
        println!("FAILED {f}");
    }
    println!(
        "failed_share {} ({} failed / {} attempted)",
        m.failed as f64 / m.trials as f64,
        m.failed,
        m.trials
    );
    let digest = m.digest.value();
    if seed != DEFAULT_SEED {
        println!("digest {digest:#018x} (pinned only at seed {DEFAULT_SEED})");
        return m.failed == 0;
    }
    let pinned = PINNED_DIGESTS.iter().find(|(w, _)| *w == name).map(|&(_, d)| d);
    let ok = pinned == Some(digest);
    println!(
        "digest {digest:#018x} (pinned {:#018x}: {})",
        pinned.unwrap_or(0),
        if ok { "match" } else { "MISMATCH" }
    );
    ok && m.failed == 0
}

fn end_to_end(args: &Args) -> String {
    let mut counts = Counts::default();
    let (w, setup_s, reps) = timed_setups(&args.workload, args.seed, None, &mut counts);
    let m = measure(w.as_ref(), args.seconds, None, u64::MAX);
    let peak_rss_mb = status_mb("VmHWM");
    let times = sorted(&m.trial_ms);
    // With too few trials for any ladder percentile (e6-flood runs a
    // handful), the tail is the slowest trial.
    let (tail_ms, tail_label) = match tail(&times) {
        Some(t) => (t.value, format!("{} of {} trials, {} beyond", t.label(), t.samples, t.beyond)),
        None => (times[times.len() - 1], format!("max of {} trials", times.len())),
    };
    println!("setup_s {setup_s} s (median of {reps} set-ups)");
    println!("trials_per_s {} trials/s ({} trials in {} s)", m.trials_per_s(), m.trials, m.wall_s);
    println!("trial_p50_ms {} ms", median(&times));
    println!("trial_tail_ms {tail_ms} ms ({tail_label})");
    // Printed, not gated: on alg1-sweep one schedule-dependent transient
    // sets it, so it spreads too widely across seeds to carry a bound.
    println!("peak_rss_mb {peak_rss_mb} MB");
    let correct = check(&args.workload, args.seed, &m);
    let metrics = [
        Metric { name: "trials_per_s", unit: "trials/s", value: m.trials_per_s() },
        Metric { name: "trial_p50_ms", unit: "ms", value: median(&times) },
        Metric { name: "trial_tail_ms", unit: "ms", value: tail_ms },
        Metric { name: "setup_s", unit: "s", value: setup_s },
    ];
    result_line(correct, m.trials, m.failed, &metrics)
}

fn traced(args: &Args) -> String {
    let tl = Timeline::with_capacity(TRACE_SPAN_CAP);
    let mut setup_counts = Counts::default();
    let (w, _, reps) = timed_setups(&args.workload, args.seed, Some(&tl), &mut setup_counts);
    // Half the time untraced, half traced, on the same trials.
    let plain = measure(w.as_ref(), args.seconds / 2.0, None, u64::MAX);
    let traced = measure(w.as_ref(), args.seconds / 2.0, Some(&tl), TRACE_MAX_TRIALS);
    let data = tl.snapshot();
    let mut correct = check(&args.workload, args.seed, &plain) && traced.failed == 0;
    for f in &traced.first_failures {
        println!("FAILED (traced) {f}");
    }
    if traced.digest.value() != plain.digest.value() {
        println!("FAILED tracing changed the first cycle's digest");
        correct = false;
    }
    if data.dropped_spans > 0 {
        println!("FAILED {} spans were dropped from the timeline", data.dropped_spans);
        correct = false;
    }
    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{out_dir}/trace-{}-{}.json", args.workload, args.seed);
    let json = chrome_trace_json(&data, &format!("perfbench {}", args.workload));
    match std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, &json)) {
        Ok(()) => println!("chrome trace {path}: {} spans", data.spans.len()),
        Err(e) => {
            println!("FAILED writing {path}: {e}");
            correct = false;
        }
    }
    let mut counts = setup_counts;
    counts.merge(&traced.counts);
    let ctx = layers::Context {
        data: &data,
        counts: &counts,
        setups: reps as f64,
        trials: traced.trials as f64,
        plain_trials_per_s: plain.trials_per_s(),
        traced_trials_per_s: traced.trials_per_s(),
    };
    let metrics = layers::metrics(&ctx);
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let residual = metrics.iter().find(|m| m.name == "tradeoff.residual_share").map(|m| m.value);
    if let Some(r) = residual {
        let ok = r.abs() <= layers::RESIDUAL_TOLERANCE;
        println!(
            "tradeoff.residual_share {r} is {} the tolerance ±{}",
            if ok { "within" } else { "OUTSIDE" },
            layers::RESIDUAL_TOLERANCE
        );
        correct &= ok;
    }
    result_line(correct, plain.trials + traced.trials, plain.failed + traced.failed, &metrics)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "error: {e}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let line = if args.trace { traced(&args) } else { end_to_end(&args) };
    println!("{line}");
}
