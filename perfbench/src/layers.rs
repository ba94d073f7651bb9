//! Layer spans and the per-layer metrics derived from them.
//!
//! Spans are recorded from the benchmark's side of each call into a
//! layer's public function, on lane 0 of one [`Timeline`]: `Run` spans
//! around `Runner::run`, `Trial` spans (labelled with the cell class)
//! around each trial, `Phase` spans around the layer calls. Totals come
//! from [`self_time`]; `soa.step` percentiles from the span list.

use crate::Metric;
use netsim::{self_time, Span, SpanKind, Timeline, TimelineData};
use std::collections::BTreeMap;

/// `tradeoff.residual_share` must stay within ± this share: the layer
/// spans have to explain the untraced trial to within it.
pub const RESIDUAL_TOLERANCE: f64 = 0.15;

/// Runs `f`, recording it as a `Phase` span named `label` when traced.
pub fn span<T>(tl: Option<&Timeline>, label: &str, f: impl FnOnce() -> T) -> T {
    span_kind(tl, SpanKind::Phase, label, f)
}

/// [`span`] with an explicit span kind.
pub fn span_kind<T>(
    tl: Option<&Timeline>,
    kind: SpanKind,
    label: &str,
    f: impl FnOnce() -> T,
) -> T {
    match tl {
        Some(tl) => tl.scoped(kind, label, 0, f),
        None => f(),
    }
}

/// Named counts, summed over trials, with the largest single value kept.
#[derive(Clone, Debug, Default)]
pub struct Counts(BTreeMap<&'static str, (f64, f64)>);

impl Counts {
    /// Adds `v` under `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_insert((0.0, f64::MIN));
        e.0 += v;
        e.1 = e.1.max(v);
    }

    /// Folds another set of counts in.
    pub fn merge(&mut self, other: &Counts) {
        for (&name, &(sum, max)) in &other.0 {
            let e = self.0.entry(name).or_insert((0.0, f64::MIN));
            e.0 += sum;
            e.1 = e.1.max(max);
        }
    }

    /// The sum under `name` (0 when never added).
    pub fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.0)
    }

    /// The largest value added under `name` (0 when never added).
    pub fn max(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.1)
    }
}

/// What the traced run hands to [`metrics`].
pub struct Context<'a> {
    /// Every span recorded: set-ups and traced trials.
    pub data: &'a TimelineData,
    /// Set-up and traced-trial counts.
    pub counts: &'a Counts,
    /// Set-ups traced.
    pub setups: f64,
    /// Trials traced.
    pub trials: f64,
    /// Trials/s of the untraced half of the run.
    pub plain_trials_per_s: f64,
    /// Trials/s of the traced half.
    pub traced_trials_per_s: f64,
}

/// Span totals by label, in nanoseconds.
#[derive(Default)]
struct Totals(BTreeMap<String, (f64, f64, f64)>);

impl Totals {
    fn of(data: &TimelineData) -> Totals {
        let mut t = Totals::default();
        for row in self_time(data) {
            let e = t.0.entry(row.label).or_insert((0.0, 0.0, 0.0));
            e.0 += row.count as f64;
            e.1 += row.total_ns as f64;
            e.2 += row.self_ns as f64;
        }
        t
    }

    fn count(&self, label: &str) -> f64 {
        self.0.get(label).map_or(0.0, |e| e.0)
    }

    fn total_ns(&self, label: &str) -> f64 {
        self.0.get(label).map_or(0.0, |e| e.1)
    }

    fn self_ns(&self, label: &str) -> f64 {
        self.0.get(label).map_or(0.0, |e| e.2)
    }

    /// Mean span length in ms (0 when the layer was never called).
    fn mean_ms(&self, label: &str) -> f64 {
        ratio(self.total_ns(label), self.count(label)) / 1e6
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// `config.model` spans carry `1 + pairs_run` as their argument: how many
/// times `run_tradeoff` computes the model in that trial.
fn model_ns_inside_runs(spans: &[Span]) -> (f64, f64) {
    let (mut all, mut in_pairs) = (0.0, 0.0);
    for s in spans.iter().filter(|s| s.label == "config.model") {
        let calls = s.arg.unwrap_or(1) as f64;
        all += s.dur_ns as f64 * calls;
        in_pairs += s.dur_ns as f64 * (calls - 1.0);
    }
    (all, in_pairs)
}

/// Spans inside `Trial` spans labelled `class`.
fn within_class(data: &TimelineData, class: &str) -> Vec<Span> {
    let windows: Vec<(u64, u64)> = data
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Trial && s.label == class)
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .collect();
    data.spans
        .iter()
        .filter(|s| {
            s.kind != SpanKind::Trial
                && windows.iter().any(|&(a, b)| s.start_ns >= a && s.start_ns + s.dur_ns <= b)
        })
        .cloned()
        .collect()
}

/// Share of `run_tradeoff` time the model recomputation takes in trials
/// of one cell class (0 when the class has no trials).
fn model_share(data: &TimelineData, class: &str) -> f64 {
    let spans = within_class(data, class);
    let runs: f64 =
        spans.iter().filter(|s| s.label == "tradeoff.run").map(|s| s.dur_ns as f64).sum();
    ratio(model_ns_inside_runs(&spans).0, runs)
}

/// Every per-layer metric, in `BENCHMARK.json` order. A layer this
/// workload never calls reads 0.
pub fn metrics(cx: &Context) -> Vec<Metric> {
    let t = Totals::of(cx.data);
    let c = cx.counts;
    let (_, model_in_pairs) = model_ns_inside_runs(&cx.data.spans);
    let pairs = t.count("pair.agg_veri");
    let pair_work_ns = t.total_ns("pair.agg_veri") - model_in_pairs;
    let run_ns = t.total_ns("tradeoff.run");
    // The layer spans re-execute each Algorithm 1 trial piece by piece;
    // what they leave of the `run_tradeoff` time is unexplained. Without
    // `run_tradeoff` (e6-flood) it is the trial spans' self time.
    let residual = if run_ns > 0.0 {
        (run_ns - t.total_ns("config.model") - t.total_ns("pair.agg_veri")) / run_ns
    } else {
        let mut classes: Vec<&str> = cx
            .data
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Trial)
            .map(|s| s.label.as_str())
            .collect();
        classes.sort_unstable();
        classes.dedup();
        let self_ns: f64 = classes.iter().map(|l| t.self_ns(l)).sum();
        let total_ns: f64 = classes.iter().map(|l| t.total_ns(l)).sum();
        ratio(self_ns, total_ns)
    };
    let mut steps: Vec<f64> = cx
        .data
        .spans
        .iter()
        .filter(|s| s.label == "soa.step")
        .map(|s| s.dur_ns as f64 / 1e6)
        .collect();
    steps.sort_by(f64::total_cmp);
    let step_s = steps.iter().sum::<f64>() / 1e3;
    let e6_trial_ns = t.total_ns("e6");
    let tradeoff_trials = c.sum("tradeoff.trials");
    let fallbacks = c.sum("tradeoff.fallbacks");
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("topology.build_s", "s", ratio(t.total_ns("topology.build"), cx.setups) / 1e9),
        m("adversary.draw_ms", "ms", ratio(t.total_ns("adversary.draw"), cx.setups) / 1e6),
        m("adversary.stretch_ms", "ms", ratio(t.total_ns("adversary.stretch"), cx.setups) / 1e6),
        m(
            "adversary.accept_ratio",
            "ratio",
            ratio(c.sum("adversary.accepted"), c.sum("adversary.draws")),
        ),
        m("config.instance_ms", "ms", ratio(t.total_ns("config.instance"), cx.setups) / 1e6),
        m("config.model_ms", "ms", t.mean_ms("config.model")),
        m("config.model_share_wide", "ratio", model_share(cx.data, "wide")),
        m("config.model_share_deep", "ratio", model_share(cx.data, "deep")),
        m(
            "pair.agg_ms",
            "ms",
            ratio(t.total_ns("pair.agg") - model_in_pairs, t.count("pair.agg")) / 1e6,
        ),
        m(
            "pair.veri_ms",
            "ms",
            ratio(t.total_ns("pair.agg_veri") - t.total_ns("pair.agg"), pairs) / 1e6,
        ),
        m("pair.rounds", "rounds", ratio(c.sum("pair.rounds"), pairs)),
        m("pair.us_per_round", "us", ratio(pair_work_ns, c.sum("pair.rounds")) / 1e3),
        m("tradeoff.pairs_per_trial", "count", ratio(c.sum("tradeoff.pairs"), tradeoff_trials)),
        m(
            "tradeoff.accept_ratio",
            "ratio",
            ratio(tradeoff_trials - fallbacks, c.sum("tradeoff.pairs")),
        ),
        m("tradeoff.fallback_share", "ratio", ratio(fallbacks, tradeoff_trials)),
        m("tradeoff.residual_share", "ratio", residual),
        m(
            "monitored.overhead_ratio",
            "ratio",
            ratio(t.total_ns("monitored.run"), t.total_ns("tradeoff.run")),
        ),
        m("soa.build_ms", "ms", t.mean_ms("soa.build")),
        m(
            "soa.step_p50_ms",
            "ms",
            if steps.is_empty() { 0.0 } else { crate::stats::median(&steps) },
        ),
        m("soa.step_max_ms", "ms", steps.last().copied().unwrap_or(0.0)),
        m("soa.deliveries_per_s", "1/s", ratio(c.sum("soa.deliveries"), step_s)),
        m("soa.step_share", "ratio", ratio(t.total_ns("soa.step"), e6_trial_ns)),
        m("soa.peak_inflight", "count", c.max("soa.peak_inflight")),
        m("soa.rss_growth_mb", "MB", c.max("soa.rss_growth_mb")),
        m("runner.overhead_us", "us", ratio(t.self_ns("runner.run"), cx.trials) / 1e3),
        m(
            "harness.trace_overhead_ratio",
            "ratio",
            ratio(cx.traced_trials_per_s, cx.plain_trials_per_s),
        ),
    ]
}
