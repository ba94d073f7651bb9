//! Deterministic parallel trial execution.
//!
//! Every experiment in this repository has the same outer shape: run one
//! simulated execution per seed, then aggregate. [`Runner`] fans a seed
//! list out over a pool of scoped worker threads with work stealing, and
//! returns the per-trial results **in seed order** — so any reduction over
//! them is bit-identical to a serial `for seed in seeds` loop, regardless
//! of thread count or OS scheduling. Determinism comes for free from the
//! model: a trial's outcome is a pure function of its seed (the engine has
//! no hidden randomness), and the runner never lets thread interleaving
//! reach the results.
//!
//! ```
//! use netsim::runner::Runner;
//!
//! let seeds: Vec<u64> = (0..32).collect();
//! let serial: Vec<u64> = seeds.iter().map(|&s| s * s).collect();
//! let parallel = Runner::new(4).run(&seeds, |s| s * s);
//! assert_eq!(serial, parallel);
//! ```

use crate::adversary::Round;
use crate::graph::NodeId;
use crate::metrics::{Metrics, PhaseStats};
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// A point-in-time snapshot of a sweep's progress, handed to a
/// [`ProgressSink`] after every completed trial.
#[derive(Clone, Copy, Debug)]
pub struct Progress {
    /// Trials finished so far (1-based; the final call has
    /// `completed == total`).
    pub completed: usize,
    /// Total trials in the sweep.
    pub total: usize,
    /// Index of the worker that finished this trial (0 with one
    /// worker).
    pub worker: usize,
    /// Wall time since the sweep started.
    pub elapsed: Duration,
    /// Median per-trial latency in microseconds so far.
    pub p50_micros: u64,
    /// 99th-percentile per-trial latency in microseconds so far.
    pub p99_micros: u64,
    /// The worker whose accumulated busy time exceeds twice the mean —
    /// a straggler hint, populated once every worker has had a fair
    /// chance (≥ 2 trials per worker overall).
    pub straggler: Option<usize>,
}

impl Progress {
    /// Aggregate throughput in trials per second (all workers combined).
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Estimated wall time to finish the remaining trials at the current
    /// aggregate throughput (zero when done or before any signal).
    pub fn eta(&self) -> Duration {
        let rate = self.throughput();
        if rate <= 0.0 || self.completed >= self.total {
            return Duration::ZERO;
        }
        Duration::from_secs_f64((self.total - self.completed) as f64 / rate)
    }
}

/// Live observer of a [`Runner`] sweep — the runner-level analogue of the
/// engine's trace sink, guarded by the same single `Option` branch per
/// trial. Implementations must be cheap and `Sync`: `trial_done` is called
/// from every worker thread. Progress never touches results, so a sweep
/// with a sink is bit-identical to one without.
pub trait ProgressSink: Sync {
    /// Called once after each trial completes. `p.completed` values are
    /// distinct across calls (each trial observes the counter once), but
    /// calls from different workers may arrive out of order.
    fn trial_done(&self, p: &Progress);
}

/// A throttled `stderr` progress line (`\r`-rewritten in place), for
/// `--progress` on CLI sweeps and bench bins. Writes to stderr only, so
/// stdout output stays byte-identical with progress on or off.
#[derive(Debug)]
pub struct ConsoleProgress {
    every: Duration,
    last: Mutex<Option<Instant>>,
}

impl ConsoleProgress {
    /// A console sink redrawing at most every 200 ms (plus a final line).
    pub fn new() -> Self {
        ConsoleProgress::with_interval(Duration::from_millis(200))
    }

    /// A console sink redrawing at most once per `every` (the final
    /// `completed == total` line always prints).
    pub fn with_interval(every: Duration) -> Self {
        ConsoleProgress { every, last: Mutex::new(None) }
    }

    /// The rendered progress line (without the leading `\r`).
    fn line(p: &Progress) -> String {
        let mut s = format!(
            "[{}/{}] {:.1} trials/s, eta {:.0}s, worker {}",
            p.completed,
            p.total,
            p.throughput(),
            p.eta().as_secs_f64(),
            p.worker,
        );
        if p.p99_micros > 0 {
            s.push_str(&format!(", p50 {}us p99 {}us", p.p50_micros, p.p99_micros));
        }
        if let Some(w) = p.straggler {
            s.push_str(&format!(", STRAGGLER worker {w}"));
        }
        s
    }
}

impl Default for ConsoleProgress {
    fn default() -> Self {
        ConsoleProgress::new()
    }
}

impl ProgressSink for ConsoleProgress {
    fn trial_done(&self, p: &Progress) {
        let done = p.completed >= p.total;
        {
            let mut last = self.last.lock().unwrap_or_else(|e| e.into_inner());
            if !done {
                if let Some(t) = *last {
                    if t.elapsed() < self.every {
                        return;
                    }
                }
            }
            *last = Some(Instant::now());
        }
        let mut err = std::io::stderr().lock();
        if done {
            let _ = writeln!(err, "\r{}", Self::line(p));
        } else {
            let _ = write!(err, "\r{}", Self::line(p));
            let _ = err.flush();
        }
    }
}

/// One worker's share of a sweep (see [`Runner::run_observed`]).
/// Wall-clock fields (`busy`, `idle`, latency quantiles) and `steals`
/// depend on OS scheduling and are *not* deterministic; only the totals
/// across workers (trial count, latency histogram count) are.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerLoad {
    /// Worker index (0-based).
    pub worker: usize,
    /// Trials this worker completed.
    pub trials: u64,
    /// Trials claimed outside this worker's round-robin share — a proxy
    /// for how much the cursor rebalanced work toward this worker.
    pub steals: u64,
    /// Wall time spent inside trials.
    pub busy: Duration,
    /// Wall time spent between trials (claim latency + tail wait).
    pub idle: Duration,
    /// Median per-trial latency, microseconds.
    pub p50_micros: u64,
    /// 99th-percentile per-trial latency, microseconds.
    pub p99_micros: u64,
}

/// The merged per-worker telemetry of one sweep: every worker counts its
/// own trials and trial latencies while running (no cross-worker
/// synchronization on the trial path), and the workers are merged in
/// worker order at join — so the totals (trial count, latency histogram
/// count) are bit-identical across thread counts, while the per-worker
/// rows expose the nondeterministic load split for straggler analysis.
#[derive(Debug)]
pub struct RunnerTelemetry {
    /// Per-worker load rows, in worker order.
    pub workers: Vec<WorkerLoad>,
    /// Wall time of the whole sweep.
    pub elapsed: Duration,
    /// Every worker's trial latencies (µs), merged in worker order.
    latency: Histogram,
}

impl RunnerTelemetry {
    fn from_parts(parts: Vec<(WorkerLoad, Histogram)>, elapsed: Duration) -> RunnerTelemetry {
        let mut latency = Histogram::new();
        let mut workers = Vec::with_capacity(parts.len());
        for (load, hist) in parts {
            latency.merge(&hist);
            workers.push(load);
        }
        RunnerTelemetry { workers, elapsed, latency }
    }

    /// Total trials across workers (= the seed count; deterministic).
    pub fn trials(&self) -> u64 {
        self.workers.iter().map(|w| w.trials).sum()
    }

    /// Total out-of-share claims across workers (scheduling-dependent).
    pub fn steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Median per-trial latency over every worker's trials, microseconds.
    pub fn p50_micros(&self) -> u64 {
        self.latency.quantile(0.5)
    }

    /// 99th-percentile per-trial latency over every worker's trials,
    /// microseconds.
    pub fn p99_micros(&self) -> u64 {
        self.latency.quantile(0.99)
    }

    /// The worker whose busy time exceeds twice the mean, if any — the
    /// same rule the live progress line uses.
    pub fn straggler(&self) -> Option<usize> {
        straggler_of(&self.workers.iter().map(|w| w.busy.as_micros() as u64).collect::<Vec<_>>())
    }

    /// The per-worker breakdown as an aligned ASCII table (one row per
    /// worker, straggler row marked).
    pub fn workers_table(&self) -> String {
        use std::fmt::Write as _;
        let straggler = self.straggler();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>6} {:>7} {:>7} {:>10} {:>10} {:>9} {:>9}",
            "worker", "trials", "steals", "busy_ms", "idle_ms", "p50_us", "p99_us"
        );
        for w in &self.workers {
            let _ = write!(
                out,
                "{:>6} {:>7} {:>7} {:>10.1} {:>10.1} {:>9} {:>9}",
                w.worker,
                w.trials,
                w.steals,
                w.busy.as_secs_f64() * 1e3,
                w.idle.as_secs_f64() * 1e3,
                w.p50_micros,
                w.p99_micros,
            );
            if straggler == Some(w.worker) {
                out.push_str("  <- straggler");
            }
            out.push('\n');
        }
        out
    }
}

/// The straggler rule shared by the live progress line and the final
/// summary: with at least two workers that actually ran trials, the
/// worker whose busy time exceeds twice the mean busy time. A lone
/// active worker (peers all at zero) is not a straggler — it has
/// nobody to lag behind.
fn straggler_of(busy_micros: &[u64]) -> Option<usize> {
    if busy_micros.len() < 2 || busy_micros.iter().filter(|&&v| v > 0).count() < 2 {
        return None;
    }
    let mean = busy_micros.iter().sum::<u64>() / busy_micros.len() as u64;
    let (worker, &max) = busy_micros.iter().enumerate().max_by_key(|&(_, &v)| v)?;
    (mean > 0 && max > 2 * mean).then_some(worker)
}

/// Shared live state behind the progress line: a merged latency
/// histogram and per-worker busy totals, touched once per trial.
struct LiveLoad {
    hist: Mutex<Histogram>,
    busy_micros: Vec<AtomicU64>,
}

impl LiveLoad {
    fn new(workers: usize) -> LiveLoad {
        LiveLoad {
            hist: Mutex::new(Histogram::new()),
            busy_micros: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// `(p50, p99, straggler)` for the progress line. The straggler flag
    /// holds back until every worker has had a fair chance (≥ 2 trials
    /// per worker overall) so the first claims don't trip it.
    fn snapshot(&self, completed: usize) -> (u64, u64, Option<usize>) {
        let (p50, p99) = {
            let h = self.hist.lock().unwrap_or_else(|e| e.into_inner());
            (h.quantile(0.5), h.quantile(0.99))
        };
        let straggler = if completed >= 2 * self.busy_micros.len() {
            let loads: Vec<u64> =
                self.busy_micros.iter().map(|a| a.load(Ordering::Relaxed)).collect();
            straggler_of(&loads)
        } else {
            None
        };
        (p50, p99, straggler)
    }
}

/// One worker's private instrumentation, so the per-trial cost is two
/// `Instant::now` calls, a histogram insert and a few plain adds — no
/// cross-worker synchronization.
struct WorkerTele {
    worker: usize,
    spawned: Instant,
    busy: Duration,
    trials: u64,
    steals: u64,
    latency: Histogram,
}

impl WorkerTele {
    fn new(worker: usize) -> WorkerTele {
        WorkerTele {
            worker,
            spawned: Instant::now(),
            busy: Duration::ZERO,
            trials: 0,
            steals: 0,
            latency: Histogram::new(),
        }
    }

    /// Runs one trial under the clock. `stolen` marks a claim outside
    /// this worker's round-robin share.
    fn timed<T>(&mut self, stolen: bool, trial: impl FnOnce() -> T, live: Option<&LiveLoad>) -> T {
        let t0 = Instant::now();
        let out = trial();
        let dt = t0.elapsed();
        self.busy += dt;
        let micros = dt.as_micros().min(u128::from(u64::MAX)) as u64;
        self.trials += 1;
        self.steals += u64::from(stolen);
        self.latency.record(micros);
        if let Some(l) = live {
            l.busy_micros[self.worker].store(self.busy.as_micros() as u64, Ordering::Relaxed);
            l.hist.lock().unwrap_or_else(|e| e.into_inner()).record(micros);
        }
        out
    }

    /// Seals the worker: its load row and its latency histogram.
    fn finish(self) -> (WorkerLoad, Histogram) {
        let load = WorkerLoad {
            worker: self.worker,
            trials: self.trials,
            steals: self.steals,
            busy: self.busy,
            idle: self.spawned.elapsed().saturating_sub(self.busy),
            p50_micros: self.latency.quantile(0.5),
            p99_micros: self.latency.quantile(0.99),
        };
        (load, self.latency)
    }
}

/// Executes independent trials across a fixed-size thread pool.
///
/// Workers claim seeds through a shared atomic cursor (work stealing), so
/// an expensive trial does not stall the others; each worker buffers
/// `(index, result)` pairs locally, and the buffers are merged back into
/// seed order after the pool joins. No locks are held while trials run.
#[derive(Clone, Copy, Debug)]
pub struct Runner {
    threads: usize,
}

impl Runner {
    /// A runner over `threads` workers. `0` selects the machine's
    /// available parallelism; an explicit count is clamped to it (trials
    /// are CPU-bound, so oversubscribing cores only adds scheduler churn —
    /// the 1-cpu CI box clocked `speedup_4t < 1` before this clamp). The
    /// first clamp per process logs a one-line warning to stderr. Use
    /// [`Runner::exact`] to keep an oversubscribed count.
    pub fn new(threads: usize) -> Self {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        if threads > cores {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "runner: requested {threads} threads but only {cores} core(s) available; \
                     clamping to {cores}"
                );
            });
        }
        Runner { threads: if threads == 0 { cores } else { threads.min(cores) } }
    }

    /// A runner over exactly `threads` workers (min 1), bypassing the core
    /// clamp of [`Runner::new`]. For determinism tests that must exercise
    /// real multi-worker interleavings even on smaller machines.
    pub fn exact(threads: usize) -> Self {
        Runner { threads: threads.max(1) }
    }

    /// The worker count this runner was resolved to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `trial` once per seed and returns the results in seed order:
    /// [`Runner::run_observed`] without observers.
    ///
    /// With the same seeds, the returned vector is byte-identical for any
    /// thread count (including 1), because results are re-ordered by seed
    /// index before being returned.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any trial that panicked.
    pub fn run<T, F>(&self, seeds: &[u64], trial: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64) -> T + Sync,
    {
        self.run_observed(seeds, |s, _| trial(s), None, None).0
    }

    /// Runs `trial` once per seed with everything a sweep can observe.
    /// Each worker keeps its own counts (trials, steals, busy/idle wall
    /// time, a per-trial latency histogram), merged deterministically in
    /// worker order at join into the returned [`RunnerTelemetry`]. A
    /// `progress` sink sees every completion, with running p50/p99 trial
    /// latency and a straggler flag. A `timeline` records one `Trial`
    /// span per seed on the executing worker's lane.
    ///
    /// One worker runs the trial loop on the calling thread; more run it
    /// in scoped threads, claiming seeds through a shared cursor.
    ///
    /// `trial` receives `(seed, lane)`: worker `w` owns lane `w + 1`
    /// (lane 0 is left to the driver's own spans), so the closure can
    /// forward it to [`crate::engine::Engine::set_timeline`] and nested
    /// round/stage spans land on the same track as the enclosing trial.
    /// Observation never touches the seed-ordered results.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any trial that panicked.
    pub fn run_observed<T, F>(
        &self,
        seeds: &[u64],
        trial: F,
        progress: Option<&dyn ProgressSink>,
        timeline: Option<&crate::timeline::Timeline>,
    ) -> (Vec<T>, RunnerTelemetry)
    where
        T: Send,
        F: Fn(u64, u32) -> T + Sync,
    {
        let started = Instant::now();
        let workers = self.threads.min(seeds.len()).max(1);
        if let Some(tl) = timeline {
            // Name the worker lanes up front so the export carries
            // readable tracks even if a worker never claims a seed.
            for w in 0..self.threads.max(1) {
                tl.name_lane(w as u32 + 1, &format!("worker {w}"));
            }
        }
        let trial = |seed: u64, lane: u32| {
            let Some(tl) = timeline else { return trial(seed, lane) };
            let t0 = tl.now_ns();
            let out = trial(seed, lane);
            let dur = tl.now_ns().saturating_sub(t0);
            let kind = crate::timeline::SpanKind::Trial;
            tl.record_span(kind, &format!("seed {seed}"), lane, t0, dur, Some(seed));
            out
        };
        // Live latency/straggler state exists only when someone watches.
        let live = progress.map(|_| LiveLoad::new(workers));
        let live = live.as_ref();
        let completed = AtomicUsize::new(0);
        let cursor = AtomicUsize::new(0);
        // One worker's loop: claim the next seed, run it under the clock,
        // report it. Returns seed-indexed results and the worker's meters.
        let work = |w: usize| {
            let mut tele = WorkerTele::new(w);
            let mut out = Vec::with_capacity(seeds.len().div_ceil(workers));
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&seed) = seeds.get(i) else { break };
                out.push((i, tele.timed(i % workers != w, || trial(seed, w as u32 + 1), live)));
                if let (Some(sink), Some(l)) = (progress, live) {
                    let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                    let (p50_micros, p99_micros, straggler) = l.snapshot(done);
                    sink.trial_done(&Progress {
                        completed: done,
                        total: seeds.len(),
                        worker: w,
                        elapsed: started.elapsed(),
                        p50_micros,
                        p99_micros,
                        straggler,
                    });
                }
            }
            (out, tele.finish())
        };
        let parts = if workers == 1 {
            vec![work(0)]
        } else {
            let work = &work;
            thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || work(w))).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
                    .collect()
            })
        };
        // Merge the workers' buckets back into seed order: each bucket
        // holds its seed indices in claim order, so seed `i` is at the head
        // of exactly one bucket once every earlier seed is taken. Worker
        // histograms merge in worker order (the join order), so the merged
        // totals are deterministic even though the load split is not.
        let mut buckets = Vec::with_capacity(workers);
        let mut loads = Vec::with_capacity(workers);
        for (bucket, load) in parts {
            buckets.push(bucket.into_iter().peekable());
            loads.push(load);
        }
        let results = (0..seeds.len())
            .map(|i| {
                let mut heads = buckets.iter_mut().filter_map(|b| b.next_if(|&(j, _)| j == i));
                heads.next().expect("every seed ran exactly once").1
            })
            .collect();
        (results, RunnerTelemetry::from_parts(loads, started.elapsed()))
    }
}

/// A log₂ histogram over `u64` samples that answers exact quantiles
/// while it is small.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i - 1]`. The bucket layout never depends on the data, so
/// two histograms merge by adding counts — deterministically, in any
/// order — which is what lets [`TrialSummary`] accumulate distribution
/// shape across trials without storing every sample. The first 256
/// samples are also kept, sorted: while the histogram holds at most that
/// many, a quantile is the sample of that rank; past it, the upper edge
/// of the bucket holding that rank (a ≤ 2× overestimate), capped at the
/// maximum, which is tracked exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// `counts[i]` = samples in bucket `i` (65 buckets cover all of u64;
    /// allocated by the first sample).
    counts: Vec<u64>,
    samples: u64,
    max: u64,
    /// Every sample, ascending, while `samples ≤ EXACT_SAMPLES`; empty
    /// after.
    exact: Vec<u64>,
}

/// Buckets: one for zero plus one per possible bit length of a `u64`.
const HIST_BUCKETS: usize = 65;

/// How many samples a [`Histogram`] keeps for exact quantiles.
const EXACT_SAMPLES: u64 = 256;

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive upper edge of bucket `i` (0, 1, 3, 7, …, u64::MAX).
    fn bucket_edge(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; HIST_BUCKETS];
        }
        self.counts[Self::bucket(value)] += 1;
        self.samples += 1;
        self.max = self.max.max(value);
        if self.samples <= EXACT_SAMPLES {
            let at = self.exact.partition_point(|&v| v <= value);
            self.exact.insert(at, value);
        } else {
            self.exact = Vec::new();
        }
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The exact maximum sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0 < q ≤ 1`): the sample of rank `⌈q·n⌉`
    /// (clamped to `1..=n`) while at most 256 were
    /// recorded, else the upper edge of the bucket holding that rank,
    /// capped at the maximum; 0 if empty. `quantile(0.5)` is the p50,
    /// `quantile(0.9)` the p90.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.samples == 0 {
            return 0;
        }
        let rank = ((q * self.samples as f64).ceil() as u64).clamp(1, self.samples);
        if self.samples <= EXACT_SAMPLES {
            return self.exact[rank as usize - 1];
        }
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report past the true maximum.
                return Self::bucket_edge(i).min(self.max);
            }
        }
        self.max
    }

    /// Adds every sample of `other` into this histogram.
    pub fn merge(&mut self, other: &Histogram) {
        if other.samples == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; HIST_BUCKETS];
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.samples += other.samples;
        self.max = self.max.max(other.max);
        if self.samples <= EXACT_SAMPLES {
            self.exact.extend_from_slice(&other.exact);
            self.exact.sort_unstable();
        } else {
            self.exact = Vec::new();
        }
    }

    /// `(bucket_lower, bucket_upper, count)` for each non-empty bucket, in
    /// ascending value order — the rows of a rendered histogram.
    pub fn bars(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let lo = if i == 0 { 0 } else { Self::bucket_edge(i - 1) + 1 };
                (lo, Self::bucket_edge(i), c)
            })
            .collect()
    }
}

/// The measurements one trial contributes to an aggregate sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialStats {
    /// The seed that produced this trial.
    pub seed: u64,
    /// Rounds the execution ran.
    pub rounds: Round,
    /// The paper's CC: maximum bits over nodes.
    pub max_bits: u64,
    /// System-wide bits.
    pub total_bits: u64,
    /// The node achieving `max_bits` (lowest id on ties).
    pub bottleneck: Option<NodeId>,
    /// Per-phase breakdown of this trial (empty if the protocol recorded
    /// no phases).
    pub phases: Vec<PhaseStats>,
    /// Invariant violations the watchdog counted for this trial (0 when
    /// the trial ran unmonitored).
    pub violations: u64,
}

impl TrialStats {
    /// Extracts the stats of a finished execution, including its phase
    /// attribution. Violations start at 0; a monitored driver sets them
    /// from its [`crate::monitor::MonitorReport`] (or uses
    /// [`TrialStats::with_violations`]).
    pub fn from_metrics(seed: u64, rounds: Round, metrics: &Metrics) -> Self {
        TrialStats {
            seed,
            rounds,
            max_bits: metrics.max_bits(),
            total_bits: metrics.total_bits(),
            bottleneck: metrics.bottleneck(),
            phases: metrics.phases(),
            violations: 0,
        }
    }

    /// The same stats with the watchdog's violation count attached.
    #[must_use]
    pub fn with_violations(mut self, violations: u64) -> Self {
        self.violations = violations;
        self
    }
}

/// Cross-trial aggregate of one phase label (see [`TrialSummary::phases`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseAgg {
    /// The phase label being aggregated.
    pub label: String,
    /// Spans with this label absorbed (a trial may contribute several,
    /// e.g. one `"AGG"` per interval).
    pub spans: usize,
    /// Sum of span bits (for the mean).
    pub sum_bits: u64,
    /// Worst single span's bits.
    pub worst_bits: u64,
    /// Sum of span logical sends.
    pub sum_sends: u64,
    /// Sum of span round counts.
    pub sum_rounds: Round,
    /// Longest single span.
    pub worst_rounds: Round,
}

impl PhaseAgg {
    /// Mean bits per span with this label.
    pub fn mean_bits(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.sum_bits as f64 / self.spans as f64
        }
    }
}

/// Order-insensitive aggregate of many [`TrialStats`].
///
/// Everything here is a max, min, sum, or count, so absorbing trials in
/// seed order (which [`Runner::run`] guarantees) gives bit-identical
/// summaries across thread counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrialSummary {
    /// Trials absorbed.
    pub trials: usize,
    /// Worst per-trial CC seen.
    pub worst_max_bits: u64,
    /// The seed achieving `worst_max_bits` (first in seed order on ties).
    pub worst_seed: Option<u64>,
    /// Sum of per-trial CCs (for the mean).
    pub sum_max_bits: u64,
    /// Sum of per-trial total bits.
    pub sum_total_bits: u64,
    /// Longest execution.
    pub max_rounds: Round,
    /// Sum of rounds (for the mean).
    pub sum_rounds: Round,
    /// Distribution of per-trial CC (`max_bits`) across trials.
    pub hist_max_bits: Histogram,
    /// Distribution of per-trial round counts across trials.
    pub hist_rounds: Histogram,
    /// Per-phase aggregates, keyed by label in first-encountered order
    /// (deterministic because trials are absorbed in seed order).
    pub phases: Vec<PhaseAgg>,
    /// Sum of watchdog violations over all trials.
    pub sum_violations: u64,
    /// Number of trials with at least one violation.
    pub violation_trials: usize,
}

impl TrialSummary {
    /// Folds one trial into the aggregate.
    pub fn absorb(&mut self, t: &TrialStats) {
        self.trials += 1;
        self.sum_violations += t.violations;
        self.violation_trials += usize::from(t.violations > 0);
        if t.max_bits > self.worst_max_bits || self.worst_seed.is_none() {
            self.worst_max_bits = t.max_bits;
            self.worst_seed = Some(t.seed);
        }
        self.sum_max_bits += t.max_bits;
        self.sum_total_bits += t.total_bits;
        self.max_rounds = self.max_rounds.max(t.rounds);
        self.sum_rounds += t.rounds;
        self.hist_max_bits.record(t.max_bits);
        self.hist_rounds.record(t.rounds);
        for ph in &t.phases {
            let agg = match self.phases.iter_mut().find(|a| a.label == ph.label) {
                Some(agg) => agg,
                None => {
                    self.phases.push(PhaseAgg { label: ph.label.clone(), ..PhaseAgg::default() });
                    self.phases.last_mut().expect("just pushed")
                }
            };
            agg.spans += 1;
            agg.sum_bits += ph.bits;
            agg.worst_bits = agg.worst_bits.max(ph.bits);
            agg.sum_sends += ph.sends;
            agg.sum_rounds += ph.rounds;
            agg.worst_rounds = agg.worst_rounds.max(ph.rounds);
        }
    }

    /// The cross-trial aggregate of one phase label, if any trial had it.
    pub fn phase(&self, label: &str) -> Option<&PhaseAgg> {
        self.phases.iter().find(|a| a.label == label)
    }

    /// Mean per-trial CC.
    pub fn mean_max_bits(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.sum_max_bits as f64 / self.trials as f64
        }
    }

    /// Mean rounds per trial.
    pub fn mean_rounds(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.sum_rounds as f64 / self.trials as f64
        }
    }
}

impl<'a> FromIterator<&'a TrialStats> for TrialSummary {
    fn from_iter<I: IntoIterator<Item = &'a TrialStats>>(iter: I) -> Self {
        let mut s = TrialSummary::default();
        for t in iter {
            s.absorb(t);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_resolves_to_machine_parallelism() {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(Runner::new(0).threads(), cores);
        // Explicit counts are honored up to the core count and clamped
        // beyond it; `exact` always bypasses the clamp.
        assert_eq!(Runner::new(3).threads(), 3.min(cores));
        assert_eq!(Runner::new(cores + 7).threads(), cores);
        assert_eq!(Runner::exact(cores + 7).threads(), cores + 7);
        assert_eq!(Runner::exact(0).threads(), 1);
    }

    #[test]
    fn results_are_in_seed_order_at_any_thread_count() {
        let seeds: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = seeds.iter().map(|&s| s.wrapping_mul(s) ^ 0xabcd).collect();
        for threads in [1, 2, 3, 8, 16] {
            let got = Runner::new(threads).run(&seeds, |s| s.wrapping_mul(s) ^ 0xabcd);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn uneven_trial_costs_still_merge_correctly() {
        // Make early seeds slow so work stealing reorders completion.
        let seeds: Vec<u64> = (0..24).collect();
        let got = Runner::exact(4).run(&seeds, |s| {
            if s < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            s + 1
        });
        assert_eq!(got, (1..=24).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_and_singleton_seed_lists() {
        let r = Runner::exact(8);
        assert_eq!(r.run(&[], |s| s), Vec::<u64>::new());
        assert_eq!(r.run(&[7], |s| s * 2), vec![14]);
    }

    #[test]
    #[should_panic(expected = "trial 3 exploded")]
    fn worker_panics_propagate() {
        let seeds: Vec<u64> = (0..8).collect();
        let _ = Runner::exact(2).run(&seeds, |s| {
            assert!(s != 3, "trial 3 exploded");
            s
        });
    }

    #[test]
    fn summary_is_order_insensitive_aggregate_of_stats() {
        let mut m = Metrics::new(3);
        m.record_send(NodeId(1), 2, 10, 1);
        m.record_send(NodeId(2), 3, 4, 1);
        let a = TrialStats::from_metrics(5, 3, &m);
        assert_eq!(a.max_bits, 10);
        assert_eq!(a.total_bits, 14);
        assert_eq!(a.bottleneck, Some(NodeId(1)));

        let b = TrialStats {
            seed: 6,
            rounds: 9,
            max_bits: 2,
            total_bits: 2,
            bottleneck: None,
            phases: vec![],
            violations: 0,
        }
        .with_violations(3);
        let s: TrialSummary = [&a, &b].into_iter().collect();
        assert_eq!(s.trials, 2);
        assert_eq!(s.sum_violations, 3);
        assert_eq!(s.violation_trials, 1);
        assert_eq!(s.worst_max_bits, 10);
        assert_eq!(s.worst_seed, Some(5));
        assert_eq!(s.max_rounds, 9);
        assert!((s.mean_max_bits() - 6.0).abs() < 1e-12);
        assert!((s.mean_rounds() - 6.0).abs() < 1e-12);
        assert_eq!(s.hist_max_bits.samples(), 2);
        assert_eq!(s.hist_max_bits.max(), 10);
        assert_eq!(s.hist_rounds.max(), 9);
    }

    #[test]
    fn histogram_buckets_quantiles_and_merge() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in [0, 1, 2, 3, 4, 8, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.samples(), 8);
        assert_eq!(h.max(), 1000);
        // p50 of 8 samples is rank 4 (value 3); p90 is rank 8 (1000).
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(0.9), 1000);
        assert_eq!(h.quantile(1.0), 1000);
        // Merge equals recording the union, bucket by bucket.
        let mut a = Histogram::new();
        a.record(5);
        a.record(70);
        let mut b = Histogram::new();
        b.record(6);
        let mut merged = a.clone();
        merged.merge(&b);
        let mut direct = Histogram::new();
        for v in [5, 70, 6] {
            direct.record(v);
        }
        assert_eq!(merged, direct);
        assert_eq!(merged.bars(), vec![(4, 7, 2), (64, 127, 1)]);
        // A default (all-zero) histogram merges like an empty one.
        let mut d = Histogram::default();
        d.merge(&direct);
        assert_eq!(d, direct);
        d.record(0);
        assert_eq!(d.samples(), 4);
    }

    #[test]
    fn histogram_quantiles_are_exact_up_to_the_kept_samples_then_bucket_edges() {
        let mut h = Histogram::new();
        for v in (1..=EXACT_SAMPLES).rev() {
            h.record(v);
        }
        // 256 samples, recorded out of order: every quantile is a sample.
        assert_eq!((h.quantile(0.5), h.quantile(0.9), h.quantile(1.0)), (128, 231, 256));
        // One more sample: the p50 rank (129) falls in bucket [128, 255].
        h.record(1000);
        assert_eq!((h.quantile(0.5), h.quantile(1.0)), (255, 1000));
    }

    #[test]
    fn a_histogram_merged_into_an_empty_one_answers_the_same_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=1000 {
            h.record(v);
        }
        let quantiles = |h: &Histogram| [0.5, 0.9, 0.99].map(|q| h.quantile(q));
        assert_eq!(quantiles(&h), [511, 1000, 1000]);
        let mut merged = Histogram::new();
        merged.merge(&h);
        assert_eq!(merged, h);
        assert_eq!(quantiles(&merged), quantiles(&h));
        // Two halves merge, in either order, into the whole.
        let (mut lo, mut hi) = (Histogram::new(), Histogram::new());
        for v in 1..=1000 {
            if v <= 200 { &mut lo } else { &mut hi }.record(v);
        }
        let mut lo_hi = lo.clone();
        lo_hi.merge(&hi);
        let mut hi_lo = hi.clone();
        hi_lo.merge(&lo);
        assert_eq!(lo_hi, h);
        assert_eq!(hi_lo, h);
    }

    #[test]
    fn one_worker_row_and_the_summary_agree_past_the_kept_samples() {
        // Trials spin for 0..50 µs, so the p50 and p99 land inside buckets.
        let seeds: Vec<u64> = (0..600).collect();
        let spin = |s: u64, _| {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_micros(s % 50) {}
        };
        let (_, tele) = Runner::new(1).run_observed(&seeds, spin, None, None);
        let row = &tele.workers[0];
        assert_eq!(row.trials, 600);
        assert_eq!((row.p50_micros, row.p99_micros), (tele.p50_micros(), tele.p99_micros()));
    }

    /// A counting sink for tests: remembers every completion it saw.
    #[derive(Default)]
    struct CountingSink {
        calls: Mutex<Vec<(usize, usize, usize)>>, // (completed, total, worker)
    }

    impl ProgressSink for CountingSink {
        fn trial_done(&self, p: &Progress) {
            self.calls.lock().unwrap().push((p.completed, p.total, p.worker));
        }
    }

    #[test]
    fn progress_sink_sees_every_trial_once_and_results_match_plain_run() {
        let seeds: Vec<u64> = (0..31).collect();
        let expect = Runner::exact(4).run(&seeds, |s| s * 3);
        for threads in [1, 4] {
            let sink = CountingSink::default();
            let (got, _) =
                Runner::new(threads).run_observed(&seeds, |s, _| s * 3, Some(&sink), None);
            assert_eq!(got, expect, "threads = {threads}");
            let calls = sink.calls.lock().unwrap();
            assert_eq!(calls.len(), seeds.len());
            // Each trial observes a distinct `completed` value 1..=total.
            let mut seen: Vec<usize> = calls.iter().map(|c| c.0).collect();
            seen.sort_unstable();
            assert_eq!(seen, (1..=seeds.len()).collect::<Vec<_>>());
            assert!(calls.iter().all(|c| c.1 == seeds.len()));
            let max_worker = calls.iter().map(|c| c.2).max().unwrap();
            assert!(max_worker < threads.max(1), "worker {max_worker} at {threads} threads");
        }
    }

    #[test]
    fn progress_throughput_and_eta() {
        let p = Progress {
            completed: 5,
            total: 20,
            worker: 1,
            elapsed: Duration::from_secs(2),
            p50_micros: 0,
            p99_micros: 0,
            straggler: None,
        };
        assert!((p.throughput() - 2.5).abs() < 1e-12);
        // 15 remaining at 2.5/s = 6 s.
        assert!((p.eta().as_secs_f64() - 6.0).abs() < 1e-9);
        // Degenerate cases: no elapsed time, and a finished sweep.
        let zero = Progress { elapsed: Duration::ZERO, ..p };
        assert_eq!(zero.throughput(), 0.0);
        assert_eq!(zero.eta(), Duration::ZERO);
        let done = Progress { completed: 20, ..p };
        assert_eq!(done.eta(), Duration::ZERO);
    }

    #[test]
    fn console_progress_line_renders_instrumented_fields_only_when_present() {
        let p = Progress {
            completed: 3,
            total: 8,
            worker: 2,
            elapsed: Duration::from_secs(1),
            p50_micros: 0,
            p99_micros: 0,
            straggler: None,
        };
        let line = ConsoleProgress::line(&p);
        assert!(line.starts_with("[3/8]"), "{line}");
        assert!(line.contains("3.0 trials/s"), "{line}");
        assert!(!line.contains("p99"), "uninstrumented line has no latency: {line}");
        // Instrumented fields render when populated.
        let instr = Progress { p50_micros: 120, p99_micros: 900, straggler: Some(3), ..p };
        let line = ConsoleProgress::line(&instr);
        assert!(line.contains("p50 120us p99 900us"), "{line}");
        assert!(line.contains("STRAGGLER worker 3"), "{line}");
        let sink = ConsoleProgress::with_interval(Duration::from_secs(3600));
        sink.trial_done(&p); // throttled mid-sweep call: must not panic
    }

    #[test]
    fn histogram_quantile_edge_cases() {
        // Empty histogram: every quantile is 0 (and max/samples are 0).
        let empty = Histogram::new();
        assert_eq!(empty.samples(), 0);
        assert_eq!(empty.max(), 0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(empty.quantile(q), 0, "q = {q}");
        }
        // A default (never-allocated) histogram behaves identically.
        let default = Histogram::default();
        assert_eq!(default.quantile(1.0), 0);
        assert_eq!(default.bars(), Vec::<(u64, u64, u64)>::new());

        // Single sample: every quantile resolves to that sample's bucket,
        // capped at the true maximum.
        let mut one = Histogram::new();
        one.record(100);
        for q in [0.0, 0.001, 0.5, 1.0] {
            assert_eq!(one.quantile(q), 100, "q = {q}");
        }
        // q = 0.0 clamps to rank 1 (the minimum's bucket), q = 1.0 is the
        // maximum — for a multi-sample histogram they straddle the data.
        let mut h = Histogram::new();
        for v in [1, 2, 1000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1000);
        assert!(h.quantile(0.0) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(1.0));
        // A zero-valued sample lives in the dedicated zero bucket.
        let mut z = Histogram::new();
        z.record(0);
        assert_eq!(z.quantile(1.0), 0);
        assert_eq!(z.bars(), vec![(0, 0, 1)]);
    }

    #[test]
    fn histogram_merge_with_disjoint_buckets() {
        // Low buckets only.
        let mut lo = Histogram::new();
        for v in [1, 2, 3] {
            lo.record(v);
        }
        // High buckets only — disjoint from lo's.
        let mut hi = Histogram::new();
        for v in [1 << 20, 1 << 30] {
            hi.record(v);
        }
        let mut merged = lo.clone();
        merged.merge(&hi);
        assert_eq!(merged.samples(), 5);
        assert_eq!(merged.max(), 1 << 30);
        // Bars are the union of both sides' bars, in ascending order.
        let mut expect = lo.bars();
        expect.extend(hi.bars());
        assert_eq!(merged.bars(), expect);
        // Quantiles bracket the two disjoint clusters.
        assert_eq!(merged.quantile(0.5), 3);
        assert_eq!(merged.quantile(1.0), 1 << 30);
        // Merging in the other direction gives the same histogram.
        let mut other = hi.clone();
        other.merge(&lo);
        assert_eq!(other, merged);
        // Merging an empty histogram is a no-op in both directions.
        let before = merged.clone();
        merged.merge(&Histogram::new());
        assert_eq!(merged, before);
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn instrumented_run_matches_plain_and_merges_worker_rows() {
        let seeds: Vec<u64> = (0..37).collect();
        let plain = Runner::exact(4).run(&seeds, |s| s.wrapping_mul(7) ^ 1);
        for threads in [1, 2, 4] {
            let (got, tele) = Runner::exact(threads).run_observed(
                &seeds,
                |s, _| s.wrapping_mul(7) ^ 1,
                None,
                None,
            );
            assert_eq!(got, plain, "threads = {threads}");
            // Deterministic totals: every seed ran exactly once.
            assert_eq!(tele.trials(), seeds.len() as u64);
            assert_eq!(tele.latency.samples(), seeds.len() as u64);
            // One load row per worker, partitioning the trials.
            assert_eq!(tele.workers.len(), threads.min(seeds.len()));
            assert_eq!(tele.workers.iter().map(|w| w.trials).sum::<u64>(), seeds.len() as u64);
            for (i, w) in tele.workers.iter().enumerate() {
                assert_eq!(w.worker, i);
            }
            // The table renders one aligned row per worker.
            let table = tele.workers_table();
            assert_eq!(table.lines().count(), 1 + tele.workers.len(), "{table}");
            assert!(table.contains("p99_us"), "{table}");
        }
    }

    #[test]
    fn instrumented_progress_carries_latency_and_results_stay_identical() {
        #[derive(Default)]
        struct LatencySink {
            saw_latency: AtomicU64,
            calls: AtomicU64,
        }
        impl ProgressSink for LatencySink {
            fn trial_done(&self, p: &Progress) {
                self.calls.fetch_add(1, Ordering::Relaxed);
                if p.p99_micros > 0 {
                    self.saw_latency.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let seeds: Vec<u64> = (0..16).collect();
        let slow = |s: u64| {
            std::thread::sleep(Duration::from_millis(1));
            s * 2
        };
        let plain = Runner::exact(2).run(&seeds, slow);
        let sink = LatencySink::default();
        let (got, tele) = Runner::exact(2).run_observed(&seeds, |s, _| slow(s), Some(&sink), None);
        assert_eq!(got, plain);
        assert_eq!(sink.calls.load(Ordering::Relaxed), 16);
        // A 1 ms trial always lands at >= 1000 us, so every progress
        // call after the first has a nonzero p99.
        assert!(sink.saw_latency.load(Ordering::Relaxed) >= 15);
        assert!(tele.p50_micros() >= 1000, "p50 {}", tele.p50_micros());
        assert!(tele.p99_micros() >= tele.p50_micros());
    }

    #[test]
    fn timeline_run_records_trial_spans_on_worker_lanes() {
        use crate::timeline::{SpanKind, Timeline};
        let tl = Timeline::new();
        let seeds: Vec<u64> = (0..8).collect();
        let (got, _tele) = Runner::exact(2).run_observed(&seeds, |s, _lane| s * 3, None, Some(&tl));
        assert_eq!(got, seeds.iter().map(|s| s * 3).collect::<Vec<_>>());
        let data = tl.snapshot();
        let trials: Vec<_> = data.spans.iter().filter(|s| s.kind == SpanKind::Trial).collect();
        assert_eq!(trials.len(), seeds.len(), "one Trial span per seed");
        for s in &trials {
            assert!(s.lane >= 1, "worker lanes start at 1, got {}", s.lane);
            assert!(s.arg.is_some(), "trial spans carry the seed");
        }
        assert_eq!(data.lanes.get(&1).map(String::as_str), Some("worker 0"));
        assert_eq!(data.lanes.get(&2).map(String::as_str), Some("worker 1"));
        // Results stay bit-identical to the unobserved run.
        assert_eq!(got, Runner::exact(2).run(&seeds, |s| s * 3));
    }

    #[test]
    fn straggler_rule_flags_only_a_dominant_worker() {
        assert_eq!(straggler_of(&[]), None);
        assert_eq!(straggler_of(&[100]), None, "one worker is never a straggler");
        assert_eq!(straggler_of(&[100, 110, 90]), None, "balanced load");
        // Worker 1 carries > 2x the mean (mean 200, max 500).
        assert_eq!(straggler_of(&[50, 500, 50]), Some(1));
        assert_eq!(straggler_of(&[0, 0]), None, "no signal before any work");
        // Regression: a lone active worker used to flag itself (mean
        // 250 by integer division, 501 > 500) even though its peers
        // simply had not claimed a trial yet.
        assert_eq!(straggler_of(&[501, 0]), None, "only one worker did any work");
        assert_eq!(straggler_of(&[0, 501, 0, 0]), None, "only one worker did any work");
        // ...but two active workers with a dominant one still flag.
        assert_eq!(straggler_of(&[0, 900, 100, 0]), Some(1));
    }

    #[test]
    fn summary_aggregates_phases_by_label() {
        use crate::metrics::PhaseStats;
        let ph = |label: &str, bits: u64, rounds: Round| PhaseStats {
            label: label.into(),
            start: 1,
            end: rounds,
            rounds,
            bits,
            sends: bits / 2,
            depth: 0,
        };
        let a = TrialStats {
            seed: 0,
            rounds: 10,
            max_bits: 5,
            total_bits: 9,
            bottleneck: None,
            phases: vec![ph("AGG", 6, 4), ph("VERI", 3, 6)],
            violations: 0,
        };
        let b = TrialStats {
            seed: 1,
            rounds: 12,
            max_bits: 7,
            total_bits: 11,
            bottleneck: None,
            phases: vec![ph("AGG", 8, 5)],
            violations: 0,
        };
        let s: TrialSummary = [&a, &b].into_iter().collect();
        assert_eq!(s.phases.len(), 2);
        let agg = s.phase("AGG").unwrap();
        assert_eq!((agg.spans, agg.sum_bits, agg.worst_bits), (2, 14, 8));
        assert_eq!((agg.sum_rounds, agg.worst_rounds), (9, 5));
        assert!((agg.mean_bits() - 7.0).abs() < 1e-12);
        let veri = s.phase("VERI").unwrap();
        assert_eq!((veri.spans, veri.sum_bits, veri.sum_sends), (1, 3, 1));
        assert!(s.phase("FALLBACK").is_none());
    }
}
