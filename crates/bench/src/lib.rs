//! # ftagg-bench — the experiment harness
//!
//! Shared utilities for the binaries that regenerate every figure and
//! table of the paper (see DESIGN.md §4 for the experiment index, and
//! EXPERIMENTS.md for recorded paper-vs-measured results):
//!
//! | bin | artifact |
//! |-----|----------|
//! | `fig1_landscape`     | Figure 1 — CC vs TC landscape |
//! | `table2_guarantees`  | Table 2 — AGG/VERI guarantee matrix |
//! | `fig2_fragments`     | Figure 2 — fragment decomposition |
//! | `fig3_speculative`   | Figure 3 — speculative flooding scenario |
//! | `thm3_6_budgets`     | Theorems 3/6 — AGG/VERI TC & CC budgets |
//! | `thm1_upper`         | Theorem 1 — Algorithm 1's CC across (N, f, b) |
//! | `lemma11_rank`       | Lemma 11 / Theorem 9 — rank(M) = q−1, Sperner families |
//! | `thm8_reduction`     | Theorems 8/12 — two-party protocols and bounds |
//! | `doubling_adaptivity`| unknown-f doubling — overhead tracks actual failures |
//! | `caaf_generality`    | CAAF generalization — one protocol, many operators |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod radar;
pub mod search;
pub mod snapshot;

use netsim::{adversary::schedules, FailureSchedule, Graph, NodeId, Round};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fixed-width plain-text table printer for harness output.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (missing cells print empty; extras are dropped).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().take(cols).enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:>width$}  "));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * cols));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with `p` decimals (harness shorthand).
pub fn f(x: f64, p: usize) -> String {
    format!("{x:.p$}")
}

/// Worker-thread count for the experiment binaries: `--threads N` on the
/// command line wins, then the `FTAGG_THREADS` environment variable, then
/// `0` (meaning "machine parallelism" — see [`netsim::Runner::new`]).
///
/// Results are independent of this knob: every bin reduces the runner's
/// seed-ordered output, so any thread count reproduces the serial numbers
/// bit for bit.
pub fn threads_from_args() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--threads" {
            if let Some(v) = args.next() {
                if let Ok(n) = v.parse() {
                    return n;
                }
            }
        }
    }
    std::env::var("FTAGG_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Live progress sink for the experiment binaries: `--progress` on the
/// command line turns on a throttled stderr line (trials done, throughput,
/// ETA, trial latency quantiles, a straggler worker); absent, the runner
/// takes the zero-overhead `None` path. Progress goes to stderr, so piped
/// stdout is unchanged either way.
pub fn progress_from_args() -> Option<netsim::ConsoleProgress> {
    std::env::args().skip(1).any(|a| a == "--progress").then(netsim::ConsoleProgress::new)
}

/// Resident set size of this process in MB (`VmRSS` in
/// `/proc/self/status`), or `None` where that file is unavailable.
pub fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Draws random failure schedules until one respects the `c·d` stretch
/// assumption (or gives up after `tries`, returning the failure-free
/// schedule and reporting it).
pub fn stretch_respecting_schedule<R: Rng>(
    g: &Graph,
    root: NodeId,
    f_target: usize,
    horizon: Round,
    c: u32,
    tries: usize,
    rng: &mut R,
) -> FailureSchedule {
    for _ in 0..tries {
        let s = schedules::random_with_edge_budget(g, root, f_target, horizon, rng);
        if s.stretch_factor(g, root) <= f64::from(c) {
            return s;
        }
    }
    FailureSchedule::none()
}

/// The standard experiment environment: a connected random graph, a
/// stretch-respecting schedule with ~`f` edge failures spread uniformly
/// over `b` flooding rounds, and uniform inputs.
pub struct Env {
    /// The topology.
    pub graph: Graph,
    /// The schedule.
    pub schedule: FailureSchedule,
    /// Per-node inputs.
    pub inputs: Vec<u64>,
    /// Input-domain bound.
    pub max_input: u64,
}

impl Env {
    /// Builds an environment deterministically from a seed.
    pub fn random(seed: u64, n: usize, f_target: usize, b: u64, c: u32) -> Env {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = netsim::topology::connected_gnp(
            n,
            (3.0 * (n as f64).ln() / n as f64).min(0.5),
            &mut rng,
        );
        let horizon = b * u64::from(graph.diameter().max(1));
        let schedule =
            stretch_respecting_schedule(&graph, NodeId(0), f_target, horizon, c, 50, &mut rng);
        let max_input = (n as u64).next_power_of_two() - 1;
        let inputs = (0..n).map(|_| rng.gen_range(0..=max_input)).collect();
        Env { graph, schedule, inputs, max_input }
    }

    /// Same, over a deep caterpillar (levels ≫ 2t, so witness horizons and
    /// ancestor lists actually bite).
    pub fn caterpillar(seed: u64, spine: usize, f_target: usize, b: u64, c: u32) -> Env {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = netsim::topology::caterpillar(spine, 1);
        let horizon = b * u64::from(graph.diameter().max(1));
        let schedule =
            stretch_respecting_schedule(&graph, NodeId(0), f_target, horizon, c, 50, &mut rng);
        let n = graph.len();
        let max_input = (n as u64).next_power_of_two() - 1;
        let inputs = (0..n).map(|_| rng.gen_range(0..=max_input)).collect();
        Env { graph, schedule, inputs, max_input }
    }

    /// The instance for this environment rooted at node 0.
    pub fn instance(&self) -> ftagg::Instance {
        ftagg::Instance::new(
            self.graph.clone(),
            NodeId(0),
            self.inputs.clone(),
            self.schedule.clone(),
            self.max_input,
        )
        .expect("environment instances are valid")
    }
}

/// Geometric mean of a non-empty slice (used to aggregate trial CCs).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "bbbb"]);
        t.row(vec!["1", "2"]).row(vec!["333", "4"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("bbbb"));
        assert!(lines[2].ends_with('2'));
    }

    #[test]
    fn env_is_deterministic_and_valid() {
        let a = Env::random(3, 20, 5, 63, 2);
        let b = Env::random(3, 20, 5, 63, 2);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.inputs, b.inputs);
        let _ = a.instance();
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0, 16.0]) - 8.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn rss_probe_reads_the_resident_set_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }

    #[test]
    fn schedule_builder_respects_stretch() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = netsim::topology::grid(5, 5);
        let s = stretch_respecting_schedule(&g, NodeId(0), 6, 200, 2, 50, &mut rng);
        assert!(s.stretch_factor(&g, NodeId(0)) <= 2.0);
    }
}
