//! Sweep-level envelope radar: fit measured CC against Theorem 1's
//! envelope.
//!
//! Single runs are validated by the watchdog and explained by the causal
//! layer; the paper's *claims*, though, quantify over a family of runs —
//! Theorem 1 promises `CC = O(f/b·log²N + log²N)` across the whole
//! (N, f, b) grid. This module re-measures the E6 `thm1_upper` grid
//! ([`measure_grid`], bit-identical seeds to the bin), least-squares fits
//! the two-parameter envelope `α·(f/b)·log²N + β·log²N`
//! ([`fit_envelope`]), and flags cells whose relative residual exceeds a
//! tolerance — a sweep-level regression detector surfaced as
//! `ftagg-cli radar` and run in CI.

use crate::{f as fmt_f, geomean, Env, Table};
use caaf::Sum;
use ftagg::bounds::log2c;
use ftagg::tradeoff::{run_tradeoff, TradeoffConfig};
use netsim::{ProgressSink, Runner};

/// Default relative residual tolerance for [`EnvelopeFit::violations`]:
/// a cell may sit up to 60% away from the fitted envelope. The committed
/// E6 grid fits inside this (worst observed residual ≈ 47%); a cell
/// drifting past it means the measured CC no longer tracks the Theorem 1
/// shape at that point.
pub const DEFAULT_TOLERANCE: f64 = 0.6;

/// One measured grid point: the instance parameters and the
/// geomean-over-trials communication complexity (max bits at any node).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cell {
    /// Number of nodes.
    pub n: usize,
    /// Failure budget.
    pub f: usize,
    /// Flooding-round budget.
    pub b: u64,
    /// Measured CC (geomean across trials).
    pub cc: f64,
}

impl Cell {
    /// The envelope features of this cell:
    /// `u = (f/b)·log²N`, `v = log²N`.
    pub fn features(&self) -> (f64, f64) {
        let ln2 = log2c(self.n as f64).powi(2);
        ((self.f as f64 / self.b as f64) * ln2, ln2)
    }
}

/// A grid cell with its fitted envelope prediction attached.
#[derive(Clone, Copy, Debug)]
pub struct FitCell {
    /// The measured cell.
    pub cell: Cell,
    /// `α·u + β·v` at this cell's features.
    pub predicted: f64,
}

impl FitCell {
    /// Relative residual `(measured − predicted) / |predicted|`.
    pub fn residual(&self) -> f64 {
        (self.cell.cc - self.predicted) / self.predicted.abs().max(1e-9)
    }
}

/// A least-squares fit of measured CC against the Theorem 1 envelope
/// `α·(f/b)·log²N + β·log²N`.
#[derive(Clone, Debug)]
pub struct EnvelopeFit {
    /// Coefficient of the `(f/b)·log²N` term (the failure-driven cost).
    pub alpha: f64,
    /// Coefficient of the `log²N` term (the floor).
    pub beta: f64,
    /// Every cell with its prediction.
    pub cells: Vec<FitCell>,
}

/// Fits `cc ≈ α·u + β·v` over the cells by ordinary least squares
/// (2×2 normal equations — no external solver needed).
///
/// # Errors
///
/// Returns a one-line message when fewer than two cells are given or the
/// grid is degenerate (all cells share one feature direction, so the two
/// coefficients cannot be separated).
pub fn fit_envelope(cells: &[Cell]) -> Result<EnvelopeFit, String> {
    if cells.len() < 2 {
        return Err(format!("envelope fit needs at least 2 cells, got {}", cells.len()));
    }
    let (mut suu, mut suv, mut svv, mut suy, mut svy) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
    for c in cells {
        let (u, v) = c.features();
        suu += u * u;
        suv += u * v;
        svv += v * v;
        suy += u * c.cc;
        svy += v * c.cc;
    }
    let det = suu * svv - suv * suv;
    // Scale-aware singularity test: det is 4th order in the features.
    if det.abs() <= 1e-12 * (suu * svv).max(1.0) {
        return Err("degenerate grid: cells do not separate the f/b and floor terms".into());
    }
    let alpha = (suy * svv - svy * suv) / det;
    let beta = (suu * svy - suv * suy) / det;
    let fitted = cells
        .iter()
        .map(|&cell| {
            let (u, v) = cell.features();
            FitCell { cell, predicted: alpha * u + beta * v }
        })
        .collect();
    Ok(EnvelopeFit { alpha, beta, cells: fitted })
}

impl EnvelopeFit {
    /// Cells whose relative residual exceeds `tolerance` in magnitude.
    pub fn violations(&self, tolerance: f64) -> Vec<&FitCell> {
        self.cells.iter().filter(|c| c.residual().abs() > tolerance).collect()
    }

    /// Renders the fit as the radar report: the fitted envelope, one row
    /// per cell with its residual and verdict, and a one-line summary.
    pub fn render(&self, tolerance: f64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "radar: CC ~ {}*(f/b)*log^2(N) + {}*log^2(N) over {} cells",
            fmt_f(self.alpha, 2),
            fmt_f(self.beta, 2),
            self.cells.len(),
        );
        let mut t = Table::new(vec!["N", "f", "b", "measured CC", "fitted", "residual", "verdict"]);
        for fc in &self.cells {
            let r = fc.residual();
            t.row(vec![
                fc.cell.n.to_string(),
                fc.cell.f.to_string(),
                fc.cell.b.to_string(),
                fmt_f(fc.cell.cc, 0),
                fmt_f(fc.predicted, 0),
                format!("{:+.1}%", r * 100.0),
                if r.abs() > tolerance { "VIOLATION".into() } else { "ok".to_string() },
            ]);
        }
        out.push_str(&t.render());
        let bad = self.violations(tolerance).len();
        if bad == 0 {
            let _ = writeln!(
                out,
                "all {} residuals within +-{:.0}% of the Theorem 1 envelope.",
                self.cells.len(),
                tolerance * 100.0,
            );
        } else {
            let _ = writeln!(
                out,
                "{bad} cell(s) beyond +-{:.0}% of the Theorem 1 envelope.",
                tolerance * 100.0,
            );
        }
        out
    }
}

/// The (spine, f, b) points of the measured grid. `quick` shrinks it for
/// CI; the full grid is exactly E6's (`thm1_upper`).
fn grid_points(quick: bool) -> Vec<(usize, usize, u64)> {
    let spines: &[usize] = if quick { &[30] } else { &[30, 60] };
    let fs: &[usize] = if quick { &[8, 24] } else { &[8, 24, 48] };
    let bs: &[u64] = if quick { &[42, 126] } else { &[42, 126, 378] };
    let mut pts = Vec::new();
    for &s in spines {
        for &f in fs {
            for &b in bs {
                pts.push((s, f, b));
            }
        }
    }
    pts
}

/// Trials per grid point (geomean-aggregated), matching E6 on the full
/// grid.
fn grid_trials(quick: bool) -> usize {
    if quick {
        2
    } else {
        4
    }
}

/// Measures CC across the (N, f, b) grid with Algorithm 1, using the
/// exact environment seeds of the E6 `thm1_upper` bin (full grid: 18
/// cells × 4 trials; `quick`: 4 cells × 2 trials). The whole grid is one
/// flat work list, so a [`ProgressSink`] sees a single `completed/total`
/// stream and every thread stays busy across cell boundaries. Results are
/// independent of `threads` and of whether a sink is attached.
///
/// # Panics
///
/// Panics if any trial produces an incorrect aggregate — the grid doubles
/// as a correctness sweep, like the bin it mirrors.
pub fn measure_grid(quick: bool, threads: usize, progress: Option<&dyn ProgressSink>) -> Vec<Cell> {
    let c = 2u32;
    let trials = grid_trials(quick);
    let pts = grid_points(quick);
    let work: Vec<(usize, u64)> =
        (0..pts.len()).flat_map(|pi| (0..trials as u64).map(move |t| (pi, t))).collect();
    let seeds: Vec<u64> = (0..work.len() as u64).collect();
    let trial_fn = |s: u64| -> f64 {
        let (pi, trial) = work[s as usize];
        let (spine, f, b) = pts[pi];
        let n = 2 * spine;
        let env = Env::caterpillar(
            9_000_000 + 31 * (n as u64) + 7 * (f as u64) + b + trial,
            spine,
            f,
            b,
            c,
        );
        let inst = env.instance();
        let r = run_tradeoff(&Sum, &inst, &TradeoffConfig { b, c, f, seed: trial });
        assert!(r.correct, "radar grid trial must be correct (N={n} f={f} b={b} trial={trial})");
        r.metrics.max_bits() as f64
    };
    let runner = Runner::new(threads);
    let (ccs, _) = runner.run_observed(&seeds, |s, _| trial_fn(s), progress, None);
    pts.iter()
        .zip(ccs.chunks(trials))
        .map(|(&(spine, f, b), chunk)| Cell { n: 2 * spine, f, b, cc: geomean(chunk) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic grid lying exactly on `3u + 5v`.
    fn exact_cells() -> Vec<Cell> {
        let mut cells = Vec::new();
        for &(n, f, b) in &[(64usize, 8usize, 42u64), (64, 24, 42), (128, 8, 126), (128, 48, 42)] {
            let mut c = Cell { n, f, b, cc: 0.0 };
            let (u, v) = c.features();
            c.cc = 3.0 * u + 5.0 * v;
            cells.push(c);
        }
        cells
    }

    #[test]
    fn fit_recovers_exact_coefficients() {
        let fit = fit_envelope(&exact_cells()).unwrap();
        assert!((fit.alpha - 3.0).abs() < 1e-6, "alpha = {}", fit.alpha);
        assert!((fit.beta - 5.0).abs() < 1e-6, "beta = {}", fit.beta);
        for fc in &fit.cells {
            assert!(fc.residual().abs() < 1e-9);
        }
        assert!(fit.violations(0.01).is_empty());
        let out = fit.render(0.01);
        assert!(out.contains("all 4 residuals within"), "{out}");
        assert!(!out.contains("VIOLATION"), "{out}");
    }

    #[test]
    fn outlier_cell_is_flagged() {
        let mut cells = exact_cells();
        cells[2].cc *= 4.0;
        let fit = fit_envelope(&cells).unwrap();
        // The outlier drags the least-squares plane, so *several* cells
        // leave the envelope — including the perturbed one.
        let bad = fit.violations(0.3);
        assert!(!bad.is_empty());
        assert!(bad.iter().any(|fc| fc.cell.n == 128 && fc.cell.b == 126));
        let out = fit.render(0.3);
        assert!(out.contains("VIOLATION"), "{out}");
        assert!(out.contains("cell(s) beyond"), "{out}");
    }

    #[test]
    fn degenerate_grids_are_rejected() {
        assert!(fit_envelope(&[]).is_err());
        assert!(fit_envelope(&exact_cells()[..1]).is_err());
        // Two cells with identical features: one feature direction only.
        let c = exact_cells()[0];
        let err = fit_envelope(&[c, c]).unwrap_err();
        assert!(err.contains("degenerate"), "{err}");
    }

    #[test]
    fn quick_grid_is_deterministic_and_fits_the_envelope() {
        let a = measure_grid(true, 2, None);
        let b = measure_grid(true, 1, None);
        assert_eq!(a, b, "grid must be thread-count independent");
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|c| c.cc > 0.0));
        let fit = fit_envelope(&a).unwrap();
        assert!(
            fit.violations(DEFAULT_TOLERANCE).is_empty(),
            "quick grid must fit the envelope: {}",
            fit.render(DEFAULT_TOLERANCE),
        );
    }

    #[test]
    fn grid_progress_reports_every_trial() {
        use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
        #[derive(Default)]
        struct Count(AtomicUsize, AtomicU64);
        impl ProgressSink for Count {
            fn trial_done(&self, p: &netsim::Progress) {
                self.0.fetch_add(1, Ordering::Relaxed);
                assert_eq!(p.total, 8);
            }
            fn add_violations(&self, n: u64) {
                self.1.fetch_add(n, Ordering::Relaxed);
            }
            fn violations(&self) -> u64 {
                self.1.load(Ordering::Relaxed)
            }
        }
        let sink = Count::default();
        let with = measure_grid(true, 2, Some(&sink));
        assert_eq!(sink.0.load(Ordering::Relaxed), 8);
        assert_eq!(with, measure_grid(true, 2, None), "progress must not perturb results");
    }
}
