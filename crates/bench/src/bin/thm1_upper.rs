//! E6 — **Theorem 1**: Algorithm 1's measured CC across the (N, f, b)
//! grid, against `(f/b·logN + logN)·min(b, f, logN)`.
//!
//! Also verifies the structural accounting of the proof: the number of
//! pairs run never exceeds `min(x, f+1, logN)`, TC stays within `b`
//! flooding rounds (+1 boundary round for the fallback), and every output
//! is correct.

use caaf::Sum;
use ftagg::bounds;
use ftagg::tradeoff::{run_tradeoff, TradeoffConfig};
use ftagg_bench::{f, geomean, progress_from_args, threads_from_args, Env, Table};
use netsim::{ProgressSink, Runner};

fn main() {
    let c = 2u32;
    let trials = 4u64;
    let runner = Runner::new(threads_from_args());
    let progress = progress_from_args();
    println!(
        "Theorem 1 — Algorithm 1 across the (N, f, b) grid (c = {c}, {trials} trials/point, \
         {} worker threads)\n",
        runner.threads()
    );
    // One flat (cell, trial) work list: a single progress stream over the
    // whole grid, and workers stay busy across cell boundaries.
    let mut cells = Vec::new();
    for &n_spine in &[30usize, 60] {
        for &ff in &[8usize, 24, 48] {
            for &b in &[42u64, 126, 378] {
                cells.push((n_spine, ff, b));
            }
        }
    }
    let work: Vec<u64> = (0..cells.len() as u64 * trials).collect();
    let cells_ref = &cells;
    let trial_fn = |i: u64| {
        let (n_spine, ff, b) = cells_ref[(i / trials) as usize];
        let trial = i % trials;
        let n = 2 * n_spine;
        let env = Env::caterpillar(
            9_000_000 + 31 * (n as u64) + 7 * (ff as u64) + b + trial,
            n_spine,
            ff,
            b,
            c,
        );
        let inst = env.instance();
        let cfg = TradeoffConfig { b, c, f: ff, seed: trial };
        let r = run_tradeoff(&Sum, &inst, &cfg);
        let pair_cap = r.x.min(ff as u64 + 1).min(u64::from(wire::id_bits(n)));
        assert!(
            r.pairs_run as u64 <= pair_cap,
            "pairs {} > min(x, f+1, logN) = {pair_cap}",
            r.pairs_run
        );
        assert!(r.flooding_rounds <= b + 1, "TC {} > b = {b}", r.flooding_rounds);
        (r.metrics.max_bits() as f64, r.pairs_run, r.flooding_rounds, r.correct, pair_cap)
    };
    let progress = progress.as_ref().map(|p| p as &dyn ProgressSink);
    let (results, _) = runner.run_observed(&work, |s, _| trial_fn(s), progress, None);
    let mut t = Table::new(vec![
        "N",
        "f",
        "b",
        "measured CC",
        "bound (precise)",
        "bound (simple)",
        "pairs",
        "min(x,f+1,logN)",
        "TC used",
        "correct",
    ]);
    for (cell, chunk) in cells.iter().zip(results.chunks(trials as usize)) {
        let &(n_spine, ff, b) = cell;
        let n = 2 * n_spine;
        let mut ccs = Vec::new();
        let mut pairs_max = 0usize;
        let mut tc_max = 0u64;
        let mut all_correct = true;
        let mut pair_cap = 0u64;
        for &(cc, pr, tc, ok, cap) in chunk {
            ccs.push(cc);
            pairs_max = pairs_max.max(pr);
            tc_max = tc_max.max(tc);
            all_correct &= ok;
            pair_cap = cap;
        }
        assert!(all_correct);
        t.row(vec![
            n.to_string(),
            ff.to_string(),
            b.to_string(),
            f(geomean(&ccs), 0),
            f(bounds::upper_bound_new(n, ff, b), 0),
            f(bounds::upper_bound_simple(n, ff, b), 0),
            pairs_max.to_string(),
            pair_cap.to_string(),
            tc_max.to_string(),
            "yes".to_string(),
        ]);
    }
    t.print();
    println!("\nok — all outputs correct, pair counts within min(x, f+1, logN), TC within b (+1).");
}
