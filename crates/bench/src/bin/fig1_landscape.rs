//! E1 — regenerates **Figure 1**: the CC-vs-TC landscape of the SUM
//! problem.
//!
//! For a grid of TC budgets `b`, measures the bottleneck-node CC of
//! Algorithm 1 (averaged over random adversaries at each point) and prints
//! it against the paper's curves: the new upper bound
//! `f/b·log²N + log²N`, the new lower bound `f/(b·log b) + logN/log b`,
//! the old lower bound `f/(b²·log b)`, and the two fixed-TC baselines
//! (brute force at `b = O(1)`, folklore at `b = O(f)`).
//!
//! The paper's Figure 1 is qualitative; what must reproduce is the
//! *shape*: measured CC falls roughly like `f/b` before flattening at the
//! `log²N`-ish floor, sits between the bound curves, and beats brute
//! force for all but the smallest `b` while approaching folklore's CC at
//! `b ≈ f` with far better flexibility in between.

use caaf::Sum;
use ftagg::baselines::{run_brute, run_folklore};
use ftagg::bounds;
use ftagg::tradeoff::{run_tradeoff_monitored, TradeoffConfig};
use ftagg_bench::chart::BarChart;
use ftagg_bench::{f, geomean, threads_from_args, Env, Table};
use netsim::Runner;

fn main() {
    let n = 120;
    let f_bound = 40;
    let c = 2u32;
    let trials = 5;
    let runner = Runner::new(threads_from_args());

    println!("Figure 1 — communication/time landscape (N = {n}, f = {f_bound}, c = {c})");
    println!(
        "measured = geometric mean of bottleneck CC over {trials} random adversaries \
         ({} worker threads)\n",
        runner.threads()
    );

    let mut table = Table::new(vec![
        "b",
        "measured CC",
        "upper f/b·log²N",
        "lower new",
        "lower old",
        "pairs",
        "fallbacks",
    ]);
    let mut chart = BarChart::new("\nmeasured CC by b (log scale):").log_scale();
    let seeds: Vec<u64> = (0..trials).collect();
    for &b in &[42u64, 63, 84, 126, 168, 252, 336, 504, 756] {
        // One trial per seed, in parallel; the reduction below walks the
        // runner's seed-ordered results, so the printed numbers match the
        // old serial loop exactly.
        let results = runner.run(&seeds, |trial| {
            let env = Env::caterpillar(1000 * b + trial, 60, f_bound, b, c);
            let inst = env.instance();
            let cfg = TradeoffConfig { b, c, f: f_bound, seed: trial };
            // Strict watchdog: Theorem 3/6 budgets, crash silence,
            // phases, and the CAAF envelope checked live.
            let (r, monitor) = run_tradeoff_monitored(&Sum, &inst, &cfg, true);
            assert!(r.correct, "b = {b}, trial {trial}: incorrect result");
            assert!(monitor.is_clean(), "b = {b}, trial {trial}: {}", monitor.render());
            (r.metrics.max_bits() as f64, r.pairs_run, r.used_fallback)
        });
        let mut ccs = Vec::new();
        let mut pairs = 0usize;
        let mut fallbacks = 0usize;
        for (cc, p, fb) in results {
            ccs.push(cc);
            pairs += p;
            fallbacks += usize::from(fb);
        }
        chart.bar(format!("b = {b}"), geomean(&ccs));
        table.row(vec![
            b.to_string(),
            f(geomean(&ccs), 0),
            f(bounds::upper_bound_simple(n, f_bound, b), 0),
            f(bounds::lower_bound_new(n, f_bound, b), 1),
            f(bounds::lower_bound_old(f_bound, b), 2),
            format!("{:.1}", pairs as f64 / trials as f64),
            fallbacks.to_string(),
        ]);
    }
    table.print();
    chart.print();

    // The fixed-TC baselines anchoring the two ends of the figure.
    println!("\nbaselines (fixed TC):");
    let baseline = runner.run(&seeds, |trial| {
        let env = Env::caterpillar(7_000 + trial, 60, f_bound, 84, c);
        let inst = env.instance();
        let br = run_brute(&Sum, &inst, c);
        assert!(br.correct);
        let fo = run_folklore(&Sum, &inst, c, 2 * f_bound + 2);
        assert!(fo.correct);
        (br.metrics.max_bits() as f64, fo.metrics.max_bits() as f64, fo.attempts)
    });
    let mut ccs_brute = Vec::new();
    let mut ccs_folk = Vec::new();
    let mut folk_attempts = 0usize;
    for (br, fo, att) in baseline {
        ccs_brute.push(br);
        ccs_folk.push(fo);
        folk_attempts += att;
    }
    let mut t2 = Table::new(vec!["protocol", "TC (flooding rounds)", "measured CC", "theory"]);
    t2.row(vec![
        "brute force".to_string(),
        format!("O(1) = {}", 2 * c),
        f(geomean(&ccs_brute), 0),
        format!("N·logN = {:.0}", bounds::brute_cc(n)),
    ]);
    t2.row(vec![
        "folklore".to_string(),
        format!("O(f), avg {:.1} attempts", folk_attempts as f64 / trials as f64),
        f(geomean(&ccs_folk), 0),
        format!("f·logN = {:.0}", bounds::folklore_cc(n, f_bound)),
    ]);
    t2.print();

    println!("\ngap check: upper/lower ≤ log²N·log b (Theorem 1 vs 2):");
    let mut t3 = Table::new(vec!["b", "gap", "polylog budget"]);
    for &b in &[42u64, 168, 756] {
        t3.row(vec![
            b.to_string(),
            f(bounds::gap(n, f_bound, b), 1),
            f(bounds::log2c(n as f64).powi(2) * bounds::log2c(b as f64), 1),
        ]);
    }
    t3.print();
}
