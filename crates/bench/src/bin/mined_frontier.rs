//! Mined worst cases against the Theorem 1 / Theorem 2 band.
//!
//! The random sweeps (E6 `thm1_upper`, `radar`) sample oblivious
//! adversaries; this bin charts what *deliberate* search finds. Default
//! mode replays every entry in `tests/corpus/`, re-measures its recorded
//! objective bit-for-bit, and — for the `suite e6` entries — recomputes
//! the random-sweep worst case for the same grid cell plus the Theorem 2
//! lower bound and a Theorem 1 envelope fitted to the random sweep, then
//! charts mined vs random vs band. Exit is nonzero when a mined value no
//! longer reproduces, fails the watchdog, or stops beating the random
//! sweep.
//!
//! `--mine` regenerates the promoted corpus: for each target cell it
//! seeds the miner with the cell's own random-sweep schedule (so the
//! result can only improve on it) and writes entries that strictly beat
//! the random-sweep worst. `--iterations K` tunes the budget.

use caaf::Sum;
use ftagg::bounds;
use ftagg::tradeoff::{run_tradeoff, TradeoffConfig};
use ftagg_bench::chart::BarChart;
use ftagg_bench::radar::{fit_envelope, Cell, DEFAULT_TOLERANCE};
use ftagg_bench::search::{
    corpus_entry, mine, replay_entry, Acceptance, MineConfig, MineProtocol, Objective,
};
use ftagg_bench::{f, threads_from_args, Env, Table};
use netsim::{CorpusEntry, NodeId, Runner};
use std::path::PathBuf;

const C: u32 = 2;
const TRIALS: u64 = 4;

/// The cells `--mine` promotes: deep caterpillar, tight TC budget.
const MINE_CELLS: &[(usize, usize, u64)] = &[(30, 8, 42), (30, 24, 42), (30, 48, 42)];

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..").join("tests").join("corpus")
}

/// The E6 environment for one (spine, f, b, trial) grid point — exact
/// `thm1_upper` seeds.
fn e6_env(spine: usize, ff: usize, b: u64, trial: u64) -> Env {
    let n = 2 * spine;
    Env::caterpillar(9_000_000 + 31 * (n as u64) + 7 * (ff as u64) + b + trial, spine, ff, b, C)
}

fn root_cc_trial(spine: usize, ff: usize, b: u64, trial: u64) -> u64 {
    let inst = e6_env(spine, ff, b, trial).instance();
    let r = run_tradeoff(&Sum, &inst, &TradeoffConfig { b, c: C, f: ff, seed: trial });
    assert!(r.correct, "random-sweep trial must be correct");
    r.metrics.bits_of(NodeId(0))
}

/// Random-sweep worst root CC for a cell (max over the E6 trials).
fn random_worst(spine: usize, ff: usize, b: u64) -> u64 {
    (0..TRIALS).map(|t| root_cc_trial(spine, ff, b, t)).max().unwrap_or(0)
}

/// Fits the Theorem 1 envelope to the random sweep's *worst* root CC over
/// a (N, f, b) grid, for the upper edge of the band.
fn fitted_envelope(threads: usize) -> ftagg_bench::radar::EnvelopeFit {
    let mut pts = Vec::new();
    for &spine in &[30usize, 60] {
        for &ff in &[8usize, 24, 48] {
            for &b in &[42u64, 126] {
                pts.push((spine, ff, b));
            }
        }
    }
    let work: Vec<u64> = (0..pts.len() as u64 * TRIALS).collect();
    let pts_ref = &pts;
    let ccs = Runner::new(threads).run(&work, |i| {
        let (spine, ff, b) = pts_ref[(i / TRIALS) as usize];
        root_cc_trial(spine, ff, b, i % TRIALS)
    });
    let cells: Vec<Cell> = pts
        .iter()
        .zip(ccs.chunks(TRIALS as usize))
        .map(|(&(spine, ff, b), chunk)| Cell {
            n: 2 * spine,
            f: ff,
            b,
            cc: chunk.iter().copied().max().unwrap_or(0) as f64,
        })
        .collect();
    fit_envelope(&cells).expect("the E6 grid separates the envelope terms")
}

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

fn mine_cell(spine: usize, ff: usize, b: u64, iterations: usize) -> (CorpusEntry, u64) {
    let env = e6_env(spine, ff, b, 0);
    let worst = random_worst(spine, ff, b);
    // Escalate until the cell's random-sweep worst falls: more seeds
    // first, then annealing.
    let mut attempts: Vec<(u64, Acceptance)> =
        (1u64..=4).map(|s| (s, Acceptance::HillClimb)).collect();
    attempts.extend((1u64..=2).map(|s| (s, Acceptance::Anneal { t0: 0.1, cooling: 0.95 })));
    let mut best = None;
    for (seed, acceptance) in attempts {
        let cfg = MineConfig {
            iterations,
            coin_seeds: 1,
            seed,
            threads: 1,
            b,
            c: C,
            f_budget: ff,
            objective: Objective::RootCc,
            protocol: MineProtocol::Tradeoff { f: ff },
            acceptance,
            mutate_topology: false,
        };
        let r = mine(&Sum, &env.graph, &env.inputs, env.max_input, &cfg, Some(&env.schedule), None);
        assert!(r.counterexamples.is_empty(), "tradeoff must stay correct while mined");
        let better = best.as_ref().is_none_or(|(_, v, _)| r.value > *v);
        if better {
            best = Some((cfg, r.value, r));
        }
        if best.as_ref().is_some_and(|(_, v, _)| *v > worst) {
            break;
        }
    }
    let (cfg, _, r) = best.expect("at least one attempt ran");
    let n = 2 * spine;
    let name = format!("e6-n{n}-f{ff}-b{b}-root-cc");
    let mut entry = corpus_entry(&name, &Sum, &env.inputs, env.max_input, &cfg, &r);
    entry.meta.insert("suite".into(), "e6".into());
    entry.meta.insert("spine".into(), spine.to_string());
    (entry, worst)
}

fn run_mine_mode(iterations: usize) {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create tests/corpus");
    let mut promoted = 0usize;
    for &(spine, ff, b) in MINE_CELLS {
        let (entry, worst) = mine_cell(spine, ff, b, iterations);
        let beat = entry.value > worst;
        println!(
            "cell (n={}, f={ff}, b={b}): mined root CC {} vs random worst {worst} — {}",
            2 * spine,
            entry.value,
            if beat { "beats the sweep" } else { "NOT promoted" },
        );
        if beat {
            let path = dir.join(format!("{}.corpus", entry.name));
            std::fs::write(&path, entry.to_text()).expect("write corpus entry");
            println!("  -> {}", path.display());
            promoted += 1;
        }
    }
    println!("\n{promoted}/{} cells promoted.", MINE_CELLS.len());
    if promoted < 3 {
        eprintln!("FAILED: fewer than 3 mined cells beat the random sweep");
        std::process::exit(1);
    }
}

fn main() {
    let iterations: usize = arg_value("--iterations").and_then(|v| v.parse().ok()).unwrap_or(80);
    if std::env::args().skip(1).any(|a| a == "--mine") {
        run_mine_mode(iterations);
        return;
    }

    let dir = corpus_dir();
    let mut entries: Vec<CorpusEntry> = Vec::new();
    if let Ok(read) = std::fs::read_dir(&dir) {
        let mut paths: Vec<PathBuf> = read
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "corpus"))
            .collect();
        paths.sort();
        for p in paths {
            let text = std::fs::read_to_string(&p).expect("read corpus entry");
            entries
                .push(CorpusEntry::from_text(&text).unwrap_or_else(|e| {
                    panic!("corpus entry {} does not parse: {e}", p.display())
                }));
        }
    }
    if entries.is_empty() {
        println!("no corpus entries under {} — run with --mine to create them.", dir.display());
        return;
    }

    println!(
        "mined frontier: {} corpus entr{} vs the random sweep and the theorem band\n",
        entries.len(),
        if entries.len() == 1 { "y" } else { "ies" },
    );
    let fit = fitted_envelope(threads_from_args());
    println!(
        "Theorem 1 envelope (random-sweep worst root CC): {}*(f/b)*log^2(N) + {}*log^2(N)\n",
        f(fit.alpha, 2),
        f(fit.beta, 2),
    );

    let mut t = Table::new(vec![
        "entry",
        "recorded",
        "replayed",
        "random worst",
        "thm2 lower",
        "thm1 fit",
        "verdict",
    ]);
    let mut failures = 0usize;
    for entry in &entries {
        let replay = replay_entry(entry, false).expect("corpus entry replays");
        let mut problems = Vec::new();
        if replay.value != entry.value {
            problems.push("value drift");
        }
        if !replay.monitor.is_clean() {
            problems.push("watchdog violations");
        }
        if replay.counterexamples > 0 {
            problems.push("incorrect result");
        }
        let e6 = entry.meta_str("suite") == Some("e6");
        let (worst_s, lower_s, fit_s) = if e6 {
            let n = entry.graph.len();
            let spine = entry.meta_u64("spine").unwrap_or(n as u64 / 2) as usize;
            let ff = entry.meta_u64("f_budget").expect("e6 entry records f_budget") as usize;
            let b = entry.meta_u64("b").expect("e6 entry records b");
            let worst = random_worst(spine, ff, b);
            let lower = bounds::lower_bound_new(n, ff, b);
            let cell = Cell { n, f: ff, b, cc: entry.value as f64 };
            let (u, v) = cell.features();
            let predicted = fit.alpha * u + fit.beta * v;
            let upper = predicted * (1.0 + DEFAULT_TOLERANCE);
            if entry.value <= worst {
                problems.push("does not beat the random sweep");
            }
            if (entry.value as f64) < lower {
                problems.push("below the Theorem 2 lower bound");
            }
            if entry.value as f64 > upper {
                problems.push("outside the Theorem 1 envelope");
            }
            BarChart::new(format!("cell (n={n}, f={ff}, b={b}) — root CC"))
                .log_scale()
                .bar("thm2 lower", lower.max(1.0))
                .bar("random worst", worst as f64)
                .bar(format!("mined ({})", entry.name), entry.value as f64)
                .bar("thm1 fit (+60%)", upper)
                .print();
            println!();
            (worst.to_string(), f(lower, 1), f(upper, 0))
        } else {
            ("-".into(), "-".into(), "-".into())
        };
        let verdict = if problems.is_empty() { "ok".to_string() } else { problems.join("; ") };
        if !problems.is_empty() {
            failures += 1;
        }
        t.row(vec![
            entry.name.clone(),
            entry.value.to_string(),
            replay.value.to_string(),
            worst_s,
            lower_s,
            fit_s,
            verdict,
        ]);
    }
    t.print();
    if failures > 0 {
        eprintln!(
            "\nFAILED: {failures} corpus entr{} regressed.",
            if failures == 1 { "y" } else { "ies" }
        );
        std::process::exit(1);
    }
    println!("\nok — every mined entry replays bit-for-bit, beats the random sweep, and sits inside the band.");
}
