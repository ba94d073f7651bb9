//! `alg1-sweep` and `tiny-checked`: Algorithm 1 (`run_tradeoff`) over
//! seeded cells, the second under the watchdog (`run_tradeoff_monitored`).

use crate::layers::{span, Counts};
use crate::stats::mix;
use crate::{Outcome, Workload};
use caaf::Sum;
use ftagg::interval::IntervalLayout;
use ftagg::run_pair_with_schedule;
use ftagg::tradeoff::{run_tradeoff, run_tradeoff_monitored, TradeoffConfig, TradeoffReport};
use ftagg::Instance;
use netsim::adversary::schedules;
use netsim::{topology, FailureSchedule, Graph, NodeId, SpanKind, Timeline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const ROOT: NodeId = NodeId(0);
/// Stretch constant: schedules are kept only if the live diameter stays
/// within `C · d`.
const C: u32 = 2;
/// Schedule draws tried per cell before set-up gives up.
const MAX_DRAWS: usize = 64;
/// `tiny-checked` schedules per graph and budget. Which cells are slowest
/// depends on the seed's schedules; with many, the tail percentile spans
/// enough cells that it reads the same on every seed.
const TINY_SCHEDULES: usize = 256;

/// A topology family, built from the set-up's generator.
#[derive(Clone, Copy)]
enum Topo {
    Path(usize),
    Star(usize),
    Cycle(usize),
    Complete(usize),
    Grid(usize, usize),
    Caterpillar(usize, usize),
    Hypercube(u32),
    Gnp(usize, f64),
}

impl Topo {
    fn build(self, rng: &mut StdRng) -> Graph {
        match self {
            Topo::Path(n) => topology::path(n),
            Topo::Star(n) => topology::star(n),
            Topo::Cycle(n) => topology::cycle(n),
            Topo::Complete(n) => topology::complete(n),
            Topo::Grid(r, c) => topology::grid(r, c),
            Topo::Caterpillar(s, l) => topology::caterpillar(s, l),
            Topo::Hypercube(d) => topology::hypercube(d),
            Topo::Gnp(n, p) => topology::connected_gnp(n, p, rng),
        }
    }
}

struct Cell {
    class: &'static str,
    inst: Instance,
    cfg: TradeoffConfig,
}

/// A cycle of Algorithm 1 cells.
pub struct Sweep {
    cells: Vec<Cell>,
    monitored: bool,
    seed: u64,
}

/// `alg1-sweep`: deep caterpillars (d ≈ N/2) and wide N = 1024 graphs,
/// each at b ∈ {42, 126, 378}, f = N/16, c = 2.
pub fn alg1(seed: u64, tl: Option<&Timeline>, counts: &mut Counts) -> Sweep {
    let mut rng = StdRng::seed_from_u64(seed);
    let topos = [
        ("deep", Topo::Caterpillar(120, 1)),
        ("deep", Topo::Caterpillar(180, 1)),
        ("deep", Topo::Caterpillar(250, 1)),
        ("wide", Topo::Hypercube(10)),
        ("wide", Topo::Gnp(1024, 0.01)),
    ];
    let mut cells = Vec::new();
    for (class, topo) in topos {
        let g = span(tl, "topology.build", || topo.build(&mut rng));
        let f = g.len() / 16;
        for b in [42, 126, 378] {
            let s = draw_schedule(&g, f, b, false, &mut rng, tl, counts);
            cells.push(cell(
                class,
                &g,
                s,
                TradeoffConfig { b, c: C, f, seed: 0 },
                1000,
                &mut rng,
                tl,
            ));
        }
    }
    Sweep { cells, monitored: false, seed }
}

/// `tiny-checked`: N ≤ 9 graphs, [`TINY_SCHEDULES`] seeded schedules
/// each (clean and partial crashes) at b ∈ {42, 126}, run under the
/// watchdog.
pub fn tiny(seed: u64, tl: Option<&Timeline>, counts: &mut Counts) -> Sweep {
    let mut rng = StdRng::seed_from_u64(seed);
    let topos = [
        Topo::Path(5),
        Topo::Star(5),
        Topo::Cycle(5),
        Topo::Complete(4),
        Topo::Caterpillar(3, 1),
        Topo::Grid(3, 3),
    ];
    let mut cells = Vec::new();
    for topo in topos {
        let g = span(tl, "topology.build", || topo.build(&mut rng));
        for b in [42, 126] {
            for j in 0..TINY_SCHEDULES {
                let f = 1 + j % 4;
                let s = draw_schedule(&g, f, b, true, &mut rng, tl, counts);
                cells.push(cell(
                    "tiny",
                    &g,
                    s,
                    TradeoffConfig { b, c: C, f, seed: 0 },
                    9,
                    &mut rng,
                    tl,
                ));
            }
        }
    }
    Sweep { cells, monitored: true, seed }
}

/// Draws `random_with_edge_budget` schedules until one keeps the stretch
/// within `C` (crash rounds span the whole `b · d` budget). With
/// `partial`, half of the crashes after round 1 deliver their last
/// broadcast to a random subset of neighbours only.
fn draw_schedule(
    g: &Graph,
    f: usize,
    b: u64,
    partial: bool,
    rng: &mut StdRng,
    tl: Option<&Timeline>,
    counts: &mut Counts,
) -> FailureSchedule {
    let horizon = b * u64::from(g.diameter().max(1));
    for _ in 0..MAX_DRAWS {
        counts.add("adversary.draws", 1.0);
        let mut s = span(tl, "adversary.draw", || {
            schedules::random_with_edge_budget(g, ROOT, f, horizon, rng)
        });
        if partial {
            s = with_partial_crashes(g, &s, rng);
        }
        if span(tl, "adversary.stretch", || s.stretch_factor(g, ROOT)) <= f64::from(C) {
            counts.add("adversary.accepted", 1.0);
            return s;
        }
    }
    panic!("no schedule with stretch <= {C} in {MAX_DRAWS} draws");
}

fn with_partial_crashes(g: &Graph, s: &FailureSchedule, rng: &mut StdRng) -> FailureSchedule {
    let mut out = FailureSchedule::none();
    for (v, e) in s.iter() {
        if e.round >= 2 && rng.gen_bool(0.5) {
            let rx = g.neighbors(v).iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
            out.crash_partial(v, e.round, rx);
        } else {
            out.crash(v, e.round);
        }
    }
    out
}

fn cell(
    class: &'static str,
    g: &Graph,
    s: FailureSchedule,
    cfg: TradeoffConfig,
    max_input: u64,
    rng: &mut StdRng,
    tl: Option<&Timeline>,
) -> Cell {
    let inputs: Vec<u64> = (0..g.len()).map(|_| rng.gen_range(0..=max_input)).collect();
    let inst = span(tl, "config.instance", || Instance::new(g.clone(), ROOT, inputs, s, max_input))
        .unwrap_or_else(|e| panic!("set-up built an invalid instance: {e}"));
    Cell { class, inst, cfg }
}

impl Sweep {
    fn cell(&self, k: u64) -> &Cell {
        &self.cells[(k % self.cells.len() as u64) as usize]
    }
}

impl Workload for Sweep {
    fn cells(&self) -> usize {
        self.cells.len()
    }

    fn class(&self, k: u64) -> &'static str {
        self.cell(k).class
    }

    fn trial(&self, k: u64, tl: Option<&Timeline>) -> Outcome {
        let cell = self.cell(k);
        let cfg = TradeoffConfig { seed: mix(self.seed, k), ..cell.cfg };
        let mut out = Outcome::default();
        let rep = if self.monitored {
            let (rep, watch) =
                span(tl, "monitored.run", || run_tradeoff_monitored(&Sum, &cell.inst, &cfg, false));
            if !watch.is_clean() {
                out.fail(format!("watchdog: {} violation(s)", watch.total));
            }
            rep
        } else {
            span(tl, "tradeoff.run", || run_tradeoff(&Sum, &cell.inst, &cfg))
        };
        check(&cell.inst, &cfg, &rep, &mut out);
        out.sim = vec![
            rep.result,
            rep.rounds,
            rep.flooding_rounds,
            rep.pairs_run as u64,
            u64::from(rep.used_fallback),
            rep.metrics.max_bits(),
        ];
        out.counts.add("tradeoff.trials", 1.0);
        out.counts.add("tradeoff.pairs", rep.pairs_run as f64);
        out.counts.add("tradeoff.fallbacks", f64::from(u8::from(rep.used_fallback)));
        if let Some(tl) = tl {
            if self.monitored {
                let plain = span(Some(tl), "tradeoff.run", || run_tradeoff(&Sum, &cell.inst, &cfg));
                if (plain.result, plain.rounds, plain.metrics.max_bits())
                    != (rep.result, rep.rounds, rep.metrics.max_bits())
                {
                    out.fail("the watchdog changed the execution".into());
                }
            }
            match decompose(&cell.inst, &cfg, &rep, tl) {
                Ok(rounds) => out.counts.add("pair.rounds", rounds as f64),
                Err(e) => out.fail(e),
            }
        }
        out
    }
}

/// The correctness gate every trial passes: the oracle, the TC budget,
/// and Theorem 1's cap on pairs run.
fn check(inst: &Instance, cfg: &TradeoffConfig, rep: &TradeoffReport, out: &mut Outcome) {
    if !rep.correct {
        out.fail(format!("oracle rejects result {}", rep.result));
    }
    if rep.flooding_rounds > cfg.b + 1 {
        out.fail(format!("TC {} > b + 1 = {}", rep.flooding_rounds, cfg.b + 1));
    }
    let log_n = u64::from(wire::id_bits(inst.n()));
    let cap = rep.x.min(cfg.f as u64 + 1).min(log_n);
    if rep.pairs_run as u64 > cap {
        out.fail(format!("{} pairs > min(x, f + 1, log N) = {cap}", rep.pairs_run));
    }
}

/// Re-runs one Algorithm 1 trial layer by layer, each call in its own
/// span: `Instance::model`, then for each pair the trial ran an AGG-only
/// and an AGG+VERI `run_pair_with_schedule` call with Algorithm 1's `t`
/// and interval offset. The `config.model` span's argument is how often
/// the trial computed the model (`1 + pairs_run`). Returns the summed
/// rounds of the AGG+VERI pairs.
fn decompose(
    inst: &Instance,
    cfg: &TradeoffConfig,
    rep: &TradeoffReport,
    tl: &Timeline,
) -> Result<u64, String> {
    let t0 = tl.now_ns();
    let model = black_box(inst.model(cfg.c));
    let dur = tl.now_ns().saturating_sub(t0);
    tl.record_span(SpanKind::Phase, "config.model", 0, t0, dur, Some(1 + rep.pairs_run as u64));
    let layout = IntervalLayout::new(cfg.b, cfg.c, model.d)?;
    let t = layout.t(cfg.f);
    // Algorithm 1's coins: log N draws from [1, x], distinct, ascending.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let draws = u64::from(model.id_bits()).max(1);
    let mut ys: Vec<u64> = (0..draws).map(|_| rng.gen_range(1..=layout.x())).collect();
    ys.sort_unstable();
    ys.dedup();
    if ys.len() < rep.pairs_run {
        return Err(format!("{} pairs ran but only {} intervals drawn", rep.pairs_run, ys.len()));
    }
    let mut rounds = 0;
    for (i, &y) in ys[..rep.pairs_run].iter().enumerate() {
        let offset = layout.pair_offset(y);
        let pair = |veri| {
            let shifted = inst.schedule.shifted(offset);
            run_pair_with_schedule(&Sum, inst, shifted, cfg.c, t, veri, offset)
        };
        black_box(span(Some(tl), "pair.agg", || pair(false)));
        let full = span(Some(tl), "pair.agg_veri", || pair(true));
        let accepted = i + 1 == rep.pairs_run && !rep.used_fallback;
        if full.accepted() != accepted {
            return Err(format!("pair {} disagrees with run_tradeoff", i + 1));
        }
        rounds += full.rounds;
    }
    Ok(rounds)
}
