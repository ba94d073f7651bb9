//! Automated adversary mining.
//!
//! The paper's CC is a supremum over *all* oblivious adversaries; a
//! simulator can only sample them. This module searches schedule space —
//! and optionally topology space — for adversaries that (locally)
//! maximize a protocol's measured cost. It grew out of a single-protocol
//! hill-climber and is now a pluggable driver:
//!
//! - **mutations** come from [`netsim::adversary::mutate`] (retime /
//!   retarget / add / drop / partial-broadcast toggle, plus edge add /
//!   remove), always re-checked against the `f` edge-failure budget and
//!   the `c·d` stretch constraint;
//! - **objectives** are root CC, bottleneck CC, or decision rounds
//!   ([`Objective`]), measured over Algorithm 1, one AGG+VERI pair, or the
//!   doubling driver ([`MineProtocol`]);
//! - **acceptance** is strict hill-climbing or simulated annealing
//!   ([`Acceptance`]);
//! - **guidance**: after each new best, the run is re-executed traced;
//!   [`netsim::Blame`] ranks the hottest senders and [`netsim::diff()`]
//!   classifies the first divergence from the previous best, and both
//!   bias where the next mutations land.
//!
//! Evaluations fan protocol coin seeds through [`netsim::Runner`], so a
//! mining run is a pure function of its seed at any thread count. An
//! incorrect result under a mined schedule is a *finding*, not a crash:
//! it is returned as a [`Counterexample`] artifact. Worst finds are
//! promoted to `tests/corpus/` via [`netsim::CorpusEntry`] and replayed
//! bit-for-bit by [`replay_entry`].

use crate::stretch_respecting_schedule;
use caaf::{Caaf, Count, Gcd, Min, ModSum, Sum};
use ftagg::doubling::{run_doubling_observed, DoublingConfig};
use ftagg::pair::Tweaks;
use ftagg::tradeoff::{run_tradeoff_observed, TradeoffConfig};
use ftagg::{run_pair_observed, Instance, Observe, Observed};
use netsim::adversary::mutate::{self, MutationBias};
use netsim::{
    diff, Blame, CorpusEntry, FailureSchedule, Graph, MonitorReport, NodeId, Round, Runner, Trace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// What the miner maximizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Bits broadcast by the root — the cost the paper's lower bounds
    /// (Theorem 2) constrain most directly.
    RootCc,
    /// The paper's CC: maximum bits over all nodes.
    BottleneckCc,
    /// Rounds until the decision.
    Rounds,
}

impl Objective {
    /// Stable tag (CLI value and corpus `meta objective`).
    pub fn tag(&self) -> &'static str {
        match self {
            Objective::RootCc => "root-cc",
            Objective::BottleneckCc => "bottleneck-cc",
            Objective::Rounds => "rounds",
        }
    }

    /// Parses a [`Objective::tag`] string.
    pub fn parse(s: &str) -> Result<Objective, String> {
        match s {
            "root-cc" => Ok(Objective::RootCc),
            "bottleneck-cc" => Ok(Objective::BottleneckCc),
            "rounds" => Ok(Objective::Rounds),
            other => Err(format!("unknown objective '{other}' (root-cc|bottleneck-cc|rounds)")),
        }
    }
}

/// Which driver the objective is measured over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MineProtocol {
    /// Algorithm 1 with the config's `b`/`c` and this failure parameter
    /// `f`; protocol coins vary per evaluation seed.
    Tradeoff {
        /// Algorithm 1's failure parameter.
        f: usize,
    },
    /// One AGG+VERI pair with tolerance `t` (deterministic — no coins).
    Pair {
        /// The pair's tolerance.
        t: u32,
    },
    /// The unknown-`f` doubling driver (deterministic — no coins).
    Doubling {
        /// Stage cap before the brute-force fallback.
        max_stages: u32,
    },
}

impl MineProtocol {
    /// Stable tag (CLI value and corpus `meta protocol`).
    pub fn tag(&self) -> String {
        match self {
            MineProtocol::Tradeoff { f } => format!("tradeoff:{f}"),
            MineProtocol::Pair { t } => format!("pair:{t}"),
            MineProtocol::Doubling { max_stages } => format!("doubling:{max_stages}"),
        }
    }

    /// Parses a [`MineProtocol::tag`] string.
    pub fn parse(s: &str) -> Result<MineProtocol, String> {
        let bad = || format!("unknown protocol '{s}' (tradeoff:F|pair:T|doubling:STAGES)");
        let (kind, arg) = s.split_once(':').ok_or_else(bad)?;
        let arg: u64 = arg.parse().map_err(|_| bad())?;
        match kind {
            "tradeoff" => Ok(MineProtocol::Tradeoff { f: arg as usize }),
            "pair" => Ok(MineProtocol::Pair { t: arg as u32 }),
            "doubling" => Ok(MineProtocol::Doubling { max_stages: arg as u32 }),
            _ => Err(bad()),
        }
    }
}

/// How candidate mutations are accepted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Acceptance {
    /// Accept only strict improvements.
    HillClimb,
    /// Simulated annealing: worse candidates are accepted with
    /// probability `exp(-Δ/temp)`, `temp = t0·initial·cooling^i`.
    Anneal {
        /// Initial temperature as a fraction of the initial objective.
        t0: f64,
        /// Geometric cooling factor per iteration.
        cooling: f64,
    },
}

impl Acceptance {
    /// Stable tag (CLI value and corpus `meta accept`).
    pub fn tag(&self) -> String {
        match self {
            Acceptance::HillClimb => "hill".into(),
            Acceptance::Anneal { t0, cooling } => format!("anneal:{t0}:{cooling}"),
        }
    }

    /// Parses `hill`, `anneal`, or `anneal:T0:COOLING`.
    pub fn parse(s: &str) -> Result<Acceptance, String> {
        if s == "hill" {
            return Ok(Acceptance::HillClimb);
        }
        if s == "anneal" {
            return Ok(Acceptance::Anneal { t0: 0.1, cooling: 0.95 });
        }
        if let Some(rest) = s.strip_prefix("anneal:") {
            if let Some((t0, cooling)) = rest.split_once(':') {
                let t0: f64 = t0.parse().map_err(|_| format!("bad anneal t0 '{t0}'"))?;
                let cooling: f64 =
                    cooling.parse().map_err(|_| format!("bad anneal cooling '{cooling}'"))?;
                return Ok(Acceptance::Anneal { t0, cooling });
            }
        }
        Err(format!("unknown acceptance '{s}' (hill|anneal|anneal:T0:COOLING)"))
    }
}

/// Mining configuration.
#[derive(Clone, Debug)]
pub struct MineConfig {
    /// Mutation iterations.
    pub iterations: usize,
    /// Protocol coin seeds summed per evaluation (tradeoff only — the
    /// pair and doubling drivers are coin-free and run once).
    pub coin_seeds: u64,
    /// RNG seed for the search itself.
    pub seed: u64,
    /// Worker threads for the per-evaluation seed fan-out (0 = machine
    /// parallelism). The result is identical at any value.
    pub threads: usize,
    /// TC budget `b` (flooding rounds), also the horizon scale.
    pub b: u64,
    /// Stretch constant `c`.
    pub c: u32,
    /// Edge-failure budget every mutated schedule must respect.
    pub f_budget: usize,
    /// What to maximize.
    pub objective: Objective,
    /// Which driver to measure it over.
    pub protocol: MineProtocol,
    /// How to accept candidates.
    pub acceptance: Acceptance,
    /// Also mutate the topology (≈1 in 4 mutations flips an edge).
    pub mutate_topology: bool,
}

/// A run in which the protocol's output violated the correctness oracle —
/// the search's most valuable possible find, returned instead of crashed
/// on.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The offending schedule.
    pub schedule: FailureSchedule,
    /// The protocol coin seed it occurred under.
    pub coin_seed: u64,
    /// What the protocol output.
    pub result: u64,
    /// The oracle interval's lower end.
    pub lo: u64,
    /// The oracle interval's upper end.
    pub hi: u64,
}

/// One new-best step in the convergence history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistoryStep {
    /// Iteration at which the step was accepted (0 = the initial point).
    pub iteration: usize,
    /// The objective total after the step.
    pub value: u64,
    /// First-divergence class vs the previous best (from
    /// [`netsim::diff()`]), `None` for the initial point.
    pub class: Option<String>,
}

/// Live mining progress handed to the caller's callback.
#[derive(Clone, Copy, Debug)]
pub struct MineProgress {
    /// Iterations finished so far.
    pub iteration: usize,
    /// Total iterations configured.
    pub iterations: usize,
    /// Protocol evaluations performed so far.
    pub evaluations: usize,
    /// Best objective total so far.
    pub best: u64,
}

/// Mining outcome.
#[derive(Clone, Debug)]
pub struct MineResult {
    /// The topology the best adversary runs on (differs from the input
    /// graph only when topology mutation is enabled).
    pub graph: Graph,
    /// The worst schedule found.
    pub schedule: FailureSchedule,
    /// Best objective total, summed over the evaluation's coin seeds.
    pub value: u64,
    /// Protocol runs per evaluation (divide [`MineResult::value`] by this
    /// for the mean).
    pub runs_per_eval: u64,
    /// Protocol evaluations performed.
    pub evaluations: usize,
    /// New-best steps, starting with the initial point.
    pub history: Vec<HistoryStep>,
    /// How often each first-divergence class appeared across new-best
    /// steps.
    pub divergences: BTreeMap<String, usize>,
    /// Incorrect-result findings encountered anywhere in the search
    /// (capped at [`COUNTEREXAMPLE_CAP`]).
    pub counterexamples: Vec<Counterexample>,
}

/// At most this many [`Counterexample`]s are retained per mining run.
pub const COUNTEREXAMPLE_CAP: usize = 16;

impl MineResult {
    /// Mean objective per protocol run at the best point.
    pub fn mean(&self) -> f64 {
        self.value as f64 / self.runs_per_eval.max(1) as f64
    }
}

/// The coin seeds one evaluation runs (the coin-free drivers run once).
fn eval_seeds(cfg: &MineConfig) -> Vec<u64> {
    match cfg.protocol {
        MineProtocol::Tradeoff { .. } => (0..cfg.coin_seeds.max(1)).collect(),
        MineProtocol::Pair { .. } | MineProtocol::Doubling { .. } => vec![0],
    }
}

fn objective_of(objective: Objective, metrics: &netsim::Metrics, rounds: Round) -> u64 {
    match objective {
        Objective::RootCc => metrics.bits_of(NodeId(0)),
        Objective::BottleneckCc => metrics.max_bits(),
        Objective::Rounds => rounds,
    }
}

/// One run of the mined protocol under coin seed `coin_seed` with the
/// observers in `obs` attached: the objective's value, the wrong output
/// and its end round (if the run produced one), and what the observers
/// collected.
pub fn run_protocol<C: Caaf>(
    op: &C,
    inst: &Instance,
    cfg: &MineConfig,
    coin_seed: u64,
    obs: Observe<'_>,
) -> (u64, Option<(u64, Round)>, Observed) {
    let (metrics, rounds, wrong, seen) = match cfg.protocol {
        MineProtocol::Tradeoff { f } => {
            let tc = TradeoffConfig { b: cfg.b, c: cfg.c, f, seed: coin_seed };
            let (r, seen) = run_tradeoff_observed(op, inst, &tc, obs);
            let wrong = (!r.correct).then_some(r.result);
            (r.metrics, r.rounds, wrong, seen)
        }
        MineProtocol::Pair { t } => {
            let (r, seen, _) = run_pair_observed(op, inst, cfg.c, t, true, Tweaks::default(), obs);
            let wrong = (r.accepted() && r.correct == Some(false))
                .then(|| r.result().expect("accepted implies a result"));
            (r.metrics, r.rounds, wrong, seen)
        }
        MineProtocol::Doubling { max_stages } => {
            let dc = DoublingConfig { c: cfg.c, max_stages };
            let (r, seen) = run_doubling_observed(op, inst, &dc, obs);
            let wrong = (!r.correct).then_some(r.result);
            (r.metrics, r.rounds, wrong, seen)
        }
    };
    (objective_of(cfg.objective, &metrics, rounds), wrong.map(|v| (v, rounds)), seen)
}

/// One deterministic evaluation: the objective total over the coin seeds
/// plus any correctness counterexamples observed.
fn evaluate<C: Caaf + Sync + 'static>(
    op: &C,
    graph: &Graph,
    inputs: &[u64],
    max_input: u64,
    schedule: &FailureSchedule,
    cfg: &MineConfig,
) -> (u64, Vec<Counterexample>) {
    let inst =
        Instance::new(graph.clone(), NodeId(0), inputs.to_vec(), schedule.clone(), max_input)
            .expect("mining instances are valid");
    let seeds = eval_seeds(cfg);
    let outcomes = Runner::new(cfg.threads).run(&seeds, |coin_seed| {
        let (value, wrong, _) = run_protocol(op, &inst, cfg, coin_seed, Observe::default());
        let counterexample = wrong.map(|(result, end_round)| {
            let iv = inst.correct_interval(op, end_round);
            Counterexample { schedule: schedule.clone(), coin_seed, result, lo: iv.lo, hi: iv.hi }
        });
        (value, counterexample)
    });
    let mut total = 0u64;
    let mut cexs = Vec::new();
    for (value, cex) in outcomes {
        total += value;
        cexs.extend(cex);
    }
    (total, cexs)
}

/// A traced run of the protocol under coin seed 0, for blame/diff
/// guidance.
fn traced_run<C: Caaf + Sync + 'static>(
    op: &C,
    graph: &Graph,
    inputs: &[u64],
    max_input: u64,
    schedule: &FailureSchedule,
    cfg: &MineConfig,
) -> Trace {
    let inst =
        Instance::new(graph.clone(), NodeId(0), inputs.to_vec(), schedule.clone(), max_input)
            .expect("mining instances are valid");
    let (_, _, seen) = run_protocol(op, &inst, cfg, 0, Observe::trace());
    seen.trace.expect("trace requested")
}

/// Mutation bias from the trace of the current best: the hottest non-root
/// senders by causal blame.
fn bias_from_trace(trace: &Trace) -> Vec<NodeId> {
    let blame = Blame::from_trace(trace);
    let mut hot: Vec<(u64, NodeId)> = (1..blame.n() as u32)
        .map(|v| (blame.node_total(NodeId(v)), NodeId(v)))
        .filter(|&(bits, _)| bits > 0)
        .collect();
    hot.sort_by(|a, b| b.0.cmp(&a.0).then(a.1 .0.cmp(&b.1 .0)));
    hot.truncate(4);
    hot.into_iter().map(|(_, v)| v).collect()
}

fn push_counterexamples(into: &mut Vec<Counterexample>, found: Vec<Counterexample>) {
    for cex in found {
        if into.len() >= COUNTEREXAMPLE_CAP {
            return;
        }
        into.push(cex);
    }
}

/// Mines a (locally) worst adversary for the configured protocol and
/// objective.
///
/// `initial` seeds the search (e.g. the random-sweep schedule a report
/// already measured, so the mined result can only improve on it); `None`
/// draws a random valid starting schedule. `progress` observes every
/// iteration. The result is a pure function of `cfg` and the inputs —
/// thread count only changes wall-clock time.
pub fn mine<C: Caaf + Sync + 'static>(
    op: &C,
    graph: &Graph,
    inputs: &[u64],
    max_input: u64,
    cfg: &MineConfig,
    initial: Option<&FailureSchedule>,
    mut progress: Option<&mut dyn FnMut(&MineProgress)>,
) -> MineResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let root = NodeId(0);
    let mut cur_graph = graph.clone();
    let mut horizon = cfg.b * u64::from(cur_graph.diameter().max(1));
    let mut cur = match initial {
        Some(s) => s.clone(),
        None => stretch_respecting_schedule(
            &cur_graph,
            root,
            cfg.f_budget,
            horizon,
            cfg.c,
            50,
            &mut rng,
        ),
    };
    let mut counterexamples = Vec::new();
    let (mut cur_value, found) = evaluate(op, &cur_graph, inputs, max_input, &cur, cfg);
    push_counterexamples(&mut counterexamples, found);
    let initial_value = cur_value;
    let mut evaluations = 1usize;

    let mut best = cur.clone();
    let mut best_graph = cur_graph.clone();
    let mut best_value = cur_value;
    let mut best_trace = traced_run(op, &cur_graph, inputs, max_input, &cur, cfg);
    let mut bias = MutationBias { nodes: bias_from_trace(&best_trace), rounds: Vec::new() };
    let mut history = vec![HistoryStep { iteration: 0, value: best_value, class: None }];
    let mut divergences: BTreeMap<String, usize> = BTreeMap::new();

    for i in 0..cfg.iterations {
        // Propose: usually a schedule mutation, occasionally an edge flip.
        let mut cand_graph = cur_graph.clone();
        let mut cand = cur.clone();
        if cfg.mutate_topology && rng.gen_range(0..4) == 0 {
            if let Some(g) = mutate::topology(&cur_graph, root, &cur, cfg.f_budget, cfg.c, &mut rng)
            {
                cand_graph = g;
            }
        } else {
            cand = mutate::schedule(
                &cur,
                &cur_graph,
                root,
                cfg.f_budget,
                horizon,
                cfg.c,
                &bias,
                &mut rng,
            );
        }

        let (cand_value, found) = evaluate(op, &cand_graph, inputs, max_input, &cand, cfg);
        push_counterexamples(&mut counterexamples, found);
        evaluations += 1;

        // Accept?
        let accept = match cfg.acceptance {
            Acceptance::HillClimb => cand_value > cur_value,
            Acceptance::Anneal { t0, cooling } => {
                if cand_value > cur_value {
                    true
                } else {
                    let temp = t0 * initial_value.max(1) as f64 * cooling.powi(i as i32);
                    if temp <= f64::EPSILON {
                        false
                    } else {
                        let delta = (cur_value - cand_value) as f64;
                        rng.gen_bool((-delta / temp).exp().clamp(0.0, 1.0))
                    }
                }
            }
        };
        if accept {
            cur = cand;
            cur_graph = cand_graph;
            cur_value = cand_value;
            horizon = cfg.b * u64::from(cur_graph.diameter().max(1));
        }

        // New best: re-trace, classify the divergence, and re-bias.
        if cur_value > best_value {
            let trace = traced_run(op, &cur_graph, inputs, max_input, &cur, cfg);
            let d = diff(&best_trace, &trace);
            let class = d.divergence.as_ref().map(|d| d.class.tag().to_string());
            if let Some(dv) = &d.divergence {
                *divergences.entry(dv.class.tag().to_string()).or_insert(0) += 1;
                bias.rounds = vec![dv.round];
            }
            bias.nodes = bias_from_trace(&trace);
            best_trace = trace;
            best = cur.clone();
            best_graph = cur_graph.clone();
            best_value = cur_value;
            history.push(HistoryStep { iteration: i + 1, value: best_value, class });
        }

        if let Some(cb) = progress.as_deref_mut() {
            cb(&MineProgress {
                iteration: i + 1,
                iterations: cfg.iterations,
                evaluations,
                best: best_value,
            });
        }
    }

    MineResult {
        graph: best_graph,
        schedule: best,
        value: best_value,
        runs_per_eval: eval_seeds(cfg).len() as u64,
        evaluations,
        history,
        divergences,
        counterexamples,
    }
}

/// Builds a corpus entry from a mining result, stamping the meta keys
/// [`replay_entry`] needs to reproduce the value.
pub fn corpus_entry<C: Caaf>(
    name: &str,
    op: &C,
    inputs: &[u64],
    max_input: u64,
    cfg: &MineConfig,
    result: &MineResult,
) -> CorpusEntry {
    let mut meta = BTreeMap::new();
    meta.insert("op".into(), op.name().to_string());
    meta.insert("protocol".into(), cfg.protocol.tag());
    meta.insert("objective".into(), cfg.objective.tag().to_string());
    meta.insert("b".into(), cfg.b.to_string());
    meta.insert("c".into(), cfg.c.to_string());
    meta.insert("f_budget".into(), cfg.f_budget.to_string());
    meta.insert("coin_seeds".into(), cfg.coin_seeds.to_string());
    CorpusEntry {
        name: name.into(),
        meta,
        graph: result.graph.clone(),
        root: NodeId(0),
        inputs: inputs.to_vec(),
        max_input,
        schedule: result.schedule.clone(),
        value: result.value,
    }
}

/// Outcome of replaying a corpus entry.
#[derive(Clone, Debug)]
pub struct Replay {
    /// The re-measured objective total (must equal the recorded value).
    pub value: u64,
    /// The watchdog's verdict on the strict-capable monitored
    /// confirmation run.
    pub monitor: MonitorReport,
    /// Correctness counterexamples hit during replay (always a failure).
    pub counterexamples: usize,
}

/// Re-executes a corpus entry and re-measures its objective bit-for-bit.
///
/// `strict` arms the invariant watchdog in panic-on-first-violation mode
/// for the confirmation run (the right setting for regression gates).
///
/// # Errors
///
/// Fails on unknown/missing meta keys — the entry must have been written
/// by [`corpus_entry`] (or carry the same keys).
pub fn replay_entry(entry: &CorpusEntry, strict: bool) -> Result<Replay, String> {
    let need = |k: &str| entry.meta_str(k).ok_or_else(|| format!("corpus meta missing '{k}'"));
    let need_u64 =
        |k: &str| entry.meta_u64(k).ok_or_else(|| format!("corpus meta '{k}' not numeric"));
    let protocol = MineProtocol::parse(need("protocol")?)?;
    let objective = Objective::parse(need("objective")?)?;
    let cfg = MineConfig {
        iterations: 0,
        coin_seeds: need_u64("coin_seeds")?,
        seed: 0,
        threads: 1,
        b: need_u64("b")?,
        c: need_u64("c")? as u32,
        f_budget: need_u64("f_budget")? as usize,
        objective,
        protocol,
        acceptance: Acceptance::HillClimb,
        mutate_topology: false,
    };
    match need("op")? {
        "sum" => replay_with(&Sum, entry, &cfg, strict),
        "count" => replay_with(&Count, entry, &cfg, strict),
        "max" => replay_with(&caaf::Max, entry, &cfg, strict),
        "or" => replay_with(&caaf::BoolOr, entry, &cfg, strict),
        "and" => replay_with(&caaf::BoolAnd, entry, &cfg, strict),
        "gcd" => replay_with(&Gcd, entry, &cfg, strict),
        op if op.starts_with("min") => replay_with(&Min::new(entry.max_input), entry, &cfg, strict),
        op if op.starts_with("modsum") => {
            let m = op
                .split_once(':')
                .and_then(|(_, m)| m.parse().ok())
                .ok_or_else(|| format!("bad modsum spec '{op}'"))?;
            replay_with(&ModSum::new(m), entry, &cfg, strict)
        }
        other => Err(format!("unknown corpus op '{other}'")),
    }
}

fn replay_with<C: Caaf + Sync + 'static>(
    op: &C,
    entry: &CorpusEntry,
    cfg: &MineConfig,
    strict: bool,
) -> Result<Replay, String> {
    entry.schedule.validate(&entry.graph, entry.root)?;
    let (value, cexs) =
        evaluate(op, &entry.graph, &entry.inputs, entry.max_input, &entry.schedule, cfg);
    // Confirmation run under the armed watchdog.
    let inst = Instance::new(
        entry.graph.clone(),
        entry.root,
        entry.inputs.clone(),
        entry.schedule.clone(),
        entry.max_input,
    )?;
    let (_, _, seen) = run_protocol(op, &inst, cfg, 0, Observe::watchdog(strict));
    let monitor = seen.monitor.expect("watchdog requested");
    Ok(Replay { value, monitor, counterexamples: cexs.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use caaf::Sum;
    use netsim::topology;

    /// A bottleneck-CC hill-climb over Algorithm 1 (b = 42, c = 2, f = 6),
    /// averaging two coin seeds per evaluation.
    fn cfg(iters: usize, f_budget: usize) -> MineConfig {
        MineConfig {
            iterations: iters,
            coin_seeds: 2,
            seed: 5,
            threads: 1,
            b: 42,
            c: 2,
            f_budget,
            objective: Objective::BottleneckCc,
            protocol: MineProtocol::Tradeoff { f: 6 },
            acceptance: Acceptance::HillClimb,
            mutate_topology: false,
        }
    }

    #[test]
    fn search_never_decreases_and_respects_budget() {
        let g = topology::caterpillar(8, 1);
        let n = g.len();
        let inputs = vec![3u64; n];
        let r = mine(&Sum, &g, &inputs, 3, &cfg(10, 6), None, None);
        assert!(r.history.windows(2).all(|w| w[1].value >= w[0].value));
        assert!(r.value >= r.history[0].value);
        assert!(r.schedule.edge_failures(&g) <= 6);
        assert!(r.schedule.stretch_factor(&g, NodeId(0)) <= 2.0);
    }

    #[test]
    fn adversarial_beats_or_matches_random() {
        let g = topology::cycle(12);
        let inputs = vec![1u64; 12];
        let mut rng = StdRng::seed_from_u64(1);
        let horizon = 42 * u64::from(g.diameter());
        let random = stretch_respecting_schedule(&g, NodeId(0), 4, horizon, 2, 50, &mut rng);
        let c = cfg(15, 4);
        let (random_total, _) = evaluate(&Sum, &g, &inputs, 1, &random, &c);
        let searched = mine(&Sum, &g, &inputs, 1, &c, None, None);
        let random_cc = random_total as f64 / 2.0;
        assert!(
            searched.mean() >= random_cc,
            "search {} should not lose to its own starting class {random_cc}",
            searched.mean()
        );
    }

    #[test]
    fn mine_seeded_initial_never_regresses() {
        let g = topology::caterpillar(8, 1);
        let inputs = vec![2u64; g.len()];
        let mc = MineConfig {
            iterations: 6,
            coin_seeds: 1,
            seed: 9,
            threads: 1,
            b: 42,
            c: 2,
            f_budget: 5,
            objective: Objective::RootCc,
            protocol: MineProtocol::Tradeoff { f: 5 },
            acceptance: Acceptance::HillClimb,
            mutate_topology: false,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let horizon = 42 * u64::from(g.diameter());
        let start = stretch_respecting_schedule(&g, NodeId(0), 5, horizon, 2, 50, &mut rng);
        let (start_value, _) = evaluate(&Sum, &g, &inputs, 2, &start, &mc);
        let r = mine(&Sum, &g, &inputs, 2, &mc, Some(&start), None);
        assert!(r.value >= start_value, "{} < {start_value}", r.value);
        assert_eq!(r.history[0].value, start_value);
        assert!(r.history[0].class.is_none());
    }

    #[test]
    fn anneal_tracks_best_separately_from_current() {
        let g = topology::caterpillar(6, 1);
        let inputs = vec![1u64; g.len()];
        let mc = MineConfig {
            iterations: 12,
            coin_seeds: 1,
            seed: 11,
            threads: 1,
            b: 42,
            c: 2,
            f_budget: 4,
            objective: Objective::BottleneckCc,
            protocol: MineProtocol::Tradeoff { f: 4 },
            acceptance: Acceptance::Anneal { t0: 0.2, cooling: 0.9 },
            mutate_topology: false,
        };
        let r = mine(&Sum, &g, &inputs, 1, &mc, None, None);
        // Whatever the anneal's current walk did, the *best* history is
        // strictly increasing.
        assert!(r.history.windows(2).all(|w| w[1].value > w[0].value));
        assert!(r.schedule.edge_failures(&r.graph) <= 4);
    }

    #[test]
    fn pair_and_doubling_protocols_mine_without_coins() {
        let g = topology::caterpillar(6, 1);
        let inputs = vec![3u64; g.len()];
        for protocol in [MineProtocol::Pair { t: 2 }, MineProtocol::Doubling { max_stages: 4 }] {
            let mc = MineConfig {
                iterations: 4,
                coin_seeds: 3, // ignored for coin-free drivers
                seed: 2,
                threads: 1,
                b: 42,
                c: 2,
                f_budget: 4,
                objective: Objective::Rounds,
                protocol,
                acceptance: Acceptance::HillClimb,
                mutate_topology: false,
            };
            let r = mine(&Sum, &g, &inputs, 3, &mc, None, None);
            assert_eq!(r.runs_per_eval, 1);
            assert!(r.value > 0);
        }
    }

    #[test]
    fn tags_round_trip() {
        for obj in [Objective::RootCc, Objective::BottleneckCc, Objective::Rounds] {
            assert_eq!(Objective::parse(obj.tag()).unwrap(), obj);
        }
        for p in [
            MineProtocol::Tradeoff { f: 7 },
            MineProtocol::Pair { t: 3 },
            MineProtocol::Doubling { max_stages: 5 },
        ] {
            assert_eq!(MineProtocol::parse(&p.tag()).unwrap(), p);
        }
        assert_eq!(Acceptance::parse("hill").unwrap(), Acceptance::HillClimb);
        assert!(matches!(
            Acceptance::parse("anneal:0.3:0.8").unwrap(),
            Acceptance::Anneal { t0, cooling } if (t0 - 0.3).abs() < 1e-9 && (cooling - 0.8).abs() < 1e-9
        ));
        assert!(Objective::parse("nope").is_err());
        assert!(MineProtocol::parse("nope").is_err());
        assert!(Acceptance::parse("nope").is_err());
    }

    #[test]
    fn corpus_entry_replays_bit_for_bit() {
        let g = topology::caterpillar(6, 1);
        let inputs: Vec<u64> = (0..g.len() as u64).collect();
        for protocol in [MineProtocol::Tradeoff { f: 4 }, MineProtocol::Doubling { max_stages: 4 }]
        {
            let mc = MineConfig {
                iterations: 5,
                coin_seeds: 2,
                seed: 4,
                threads: 1,
                b: 42,
                c: 2,
                f_budget: 4,
                objective: Objective::RootCc,
                protocol,
                acceptance: Acceptance::HillClimb,
                mutate_topology: false,
            };
            let r = mine(&Sum, &g, &inputs, inputs.len() as u64 - 1, &mc, None, None);
            let entry = corpus_entry("t", &Sum, &inputs, inputs.len() as u64 - 1, &mc, &r);
            let parsed = CorpusEntry::from_text(&entry.to_text()).unwrap();
            let replay = replay_entry(&parsed, true).unwrap();
            let tag = protocol.tag();
            assert_eq!(replay.value, r.value, "{tag}: replay must reproduce the mined objective");
            assert!(replay.monitor.is_clean(), "{tag}: {}", replay.monitor.render());
            assert!(replay.monitor.sends > 0, "{tag}: the watchdog saw no traffic");
            assert_eq!(replay.counterexamples, 0);
        }
    }
}
