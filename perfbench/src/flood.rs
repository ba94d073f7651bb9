//! `e6-flood`: the Part-2 group floods of the `fig1_e6` experiment at
//! N = 2²⁰ on `SoaEngine`. For each TC budget `b`, ⌈f/b⌉ group tokens of
//! log²N-bit summaries flood `hypercube(20)` under a seeded crash set,
//! with lean metrics and no observers. The node logic is the experiment's
//! `GroupFlood`, which it keeps private.

use crate::layers::span;
use crate::stats::status_mb;
use crate::{Outcome, Workload};
use ftagg::bounds;
use netsim::{
    topology, FailureSchedule, Graph, Message, NodeId, NodeLogic, Round, RoundCtx, SoaEngine,
    Timeline,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: u32 = 20;
const F: usize = 256;
const BUDGETS: [u64; 5] = [42, 63, 84, 126, 252];
const CRASHES: usize = 32;

/// A group-summary token: `idx` names the flooding group (< 64), metered
/// at `bits` wire bits.
#[derive(Clone, Debug)]
struct Tok {
    idx: u8,
    bits: u64,
}

impl Message for Tok {
    #[inline]
    fn bit_len(&self) -> u64 {
        self.bits
    }
}

/// Floods every group token on first sighting; the seen-mask is the whole
/// node state.
struct GroupFlood {
    token: Option<u8>,
    seen: u64,
    bits: u64,
}

impl NodeLogic<Tok> for GroupFlood {
    #[inline]
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Tok>) {
        let mut new = 0u64;
        if ctx.round() == 1 {
            if let Some(t) = self.token {
                new |= 1u64 << t;
            }
        }
        for m in ctx.inbox().iter() {
            new |= 1u64 << m.msg.idx;
        }
        new &= !self.seen;
        self.seen |= new;
        let mut idx = 0u8;
        let mut rest = new;
        while rest != 0 {
            if rest & 1 == 1 {
                ctx.send(Tok { idx, bits: self.bits });
            }
            rest >>= 1;
            idx += 1;
        }
    }
}

/// The hypercube, the crash set, and which nodes it kills.
pub struct Flood {
    graph: Graph,
    schedule: FailureSchedule,
    crashed: Vec<bool>,
}

/// Group origins for budget `b`: spread evenly over the id space.
fn origins(b: u64) -> Vec<NodeId> {
    let n = 1usize << DIM;
    let groups = F.div_ceil(b as usize);
    (0..groups).map(|i| NodeId((i * (n / groups)) as u32)).collect()
}

/// Builds `hypercube(20)` and crashes [`CRASHES`] seeded nodes (never an
/// origin) at rounds 3..=7.
pub fn setup(seed: u64, tl: Option<&Timeline>) -> Flood {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = span(tl, "topology.build", || topology::hypercube(DIM));
    let n = graph.len();
    let reserved: Vec<NodeId> = BUDGETS.iter().flat_map(|&b| origins(b)).collect();
    let mut crashed = vec![false; n];
    let mut schedule = FailureSchedule::none();
    while schedule.crash_count() < CRASHES {
        let v = NodeId(rng.gen_range(0..n as u32));
        if !reserved.contains(&v) && !crashed[v.index()] {
            crashed[v.index()] = true;
            schedule.crash(v, rng.gen_range(3..=7));
        }
    }
    Flood { graph, schedule, crashed }
}

impl Workload for Flood {
    fn cells(&self) -> usize {
        BUDGETS.len()
    }

    fn class(&self, _k: u64) -> &'static str {
        "e6"
    }

    fn trial(&self, k: u64, tl: Option<&Timeline>) -> Outcome {
        let b = BUDGETS[(k % BUDGETS.len() as u64) as usize];
        let n = self.graph.len();
        let summary_bits = {
            let log_n = bounds::log2c(n as f64);
            (log_n * log_n).round() as u64
        };
        let groups = origins(b);
        let rss_before = tl.map(|_| status_mb("VmRSS"));
        let mut eng = span(tl, "soa.build", || {
            let mut e = SoaEngine::new(self.graph.clone(), self.schedule.clone(), |v| GroupFlood {
                token: groups.iter().position(|&o| o == v).map(|i| i as u8),
                seen: 0,
                bits: summary_bits,
            });
            e.use_lean_metrics();
            e
        });
        let rounds = Round::from(DIM) + 2;
        while eng.round() < rounds {
            span(tl, "soa.step", || eng.step());
        }
        let mut out = Outcome::default();
        let cc = eng.metrics().max_bits();
        let upper = bounds::upper_bound_simple(n, F, b);
        if cc as f64 > upper {
            out.fail(format!("CC {cc} above the Theorem 1 curve {upper:.0} at b = {b}"));
        }
        let full = (1u64 << groups.len()) - 1;
        let missed = (0..n as u32)
            .filter(|&v| !self.crashed[v as usize] && eng.node(NodeId(v)).seen != full)
            .count();
        if missed > 0 {
            out.fail(format!("{missed} live nodes missed a group token at b = {b}"));
        }
        let tele = eng.telemetry();
        out.sim = vec![b, eng.round(), tele.deliveries, cc, eng.metrics().total_bits()];
        out.counts.add("soa.deliveries", tele.deliveries as f64);
        out.counts.add("soa.peak_inflight", tele.peak_inflight as f64);
        if let Some(before) = rss_before {
            out.counts.add("soa.rss_growth_mb", status_mb("VmRSS") - before);
        }
        out
    }
}
