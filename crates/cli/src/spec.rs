//! Textual specification parsers for the CLI: topologies, input
//! generators, crash schedules, and operators.
//!
//! Grammar (all case-sensitive, parameters colon/`x`/`@`-separated):
//!
//! - topology: `path:N`, `cycle:N`, `star:N`, `complete:N`, `grid:RxC`,
//!   `torus:RxC`, `binary-tree:N`, `caterpillar:SxL`, `broom:HxB`,
//!   `lollipop:KxT`, `hypercube:D`, `wheel:N`, `barbell:KxB`,
//!   `bipartite:AxB`, `random-tree:N`, `gnp:NxP` (P percent),
//! - inputs: `const:V`, `random:MAX`, `ramp` (node id as input),
//! - crash: `NODE@ROUND` (repeatable),
//! - operator: `sum`, `count`, `max`, `min:TOP`, `or`, `and`, `gcd`,
//!   `modsum:M` (1 ≤ M ≤ 2^63).
//!
//! Every parser is total: bad input is a one-line `Err`, never a panic. A
//! topology may have at most [`MAX_NODES`] nodes and [`MAX_EDGES`] edges,
//! and input values may not sum past `u64::MAX` over all nodes.

use caaf::{BoolAnd, BoolOr, Count, Gcd, Max, Min, ModSum, Sum};
use netsim::{topology, FailureSchedule, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A parsed operator choice (closed enum keeps drivers monomorphic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpSpec {
    /// SUM
    Sum(Sum),
    /// COUNT
    Count(Count),
    /// MAX
    Max(Max),
    /// MIN with a domain top
    Min(Min),
    /// Boolean OR
    Or(BoolOr),
    /// Boolean AND
    And(BoolAnd),
    /// GCD
    Gcd(Gcd),
    /// Modular sum
    ModSum(ModSum),
}

impl OpSpec {
    /// Clamps generated inputs (at most `gen_max`) into the operator's
    /// domain and returns them with the input ceiling: 1 for COUNT, OR
    /// and AND, the domain top for MIN, `M - 1` for `modsum:M`, and
    /// `gen_max` otherwise.
    pub fn clamp(&self, inputs: Vec<u64>, gen_max: u64) -> (Vec<u64>, u64) {
        let ceiling = match self {
            OpSpec::Count(_) | OpSpec::Or(_) | OpSpec::And(_) => 1,
            OpSpec::Min(m) => gen_max.min(m.top()),
            OpSpec::ModSum(m) => gen_max.min(m.modulus() - 1),
            _ => gen_max,
        };
        (inputs.into_iter().map(|v| v.min(ceiling)).collect(), ceiling)
    }

    /// Operator name for display.
    pub fn name(&self) -> &'static str {
        match self {
            OpSpec::Sum(_) => "sum",
            OpSpec::Count(_) => "count",
            OpSpec::Max(_) => "max",
            OpSpec::Min(_) => "min",
            OpSpec::Or(_) => "or",
            OpSpec::And(_) => "and",
            OpSpec::Gcd(_) => "gcd",
            OpSpec::ModSum(_) => "modsum",
        }
    }
}

/// `with_op!(spec, op => body)` evaluates `body` with `op` bound to the
/// concrete operator inside the [`OpSpec`] `spec`, so the drivers `run`
/// and `mine` call stay monomorphic.
macro_rules! with_op {
    ($spec:expr, $op:ident => $body:expr) => {
        match $spec {
            $crate::spec::OpSpec::Sum($op) => $body,
            $crate::spec::OpSpec::Count($op) => $body,
            $crate::spec::OpSpec::Max($op) => $body,
            $crate::spec::OpSpec::Min($op) => $body,
            $crate::spec::OpSpec::Or($op) => $body,
            $crate::spec::OpSpec::And($op) => $body,
            $crate::spec::OpSpec::Gcd($op) => $body,
            $crate::spec::OpSpec::ModSum($op) => $body,
        }
    };
}
pub(crate) use with_op;

fn parse_pair(s: &str, sep: char) -> Result<(usize, usize), String> {
    let (a, b) = s
        .split_once(sep)
        .ok_or_else(|| format!("expected '{sep}'-separated pair, got '{}'", s.escape_debug()))?;
    Ok((
        a.parse().map_err(|_| format!("bad number '{}'", a.escape_debug()))?,
        b.parse().map_err(|_| format!("bad number '{}'", b.escape_debug()))?,
    ))
}

/// The most nodes a topology spec may name: 2²¹, the limit trace replay
/// applies to node ids too.
pub const MAX_NODES: usize = 1 << 21;

/// The most edges a topology spec may name, counted from the family's
/// formula before anything is allocated. `hypercube:20` (10,485,760 edges)
/// fits; `complete:5794` does not.
pub const MAX_EDGES: usize = 1 << 24;

/// Parses a topology spec (see module docs) and builds the graph.
///
/// # Errors
///
/// Returns a message naming the unknown family, a malformed parameter, a
/// size below the family's minimum (checked here, so a bad spec is a
/// one-line error instead of an assert inside `netsim::topology`), or a
/// graph over [`MAX_NODES`] nodes or [`MAX_EDGES`] edges.
pub fn parse_topology(spec: &str, seed: u64) -> Result<Graph, String> {
    let plan = topology_plan(spec, seed)?;
    if plan.nodes > MAX_NODES as u128 {
        let nodes = plan.nodes;
        return Err(format!("topology '{spec}' has {nodes} nodes, over the limit of {MAX_NODES}"));
    }
    if plan.edges > MAX_EDGES as u128 {
        let edges = plan.edges;
        return Err(format!("topology '{spec}' has {edges} edges, over the limit of {MAX_EDGES}"));
    }
    Ok((plan.build)())
}

/// A parsed topology spec: its size by the family's formula and the
/// builder that allocates it.
struct Plan {
    nodes: u128,
    edges: u128,
    build: Box<dyn FnOnce() -> Graph>,
}

fn plan(nodes: u128, edges: u128, build: impl FnOnce() -> Graph + 'static) -> Plan {
    Plan { nodes, edges, build: Box::new(build) }
}

/// Checks a topology spec's parameters and counts its nodes and edges
/// without building it. `gnp` counts every node pair: its generator flips
/// one coin per pair, and at P = 100 keeps them all.
fn topology_plan(spec: &str, seed: u64) -> Result<Plan, String> {
    let (name, arg) = spec.split_once(':').unwrap_or((spec, ""));
    let num = |s: &str| -> Result<usize, String> {
        s.parse()
            .map_err(|_| format!("bad number '{}' in '{}'", s.escape_debug(), spec.escape_debug()))
    };
    let at_least = |v: usize, min: usize, what: &str| -> Result<usize, String> {
        if v >= min {
            Ok(v)
        } else {
            Err(format!("topology '{spec}' needs {what} >= {min}"))
        }
    };
    // Sizes in u128: no usize parameter pair can overflow a product.
    let w = |v: usize| v as u128;
    let pairs = |k: usize| w(k) * w(k).saturating_sub(1) / 2;
    Ok(match name {
        "path" => {
            let n = at_least(num(arg)?, 1, "N")?;
            plan(w(n), w(n) - 1, move || topology::path(n))
        }
        "cycle" => {
            let n = at_least(num(arg)?, 3, "N")?;
            plan(w(n), w(n), move || topology::cycle(n))
        }
        "star" => {
            let n = at_least(num(arg)?, 1, "N")?;
            plan(w(n), w(n) - 1, move || topology::star(n))
        }
        "complete" => {
            let n = at_least(num(arg)?, 1, "N")?;
            plan(w(n), pairs(n), move || topology::complete(n))
        }
        "grid" => {
            let (r, c) = parse_pair(arg, 'x')?;
            let (r, c) = (at_least(r, 1, "R")?, at_least(c, 1, "C")?);
            let edges = (w(r) * w(c - 1)).saturating_add(w(c) * w(r - 1));
            plan(w(r) * w(c), edges, move || topology::grid(r, c))
        }
        "torus" => {
            let (r, c) = parse_pair(arg, 'x')?;
            let (r, c) = (at_least(r, 3, "R")?, at_least(c, 3, "C")?);
            plan(w(r) * w(c), (w(r) * w(c)).saturating_mul(2), move || topology::torus(r, c))
        }
        "binary-tree" => {
            let n = at_least(num(arg)?, 1, "N")?;
            plan(w(n), w(n) - 1, move || topology::binary_tree(n))
        }
        "caterpillar" => {
            let (s, l) = parse_pair(arg, 'x')?;
            let s = at_least(s, 1, "S")?;
            let nodes = w(s) * (w(l) + 1);
            plan(nodes, nodes - 1, move || topology::caterpillar(s, l))
        }
        "broom" => {
            let (h, b) = parse_pair(arg, 'x')?;
            let h = at_least(h, 1, "H")?;
            plan(w(h) + w(b), w(h) + w(b) - 1, move || topology::broom(h, b))
        }
        "lollipop" => {
            let (k, t) = parse_pair(arg, 'x')?;
            let k = at_least(k, 1, "K")?;
            plan(w(k) + w(t), pairs(k) + w(t), move || topology::lollipop(k, t))
        }
        "hypercube" => {
            let d = at_least(num(arg)?, 1, "D")?;
            if d > 20 {
                return Err(format!("topology '{spec}' needs D <= 20"));
            }
            plan(1 << d, w(d) << (d - 1), move || topology::hypercube(d as u32))
        }
        "wheel" => {
            let n = at_least(num(arg)?, 4, "N")?;
            plan(w(n), 2 * (w(n) - 1), move || topology::wheel(n))
        }
        "barbell" => {
            let (k, b) = parse_pair(arg, 'x')?;
            let k = at_least(k, 2, "K")?;
            let edges = (2 * pairs(k)).saturating_add(w(b) + 1);
            plan(2 * w(k) + w(b), edges, move || topology::barbell(k, b))
        }
        "bipartite" => {
            let (a, b) = parse_pair(arg, 'x')?;
            let (a, b) = (at_least(a, 1, "A")?, at_least(b, 1, "B")?);
            plan(w(a) + w(b), w(a) * w(b), move || topology::complete_bipartite(a, b))
        }
        "random-tree" => {
            let n = at_least(num(arg)?, 1, "N")?;
            plan(w(n), w(n) - 1, move || topology::random_tree(n, &mut StdRng::seed_from_u64(seed)))
        }
        "gnp" => {
            let (n, p) = parse_pair(arg, 'x')?;
            if p > 100 {
                return Err(format!("topology '{spec}' needs P <= 100 (percent)"));
            }
            let n = at_least(n, 1, "N")?;
            plan(w(n), pairs(n), move || {
                topology::connected_gnp(n, p as f64 / 100.0, &mut StdRng::seed_from_u64(seed))
            })
        }
        other => return Err(format!("unknown topology family '{}'", other.escape_debug())),
    })
}

/// Parses an input generator and produces the `n` inputs.
///
/// # Errors
///
/// Returns a message for unknown generators, malformed values, or values
/// whose sum over `n` nodes could pass `u64::MAX` (SUM's domain).
pub fn parse_inputs(spec: &str, n: usize, seed: u64) -> Result<(Vec<u64>, u64), String> {
    let (name, arg) = spec.split_once(':').unwrap_or((spec, ""));
    let summable = |max: u64| -> Result<u64, String> {
        match u64::try_from(n).ok().and_then(|n| n.checked_mul(max)) {
            Some(_) => Ok(max),
            None => Err(format!("inputs '{spec}' over {n} nodes can sum past 2^64 - 1")),
        }
    };
    Ok(match name {
        "const" => {
            let v: u64 = arg.parse().map_err(|_| format!("bad value '{}'", arg.escape_debug()))?;
            (vec![summable(v)?; n], v.max(1))
        }
        "random" => {
            let max: u64 = arg.parse().map_err(|_| format!("bad max '{}'", arg.escape_debug()))?;
            let max = summable(max)?;
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
            ((0..n).map(|_| rng.gen_range(0..=max)).collect(), max.max(1))
        }
        "ramp" => ((0..n as u64).collect(), (n as u64).max(1)),
        other => return Err(format!("unknown input generator '{}'", other.escape_debug())),
    })
}

/// Parses repeated `NODE@ROUND` crash specs into a schedule.
///
/// # Errors
///
/// Returns a message for malformed entries.
pub fn parse_crashes(specs: &[String]) -> Result<FailureSchedule, String> {
    let mut s = FailureSchedule::none();
    for c in specs {
        let (node, round) = c
            .split_once('@')
            .ok_or_else(|| format!("crash spec '{}' must be NODE@ROUND", c.escape_debug()))?;
        let node: u32 = node.parse().map_err(|_| format!("bad node '{}'", node.escape_debug()))?;
        let round: u64 =
            round.parse().map_err(|_| format!("bad round '{}'", round.escape_debug()))?;
        if round == 0 {
            return Err("crash rounds are 1-based".into());
        }
        s.crash(NodeId(node), round);
    }
    Ok(s)
}

/// The largest `modsum` modulus: 2^63.
const MAX_MODULUS: u64 = 1 << 63;

/// Parses an operator spec.
///
/// # Errors
///
/// Returns a message for unknown operators or missing parameters.
pub fn parse_op(spec: &str) -> Result<OpSpec, String> {
    let (name, arg) = spec.split_once(':').unwrap_or((spec, ""));
    Ok(match name {
        "sum" => OpSpec::Sum(Sum),
        "count" => OpSpec::Count(Count),
        "max" => OpSpec::Max(Max),
        "min" => {
            let top: u64 = arg.parse().map_err(|_| "min needs min:TOP".to_string())?;
            OpSpec::Min(Min::new(top))
        }
        "or" => OpSpec::Or(BoolOr),
        "and" => OpSpec::And(BoolAnd),
        "gcd" => OpSpec::Gcd(Gcd),
        "modsum" => {
            // Above 2^63 two residues can overflow their sum in `combine`.
            match arg.parse::<u64>() {
                Ok(m @ 1..=MAX_MODULUS) => OpSpec::ModSum(ModSum::new(m)),
                _ => return Err(format!("modsum needs modsum:M with 1 <= M <= {MAX_MODULUS}")),
            }
        }
        other => return Err(format!("unknown operator '{}'", other.escape_debug())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_specs_parse() {
        assert_eq!(parse_topology("path:5", 0).unwrap().len(), 5);
        assert_eq!(parse_topology("grid:3x4", 0).unwrap().len(), 12);
        assert_eq!(parse_topology("hypercube:3", 0).unwrap().len(), 8);
        assert_eq!(parse_topology("caterpillar:4x2", 0).unwrap().len(), 12);
        assert_eq!(parse_topology("bipartite:2x3", 0).unwrap().len(), 5);
        assert!(parse_topology("gnp:20x30", 1).unwrap().is_connected());
        assert!(parse_topology("mesh:4", 0).is_err());
        assert!(parse_topology("grid:4", 0).is_err());
        assert!(parse_topology("path:x", 0).is_err());
    }

    #[test]
    fn topology_sizes_below_a_family_minimum_are_one_line_errors() {
        for (spec, needle) in [
            ("path:0", "N >= 1"),
            ("cycle:2", "N >= 3"),
            ("star:0", "N >= 1"),
            ("complete:0", "N >= 1"),
            ("grid:0x0", "R >= 1"),
            ("grid:3x0", "C >= 1"),
            ("torus:2x3", "R >= 3"),
            ("binary-tree:0", "N >= 1"),
            ("caterpillar:0x1", "S >= 1"),
            ("broom:0x1", "H >= 1"),
            ("lollipop:0x2", "K >= 1"),
            ("hypercube:0", "D >= 1"),
            ("hypercube:21", "D <= 20"),
            ("hypercube:4294967297", "D <= 20"),
            ("wheel:3", "N >= 4"),
            ("barbell:1x0", "K >= 2"),
            ("bipartite:0x1", "A >= 1"),
            ("random-tree:0", "N >= 1"),
            ("gnp:0x5", "N >= 1"),
            ("gnp:10x200", "P <= 100"),
        ] {
            let err = parse_topology(spec, 0).unwrap_err();
            assert!(err.contains(needle) && !err.contains('\n'), "{spec}: {err}");
        }
        // Each family's smallest legal size still builds.
        for spec in ["path:1", "cycle:3", "torus:3x3", "hypercube:1", "wheel:4", "barbell:2x0"] {
            assert!(parse_topology(spec, 0).is_ok(), "{spec}");
        }
    }

    #[test]
    fn random_topologies_are_seeded() {
        let a = parse_topology("random-tree:15", 7).unwrap();
        let b = parse_topology("random-tree:15", 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn input_specs_parse() {
        let (v, max) = parse_inputs("const:9", 4, 0).unwrap();
        assert_eq!(v, vec![9, 9, 9, 9]);
        assert_eq!(max, 9);
        let (v, max) = parse_inputs("ramp", 3, 0).unwrap();
        assert_eq!(v, vec![0, 1, 2]);
        assert_eq!(max, 3);
        let (v, max) = parse_inputs("random:50", 10, 3).unwrap();
        assert!(v.iter().all(|&x| x <= 50));
        assert_eq!(max, 50);
        assert!(parse_inputs("fib", 3, 0).is_err());
    }

    #[test]
    fn crash_specs_parse() {
        let s = parse_crashes(&["3@10".into(), "5@2".into()]).unwrap();
        assert_eq!(s.crash_count(), 2);
        assert!(s.is_dead(NodeId(3), 10));
        assert!(!s.is_dead(NodeId(3), 9));
        assert!(parse_crashes(&["3".into()]).is_err());
        assert!(parse_crashes(&["3@0".into()]).is_err());
        assert!(parse_crashes(&["x@4".into()]).is_err());
    }

    #[test]
    fn op_specs_parse() {
        assert_eq!(parse_op("sum").unwrap().name(), "sum");
        assert_eq!(parse_op("min:100").unwrap().name(), "min");
        assert_eq!(parse_op("modsum:7").unwrap().name(), "modsum");
        assert!(parse_op("min").is_err());
        assert!(parse_op("median").is_err());
    }

    #[test]
    fn modsum_needs_a_modulus_from_1_to_2_pow_63() {
        for bad in ["modsum:0", "modsum:9223372036854775809", "modsum:18446744073709551615"] {
            let err = parse_op(bad).unwrap_err();
            assert!(err.contains("1 <= M <= 9223372036854775808"), "{bad}: {err}");
        }
        assert_eq!(parse_op("modsum:1").unwrap().name(), "modsum");
        assert_eq!(parse_op("modsum:9223372036854775808").unwrap().name(), "modsum");
    }

    #[test]
    fn inputs_that_can_sum_past_u64_are_refused() {
        let max = u64::MAX.to_string();
        for spec in [format!("random:{max}"), format!("const:{max}")] {
            let err = parse_inputs(&spec, 4, 0).unwrap_err();
            assert!(err.contains("can sum past 2^64 - 1"), "{spec}: {err}");
        }
        // The largest value that still sums over 4 nodes, and any value on one node.
        let fits = (u64::MAX / 4).to_string();
        assert!(parse_inputs(&format!("const:{fits}"), 4, 0).is_ok());
        assert!(parse_inputs(&format!("random:{max}"), 1, 0).is_ok());
    }

    /// Every deterministic family at a few sizes: the counted nodes and
    /// edges are exactly the built graph's; `gnp` builds at most its
    /// pair count.
    #[test]
    fn topology_sizes_are_counted_before_building() {
        for spec in [
            "path:1",
            "path:7",
            "cycle:3",
            "cycle:8",
            "star:1",
            "star:6",
            "complete:1",
            "complete:7",
            "grid:1x1",
            "grid:3x5",
            "torus:3x3",
            "torus:4x5",
            "binary-tree:1",
            "binary-tree:10",
            "caterpillar:1x0",
            "caterpillar:4x3",
            "broom:1x0",
            "broom:3x4",
            "lollipop:1x0",
            "lollipop:5x3",
            "hypercube:1",
            "hypercube:5",
            "wheel:4",
            "wheel:9",
            "barbell:2x0",
            "barbell:4x3",
            "bipartite:1x1",
            "bipartite:3x4",
            "random-tree:1",
            "random-tree:12",
        ] {
            let Plan { nodes, edges, build } = topology_plan(spec, 3).unwrap();
            let g = build();
            assert_eq!((nodes, edges), (g.len() as u128, g.edges().len() as u128), "{spec}");
        }
        for spec in ["gnp:1x0", "gnp:9x0", "gnp:9x40", "gnp:9x100"] {
            let Plan { nodes, edges, build } = topology_plan(spec, 3).unwrap();
            let g = build();
            assert_eq!(nodes, g.len() as u128, "{spec}");
            assert!(g.edges().len() as u128 <= edges, "{spec}");
        }
        assert_eq!(topology_plan("gnp:9x100", 3).unwrap().edges, 36);
    }

    #[test]
    fn topologies_over_the_size_caps_are_refused_before_building() {
        for (spec, needle) in [
            ("path:5000000000", "5000000000 nodes, over the limit of 2097152"),
            ("path:2097153", "over the limit of 2097152"),
            ("grid:2048x1025", "2099200 nodes"),
            ("complete:300000", "44999850000 edges, over the limit of 16777216"),
            ("complete:5794", "16782321 edges"),
            ("bipartite:4097x4097", "16785409 edges"),
            ("gnp:6000x1", "17997000 edges"),
            ("caterpillar:18446744073709551615x18446744073709551615", "nodes, over the limit"),
            ("torus:18446744073709551615x18446744073709551615", "nodes, over the limit"),
            ("barbell:18446744073709551615x18446744073709551615", "nodes, over the limit"),
        ] {
            let err = parse_topology(spec, 0).unwrap_err();
            assert!(err.contains(needle) && !err.contains('\n'), "{spec}: {err}");
        }
        // The largest specs in use still fit, counted without building.
        for spec in ["hypercube:20", "path:2097152", "complete:5793", "random-tree:2097152"] {
            let plan = topology_plan(spec, 0).unwrap();
            assert!(plan.nodes <= MAX_NODES as u128 && plan.edges <= MAX_EDGES as u128, "{spec}");
        }
        assert_eq!(topology_plan("hypercube:20", 0).unwrap().edges, 10_485_760);
    }

    /// Calls `parse` on `input` and requires an `Ok` or a one-line `Err`,
    /// naming the input if it panics instead.
    fn total<T>(what: &str, input: &str, parse: impl FnOnce() -> Result<T, String>) {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(parse)) {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => assert!(!e.is_empty() && !e.contains('\n'), "{what}({input:?}): {e:?}"),
            Err(_) => panic!("{what}({input:?}) panicked"),
        }
    }

    /// Feeds every parser arbitrary strings and every one-character
    /// mutation (replace, insert, delete) of valid specs. Characters come
    /// mostly from the grammar's own alphabet, so mutants reach deep into
    /// each parser.
    #[test]
    fn parsers_are_total_on_arbitrary_and_mutated_specs() {
        const ALPHABET: &[char] = &[
            '0',
            '1',
            '2',
            '4',
            '9',
            ':',
            'x',
            '@',
            '%',
            '-',
            ' ',
            'a',
            'e',
            'p',
            'r',
            'm',
            'c',
            't',
            'h',
            '\u{e9}',
            '\u{1F600}',
            '\n',
        ];
        let check = |s: &str| {
            total("parse_topology", s, || parse_topology(s, 1));
            total("parse_inputs", s, || parse_inputs(s, 5, 1));
            total("parse_crashes", s, || parse_crashes(&[s.to_string()]));
            total("parse_op", s, || parse_op(s));
        };
        let mut rng = StdRng::seed_from_u64(0x5bec);
        for _ in 0..2000 {
            let len = rng.gen_range(0..24);
            let s: String = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.9) {
                        ALPHABET[rng.gen_range(0..ALPHABET.len())]
                    } else {
                        char::from_u32(rng.gen_range(0..0x11_0000)).unwrap_or('?')
                    }
                })
                .collect();
            check(&s);
        }
        let valid = [
            "path:5",
            "cycle:6",
            "star:4",
            "complete:5",
            "grid:3x4",
            "torus:3x3",
            "binary-tree:7",
            "caterpillar:4x2",
            "broom:3x2",
            "lollipop:4x3",
            "hypercube:3",
            "wheel:5",
            "barbell:3x2",
            "bipartite:2x3",
            "random-tree:9",
            "gnp:9x30",
            "const:9",
            "random:50",
            "ramp",
            "3@10",
            "sum",
            "count",
            "max",
            "min:100",
            "or",
            "and",
            "gcd",
            "modsum:7",
        ];
        for spec in valid {
            let chars: Vec<char> = spec.chars().collect();
            for i in 0..=chars.len() {
                if i < chars.len() {
                    let deleted: String = [&chars[..i], &chars[i + 1..]].concat().iter().collect();
                    check(&deleted);
                }
                for &c in ALPHABET {
                    let inserted: String =
                        [&chars[..i], &[c], &chars[i..]].concat().iter().collect();
                    check(&inserted);
                    if i < chars.len() {
                        let replaced: String =
                            [&chars[..i], &[c], &chars[i + 1..]].concat().iter().collect();
                        check(&replaced);
                    }
                }
            }
        }
    }
}
