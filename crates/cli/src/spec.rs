//! Textual specification parsers for the CLI: topologies, input
//! generators, crash schedules, and operators.
//!
//! Grammar (all case-sensitive, parameters colon/`x`/`@`-separated):
//!
//! - topology: `path:N`, `cycle:N`, `star:N`, `complete:N`, `grid:RxC`,
//!   `torus:RxC`, `binary-tree:N`, `caterpillar:SxL`, `broom:HxB`,
//!   `lollipop:KxT`, `hypercube:D`, `wheel:N`, `barbell:KxB`,
//!   `bipartite:AxB`, `random-tree:N`, `gnp:NxP%` (P percent),
//! - inputs: `const:V`, `random:MAX`, `ramp` (node id as input),
//! - crash: `NODE@ROUND` (repeatable),
//! - operator: `sum`, `count`, `max`, `min:TOP`, `or`, `and`, `gcd`,
//!   `modsum:M`.

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

fn parse_pair(s: &str, sep: char) -> Result<(usize, usize), String> {
    let (a, b) =
        s.split_once(sep).ok_or_else(|| format!("expected '{sep}'-separated pair, got '{s}'"))?;
    Ok((
        a.parse().map_err(|_| format!("bad number '{a}'"))?,
        b.parse().map_err(|_| format!("bad number '{b}'"))?,
    ))
}

/// Parses a topology spec (see module docs).
///
/// # Errors
///
/// Returns a message naming the unknown family, a malformed parameter, or
/// a size below the family's minimum (checked here, so a bad spec is a
/// one-line error instead of an assert inside `netsim::topology`).
pub fn parse_topology(spec: &str, seed: u64) -> Result<Graph, String> {
    let (name, arg) = spec.split_once(':').unwrap_or((spec, ""));
    let num = |s: &str| -> Result<usize, String> {
        s.parse().map_err(|_| format!("bad number '{s}' in '{spec}'"))
    };
    let at_least = |v: usize, min: usize, what: &str| -> Result<usize, String> {
        if v >= min {
            Ok(v)
        } else {
            Err(format!("topology '{spec}' needs {what} >= {min}"))
        }
    };
    Ok(match name {
        "path" => topology::path(at_least(num(arg)?, 1, "N")?),
        "cycle" => topology::cycle(at_least(num(arg)?, 3, "N")?),
        "star" => topology::star(at_least(num(arg)?, 1, "N")?),
        "complete" => topology::complete(at_least(num(arg)?, 1, "N")?),
        "grid" => {
            let (r, c) = parse_pair(arg, 'x')?;
            topology::grid(at_least(r, 1, "R")?, at_least(c, 1, "C")?)
        }
        "torus" => {
            let (r, c) = parse_pair(arg, 'x')?;
            topology::torus(at_least(r, 3, "R")?, at_least(c, 3, "C")?)
        }
        "binary-tree" => topology::binary_tree(at_least(num(arg)?, 1, "N")?),
        "caterpillar" => {
            let (s, l) = parse_pair(arg, 'x')?;
            topology::caterpillar(at_least(s, 1, "S")?, l)
        }
        "broom" => {
            let (h, b) = parse_pair(arg, 'x')?;
            topology::broom(at_least(h, 1, "H")?, b)
        }
        "lollipop" => {
            let (k, t) = parse_pair(arg, 'x')?;
            topology::lollipop(at_least(k, 1, "K")?, t)
        }
        "hypercube" => {
            let d = at_least(num(arg)?, 1, "D")?;
            if d > 20 {
                return Err(format!("topology '{spec}' needs D <= 20"));
            }
            topology::hypercube(d as u32)
        }
        "wheel" => topology::wheel(at_least(num(arg)?, 4, "N")?),
        "barbell" => {
            let (k, b) = parse_pair(arg, 'x')?;
            topology::barbell(at_least(k, 2, "K")?, b)
        }
        "bipartite" => {
            let (a, b) = parse_pair(arg, 'x')?;
            topology::complete_bipartite(at_least(a, 1, "A")?, at_least(b, 1, "B")?)
        }
        "random-tree" => {
            let n = at_least(num(arg)?, 1, "N")?;
            let mut rng = StdRng::seed_from_u64(seed);
            topology::random_tree(n, &mut rng)
        }
        "gnp" => {
            let (n, pct) = parse_pair(arg, 'x')?;
            let p = pct
                .to_string()
                .trim_end_matches('%')
                .parse::<usize>()
                .map_err(|_| format!("bad percent in '{spec}'"))?;
            if p > 100 {
                return Err(format!("topology '{spec}' needs P <= 100 (percent)"));
            }
            let n = at_least(n, 1, "N")?;
            let mut rng = StdRng::seed_from_u64(seed);
            topology::connected_gnp(n, p as f64 / 100.0, &mut rng)
        }
        other => return Err(format!("unknown topology family '{other}'")),
    })
}

/// Parses an input generator and produces the `n` inputs.
///
/// # Errors
///
/// Returns a message for unknown generators or malformed values.
pub fn parse_inputs(spec: &str, n: usize, seed: u64) -> Result<(Vec<u64>, u64), String> {
    let (name, arg) = spec.split_once(':').unwrap_or((spec, ""));
    Ok(match name {
        "const" => {
            let v: u64 = arg.parse().map_err(|_| format!("bad value '{arg}'"))?;
            (vec![v; n], v.max(1))
        }
        "random" => {
            let max: u64 = arg.parse().map_err(|_| format!("bad max '{arg}'"))?;
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
            ((0..n).map(|_| rng.gen_range(0..=max)).collect(), max.max(1))
        }
        "ramp" => ((0..n as u64).collect(), (n as u64).max(1)),
        other => return Err(format!("unknown input generator '{other}'")),
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
        let (node, round) =
            c.split_once('@').ok_or_else(|| format!("crash spec '{c}' must be NODE@ROUND"))?;
        let node: u32 = node.parse().map_err(|_| format!("bad node '{node}'"))?;
        let round: u64 = round.parse().map_err(|_| format!("bad round '{round}'"))?;
        if round == 0 {
            return Err("crash rounds are 1-based".into());
        }
        s.crash(NodeId(node), round);
    }
    Ok(s)
}

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
            let m: u64 = arg.parse().map_err(|_| "modsum needs modsum:M".to_string())?;
            OpSpec::ModSum(ModSum::new(m))
        }
        other => return Err(format!("unknown operator '{other}'")),
    })
}

/// Serializes a full scenario (explicit edge-list topology, inputs, and
/// crash schedule) into a one-line-per-field text format that
/// [`parse_scenario`] reads back — the CLI's `--save`/`--load` files.
pub fn format_scenario(graph: &Graph, inputs: &[u64], schedule: &FailureSchedule) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let edges: Vec<String> =
        graph.edges().iter().map(|e| format!("{}-{}", e.lo().0, e.hi().0)).collect();
    let _ = writeln!(out, "nodes {}", graph.len());
    let _ = writeln!(out, "edges {}", edges.join(","));
    let vals: Vec<String> = inputs.iter().map(u64::to_string).collect();
    let _ = writeln!(out, "inputs {}", vals.join(","));
    for (v, e) in schedule.iter() {
        let _ = writeln!(out, "crash {}@{}", v.0, e.round);
    }
    out
}

/// Parses a scenario produced by [`format_scenario`].
///
/// # Errors
///
/// Returns a message describing the first malformed line.
pub fn parse_scenario(text: &str) -> Result<(Graph, Vec<u64>, FailureSchedule), String> {
    let mut n: Option<usize> = None;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut inputs: Vec<u64> = Vec::new();
    let mut crash_specs: Vec<String> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // A key with no value (e.g. "edges" on an edgeless graph) is fine.
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "nodes" => {
                n = Some(rest.parse().map_err(|_| format!("line {}: bad node count", lineno + 1))?);
            }
            "edges" => {
                for pair in rest.split(',').filter(|s| !s.is_empty()) {
                    let (a, b) = pair
                        .split_once('-')
                        .ok_or_else(|| format!("line {}: edge '{pair}' must be A-B", lineno + 1))?;
                    edges.push((
                        a.parse().map_err(|_| format!("bad edge endpoint '{a}'"))?,
                        b.parse().map_err(|_| format!("bad edge endpoint '{b}'"))?,
                    ));
                }
            }
            "inputs" => {
                for v in rest.split(',').filter(|s| !s.is_empty()) {
                    inputs.push(v.parse().map_err(|_| format!("bad input '{v}'"))?);
                }
            }
            "crash" => crash_specs.push(rest.to_string()),
            other => return Err(format!("line {}: unknown key '{other}'", lineno + 1)),
        }
    }
    let n = n.ok_or("missing 'nodes' line")?;
    let graph = Graph::new(n, &edges).map_err(|e| e.to_string())?;
    if inputs.len() != n {
        return Err(format!("expected {n} inputs, got {}", inputs.len()));
    }
    let schedule = parse_crashes(&crash_specs)?;
    Ok((graph, inputs, schedule))
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
    fn scenario_roundtrip() {
        let g = topology::grid(3, 3);
        let inputs: Vec<u64> = (0..9).collect();
        let mut s = FailureSchedule::none();
        s.crash(NodeId(4), 17);
        s.crash(NodeId(7), 3);
        let text = format_scenario(&g, &inputs, &s);
        let (g2, in2, s2) = parse_scenario(&text).unwrap();
        assert_eq!(g2, g);
        assert_eq!(in2, inputs);
        assert_eq!(s2, s);
    }

    #[test]
    fn scenario_parse_errors() {
        assert!(parse_scenario("edges 0-1").is_err()); // missing nodes
        assert!(parse_scenario("nodes 2\nedges 0:1\ninputs 1,2").is_err());
        assert!(parse_scenario("nodes 2\nedges 0-1\ninputs 1").is_err());
        assert!(parse_scenario("nodes 2\nedges 0-1\ninputs 1,2\nwat 3").is_err());
        assert!(parse_scenario("nodes 2\nedges 0-1\ninputs 1,2\ncrash 1@5").is_ok());
        // Comments and blanks are fine.
        assert!(parse_scenario("# hi\n\nnodes 1\nedges \ninputs 0").is_ok());
    }

    #[test]
    fn op_specs_parse() {
        assert_eq!(parse_op("sum").unwrap().name(), "sum");
        assert_eq!(parse_op("min:100").unwrap().name(), "min");
        assert_eq!(parse_op("modsum:7").unwrap().name(), "modsum");
        assert!(parse_op("min").is_err());
        assert!(parse_op("median").is_err());
    }
}
