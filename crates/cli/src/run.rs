//! `run` — one protocol on one topology: the result, whether it is
//! correct, the bottleneck CC and the rounds.

use crate::{check_layout, spec, stretch_c, Args, CmdOutput, Mode};
use caaf::Caaf;
use ftagg::baselines::{run_brute, run_folklore, run_tag_once};
use ftagg::doubling::{run_doubling, DoublingConfig};
use ftagg::tradeoff::{run_tradeoff, TradeoffConfig};
use ftagg::Instance;
use netsim::NodeId;

pub(crate) const MODES: &[Mode] =
    &[Mode::new("run", "topology protocol op inputs crash b c f seed root")];

pub(crate) fn cmd_run(args: &Args) -> Result<CmdOutput, String> {
    let seed: u64 = args.num("seed", 0)?;
    let graph = spec::parse_topology(args.get("topology").unwrap_or("grid:5x5"), seed)?;
    let n = graph.len();
    let root = NodeId(args.num("root", 0u32)?);
    let (inputs, gen_max) = spec::parse_inputs(args.get("inputs").unwrap_or("ramp"), n, seed)?;
    let schedule = spec::parse_crashes(args.get_all("crash"))?;
    let op = spec::parse_op(args.get("op").unwrap_or("sum"))?;
    let (inputs, max_input) = op.clamp(inputs, gen_max);
    let inst = Instance::new(graph, root, inputs, schedule, max_input)?;

    let c = stretch_c(args)?;
    let b: u64 = args.num("b", 21 * u64::from(c))?;
    let f: usize = args.num("f", inst.edge_failures().max(1))?;
    let protocol = args.get("protocol").unwrap_or("tradeoff");
    spec::with_op!(op, o => run_protocol(protocol, &o, &inst, b, c, f, seed)).map(CmdOutput::ok)
}

fn run_protocol<C: Caaf + 'static>(
    protocol: &str,
    op: &C,
    inst: &Instance,
    b: u64,
    c: u32,
    f: usize,
    seed: u64,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} over {} nodes (d = {}, f_sched = {}), operator {}",
        protocol,
        inst.n(),
        inst.graph.diameter(),
        inst.edge_failures(),
        op.name()
    );
    let (result, correct, cc, rounds): (u64, bool, u64, u64) = match protocol {
        "tradeoff" => {
            check_layout(b, c)?;
            let r = run_tradeoff(op, inst, &TradeoffConfig { b, c, f, seed });
            let _ = writeln!(
                out,
                "pairs run = {}, fallback = {}, x = {}, t = {}",
                r.pairs_run, r.used_fallback, r.x, r.t
            );
            (r.result, r.correct, r.metrics.max_bits(), r.rounds)
        }
        "brute" => {
            let r = run_brute(op, inst, c);
            (r.result, r.correct, r.metrics.max_bits(), r.rounds)
        }
        "folklore" => {
            let r = run_folklore(op, inst, c, 2 * f + 2);
            let _ = writeln!(out, "attempts = {}, exhausted = {}", r.attempts, r.exhausted);
            (r.result, r.correct, r.metrics.max_bits(), r.rounds)
        }
        "tag" => {
            let r = run_tag_once(op, inst, c);
            let _ = writeln!(out, "clean = {}", r.clean);
            (r.result, r.correct, r.metrics.max_bits(), r.rounds)
        }
        "doubling" => {
            let r = run_doubling(op, inst, &DoublingConfig { c, max_stages: 8 });
            let _ = writeln!(out, "stages = {}, final guess = {}", r.stages, r.final_guess);
            (r.result, r.correct, r.metrics.max_bits(), r.rounds)
        }
        other => return Err(format!("unknown protocol '{other}'")),
    };
    let _ = writeln!(out, "result  = {result} (correct: {correct})");
    let _ = writeln!(out, "CC      = {cc} bits at the bottleneck node");
    let _ = writeln!(out, "rounds  = {rounds}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::{cli, dispatch};

    #[test]
    fn run_command_all_protocols() {
        for proto in ["tradeoff", "brute", "folklore", "tag", "doubling"] {
            let out = dispatch(&cli(&format!(
                "run --topology grid:4x4 --protocol {proto} --inputs const:2 --crash 5@40 --b 63"
            )))
            .unwrap();
            assert!(out.contains("result  = "), "{proto}: {out}");
            assert!(out.contains("correct: true"), "{proto} must be correct here: {out}");
        }
    }

    #[test]
    fn run_command_operators() {
        for op in ["sum", "count", "max", "min:100", "or", "and", "gcd", "modsum:13"] {
            let out =
                dispatch(&cli(&format!("run --topology cycle:8 --op {op} --inputs random:50")))
                    .unwrap();
            assert!(out.contains("result  = "), "{op}: {out}");
        }
    }
}
