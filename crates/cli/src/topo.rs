//! `topo` — statistics of a topology spec.

use crate::{spec, Args, CmdOutput, Mode};

pub(crate) const MODES: &[Mode] = &[Mode::new("topo", "topology seed")];

pub(crate) fn cmd_topo(args: &Args) -> Result<CmdOutput, String> {
    let seed: u64 = args.num("seed", 0)?;
    let g = spec::parse_topology(args.get("topology").ok_or("--topology required")?, seed)?;
    let degrees: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    Ok(CmdOutput::ok(format!(
        "nodes      = {}\nedges      = {}\ndiameter   = {}\nmin degree = {}\nmax degree = {}\nid bits    = {}\n",
        g.len(),
        g.edge_count(),
        g.diameter(),
        degrees.iter().min().unwrap(),
        degrees.iter().max().unwrap(),
        wire::id_bits(g.len()),
    )))
}

#[cfg(test)]
mod tests {
    use crate::{args, dispatch};

    #[test]
    fn topo_command() {
        let out = dispatch(&args(&["topo", "--topology", "grid:4x4"])).unwrap();
        assert!(out.contains("nodes      = 16"));
        assert!(out.contains("diameter   = 6"));
    }
}
