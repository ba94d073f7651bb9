//! `bounds` — the paper's bound curves at one (N, f, b).

use crate::{Args, CmdOutput, Mode};
use ftagg::bounds;

pub(crate) const MODES: &[Mode] = &[Mode::new("bounds", "n f b")];

pub(crate) fn cmd_bounds(args: &Args) -> Result<CmdOutput, String> {
    let n: usize = args.num("n", 1024)?;
    let f: usize = args.num("f", 64)?;
    let b: u64 = args.num("b", 42)?;
    if b == 0 {
        return Err("--b must be at least 1 (the bounds divide by b)".into());
    }
    Ok(CmdOutput::ok(format!(
        "N = {n}, f = {f}, b = {b}\n\
         upper (precise)  = {:.1}\n\
         upper (simple)   = {:.1}\n\
         lower (new)      = {:.2}\n\
         lower (old)      = {:.3}\n\
         brute-force CC   = {:.0}\n\
         folklore CC      = {:.0}\n\
         upper/lower gap  = {:.1} (polylog budget {:.1})\n",
        bounds::upper_bound_new(n, f, b),
        bounds::upper_bound_simple(n, f, b),
        bounds::lower_bound_new(n, f, b),
        bounds::lower_bound_old(f, b),
        bounds::brute_cc(n),
        bounds::folklore_cc(n, f),
        bounds::gap(n, f, b),
        bounds::log2c(n as f64).powi(2) * bounds::log2c(b as f64),
    )))
}

#[cfg(test)]
mod tests {
    use crate::{args, dispatch};

    #[test]
    fn bounds_command() {
        let out = dispatch(&args(&["bounds", "--n", "256", "--f", "32", "--b", "42"])).unwrap();
        assert!(out.contains("N = 256"));
        assert!(out.contains("upper (simple)"));
    }
}
