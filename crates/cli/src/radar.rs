//! `radar` — fit measured CC across the (N, f, b) grid against the
//! Theorem 1 envelope. Exits 1 on envelope-residual violations.

use crate::{Args, CmdOutput, Mode};

pub(crate) const MODES: &[Mode] = &[Mode::new("radar", "quick tolerance threads progress")];

pub(crate) fn cmd_radar(args: &Args) -> Result<CmdOutput, String> {
    use ftagg_bench::radar;
    let tolerance: f64 = args.num("tolerance", radar::DEFAULT_TOLERANCE)?;
    // A NaN or infinite tolerance would pass every residual, and a
    // negative one would flag every cell.
    if !(tolerance.is_finite() && tolerance >= 0.0) {
        return Err(format!("--tolerance must be a finite number >= 0 (got {tolerance})"));
    }
    let quick = args.get("quick").is_some();
    let threads: usize = args.num("threads", 0)?;
    let sink = netsim::ConsoleProgress::new();
    let progress: Option<&dyn netsim::ProgressSink> =
        args.get("progress").is_some().then_some(&sink);
    let cells = radar::measure_grid(quick, threads, progress);
    let fit = radar::fit_envelope(&cells)?;
    let code = i32::from(!fit.violations(tolerance).is_empty());
    Ok(CmdOutput { text: fit.render(tolerance), code })
}

#[cfg(test)]
mod tests {
    use crate::{args, cli, dispatch_full};

    #[test]
    fn radar_live_quick_fits_the_envelope() {
        let out = dispatch_full(&args(&["radar", "--quick", "yes", "--threads", "2"])).unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("radar: CC ~"), "{}", out.text);
        assert!(out.text.contains("all 4 residuals within"), "{}", out.text);
        // An absurdly tight tolerance flags violations and exits 1.
        let tight =
            dispatch_full(&cli("radar --quick yes --threads 2 --tolerance 0.0001")).unwrap();
        assert_eq!(tight.code, 1, "{}", tight.text);
        assert!(tight.text.contains("VIOLATION"), "{}", tight.text);
        // stdout is identical with --progress (the sink writes to stderr).
        let progressed =
            dispatch_full(&cli("radar --quick yes --threads 2 --progress yes")).unwrap();
        assert_eq!(progressed.text, out.text);
        assert_eq!(progressed.code, 0);
    }
}
