//! Bad command-line input ends in one `error:` line on stderr and exit
//! code 2, never a panic. Algorithm 1's preconditions (`c >= 1`,
//! `b >= 21c`) and each topology family's minimum size are checked before
//! anything runs; these cases used to reach asserts in `ftagg::tradeoff`
//! and `netsim::topology` and exit 101. `--c 0` is refused by every
//! command that reads it: the other protocols used to run with
//! zero-length flooding rounds and print wrong answers.

use std::process::Command;

fn assert_usage_error(argv: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_ftagg-cli"))
        .args(argv)
        .output()
        .expect("ftagg-cli starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{argv:?} printed to stdout");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{argv:?}: want one stderr line, got {stderr}");
    assert!(lines[0].starts_with("error: "), "{argv:?}: {stderr}");
    assert!(lines[0].contains(needle), "{argv:?}: want {needle:?} in {stderr}");
}

#[test]
fn run_tradeoff_below_21c() {
    assert_usage_error(&["run", "--protocol", "tradeoff", "--b", "5", "--c", "1"], "b >= 21c");
}

#[test]
fn report_below_21c() {
    assert_usage_error(&["report", "--b", "5", "--c", "1"], "b >= 21c");
}

#[test]
fn explain_below_21c() {
    assert_usage_error(&["explain", "--b", "5", "--c", "1"], "b >= 21c");
}

#[test]
fn mine_below_21c() {
    assert_usage_error(&["mine", "--b", "5", "--c", "1"], "b >= 21c");
}

#[test]
fn sweep_with_zero_c() {
    assert_usage_error(&["sweep", "--c", "0"], "c and d must be positive");
}

#[test]
fn run_tradeoff_with_zero_c() {
    assert_usage_error(&["run", "--protocol", "tradeoff", "--c", "0"], "c and d must be positive");
}

#[test]
fn topo_empty_grid() {
    assert_usage_error(&["topo", "--topology", "grid:0x0"], "needs R >= 1");
}

#[test]
fn run_empty_path() {
    assert_usage_error(&["run", "--topology", "path:0"], "needs N >= 1");
}

#[test]
fn sweep_two_node_cycle() {
    assert_usage_error(&["sweep", "--topology", "cycle:2"], "needs N >= 3");
}

#[test]
fn topo_empty_star() {
    assert_usage_error(&["topo", "--topology", "star:0"], "needs N >= 1");
}

#[test]
fn timeline_zero_row_grid() {
    assert_usage_error(&["timeline", "--topology", "grid:0x3"], "needs R >= 1");
}

#[test]
fn run_gnp_probability_above_one() {
    assert_usage_error(&["run", "--topology", "gnp:10x200"], "needs P <= 100");
}

#[test]
fn run_zero_dimension_hypercube() {
    assert_usage_error(&["run", "--topology", "hypercube:0"], "needs D >= 1");
}

const ZERO_C: &str = "--c must be at least 1";

#[test]
fn run_other_protocols_with_zero_c() {
    for protocol in ["brute", "folklore", "tag", "doubling"] {
        assert_usage_error(&["run", "--protocol", protocol, "--c", "0"], ZERO_C);
    }
}

#[test]
fn trace_with_zero_c() {
    assert_usage_error(&["trace", "--c", "0"], ZERO_C);
}

#[test]
fn top_with_zero_c() {
    assert_usage_error(&["top", "--c", "0"], ZERO_C);
}

#[test]
fn telemetry_with_zero_c() {
    assert_usage_error(&["telemetry", "export", "--c", "0"], ZERO_C);
}

#[test]
fn timeline_with_zero_c() {
    assert_usage_error(&["timeline", "--c", "0"], ZERO_C);
}

#[test]
fn report_with_zero_c() {
    assert_usage_error(&["report", "--c", "0"], ZERO_C);
}

#[test]
fn explain_with_zero_c() {
    assert_usage_error(&["explain", "--c", "0"], ZERO_C);
}

#[test]
fn mine_pair_and_doubling_with_zero_c() {
    for protocol in ["pair:1", "doubling:2"] {
        assert_usage_error(&["mine", "--protocol", protocol, "--c", "0"], ZERO_C);
    }
}
