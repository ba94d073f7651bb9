//! Bad command-line input ends in one `error:` line on stderr and exit
//! code 2, never a panic. Algorithm 1's preconditions (`c >= 1`,
//! `b >= 21c`) and each topology family's minimum size are checked before
//! anything runs; these cases used to reach asserts in `ftagg::tradeoff`
//! and `netsim::topology` and exit 101. `--c 0` is refused by every
//! command that reads it: the other protocols used to run with
//! zero-length flooding rounds and print wrong answers. An option the
//! subcommand does not read is refused by name instead of ignored, and so
//! is an option only another mode of the subcommand reads (`top --trials`
//! with `--ring`, `report --input` with `--b`, or with `--seed` but no
//! `--sampled` to seed).
//! Hostile input files end in one line of output too: a trace naming an
//! absurd node id or going back in rounds, and a Chrome trace nested
//! 300,000 levels deep. A reader that closes stdout early is not a panic.
//! So do specs that used to panic, abort or print a meaningless answer: a
//! zero `modsum` modulus, inputs whose sum passes `u64::MAX`, a topology
//! too large to allocate, and `bounds` with `b = 0`. A `radar
//! --tolerance` that is NaN, infinite or negative is refused before the
//! grid runs: it used to pass or fail every residual silently.

use std::process::{Command, Output};

fn ftagg_cli(argv: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ftagg-cli")).args(argv).output().expect("ftagg-cli starts")
}

/// Writes `content` to a fresh file in the temp dir; returns its path.
fn hostile_file(name: &str, content: &str) -> String {
    let dir = std::env::temp_dir().join("ftagg-cli-errors-test");
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write hostile file");
    path.to_str().expect("utf-8 temp path").to_string()
}

fn assert_usage_error(argv: &[&str], needle: &str) {
    let out = ftagg_cli(argv);
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

#[test]
fn run_modsum_with_zero_modulus() {
    assert_usage_error(&["run", "--topology", "path:4", "--op", "modsum:0"], "modsum needs");
}

const SUM_PAST_U64: &str = "can sum past 2^64 - 1";

#[test]
fn run_inputs_that_sum_past_u64() {
    assert_usage_error(
        &["run", "--topology", "path:4", "--inputs", "random:18446744073709551615"],
        SUM_PAST_U64,
    );
}

#[test]
fn mine_inputs_that_sum_past_u64() {
    assert_usage_error(
        &[
            "mine",
            "--topology",
            "path:4",
            "--inputs",
            "const:18446744073709551615",
            "--iterations",
            "1",
        ],
        SUM_PAST_U64,
    );
}

#[test]
fn topo_over_the_node_limit() {
    assert_usage_error(
        &["topo", "--topology", "path:5000000000"],
        "5000000000 nodes, over the limit of 2097152",
    );
}

#[test]
fn topo_over_the_edge_limit() {
    assert_usage_error(
        &["topo", "--topology", "complete:300000"],
        "44999850000 edges, over the limit of 16777216",
    );
}

#[test]
fn bounds_with_zero_b() {
    assert_usage_error(&["bounds", "--n", "1024", "--b", "0"], "--b must be at least 1");
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

#[test]
fn radar_refuses_a_tolerance_that_is_not_a_finite_number_at_least_zero() {
    // NaN and infinity would switch the envelope gate off; a negative
    // tolerance would flag every cell.
    for bad in ["NaN", "inf", "-inf", "-1"] {
        assert_usage_error(&["radar", "--quick", "yes", "--tolerance", bad], "--tolerance");
    }
}

#[test]
fn unknown_options_are_refused_by_name() {
    assert_usage_error(
        &["run", "--bogus", "1", "--protocol", "brute", "--topology", "path:4"],
        "unknown option --bogus for 'run'",
    );
    // Flags that were passed for years and never read.
    assert_usage_error(&["trace", "--topology", "path:4", "--d", "3"], "unknown option --d");
    assert_usage_error(&["timeline", "--topology", "grid:8x8", "--b", "63"], "unknown option --b");
    assert_usage_error(&["diff", "a.jsonl", "b.jsonl", "--top", "3"], "unknown option --top");
}

/// A real trace of a small pair run, written by `ftagg-cli trace`.
fn saved_trace(name: &str) -> String {
    let path = hostile_file(name, "");
    let out = ftagg_cli(&["trace", "--topology", "path:4", "--t", "1", "--jsonl", &path]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    path
}

#[test]
fn top_fleet_mode_refuses_single_run_options() {
    let flight = hostile_file("fleet_flight.jsonl", "");
    std::fs::remove_file(&flight).expect("start without a dump");
    assert_usage_error(
        &["top", "--topology", "grid:4x4", "--trials", "2", "--flight-out", &flight, "--ring", "4"],
        "option --flight-out is not read by top --trials",
    );
    assert!(!std::path::Path::new(&flight).exists(), "the refused run wrote a flight dump");
}

#[test]
fn explain_from_a_file_refuses_live_options() {
    let trace = saved_trace("explain_mode.jsonl");
    assert_usage_error(
        &["explain", "--input", &trace, "--ring", "2"],
        "option --ring is not read by explain --input",
    );
}

#[test]
fn report_and_timeline_from_files_refuse_live_options() {
    let trace = saved_trace("report_mode.jsonl");
    assert_usage_error(
        &["report", "--input", &trace, "--trials", "4", "--b", "99", "--workers", "yes"],
        "option --b is not read by report --input",
    );
    let chrome = hostile_file("validate_mode.trace.json", "");
    let out = ftagg_cli(&["timeline", "--input", &trace, "--out", &chrome]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_usage_error(
        &["timeline", "--validate", &chrome, "--trials", "9", "--flows", "yes"],
        "option --flows is not read by timeline --validate",
    );
}

#[test]
fn report_from_a_file_refuses_a_seed_without_the_sampler() {
    let trace = saved_trace("report_seed.jsonl");
    assert_usage_error(
        &["report", "--input", &trace, "--seed", "9"],
        "option --seed is not read by report --input without --sampled",
    );
    let out = ftagg_cli(&["report", "--input", &trace, "--sampled", "4", "--seed", "9"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

const HUGE_NODE_TRACE: &str = "{\"schema\":\"ftagg-trace\",\"v\":2}\n\
    {\"ev\":\"send\",\"r\":1,\"n\":4000000000,\"bits\":8,\"logical\":1,\"id\":1}\n\
    {\"ev\":\"decide\",\"r\":2,\"n\":0,\"value\":1}\n";

#[test]
fn every_trace_input_applies_the_replay_limits() {
    let path = hostile_file("huge_node.jsonl", HUGE_NODE_TRACE);
    for cmd in ["report", "explain", "timeline"] {
        assert_usage_error(&[cmd, "--input", &path], "over the replay limit");
    }
}

#[test]
fn traces_that_go_back_in_rounds_are_refused_with_the_line() {
    let path = hostile_file(
        "backwards.jsonl",
        "{\"schema\":\"ftagg-trace\",\"v\":2}\n\
         {\"ev\":\"crash\",\"r\":5,\"n\":1}\n\
         {\"ev\":\"crash\",\"r\":2,\"n\":2}\n",
    );
    for cmd in ["report", "explain", "timeline"] {
        assert_usage_error(&[cmd, "--input", &path], "line 3: round 2 after round 5");
    }
}

#[test]
fn deeply_nested_chrome_trace_gets_a_one_line_verdict() {
    let path = hostile_file("deep.trace.json", &"[".repeat(300_000));
    let out = ftagg_cli(&["timeline", "--validate", &path]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(stdout.starts_with("INVALID Chrome trace"), "{stdout}");
    assert!(stdout.contains("nesting deeper than"), "{stdout}");
}

#[test]
fn a_reader_that_closes_the_pipe_early_is_not_a_panic() {
    // `trace` prints every event of the run (about 250 KB here), more
    // than a pipe buffer holds, so the write hits the closed pipe however
    // the start races. It used to panic with "failed printing to stdout".
    let mut child = Command::new(env!("CARGO_BIN_EXE_ftagg-cli"))
        .args(["trace", "--topology", "grid:16x16"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("ftagg-cli starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("ftagg-cli exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
