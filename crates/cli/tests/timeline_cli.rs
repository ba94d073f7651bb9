//! Integration coverage for `ftagg-cli timeline`: the live fleet run
//! must emit a schema-valid Chrome Trace Event JSON (per-worker lanes,
//! engine-stage spans, counter tracks), `--validate` must enforce its
//! coverage floors with the documented exit codes, the JSONL replay
//! path must rebuild a valid trace offline, and the zero-value argument
//! guards (`top --trials 0`, `report --sampled 0`) must fail fast with
//! a one-line error instead of a silent empty table.

use ftagg_cli::{dispatch_full, Args};

fn run(argv: &[&str]) -> Result<ftagg_cli::CmdOutput, String> {
    let args = Args::parse(argv.iter().map(|s| s.to_string())).expect("valid argv");
    dispatch_full(&args)
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("ftagg-timeline-cli-test");
    std::fs::create_dir_all(&dir).expect("tempdir");
    dir.join(name).to_str().expect("utf-8 temp path").to_string()
}

#[test]
fn live_timeline_emits_a_schema_valid_chrome_trace() {
    let out_path = tmp("live.trace.json");
    let out = run(&[
        "timeline",
        "--topology",
        "grid:6x6",
        "--trials",
        "2",
        "--threads",
        "2",
        "--top",
        "3",
        "--out",
        &out_path,
    ])
    .expect("live timeline runs");
    assert_eq!(out.code, 0, "{}", out.text);
    assert!(out.text.contains("wrote"), "{}", out.text);
    assert!(out.text.contains("self time"), "--top must render the self-time table");

    let text = std::fs::read_to_string(&out_path).expect("trace file written");
    let check = netsim::validate_chrome_trace(&text).expect("schema-valid Chrome trace");
    assert!(check.duration_events >= 10, "expected real span coverage, got {check:?}");
    // Lane 0 is the driver; every trial span lands on a worker lane.
    assert!(check.lanes.len() >= 2, "driver + worker lanes expected, got {:?}", check.lanes);
    assert!(
        check.counter_tracks.len() >= 3,
        "bits/messages/in-flight tracks expected, got {:?}",
        check.counter_tracks
    );
    for cat in ["run", "trial", "round", "stage"] {
        assert!(
            check.categories.iter().any(|c| c == cat),
            "span taxonomy lost {cat:?}: {:?}",
            check.categories
        );
    }
}

#[test]
fn validate_enforces_coverage_floors_with_documented_exit_codes() {
    let out_path = tmp("gate.trace.json");
    run(&["timeline", "--topology", "grid:6x6", "--out", &out_path]).expect("live timeline runs");

    let ok = run(&[
        "timeline",
        "--validate",
        &out_path,
        "--min-spans",
        "10",
        "--min-counters",
        "3",
        "--min-lanes",
        "2",
    ])
    .expect("validation runs");
    assert_eq!(ok.code, 0, "{}", ok.text);
    assert!(ok.text.contains("valid Chrome trace"), "{}", ok.text);

    let gated =
        run(&["timeline", "--validate", &out_path, "--min-lanes", "99"]).expect("validation runs");
    assert_eq!(gated.code, 1, "unmet floors must exit 1: {}", gated.text);
    assert!(gated.text.contains("COVERAGE FAILED"), "{}", gated.text);

    let bad_path = tmp("garbage.trace.json");
    std::fs::write(&bad_path, "not a chrome trace").expect("write garbage");
    let invalid = run(&["timeline", "--validate", &bad_path]).expect("validation runs");
    assert_eq!(invalid.code, 1, "structural failure must exit 1: {}", invalid.text);
    assert!(invalid.text.contains("INVALID"), "{}", invalid.text);

    // Only IO errors take the usage path (exit 2 at main).
    assert!(run(&["timeline", "--validate", &tmp("missing.trace.json")]).is_err());
}

#[test]
fn replay_rebuilds_a_valid_trace_from_saved_jsonl() {
    let jsonl = tmp("fixture.jsonl");
    run(&["trace", "--topology", "path:4", "--t", "1", "--jsonl", &jsonl])
        .expect("trace fixture runs");

    let out_path = tmp("replay.trace.json");
    let out = run(&["timeline", "--input", &jsonl, "--out", &out_path]).expect("replay runs");
    assert_eq!(out.code, 0, "{}", out.text);
    assert!(out.text.contains("replayed"), "{}", out.text);

    let text = std::fs::read_to_string(&out_path).expect("trace file written");
    let check = netsim::validate_chrome_trace(&text).expect("schema-valid replayed trace");
    assert!(check.duration_events > 0);
    assert!(
        check.counter_tracks.iter().any(|t| t == "bits/round"),
        "replay must carry the bits counter track: {:?}",
        check.counter_tracks
    );
    assert!(check.categories.iter().any(|c| c == "round"), "{:?}", check.categories);
}

#[test]
fn zero_valued_trials_and_sampling_arguments_fail_fast() {
    let err = run(&["top", "--trials", "0"]).expect_err("top --trials 0 must error");
    assert!(err.contains("--trials"), "{err}");

    let err = run(&["timeline", "--trials", "0"]).expect_err("timeline --trials 0 must error");
    assert!(err.contains("--trials"), "{err}");

    let err = run(&["report", "--topology", "grid:4x4", "--trials", "2", "--sampled", "0"])
        .expect_err("live report --sampled 0 must error");
    assert!(err.contains("--sampled"), "{err}");

    let jsonl = tmp("guard.jsonl");
    run(&["trace", "--topology", "path:4", "--t", "1", "--jsonl", &jsonl])
        .expect("trace fixture runs");
    let err = run(&["report", "--input", &jsonl, "--sampled", "0"])
        .expect_err("saved-trace report --sampled 0 must error");
    assert!(err.contains("--sampled"), "{err}");
}
