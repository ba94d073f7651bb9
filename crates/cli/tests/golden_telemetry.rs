//! Golden snapshots of `ftagg-cli telemetry export` on the default
//! observed AGG+VERI pair — byte for byte in both formats — plus a lint
//! that every exported metric name is a legal Prometheus identifier.
//!
//! Any drift here means the telemetry surface changed observably: a
//! metric was added, renamed, retyped, or its value moved. If the change
//! is intentional, regenerate the fixtures from the `crates/cli`
//! directory:
//!
//! ```text
//! cargo run -p ftagg-cli -- telemetry export \
//!     > tests/fixtures/golden_telemetry_prom.txt
//! cargo run -p ftagg-cli -- telemetry export --format json \
//!     > tests/fixtures/golden_telemetry_json.txt
//! ```

use ftagg_cli::{dispatch_full, Args};

const GOLDEN: &str = include_str!("fixtures/golden_telemetry_prom.txt");
#[cfg(not(feature = "alloc-telemetry"))]
const GOLDEN_JSON: &str = include_str!("fixtures/golden_telemetry_json.txt");

fn export(extra: &[&str]) -> ftagg_cli::CmdOutput {
    let argv = ["telemetry", "export"].into_iter().chain(extra.iter().copied()).map(String::from);
    let args = Args::parse(argv).expect("valid args");
    dispatch_full(&args).expect("the default observed pair runs")
}

fn export_prom() -> ftagg_cli::CmdOutput {
    export(&[])
}

// The alloc-telemetry feature adds `alloc_*` gauges to the registry, so
// the byte-for-byte pin only holds on the default build.
#[cfg(not(feature = "alloc-telemetry"))]
#[test]
fn prometheus_export_matches_the_pinned_fixture() {
    let out = export_prom();
    assert_eq!(out.code, 0, "{}", out.text);
    assert_eq!(
        out.text, GOLDEN,
        "telemetry export drifted from the golden fixture — if intentional, \
         regenerate it (see this file's header)"
    );
}

// The alloc-telemetry feature adds `alloc_*` gauges to the registry, so
// the byte-for-byte pin only holds on the default build.
#[cfg(not(feature = "alloc-telemetry"))]
#[test]
fn json_export_matches_the_pinned_fixture() {
    let out = export(&["--format", "json"]);
    assert_eq!(out.code, 0, "{}", out.text);
    assert_eq!(
        out.text, GOLDEN_JSON,
        "telemetry export --format json drifted from the golden fixture — if intentional, \
         regenerate it (see this file's header)"
    );
    // The fixture is one well-formed JSON object carrying all three
    // instrument families; pin the shape, not just the bytes.
    let line = GOLDEN_JSON.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON object: {line:?}");
    assert_eq!(line.lines().count(), 1, "the export is one scrape-friendly line");
    for family in ["\"counters\"", "\"gauges\"", "\"histograms\""] {
        assert!(line.contains(family), "fixture lost the {family} family");
    }
    for needle in ["\"engine_bits_total\"", "\"engine_inflight_peak\"", "\"engine_round_bits\""] {
        assert!(line.contains(needle), "fixture lost {needle}");
    }
}

#[test]
fn every_exported_metric_name_is_a_legal_prometheus_identifier() {
    // The exposition format interleaves `# TYPE <name> <kind>` headers
    // with `<name>[{labels}] <value>` sample lines; lint the name on
    // every one of them.
    let mut names_seen = 0usize;
    for line in GOLDEN.lines() {
        let name = if let Some(rest) = line.strip_prefix("# TYPE ") {
            rest.split_whitespace().next().unwrap_or("")
        } else {
            line.split(['{', ' ']).next().unwrap_or("")
        };
        assert!(!name.is_empty(), "unparseable exposition line: {line:?}");
        assert!(
            netsim::is_valid_metric_name(name),
            "exported metric name {name:?} is not a legal Prometheus identifier (line: {line:?})"
        );
        names_seen += 1;
    }
    assert!(names_seen >= 20, "the fixture should cover the full engine instrument set");
}

#[test]
fn golden_fixture_pins_the_engine_instrument_set() {
    // The fixture must carry the core engine meters (counter, gauge, and
    // summary kinds all present), not some accidental subset.
    for needle in [
        "# TYPE engine_bits_total counter",
        "# TYPE engine_inflight_peak gauge",
        "# TYPE engine_round_bits summary",
        "engine_round_bits{quantile=\"0.5\"}",
        "engine_round_bits_count",
    ] {
        assert!(GOLDEN.contains(needle), "fixture lost {needle:?}");
    }
}
