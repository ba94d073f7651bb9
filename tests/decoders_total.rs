//! Decoder totality: every reader of saved or received bytes returns `Ok`
//! or a one-line `Err` on any input, and never panics.
//!
//! The decoders are `Trace::from_jsonl`, `Snapshot::from_json`,
//! `validate_chrome_trace`, `CorpusEntry::from_text` and `AggMsg::decode`.
//! Each is fed arbitrary bytes, every truncation and every single-bit
//! flip of a real encoding. The writers and readers must also round-trip:
//! `decode(encode(x)) == x` for JSONL traces, benchmark snapshots and
//! corpus entries. Three hostile inputs that once crashed or slipped past
//! these readers are pinned as fixed cases.

use ftagg::msg::{AggMsg, WireCtx};
use ftagg_bench::snapshot::Snapshot;
use netsim::json::{quote, Json, MAX_DEPTH};
use netsim::{
    chrome_trace_json, topology, validate_chrome_trace, CorpusEntry, Event, EventId,
    FailureSchedule, JsonlSink, NodeId, Round, SpanKind, Timeline, Trace, TraceSink,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use wire::{BitReader, BitWriter};

// ---------------------------------------------------------------------
// The decoders and the totality check
// ---------------------------------------------------------------------

/// Runs one decoder on `input`: it must return, and an error must be one
/// line. A panic is reported with the input that caused it.
fn total<T>(decoder: &str, input: &[u8], decode: impl FnOnce() -> Result<T, String>) {
    match catch_unwind(AssertUnwindSafe(decode)) {
        Err(_) => panic!("{decoder} panicked on {:?}", String::from_utf8_lossy(input)),
        Ok(Err(e)) => assert!(!e.contains('\n'), "{decoder}: multi-line error {e:?}"),
        Ok(Ok(_)) => {}
    }
}

fn jsonl(bytes: &[u8]) {
    total("Trace::from_jsonl", bytes, || Trace::from_jsonl(bytes));
}

fn snapshot(bytes: &[u8]) {
    total("Snapshot::from_json", bytes, || Snapshot::from_json(&String::from_utf8_lossy(bytes)));
}

fn chrome(bytes: &[u8]) {
    total("validate_chrome_trace", bytes, || {
        validate_chrome_trace(&String::from_utf8_lossy(bytes))
    });
}

fn corpus(bytes: &[u8]) {
    total("CorpusEntry::from_text", bytes, || {
        CorpusEntry::from_text(&String::from_utf8_lossy(bytes))
    });
}

const WIRE: WireCtx = WireCtx { n: 64, value_bits: 16 };

/// Decodes messages from the bits of `bytes` until they run out.
fn wire_msgs(bytes: &[u8]) {
    let mut w = BitWriter::new();
    for &b in bytes {
        w.put(u64::from(b), 8);
    }
    let buf = w.finish();
    total("AggMsg::decode", bytes, || {
        let mut r = BitReader::new(&buf);
        while !r.is_exhausted() {
            AggMsg::decode(&WIRE, &mut r, |level| (level as usize).min(4))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    });
}

/// Every truncation and every single-bit flip of `encoded`, fed to
/// `decode`.
fn mutations(encoded: &[u8], decode: impl Fn(&[u8])) {
    for len in 0..encoded.len() {
        decode(&encoded[..len]);
    }
    let mut flipped = encoded.to_vec();
    for i in 0..encoded.len() {
        for bit in 0..8 {
            flipped[i] ^= 1 << bit;
            decode(&flipped);
            flipped[i] ^= 1 << bit;
        }
    }
}

// ---------------------------------------------------------------------
// Real encodings
// ---------------------------------------------------------------------

/// One event of every variant with every optional field populated, plus
/// v1-shaped siblings with them empty.
fn every_variant() -> Vec<Event> {
    vec![
        Event::PhaseEnter { round: 1, label: "AGG \"q\"\\x\ty".into() },
        Event::Send {
            round: 1,
            node: NodeId(0),
            bits: 7,
            logical: 1,
            id: EventId(1),
            kind: "tree-construct".into(),
            causes: vec![],
        },
        Event::send(1, NodeId(2), 3, 1),
        Event::Deliver {
            round: 2,
            node: NodeId(1),
            from: NodeId(0),
            bits: 7,
            id: EventId(2),
            src: EventId(1),
        },
        Event::deliver(2, NodeId(0), NodeId(2), 3),
        Event::Crash { round: 2, node: NodeId(2) },
        Event::Send {
            round: 2,
            node: NodeId(1),
            bits: 11,
            logical: 2,
            id: EventId(3),
            kind: "veri".into(),
            causes: vec![EventId(2), EventId(1)],
        },
        Event::PhaseExit { round: 2, label: "AGG \"q\"\\x\ty".into() },
        Event::Decide { round: 3, node: NodeId(0), value: u64::MAX },
    ]
}

fn to_jsonl(events: &[Event]) -> Vec<u8> {
    let mut sink = JsonlSink::new(Vec::new());
    for e in events {
        sink.record(e);
    }
    sink.finish().expect("writing to a Vec cannot fail")
}

fn tiny_snapshot() -> Snapshot {
    let mut s = Snapshot::default();
    s.info.insert("info.host".into(), "box \"7\"".into());
    s.info.insert("info.workload".into(), "quick".into());
    s.exact.insert("exact.sweep.sum_cc".into(), 1234);
    s.exact.insert("exact.e6.deliveries".into(), (1 << 53) + 1);
    s.perf.insert("perf.telemetry.recorded_ratio".into(), 0.93);
    s.perf.insert("perf.telemetry.recorded_ratio_iqr".into(), 0.04);
    s
}

fn small_chrome_trace() -> String {
    let tl = Timeline::new();
    tl.name_lane(1, "worker 0");
    tl.record_span(SpanKind::Run, "run", 0, 0, 5_000, None);
    tl.record_span(SpanKind::Round, "round", 1, 1_500, 250, Some(3));
    tl.counter_at("bits/round", 1_700, 64.0);
    tl.flow_at(9, 1, 1_600, true);
    tl.flow_at(9, 0, 2_100, false);
    chrome_trace_json(&tl.snapshot(), "ftagg")
}

fn sample_entry() -> CorpusEntry {
    let mut schedule = FailureSchedule::none();
    schedule.crash(NodeId(2), 10).crash_partial(NodeId(3), 7, vec![NodeId(1)]);
    CorpusEntry {
        name: "decoders-total".into(),
        meta: [("protocol".to_string(), "tradeoff".to_string())].into(),
        graph: topology::path(4),
        root: NodeId(0),
        inputs: vec![3, 1, 4, 1],
        max_input: 4,
        schedule,
        value: 123,
    }
}

fn wire_encoding() -> Vec<u8> {
    let mut w = BitWriter::new();
    for msg in [
        AggMsg::TreeConstruct { level: 3, ancestors: vec![NodeId(9), NodeId(4), NodeId(0)] },
        AggMsg::Aggregation { psum: 4000, max_level: 17 },
        AggMsg::FloodedPsum { source: NodeId(33), psum: 1 },
        AggMsg::LfcVerdict { tail: true, node: NodeId(2) },
        AggMsg::VeriOverflow,
    ] {
        msg.encode(&WIRE, &mut w);
    }
    w.finish().as_bytes().to_vec()
}

// ---------------------------------------------------------------------
// Totality
// ---------------------------------------------------------------------

#[test]
fn every_truncation_and_bit_flip_of_a_real_encoding_is_total() {
    let events = every_variant();
    mutations(&to_jsonl(&events), jsonl);
    mutations(tiny_snapshot().to_json().as_bytes(), snapshot);
    mutations(small_chrome_trace().as_bytes(), chrome);
    mutations(sample_entry().to_text().as_bytes(), corpus);
    mutations(&wire_encoding(), wire_msgs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_are_total_for_every_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        for decode in [jsonl, snapshot, chrome, corpus, wire_msgs] {
            decode(&bytes);
        }
    }

    #[test]
    fn arbitrary_text_after_each_header_is_total(
        body in proptest::collection::vec(0usize..TOKENS.len(), 0..24),
    ) {
        // Random bytes rarely get past a header or the first `{`; stitch
        // JSON-ish and corpus-ish tokens instead so the field readers run.
        let body: String = body.into_iter().map(|i| TOKENS[i]).collect();
        jsonl(format!("{{\"schema\":\"ftagg-trace\",\"v\":2}}\n{body}").as_bytes());
        snapshot(format!("{{\"schema\": \"ftagg-bench\", \"v\": 1, {body}").as_bytes());
        chrome(format!("{{\"traceEvents\":[{body}").as_bytes());
        corpus(format!("ftagg-corpus v1\n{body}").as_bytes());
    }
}

const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\n",
    " ",
    "0",
    "-1",
    "1e400",
    "18446744073709551616",
    "4000000000",
    "\"ev\"",
    "\"send\"",
    "\"deliver\"",
    "\"phase_enter\"",
    "\"r\"",
    "\"n\"",
    "\"bits\"",
    "\"logical\"",
    "\"id\"",
    "\"causes\"",
    "\"kind\"",
    "\"label\"",
    "\"src\"",
    "\"\\ud800\"",
    "\"\\u0000\"",
    "null",
    "true",
    "\"ph\"",
    "\"X\"",
    "\"C\"",
    "\"s\"",
    "\"f\"",
    "\"M\"",
    "\"ts\"",
    "\"dur\"",
    "\"tid\"",
    "\"pid\"",
    "\"args\"",
    "\"exact.x\"",
    "\"perf.y\"",
    "\"info.z\"",
    "nodes 99999999999",
    "edges 0-1,1-0",
    "inputs 1,2",
    "crash 1@0",
    "crash 0@3",
    "crash 5@2>9",
    "root 7",
    "value x",
    "name a",
    "max_input 3",
];

// ---------------------------------------------------------------------
// The shared JSON reader behind the trace, snapshot and Chrome readers
// ---------------------------------------------------------------------

#[test]
fn parses_every_value_kind() {
    let v =
        Json::parse(r#" {"a": [1, -2.5e3, true, false, null], "b": "x\"y\\z\u00e9\n"} "#).unwrap();
    let a = v.get("a").and_then(Json::as_array).unwrap();
    assert_eq!(a[0].as_u64(), Some(1));
    assert_eq!(a[1].as_f64(), Some(-2500.0));
    assert_eq!(a[1].as_u64(), None);
    assert_eq!(&a[2..], [Json::Bool(true), Json::Bool(false), Json::Null]);
    assert_eq!(v.get("b").and_then(Json::as_str), Some("x\"y\\z\u{e9}\n"));
    assert_eq!(v.get("c"), None);
}

#[test]
fn integers_above_2_pow_53_round_trip_exactly() {
    for n in [(1u64 << 53) + 1, u64::MAX - 1, u64::MAX] {
        assert_eq!(Json::parse(&n.to_string()).unwrap().as_u64(), Some(n));
    }
    assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None, "u64::MAX + 1");
    assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
}

#[test]
fn quote_round_trips_through_the_reader() {
    let s = "tab\there \"q\" back\\slash nl\n cr\r bell\u{7} nul\u{0} é ☃ 😀";
    let q = quote(s);
    assert_eq!(
        q,
        "\"tab\\there \\\"q\\\" back\\\\slash nl\\n cr\\r bell\\u0007 nul\\u0000 é ☃ 😀\""
    );
    assert_eq!(Json::parse(&q).unwrap().as_str(), Some(s));
}

#[test]
fn surrogate_pairs_decode_and_lone_halves_are_refused() {
    assert_eq!(Json::parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
    assert!(Json::parse(r#""\ud83d""#).unwrap_err().contains("surrogate"));
    assert!(Json::parse(r#""\ude00""#).unwrap_err().contains("surrogate"));
    assert!(Json::parse(r#""\ud83d\u0041""#).unwrap_err().contains("surrogate"));
}

#[test]
fn nesting_is_capped_at_max_depth() {
    let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(Json::parse(&ok).is_ok());
    let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
    assert!(Json::parse(&deep).unwrap_err().contains("nesting deeper than 64"));
}

#[test]
fn repeated_keys_are_refused() {
    let err = Json::parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap_err();
    assert_eq!(err, "duplicate key \"a\" at byte 17");
    assert!(Json::parse(r#"{"a": {"a": 1}}"#).is_ok(), "nested objects have their own keys");
}

#[test]
fn malformed_input_gives_one_line_errors() {
    for bad in [
        "",
        " ",
        "{",
        "[1,]",
        "{\"a\" 1}",
        "{\"a\":1,}",
        "01",
        "1.",
        "1e",
        "-",
        "+1",
        ".5",
        "NaN",
        "tru",
        "\"abc",
        "\"a\nb\"",
        "\"\\x\"",
        "\"\\u12g4\"",
        "1 2",
        "{1: 2}",
        "[\"\n\"]",
    ] {
        let err = Json::parse(bad).expect_err(bad);
        assert!(!err.contains('\n'), "{bad:?}: {err:?}");
        assert!(err.contains("byte") || err.contains("end of input"), "{bad:?}: {err}");
    }
    assert_eq!(Json::parse("[1,]").unwrap_err(), "expected a JSON value at byte 3 (found ']')");
    assert_eq!(
        Json::parse(r#"{"a": {"b": [1, x]}}"#).unwrap_err(),
        "expected a JSON value at byte 16 (found 'x') in \"b\" in \"a\""
    );
}

// ---------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------

/// A string drawn from characters every escaper must handle.
fn awkward_string(rng: &mut StdRng) -> String {
    const CHARS: &[char] =
        &['a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '☃', '😀'];
    (0..rng.gen_range(0..8)).map(|_| CHARS[rng.gen_range(0..CHARS.len())]).collect()
}

/// A round-ordered event stream with full-range values and awkward
/// labels.
fn random_events(seed: u64) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut round: Round = 0;
    let id = |rng: &mut StdRng| EventId(rng.next_u64());
    (0..rng.gen_range(0..24))
        .map(|_| {
            round += rng.gen_range(0..3u64);
            match rng.gen_range(0..6) {
                0 => Event::Send {
                    round,
                    node: NodeId(rng.next_u64() as u32),
                    bits: rng.next_u64(),
                    logical: rng.next_u64(),
                    id: id(&mut rng),
                    kind: awkward_string(&mut rng),
                    causes: (0..rng.gen_range(0..4)).map(|_| id(&mut rng)).collect(),
                },
                1 => Event::Deliver {
                    round,
                    node: NodeId(rng.next_u64() as u32),
                    from: NodeId(rng.next_u64() as u32),
                    bits: rng.next_u64(),
                    id: id(&mut rng),
                    src: id(&mut rng),
                },
                2 => Event::Crash { round, node: NodeId(rng.next_u64() as u32) },
                3 => Event::PhaseEnter { round, label: awkward_string(&mut rng) },
                4 => Event::PhaseExit { round, label: awkward_string(&mut rng) },
                _ => Event::Decide {
                    round,
                    node: NodeId(rng.next_u64() as u32),
                    value: rng.next_u64(),
                },
            }
        })
        .collect()
}

fn random_snapshot(seed: u64) -> Snapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = Snapshot::default();
    for i in 0..rng.gen_range(0..4) {
        s.info.insert(format!("info.k{i}"), awkward_string(&mut rng));
    }
    for i in 0..rng.gen_range(0..4) {
        s.exact.insert(format!("exact.k{i}"), rng.next_u64());
    }
    for i in 0..rng.gen_range(0..4) {
        let v = loop {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                break v;
            }
        };
        s.perf.insert(format!("perf.k{i}"), v);
    }
    s
}

fn random_entry(seed: u64) -> CorpusEntry {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..12);
    let graph = topology::random_tree(n, &mut rng);
    let mut schedule = FailureSchedule::none();
    for v in 1..n as u32 {
        if rng.gen_bool(0.3) {
            let round = rng.gen_range(1..1_000);
            if rng.gen_bool(0.5) {
                let rx = graph
                    .neighbors(NodeId(v))
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_bool(0.5))
                    .collect();
                schedule.crash_partial(NodeId(v), round, rx);
            } else {
                schedule.crash(NodeId(v), round);
            }
        }
    }
    CorpusEntry {
        name: format!("entry-{seed}"),
        meta: (0..rng.gen_range(0..3))
            .map(|i| (format!("key{i}"), format!("v{}", rng.next_u64() as u32)))
            .collect(),
        inputs: (0..n).map(|_| rng.next_u64()).collect(),
        max_input: rng.next_u64(),
        value: rng.next_u64(),
        root: NodeId(0),
        graph,
        schedule,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn traces_round_trip_through_jsonl(seed in any::<u64>()) {
        let events = random_events(seed);
        let text = to_jsonl(&events);
        let back = Trace::from_jsonl(text.as_slice()).expect("JSONL reads back");
        prop_assert_eq!(back.events(), events.as_slice());
        // A bit flip anywhere in a real stream is still total.
        let i = (seed % text.len().max(1) as u64) as usize;
        if let Some(b) = text.get(i) {
            let mut flipped = text.clone();
            flipped[i] = b ^ (1 << (seed % 8));
            jsonl(&flipped);
        }
    }

    #[test]
    fn snapshots_round_trip(seed in any::<u64>()) {
        let s = random_snapshot(seed);
        prop_assert_eq!(Snapshot::from_json(&s.to_json()).expect("snapshot reads back"), s);
    }

    #[test]
    fn corpus_entries_round_trip(seed in any::<u64>()) {
        let e = random_entry(seed);
        prop_assert_eq!(CorpusEntry::from_text(&e.to_text()).expect("entry reads back"), e);
    }
}

// ---------------------------------------------------------------------
// Pinned hostile inputs
// ---------------------------------------------------------------------

#[test]
fn a_chrome_trace_nested_300_000_deep_is_refused_in_one_line() {
    // Used to overflow the validator's stack (SIGABRT).
    let deep = "[".repeat(300_000);
    let err = validate_chrome_trace(&deep).unwrap_err();
    assert!(err.starts_with("nesting deeper than 64 levels"), "{err}");
    chrome(deep.as_bytes());
    snapshot(deep.as_bytes());
    jsonl(deep.as_bytes());
}

#[test]
fn a_trace_naming_node_4_billion_reads_exactly() {
    // The decoder allocates nothing per node; `ftagg-cli report`,
    // `explain` and `timeline` refuse this file at their replay limit
    // (`crates/cli/tests/cli_errors.rs`) before any pass sizes a ledger by
    // it.
    let text = "{\"schema\":\"ftagg-trace\",\"v\":2}\n\
                {\"ev\":\"send\",\"r\":1,\"n\":4000000000,\"bits\":8,\"logical\":1,\"id\":1}\n\
                {\"ev\":\"decide\",\"r\":2,\"n\":0,\"value\":1}\n";
    let trace = Trace::from_jsonl(text.as_bytes()).unwrap();
    assert_eq!(trace.events()[0].node(), Some(NodeId(4_000_000_000)));
}

#[test]
fn a_trace_whose_rounds_go_back_is_refused_with_the_line() {
    // Used to trip the debug assertion in `Trace::push`, and release
    // builds accepted it.
    let text = "{\"schema\":\"ftagg-trace\",\"v\":2}\n\
                {\"ev\":\"crash\",\"r\":5,\"n\":1}\n\
                {\"ev\":\"crash\",\"r\":2,\"n\":2}\n";
    let err = Trace::from_jsonl(text.as_bytes()).unwrap_err();
    assert!(err.starts_with("line 3: round 2 after round 5"), "{err}");
}

#[test]
fn a_corpus_entry_claiming_2_pow_40_nodes_is_refused_before_allocating() {
    // The node count is checked against the inputs before the graph's
    // per-node arrays are sized from it.
    let text = sample_entry().to_text().replace("nodes 4", "nodes 1099511627776");
    let err = CorpusEntry::from_text(&text).unwrap_err();
    assert_eq!(err, "expected 1099511627776 inputs, got 4");
}

#[test]
fn strings_decoded_from_the_input_stay_on_one_line_in_errors() {
    // A `\n` escape decodes to a real newline; every error that names a
    // decoded string must quote it.
    let nl = "a\\nb";
    let header = "{\"schema\":\"ftagg-trace\",\"v\":2}\n";
    jsonl(format!("{{\"schema\":\"{nl}\",\"v\":2}}\n").as_bytes());
    jsonl(format!("{header}{{\"ev\":\"{nl}\",\"r\":1}}\n").as_bytes());
    jsonl(
        format!("{header}{{\"ev\":\"crash\",\"r\":1,\"n\":0,\"{nl}\":1,\"{nl}\":2}}\n").as_bytes(),
    );
    jsonl(format!("{header}{{\"ev\":\"crash\",\"r\":1,\"n\":[1,{nl}]}}\n").as_bytes());
    snapshot(format!("{{\"schema\":\"{nl}\",\"v\":1}}").as_bytes());
    snapshot(format!("{{\"schema\":\"ftagg-bench\",\"v\":1,\"{nl}\":1}}").as_bytes());
    snapshot(format!("{{\"schema\":\"ftagg-bench\",\"v\":1,\"exact.{nl}\":\"x\"}}").as_bytes());
    chrome(format!("{{\"traceEvents\":[{{\"ph\":\"{nl}\"}}]}}").as_bytes());
    chrome(format!("{{\"traceEvents\":[{{\"ph\":\"M\",\"name\":\"{nl}\"}}]}}").as_bytes());
    chrome(format!("{{\"traceEvents\":[{{\"{nl}\":[}}]}}").as_bytes());
}
