//! `timeline` — the wall-clock profiler driver. Three modes:
//!
//! - **live** (default): run `--trials` copies of the instrumented
//!   AGG+VERI pair workload through the work-stealing runner with a
//!   [`netsim::Timeline`] installed — trial spans on per-worker lanes,
//!   round/stage/phase spans nested inside, counter tracks (bits,
//!   messages, in-flight, RSS) and sampled send→deliver flow arrows —
//!   then export Chrome Trace Event JSON to `--out` (open in Perfetto /
//!   `chrome://tracing`).
//! - **replay** (`--input TRACE.jsonl`): rebuild the same view from a
//!   saved event log on a synthetic 1 µs-per-event timebase.
//! - **validate** (`--validate PATH`): structurally check an exported
//!   `.trace.json` and enforce `--min-spans/--min-counters/--min-lanes`
//!   coverage floors; exits 1 when the file fails — the CI gate.
//!
//! `--top K` appends a self-time table (wall time inside a span but
//! outside its direct children), the flame-graph view in text form.

use crate::{count, load_trace, run_observed_pair, write_chrome_trace, Args, CmdOutput, Mode};
use netsim::{Event, RoundFlow, TraceSink, Wants};
use std::collections::BTreeMap;

const LIVE: Mode =
    Mode::new("live timeline", "topology crash c t seed trials threads flows out top cap");
const FILE: Mode = Mode::new("timeline --input", "input out top cap");
const VALIDATE: Mode =
    Mode::new("timeline --validate", "validate min-spans min-counters min-lanes");

pub(crate) const MODES: &[Mode] = &[LIVE, FILE, VALIDATE];

pub(crate) fn cmd_timeline(args: &Args) -> Result<CmdOutput, String> {
    use std::fmt::Write as _;
    if let Some(path) = args.get("validate") {
        args.check_mode(&VALIDATE)?;
        return timeline_validate(args, path);
    }
    args.check_mode(if args.get("input").is_some() { &FILE } else { &LIVE })?;
    let top_k: usize = args.num("top", 0)?;
    let cap: usize = args.num("cap", 1usize << 18)?;
    let out_path =
        args.get("out").map(str::to_string).unwrap_or_else(|| "timeline.trace.json".into());
    let tl = netsim::Timeline::with_capacity(cap);
    tl.name_lane(0, "main");

    let mut out = String::new();
    let process_name = if let Some(input) = args.get("input") {
        let (trace, _) = load_trace(input)?;
        replay_trace_into_timeline(&trace, &tl);
        let _ = writeln!(
            out,
            "timeline: replayed {} saved events from {input} (synthetic 1us-per-event timebase)",
            trace.events().len()
        );
        format!("ftagg replay {input}")
    } else {
        let trials = count(args, "trials", 1)?;
        let threads: usize = args.num("threads", 0)?;
        let run_t0 = tl.now_ns();
        let seeds: Vec<u64> = (0..trials).collect();
        let flow_seed: Option<u64> =
            if args.get("flows").is_some() { Some(args.num("seed", 0)?) } else { None };
        let trial = |_s, lane| {
            let mut sinks: Vec<Box<dyn TraceSink>> = Vec::new();
            if let Some(seed) = flow_seed {
                // `--flows yes`: sample causal send→deliver flows into the
                // timeline (rendered as arrows between rounds in the
                // Perfetto view). Opt-in because this sink turns on the
                // engine's per-delivery event path, which the span
                // profiler otherwise leaves cold.
                sinks.push(Box::new(netsim::TimelineFlowSink::new(tl.clone(), lane, 64, seed)));
            }
            sinks.push(Box::new(CounterTracks { tl: tl.clone(), rounds: 0 }));
            run_observed_pair(args, sinks, Some((&tl, lane)))
        };
        let (runs, tele) =
            netsim::Runner::new(threads).run_observed(&seeds, trial, None, Some(&tl));
        let (mut n, mut rounds): (usize, netsim::Round) = (0, 0);
        for run in runs {
            let run = run?;
            n = run.n;
            rounds = run.rounds;
        }
        tl.record_span(
            netsim::SpanKind::Run,
            "AGG+VERI pair fleet",
            0,
            run_t0,
            tl.now_ns().saturating_sub(run_t0),
            Some(trials),
        );
        let _ = writeln!(
            out,
            "timeline: {trials} AGG+VERI pair trial(s) over {n} nodes, {rounds} rounds each, \
             {} worker(s)",
            tele.workers.len()
        );
        format!("ftagg {}", args.get("topology").unwrap_or("grid:16x16"))
    };

    let data = write_chrome_trace(&tl, &process_name, &out_path)?;
    let tracks: std::collections::BTreeSet<&str> =
        data.counters.iter().map(|c| c.track.as_str()).collect();
    let lanes: std::collections::BTreeSet<u32> = data.spans.iter().map(|s| s.lane).collect();
    let _ = writeln!(
        out,
        "wrote {out_path}: {} spans on {} lane(s), {} counter samples on {} track(s), \
         {} flow endpoint(s)",
        data.spans.len(),
        lanes.len(),
        data.counters.len(),
        tracks.len(),
        data.flows.len(),
    );
    if data.dropped_spans > 0 || data.dropped_counters > 0 {
        let _ = writeln!(
            out,
            "ring overflow: {} span(s), {} counter sample(s) evicted oldest-first \
             (raise --cap, currently {cap})",
            data.dropped_spans, data.dropped_counters,
        );
    }
    if top_k > 0 {
        let rows = netsim::self_time(&data);
        out.push_str("\nself time (wall time outside direct children):\n");
        out.push_str(&ftagg_bench::chart::self_time_table(&rows, top_k).render());
    }
    Ok(CmdOutput::ok(out))
}

/// How often the `rss_mb` counter track is sampled, in rounds. The
/// per-round tracks (bits, messages, in-flight) are exact.
const RSS_SAMPLE_ROUNDS: u64 = 64;

/// Feeds the live timeline's counter tracks as each round retires.
struct CounterTracks {
    tl: netsim::Timeline,
    rounds: u64,
}

impl TraceSink for CounterTracks {
    fn record(&mut self, _: &Event) {}

    fn end_round(&mut self, flow: &RoundFlow) {
        self.tl.counter("bits/round", flow.bits as f64);
        self.tl.counter("messages/round", flow.logical as f64);
        self.tl.counter("in-flight", flow.deliveries as f64);
        if self.rounds.is_multiple_of(RSS_SAMPLE_ROUNDS) {
            if let Some(mb) = ftagg_bench::rss_mb() {
                self.tl.counter("rss_mb", mb);
            }
        }
        self.rounds += 1;
    }

    fn wants(&self) -> Wants {
        Wants::Rounds
    }
}

/// `timeline --validate PATH`: parse + structurally check a Chrome
/// trace JSON export, then enforce the coverage floors. Structural or
/// coverage failures exit 1 (the report says why); only IO errors take
/// the usage path.
fn timeline_validate(args: &Args, path: &str) -> Result<CmdOutput, String> {
    use std::fmt::Write as _;
    let min_spans: usize = args.num("min-spans", 1)?;
    let min_counters: usize = args.num("min-counters", 0)?;
    let min_lanes: usize = args.num("min-lanes", 0)?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read --validate '{path}': {e}"))?;
    let check = match netsim::validate_chrome_trace(&text) {
        Ok(c) => c,
        Err(e) => {
            return Ok(CmdOutput { text: format!("INVALID Chrome trace '{path}': {e}\n"), code: 1 })
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "valid Chrome trace: {} events ({} duration spans on {} lane(s), {} counter track(s), \
         {} completed flow(s))",
        check.events,
        check.duration_events,
        check.lanes.len(),
        check.counter_tracks.len(),
        check.flows,
    );
    let _ = writeln!(out, "categories: {}", check.categories.join(", "));
    let _ = writeln!(out, "counter tracks: {}", check.counter_tracks.join(", "));
    let mut problems = Vec::new();
    if check.duration_events < min_spans {
        problems
            .push(format!("{} duration spans < --min-spans {min_spans}", check.duration_events));
    }
    if check.counter_tracks.len() < min_counters {
        problems.push(format!(
            "{} counter tracks < --min-counters {min_counters}",
            check.counter_tracks.len()
        ));
    }
    if check.lanes.len() < min_lanes {
        problems.push(format!("{} lanes < --min-lanes {min_lanes}", check.lanes.len()));
    }
    if problems.is_empty() {
        Ok(CmdOutput::ok(out))
    } else {
        for p in &problems {
            let _ = writeln!(out, "COVERAGE FAILED: {p}");
        }
        Ok(CmdOutput { text: out, code: 1 })
    }
}

/// Rebuilds a timeline from a saved JSONL event log on a synthetic
/// timebase (each event advances the clock 1 µs): round spans with
/// per-stage children (deliveries → absorb, broadcasts → send, crashes
/// and decisions → inbox-scatter), phase spans from the harness
/// markers, exact bits/deliveries counter tracks, and sampled
/// send→deliver flow arrows. Positions are synthetic; event counts,
/// per-round volumes and causal arrows are the trace's own.
fn replay_trace_into_timeline(trace: &netsim::Trace, tl: &netsim::Timeline) {
    use netsim::timeline::{STAGES, STAGE_ABSORB, STAGE_SCATTER, STAGE_SEND};
    use netsim::{Event, SpanKind};
    const EVENT_NS: u64 = 1_000;
    const FLOW_SAMPLE: u64 = 8;
    const FLOW_CAP: usize = 4096;
    tl.name_lane(0, "trace");
    let events = trace.events();
    let mut cursor: u64 = 0;
    let run_start = cursor;
    let mut open_phases: Vec<(String, u64)> = Vec::new();
    let mut send_at: BTreeMap<u64, u64> = BTreeMap::new();
    let mut i = 0;
    while i < events.len() {
        let round = events[i].round();
        let round_start = cursor;
        let mut stage_ns = [0u64; 5];
        let (mut bits, mut delivers) = (0u64, 0u64);
        let mut j = i;
        while j < events.len() && events[j].round() == round {
            match &events[j] {
                Event::Deliver { src, .. } => {
                    stage_ns[STAGE_ABSORB] += EVENT_NS;
                    delivers += 1;
                    if let Some(s_ns) = send_at.remove(&src.0) {
                        tl.flow_at(src.0, 0, s_ns, true);
                        tl.flow_at(src.0, 0, cursor, false);
                    }
                }
                Event::Send { bits: b, id, .. } => {
                    stage_ns[STAGE_SEND] += EVENT_NS;
                    bits += b;
                    if id.0 != 0 && id.0 % FLOW_SAMPLE == 0 && send_at.len() < FLOW_CAP {
                        send_at.insert(id.0, cursor);
                    }
                }
                Event::Crash { .. } | Event::Decide { .. } => {
                    stage_ns[STAGE_SCATTER] += EVENT_NS;
                }
                Event::PhaseEnter { label, .. } => open_phases.push((label.clone(), cursor)),
                Event::PhaseExit { .. } => {
                    if let Some((label, p0)) = open_phases.pop() {
                        tl.record_span(
                            SpanKind::Phase,
                            &label,
                            0,
                            p0,
                            cursor.saturating_sub(p0).max(EVENT_NS),
                            None,
                        );
                    }
                }
            }
            cursor += EVENT_NS;
            j += 1;
        }
        tl.record_span(SpanKind::Round, "round", 0, round_start, cursor - round_start, Some(round));
        let mut pos = round_start;
        for (st, &ns) in stage_ns.iter().enumerate() {
            if ns > 0 {
                tl.record_span(SpanKind::Stage, STAGES[st], 0, pos, ns, None);
                pos += ns;
            }
        }
        tl.counter_at("bits/round", cursor, bits as f64);
        tl.counter_at("deliveries/round", cursor, delivers as f64);
        i = j;
    }
    for (label, p0) in open_phases.into_iter().rev() {
        tl.record_span(SpanKind::Phase, &label, 0, p0, cursor.saturating_sub(p0), None);
    }
    tl.record_span(SpanKind::Run, "trace replay", 0, run_start, cursor, None);
}
