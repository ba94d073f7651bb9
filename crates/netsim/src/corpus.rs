//! Versioned on-disk format for mined adversarial scenarios.
//!
//! The adversary-mining search (in `ftagg-bench`) promotes its worst
//! finds into a regression corpus under `tests/corpus/`: each file is one
//! complete scenario — topology, root, inputs, failure schedule — plus
//! free-form `meta` keys recording how it was mined and a `value` line
//! pinning the objective the miner measured. Replay tests parse the file,
//! re-run the recorded protocol, and require the measured objective to
//! reproduce `value` bit for bit.
//!
//! The format is line-oriented plain text (like the CLI's scenario
//! files), headed by an explicit version so future extensions can evolve
//! without silently reinterpreting committed regressions:
//!
//! ```text
//! ftagg-corpus v1
//! name e6-n60-f8-b42-root-cc
//! meta protocol tradeoff
//! meta objective root-cc
//! nodes 4
//! edges 0-1,1-2,2-3
//! root 0
//! inputs 3,1,4,1
//! max_input 4
//! crash 2@10
//! crash 3@7>1
//! value 123
//! ```
//!
//! A `crash N@R` line is a clean crash; `crash N@R>a,b` restricts the
//! node's final broadcast to the listed neighbors (`>` alone delivers it
//! to nobody). Lines may appear in any order after the header; `#` lines
//! and blank lines are ignored.

use crate::adversary::FailureSchedule;
use crate::graph::{Graph, NodeId};
use std::collections::BTreeMap;

/// The corpus format version this build writes and reads.
pub const CORPUS_VERSION: u32 = 1;

/// One mined scenario with its recorded objective value.
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusEntry {
    /// Identifier (also the conventional file stem).
    pub name: String,
    /// Free-form provenance: protocol, objective, budgets, how it was
    /// mined. Replay harnesses interpret the keys they know.
    pub meta: BTreeMap<String, String>,
    /// The topology.
    pub graph: Graph,
    /// The root node.
    pub root: NodeId,
    /// Per-node inputs (`inputs.len() == graph.len()`).
    pub inputs: Vec<u64>,
    /// Input-domain bound.
    pub max_input: u64,
    /// The mined failure schedule.
    pub schedule: FailureSchedule,
    /// The recorded objective value (summed over the miner's coin seeds);
    /// replay must reproduce it exactly.
    pub value: u64,
}

impl CorpusEntry {
    /// A meta value, if present.
    pub fn meta_str(&self, key: &str) -> Option<&str> {
        self.meta.get(key).map(String::as_str)
    }

    /// A meta value parsed as `u64`, if present and numeric.
    pub fn meta_u64(&self, key: &str) -> Option<u64> {
        self.meta_str(key).and_then(|v| v.parse().ok())
    }

    /// Serializes to the versioned text format (stable field order, so
    /// equal entries produce byte-identical files).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "ftagg-corpus v{CORPUS_VERSION}");
        let _ = writeln!(out, "name {}", self.name);
        for (k, v) in &self.meta {
            let _ = writeln!(out, "meta {k} {v}");
        }
        let _ = writeln!(out, "nodes {}", self.graph.len());
        let edges: Vec<String> =
            self.graph.edges().iter().map(|e| format!("{}-{}", e.lo().0, e.hi().0)).collect();
        let _ = writeln!(out, "edges {}", edges.join(","));
        let _ = writeln!(out, "root {}", self.root.0);
        let vals: Vec<String> = self.inputs.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "inputs {}", vals.join(","));
        let _ = writeln!(out, "max_input {}", self.max_input);
        for (v, e) in self.schedule.iter() {
            match &e.partial {
                None => {
                    let _ = writeln!(out, "crash {}@{}", v.0, e.round);
                }
                Some(rx) => {
                    let list: Vec<String> = rx.iter().map(|r| r.0.to_string()).collect();
                    let _ = writeln!(out, "crash {}@{}>{}", v.0, e.round, list.join(","));
                }
            }
        }
        let _ = writeln!(out, "value {}", self.value);
        out
    }

    /// Parses the versioned text format.
    ///
    /// # Errors
    ///
    /// Returns a one-line message on a missing or unsupported version
    /// header, an unknown key, a malformed line, a structural mismatch
    /// (inputs vs nodes), or a schedule that violates the model (root
    /// crash, out-of-range node, non-neighbor partial receiver).
    pub fn from_text(text: &str) -> Result<CorpusEntry, String> {
        let mut lines = text.lines().enumerate();
        let header = loop {
            match lines.next() {
                None => return Err("empty corpus file".into()),
                Some((_, l)) if l.trim().is_empty() || l.trim_start().starts_with('#') => continue,
                Some((_, l)) => break l.trim(),
            }
        };
        match header.strip_prefix("ftagg-corpus v") {
            Some(v) if v.parse() == Ok(CORPUS_VERSION) => {}
            Some(v) => {
                return Err(format!(
                    "corpus version v{v} unsupported (this build reads v{CORPUS_VERSION})"
                ))
            }
            None => return Err("missing 'ftagg-corpus v1' header".into()),
        }

        let mut name: Option<String> = None;
        let mut meta = BTreeMap::new();
        let mut n: Option<usize> = None;
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut root = NodeId(0);
        let mut inputs: Vec<u64> = Vec::new();
        let mut max_input: Option<u64> = None;
        let mut crashes: Vec<(NodeId, crate::Round, Option<Vec<NodeId>>)> = Vec::new();
        let mut value: Option<u64> = None;

        for (lineno, line) in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at = |msg: &str| format!("line {}: {msg}", lineno + 1);
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "name" => name = Some(rest.to_string()),
                "meta" => {
                    let (k, v) = rest.split_once(' ').unwrap_or((rest, ""));
                    if k.is_empty() {
                        return Err(at("meta line needs a key"));
                    }
                    meta.insert(k.to_string(), v.to_string());
                }
                "nodes" => {
                    n = Some(rest.parse().map_err(|_| at("bad node count"))?);
                }
                "edges" => {
                    for pair in rest.split(',').filter(|s| !s.is_empty()) {
                        let (a, b) = pair
                            .split_once('-')
                            .ok_or_else(|| at(&format!("edge '{pair}' must be A-B")))?;
                        edges.push((
                            a.parse().map_err(|_| at(&format!("bad edge endpoint '{a}'")))?,
                            b.parse().map_err(|_| at(&format!("bad edge endpoint '{b}'")))?,
                        ));
                    }
                }
                "root" => root = NodeId(rest.parse().map_err(|_| at("bad root id"))?),
                "inputs" => {
                    for v in rest.split(',').filter(|s| !s.is_empty()) {
                        inputs.push(v.parse().map_err(|_| at(&format!("bad input '{v}'")))?);
                    }
                }
                "max_input" => {
                    max_input = Some(rest.parse().map_err(|_| at("bad max_input"))?);
                }
                "crash" => {
                    let (spec, partial) = match rest.split_once('>') {
                        None => (rest, None),
                        Some((s, rx)) => {
                            let mut list = Vec::new();
                            for r in rx.split(',').filter(|s| !s.is_empty()) {
                                list.push(NodeId(
                                    r.parse()
                                        .map_err(|_| at(&format!("bad partial receiver '{r}'")))?,
                                ));
                            }
                            (s, Some(list))
                        }
                    };
                    let (node, round) =
                        spec.split_once('@').ok_or_else(|| at("crash must be NODE@ROUND"))?;
                    let node =
                        NodeId(node.parse().map_err(|_| at(&format!("bad crash node '{node}'")))?);
                    let round =
                        round.parse().map_err(|_| at(&format!("bad crash round '{round}'")))?;
                    if round == 0 {
                        return Err(at("crash rounds are 1-based"));
                    }
                    crashes.push((node, round, partial));
                }
                "value" => {
                    value = Some(rest.parse().map_err(|_| at("bad value"))?);
                }
                other => return Err(at(&format!("unknown key '{other}'"))),
            }
        }

        let name = name.ok_or("missing 'name' line")?;
        let n = n.ok_or("missing 'nodes' line")?;
        let value = value.ok_or("missing 'value' line")?;
        let max_input = max_input.ok_or("missing 'max_input' line")?;
        // Checked before the graph is built, so a corrupt node count is
        // bounded by the file's own length instead of sizing the CSR arrays.
        if inputs.len() != n {
            return Err(format!("expected {n} inputs, got {}", inputs.len()));
        }
        let graph = Graph::new(n, &edges).map_err(|e| e.to_string())?;
        let mut schedule = FailureSchedule::none();
        for (node, round, partial) in crashes {
            match partial {
                None => schedule.crash(node, round),
                Some(rx) => schedule.crash_partial(node, round, rx),
            };
        }
        schedule.validate(&graph, root)?;
        Ok(CorpusEntry { name, meta, graph, root, inputs, max_input, schedule, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    fn sample() -> CorpusEntry {
        let mut schedule = FailureSchedule::none();
        schedule.crash(NodeId(2), 10);
        schedule.crash_partial(NodeId(3), 7, vec![NodeId(2)]);
        let mut meta = BTreeMap::new();
        meta.insert("protocol".into(), "tradeoff".into());
        meta.insert("objective".into(), "root-cc".into());
        CorpusEntry {
            name: "sample".into(),
            meta,
            graph: topology::path(4),
            root: NodeId(0),
            inputs: vec![3, 1, 4, 1],
            max_input: 4,
            schedule,
            value: 123,
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let e = sample();
        let text = e.to_text();
        let parsed = CorpusEntry::from_text(&text).unwrap();
        assert_eq!(parsed, e);
        assert_eq!(parsed.to_text(), text);
        assert!(text.starts_with("ftagg-corpus v1\n"), "{text}");
        assert!(text.contains("crash 3@7>2\n"), "{text}");
    }

    #[test]
    fn tolerates_comments_blank_lines_and_reordering() {
        let text = "\n# mined by hand\nftagg-corpus v1\nvalue 9\nname x\nnodes 3\n\
                    edges 0-1,1-2\nroot 0\n# a comment\ninputs 1,2,3\nmax_input 3\n";
        let e = CorpusEntry::from_text(text).unwrap();
        assert_eq!(e.name, "x");
        assert_eq!(e.value, 9);
        assert_eq!(e.graph.len(), 3);
        assert!(e.meta.is_empty());
    }

    #[test]
    fn meta_accessors() {
        let mut e = sample();
        e.meta.insert("b".into(), "42".into());
        assert_eq!(e.meta_u64("b"), Some(42));
        assert_eq!(e.meta_str("protocol"), Some("tradeoff"));
        assert_eq!(e.meta_u64("protocol"), None);
        assert_eq!(e.meta_str("absent"), None);
    }

    #[test]
    fn rejects_bad_inputs() {
        let ok = sample().to_text();
        // Unsupported version.
        let bumped = ok.replace("ftagg-corpus v1", "ftagg-corpus v9");
        assert!(CorpusEntry::from_text(&bumped).unwrap_err().contains("v9 unsupported"));
        // Missing header.
        assert!(CorpusEntry::from_text("name x\n").unwrap_err().contains("header"));
        // Empty.
        assert!(CorpusEntry::from_text("").unwrap_err().contains("empty"));
        // Unknown key.
        let unknown = format!("{ok}wat 3\n");
        assert!(CorpusEntry::from_text(&unknown).unwrap_err().contains("unknown key"));
        // Input-count mismatch.
        let short = ok.replace("inputs 3,1,4,1", "inputs 3,1");
        assert!(CorpusEntry::from_text(&short).unwrap_err().contains("inputs"));
        // Root crash violates the model.
        let rooted = ok.replace("crash 2@10", "crash 0@10");
        assert!(CorpusEntry::from_text(&rooted).unwrap_err().contains("root"));
        // Partial receiver must be a neighbor.
        let bad_rx = ok.replace("crash 3@7>2", "crash 3@7>0");
        assert!(CorpusEntry::from_text(&bad_rx).unwrap_err().contains("neighbor"));
        // Missing required lines.
        for line in ["name sample", "value 123", "max_input 4", "nodes 4"] {
            let gutted: String =
                ok.lines().filter(|l| *l != line).map(|l| format!("{l}\n")).collect();
            assert!(CorpusEntry::from_text(&gutted).is_err(), "dropping '{line}' must fail");
        }
    }
}
