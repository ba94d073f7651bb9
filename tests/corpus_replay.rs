//! Regression gate for the mined-adversary corpus (`tests/corpus/`):
//! every committed entry must parse, replay to its recorded objective
//! value bit for bit under the strict watchdog, and — for the promoted
//! E6 entries — still strictly beat the random-sweep worst case for its
//! grid cell, the property that earned it a place in the corpus.

use caaf::Sum;
use ftagg::tradeoff::{run_tradeoff, TradeoffConfig};
use ftagg_bench::search::replay_entry;
use ftagg_bench::Env;
use netsim::{CorpusEntry, NodeId};
use std::path::{Path, PathBuf};

fn corpus_paths() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("corpus");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("tests/corpus must exist: {e}"))
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "corpus"))
        .collect();
    paths.sort();
    paths
}

fn load(path: &Path) -> CorpusEntry {
    let text = std::fs::read_to_string(path).expect("corpus entry readable");
    CorpusEntry::from_text(&text)
        .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()))
}

/// The random-sweep worst root CC for an E6 grid cell, recomputed exactly
/// as `thm1_upper` measures it (same env seeds, same trial configs).
fn e6_random_worst(spine: usize, f: usize, b: u64) -> u64 {
    let n = 2 * spine;
    (0..4u64)
        .map(|trial| {
            let seed = 9_000_000 + 31 * (n as u64) + 7 * (f as u64) + b + trial;
            let inst = Env::caterpillar(seed, spine, f, b, 2).instance();
            let r = run_tradeoff(&Sum, &inst, &TradeoffConfig { b, c: 2, f, seed: trial });
            assert!(r.correct);
            r.metrics.bits_of(NodeId(0))
        })
        .max()
        .unwrap()
}

#[test]
fn corpus_is_nonempty_and_parses() {
    let paths = corpus_paths();
    assert!(paths.len() >= 3, "at least the three promoted E6 entries: {paths:?}");
    for p in &paths {
        let entry = load(p);
        assert_eq!(
            p.file_stem().and_then(|s| s.to_str()),
            Some(entry.name.as_str()),
            "file name matches the entry name",
        );
        // Serialization is a fixed point, so `--mine` regeneration diffs
        // cleanly against the committed files.
        assert_eq!(CorpusEntry::from_text(&entry.to_text()).unwrap().to_text(), entry.to_text());
    }
}

#[test]
fn every_entry_replays_bit_for_bit_under_strict_watchdog() {
    for p in corpus_paths() {
        let entry = load(&p);
        let replay = replay_entry(&entry, true)
            .unwrap_or_else(|e| panic!("{} fails to replay: {e}", p.display()));
        assert_eq!(
            replay.value,
            entry.value,
            "{}: replayed objective {} != recorded {}",
            p.display(),
            replay.value,
            entry.value,
        );
        assert!(replay.monitor.is_clean(), "{}: strict watchdog flagged the replay", p.display());
        assert_eq!(replay.counterexamples, 0, "{}: replay produced wrong results", p.display());
    }
}

#[test]
fn e6_entries_still_beat_the_random_sweep() {
    let mut checked = 0;
    for p in corpus_paths() {
        let entry = load(&p);
        if entry.meta_str("suite") != Some("e6") {
            continue;
        }
        let spine = entry.meta_u64("spine").expect("e6 entry records spine") as usize;
        let f = entry.meta_u64("f_budget").expect("e6 entry records f_budget") as usize;
        let b = entry.meta_u64("b").expect("e6 entry records b");
        assert_eq!(entry.graph.len(), 2 * spine, "{}: caterpillar n = 2·spine", p.display());
        let worst = e6_random_worst(spine, f, b);
        assert!(
            entry.value > worst,
            "{}: mined root CC {} no longer beats the random-sweep worst {}",
            p.display(),
            entry.value,
            worst,
        );
        checked += 1;
    }
    assert!(checked >= 3, "at least three promoted E6 cells, found {checked}");
}
