//! Replays every committed trace in `corpus/` and asserts its
//! recorded verdict, mirroring the analyzers' known-bad corpora: each
//! file is a frozen regression test for the model-checking harness.
//!
//! To regenerate the corpus after an intentional semantics change:
//!
//! ```text
//! cargo test -p remo-check --test corpus -- --ignored regenerate_corpus
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use remo_check::{seeded_specs, Event, InvariantConfig, ReplayFile, TopologySpec, Verdict};
use remo_core::NodeId;
use std::fs;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("corpus/ directory must exist")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_corpus_trace_replays_to_its_recorded_verdict() {
    let files = corpus_files();
    assert!(!files.is_empty(), "corpus/ must contain replay files");
    for path in files {
        let file = ReplayFile::from_json(&fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{}: cannot parse: {e}", path.display()));
        file.verify()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}

#[test]
fn corpus_covers_both_verdicts() {
    let verdicts: Vec<Verdict> = corpus_files()
        .iter()
        .map(|p| {
            ReplayFile::from_json(&fs::read_to_string(p).unwrap())
                .unwrap()
                .expect
                .verdict
        })
        .collect();
    assert!(verdicts.contains(&Verdict::Clean), "{verdicts:?}");
    assert!(verdicts.contains(&Verdict::Violation), "{verdicts:?}");
}

/// The canonical corpus: (file name, spec, invariants, trace).
fn canonical_corpus() -> Vec<(&'static str, TopologySpec, InvariantConfig, Vec<Event>)> {
    let specs = seeded_specs();
    vec![
        (
            "clean-single-failure-cycle.json",
            TopologySpec::small(1),
            InvariantConfig::default(),
            vec![
                Event::Fail(NodeId(0)),
                Event::Tick,
                Event::Repair(NodeId(0)),
                Event::Tick,
                Event::Recover(NodeId(0)),
                Event::Tick,
                Event::Tick,
            ],
        ),
        (
            "clean-recover-before-repair.json",
            TopologySpec::small(1),
            InvariantConfig::default(),
            vec![
                Event::Fail(NodeId(1)),
                Event::Tick,
                Event::Recover(NodeId(1)),
                Event::Tick,
            ],
        ),
        (
            "clean-double-failure-no-throttle.json",
            specs[2].clone(),
            InvariantConfig::default(),
            vec![
                Event::Fail(NodeId(0)),
                Event::Fail(NodeId(3)),
                Event::Tick,
                Event::Repair(NodeId(0)),
                Event::Repair(NodeId(3)),
                Event::Tick,
                Event::Recover(NodeId(0)),
                Event::Recover(NodeId(3)),
                Event::Tick,
            ],
        ),
        (
            "clean-rebuild-scheme.json",
            specs[3].clone(),
            InvariantConfig::default(),
            vec![
                Event::Fail(NodeId(5)),
                Event::Tick,
                Event::Repair(NodeId(5)),
                Event::Tick,
                Event::Recover(NodeId(5)),
                Event::Tick,
            ],
        ),
        (
            // An unsatisfiable volume tolerance: any recovery trips
            // RA015, giving the corpus a stable expected violation.
            "violation-recovery-convergence.json",
            TopologySpec::small(1),
            InvariantConfig {
                pair_slack: 1,
                volume_tolerance: 0.1,
            },
            vec![
                Event::Fail(NodeId(0)),
                Event::Tick,
                Event::Recover(NodeId(0)),
                Event::Tick,
            ],
        ),
    ]
}

#[test]
fn committed_corpus_matches_the_canonical_set() {
    for (name, spec, cfg, events) in canonical_corpus() {
        let path = corpus_dir().join(name);
        let committed = ReplayFile::from_json(&fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{}: cannot parse: {e}", path.display()));
        let fresh = ReplayFile::capture(spec, cfg, events);
        assert_eq!(
            committed,
            fresh,
            "{} is stale — rerun `cargo test -p remo-check --test corpus -- --ignored regenerate_corpus`",
            path.display()
        );
    }
}

#[test]
#[ignore = "rewrites corpus/ in place; run explicitly after an intentional semantics change"]
fn regenerate_corpus() {
    for (name, spec, cfg, events) in canonical_corpus() {
        let file = ReplayFile::capture(spec, cfg, events);
        let expect_violation = name.starts_with("violation-");
        assert_eq!(
            file.expect.verdict,
            if expect_violation {
                Verdict::Violation
            } else {
                Verdict::Clean
            },
            "{name}: trace no longer produces the verdict its name promises"
        );
        fs::write(corpus_dir().join(name), file.to_json().unwrap()).unwrap();
    }
}
