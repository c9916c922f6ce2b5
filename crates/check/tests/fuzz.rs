//! Fuzz-shaped property tests: random event sequences longer than the
//! exhaustive depth bound, run through the same invariant harness. A
//! failing case is delta-debugged and written in the replay format so
//! it can be committed to `corpus/` and re-run with `remo-check mc replay`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use remo_check::{
    minimize, replay_events, seeded_specs, Event, Harness, InvariantConfig, ReplayFile,
    TopologySpec,
};
use remo_core::validate::Severity;
use remo_core::NodeId;

/// Decodes a raw `(kind, node)` pair into a protocol event.
fn decode(kind: u8, node: u8, nodes: u32) -> Event {
    let node = NodeId(u32::from(node) % nodes);
    match kind % 4 {
        0 => Event::Tick,
        1 => Event::Fail(node),
        2 => Event::Recover(node),
        _ => Event::Repair(node),
    }
}

/// Walks a raw sequence, applying each event that is enabled in the
/// current state, and returns the applied trace plus whether an
/// error-severity invariant fired.
fn drive(spec: &TopologySpec, cfg: &InvariantConfig, raw: &[(u8, u8)]) -> (Vec<Event>, bool) {
    let mut h = Harness::new(spec.clone(), *cfg).unwrap();
    let mut applied = Vec::new();
    for &(kind, node) in raw {
        let ev = decode(kind, node, spec.nodes);
        if !h.is_enabled(ev) {
            continue;
        }
        applied.push(ev);
        let violated = h.apply(ev).iter().any(|f| f.severity == Severity::Error);
        if violated {
            return (applied, true);
        }
    }
    (applied, false)
}

/// On violation, shrinks the trace and freezes it as a replay file
/// before failing the test — the vendored proptest has no shrinking,
/// so the harness does its own ddmin.
fn report_violation(spec: &TopologySpec, cfg: &InvariantConfig, applied: Vec<Event>) -> ! {
    let min = minimize(spec, cfg, &applied);
    let file = ReplayFile::capture(spec.clone(), *cfg, min.clone());
    let path = std::env::temp_dir().join("remo-mc-fuzz-counterexample.json");
    std::fs::write(&path, file.to_json().unwrap()).unwrap();
    panic!(
        "invariant violated by fuzzed trace; minimized to {} events, replay written to {} \
         (verify with `remo-check mc replay`)",
        min.len(),
        path.display()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sequences well past the exhaustive depth bound stay clean on
    /// every seeded topology under the default tolerances.
    #[test]
    fn random_deep_sequences_preserve_invariants(
        spec_idx in 0usize..4,
        raw in prop::collection::vec((0u8..4, 0u8..8), 8..24),
    ) {
        let spec = seeded_specs()[spec_idx].clone();
        let cfg = InvariantConfig::default();
        let (applied, violated) = drive(&spec, &cfg, &raw);
        if violated {
            report_violation(&spec, &cfg, applied);
        }
    }

    /// Under an unsatisfiable tolerance, every violating trace the
    /// fuzzer finds must survive minimization: ddmin output still
    /// reproduces, is no longer than the input, and replays to the
    /// same verdict through the replay-file path.
    #[test]
    fn minimized_fuzz_traces_still_reproduce(
        raw in prop::collection::vec((0u8..4, 0u8..4), 4..12),
    ) {
        let spec = TopologySpec::small(1);
        let cfg = InvariantConfig { pair_slack: 1, volume_tolerance: 0.1 };
        let (applied, violated) = drive(&spec, &cfg, &raw);
        if violated {
            let min = minimize(&spec, &cfg, &applied);
            prop_assert!(min.len() <= applied.len());
            prop_assert!(replay_events(&spec, &cfg, &min).is_violation());
            let file = ReplayFile::capture(spec.clone(), cfg, min);
            prop_assert!(file.verify().is_ok());
        }
    }
}
