//! Receive-side dedup state stays flat however long a fleet runs.
//!
//! An agent numbers its data frames from one counter across all of its
//! parents, so a sender with several parents reaches each receiver with
//! gaps in its seqs. The `collect-thin` plan shape (8 nodes × 64
//! attributes, node capacity 200 under `C = 2, a = 1`: 12 trees) is full
//! of such senders. Here it runs on the in-process lossy transport with
//! every fault at 0, so the ARQ and dedup run and nothing else moves:
//! what each (receiver, sender) window holds at epoch 1 000 must be what
//! it holds at epoch 5 000. A tracker that remembers each gapped seq
//! grows by one entry per frame instead.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use remo_core::planner::Planner;
use remo_core::{AttrCatalog, AttrId, CapacityMap, CostModel, NodeId, PairSet};
use remo_runtime::agent::Route;
use remo_runtime::health::HealthConfig;
use remo_runtime::transport::{NetConfig, NetSpec, DEDUP_WINDOW};
use remo_runtime::{samplers, Deployment, TransportSpec};
use std::collections::BTreeSet;

const NODES: u32 = 8;
const ATTRS: u32 = 64;
const EARLY: u64 = 1_000;
const EPOCHS: u64 = 5_000;

#[test]
fn dedup_windows_hold_the_same_seqs_at_epoch_1000_and_5000() {
    let pairs: PairSet = (0..NODES)
        .flat_map(|n| (0..ATTRS).map(move |a| (NodeId(n), AttrId(a))))
        .collect();
    let caps = CapacityMap::uniform(NODES as usize, 200.0, 1e9).unwrap();
    let cost = CostModel::default();
    let catalog = AttrCatalog::new();
    let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
    assert_eq!(plan.trees().len(), 12, "the collect-thin shape");
    let mut dep = Deployment::launch_with_transport(
        &plan,
        &pairs,
        &caps,
        cost,
        &catalog,
        samplers::deterministic(),
        HealthConfig::default(),
        TransportSpec::Lossy(
            NetSpec {
                seed: 1,
                ..NetSpec::default()
            },
            NetConfig::default(),
        ),
    );
    // The leak needs a sender with more than one parent.
    let split = dep.assignments().values().any(|assigns| {
        let parents: BTreeSet<_> = assigns
            .iter()
            .map(|a| match a.parent {
                Route::Collector => None,
                Route::Node(p) => Some(p),
            })
            .collect();
        parents.len() > 1
    });
    assert!(split, "no node sends to two parents: nothing to pin");

    let early = {
        let r = dep.run(EARLY);
        assert_eq!(
            r.retransmit_messages + r.abandoned_messages,
            0,
            "faults are off"
        );
        dep.dedup_tracked()
    };
    let r = dep.run(EPOCHS - EARLY);
    assert_eq!(
        r.retransmit_messages + r.abandoned_messages,
        0,
        "faults are off"
    );
    let late = dep.dedup_tracked();
    assert!(!early.is_empty(), "the ARQ path runs dedup");
    assert!(late.values().all(|&n| n as u64 <= DEDUP_WINDOW));
    assert_eq!(
        early, late,
        "dedup state grew between epoch {EARLY} and {EPOCHS}"
    );
}
