//! Thread inventory of the in-process deployment: none. Launching,
//! ticking, crashing and repairing a 16-node `Deployment` all happen on
//! the caller's thread. Its own test binary with a single test, so
//! `/proc/self/task` counts nothing else.

#![allow(clippy::unwrap_used, clippy::expect_used)]
#![cfg(target_os = "linux")]

use remo_core::adapt::{AdaptScheme, AdaptivePlanner};
use remo_core::planner::{Planner, PlannerConfig};
use remo_core::{AttrCatalog, AttrId, CapacityMap, CostModel, NodeId, PairSet};
use remo_runtime::{samplers, Deployment, HealthConfig, NetConfig, NetSpec, TransportSpec};

const NODES: u32 = 16;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn a_deployment_adds_no_thread() {
    let pairs: PairSet = (0..NODES)
        .flat_map(|n| (0..2).map(move |a| (NodeId(n), AttrId(a))))
        .collect();
    let caps = CapacityMap::uniform(NODES as usize, 200.0, 50_000.0).unwrap();
    // One planner worker: the planner's own pool is not what is
    // counted here, and with one worker it plans inline.
    let planner = AdaptivePlanner::new(
        Planner::new(PlannerConfig {
            parallelism: 1,
            ..PlannerConfig::default()
        }),
        AdaptScheme::Adaptive,
        pairs.clone(),
        caps,
        CostModel::new(2.0, 1.0).unwrap(),
        AttrCatalog::new(),
    );
    let spec = NetSpec {
        seed: 3,
        drop: 0.05,
        delay_max: 1,
        ..NetSpec::default()
    };

    let before = threads();
    let mut dep = Deployment::launch_self_healing_with_transport(
        planner,
        samplers::deterministic(),
        HealthConfig {
            confirm_after: 2,
            ..HealthConfig::default()
        },
        TransportSpec::Lossy(spec, NetConfig::default()),
    );
    assert_eq!(threads(), before, "launch started a thread");

    dep.run(5);
    dep.fail_node(NodeId(3));
    let mut most = before;
    let mut repaired = 0;
    for _ in 0..10 {
        repaired += dep.tick().repaired;
        most = most.max(threads());
    }
    assert_eq!(repaired, 1, "the crash was detected and repaired");
    assert_eq!(most, before, "a tick started a thread");
    assert_eq!(dep.observed_pairs(), pairs.len());
    dep.shutdown();
    assert_eq!(threads(), before);
}
