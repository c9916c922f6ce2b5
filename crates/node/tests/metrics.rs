//! The TCP collector exports the epoch metrics the in-process
//! deployment exports: one `EpochReport::export_metrics` per closed
//! epoch, so the `remo_runtime_*` counters add up to the run summary.
//! Its own test binary with a single test: the registry is
//! process-wide.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use remo_core::{AttrId, CapacityMap, NodeId, PairSet};
use remo_node::{dist_sampler, spawn_node, CollectorService, NodeConfig, ServiceConfig};
use std::time::Duration;

const NODES: u32 = 4;
const EPOCHS: u64 = 12;

#[test]
fn the_service_exports_every_epoch_it_runs() {
    let _guard = remo_obs::test_guard();
    remo_obs::registry::registry().reset();
    remo_obs::enable();

    let pairs: PairSet = (0..NODES)
        .flat_map(|n| (0..2).map(move |a| (NodeId(n), AttrId(a))))
        .collect();
    let caps = CapacityMap::uniform(NODES as usize, 1000.0, 100_000.0).unwrap();
    let mut cfg = ServiceConfig::new("127.0.0.1:0", pairs, caps);
    cfg.epochs = EPOCHS;
    cfg.epoch_interval = Duration::ZERO;
    cfg.health.deadline = Duration::from_secs(5);
    cfg.health.confirm_after = 5;
    let service = CollectorService::start(cfg).unwrap();
    let addr = service.addr().to_string();
    let handles: Vec<_> = (0..NODES)
        .map(|id| spawn_node(NodeConfig::new(addr.clone(), NodeId(id)), dist_sampler()))
        .collect();
    assert_eq!(service.wait_for_nodes(NODES as usize), NODES as usize);
    let summary = service.run(|_| {});
    for h in handles {
        h.join();
    }
    remo_obs::disable();

    assert_eq!(summary.epochs, EPOCHS);
    assert!(summary.delivered_values > 0);
    let count = |name: &str| remo_obs::counter(name).get() as u64;
    assert_eq!(count("remo_runtime_epochs_total"), summary.epochs);
    assert_eq!(
        count("remo_runtime_delivered_values_total"),
        summary.delivered_values
    );
}
