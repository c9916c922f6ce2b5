//! "One read and one write per node per epoch", as a count: the hub's
//! own `remo-obs` counters over a lockstep run. The hub holds what it
//! routes until the destination's next tick, so a node's connection
//! costs the collector one `read` (the node's one write: acks, frames,
//! report) and one `write` (held traffic and the tick) per epoch, plus
//! the handshake and the goodbye. Its own test binary with a single
//! test: the registry is process-wide.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use remo_core::{AttrId, CapacityMap, NodeId, PairSet};
use remo_node::{dist_sampler, spawn_node, CollectorService, NodeConfig, ServiceConfig};
use std::time::Duration;

const NODES: u32 = 8;
const EPOCHS: u64 = 200;

#[test]
fn the_hub_reads_and_writes_each_connection_once_per_epoch() {
    let _guard = remo_obs::test_guard();
    remo_obs::registry::registry().reset();
    remo_obs::enable();

    // The shape `ordering.rs` runs: several trees, hub-routed edges.
    let pairs: PairSet = (0..NODES)
        .flat_map(|n| (0..24).map(move |a| (NodeId(n), AttrId(a))))
        .collect();
    let caps = CapacityMap::uniform(NODES as usize, 80.0, 1e9).unwrap();
    let mut cfg = ServiceConfig::new("127.0.0.1:0", pairs, caps);
    cfg.epochs = EPOCHS;
    cfg.epoch_interval = Duration::ZERO;
    cfg.health.deadline = Duration::from_secs(5);
    cfg.health.confirm_after = 5;
    cfg.net.ingress_capacity = 1 << 20;
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
    assert!(summary.observed_pairs > 0 && summary.protocol_rejects == 0);

    let count = |name: &str| remo_obs::counter(name).get() as u64;
    let (polls, reads, writes) = (
        count("remo_hub_polls_total"),
        count("remo_hub_reads_total"),
        count("remo_hub_writes_total"),
    );
    let per_epoch = |n: u64| n as f64 / EPOCHS as f64;
    println!(
        "hub syscalls per epoch: {:.1} polls, {:.1} reads, {:.1} writes",
        per_epoch(polls),
        per_epoch(reads),
        per_epoch(writes)
    );
    // Per connection: the handshake, one per epoch, the goodbye — and
    // one to spare.
    let bound = u64::from(NODES) * (EPOCHS + 3);
    assert!(writes <= bound, "{writes} writes, at most {bound}");
    assert!(reads <= bound, "{reads} reads, at most {bound}");
    // Every epoch waits at least once, and every wait is answered by
    // at least one read.
    assert!(polls >= EPOCHS && polls <= reads, "{polls} polls");

    // Sampled per connection as each tick releases it; the routed
    // frames and acks of the epoch before were waiting there.
    let held = remo_obs::histogram("remo_hub_held_bytes");
    assert_eq!(held.count(), u64::from(NODES) * EPOCHS);
    assert!(held.sum() > 0.0, "nothing was ever held");
}
