//! Thread inventory of the collection path: one thread per node, one
//! for the collector (the registrar before `run`, the caller's own
//! thread during it), and none left behind. Its own test binary with a
//! single test, so `/proc/self/task` counts nothing else.

#![allow(clippy::unwrap_used, clippy::expect_used)]
#![cfg(target_os = "linux")]

use remo_core::{AttrId, CapacityMap, NodeId, PairSet};
use remo_node::{dist_sampler, spawn_node, CollectorService, NodeConfig, ServiceConfig};
use std::time::{Duration, Instant};

const NODES: u32 = 6;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// A joined thread's task entry can outlive the join by a moment (the
/// kernel wakes the joiner before it unhashes the task); a leaked
/// thread never goes away. Wait out the first, fail on the second.
fn assert_settles_to(want: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != want && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(threads(), want, "{what}");
}

fn config(epochs: u64) -> ServiceConfig {
    let pairs: PairSet = (0..NODES)
        .flat_map(|n| (0..2).map(move |a| (NodeId(n), AttrId(a))))
        .collect();
    let caps = CapacityMap::uniform(NODES as usize, 1000.0, 100_000.0).unwrap();
    let mut cfg = ServiceConfig::new("127.0.0.1:0", pairs, caps);
    cfg.epochs = epochs;
    cfg.epoch_interval = Duration::from_millis(1);
    cfg.health.deadline = Duration::from_secs(5);
    cfg.health.confirm_after = 5;
    cfg
}

#[test]
fn one_thread_per_node_one_for_the_collector_and_none_left_behind() {
    let before = threads();

    // A service that is started and never run stops its registrar when
    // dropped.
    let idle = CollectorService::start(config(1)).unwrap();
    assert_eq!(threads(), before + 1, "the registrar");
    drop(idle);
    assert_settles_to(before, "dropping an unrun service left a thread");

    let service = CollectorService::start(config(40)).unwrap();
    let addr = service.addr().to_string();
    let handles: Vec<_> = (0..NODES)
        .map(|id| spawn_node(NodeConfig::new(addr.clone(), NodeId(id)), dist_sampler()))
        .collect();
    assert_eq!(service.wait_for_nodes(NODES as usize), NODES as usize);
    let launched = threads();
    assert!(
        launched <= before + NODES as usize + 2,
        "{launched} threads after launch, {before} before"
    );

    let mut mid_run = 0;
    let summary = service.run(|r| {
        if r.epoch == 20 {
            mid_run = threads();
        }
    });
    assert!(
        mid_run > 0 && mid_run <= before + NODES as usize + 2,
        "{mid_run} threads mid-run, {before} before"
    );
    assert!(mid_run < launched, "run() must take the registrar's place");
    for h in handles {
        h.join();
    }
    assert_eq!(summary.epochs, 40);
    assert_eq!(summary.observed_pairs, summary.planned_pairs);
    assert_settles_to(before, "a thread outlived run() and the node joins");
}
