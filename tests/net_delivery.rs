//! Delivery semantics under arbitrary network faults.
//!
//! The ARQ layer's contract: at-least-once delivery plus idempotent
//! receiver-side dedup means that once the network heals, the
//! collector on a lossy transport agrees exactly with the collector on
//! the perfect transport — whatever drops, delays, duplicates,
//! reorders, and partitions happened along the way — and the stored
//! `received` epoch never precedes `produced`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use remo::prelude::*;
use remo_runtime::{
    CollectorCore, Deployment, EpochReport, NetConfig, NetSpec, PartitionWindow, Sampler,
    TransportSpec, WireReading,
};
use std::collections::BTreeSet;
use std::sync::Arc;

fn sampler() -> Sampler {
    Arc::new(|n: NodeId, a: AttrId, e: u64| {
        (n.0 as f64) * 100.0 + (a.0 as f64) * 10.0 + (e % 9) as f64
    })
}

/// Roomy budgets: these tests isolate transport faults, so capacity
/// pressure (a different, already-tested shedding path) must not
/// engage.
const NODE_BUDGET: f64 = 10_000.0;
const COLLECTOR_BUDGET: f64 = 1_000_000.0;

fn launch_lossy(nodes: u32, attrs: u32, spec: NetSpec) -> (Deployment, Deployment, PairSet) {
    let caps = CapacityMap::uniform(nodes as usize, NODE_BUDGET, COLLECTOR_BUDGET).unwrap();
    let cost = CostModel::new(2.0, 1.0).unwrap();
    let pairs: PairSet = (0..nodes)
        .flat_map(|n| (0..attrs).map(move |a| (NodeId(n), AttrId(a))))
        .collect();
    let catalog = AttrCatalog::new();
    let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
    let net = NetConfig {
        // Never engage collector backpressure: degradation changes
        // sampling schedules and would (correctly) diverge the stores.
        ingress_capacity: 1_000_000,
        record_deliveries: true,
        ..NetConfig::default()
    };
    let lossy = Deployment::launch_with_transport(
        &plan,
        &pairs,
        &caps,
        cost,
        &catalog,
        sampler(),
        HealthConfig::default(),
        TransportSpec::Lossy(spec, net),
    );
    let perfect = Deployment::launch(&plan, &pairs, &caps, cost, &catalog, sampler());
    (lossy, perfect, pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under arbitrary drop/delay/dup/reorder (and an optional
    /// partition window), the lossy collector's final snapshot equals
    /// the perfect one once the network heals, every stored value is
    /// bit-exact against the sampler, and `received >= produced`
    /// always holds — including in the raw delivery log replayed into
    /// a fresh `CollectorCore`.
    #[test]
    fn lossy_store_converges_to_perfect(
        seed in 0u64..u64::MAX,
        nodes in 3u32..8,
        attrs in 1u32..3,
        drop in 0.0f64..0.35,
        delay_max in 0u64..3,
        dup in 0.0f64..0.25,
        reorder in 0.0f64..0.25,
        part_from in 5u64..15,
        part_len in 3u64..12,
        part_members in prop::collection::btree_set(0u32..8, 0..4),
    ) {
        const HEAL_AT: u64 = 30;
        const TOTAL: u64 = 55;
        let members: BTreeSet<NodeId> = part_members
            .into_iter()
            .filter(|&m| m < nodes)
            .map(NodeId)
            .collect();
        let partitions = if members.is_empty() {
            Vec::new()
        } else {
            vec![PartitionWindow {
                name: "prop-window".into(),
                members,
                from_epoch: part_from,
                until_epoch: Some(part_from + part_len),
            }]
        };
        let spec = NetSpec {
            seed,
            drop,
            delay_max,
            dup,
            reorder,
            partitions,
            active_until: Some(HEAL_AT),
            ..NetSpec::default()
        };
        let (mut lossy, mut perfect, pairs) = launch_lossy(nodes, attrs, spec);
        lossy.run(TOTAL);
        perfect.run(TOTAL);

        let s = sampler();
        for (n, a) in pairs.iter() {
            let p = perfect.observed(n, a);
            let l = lossy.observed(n, a);
            match (p, l) {
                (Some(p), Some(l)) => {
                    prop_assert_eq!(
                        (l.value, l.produced),
                        (p.value, p.produced),
                        "stores diverge for {}/{} after heal", n, a
                    );
                    prop_assert_eq!(l.value, s(n, a, l.produced), "corrupt value");
                    prop_assert!(l.received >= l.produced, "time travel at {}/{}", n, a);
                }
                (None, None) => {}
                (p, l) => prop_assert!(
                    false,
                    "coverage diverges for {}/{}: perfect={:?} lossy={:?}", n, a, p, l
                ),
            }
        }

        // Replay the raw delivery log into a fresh collector store:
        // same final snapshot, and received >= produced on every
        // single accepted reading, not just the survivors.
        let mut replay = CollectorCore::new(
            COLLECTOR_BUDGET,
            CostModel::new(2.0, 1.0).unwrap(),
            NetConfig::default(),
            AttrCatalog::new(),
        );
        for d in lossy.delivery_log() {
            prop_assert!(d.received >= d.produced, "log time travel");
            replay.record(
                &WireReading {
                    node: d.node,
                    attr: d.attr,
                    value: d.value,
                    produced: d.produced,
                    contributors: d.contributors,
                },
                d.received,
                &mut EpochReport::default(),
            );
        }
        for (n, a) in pairs.iter() {
            let p = perfect.observed(n, a);
            let r = replay.observed(n, a);
            match (p, r) {
                (Some(p), Some(r)) => {
                    prop_assert_eq!((r.value, r.produced), (p.value, p.produced));
                }
                (None, None) => {}
                (p, r) => prop_assert!(
                    false,
                    "replayed store diverges for {}/{}: perfect={:?} replay={:?}", n, a, p, r
                ),
            }
        }
        lossy.shutdown();
        perfect.shutdown();
    }
}

/// Fault accounting sanity on a known-seeded network: injected faults
/// show up in the transport stats, and the ARQ layer retransmits.
#[test]
fn faults_are_injected_and_survived() {
    let spec = NetSpec {
        seed: 42,
        drop: 0.25,
        delay_max: 2,
        dup: 0.1,
        reorder: 0.2,
        active_until: Some(40),
        ..NetSpec::default()
    };
    let (mut lossy, mut perfect, pairs) = launch_lossy(6, 2, spec);
    let total = lossy.run(60);
    perfect.run(60);
    let stats = lossy.net_stats();
    assert!(stats.dropped_random > 0, "25% drop must drop something");
    assert!(stats.duplicated > 0, "10% dup must duplicate something");
    assert!(stats.delayed > 0, "delays must queue something");
    assert!(
        total.retransmit_messages > 0,
        "dropped frames must be retransmitted"
    );
    assert!(
        total.duplicate_messages_ignored > 0,
        "dup/retransmit replays must be deduped"
    );
    // And despite all of it: full agreement with the perfect store.
    for (n, a) in pairs.iter() {
        let p = perfect.observed(n, a).expect("perfect covers pair");
        let l = lossy.observed(n, a).expect("lossy covers pair");
        assert_eq!((l.value, l.produced), (p.value, p.produced));
    }
    lossy.shutdown();
    perfect.shutdown();
}

/// A permanent partition keeps members' readings out; healing it lets
/// fresh samples through again (graceful degradation, then recovery).
#[test]
fn partition_window_isolates_then_heals() {
    let spec = NetSpec {
        seed: 7,
        partitions: vec![PartitionWindow {
            name: "island".into(),
            members: [NodeId(0)].into_iter().collect(),
            from_epoch: 10,
            until_epoch: Some(25),
        }],
        ..NetSpec::default()
    };
    let (mut lossy, _perfect, _pairs) = launch_lossy(4, 1, spec);
    lossy.run(9);
    let before = lossy
        .observed(NodeId(0), AttrId(0))
        .expect("observed before window");
    lossy.run(11); // epochs 10..=20, inside the window
    let during = lossy
        .observed(NodeId(0), AttrId(0))
        .expect("stale snapshot survives");
    assert!(
        during.produced <= before.produced + 5,
        "island data must stop flowing (got produced {})",
        during.produced
    );
    assert!(lossy.net_stats().dropped_partition > 0);
    lossy.run(20); // window over: fresh data again
    let after = lossy
        .observed(NodeId(0), AttrId(0))
        .expect("observed after heal");
    assert!(after.produced > during.produced, "partition must heal");
    lossy.shutdown();
}
