//! Perfect-path regression pinning and the combined chaos soak.
//!
//! Two guarantees ride here:
//!
//! 1. The transport refactor must not change the perfect path at all:
//!    a seeded deployment's per-epoch `EpochReport`s are pinned
//!    against values captured from the pre-transport runtime.
//! 2. Under hundreds of epochs of combined node failures and network
//!    faults (drop + delay + dup + reorder + a partition window), the
//!    self-healing collector converges with bounded staleness, zero
//!    store corruption, and fault telemetry that reconciles with the
//!    injected faults.
//!
//! Every test here takes `remo_obs::test_guard()`: the soak asserts
//! process-global metric counters, so tests in this binary must not
//! interleave their deployments.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use remo::prelude::*;
use remo_runtime::{
    Deployment, EpochReport, NetConfig, NetSpec, PartitionWindow, Sampler, TransportSpec,
    TransportStats,
};
use std::collections::BTreeSet;
use std::sync::Arc;

fn sampler() -> Sampler {
    Arc::new(|n: NodeId, a: AttrId, e: u64| (n.0 * 1000 + a.0 * 10) as f64 + (e % 7) as f64)
}

fn dense_pairs(nodes: u32, attrs: u32) -> PairSet {
    (0..nodes)
        .flat_map(|n| (0..attrs).map(move |a| (NodeId(n), AttrId(a))))
        .collect()
}

/// The exact per-epoch reports the pre-transport runtime produced for
/// this scenario (captured from the seed revision): the perfect
/// transport must reproduce them bit for bit.
#[test]
fn perfect_path_reports_are_byte_identical_to_pre_transport_runtime() {
    let _guard = remo_obs::test_guard();
    let caps = CapacityMap::uniform(6, 100.0, 10_000.0).unwrap();
    let cost = CostModel::new(2.0, 1.0).unwrap();
    let pairs = dense_pairs(6, 2);
    let catalog = AttrCatalog::new();
    let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
    let mut dep = Deployment::launch(&plan, &pairs, &caps, cost, &catalog, sampler());
    for epoch in 1..=12u64 {
        let r = dep.tick();
        let expected = if epoch == 1 {
            (2, 0, 0, 24.0)
        } else {
            (12, 0, 0, 34.0)
        };
        assert_eq!(
            (
                r.delivered_values,
                r.dropped_messages,
                r.dropped_readings,
                r.volume
            ),
            expected,
            "perfect path diverged from pre-transport runtime at epoch {epoch}"
        );
        // The robustness machinery must stay entirely dormant.
        assert_eq!(r.retransmit_messages, 0);
        assert_eq!(r.duplicate_messages_ignored, 0);
        assert_eq!(r.abandoned_messages, 0);
        assert_eq!(r.shed_readings, 0);
        assert_eq!(r.backpressure_signals, 0);
        assert_eq!(r.ingress_depth, 0);
    }
    assert_eq!(dep.net_stats(), Default::default());
    assert!(
        dep.set_link_down(NodeId(0), NodeId(1), true),
        "the perfect transport models scripted link outages"
    );
    dep.shutdown();
}

fn fast_health(confirm_after: u32) -> HealthConfig {
    HealthConfig {
        deadline: std::time::Duration::from_millis(60),
        confirm_after,
    }
}

fn lossy_self_healing(
    nodes: u32,
    attrs: u32,
    spec: NetSpec,
    net: NetConfig,
) -> (Deployment, PairSet) {
    let caps = CapacityMap::uniform(nodes as usize, 200.0, 50_000.0).unwrap();
    let cost = CostModel::new(2.0, 1.0).unwrap();
    let pairs = dense_pairs(nodes, attrs);
    let planner = AdaptivePlanner::new(
        Planner::default(),
        AdaptScheme::Adaptive,
        pairs.clone(),
        caps,
        cost,
        AttrCatalog::new(),
    );
    let dep = Deployment::launch_self_healing_with_transport(
        planner,
        sampler(),
        fast_health(2),
        TransportSpec::Lossy(spec, net),
    );
    (dep, pairs)
}

/// A lossy run under a chaos schedule, short enough to pin and to run
/// twice: every fault the transport can inject, a link outage and a
/// node outage, with the collector's delivery log switched on.
fn seeded_chaos_run() -> (
    Vec<EpochReport>,
    TransportStats,
    Vec<remo_runtime::DeliveredReading>,
) {
    let spec = NetSpec {
        seed: 5,
        drop: 0.1,
        delay_max: 2,
        dup: 0.05,
        reorder: 0.1,
        partitions: vec![PartitionWindow {
            name: "blip".into(),
            members: [NodeId(2)].into_iter().collect(),
            from_epoch: 30,
            until_epoch: Some(36),
        }],
        active_until: Some(50),
        ..NetSpec::default()
    };
    let net = NetConfig {
        record_deliveries: true,
        ..NetConfig::default()
    };
    let (mut dep, _) = lossy_self_healing(8, 2, spec, net);
    let (child, parent) = first_relay_edge(&dep);
    let mut schedule = FailureSchedule::new();
    schedule.add(Outage::link(child, parent, 5, Some(12)));
    schedule.add(Outage::node(NodeId(4), 15, Some(25)));
    let reports = ChaosDriver::new(schedule).run(&mut dep, 60);
    (reports, dep.net_stats(), dep.delivery_log().to_vec())
}

/// A child → parent route from the launched assignments: an edge that
/// really carries tree traffic.
fn first_relay_edge(dep: &Deployment) -> (NodeId, NodeId) {
    dep.assignments()
        .iter()
        .find_map(|(&node, assigns)| {
            assigns.iter().find_map(|a| match a.parent {
                remo_runtime::Route::Node(p) => Some((node, p)),
                remo_runtime::Route::Collector => None,
            })
        })
        .expect("the forest must contain at least one relay edge")
}

/// Same seed, same bytes. The deployment steps its agents in node
/// order on the caller's thread, so a run is a function of its inputs:
/// not only what is delivered but every retransmission, duplicate and
/// fault decision repeats. (With an agent thread per node the ack for
/// a frame could overtake the sender's next tick or not, and the
/// retransmit counts differed from run to run.)
#[test]
fn seeded_lossy_run_under_chaos_repeats_exactly() {
    let _guard = remo_obs::test_guard();
    let (reports, stats, log) = seeded_chaos_run();
    let (reports2, stats2, log2) = seeded_chaos_run();
    assert_eq!(reports, reports2);
    assert_eq!(stats, stats2);
    assert_eq!(log, log2);
    // The run is not vacuous: every mechanism fired and the schedule
    // was detected, repaired and healed.
    assert!(stats.dropped_random > 0 && stats.dropped_link_down > 0);
    assert!(stats.dropped_partition > 0 && stats.duplicated > 0 && stats.delayed > 0);
    assert_eq!(reports.iter().map(|r| r.repaired).sum::<u64>(), 1);
    assert_eq!(reports.iter().map(|r| r.recovered).sum::<u64>(), 1);
    assert!(!log.is_empty());
}

/// The lossy counterpart of the perfect-path pin above: the per-epoch
/// reports of [`seeded_chaos_run`], as (delivered values, retransmits,
/// duplicates ignored, volume). A change to the agents' schedule, the
/// ARQ timers or the transport's fault draws moves these numbers; a
/// change that moves them has to say why.
#[test]
fn seeded_lossy_run_reports_are_pinned() {
    let _guard = remo_obs::test_guard();
    let (reports, stats, _) = seeded_chaos_run();
    let got: Vec<(u64, u64, u64, f64)> = reports
        .iter()
        .map(|r| {
            (
                r.delivered_values,
                r.retransmit_messages,
                r.duplicate_messages_ignored,
                r.volume,
            )
        })
        .collect();
    assert_eq!(got, GOLDEN_LOSSY_REPORTS);
    assert_eq!(
        (stats.data_sent, stats.acks_sent, stats.delivered),
        GOLDEN_LOSSY_FRAMES
    );
}

const GOLDEN_LOSSY_FRAMES: (u64, u64, u64) = (702, 655, 1273);
const GOLDEN_LOSSY_REPORTS: [(u64, u64, u64, f64); 60] = [
    (0, 0, 0, 32.0),
    (0, 0, 0, 40.0),
    (12, 4, 1, 62.0),
    (16, 3, 4, 68.0),
    (18, 2, 1, 72.0),
    (20, 1, 3, 60.0),
    (10, 5, 3, 86.0),
    (6, 1, 4, 40.0),
    (18, 6, 0, 80.0),
    (10, 5, 2, 62.0),
    (12, 6, 4, 72.0),
    (0, 7, 4, 78.0),
    (42, 8, 2, 102.0),
    (0, 6, 3, 74.0),
    (22, 7, 8, 76.0),
    (0, 5, 4, 72.0),
    (38, 4, 6, 76.0),
    (0, 4, 6, 54.0),
    (26, 5, 2, 74.0),
    (12, 5, 4, 58.0),
    (36, 7, 4, 88.0),
    (0, 4, 4, 60.0),
    (18, 6, 6, 84.0),
    (0, 2, 3, 64.0),
    (14, 5, 3, 72.0),
    (42, 3, 3, 52.0),
    (0, 3, 3, 64.0),
    (0, 3, 3, 56.0),
    (0, 5, 3, 76.0),
    (28, 4, 3, 74.0),
    (42, 7, 5, 84.0),
    (0, 6, 5, 68.0),
    (0, 4, 6, 64.0),
    (18, 6, 3, 94.0),
    (16, 3, 3, 58.0),
    (46, 5, 3, 66.0),
    (0, 3, 2, 56.0),
    (14, 4, 2, 60.0),
    (14, 6, 2, 90.0),
    (0, 3, 5, 50.0),
    (24, 7, 2, 98.0),
    (26, 7, 4, 72.0),
    (8, 7, 6, 96.0),
    (40, 8, 7, 80.0),
    (22, 5, 4, 72.0),
    (0, 2, 8, 62.0),
    (34, 1, 3, 44.0),
    (0, 4, 1, 60.0),
    (14, 5, 2, 70.0),
    (30, 4, 3, 68.0),
    (20, 5, 4, 70.0),
    (24, 5, 7, 82.0),
    (16, 1, 4, 50.0),
    (16, 0, 1, 46.0),
    (16, 0, 0, 46.0),
    (16, 0, 0, 46.0),
    (16, 0, 0, 46.0),
    (16, 0, 0, 46.0),
    (16, 0, 0, 46.0),
    (16, 0, 0, 46.0),
];

/// The headline acceptance test: ≥300 epochs of node failures, ≥5%
/// drop, delivery delay, duplication, reordering, a partition window,
/// and a chaos-driven link outage — the collector must converge within
/// the declared staleness bound with zero corruption, and the metrics
/// must account for every injected fault.
#[test]
fn chaos_soak_converges_with_bounded_staleness() {
    let _obs_guard = remo_obs::test_guard();
    remo_obs::registry::registry().reset();
    remo_obs::enable();

    const EPOCHS: u64 = 300;
    let members: BTreeSet<NodeId> = [NodeId(1), NodeId(2), NodeId(3)].into_iter().collect();
    let spec = NetSpec {
        seed: 2026,
        drop: 0.06,
        delay_max: 2,
        dup: 0.03,
        reorder: 0.1,
        partitions: vec![PartitionWindow {
            name: "west-wing".into(),
            members,
            from_epoch: 120,
            until_epoch: Some(150),
        }],
        active_until: Some(270),
        ..NetSpec::default()
    };
    let (mut dep, pairs) = lossy_self_healing(10, 2, spec, NetConfig::default());

    // Cut a relay edge that really carries tree traffic: pick a
    // child → parent route from the launched assignments. The window
    // sits before the first node failure, while the launch topology
    // is still live.
    let (child, parent) = first_relay_edge(&dep);

    let mut schedule = FailureSchedule::new();
    schedule.add(Outage::link(child, parent, 20, Some(50)));
    schedule.add(Outage::node(NodeId(5), 60, Some(90)));
    schedule.add(Outage::node(NodeId(7), 180, Some(210)));
    let mut chaos = ChaosDriver::new(schedule);

    let reports = chaos.run(&mut dep, EPOCHS);
    remo_obs::disable();
    assert_eq!(reports.len(), EPOCHS as usize);

    // Fold the epoch reports the way Deployment::run does.
    let retransmits: u64 = reports.iter().map(|r| r.retransmit_messages).sum();
    let abandoned: u64 = reports.iter().map(|r| r.abandoned_messages).sum();
    let dups_ignored: u64 = reports.iter().map(|r| r.duplicate_messages_ignored).sum();
    let confirmed: u64 = reports.iter().map(|r| r.confirmed_dead).sum();
    let repaired: u64 = reports.iter().map(|r| r.repaired).sum();
    let recovered: u64 = reports.iter().map(|r| r.recovered).sum();

    // The scripted failures were detected, repaired, and recovered.
    assert_eq!(confirmed, 2, "both node outages confirmed");
    assert_eq!(repaired, 2, "both failures repaired");
    assert_eq!(recovered, 2, "both nodes reintegrated");
    // And exactly on schedule: with no deadline to race, a node silent
    // from epoch E is confirmed and repaired at E + K − 1 (K = 2) and
    // recovers on the first tick after its outage ends.
    let epochs_where = |count: fn(&EpochReport) -> u64| -> Vec<u64> {
        reports
            .iter()
            .filter(|r| count(r) > 0)
            .map(|r| r.epoch)
            .collect()
    };
    assert_eq!(epochs_where(|r| r.confirmed_dead), [61, 181]);
    assert_eq!(epochs_where(|r| r.repaired), [61, 181]);
    assert_eq!(epochs_where(|r| r.recovered), [91, 211]);

    // The network actually hurt, and ARQ actually fought back.
    let stats = dep.net_stats();
    assert!(stats.dropped_random > 0, "6% drop must bite");
    assert!(stats.dropped_partition > 0, "partition must cut traffic");
    assert!(stats.dropped_link_down > 0, "chaos link outage must bite");
    assert!(stats.duplicated > 0 && stats.delayed > 0);
    assert!(retransmits > 0, "losses must trigger retransmissions");
    assert!(dups_ignored > 0, "replays must be deduped");

    // Random drops reconcile with the NetSpec's drop probability:
    // every attempt (data + ack) faced p = 0.06 while faults were
    // active (90% of the run), so the observed rate must sit near it.
    let attempts = stats.data_sent + stats.acks_sent;
    let rate = stats.dropped_random as f64 / attempts as f64;
    assert!(
        (0.02..=0.12).contains(&rate),
        "drop rate {rate:.4} unreasonably far from spec 0.06"
    );

    // Zero store corruption: every stored value is bit-exact against
    // the sampler at its claimed produce epoch, and never from the
    // future.
    let s = sampler();
    for (n, a) in pairs.iter() {
        let obs = dep.observed(n, a).expect("pair observed by soak end");
        assert_eq!(obs.value, s(n, a, obs.produced), "corrupt store at {n}/{a}");
        assert!(obs.received >= obs.produced, "time travel at {n}/{a}");
    }

    // Convergence: the network healed at 270 — by 300 every pair's
    // snapshot is within the declared per-attribute staleness bound.
    let bounds = dep.staleness_bounds();
    for (n, a) in pairs.iter() {
        let obs = dep.observed(n, a).expect("pair observed");
        let staleness = dep.epoch() - obs.produced;
        let bound = bounds[&a];
        assert!(
            staleness <= bound,
            "{n}/{a} staleness {staleness} exceeds declared bound {bound}"
        );
    }

    // Metric reconciliation: the obs layer accounts for every injected
    // fault. Transport-side counters are incremented under the same
    // lock as the stats, agent-side counters in the tick whose report
    // carries them, and every report is folded in the tick that
    // produced it: both must match exactly.
    let c = |name: &str| remo_obs::counter(name).get() as u64;
    assert_eq!(c("remo_net_dropped_frames_total"), stats.total_dropped());
    assert_eq!(c("remo_net_duplicated_frames_total"), stats.duplicated);
    assert_eq!(c("remo_net_delayed_frames_total"), stats.delayed);
    assert_eq!(c("remo_net_retransmits_total"), retransmits);
    assert_eq!(c("remo_net_abandoned_frames_total"), abandoned);

    dep.shutdown();
}

/// Collector overload sheds gracefully: with a starved collector and a
/// tiny ingress queue, the deployment must degrade (widen reporting
/// intervals, shed lowest-value readings) instead of corrupting state
/// or growing without bound — and must surface the degradation.
#[test]
fn overload_degrades_gracefully_and_recovers() {
    let _guard = remo_obs::test_guard();
    const EPOCHS: u64 = 120;
    let spec = NetSpec {
        seed: 9,
        ..NetSpec::default() // loss-free: isolate the overload path
    };
    let net = NetConfig {
        ingress_capacity: 16,
        ..NetConfig::default()
    };
    // Provisioning mismatch: the plan assumed a well-provisioned
    // collector, but the deployed one has a fraction of that budget —
    // the runtime must absorb the overload the planner never saw.
    let planned_caps = CapacityMap::uniform(10, 200.0, 10_000.0).unwrap();
    let caps = CapacityMap::uniform(10, 200.0, 30.0).unwrap(); // starved collector
    let cost = CostModel::new(2.0, 1.0).unwrap();
    let pairs = dense_pairs(10, 3);
    let catalog = AttrCatalog::new();
    let plan = Planner::default().plan_with_catalog(&pairs, &planned_caps, cost, &catalog);
    let mut dep = Deployment::launch_with_transport(
        &plan,
        &pairs,
        &caps,
        cost,
        &catalog,
        sampler(),
        HealthConfig::default(),
        TransportSpec::Lossy(spec, net),
    );

    let total = dep.run(EPOCHS);
    assert!(
        total.backpressure_signals > 0,
        "saturated collector must signal backpressure"
    );
    assert!(
        total.degrade_factor > 1,
        "reporting intervals must widen under overload"
    );
    assert!(
        total.shed_readings > 0,
        "bounded ingress must shed under overload"
    );
    assert!(
        total.ingress_depth <= 16,
        "ingress queue must stay bounded, got {}",
        total.ingress_depth
    );
    // Degradation is graceful: whatever was kept is uncorrupted, and
    // the staleness bounds honestly reflect the widened intervals.
    let s = sampler();
    for (n, a) in pairs.iter() {
        if let Some(obs) = dep.observed(n, a) {
            assert_eq!(obs.value, s(n, a, obs.produced), "corrupt store at {n}/{a}");
        }
    }
    let bounds = dep.staleness_bounds();
    let base = 1 + 1 + NetConfig::default().base_rto + 1; // period + depth(root) + rto + 1
    assert!(
        bounds
            .values()
            .all(|&b| b >= base + dep.degrade_factor() - 1),
        "declared bounds must reflect the degrade factor"
    );
    dep.shutdown();
}

/// Walks a node's parent chain the way the runtime does, so the tests
/// below can reproduce the declared closed form independently.
fn route_depth_of(dep: &Deployment, node: NodeId, tree: u32) -> u64 {
    let assignments = dep.assignments();
    let mut depth = 1u64;
    let mut cur = node;
    loop {
        let a = assignments[&cur]
            .iter()
            .find(|a| a.tree == tree)
            .expect("route stays inside the tree");
        match a.parent {
            remo_runtime::Route::Collector => return depth,
            remo_runtime::Route::Node(p) => {
                depth += 1;
                cur = p;
            }
        }
    }
}

/// `staleness_bounds()` under a nonzero degrade factor: the declared
/// per-attribute bound is exactly
/// `period·factor + depth + base_rto + 1` maximized over owning
/// nodes, so when backpressure widens the reporting interval every
/// bound moves by `period·(factor − 1)` — per attribute, scaled by
/// that attribute's own period.
#[test]
fn staleness_bounds_scale_with_the_degrade_factor() {
    let _guard = remo_obs::test_guard();
    let spec = NetSpec {
        seed: 11,
        ..NetSpec::default() // loss-free: isolate the overload path
    };
    let net = NetConfig {
        ingress_capacity: 16,
        ..NetConfig::default()
    };
    // A half-rate attribute (period 2) alongside full-rate ones, so the
    // factor multiplies different periods in the same deployment.
    let mut catalog = AttrCatalog::new();
    catalog.register(AttrInfo::new("fast"));
    catalog.register(AttrInfo::new("slow").with_frequency(0.5).unwrap());
    catalog.register(AttrInfo::new("fast2"));
    // Same provisioning mismatch as the overload soak: planned against
    // a healthy collector, deployed against a starved one.
    let planned_caps = CapacityMap::uniform(10, 200.0, 10_000.0).unwrap();
    let caps = CapacityMap::uniform(10, 200.0, 30.0).unwrap();
    let cost = CostModel::new(2.0, 1.0).unwrap();
    let pairs = dense_pairs(10, 3);
    let plan = Planner::default().plan_with_catalog(&pairs, &planned_caps, cost, &catalog);
    let mut dep = Deployment::launch_with_transport(
        &plan,
        &pairs,
        &caps,
        cost,
        &catalog,
        sampler(),
        HealthConfig::default(),
        TransportSpec::Lossy(spec, net),
    );

    // Before any backpressure the bounds are the undegraded closed
    // form, reproduced here from the launched assignments.
    assert_eq!(dep.degrade_factor(), 1);
    let before = dep.staleness_bounds();
    let base_rto = NetConfig::default().base_rto;
    let period_of = |a: AttrId| {
        (1.0 / catalog.get_or_default(a).frequency())
            .round()
            .max(1.0) as u64
    };
    let mut expected = std::collections::BTreeMap::new();
    for (&node, assigns) in dep.assignments() {
        for a in assigns {
            let depth = route_depth_of(&dep, node, a.tree);
            for la in &a.local {
                let b = period_of(la.attr) + depth + base_rto + 1;
                let slot = expected.entry(la.attr).or_insert(0);
                *slot = (*slot).max(b);
            }
        }
    }
    assert_eq!(
        before, expected,
        "undegraded bounds diverge from closed form"
    );

    // Saturate the collector until the degrade ladder engages, then
    // the declared bounds must have widened by exactly
    // `period·(factor − 1)` each.
    dep.run(120);
    let factor = dep.degrade_factor();
    assert!(factor > 1, "starved collector must widen intervals");
    let after = dep.staleness_bounds();
    for (&a, &b) in &after {
        assert_eq!(
            b - before[&a],
            period_of(a) * (factor - 1),
            "attr {a}: degraded bound must grow by period·(factor − 1)"
        );
    }
    dep.shutdown();
}

/// `staleness_bounds()` is a convergence bound, not an outage bound:
/// while a partition window holds a member incommunicado its pairs
/// run arbitrarily stale (the documented exception), and once the
/// window closes every pair settles back under the declared bound.
#[test]
fn staleness_bounds_hold_after_a_partition_window_closes() {
    let _guard = remo_obs::test_guard();
    let victim = NodeId(1);
    let spec = NetSpec {
        seed: 21,
        partitions: vec![PartitionWindow {
            name: "quarantine".into(),
            members: [victim].into_iter().collect(),
            from_epoch: 10,
            until_epoch: Some(40),
        }],
        active_until: Some(60),
        ..NetSpec::default()
    };
    let caps = CapacityMap::uniform(6, 100.0, 10_000.0).unwrap();
    let cost = CostModel::new(2.0, 1.0).unwrap();
    let pairs = dense_pairs(6, 2);
    let catalog = AttrCatalog::new();
    let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
    let mut dep = Deployment::launch_with_transport(
        &plan,
        &pairs,
        &caps,
        cost,
        &catalog,
        sampler(),
        HealthConfig::default(),
        TransportSpec::Lossy(spec, NetConfig::default()),
    );
    let bounds = dep.staleness_bounds();
    let worst = *bounds.values().max().unwrap();
    assert!(worst < 25, "bound {worst} too loose for this topology");

    // Mid-window: the victim's snapshots have been frozen since epoch
    // 9, far beyond anything the bound promises for healthy traffic.
    dep.run(35);
    for a in 0..2 {
        let obs = dep
            .observed(victim, AttrId(a))
            .expect("delivered pre-window");
        let staleness = dep.epoch() - obs.produced;
        assert!(
            staleness > bounds[&AttrId(a)],
            "victim staleness {staleness} should exceed bound {} mid-partition",
            bounds[&AttrId(a)]
        );
    }

    // The window closes at 40; by 60 (> 40 + worst bound) every pair —
    // including the quarantined node's — is back under its bound.
    dep.run(25);
    for (n, a) in pairs.iter() {
        let obs = dep.observed(n, a).expect("pair observed after healing");
        let staleness = dep.epoch() - obs.produced;
        assert!(
            staleness <= bounds[&a],
            "{n}/{a} staleness {staleness} over bound {} after window closed",
            bounds[&a]
        );
    }
    dep.shutdown();
}

/// Fast seeded lossy soak for the `--net-smoke` CI gate (<2s): node
/// failure + drops + delay + partition over 80 epochs, asserting
/// convergence and zero corruption.
#[test]
fn net_smoke_mini_soak() {
    let _guard = remo_obs::test_guard();
    const EPOCHS: u64 = 80;
    let spec = NetSpec {
        seed: 77,
        drop: 0.08,
        delay_max: 1,
        dup: 0.05,
        reorder: 0.1,
        partitions: vec![PartitionWindow {
            name: "blip".into(),
            members: [NodeId(2)].into_iter().collect(),
            from_epoch: 30,
            until_epoch: Some(40),
        }],
        active_until: Some(60),
        ..NetSpec::default()
    };
    let (mut dep, pairs) = lossy_self_healing(6, 2, spec, NetConfig::default());
    let mut schedule = FailureSchedule::new();
    schedule.add(Outage::node(NodeId(4), 20, Some(35)));
    let mut chaos = ChaosDriver::new(schedule);
    let reports = chaos.run(&mut dep, EPOCHS);

    assert!(reports.iter().map(|r| r.retransmit_messages).sum::<u64>() > 0);
    // Silent from 20, K = 2: confirmed and repaired at 21; the outage
    // ends with 35, so the node is back at 36.
    let at = |e: u64| &reports[e as usize - 1];
    assert_eq!((at(21).confirmed_dead, at(21).repaired), (1, 1));
    assert_eq!(at(36).recovered, 1);
    assert_eq!(reports.iter().map(|r| r.confirmed_dead).sum::<u64>(), 1);
    assert_eq!(reports.iter().map(|r| r.recovered).sum::<u64>(), 1);
    let s = sampler();
    let bounds = dep.staleness_bounds();
    for (n, a) in pairs.iter() {
        let obs = dep.observed(n, a).expect("pair observed");
        assert_eq!(obs.value, s(n, a, obs.produced), "corrupt store at {n}/{a}");
        let staleness = dep.epoch() - obs.produced;
        assert!(
            staleness <= bounds[&a],
            "{n}/{a} staleness {staleness} over bound {}",
            bounds[&a]
        );
    }
    dep.shutdown();
}
