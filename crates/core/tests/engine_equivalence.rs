//! Cache independence of the one planner engine.
//!
//! `PlannerConfig::cache` sets whether tree builds are memoized in a
//! [`TreeCache`] for the length of one planning call. It may only
//! change how fast the search runs: every test here asserts the *plan*
//! is the same byte for byte, and the first also that the
//! [`PlanReport`] counters are.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use remo_core::alloc::AllocationScheme;
use remo_core::build::BuilderKind;
use remo_core::planner::{InitialPartition, PlanReport, Planner, PlannerConfig, StopReason};
use remo_core::validate::{Audit, AuditInput};
use remo_core::{
    AttrCatalog, AttrId, CapacityMap, CostModel, MonitoringPlan, NodeId, PairSet, TreeCache,
};

const NODES: usize = 7;
const ATTRS: u32 = 18;

fn pair_set(raw: &[(u32, u32)]) -> PairSet {
    raw.iter()
        .map(|&(n, a)| (NodeId(n % NODES as u32), AttrId(a % ATTRS)))
        .collect()
}

/// The plan as JSON and the report with its wall-time fields zeroed,
/// leaving the counters, the stop reason and the skipped rounds.
fn plan_and_counters(
    config: PlannerConfig,
    pairs: &PairSet,
    caps: &CapacityMap,
    cost: CostModel,
    catalog: &AttrCatalog,
) -> (String, PlanReport) {
    let (plan, report) = Planner::new(config).plan_with_report(pairs, caps, cost, catalog);
    let counters = PlanReport {
        seed_ms: 0.0,
        rank_ms: 0.0,
        local_ms: 0.0,
        global_ms: 0.0,
        ..report
    };
    (
        serde_json::to_string(&plan).expect("plan serializes"),
        counters,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Across every builder × allocation × initial-partition
    /// combination, planning with and without the tree cache produces
    /// byte-identical `MonitoringPlan`s and equal search counters — and
    /// ends for the same reason after skipping the same rounds: cycle
    /// detection reads the search state, which the cache cannot reach.
    /// `parallelism` is read and ignored, so the cached run also takes
    /// its default.
    #[test]
    fn plans_and_counters_do_not_depend_on_workers_or_cache(
        raw in prop::collection::vec((0u32..NODES as u32, 0u32..ATTRS), 1..80),
        per_node in 6.0f64..40.0,
        collector in 60.0f64..400.0,
    ) {
        let pairs = pair_set(&raw);
        let caps = CapacityMap::uniform(NODES, per_node, collector).expect("caps");
        let cost = CostModel::default();
        let catalog = AttrCatalog::new();

        let builders = [
            BuilderKind::Star,
            BuilderKind::Chain,
            BuilderKind::MaxAvb,
            BuilderKind::default(),
        ];
        let allocations = [
            AllocationScheme::Uniform,
            AllocationScheme::Proportional,
            AllocationScheme::OnDemand,
            AllocationScheme::Ordered,
        ];
        let initials = [InitialPartition::Singleton, InitialPartition::OneSet];
        for builder in builders {
            for allocation in allocations {
                for initial in initials {
                    let run = |parallelism: usize, cache: bool| {
                        let config = PlannerConfig {
                            builder,
                            allocation,
                            initial,
                            parallelism,
                            cache,
                            ..PlannerConfig::default()
                        };
                        plan_and_counters(config, &pairs, &caps, cost, &catalog)
                    };
                    let reference = run(1, false);
                    // `stop` and `rounds_skipped` are compared with the
                    // rest of the report below; here, that they agree.
                    let report = &reference.1;
                    prop_assert_eq!(
                        matches!(report.stop, StopReason::Cycle { .. }),
                        report.rounds_skipped > 0
                    );
                    prop_assert_eq!(
                        &reference,
                        &run(0, true),
                        "the cache diverged ({:?}/{:?}/{:?})",
                        builder, allocation, initial
                    );
                }
            }
        }
    }
}

/// A cache warmed by one planning run serves the next identical run —
/// and the plan assembled from cache-served trees is byte-identical to
/// the cold plan and passes the full audit rule set.
#[test]
fn cache_served_plans_are_identical_and_audit_clean() {
    let raw: Vec<(u32, u32)> = (0..60).map(|i| (i % 7, (i * 5) % 17)).collect();
    let pairs = pair_set(&raw);
    let caps = CapacityMap::uniform(NODES, 25.0, 300.0).expect("caps");
    let cost = CostModel::default();
    let catalog = AttrCatalog::new();
    let planner = Planner::new(PlannerConfig {
        cache: true,
        ..PlannerConfig::default()
    });

    let cache = TreeCache::new();
    let cold = planner
        .plan_with_report_cached(&pairs, &caps, cost, &catalog, Some(&cache))
        .0;
    let after_cold = cache.stats();
    assert!(after_cold.misses > 0, "cold run must populate the cache");

    let warm = planner
        .plan_with_report_cached(&pairs, &caps, cost, &catalog, Some(&cache))
        .0;
    let after_warm = cache.stats();
    assert!(
        after_warm.hits > after_cold.hits,
        "warm run must be served from the cache (hits {} -> {})",
        after_cold.hits,
        after_warm.hits
    );

    let cold_json = serde_json::to_string(&cold).expect("plan serializes");
    let warm_json = serde_json::to_string(&warm).expect("plan serializes");
    assert_eq!(cold_json, warm_json, "cache-served plan diverged");

    let audit = |plan: &MonitoringPlan| {
        let input = AuditInput::new(plan, &pairs, &caps, cost, &catalog)
            .aggregation_aware(planner.config().aggregation_aware)
            .frequency_aware(planner.config().frequency_aware);
        Audit::default().run(&input)
    };
    let outcome = audit(&warm);
    assert!(
        outcome.is_clean(),
        "cache-served plan failed the audit:\n{}",
        outcome.render()
    );
}
