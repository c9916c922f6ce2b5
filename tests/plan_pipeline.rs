//! End-to-end planning pipeline tests: task generation → deduplication
//! → planning, across partition schemes, builders, and allocation
//! schemes.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use remo::prelude::*;
use remo_audit::{Audit, AuditInput};
use remo_core::alloc::AllocationScheme;
use remo_core::build::{AdjustConfig, BuilderKind};
use remo_core::planner::{PartitionScheme, PlanReport, PlannerConfig, StopReason};
use remo_core::TaskId;

fn scenario(nodes: usize, attrs: usize, tasks: usize, budget: f64) -> Scenario {
    Scenario::with_taskgen(
        &ScenarioConfig {
            nodes,
            attrs,
            tasks,
            node_budget: budget,
            collector_budget: budget * nodes as f64 / 4.0,
            c_over_a: 2.0,
            seed: 99,
        },
        &TaskGenConfig::small_scale(nodes, attrs),
    )
}

#[test]
fn all_schemes_respect_capacity_invariants() {
    let s = scenario(40, 30, 40, 20.0);
    let planner = Planner::default();
    let catalog = AttrCatalog::new();
    for scheme in [
        PartitionScheme::SingletonSet,
        PartitionScheme::OneSet,
        PartitionScheme::Remo,
    ] {
        let plan = scheme.plan(&planner, &s.pairs, &s.caps, s.cost, &catalog);
        // The audit engine re-proves every paper invariant from the
        // plan alone: budgets, disjointness, coverage accounting, tree
        // structure, allocation conservation, and the cost model.
        let outcome =
            Audit::new().run(&AuditInput::new(&plan, &s.pairs, &s.caps, s.cost, &catalog));
        assert!(
            outcome.is_clean(),
            "{scheme:?} failed its audit:\n{}",
            outcome.render()
        );
        // Spot-check a few invariants directly so this test does not
        // depend solely on the audit engine agreeing with itself.
        for (n, u) in plan.node_usage() {
            assert!(
                u <= s.caps.node(n).unwrap() + 1e-6,
                "{scheme:?}: node {n} over budget"
            );
        }
        assert!(plan.collector_usage() <= s.caps.collector() + 1e-6);
        assert!(plan.partition().is_valid());
        assert_eq!(plan.demanded_pairs(), s.pairs.len());
    }
}

#[test]
fn remo_dominates_baselines_across_loads() {
    let planner = Planner::default();
    let catalog = AttrCatalog::new();
    for budget in [10.0, 20.0, 40.0] {
        let s = scenario(30, 24, 30, budget);
        let score = |scheme: PartitionScheme| {
            scheme
                .plan(&planner, &s.pairs, &s.caps, s.cost, &catalog)
                .collected_pairs()
        };
        let remo = score(PartitionScheme::Remo);
        let sp = score(PartitionScheme::SingletonSet);
        let op = score(PartitionScheme::OneSet);
        assert!(
            remo >= sp.max(op),
            "budget {budget}: remo {remo} below baselines (sp {sp}, op {op})"
        );
    }
}

#[test]
fn every_collected_pair_is_actually_routed() {
    // Cross-check the plan's collected count against the tree
    // structures: summing per-node local loads over included nodes must
    // reproduce collected_pairs.
    let s = scenario(25, 20, 25, 25.0);
    let plan = Planner::default().plan(&s.pairs, &s.caps, s.cost);
    for (set, planned) in plan.partition().sets().iter().zip(plan.trees()) {
        let from_tree: usize = planned
            .tree
            .as_ref()
            .map(|t| {
                t.nodes()
                    .map(|n| s.pairs.node_load_in(n, set))
                    .sum::<usize>()
            })
            .unwrap_or(0);
        assert_eq!(from_tree, planned.collected_pairs);
    }
}

#[test]
fn builders_form_expected_shapes_at_scale() {
    let s = scenario(30, 6, 10, 1_000.0);
    let catalog = AttrCatalog::new();
    let shape = |kind: BuilderKind| {
        let cfg = PlannerConfig {
            builder: kind,
            ..PlannerConfig::default()
        };
        let plan = Planner::new(cfg)
            .evaluate_partition(
                &remo_core::Partition::one_set(s.pairs.attr_universe()),
                &s.pairs,
                &s.caps,
                s.cost,
                &catalog,
            )
            .into_plan();
        plan.trees()[0]
            .tree
            .as_ref()
            .map(|t| t.height())
            .unwrap_or(0)
    };
    let star = shape(BuilderKind::Star);
    let chain = shape(BuilderKind::Chain);
    assert!(
        star < chain,
        "star {star} should be shallower than chain {chain}"
    );
}

#[test]
fn adaptive_builder_beats_simple_builders_under_pressure() {
    let s = scenario(40, 10, 40, 14.0);
    let catalog = AttrCatalog::new();
    let collect = |kind: BuilderKind| {
        let cfg = PlannerConfig {
            builder: kind,
            ..PlannerConfig::default()
        };
        Planner::new(cfg)
            .evaluate_partition(
                &remo_core::Partition::singleton(s.pairs.attr_universe()),
                &s.pairs,
                &s.caps,
                s.cost,
                &catalog,
            )
            .into_plan()
            .collected_pairs()
    };
    let adaptive = collect(BuilderKind::Adaptive(AdjustConfig::default()));
    for kind in [BuilderKind::Star, BuilderKind::Chain, BuilderKind::MaxAvb] {
        let other = collect(kind);
        assert!(
            adaptive >= other,
            "{kind:?} collected {other} > adaptive {adaptive}"
        );
    }
}

#[test]
fn allocation_schemes_ranked_as_paper_reports() {
    // Fig. 11 ordering: ORDERED ≥ ON-DEMAND ≥ max(UNIFORM, PROPORTIONAL)
    // on mixed-size trees. We assert the ends of the ordering.
    let mut rng = SmallRng::seed_from_u64(4);
    let gen = TaskGenConfig::small_scale(35, 25);
    let tasks = gen.generate(45, TaskId(0), &mut rng);
    let pairs: PairSet = tasks.iter().flat_map(|t| t.pairs()).collect();
    let caps = CapacityMap::uniform(35, 15.0, 200.0).unwrap();
    let cost = CostModel::new(2.0, 1.0).unwrap();
    let catalog = AttrCatalog::new();
    let collect = |alloc: AllocationScheme| {
        let cfg = PlannerConfig {
            allocation: alloc,
            ..PlannerConfig::default()
        };
        Planner::new(cfg)
            .evaluate_partition(
                &remo_core::Partition::singleton(pairs.attr_universe()),
                &pairs,
                &caps,
                cost,
                &catalog,
            )
            .into_plan()
            .collected_pairs()
    };
    let ordered = collect(AllocationScheme::Ordered);
    let uniform = collect(AllocationScheme::Uniform);
    assert!(
        ordered >= uniform,
        "ordered {ordered} must match or beat uniform {uniform}"
    );
}

#[test]
fn task_manager_round_trips_through_planner() {
    let mut tm = TaskManager::new();
    tm.add(MonitoringTask::new(
        TaskId(0),
        (0..3).map(AttrId),
        (0..10).map(NodeId),
    ))
    .unwrap();
    tm.add(MonitoringTask::new(
        TaskId(1),
        (1..4).map(AttrId),
        (5..15).map(NodeId),
    ))
    .unwrap();
    let caps = CapacityMap::uniform(15, 100.0, 1_000.0).unwrap();
    let plan = Planner::default().plan(&tm.pairs(), &caps, CostModel::default());
    assert_eq!(plan.coverage(), 1.0, "ample capacity collects everything");
    // Remove a task: fewer pairs demanded.
    tm.apply(TaskChange::Remove(TaskId(1))).unwrap();
    let plan2 = Planner::default().plan(&tm.pairs(), &caps, CostModel::default());
    assert!(plan2.demanded_pairs() < plan.demanded_pairs());
}

/// One of the benchmark's planning shapes: 100 attributes, `tasks`
/// small-scale tasks, node capacity `node_capacity` x pairs / attrs,
/// collector capacity `collector_capacity` x nodes, C/a = 20; planned
/// with the default configuration up to `max_rounds`.
fn plan_shape(
    nodes: usize,
    tasks: usize,
    node_capacity: f64,
    collector_capacity: f64,
    max_rounds: usize,
) -> (MonitoringPlan, PlanReport) {
    let attrs = 100;
    let mut rng = SmallRng::seed_from_u64(2009);
    let tasks = TaskGenConfig::small_scale(nodes, attrs).generate(tasks, TaskId(0), &mut rng);
    let pairs: PairSet = tasks.iter().flat_map(|t| t.pairs()).collect();
    let caps = CapacityMap::uniform(
        nodes,
        node_capacity * pairs.len() as f64 / attrs as f64,
        collector_capacity * nodes as f64,
    )
    .unwrap();
    let planner = Planner::new(PlannerConfig {
        max_rounds,
        ..PlannerConfig::default()
    });
    let cost = CostModel::from_ratio(20.0).unwrap();
    planner.plan_with_report(&pairs, &caps, cost, &AttrCatalog::new())
}

/// FNV-1a of the plan's JSON: one number that moves if any tree edge,
/// usage float, exclusion or partition set does.
fn plan_digest(
    nodes: usize,
    node_capacity: f64,
    collector_capacity: f64,
) -> (u64, f64, PlanReport) {
    let (plan, report) = plan_shape(nodes, 150, node_capacity, collector_capacity, 128);
    let json = serde_json::to_string(&plan).unwrap();
    let digest = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (digest, plan.coverage(), report)
}

/// The plans of the benchmark's two planning shapes (`plan-feasible`:
/// capacity 8x the mean per-attribute load at n = 1000, C/a = 20;
/// `plan-saturated`: 0.35x), scaled to n = 300 with the per-node demand
/// and capacity kept (so 27x and 1.2x of a 3.3x smaller mean). The
/// digests were taken before the tree kernel was reworked (challenger
/// pruning, dense tracker, linear relief sweeps) and before the search
/// learned to skip the laps of a cycle and to build a repeated seed
/// forest once: kernel and search optimisations must be invisible here.
/// What they may change is the work the report counts: the feasible
/// search starts its four distinct seed forests, abandons the two that
/// cannot reach the singleton seed's pair count, and converges; the
/// starved one builds one forest for its two singleton-partition seeds
/// and stops on a proven cycle instead of at the 128-round cap.
#[test]
fn default_planner_plans_are_pinned() {
    let (feasible, coverage, report) = plan_digest(300, 27.0, 1_000.0);
    assert!(
        coverage > 0.99,
        "feasible shape must be feasible ({coverage})"
    );
    assert_eq!(format!("{feasible:016x}"), "f16dcf893b88d2ec");
    assert_eq!(report.seeds_evaluated, 4, "{report:?}");
    assert_eq!(report.seeds_abandoned, 2, "{report:?}");
    assert_eq!(report.stop, StopReason::Converged, "{report:?}");
    assert_eq!(report.rounds_skipped, 0, "{report:?}");

    let (starved, coverage, report) = plan_digest(300, 1.2, 40.0);
    assert!(coverage < 0.5, "starved shape must be starved ({coverage})");
    assert_eq!(format!("{starved:016x}"), "224d727729e2dfb4");
    assert_eq!(report.seeds_evaluated, 1, "{report:?}");
    assert_eq!(report.seeds_abandoned, 0, "{report:?}");
    assert!(
        matches!(report.stop, StopReason::Cycle { .. }),
        "{report:?}"
    );
    assert_eq!(report.rounds + report.rounds_skipped, 128, "{report:?}");
    assert!(report.rounds <= 32, "{report:?}");
}

/// `benchmark/README.md` found that on the saturated shape at n = 1 000
/// the search used every round it was given — 0.05 s at 128 rounds,
/// 17.5 s at 100 000 — for the same plan. The cap is now only the
/// logical length of the search: here the state first repeats after a
/// few hundred rounds (99 tolerant merges, then the 99 splits that undo
/// them: period 198), one more lap proves it, and the other ~99 000
/// rounds are skipped.
#[test]
fn raising_the_round_cap_stops_costing_once_the_search_cycles() {
    let (short, capped) = plan_shape(1_000, 500, 0.35, 40.0, 128);
    let (long, report) = plan_shape(1_000, 500, 0.35, 40.0, 100_000);
    assert!(short.coverage() < 0.2, "saturated ({})", short.coverage());
    assert_eq!(capped.stop, StopReason::RoundCap, "{capped:?}");
    assert_eq!(report.stop, StopReason::Cycle { period: 198 }, "{report:?}");
    assert!(report.rounds <= 2_048, "{report:?}");
    assert_eq!(report.rounds + report.rounds_skipped, 100_000);
    assert_eq!(long.collected_pairs(), short.collected_pairs());
    assert_eq!(
        long.message_volume().to_bits(),
        short.message_volume().to_bits()
    );
}
