//! The work ledger: exact counts of what the planner and the tree
//! kernel do on scaled-down versions of the benchmark's planning
//! workloads.
//!
//! A timing drifts with the host; a count does not. Each test runs one
//! shape at a fixed seed on one worker (so cache hits do not depend on
//! which thread got there first) and pins every work counter the run
//! exports: seeds evaluated and abandoned, candidates cut, cache hits
//! and misses, challenger fates, relief sweeps, attach attempts and
//! `propagate` steps. A change that makes the search or the kernel do
//! more or less work moves a pin; a change that only makes the same
//! work cheaper leaves every pin where it was. Re-pin only for an
//! intended, explained change of the work.
//!
//! Every test takes [`remo_obs::test_guard`]: the registry and the
//! enabled flag are process-wide.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use remo_core::adapt::{AdaptScheme, AdaptivePlanner};
use remo_core::planner::{PlanReport, Planner, PlannerConfig};
use remo_core::{
    AttrCatalog, AttrId, CapacityMap, CostModel, MonitoringTask, NodeId, PairSet, TaskChange,
    TaskId, TaskManager,
};
use std::collections::BTreeSet;

/// SplitMix64: a self-contained seeded stream, so the pins do not
/// depend on any generator library's algorithm.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    /// `k` distinct values below `n`.
    fn distinct(&mut self, n: usize, k: usize) -> BTreeSet<u32> {
        let mut out = BTreeSet::new();
        while out.len() < k.min(n) {
            out.insert(self.range(0, n - 1) as u32);
        }
        out
    }
}

/// A small-scale task (paper §7): 2 to `attrs / 10` attributes on 2 to
/// `nodes / 10` nodes, both clamped to 2..=8 and 2..=10 like the
/// benchmark's generator.
fn task(id: TaskId, nodes: usize, attrs: usize, rng: &mut Mix) -> MonitoringTask {
    let n_attrs = rng.range(2, (attrs / 10).clamp(2, 8));
    let n_nodes = rng.range(2, (nodes / 10).clamp(2, 10));
    MonitoringTask::new(
        id,
        rng.distinct(attrs, n_attrs).into_iter().map(AttrId),
        rng.distinct(nodes, n_nodes).into_iter().map(NodeId),
    )
}

fn tasks(count: usize, nodes: usize, attrs: usize, rng: &mut Mix) -> Vec<MonitoringTask> {
    (0..count)
        .map(|i| task(TaskId(i as u32), nodes, attrs, rng))
        .collect()
}

/// One worker: the cache's hit count is then a function of the input.
fn planner() -> Planner {
    Planner::new(PlannerConfig {
        parallelism: 1,
        ..PlannerConfig::default()
    })
}

/// The benchmark's planning cost model: C/a = 20.
fn cost() -> CostModel {
    CostModel::from_ratio(20.0).unwrap()
}

/// The work counters the registry holds, one `name value` line each
/// (`remo_` and `_total` trimmed), in name order.
fn ledger() -> String {
    let text = remo_obs::registry::registry().render_prometheus();
    let samples = remo_obs::summary::parse_prometheus(&text).unwrap();
    let mut out = String::new();
    for (name, value) in &samples {
        let tracked = [
            "remo_planner_seeds_abandoned_total",
            "remo_planner_candidates_cut_total",
            "remo_planner_cache_hits_total",
            "remo_planner_cache_misses_total",
            "remo_build_relief_sweeps_total",
            "remo_build_attach_attempts_total",
            "remo_build_propagate_steps_total",
        ]
        .contains(&name.as_str())
            || name.starts_with("remo_build_challengers_");
        if tracked {
            let short = name.trim_start_matches("remo_").trim_end_matches("_total");
            out.push_str(&format!("{short} {value}\n"));
        }
    }
    out
}

/// Runs `work` with the registry reset and observability on, and
/// returns the ledger it leaves.
fn counted(work: impl FnOnce() -> String) -> String {
    let _g = remo_obs::test_guard();
    remo_obs::registry::registry().reset();
    remo_obs::enable();
    let head = work();
    remo_obs::disable();
    head + &ledger()
}

/// A cold plan of `count` tasks over `nodes` × `attrs` with node
/// capacity `node_capacity` × pairs ÷ attrs and collector capacity
/// `collector_capacity` × nodes, the benchmark's plan shapes' rule.
fn cold_plan(
    seed: u64,
    (nodes, attrs, count): (usize, usize, usize),
    node_capacity: f64,
    collector_capacity: f64,
) -> String {
    let pairs: PairSet = tasks(count, nodes, attrs, &mut Mix(seed))
        .iter()
        .flat_map(MonitoringTask::pairs)
        .collect();
    let per_node = node_capacity * pairs.len() as f64 / attrs as f64;
    let caps = CapacityMap::uniform(nodes, per_node, collector_capacity * nodes as f64).unwrap();
    counted(|| {
        let (plan, report) = planner().plan_with_report(&pairs, &caps, cost(), &AttrCatalog::new());
        let PlanReport {
            seeds_evaluated,
            rounds,
            local_evals,
            global_evals,
            ..
        } = report;
        format!(
            "pairs {}/{}\nseeds_evaluated {seeds_evaluated}\nrounds {rounds}\n\
             local_evals {local_evals}\nglobal_evals {global_evals}\n",
            plan.collected_pairs(),
            plan.demanded_pairs(),
        )
    })
}

fn assert_ledger(actual: &str, expected: &[&str]) {
    let lines: Vec<&str> = actual.lines().collect();
    assert_eq!(
        lines, expected,
        "the work ledger moved; if the change of work is intended, re-pin with:\n{lines:#?}"
    );
}

/// `plan-feasible` scaled down: capacity suffices, the search converges
/// in a few rounds and the global phase runs.
#[test]
fn feasible_cold_plan_work_is_pinned() {
    let got = cold_plan(1, (400, 40, 200), 8.0, 1_000.0);
    assert_ledger(
        &got,
        &[
            "pairs 3155/3155",
            "seeds_evaluated 4",
            "rounds 3",
            "local_evals 18",
            "global_evals 7",
            "build_attach_attempts 11010",
            "build_challengers_built_chain 0",
            "build_challengers_built_max_avb 0",
            "build_challengers_built_star 89",
            "build_challengers_forked_chain 2",
            "build_challengers_forked_max_avb 4",
            "build_challengers_skipped_chain 87",
            "build_challengers_skipped_max_avb 85",
            "build_challengers_skipped_star 0",
            "build_propagate_steps 74230",
            "build_relief_sweeps 18",
            "planner_cache_hits 11",
            "planner_cache_misses 89",
            "planner_candidates_cut 16",
            "planner_seeds_abandoned 3",
        ],
    );
}

/// `plan-saturated` scaled down: capacity-starved, most of the demand
/// stays out, relief sweeps and cut candidates dominate.
#[test]
fn saturated_cold_plan_work_is_pinned() {
    let got = cold_plan(2, (1_000, 20, 400), 0.35, 40.0);
    assert_ledger(
        &got,
        &[
            "pairs 360/4316",
            "seeds_evaluated 1",
            "rounds 128",
            "local_evals 128",
            "global_evals 0",
            "build_attach_attempts 4607",
            "build_challengers_built_chain 0",
            "build_challengers_built_max_avb 0",
            "build_challengers_built_star 107",
            "build_challengers_forked_chain 107",
            "build_challengers_forked_max_avb 107",
            "build_challengers_skipped_chain 0",
            "build_challengers_skipped_max_avb 0",
            "build_challengers_skipped_star 0",
            "build_propagate_steps 42854",
            "build_relief_sweeps 116",
            "planner_cache_hits 105",
            "planner_cache_misses 107",
            "planner_candidates_cut 0",
            "planner_seeds_abandoned 0",
        ],
    );
}

/// `adapt-churn` scaled down: 20 task add / remove / modify events
/// against one adaptive planner with its warm tree cache.
#[test]
fn churn_stream_work_is_pinned() {
    const NODES: usize = 100;
    const ATTRS: usize = 20;
    let mut rng = Mix(3);
    let mut tm = TaskManager::new();
    for t in tasks(50, NODES, ATTRS, &mut rng) {
        tm.add(t).unwrap();
    }
    let caps = CapacityMap::uniform(NODES, 400.0, 40.0 * NODES as f64).unwrap();
    let got = counted(|| {
        let mut ap = AdaptivePlanner::new(
            planner(),
            AdaptScheme::Adaptive,
            tm.pairs(),
            caps,
            cost(),
            AttrCatalog::new(),
        );
        let mut rebuilt = 0;
        for now in 1..=20 {
            let change = match rng.range(0, 2) {
                0 => TaskChange::Add(task(tm.next_id(), NODES, ATTRS, &mut rng)),
                1 => {
                    let ids: Vec<TaskId> = tm.iter().map(MonitoringTask::id).collect();
                    TaskChange::Remove(ids[rng.range(0, ids.len() - 1)])
                }
                _ => {
                    let ids: Vec<TaskId> = tm.iter().map(MonitoringTask::id).collect();
                    let victim = tm.get(ids[rng.range(0, ids.len() - 1)]).unwrap().clone();
                    let fresh = task(victim.id(), NODES, ATTRS, &mut rng);
                    TaskChange::Modify {
                        id: victim.id(),
                        attrs: fresh.attrs().clone(),
                        nodes: victim.nodes().clone(),
                    }
                }
            };
            tm.apply(change).unwrap();
            rebuilt += ap.update(tm.pairs(), now).trees_rebuilt;
        }
        format!(
            "pairs {}/{}\ntrees_rebuilt {rebuilt}\n",
            ap.plan().collected_pairs(),
            ap.plan().demanded_pairs()
        )
    });
    assert_ledger(
        &got,
        &[
            "pairs 507/518",
            "trees_rebuilt 46",
            "build_attach_attempts 54233",
            "build_challengers_built_chain 0",
            "build_challengers_built_max_avb 0",
            "build_challengers_built_star 406",
            "build_challengers_forked_chain 190",
            "build_challengers_forked_max_avb 193",
            "build_challengers_skipped_chain 216",
            "build_challengers_skipped_max_avb 213",
            "build_challengers_skipped_star 0",
            "build_propagate_steps 929851",
            "build_relief_sweeps 574",
            "planner_cache_hits 5",
            "planner_cache_misses 406",
            "planner_candidates_cut 44",
            "planner_seeds_abandoned 1",
        ],
    );
}
