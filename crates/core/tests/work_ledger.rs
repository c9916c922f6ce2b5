//! The work ledger: exact counts of what the planner and the tree
//! kernel do on scaled-down versions of the benchmark's planning
//! workloads.
//!
//! A timing drifts with the host; a count does not. Each test runs one
//! shape at a fixed seed and pins every work counter the run
//! exports: seeds evaluated and abandoned, candidates cut, cache hits
//! and misses, challenger fates (and which challengers displaced the
//! incumbent), relief sweeps, attach attempts and `propagate` steps,
//! and on the churn stream the trees each adaptation's base step
//! rebuilt apart from those its restricted search built. A
//! change that makes the search or the kernel do more or less work
//! moves a pin; a change that only makes the same work cheaper leaves
//! every pin where it was. Re-pin only for an intended, explained
//! change of the work.
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

fn planner() -> Planner {
    Planner::new(PlannerConfig::default())
}

/// The benchmark's planning cost model: C/a = 20.
fn cost() -> CostModel {
    CostModel::from_ratio(20.0).unwrap()
}

/// The work counters the registry holds, one `name value` line each
/// (`remo_` and `_total` trimmed), in name order. `adapt` adds the
/// adaptive planner's build split (base rebuilds, search builds), which
/// a cold plan never ticks.
fn ledger(adapt: bool) -> String {
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
            || name.starts_with("remo_build_challengers_")
            || (adapt && name.starts_with("remo_adapt_"));
        if tracked {
            let short = name.trim_start_matches("remo_").trim_end_matches("_total");
            out.push_str(&format!("{short} {value}\n"));
        }
    }
    out
}

/// Runs `work` with the registry reset and observability on, and
/// returns the ledger it leaves.
fn counted(adapt: bool, work: impl FnOnce() -> String) -> String {
    let _g = remo_obs::test_guard();
    remo_obs::registry::registry().reset();
    remo_obs::enable();
    let head = work();
    remo_obs::disable();
    head + &ledger(adapt)
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
    counted(false, || {
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
            "build_attach_attempts 10780",
            "build_challengers_built_star 89",
            "build_challengers_forked_max_avb 4",
            "build_challengers_skipped_max_avb 85",
            "build_challengers_skipped_star 0",
            "build_challengers_won_max_avb 2",
            "build_challengers_won_star 0",
            "build_propagate_steps 60184",
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
            "build_attach_attempts 4478",
            "build_challengers_built_star 107",
            "build_challengers_forked_max_avb 107",
            "build_challengers_skipped_max_avb 0",
            "build_challengers_skipped_star 0",
            "build_challengers_won_max_avb 0",
            "build_challengers_won_star 0",
            "build_propagate_steps 40699",
            "build_relief_sweeps 116",
            "planner_cache_hits 105",
            "planner_cache_misses 107",
            "planner_candidates_cut 0",
            "planner_seeds_abandoned 0",
        ],
    );
}

/// `adapt-churn` scaled down: 20 task add / remove / modify events
/// against one adaptive planner. Only its initial cold plan is cached;
/// the updates build uncached.
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
    let got = counted(true, || {
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
            "adapt_base_builds 46",
            "adapt_search_builds 294",
            "build_attach_attempts 48394",
            "build_challengers_built_star 411",
            "build_challengers_forked_max_avb 194",
            "build_challengers_skipped_max_avb 217",
            "build_challengers_skipped_star 0",
            "build_challengers_won_max_avb 18",
            "build_challengers_won_star 15",
            "build_propagate_steps 697656",
            "build_relief_sweeps 583",
            "planner_cache_hits 0",
            "planner_cache_misses 71",
            "planner_candidates_cut 44",
            "planner_seeds_abandoned 1",
        ],
    );
}
