//! Fig. 12 — extension techniques.
//!
//! 12a: aggregation-awareness and frequency-awareness, alone and
//! combined, normalized to the basic (oblivious) REMO planner. Paper
//! shape: close to +50% collected values when combined.
//!
//! 12b: reliability with replication factor 2 — REMO's SSDP rewriting
//! (REMO-2) versus naive duplication under SINGLETON-SET
//! (SINGLETON-SET-2) and ONE-SET (ONE-SET-2), as tasks grow. Paper
//! shape: REMO-2 collects the most at every scale.

// Benchmark scaffolding: inputs are compile-time constants, so a
// failed unwrap is a broken harness, not a runtime error path.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use remo_bench::{f3, Reporter};
use remo_core::planner::{Planner, PlannerConfig};
use remo_core::reliability::rewrite_ssdp;
use remo_core::{
    Aggregation, AttrCatalog, AttrId, AttrInfo, CapacityMap, CostModel, MonitoringTask, PairSet,
    Partition, TaskId,
};
use remo_workloads::TaskGenConfig;

fn main() {
    fig12a();
    fig12b();
}

/// 12a — MAX-aggregation tasks with half the attributes at half
/// update frequency; collected pairs normalized to the basic planner.
fn fig12a() {
    let mut rep = Reporter::new("fig12a_awareness");
    rep.header(&["variant", "collected_ratio"]);

    let nodes = 40usize;
    let n_attrs = 30usize;
    let mut catalog = AttrCatalog::new();
    let mut attrs = Vec::new();
    for i in 0..n_attrs {
        // Half the attribute types are MAX-aggregable health metrics,
        // half are holistic; within each class, half update at half
        // rate — so each awareness dimension has separate headroom.
        let mut info = AttrInfo::new(format!("m{i}"));
        if i % 2 == 0 {
            info = info.with_aggregation(Aggregation::Max);
        }
        if (i / 2) % 2 == 1 {
            info = info.with_frequency(0.25).expect("valid frequency");
        }
        attrs.push(catalog.register(info));
    }
    let mut pairs = PairSet::new();
    let mut rng = SmallRng::seed_from_u64(3);
    let gen = TaskGenConfig::small_scale(nodes, n_attrs);
    for t in gen.generate(40, TaskId(0), &mut rng) {
        for (n, a) in t.pairs() {
            pairs.insert(n, AttrId(attrs[a.index() % n_attrs].0));
        }
    }
    // Tight collector so funnel savings decide who fits.
    let caps = CapacityMap::uniform(nodes, 90.0, 700.0).expect("caps");
    let cost = CostModel::new(10.0, 1.0).expect("cost");

    let run = |agg: bool, freq: bool| {
        let plan = Planner::new(PlannerConfig {
            aggregation_aware: agg,
            frequency_aware: freq,
            ..PlannerConfig::default()
        })
        .plan_with_catalog(&pairs, &caps, cost, &catalog);
        // Self-audit with the same extension flags the planner used.
        let outcome = remo_core::validate::Audit::new().run(
            &remo_core::validate::AuditInput::new(&plan, &pairs, &caps, cost, &catalog)
                .aggregation_aware(agg)
                .frequency_aware(freq),
        );
        assert!(
            outcome.is_clean(),
            "fig12a plan failed its audit:\n{}",
            outcome.render()
        );
        plan.collected_pairs() as f64
    };
    let base = run(false, false).max(1.0);
    rep.row(&[&"BASIC", &f3(1.0)]);
    rep.row(&[&"AGGREGATION-AWARE", &f3(run(true, false) / base)]);
    rep.row(&[&"FREQUENCY-AWARE", &f3(run(false, true) / base)]);
    rep.row(&[&"BOTH", &f3(run(true, true) / base)]);
}

/// 12b — replication ×2 via SSDP rewriting versus naive duplication.
fn fig12b() {
    let mut rep = Reporter::new("fig12b_replication");
    rep.header(&["tasks", "variant", "collected_pct"]);

    let nodes = 40usize;
    let n_attrs = 30usize;
    let cost = CostModel::new(20.0, 1.0).expect("cost");
    let caps = CapacityMap::uniform(nodes, 400.0, 8_000.0).expect("caps");

    for &count in &[10usize, 20, 40, 80] {
        let mut catalog = AttrCatalog::with_generic(n_attrs);
        let gen = TaskGenConfig::small_scale(nodes, n_attrs);
        let mut rng = SmallRng::seed_from_u64(8 + count as u64);
        let tasks = gen.generate(count, TaskId(0), &mut rng);

        // SSDP-rewrite every task with replication 2.
        let mut next_task = count as u32;
        let mut rewritten: Vec<MonitoringTask> = Vec::new();
        let mut forbidden = Vec::new();
        for t in &tasks {
            let rw =
                rewrite_ssdp(t, 2, &mut catalog, TaskId(next_task)).expect("valid replication");
            next_task += rw.tasks.len() as u32;
            rewritten.extend(rw.tasks);
            forbidden.extend(rw.forbidden_pairs);
        }
        let pairs: PairSet = rewritten.iter().flat_map(MonitoringTask::pairs).collect();

        // REMO-2: constrained partition search.
        let remo2 = Planner::new(PlannerConfig {
            forbidden_pairs: forbidden,
            ..PlannerConfig::default()
        })
        .plan_with_catalog(&pairs, &caps, cost, &catalog);
        remo_core::validate::assert_plan_clean(&remo2, &pairs, &caps, cost, &catalog);
        rep.row(&[&count, &"REMO-2", &f3(remo2.coverage() * 100.0)]);

        // SINGLETON-SET-2: every attribute (original or alias) in its
        // own tree.
        let planner = Planner::default();
        let sp2 = planner.evaluate_partition(
            &Partition::singleton(pairs.attr_universe()),
            &pairs,
            &caps,
            cost,
            &catalog,
        );
        rep.row(&[&count, &"SINGLETON-SET-2", &f3(sp2.coverage() * 100.0)]);

        // ONE-SET-2: originals in one tree, aliases in another.
        let originals: std::collections::BTreeSet<AttrId> =
            pairs.attrs().filter(|a| a.index() < n_attrs).collect();
        let aliases: std::collections::BTreeSet<AttrId> =
            pairs.attrs().filter(|a| a.index() >= n_attrs).collect();
        let sets: Vec<_> = [originals, aliases]
            .into_iter()
            .filter(|s| !s.is_empty())
            .collect();
        let op2 = planner.evaluate_partition(
            &Partition::from_sets(sets).expect("disjoint"),
            &pairs,
            &caps,
            cost,
            &catalog,
        );
        rep.row(&[&count, &"ONE-SET-2", &f3(op2.coverage() * 100.0)]);
    }
}
