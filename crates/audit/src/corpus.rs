//! A seed corpus of known-bad plans, each constructed to trip exactly
//! one named rule.
//!
//! The planner cannot be coaxed into emitting these (it maintains the
//! invariants by construction), so the corpus builds them the way
//! real corruption arrives: by tampering with the plan's public
//! bookkeeping fields, or by deserializing structures whose
//! constructors would have rejected them — exactly what a plan that
//! crossed a serialization boundary can contain.

// Corpus fixtures are built from constant inputs whose constructors
// cannot fail; a panic here is a broken fixture, not a runtime error
// path, so the workspace unwrap/expect deny is relaxed for this module.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crate::AuditBundle;
use remo_core::corpus::Case;
use remo_core::planner::{PartitionScheme, Planner};
use remo_core::reliability::rewrite_ssdp;
use remo_core::{
    AttrCatalog, AttrId, AttrSet, CapacityMap, CostModel, MonitoringPlan, MonitoringTask, NodeId,
    PairSet, Partition, TaskId,
};
use remo_sim::failure::{FailureSchedule, Outage};
use serde::{Deserialize, Serialize, Value};

fn dense_pairs(nodes: u32, attrs: u32) -> PairSet {
    (0..nodes)
        .flat_map(|n| (0..attrs).map(move |a| (NodeId(n), AttrId(a))))
        .collect()
}

fn clean_bundle(nodes: u32, attrs: u32, per_node: f64) -> AuditBundle {
    let pairs = dense_pairs(nodes, attrs);
    let caps = CapacityMap::uniform(nodes as usize, per_node, 500.0).expect("valid caps");
    let cost = CostModel::default();
    let catalog = AttrCatalog::new();
    let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
    AuditBundle::new(plan, pairs, caps, cost)
}

/// Looks up a named field of a serialized [`Value`] object.
fn field_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    match v {
        Value::Object(fields) => fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .expect("field present in serialized form"),
        _ => panic!("expected object"),
    }
}

/// A plan whose recomputed usage exceeds the bundled budgets: models
/// auditing against capacities that shrank after planning.
fn over_budget() -> AuditBundle {
    let mut b = clean_bundle(8, 2, 100.0);
    b.caps = CapacityMap::uniform(8, 4.0, 500.0).expect("valid caps");
    b
}

/// A partition with one attribute in two sets: built through serde
/// because `Partition::from_sets` rejects overlap. The duplicated
/// attribute is demanded by nobody, so coverage and load accounting
/// are unchanged and only disjointness is violated.
fn overlapping_partition() -> AuditBundle {
    let pairs = dense_pairs(6, 2);
    let caps = CapacityMap::uniform(6, 60.0, 500.0).expect("valid caps");
    let cost = CostModel::default();
    let catalog = AttrCatalog::new();
    let planner = Planner::default();
    let plan = PartitionScheme::SingletonSet.plan(&planner, &pairs, &caps, cost, &catalog);
    assert_eq!(
        plan.partition().len(),
        2,
        "singleton scheme: one set per attr"
    );

    let mut raw = plan.partition().serialize();
    if let Value::Array(sets) = field_mut(&mut raw, "sets") {
        for set in sets.iter_mut() {
            if let Value::Array(attrs) = set {
                attrs.push(Value::U64(2)); // undemanded attr, both sets
            }
        }
    }
    let tampered = Partition::deserialize(&raw).expect("shape is valid, content is not");
    let plan = MonitoringPlan::new(tampered, plan.trees().to_vec());
    AuditBundle::new(plan, pairs, caps, cost)
}

/// A plan whose recorded collected-pair count was inflated after the
/// fact.
fn inflated_coverage() -> AuditBundle {
    let mut b = clean_bundle(6, 2, 60.0);
    let mut trees = b.plan.trees().to_vec();
    trees[0].collected_pairs += 1;
    b.plan = MonitoringPlan::new(b.plan.partition().clone(), trees);
    b
}

/// A tree with a two-node cycle detached from its root, built through
/// serde because `Tree::attach` cannot create one.
fn cyclic_tree() -> AuditBundle {
    let pairs: PairSet = (0..3).map(|n| (NodeId(n), AttrId(0))).collect();
    let caps = CapacityMap::uniform(3, 50.0, 500.0).expect("valid caps");
    let cost = CostModel::default();

    let raw = Value::Object(vec![
        ("attrs".to_string(), Value::Array(vec![Value::U64(0)])),
        ("root".to_string(), Value::U64(0)),
        (
            "parent".to_string(),
            Value::Object(vec![
                ("0".to_string(), Value::Str("Collector".to_string())),
                (
                    "1".to_string(),
                    Value::Object(vec![("Node".to_string(), Value::U64(2))]),
                ),
                (
                    "2".to_string(),
                    Value::Object(vec![("Node".to_string(), Value::U64(1))]),
                ),
            ]),
        ),
        (
            "children".to_string(),
            Value::Object(vec![
                ("0".to_string(), Value::Array(vec![])),
                ("1".to_string(), Value::Array(vec![Value::U64(2)])),
                ("2".to_string(), Value::Array(vec![Value::U64(1)])),
            ]),
        ),
    ]);
    let tree = remo_core::Tree::deserialize(&raw).expect("shape is valid, structure is not");
    assert!(!tree.is_valid(), "corpus tree must be cyclic");

    let set: AttrSet = [AttrId(0)].into_iter().collect();
    let planned = remo_core::plan::PlannedTree {
        tree: Some(tree),
        usage: Default::default(),
        collector_usage: 0.0,
        collected_pairs: 0,
        demanded_pairs: 3,
        excluded: Vec::new(),
        message_volume: 0.0,
    };
    let plan = MonitoringPlan::new(Partition::one_set(set), vec![planned]);
    AuditBundle::new(plan, pairs, caps, cost)
}

/// A plan whose recorded per-node usage was doubled for one node:
/// recomputed budgets still hold, but allocation conservation fails.
fn skewed_allocation() -> AuditBundle {
    let mut b = clean_bundle(6, 2, 60.0);
    let mut trees = b.plan.trees().to_vec();
    let (_, u) = trees[0]
        .usage
        .iter_mut()
        .next()
        .expect("built tree has members");
    *u *= 2.0;
    b.plan = MonitoringPlan::new(b.plan.partition().clone(), trees);
    b
}

/// A plan whose recorded message volume disagrees with the `C + a·x`
/// recomputation.
fn wrong_volume() -> AuditBundle {
    let mut b = clean_bundle(6, 2, 60.0);
    let mut trees = b.plan.trees().to_vec();
    trees[0].message_volume += 5.0;
    b.plan = MonitoringPlan::new(b.plan.partition().clone(), trees);
    b
}

/// An SSDP-replicated demand planned *without* its forbidden pairs:
/// the replicas land in one tree, defeating the replication.
fn colocated_replicas() -> AuditBundle {
    let mut catalog = AttrCatalog::new();
    let task = MonitoringTask::new(TaskId(0), [AttrId(0)], (0..5).map(NodeId));
    let rewrite = rewrite_ssdp(&task, 2, &mut catalog, TaskId(1)).expect("valid replication");
    let pairs: PairSet = rewrite.tasks.iter().flat_map(|t| t.pairs()).collect();
    let caps = CapacityMap::uniform(5, 80.0, 500.0).expect("valid caps");
    let cost = CostModel::default();
    let planner = Planner::default(); // forbidden_pairs NOT configured
    let plan = PartitionScheme::OneSet.plan(&planner, &pairs, &caps, cost, &catalog);
    let mut b = AuditBundle::new(plan, pairs, caps, cost);
    b.catalog = catalog;
    b.rewrite = Some(rewrite);
    b
}

/// An adaptation that silently lost coverage with no failures to
/// justify it: the successor was planned against shrunken capacity.
fn lossy_adaptation() -> AuditBundle {
    let pairs = dense_pairs(8, 2);
    let roomy = CapacityMap::uniform(8, 100.0, 500.0).expect("valid caps");
    let tight = CapacityMap::uniform(8, 9.0, 500.0).expect("valid caps");
    let cost = CostModel::new(2.0, 1.0).expect("valid cost");
    let catalog = AttrCatalog::new();
    let full = Planner::default().plan_with_catalog(&pairs, &roomy, cost, &catalog);
    let partial = Planner::default().plan_with_catalog(&pairs, &tight, cost, &catalog);
    assert!(
        partial.collected_pairs() < full.collected_pairs(),
        "corpus premise: tight caps lose coverage"
    );
    let mut b = AuditBundle::new(partial, pairs, tight, cost);
    b.predecessor = Some(full);
    b
}

/// A clean plan bundled with a failure schedule whose outages can
/// never fire.
fn bad_schedule() -> AuditBundle {
    let mut b = clean_bundle(6, 2, 60.0);
    let mut sched = FailureSchedule::new();
    sched.add(Outage::node(NodeId(0), 10, Some(5)));
    b.failure_schedule = Some(sched);
    b
}

/// A deployment declaring a staleness SLO that one slow attribute can
/// never meet: its refresh period alone exceeds the SLO, even with no
/// backpressure degradation in play.
fn unmeetable_staleness_slo() -> AuditBundle {
    let pairs = dense_pairs(6, 2);
    let caps = CapacityMap::uniform(6, 60.0, 500.0).expect("valid caps");
    let cost = CostModel::default();
    let mut catalog = AttrCatalog::new();
    catalog.register(remo_core::AttrInfo::new("fast"));
    catalog.register(
        remo_core::AttrInfo::new("slow")
            .with_frequency(0.125) // refreshes every 8 epochs
            .expect("valid frequency"),
    );
    let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
    let mut b = AuditBundle::new(plan, pairs, caps, cost);
    b.catalog = catalog;
    b.staleness_slo = Some(5.0);
    b
}

/// The full corpus: every entry trips exactly its named rule.
pub fn known_bad() -> Vec<Case<AuditBundle>> {
    use crate::rules;
    let case = |name, rule, why, input| Case {
        name,
        rule,
        code: crate::rule(rule).expect("registered rule").code,
        why,
        input,
    };
    vec![
        case(
            "over-budget",
            rules::CAPACITY_BUDGET,
            "capacities shrank after planning",
            over_budget(),
        ),
        case(
            "overlapping-partition",
            rules::PARTITION_DISJOINT,
            "one attribute deserialized into two sets",
            overlapping_partition(),
        ),
        case(
            "inflated-coverage",
            rules::PAIR_COVERAGE,
            "recorded collected pairs inflated",
            inflated_coverage(),
        ),
        case(
            "cyclic-tree",
            rules::TREE_ACYCLIC,
            "deserialized tree with a detached cycle",
            cyclic_tree(),
        ),
        case(
            "skewed-allocation",
            rules::ALLOC_CONSERVATION,
            "recorded usage doubled for one node",
            skewed_allocation(),
        ),
        case(
            "wrong-volume",
            rules::COST_MODEL_ACCOUNTING,
            "recorded message volume drifted",
            wrong_volume(),
        ),
        case(
            "colocated-replicas",
            rules::RELIABILITY_ALIAS_CONSISTENCY,
            "SSDP replicas planned into one tree",
            colocated_replicas(),
        ),
        case(
            "lossy-adaptation",
            rules::ADAPTATION_MONOTONIC,
            "coverage lost with no failures",
            lossy_adaptation(),
        ),
        case(
            "bad-schedule",
            rules::FAILURE_SCHEDULE_CONSISTENT,
            "outage window that never fires",
            bad_schedule(),
        ),
        case(
            "unmeetable-staleness-slo",
            rules::STALENESS_BOUND,
            "slow attribute can never meet the declared SLO",
            unmeetable_staleness_slo(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every corpus bundle trips its named rule and *only* its named
    /// rule, before and after the CLI's JSON round-trip.
    #[test]
    fn every_case_trips_exactly_its_rule() {
        remo_core::corpus::check(&known_bad(), |b| b.audit(&crate::Audit::new()).findings);
    }
}
