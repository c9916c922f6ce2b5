//! The known-bad corpora of the audit, static and protocol analyzers:
//! each [`Case`] is an input engineered to trip exactly one named rule.
//! They are the analyzers' regression anchors and the CLI's `--example`
//! seeds. (The model checker's corpus is replay traces, committed under
//! `corpus/`, not inputs built to trip one rule.)
//!
//! The planner cannot be coaxed into emitting the bad plans (it
//! maintains the invariants by construction), so [`audit_cases`] builds
//! them the way real corruption arrives: by tampering with the plan's
//! public bookkeeping fields, or by deserializing structures whose
//! constructors would have rejected them — exactly what a plan that
//! crossed a serialization boundary can contain. [`static_cases`] are
//! minimal deployment bundles; [`proto_cases`] are one-knob mutations of
//! the shipped protocol spec, two of them PR 9's real bugs re-introduced
//! at the spec level, so the corpus is also the proof that the verifier
//! would have caught both before they shipped.

// Corpus fixtures are built from constant inputs whose constructors
// cannot fail; a panic here is a broken fixture, not a runtime error
// path, so the workspace unwrap/expect deny is relaxed for this module.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crate::{AuditBundle, StaticBundle};
use remo_core::corpus::Case;
use remo_core::planner::{PartitionScheme, Planner};
use remo_core::reliability::rewrite_ssdp;
use remo_core::spec::{DeploymentSpec, TaskSpec};
use remo_core::validate::{rule, rules};
use remo_core::{
    AttrCatalog, AttrId, AttrSet, CapacityMap, CostModel, MonitoringPlan, MonitoringTask, NodeId,
    PairSet, Partition, TaskId,
};
use remo_runtime::failure::{FailureSchedule, Outage};
use remo_runtime::spec::{ClientEvent, ClientState, ProtocolSpec, SessionEvent, SessionState};
use remo_runtime::{NetConfig, NetSpec, PartitionWindow};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

// ------------------------------------------------------------------ audit

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

/// The audit corpus, in rule order.
pub fn audit_cases() -> Vec<Case<AuditBundle>> {
    let case = |name, rule_name, why, input| Case {
        name,
        rule: rule_name,
        code: rule(rule_name).expect("registered rule").code,
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

// ----------------------------------------------------------------- static

fn base_spec(nodes: usize, node_capacity: f64, collector_capacity: f64) -> DeploymentSpec {
    DeploymentSpec {
        nodes,
        node_capacity,
        capacity_overrides: BTreeMap::new(),
        collector_capacity,
        per_message_cost: 4.0,
        per_value_cost: 1.0,
        attributes: Vec::new(),
        tasks: vec![TaskSpec {
            attrs: vec![0],
            nodes: (0..nodes as u32).collect(),
        }],
        aggregation_aware: false,
        frequency_aware: false,
    }
}

/// The static corpus (RA018–RA021), in rule order.
pub fn static_cases() -> Vec<Case<StaticBundle>> {
    // RA018: a node budget below even the single-leaf message cost
    // (C + a·1 = 5 > 1). Collector budget is ample, so the degrade
    // fixed point converges and nothing else fires.
    let infeasible = StaticBundle {
        spec: base_spec(2, 1.0, 1_000.0),
        net: None,
        net_config: None,
        staleness_slo: None,
    };

    // RA019: generous budgets, but node 1 sits inside a partition
    // window that never ends while a staleness SLO is declared.
    let severed = StaticBundle {
        spec: base_spec(2, 100.0, 1_000.0),
        net: Some(NetSpec {
            partitions: vec![PartitionWindow {
                name: "island".into(),
                members: [NodeId(1)].into_iter().collect(),
                from_epoch: 0,
                until_epoch: None,
            }],
            ..NetSpec::default()
        }),
        net_config: None,
        staleness_slo: Some(50.0),
    };

    // RA020: eight holistic attributes on two nodes with a heavy
    // per-message overhead. Collector lower bound 100 + 16 = 116 fits
    // the 200 budget (no RA018), but the worst-case service rate is
    // (200 − 100·8)/1 < 0 — no degrade level can ever keep up.
    let diverging_spec = DeploymentSpec {
        per_message_cost: 100.0,
        tasks: vec![TaskSpec {
            attrs: (0..8).collect(),
            nodes: vec![0, 1],
        }],
        ..base_spec(2, 10_000.0, 200.0)
    };
    let diverging = StaticBundle {
        spec: diverging_spec.clone(),
        net: None,
        net_config: None,
        staleness_slo: None,
    };

    // RA021: the same overload with the degrade ladder disabled —
    // the queue is bounded only by shedding.
    let unbounded = StaticBundle {
        spec: diverging_spec,
        net: None,
        net_config: Some(NetConfig {
            max_degrade_level: 0,
            ..NetConfig::default()
        }),
        staleness_slo: None,
    };

    vec![
        Case {
            name: "infeasible-capacity",
            rule: "static-infeasible-capacity",
            code: "RA018",
            why: "a node budget below even the single-leaf message cost",
            input: infeasible,
        },
        Case {
            name: "severed-slo",
            rule: "slo-unreachable-under-netspec",
            code: "RA019",
            why: "a staleness SLO declared over a partition window that never ends",
            input: severed,
        },
        Case {
            name: "degrade-divergence",
            rule: "degrade-divergence",
            code: "RA020",
            why: "worst-case arrivals outrun collector service at every degrade level",
            input: diverging,
        },
        Case {
            name: "unbounded-queue",
            rule: "unbounded-queue",
            code: "RA021",
            why: "the same overload with the degrade ladder disabled",
            input: unbounded,
        },
    ]
}

// ------------------------------------------------------------------ proto

/// PR 9 bug #1, as a spec mutation: the receive-side dedup window not
/// scoped to the sender incarnation, so a restarted sender's fresh
/// frames (seqs starting over at 1) sit below the old watermark and
/// are silently swallowed.
pub fn seq_restart_swallow() -> ProtocolSpec {
    let mut spec = ProtocolSpec::shipped();
    spec.dedup.incarnation_scoped = false;
    spec
}

/// The dedup window without its sender half: receivers keep an
/// anti-replay window, but the sender goes on retrying a frame after
/// its seq falls a window behind the next one issued, so a late
/// retransmission lands below the window, is taken for a replay and
/// re-acked — lost while its sender counts it delivered.
pub fn dedup_window_unenforced() -> ProtocolSpec {
    let mut spec = ProtocolSpec::shipped();
    spec.arq.window_enforced = false;
    spec
}

/// PR 9 bug #2, as a spec mutation: stale (closed-epoch) straggler
/// reports credited as barrier attendance, resurrecting confirmed-dead
/// nodes and double-repairing already-repaired load.
pub fn straggler_resurrection() -> ProtocolSpec {
    let mut spec = ProtocolSpec::shipped();
    spec.barrier.credit_stale_reports = true;
    spec
}

/// The protocol corpus (RA022–RA025), in rule-code order.
pub fn proto_cases() -> Vec<Case<ProtocolSpec>> {
    let mut client_drops_conn_lost = ProtocolSpec::shipped();
    client_drops_conn_lost
        .client
        .retain(|r| !(r.state == ClientState::Running && r.event == ClientEvent::ConnLost));

    let mut undefined_stale_report = ProtocolSpec::shipped();
    undefined_stale_report.session.retain(|r| {
        !(r.state == SessionState::Ticking && r.event == SessionEvent::RecvReportStale)
    });

    let mut incarnation_reuse = ProtocolSpec::shipped();
    incarnation_reuse.fresh_bump = false;

    let mut unbounded_retransmit = ProtocolSpec::shipped();
    unbounded_retransmit.arq.retry_budget_enforced = false;

    vec![
        Case {
            name: "client-drops-conn-lost",
            rule: "protocol-deadlock",
            code: "RA022",
            why: "the supervisor's Running state has no ConnLost entry, so a node whose \
                  connection dies keeps believing it is connected and can never redial, \
                  drain, or give up",
            input: client_drops_conn_lost,
        },
        Case {
            name: "undefined-stale-report",
            rule: "unexpected-message",
            code: "RA023",
            why: "the session's Ticking state has no entry for straggler reports, so a \
                  late frame from a slow node lands on an undefined transition",
            input: undefined_stale_report,
        },
        Case {
            name: "straggler-resurrection",
            rule: "unexpected-message",
            code: "RA023",
            why: "PR 9 bug #2: stale reports credited as attendance resurrect a \
                  confirmed-dead node and double-repair its load",
            input: straggler_resurrection(),
        },
        Case {
            name: "incarnation-reuse",
            rule: "incarnation-regression",
            code: "RA024",
            why: "fresh Hellos no longer mint a strictly greater incarnation, so a \
                  restarted node is indistinguishable from its previous life",
            input: incarnation_reuse,
        },
        Case {
            name: "seq-restart-swallow",
            rule: "incarnation-regression",
            code: "RA024",
            why: "PR 9 bug #1: the dedup window ignores the sender incarnation, so a \
                  restarted sender's first frames are silently swallowed",
            input: seq_restart_swallow(),
        },
        Case {
            name: "dedup-window-unenforced",
            rule: "incarnation-regression",
            code: "RA024",
            why: "the sender keeps retrying frames that fell below the receivers' dedup \
                  window, so a late copy is taken for a replay, re-acked and silently lost",
            input: dedup_window_unenforced(),
        },
        Case {
            name: "unbounded-retransmit",
            rule: "unbounded-inflight",
            code: "RA025",
            why: "the ARQ retry budget is not enforced, so an unreachable peer's frames \
                  are retransmitted forever and the unacked set never drains",
            input: unbounded_retransmit,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::test_verify;
    use remo_core::corpus::check;
    use remo_core::validate::Audit;

    /// The heart of the corpora: every case trips its named rule and
    /// *only* that rule, before and after the JSON round-trip that
    /// makes it a CLI `--example` seed — so an analyzer regression (a
    /// missed bug or a false positive) fails this test by case name.
    #[test]
    fn every_case_trips_exactly_its_rule() {
        check(&audit_cases(), |b| b.audit(&Audit::new()).findings);
    }

    /// The same law for the pre-deployment analyzers: the static
    /// bounds and the protocol verifier.
    #[test]
    fn each_case_trips_exactly_its_rule() {
        check(&static_cases(), |bundle| match crate::analyze(bundle) {
            Ok(report) => report.findings,
            Err(e) => panic!("corpus bundle failed to analyze: {e}"),
        });
        check(&proto_cases(), |spec| test_verify(spec).findings);
    }

    /// Seed-the-bug regression: PR 9's seq-restart dedup bug, caught
    /// as RA024 by the ARQ and lattice phases.
    #[test]
    fn verifier_catches_the_seq_restart_bug() {
        let report = test_verify(&seq_restart_swallow());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.code == "RA024" && f.message.contains("swallowed")),
            "the verifier must catch the PR 9 seq-restart swallow: {:?}",
            report.findings
        );
    }

    /// A receive window the sender does not respect loses live frames:
    /// caught as RA024 by the ARQ phase, and only there.
    #[test]
    fn verifier_catches_a_window_the_sender_ignores() {
        let report = test_verify(&dedup_window_unenforced());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.code == "RA024" && f.message.contains("below the dedup window")),
            "the verifier must catch a live frame below the window: {:?}",
            report.findings
        );
        assert!(report
            .findings
            .iter()
            .all(|f| f.message.starts_with("arq:")));
    }

    /// Seed-the-bug regression: PR 9's straggler-resurrection bug,
    /// caught as RA023 by the control-plane phase.
    #[test]
    fn verifier_catches_the_straggler_resurrection_bug() {
        let report = test_verify(&straggler_resurrection());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.code == "RA023" && f.message.contains("resurrected")),
            "the verifier must catch the PR 9 straggler resurrection: {:?}",
            report.findings
        );
    }
}
