//! Cross-layer checks: runtime artifacts audited against the plan (or
//! against themselves). These live here rather than in
//! `remo_core::validate` because they need `remo-runtime`'s types.

use remo_core::validate::{rules, Finding, RuleSet};
use remo_core::{AttrCatalog, MonitoringPlan, NodeId, PairSet};
use remo_runtime::failure::{FailureSchedule, FailureTarget};
use remo_runtime::{plan_assignments, TreeAssignment};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Checks live runtime assignments against the plan they claim to
/// implement (`deployment-route-fidelity`): every tree member must
/// hold exactly the assignment the plan derives — same route to its
/// parent, same locally sampled attributes, same relay aggregations —
/// and no agent may hold an assignment for a tree it is not in.
///
/// `assignments` is what [`remo_runtime::Deployment::assignments`]
/// reports; the expectation is re-derived through the same
/// [`plan_assignments`] function the deployment configures agents
/// from, so any drift is a real divergence between plan and overlay.
pub fn check_assignments(
    plan: &MonitoringPlan,
    pairs: &PairSet,
    catalog: &AttrCatalog,
    assignments: &BTreeMap<NodeId, Vec<TreeAssignment>>,
    ruleset: &RuleSet,
) -> Vec<Finding> {
    let expected = plan_assignments(plan, pairs, catalog);
    let mut findings = Vec::new();
    let nodes: BTreeSet<NodeId> = expected.keys().chain(assignments.keys()).copied().collect();
    for node in nodes {
        let want = expected.get(&node).cloned().unwrap_or_default();
        let have = assignments.get(&node).cloned().unwrap_or_default();
        let want_by_tree: BTreeMap<u32, &TreeAssignment> =
            want.iter().map(|a| (a.tree, a)).collect();
        let have_by_tree: BTreeMap<u32, &TreeAssignment> =
            have.iter().map(|a| (a.tree, a)).collect();
        if have.len() != have_by_tree.len() {
            if let Some(mut f) = ruleset.finding(
                rules::DEPLOYMENT_ROUTE_FIDELITY,
                format!("node {node} holds duplicate assignments for one tree"),
            ) {
                f.node = Some(node);
                findings.push(f);
            }
        }
        for (tree, want_a) in &want_by_tree {
            match have_by_tree.get(tree) {
                None => {
                    if let Some(mut f) = ruleset.finding(
                        rules::DEPLOYMENT_ROUTE_FIDELITY,
                        format!("node {node} is a member of tree {tree} but holds no assignment"),
                    ) {
                        f.node = Some(node);
                        f.tree = Some(*tree as usize);
                        findings.push(f);
                    }
                }
                Some(have_a) if have_a != want_a => {
                    let what = if have_a.parent != want_a.parent {
                        "routes to the wrong parent"
                    } else if have_a.local != want_a.local {
                        "samples the wrong local attributes"
                    } else {
                        "applies the wrong relay aggregations"
                    };
                    if let Some(mut f) = ruleset.finding(
                        rules::DEPLOYMENT_ROUTE_FIDELITY,
                        format!("node {node} in tree {tree} {what}"),
                    ) {
                        f.node = Some(node);
                        f.tree = Some(*tree as usize);
                        findings.push(f);
                    }
                }
                Some(_) => {}
            }
        }
        for tree in have_by_tree.keys() {
            if !want_by_tree.contains_key(tree) {
                if let Some(mut f) = ruleset.finding(
                    rules::DEPLOYMENT_ROUTE_FIDELITY,
                    format!("node {node} holds an assignment for tree {tree} it is not in"),
                ) {
                    f.node = Some(node);
                    f.tree = Some(*tree as usize);
                    findings.push(f);
                }
            }
        }
    }
    findings
}

/// Checks a scripted failure schedule for self-consistency
/// (`failure-schedule-consistent`): empty windows that can never
/// fire, self-loop link outages, and exact duplicate outages.
pub fn check_failure_schedule(schedule: &FailureSchedule, ruleset: &RuleSet) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut seen = BTreeSet::new();
    for (i, o) in schedule.outages().iter().enumerate() {
        if o.until_epoch.is_some_and(|u| u < o.from_epoch) {
            if let Some(f) = ruleset.finding(
                rules::FAILURE_SCHEDULE_CONSISTENT,
                format!(
                    "outage {i} has an empty window [{}, {}] and never fires",
                    o.from_epoch,
                    o.until_epoch.unwrap_or(0)
                ),
            ) {
                findings.push(f);
            }
        }
        if let FailureTarget::Link(a, b) = o.target {
            if a == b {
                if let Some(mut f) = ruleset.finding(
                    rules::FAILURE_SCHEDULE_CONSISTENT,
                    format!("outage {i} targets the self-loop link {a} → {b}"),
                ) {
                    f.node = Some(a);
                    findings.push(f);
                }
            }
        }
        let key = format!("{:?}", o);
        if !seen.insert(key) {
            if let Some(f) = ruleset.finding(
                rules::FAILURE_SCHEDULE_CONSISTENT,
                format!("outage {i} exactly duplicates an earlier one"),
            ) {
                findings.push(f);
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use remo_core::planner::Planner;
    use remo_core::{AttrId, CapacityMap, CostModel};
    use remo_runtime::failure::Outage;
    use remo_runtime::Route;

    fn setup() -> (MonitoringPlan, PairSet, AttrCatalog) {
        let pairs: PairSet = (0..6)
            .flat_map(|n| (0..2).map(move |a| (NodeId(n), AttrId(a))))
            .collect();
        let caps = CapacityMap::uniform(6, 40.0, 300.0).unwrap();
        let catalog = AttrCatalog::new();
        let plan =
            Planner::default().plan_with_catalog(&pairs, &caps, CostModel::default(), &catalog);
        (plan, pairs, catalog)
    }

    #[test]
    fn faithful_assignments_are_clean() {
        let (plan, pairs, catalog) = setup();
        let assignments = plan_assignments(&plan, &pairs, &catalog);
        let findings = check_assignments(&plan, &pairs, &catalog, &assignments, &RuleSet::all());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn drifted_assignments_are_flagged() {
        let (plan, pairs, catalog) = setup();
        let mut assignments = plan_assignments(&plan, &pairs, &catalog);

        // Reroute one member to the collector behind the plan's back.
        let (&victim, list) = assignments
            .iter_mut()
            .find(|(_, list)| list.iter().any(|a| a.parent != Route::Collector))
            .expect("some member routes through a parent node");
        let a = list
            .iter_mut()
            .find(|a| a.parent != Route::Collector)
            .expect("checked above");
        a.parent = Route::Collector;
        let findings = check_assignments(&plan, &pairs, &catalog, &assignments, &RuleSet::all());
        assert!(
            findings
                .iter()
                .any(|f| f.node == Some(victim) && f.message.contains("wrong parent")),
            "{findings:?}"
        );

        // Drop a node's assignments entirely.
        let mut assignments = plan_assignments(&plan, &pairs, &catalog);
        let (&victim, _) = assignments.iter().next().expect("nonempty");
        assignments.remove(&victim);
        let findings = check_assignments(&plan, &pairs, &catalog, &assignments, &RuleSet::all());
        assert!(findings.iter().any(|f| f.node == Some(victim)));
    }

    #[test]
    fn schedule_inconsistencies_are_flagged() {
        let mut sched = FailureSchedule::new();
        sched.add(Outage::node(NodeId(0), 10, Some(5)));
        sched.add(Outage::link(NodeId(1), NodeId(1), 3, None));
        sched.add(Outage::node(NodeId(2), 1, Some(2)));
        sched.add(Outage::node(NodeId(2), 1, Some(2)));
        let findings = check_failure_schedule(&sched, &RuleSet::all());
        assert_eq!(findings.len(), 3, "{findings:?}");

        let mut ok = FailureSchedule::new();
        ok.add(Outage::node(NodeId(0), 5, Some(9)));
        ok.add(Outage::link(NodeId(1), NodeId(0), 15, None));
        assert!(check_failure_schedule(&ok, &RuleSet::all()).is_empty());
    }
}
