//! # remo-check
//!
//! REMO's analyzers. The paper's guarantees are invariants — per-node
//! budgets under the `C + a·x` cost model, tree structure and coverage,
//! monotone adaptation and failure handling — and each is a rule of the
//! one registry, `remo_core::validate::RULES`, checked by exactly one of
//! four analyzers:
//!
//! - **audit** (RA001–RA012, RA017) re-proves the plan rules on an
//!   [`AuditBundle`]: a plan that crossed a serialization boundary, was
//!   repaired by the self-healing runtime, or was rewritten for
//!   reliability. [`cross`] checks runtime assignments and failure
//!   schedules against it.
//! - **mc** (RA013–RA016) model-checks self-healing: [`explore`]
//!   enumerates interleavings of failure, recovery, epoch-tick and
//!   repair events on small seeded topologies ([`topology`]), driving the
//!   real `AdaptivePlanner` and the deployment's assignment and loss
//!   arithmetic ([`harness`]); [`mod@minimize`] delta-debugs a violating
//!   trace and [`replay`] freezes it as a regression file.
//! - **static** (RA018–RA021) bounds a deployment before it runs
//!   ([`analyze()`](fn@analyze)): usage intervals over every partition
//!   shape ([`cost`]), worst-case staleness under the ARQ transport
//!   ([`latency`]) and the backpressure fixed point ([`degrade`]).
//! - **proto** (RA022–RA025) explores the control-plane tables that
//!   `remo-runtime` executes under lossy-channel semantics, stepping the
//!   runtime's own client and session machines ([`verify`]).
//!
//! `mc` and `proto` share one explicit-state explorer, [`explore::dfs`].
//!
//! [`corpus`] holds the known-bad inputs, one per rule. The `remo-check`
//! binary is the one CLI in front of all four (`remo-check audit`,
//! `static analyze`, `proto verify`, `mc explore|replay`), reporting
//! through [`sarif`].
//!
//! ```
//! use remo_check::AuditBundle;
//! use remo_core::planner::Planner;
//! use remo_core::validate::Audit;
//! use remo_core::{AttrCatalog, AttrId, CapacityMap, CostModel, NodeId, PairSet};
//!
//! # fn main() -> Result<(), remo_core::PlanError> {
//! // A planned bundle is clean, also after the CLI's JSON trip.
//! let caps = CapacityMap::uniform(6, 30.0, 200.0)?;
//! let pairs: PairSet = (0..6).map(|n| (NodeId(n), AttrId(0))).collect();
//! let cost = CostModel::default();
//! let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &AttrCatalog::new());
//! let bundle = AuditBundle::new(plan, pairs, caps, cost);
//! assert!(bundle.audit(&Audit::new()).is_clean());
//! let text = bundle.to_json().unwrap();
//! assert!(AuditBundle::from_json(&text).unwrap().audit(&Audit::new()).is_clean());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::print_stdout)]
#![deny(clippy::print_stderr)]

pub mod analyze;
pub mod corpus;
pub mod cost;
pub mod cross;
pub mod degrade;
pub mod explore;
pub mod harness;
pub mod latency;
pub mod minimize;
pub mod replay;
pub mod sarif;
pub mod topology;
pub mod verify;

pub use analyze::{analyze, AnalysisReport, StaticBundle};
pub use cost::{cost_bounds, CostBounds, CostFlags};
pub use degrade::{degrade_analysis, DegradeAnalysis};
pub use explore::{ExploreResult, ExploreStats, Violation};
pub use harness::{Event, Harness, InvariantConfig};
pub use latency::{staleness_bounds, StalenessBounds};
pub use minimize::{minimize, replay_events, ReplayOutcome};
pub use replay::{Expectation, ReplayFile, Verdict};
pub use topology::{seeded_specs, TopologySpec};
pub use verify::VerifyReport;

use remo_core::reliability::ReliabilityRewrite;
use remo_core::validate::{Audit, AuditInput, AuditOutcome};
use remo_core::{AttrCatalog, CapacityMap, CostModel, MonitoringPlan, NodeId, PairSet};
use remo_runtime::failure::FailureSchedule;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Everything an offline audit needs, as one serializable document:
/// the plan, the demand and budgets it claims to satisfy, and the
/// optional cross-cutting artifacts. This is the input format of the
/// `remo-check audit` CLI.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditBundle {
    /// The plan under audit.
    pub plan: MonitoringPlan,
    /// The (node, attribute) demand the plan was built for.
    pub pairs: PairSet,
    /// Per-node and collector capacity budgets.
    pub caps: CapacityMap,
    /// The `C + a·x` message cost model.
    pub cost: CostModel,
    /// Attribute metadata (aggregations, frequencies).
    #[serde(default)]
    pub catalog: AttrCatalog,
    /// Whether the plan was built with aggregation-aware load
    /// accounting (the audit must replicate it exactly).
    #[serde(default)]
    pub aggregation_aware: bool,
    /// Whether the plan was built with frequency-weighted loads.
    #[serde(default)]
    pub frequency_aware: bool,
    /// Reliability rewrite the demand came from, if any — enables the
    /// `reliability-alias-consistency` rule.
    #[serde(default)]
    pub rewrite: Option<ReliabilityRewrite>,
    /// The plan this one was adapted from, if any — enables the
    /// `adaptation-monotonic` rule.
    #[serde(default)]
    pub predecessor: Option<MonitoringPlan>,
    /// Nodes that failed between predecessor and plan.
    #[serde(default)]
    pub failed_nodes: Vec<NodeId>,
    /// A scripted failure schedule to check for self-consistency, if
    /// any — enables the `failure-schedule-consistent` rule.
    #[serde(default)]
    pub failure_schedule: Option<FailureSchedule>,
    /// Staleness SLO in epochs, if the deployment declares one —
    /// enables the `staleness-bound` rule.
    #[serde(default)]
    pub staleness_slo: Option<f64>,
    /// Runtime degrade factor (collector-backpressure interval
    /// multiplier) at the time the bundle was captured; 1 when
    /// healthy. Values below 1 (including a serde-defaulted 0) are
    /// treated as 1 by the rule.
    #[serde(default)]
    pub degrade_factor: f64,
}

impl AuditBundle {
    /// A bundle with no optional artifacts and a default catalog.
    ///
    /// `aggregation_aware` defaults to `true` (matching
    /// [`AuditInput::new`]): with a default catalog every funnel is
    /// the identity, so this is exact for plans built either way.
    pub fn new(plan: MonitoringPlan, pairs: PairSet, caps: CapacityMap, cost: CostModel) -> Self {
        AuditBundle {
            plan,
            pairs,
            caps,
            cost,
            catalog: AttrCatalog::new(),
            aggregation_aware: true,
            frequency_aware: false,
            rewrite: None,
            predecessor: None,
            failed_nodes: Vec::new(),
            failure_schedule: None,
            staleness_slo: None,
            degrade_factor: 1.0,
        }
    }

    /// Runs `audit` over everything in the bundle: the core rule
    /// engine on the plan plus the failure-schedule cross-layer check
    /// when a schedule is present. Findings are merged into one
    /// severity-ordered [`AuditOutcome`].
    pub fn audit(&self, audit: &Audit) -> AuditOutcome {
        let failed: BTreeSet<NodeId> = self.failed_nodes.iter().copied().collect();
        let mut input = AuditInput::new(
            &self.plan,
            &self.pairs,
            &self.caps,
            self.cost,
            &self.catalog,
        )
        .aggregation_aware(self.aggregation_aware)
        .frequency_aware(self.frequency_aware);
        if let Some(rewrite) = &self.rewrite {
            input = input.with_rewrite(rewrite);
        }
        if let Some(predecessor) = &self.predecessor {
            input = input.with_predecessor(predecessor, &failed);
        }
        if let Some(slo) = self.staleness_slo {
            input = input
                .with_staleness_slo(slo)
                .with_degrade_factor(self.degrade_factor);
        }
        let mut outcome = audit.run(&input);
        if let Some(schedule) = &self.failure_schedule {
            outcome
                .findings
                .extend(cross::check_failure_schedule(schedule, audit.rules()));
        }
        outcome
            .findings
            .sort_by(|a, b| b.severity.cmp(&a.severity).then(a.code.cmp(&b.code)));
        outcome
    }

    /// Serializes the bundle to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (infallible with the vendored
    /// stub, fallible against real `serde_json`).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a bundle from JSON text.
    ///
    /// # Errors
    ///
    /// Returns the parse or shape error verbatim.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

// The two input documents: each round-trips through JSON and runs.
#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use remo_core::planner::Planner;
    use remo_core::validate::{assert_plan_clean, rules};
    use remo_core::AttrId;
    use remo_runtime::failure::Outage;

    fn bundle() -> AuditBundle {
        let pairs: PairSet = (0..6)
            .flat_map(|n| (0..2).map(move |a| (NodeId(n), AttrId(a))))
            .collect();
        let caps = CapacityMap::uniform(6, 40.0, 300.0).unwrap();
        let cost = CostModel::default();
        let catalog = AttrCatalog::new();
        let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
        AuditBundle::new(plan, pairs, caps, cost)
    }

    #[test]
    fn bundle_roundtrips_and_audits_clean() {
        let b = bundle();
        let text = b.to_json().unwrap();
        let back = AuditBundle::from_json(&text).unwrap();
        let outcome = back.audit(&Audit::new());
        assert!(outcome.is_clean(), "{}", outcome.render());
    }

    #[test]
    fn bundle_runs_schedule_check() {
        let mut b = bundle();
        let mut sched = FailureSchedule::new();
        sched.add(Outage::node(NodeId(0), 10, Some(5))); // empty window
        b.failure_schedule = Some(sched);
        let outcome = b.audit(&Audit::new());
        assert_eq!(
            outcome.of_rule(rules::FAILURE_SCHEDULE_CONSISTENT).count(),
            1
        );
        assert!(outcome.is_clean(), "warn severity must not fail the audit");
    }

    #[test]
    fn assert_plan_clean_accepts_planner_output() {
        let b = bundle();
        assert_plan_clean(&b.plan, &b.pairs, &b.caps, b.cost, &b.catalog);
    }

    #[test]
    #[should_panic(expected = "plan failed its audit")]
    fn assert_plan_clean_panics_on_overload() {
        let b = bundle();
        let tight = CapacityMap::uniform(6, 1.0, 300.0).unwrap();
        assert_plan_clean(&b.plan, &b.pairs, &tight, b.cost, &b.catalog);
    }

    #[test]
    fn a_bare_spec_document_parses_as_a_bundle() {
        let json = r#"{
            "nodes": 3,
            "node_capacity": 20.0,
            "collector_capacity": 100.0,
            "per_message_cost": 2.0,
            "per_value_cost": 1.0,
            "tasks": [{"attrs": [0], "nodes": [0, 1, 2]}]
        }"#;
        let bundle = StaticBundle::from_json(json).unwrap();
        assert!(bundle.net.is_none());
        let report = analyze(&bundle).unwrap();
        assert!(report.is_clean());
        assert!(report.findings.is_empty());
        // Roundtrip through the bundle shape.
        let back = StaticBundle::from_json(&bundle.to_json().unwrap()).unwrap();
        assert_eq!(back.spec, bundle.spec);
    }
}
