//! The deployment spec: a serializable description of a monitoring
//! problem (nodes, capacities, cost model, tasks) that external tools
//! and the `remo-plan` CLI consume, and the input of the pre-flight
//! analyzer (`remo-check static`).

use crate::planner::{PlanReport, Planner, PlannerConfig};
use crate::{
    Aggregation, AttrCatalog, AttrId, AttrInfo, CapacityMap, CostModel, MonitoringPlan,
    MonitoringTask, NodeId, PairSet, PlanError, TaskId, TaskManager,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Attribute metadata in the spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AttrSpec {
    /// Attribute name.
    pub name: String,
    /// Aggregation kind: `"holistic"` (default), `"sum"`, `"max"`,
    /// `"top:K"`, `"distinct"`.
    #[serde(default)]
    pub aggregation: Option<String>,
    /// Update frequency in `(0, 1]` (default 1.0).
    #[serde(default)]
    pub frequency: Option<f64>,
}

/// One monitoring task in the spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Attribute ids (indexes into `attributes`).
    pub attrs: Vec<u32>,
    /// Node ids.
    pub nodes: Vec<u32>,
}

/// A complete monitoring problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentSpec {
    /// Number of monitoring nodes (ids `0..nodes`).
    pub nodes: usize,
    /// Per-node capacity (uniform), or per-node overrides below.
    pub node_capacity: f64,
    /// Optional per-node capacity overrides, keyed by node id.
    #[serde(default)]
    pub capacity_overrides: BTreeMap<u32, f64>,
    /// Collector capacity.
    pub collector_capacity: f64,
    /// Per-message overhead `C`.
    pub per_message_cost: f64,
    /// Per-value cost `a`.
    pub per_value_cost: f64,
    /// Attribute metadata; index = attribute id. Tasks may reference
    /// ids beyond this list (they default to holistic, frequency 1).
    #[serde(default)]
    pub attributes: Vec<AttrSpec>,
    /// The monitoring tasks.
    pub tasks: Vec<TaskSpec>,
    /// Plan with aggregation awareness (default false).
    #[serde(default)]
    pub aggregation_aware: bool,
    /// Plan with frequency awareness (default false).
    #[serde(default)]
    pub frequency_aware: bool,
}

impl DeploymentSpec {
    /// Parses the spec from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error message wrapped as a
    /// string.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Serializes the spec to pretty JSON.
    pub fn to_json(&self) -> String {
        // Plain-data struct: every field is a serde-friendly scalar,
        // string, vec, or integer-keyed map, so serialization is
        // infallible by construction.
        serde_json::to_string_pretty(self).unwrap_or_else(|e| unreachable!("spec serializes: {e}"))
    }

    /// Builds the capacity map.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::InvalidParameter`] for negative or
    /// non-finite capacities.
    pub fn capacities(&self) -> Result<CapacityMap, PlanError> {
        let mut caps =
            CapacityMap::uniform(self.nodes, self.node_capacity, self.collector_capacity)?;
        for (&n, &c) in &self.capacity_overrides {
            caps.set_node(NodeId(n), c)?;
        }
        Ok(caps)
    }

    /// Builds the cost model.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::InvalidParameter`] for invalid costs.
    pub fn cost(&self) -> Result<CostModel, PlanError> {
        CostModel::new(self.per_message_cost, self.per_value_cost)
    }

    /// Builds the attribute catalog.
    ///
    /// # Errors
    ///
    /// Returns an error string for unknown aggregation names or
    /// invalid frequencies.
    pub fn catalog(&self) -> Result<AttrCatalog, String> {
        let mut catalog = AttrCatalog::new();
        for spec in &self.attributes {
            let mut info = AttrInfo::new(spec.name.clone());
            if let Some(agg) = &spec.aggregation {
                info = info.with_aggregation(parse_aggregation(agg)?);
            }
            if let Some(f) = spec.frequency {
                info = info.with_frequency(f).map_err(|e| e.to_string())?;
            }
            catalog.register(info);
        }
        Ok(catalog)
    }

    /// Builds the deduplicated pair set via the task manager.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] for empty tasks.
    pub fn pairs(&self) -> Result<PairSet, PlanError> {
        let mut tm = TaskManager::new();
        for (i, t) in self.tasks.iter().enumerate() {
            tm.add(MonitoringTask::new(
                TaskId(i as u32),
                t.attrs.iter().copied().map(AttrId),
                t.nodes.iter().copied().map(NodeId),
            ))?;
        }
        Ok(tm.pairs())
    }

    /// Plans the monitoring forest described by this spec.
    ///
    /// # Errors
    ///
    /// Returns a message for any invalid part of the spec.
    pub fn plan(&self) -> Result<MonitoringPlan, String> {
        Ok(self.plan_with_report()?.0)
    }

    /// Like [`plan`](Self::plan), also returning the search telemetry
    /// (rounds run and skipped, why the search ended).
    ///
    /// # Errors
    ///
    /// Returns a message for any invalid part of the spec.
    pub fn plan_with_report(&self) -> Result<(MonitoringPlan, PlanReport), String> {
        let caps = self.capacities().map_err(|e| e.to_string())?;
        let cost = self.cost().map_err(|e| e.to_string())?;
        let catalog = self.catalog()?;
        let pairs = self.pairs().map_err(|e| e.to_string())?;
        let planner = Planner::new(PlannerConfig {
            aggregation_aware: self.aggregation_aware,
            frequency_aware: self.frequency_aware,
            ..PlannerConfig::default()
        });
        Ok(planner.plan_with_report(&pairs, &caps, cost, &catalog))
    }
}

fn parse_aggregation(s: &str) -> Result<Aggregation, String> {
    let lower = s.to_ascii_lowercase();
    match lower.as_str() {
        "holistic" => Ok(Aggregation::Holistic),
        "sum" => Ok(Aggregation::Sum),
        "max" | "min" => Ok(Aggregation::Max),
        "distinct" => Ok(Aggregation::Distinct),
        _ => {
            if let Some(k) = lower.strip_prefix("top:") {
                let k: u32 = k
                    .parse()
                    .map_err(|_| format!("bad top-k aggregation `{s}`"))?;
                Ok(Aggregation::Top(k))
            } else {
                Err(format!("unknown aggregation `{s}`"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn sample_spec() -> DeploymentSpec {
        DeploymentSpec {
            nodes: 8,
            node_capacity: 40.0,
            capacity_overrides: [(0, 80.0)].into_iter().collect(),
            collector_capacity: 300.0,
            per_message_cost: 4.0,
            per_value_cost: 1.0,
            attributes: vec![
                AttrSpec {
                    name: "cpu".into(),
                    ..AttrSpec::default()
                },
                AttrSpec {
                    name: "mem_max".into(),
                    aggregation: Some("max".into()),
                    frequency: Some(0.5),
                },
            ],
            tasks: vec![
                TaskSpec {
                    attrs: vec![0, 1],
                    nodes: (0..8).collect(),
                },
                TaskSpec {
                    attrs: vec![0],
                    nodes: vec![1, 2, 3],
                },
            ],
            aggregation_aware: true,
            frequency_aware: false,
        }
    }

    #[test]
    fn json_roundtrip() {
        let spec = sample_spec();
        let back = DeploymentSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn spec_plans_end_to_end() {
        let spec = sample_spec();
        let plan = spec.plan().unwrap();
        assert_eq!(plan.demanded_pairs(), 16);
        assert!(plan.collected_pairs() > 0);
        assert!(plan.partition().is_valid());
    }

    #[test]
    fn capacity_overrides_apply() {
        let caps = sample_spec().capacities().unwrap();
        assert_eq!(caps.node(NodeId(0)), Some(80.0));
        assert_eq!(caps.node(NodeId(1)), Some(40.0));
    }

    #[test]
    fn aggregation_parsing() {
        assert_eq!(parse_aggregation("SUM").unwrap(), Aggregation::Sum);
        assert_eq!(parse_aggregation("top:10").unwrap(), Aggregation::Top(10));
        assert!(parse_aggregation("median").is_err());
        assert!(parse_aggregation("top:x").is_err());
    }

    #[test]
    fn bad_json_reports_error() {
        assert!(DeploymentSpec::from_json("{not json").is_err());
    }

    #[test]
    fn minimal_json_with_defaults() {
        let json = r#"{
            "nodes": 3,
            "node_capacity": 20.0,
            "collector_capacity": 100.0,
            "per_message_cost": 2.0,
            "per_value_cost": 1.0,
            "tasks": [{"attrs": [0], "nodes": [0, 1, 2]}]
        }"#;
        let spec = DeploymentSpec::from_json(json).unwrap();
        let plan = spec.plan().unwrap();
        assert_eq!(plan.demanded_pairs(), 3);
        assert_eq!(plan.coverage(), 1.0);
    }
}
