//! Known-bad bundles, one per static rule.
//!
//! Mirrors `remo_audit::corpus`: each case is a minimal deployment
//! bundle engineered to trip exactly one of RA018–RA021, used as
//! regression anchors for the analyzer and as `--example` seeds for
//! the CLI.

use crate::StaticBundle;
use remo::spec::{DeploymentSpec, TaskSpec};
use remo_core::corpus::Case;
use remo_core::NodeId;
use remo_runtime::{NetConfig, NetSpec, PartitionWindow};
use std::collections::BTreeMap;

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

/// The four known-bad cases, in rule order.
pub fn cases() -> Vec<Case<StaticBundle>> {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every corpus case trips its rule — and *only* its rule —
    /// before and after the JSON round-trip that makes it a CLI
    /// `--example` seed.
    #[test]
    fn each_case_trips_exactly_its_rule() {
        remo_core::corpus::check(&cases(), |bundle| match crate::analyze(bundle) {
            Ok(report) => report.findings,
            Err(e) => panic!("corpus bundle failed to analyze: {e}"),
        });
    }
}
