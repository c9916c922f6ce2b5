//! Seeded small-topology generation for bounded exploration.
//!
//! A [`TopologySpec`] pins everything the model checker needs to
//! rebuild an initial protocol state deterministically: node/attribute
//! counts, capacity budgets, the adaptation scheme, the failure
//! detector's `confirm_after`, and a seed for the pair-set generator.
//! Specs serialize into replay files, so a minimized counterexample
//! carries its topology with it.

use remo_core::adapt::{AdaptScheme, AdaptivePlanner};
use remo_core::planner::Planner;
use remo_core::{AttrCatalog, AttrId, CapacityMap, CostModel, NodeId, PairSet};
use serde::{Deserialize, Serialize};

/// A deterministic small topology the checker explores from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologySpec {
    /// Monitored nodes (the checker targets n ≤ 8).
    pub nodes: u32,
    /// Distinct attributes demanded across the system.
    pub attrs: u32,
    /// Per-node capacity budget.
    pub node_budget: f64,
    /// Collector capacity budget.
    pub collector_budget: f64,
    /// Seed for the pair-set generator.
    pub seed: u64,
    /// Adaptation scheme the self-healing planner runs.
    pub scheme: AdaptScheme,
    /// Consecutive missed epochs before a silent node is confirmed
    /// dead (the detector's `K`).
    pub confirm_after: u32,
    /// Most nodes allowed to be physically down at once (bounds the
    /// branching factor, and keeps residual capacity plannable).
    pub max_down: u32,
}

impl TopologySpec {
    /// A compact default: 4 nodes, 2 attributes, fast confirmation.
    pub fn small(seed: u64) -> Self {
        TopologySpec {
            nodes: 4,
            attrs: 2,
            node_budget: 60.0,
            collector_budget: 600.0,
            seed,
            scheme: AdaptScheme::Adaptive,
            confirm_after: 1,
            max_down: 1,
        }
    }

    /// The seeded pair set: every node owns attribute `node % attrs`
    /// (so demand touches all nodes), plus seeded extra pairs at
    /// roughly 50% density.
    pub fn pairs(&self) -> PairSet {
        let mut rng = XorShift::new(self.seed);
        let mut pairs = PairSet::new();
        for n in 0..self.nodes {
            pairs.insert(NodeId(n), AttrId(n % self.attrs.max(1)));
            for a in 0..self.attrs {
                if rng.next_u64().is_multiple_of(2) {
                    pairs.insert(NodeId(n), AttrId(a));
                }
            }
        }
        pairs
    }

    /// The capacity map as launched.
    ///
    /// # Errors
    ///
    /// Propagates [`remo_core::PlanError`] on negative budgets in the
    /// spec.
    pub fn caps(&self) -> Result<CapacityMap, remo_core::PlanError> {
        CapacityMap::uniform(self.nodes as usize, self.node_budget, self.collector_budget)
    }

    /// Builds the self-healing planner this spec deploys.
    ///
    /// # Errors
    ///
    /// Propagates [`remo_core::PlanError`] from capacity construction.
    pub fn planner(&self) -> Result<AdaptivePlanner, remo_core::PlanError> {
        Ok(AdaptivePlanner::new(
            Planner::default(),
            self.scheme,
            self.pairs(),
            self.caps()?,
            CostModel::default(),
            AttrCatalog::new(),
        ))
    }

    /// All node ids of the topology.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes).map(NodeId)
    }
}

/// The default seeded topology set `remo-check mc explore` sweeps: a spread
/// of sizes, schemes, and detector settings, all within n ≤ 8.
pub fn seeded_specs() -> Vec<TopologySpec> {
    vec![
        TopologySpec::small(1),
        TopologySpec {
            nodes: 5,
            attrs: 2,
            seed: 7,
            confirm_after: 2,
            ..TopologySpec::small(0)
        },
        TopologySpec {
            nodes: 6,
            attrs: 3,
            seed: 11,
            scheme: AdaptScheme::NoThrottle,
            max_down: 2,
            ..TopologySpec::small(0)
        },
        TopologySpec {
            nodes: 8,
            attrs: 2,
            node_budget: 80.0,
            collector_budget: 900.0,
            seed: 23,
            scheme: AdaptScheme::Rebuild,
            ..TopologySpec::small(0)
        },
    ]
}

/// Deterministic xorshift64* generator: the checker must not depend
/// on ambient randomness, only on the spec's seed.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// A generator over `seed` (zero is remapped to a fixed odd seed).
    pub fn new(seed: u64) -> Self {
        XorShift(seed.max(1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Next pseudo-random value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn pairs_are_deterministic_and_cover_all_nodes() {
        let spec = TopologySpec::small(42);
        let a = spec.pairs();
        let b = spec.pairs();
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            b.iter().collect::<Vec<_>>(),
            "same seed, same pairs"
        );
        for n in spec.node_ids() {
            assert!(a.attrs_of(n).is_some(), "node {n} owns at least one pair");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = TopologySpec::small(1).pairs();
        let b = TopologySpec::small(2).pairs();
        assert_ne!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
    }

    #[test]
    fn seeded_specs_stay_small() {
        for spec in seeded_specs() {
            assert!(spec.nodes <= 8, "bounded exploration targets n ≤ 8");
            assert!(spec.planner().is_ok());
        }
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = TopologySpec::small(9);
        let text = serde_json::to_string_pretty(&spec).unwrap();
        let back: TopologySpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back, spec);
    }
}
