//! Fixed-point analysis of the collector's backpressure loop.
//!
//! Under load the collector widens every agent's effective reporting
//! interval by `2^ℓ` (degrade level ℓ, capped at
//! `max_degrade_level`). Modeled as a fluid system:
//!
//! ```text
//! arrival(ℓ)   = Σ_pairs 1 / (period(attr) · 2^ℓ)      readings/epoch
//! service_worst = (B_c − C·#attrs) / a                  readings/epoch
//! ```
//!
//! `service_worst` charges the collector a full message overhead for
//! every demanded attribute each epoch (the worst shape: one root per
//! attribute) before spending the remainder on per-value intake. The
//! degrade loop stabilizes iff some level `ℓ ≤ max_degrade_level` has
//! `arrival(ℓ) ≤ service_worst` — the least such level is the fixed
//! point the runtime can settle at. If no level suffices, the queue
//! is bounded only by shedding: RA020 when the degrade ladder exists
//! but is too short, RA021 when it was disabled outright.

use remo_core::{AttrCatalog, CostModel, PairSet};
use remo_runtime::{NetConfig, NetSpec};

/// Outcome of the backpressure fixed-point search.
#[derive(Debug, Clone)]
pub struct DegradeAnalysis {
    /// Worst-case readings/epoch the collector budget can absorb.
    pub service_worst: f64,
    /// `arrival(ℓ)` for `ℓ = 0..=max_degrade_level`.
    pub arrival: Vec<f64>,
    /// Least degrade level whose arrival rate fits the worst-case
    /// service rate, if any.
    pub converges_at: Option<u32>,
    /// Upper bound on readings simultaneously outstanding (produced
    /// but not yet processed) at degrade level 0.
    pub in_flight_hi: u64,
    /// The collector is certified never to shed: the system keeps up
    /// without degrading at all and every outstanding reading fits the
    /// ingress queue.
    pub shed_free: bool,
    /// Sound ingress-depth bound in readings. Always at most the
    /// configured capacity (shedding enforces it); tightened to the
    /// in-flight bound when shed-freedom is certified.
    pub queue_bound: usize,
}

/// Runs the fluid fixed-point analysis.
pub fn degrade_analysis(
    pairs: &PairSet,
    catalog: &AttrCatalog,
    cost: CostModel,
    collector_budget: f64,
    net: &NetSpec,
    cfg: &NetConfig,
) -> DegradeAnalysis {
    let attrs = pairs.attr_universe().len();
    let service_worst = (collector_budget - cost.per_message() * attrs as f64)
        / cost.per_value().max(f64::MIN_POSITIVE);

    let base_rate: f64 = pairs
        .iter()
        .map(|(_, b)| 1.0 / catalog.get_or_default(b).period() as f64)
        .sum();
    let arrival: Vec<f64> = (0..=cfg.max_degrade_level)
        .map(|l| base_rate / NetConfig::degrade_factor_at(l) as f64)
        .collect();
    let converges_at = arrival
        .iter()
        .position(|&r| r <= service_worst)
        .map(|i| i as u32);

    // A reading lives at most `retry_window + delay_max + 1` epochs
    // between production and intake (full retry schedule, then the
    // slowest delivery, then the intake epoch), per hop, over at most
    // `depth` hops; each pair has at most ⌈lifetime / period⌉ readings
    // younger than that at any instant.
    let depth = pairs.nodes().count().max(1) as u64;
    let lifetime = cfg
        .retry_window()
        .saturating_add(net.delay_max)
        .saturating_add(1)
        .saturating_mul(depth);
    let in_flight_hi: u64 = pairs
        .iter()
        .map(|(_, b)| {
            let period = catalog.get_or_default(b).period();
            lifetime.div_ceil(period)
        })
        .sum();

    let shed_free = converges_at == Some(0) && in_flight_hi <= cfg.ingress_capacity as u64;
    let queue_bound = if shed_free {
        (in_flight_hi as usize).min(cfg.ingress_capacity)
    } else {
        cfg.ingress_capacity
    };

    DegradeAnalysis {
        service_worst,
        arrival,
        converges_at,
        in_flight_hi,
        shed_free,
        queue_bound,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use remo_core::{AttrId, NodeId};

    fn dense(nodes: u32, attrs: u32) -> PairSet {
        (0..nodes)
            .flat_map(|n| (0..attrs).map(move |a| (NodeId(n), AttrId(a))))
            .collect()
    }

    #[test]
    fn ample_budget_converges_immediately_and_certifies_shed_freedom() {
        let pairs = dense(4, 2);
        let a = degrade_analysis(
            &pairs,
            &AttrCatalog::new(),
            CostModel::default(),
            10_000.0,
            &NetSpec::default(),
            &NetConfig::default(),
        );
        assert_eq!(a.converges_at, Some(0));
        assert!(a.shed_free);
        assert!(a.queue_bound <= NetConfig::default().ingress_capacity);
    }

    #[test]
    fn degrade_ladder_rescues_a_starved_collector() {
        // 8 pairs/epoch at level 0; service ≈ (20 − 2·2)/1 = 16 … make
        // it tighter: budget 8 → service 4 < 8, level 1 halves the
        // arrival to 4 → converges at 1.
        let pairs = dense(4, 2);
        let cost = CostModel::new(1.0, 1.0).unwrap();
        let a = degrade_analysis(
            &pairs,
            &AttrCatalog::new(),
            cost,
            6.0,
            &NetSpec::default(),
            &NetConfig::default(),
        );
        assert_eq!(a.converges_at, Some(1));
        assert!(!a.shed_free);
        assert_eq!(a.queue_bound, NetConfig::default().ingress_capacity);
    }

    #[test]
    fn too_short_a_ladder_diverges() {
        let pairs = dense(64, 4); // 256 readings/epoch
        let cost = CostModel::new(1.0, 1.0).unwrap();
        let cfg = NetConfig {
            max_degrade_level: 2, // best factor 4 → 64/epoch
            ..NetConfig::default()
        };
        let a = degrade_analysis(
            &pairs,
            &AttrCatalog::new(),
            cost,
            16.0,
            &NetSpec::default(),
            &cfg,
        );
        assert_eq!(a.converges_at, None);
        assert_eq!(a.arrival.len(), 3);
    }
}
