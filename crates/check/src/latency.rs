//! Closed-form worst-case staleness under the ARQ transport.
//!
//! The lossy runtime (PR 6) retransmits unacked frames on an
//! exponential backoff and the collector widens reporting intervals
//! under backpressure. Both mechanisms have closed forms exported by
//! [`remo_runtime::NetConfig`]; this module composes them into a
//! per-attribute worst-case snapshot-age bound:
//!
//! ```text
//! staleness(attr) ≤ period(attr) · 2^max_degrade_level      (production gap)
//!                 + depth_max · per_hop                      (forwarding)
//!                 + 1                                        (collector records at epoch+1)
//!
//! per_hop = last_attempt_offset + delay_max + 2
//! ```
//!
//! `last_attempt_offset` is the geometric backoff series
//! `base_rto·(2^(A−1)−1)`; `delay_max` the network's delivery delay
//! cap; the `+2` covers the send epoch itself and ack turnaround. The
//! bound is *conditional*: it holds when the degrade analysis
//! certifies the collector keeps up (no shedding, no unbounded queue
//! wait) and no permanent partition window or certain-loss link cuts a
//! demanded node off — those conditions are what [`crate::analyze()`]
//! turns into RA019 findings when violated.

use remo_core::{AttrCatalog, AttrId, NodeId, PairSet};
use remo_runtime::{NetConfig, NetSpec};
use std::collections::{BTreeMap, BTreeSet};

/// Worst-case end-to-end staleness bounds.
#[derive(Debug, Clone)]
pub struct StalenessBounds {
    /// Epochs one tree hop can hold a reading: full retry schedule,
    /// maximum delivery delay, send + ack turnaround.
    pub per_hop: u64,
    /// Maximum forwarding depth (root has depth 1; a path can thread
    /// every node).
    pub depth_max: u64,
    /// Worst-case production gap multiplier, `2^max_degrade_level`.
    pub max_degrade_factor: u64,
    /// Per-attribute snapshot-age bound (epochs).
    pub per_attr: BTreeMap<AttrId, u64>,
    /// Probability a frame survives its full retry budget on the
    /// default link.
    pub delivery_probability: f64,
    /// Demanded nodes severed forever: members of a permanent
    /// partition window, or behind a certain-loss network that never
    /// heals. Their pairs can never reach the collector.
    pub unreachable: BTreeSet<NodeId>,
}

impl StalenessBounds {
    /// The loosest per-attribute bound, if any attribute is demanded.
    pub fn worst(&self) -> Option<u64> {
        self.per_attr.values().copied().max()
    }
}

/// Computes the closed-form staleness bounds for `pairs` under `net`
/// and `cfg`.
pub fn staleness_bounds(
    pairs: &PairSet,
    catalog: &AttrCatalog,
    net: &NetSpec,
    cfg: &NetConfig,
) -> StalenessBounds {
    let per_hop = cfg
        .last_attempt_offset()
        .saturating_add(net.delay_max)
        .saturating_add(2);
    let depth_max = pairs.nodes().count().max(1) as u64;
    let factor = cfg.max_degrade_factor();

    let mut per_attr = BTreeMap::new();
    for b in pairs.attrs() {
        let period = catalog.get_or_default(b).period();
        let bound = period
            .saturating_mul(factor)
            .saturating_add(depth_max.saturating_mul(per_hop))
            .saturating_add(1);
        per_attr.insert(b, bound);
    }

    // Permanently severed nodes: a partition window with no end epoch
    // cuts its members off from the collector (always outside), and a
    // default drop probability of 1.0 with no healing epoch kills
    // every retransmission forever.
    let mut unreachable = BTreeSet::new();
    let certain_loss = net.drop >= 1.0 && net.active_until.is_none();
    for n in pairs.nodes() {
        if certain_loss {
            unreachable.insert(n);
            continue;
        }
        if net
            .partitions
            .iter()
            .any(|p| p.until_epoch.is_none() && p.members.contains(&n))
        {
            unreachable.insert(n);
        }
    }

    StalenessBounds {
        per_hop,
        depth_max,
        max_degrade_factor: factor,
        per_attr,
        delivery_probability: cfg.delivery_probability(net.drop),
        unreachable,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use remo_core::AttrInfo;
    use remo_runtime::PartitionWindow;

    fn pairs(n: u32) -> PairSet {
        (0..n).map(|i| (NodeId(i), AttrId(0))).collect()
    }

    #[test]
    fn closed_form_matches_the_arq_schedule() {
        let net = NetSpec {
            delay_max: 3,
            ..NetSpec::default()
        };
        let cfg = NetConfig::default(); // base_rto 2, 5 attempts, level 3
        let b = staleness_bounds(&pairs(4), &AttrCatalog::new(), &net, &cfg);
        // last_attempt_offset = 2·(1+2+4+8) = 30; per_hop = 30+3+2.
        assert_eq!(b.per_hop, 35);
        assert_eq!(b.depth_max, 4);
        assert_eq!(b.max_degrade_factor, 8);
        // period 1 · 8 + 4·35 + 1
        assert_eq!(b.per_attr[&AttrId(0)], 149);
        assert!(b.unreachable.is_empty());
    }

    #[test]
    fn slow_attrs_loosen_the_bound_by_their_period() {
        let mut catalog = AttrCatalog::new();
        let slow = catalog.register(AttrInfo::new("slow").with_frequency(0.25).unwrap());
        let fast = catalog.register(AttrInfo::new("fast"));
        let mut ps = PairSet::new();
        ps.insert(NodeId(0), slow);
        ps.insert(NodeId(0), fast);
        let b = staleness_bounds(&ps, &catalog, &NetSpec::default(), &NetConfig::default());
        assert_eq!(b.per_attr[&slow] - b.per_attr[&fast], 3 * 8);
    }

    #[test]
    fn permanent_partitions_and_certain_loss_mark_nodes_unreachable() {
        let mut net = NetSpec::default();
        net.partitions.push(PartitionWindow {
            name: "forever".into(),
            members: [NodeId(1)].into_iter().collect(),
            from_epoch: 5,
            until_epoch: None,
        });
        let b = staleness_bounds(&pairs(3), &AttrCatalog::new(), &net, &NetConfig::default());
        assert_eq!(
            b.unreachable.iter().copied().collect::<Vec<_>>(),
            [NodeId(1)]
        );

        // A bounded window is fine.
        net.partitions[0].until_epoch = Some(9);
        let b = staleness_bounds(&pairs(3), &AttrCatalog::new(), &net, &NetConfig::default());
        assert!(b.unreachable.is_empty());

        // Certain loss that never heals severs everyone.
        let dead = NetSpec {
            drop: 1.0,
            ..NetSpec::default()
        };
        let b = staleness_bounds(&pairs(3), &AttrCatalog::new(), &dead, &NetConfig::default());
        assert_eq!(b.unreachable.len(), 3);
        assert_eq!(b.delivery_probability, 0.0);

        // Certain loss that heals does not.
        let healing = NetSpec {
            drop: 1.0,
            active_until: Some(20),
            ..NetSpec::default()
        };
        let b = staleness_bounds(
            &pairs(3),
            &AttrCatalog::new(),
            &healing,
            &NetConfig::default(),
        );
        assert!(b.unreachable.is_empty());
    }
}
