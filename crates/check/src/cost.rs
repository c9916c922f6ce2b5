//! Symbolic message-cost bounds over the `C + a·x` model (paper §2.3).
//!
//! The planner searches partition shapes; this module *abstracts over
//! them*. For every node (and the collector) it computes an interval
//! `[lo, hi]` such that any monitoring plan built for the pair set —
//! any attribute partition, any tree shape, any allocation scheme —
//! lands inside it, provided the plan collects the node's demanded
//! pairs:
//!
//! * `lo` is the usage of the *cheapest* shape: the node rides as a
//!   leaf in a single tree carrying all of its attributes in one
//!   piggybacked message (`C + a·Σ funnel(w)`).
//! * `hi` is the usage of the *worst* shape: the node relays for every
//!   tree its attributes can pull it into, paying receive cost for
//!   every other participant's message and forwarding every value in
//!   the forest (each value is charged at most twice at one node:
//!   once received, once sent).
//!
//! Both ends use the exact interval transfer functions from
//! [`remo_core::Interval`]; because the cost model is affine and every
//! funnel is monotone, endpoint evaluation is exact — there is no
//! widening loss.

use remo_core::{AttrCatalog, AttrId, CostModel, Interval, NodeId, PairSet};
use std::collections::BTreeMap;

/// Planner-flag context the bounds are computed under (the same two
/// switches [`remo_core::evaluate::EvalContext`] carries).
#[derive(Debug, Clone, Copy, Default)]
pub struct CostFlags {
    /// Funnel functions applied at relays (paper §6.1).
    pub aggregation_aware: bool,
    /// Values weighted by update frequency (paper §6.3).
    pub frequency_aware: bool,
}

/// Plan-shape-independent usage bounds.
#[derive(Debug, Clone)]
pub struct CostBounds {
    /// Per-node usage interval, for every node demanded in the pair
    /// set. Sound for any plan that collects all of the node's pairs.
    pub per_node: BTreeMap<NodeId, Interval>,
    /// Collector intake interval. The lower end assumes every demanded
    /// pair is collected; the upper end holds unconditionally.
    pub collector: Interval,
    /// Number of distinct participant nodes.
    pub participants: usize,
    /// Number of distinct demanded attributes.
    pub attrs: usize,
}

impl CostBounds {
    /// The bound interval for `node` (empty-demand nodes get `[0,0]`).
    pub fn node(&self, node: NodeId) -> Interval {
        self.per_node.get(&node).copied().unwrap_or(Interval::ZERO)
    }
}

/// Per-value weight interval for one attribute.
///
/// Frequency-aware plans charge exactly the update frequency; unaware
/// plans charge full weight while the runtime still *sends* on the
/// frequency-derived period, so the long-run per-epoch weight floats
/// in `[freq, 1]`.
fn weight(catalog: &AttrCatalog, attr: AttrId, flags: CostFlags) -> Interval {
    let freq = catalog.get_or_default(attr).frequency();
    if flags.frequency_aware {
        Interval::point(freq)
    } else {
        Interval::new(freq, 1.0)
    }
}

/// Funnel transfer for one attribute's value interval: applied only
/// when planning is aggregation-aware, mirroring how
/// `make_request` builds the funnel table.
fn funnel(catalog: &AttrCatalog, attr: AttrId, values: Interval, flags: CostFlags) -> Interval {
    let agg = catalog.get_or_default(attr).aggregation();
    if flags.aggregation_aware && !agg.is_identity() {
        agg.funnel_interval(values)
    } else {
        values
    }
}

/// Computes usage bounds for every node and the collector.
///
/// Soundness argument, end by end:
///
/// * Node `lo`: collecting all of `n`'s pairs requires at least one
///   message out of `n` carrying (a funneled image of) each owned
///   value — cost `C + a·Σ funnel(w_lo)`. Every real plan pays at
///   least this.
/// * Node `hi`: trees are attribute-disjoint, so `n` participates in
///   at most `|A_n|` trees, sending one message in each and receiving
///   at most `P−1` messages per tree (`P` = total participants). Each
///   attribute's total weight `W_b` crosses `n` at most twice
///   (received from disjoint subtrees, then forwarded — funneled —
///   upstream).
/// * Collector `lo`: at least one root message arrives; per attribute
///   the root's outgoing is at least the globally-funneled demand
///   (hop-by-hop funnel application never reduces below
///   `funnel(W_b)` for the monotone, superadditive-under-min funnels
///   REMO uses).
/// * Collector `hi`: at most one root message per demanded attribute
///   (a partition has at most `#attrs` non-empty sets), each carrying
///   at most the (funneled) full demand of its attributes.
pub fn cost_bounds(
    pairs: &PairSet,
    catalog: &AttrCatalog,
    cost: CostModel,
    flags: CostFlags,
) -> CostBounds {
    let participants = pairs.nodes().count();
    let attr_ids: Vec<AttrId> = pairs.attr_universe().into_iter().collect();

    // Total demand weight per attribute, and its funneled image.
    let mut demand: BTreeMap<AttrId, Interval> = BTreeMap::new();
    let mut funneled: BTreeMap<AttrId, Interval> = BTreeMap::new();
    for &b in &attr_ids {
        let owners = pairs.nodes_of(b).len();
        let w = weight(catalog, b, flags);
        let total = w.scale(owners as f64);
        demand.insert(b, total);
        funneled.insert(b, funnel(catalog, b, total, flags));
    }

    // Forest-wide value flow through one relay: received (≤ raw
    // demand) plus sent (≤ funneled demand), per attribute.
    let flow_hi: f64 = attr_ids
        .iter()
        .map(|b| demand[b].hi() + funneled[b].hi())
        .sum();

    let mut per_node = BTreeMap::new();
    for n in pairs.nodes() {
        let owned = pairs.attrs_of(n).map_or(0, |s| s.len());
        // Best shape: leaf, one piggybacked message.
        let own_values: Interval = pairs
            .attrs_of(n)
            .into_iter()
            .flatten()
            .map(|&b| funnel(catalog, b, weight(catalog, b, flags), flags))
            .fold(Interval::ZERO, |acc, v| acc.add(v));
        let lo = cost.message_cost_interval(own_values).lo();
        // Worst shape: relay in |A_n| trees, each with every other
        // participant underneath.
        let messages_hi = (owned * participants) as f64;
        let hi = cost.per_message() * messages_hi + cost.per_value() * flow_hi;
        per_node.insert(n, Interval::new(lo, hi.max(lo)));
    }

    let collector = if attr_ids.is_empty() {
        Interval::ZERO
    } else {
        let values_lo: f64 = attr_ids.iter().map(|b| funneled[b].lo()).sum();
        let values_hi: f64 = attr_ids.iter().map(|b| funneled[b].hi()).sum();
        let lo = cost.per_message() + cost.per_value() * values_lo;
        let hi = cost.per_message() * attr_ids.len() as f64 + cost.per_value() * values_hi;
        Interval::new(lo, hi.max(lo))
    };

    CostBounds {
        per_node,
        collector,
        participants,
        attrs: attr_ids.len(),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use remo_core::evaluate::{build_forest, EvalContext};
    use remo_core::{AttrInfo, CapacityMap, Partition};

    fn dense(nodes: u32, attrs: u32) -> PairSet {
        (0..nodes)
            .flat_map(|n| (0..attrs).map(move |a| (NodeId(n), AttrId(a))))
            .collect()
    }

    /// Every concrete partition shape must land inside the interval.
    #[test]
    fn concrete_forests_land_inside_the_bounds() {
        let pairs = dense(6, 3);
        let catalog = AttrCatalog::new();
        let cost = CostModel::default();
        // Generous capacity so nothing is excluded (lo assumes full
        // collection).
        let caps = CapacityMap::uniform(6, 1e6, 1e7).unwrap();
        let bounds = cost_bounds(&pairs, &catalog, cost, CostFlags::default());

        let ctx = EvalContext::basic(&pairs, &caps, cost, &catalog);
        for partition in [
            Partition::one_set(pairs.attr_universe()),
            Partition::singleton(pairs.attr_universe()),
        ] {
            let plan = build_forest(&partition, &ctx);
            assert_eq!(plan.collected_pairs(), 18, "nothing excluded");
            for (n, u) in plan.node_usage() {
                let iv = bounds.node(n);
                assert!(
                    iv.contains(u),
                    "node {n} usage {u} outside [{}, {}]",
                    iv.lo(),
                    iv.hi()
                );
            }
            assert!(bounds.collector.contains(plan.collector_usage()));
        }
    }

    #[test]
    fn aggregation_awareness_tightens_the_collector_bound() {
        let mut catalog = AttrCatalog::new();
        let m = catalog.register(AttrInfo::new("m").with_aggregation(remo_core::Aggregation::Max));
        let pairs: PairSet = (0..10).map(|n| (NodeId(n), m)).collect();
        let cost = CostModel::default();
        let naive = cost_bounds(&pairs, &catalog, cost, CostFlags::default());
        let aware = cost_bounds(
            &pairs,
            &catalog,
            cost,
            CostFlags {
                aggregation_aware: true,
                ..CostFlags::default()
            },
        );
        assert!(aware.collector.hi() < naive.collector.hi());
        // A max funnel collapses ten values to one at the collector.
        assert!((aware.collector.hi() - cost.message_cost(1.0)).abs() < 1e-9);
    }

    #[test]
    fn frequency_awareness_pins_the_weight() {
        let mut catalog = AttrCatalog::new();
        let slow = catalog.register(AttrInfo::new("slow").with_frequency(0.25).unwrap());
        let pairs: PairSet = (0..4).map(|n| (NodeId(n), slow)).collect();
        let cost = CostModel::default();
        let unaware = cost_bounds(&pairs, &catalog, cost, CostFlags::default());
        let aware = cost_bounds(
            &pairs,
            &catalog,
            cost,
            CostFlags {
                frequency_aware: true,
                ..CostFlags::default()
            },
        );
        // Unaware: weight floats in [0.25, 1]; aware: pinned at 0.25.
        assert!(aware.collector.width() < unaware.collector.width());
        assert!((aware.collector.lo() - unaware.collector.lo()).abs() < 1e-9);
    }

    #[test]
    fn empty_pairs_give_zero_bounds() {
        let bounds = cost_bounds(
            &PairSet::new(),
            &AttrCatalog::new(),
            CostModel::default(),
            CostFlags::default(),
        );
        assert!(bounds.per_node.is_empty());
        assert_eq!(bounds.collector, Interval::ZERO);
    }
}
