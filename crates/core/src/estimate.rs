//! Gain estimation for ranking partition augmentations (paper §3.1.1
//! and the online appendix; see DESIGN.md for the estimator we
//! substitute for the unavailable appendix).
//!
//! Evaluating a candidate merge/split requires building trees, which is
//! expensive; the guided search instead *ranks* candidates by cheap
//! estimates and only evaluates the most promising few.

use crate::cost::CostModel;
use crate::ids::AttrId;
use crate::pairs::PairSet;
use crate::partition::{Partition, PartitionOp};
use crate::plan::{MonitoringPlan, PlannedTree};
use std::borrow::Borrow;
use std::collections::BTreeSet;

/// Cheap gain/cost estimates over a fixed pair set and cost model.
#[derive(Debug, Clone, Copy)]
pub struct GainEstimator<'a> {
    pairs: &'a PairSet,
    cost: CostModel,
    /// Largest per-node budget: a merged tree whose root message
    /// cannot fit in this is structurally incapable of delivering its
    /// payload and ranks accordingly.
    root_capacity: Option<f64>,
}

impl<'a> GainEstimator<'a> {
    /// Creates an estimator.
    pub fn new(pairs: &'a PairSet, cost: CostModel) -> Self {
        GainEstimator {
            pairs,
            cost,
            root_capacity: None,
        }
    }

    /// Creates an estimator that additionally knows the largest
    /// per-node budget, enabling the root-feasibility penalty on merge
    /// candidates.
    pub fn with_capacity(pairs: &'a PairSet, cost: CostModel, max_budget: f64) -> Self {
        GainEstimator {
            pairs,
            cost,
            root_capacity: Some(max_budget),
        }
    }

    /// Estimated benefit of splitting `attr` out of a set whose tree
    /// currently fails to collect `uncollected_pairs` pairs: the
    /// smaller messages may let the saturated tree grow (worth about
    /// `a` per uncollected pair), minus the `2C` overhead added at
    /// every node that then must send two messages.
    pub fn split_gain(
        &self,
        set_i: &BTreeSet<AttrId>,
        attr: AttrId,
        uncollected_pairs: usize,
    ) -> f64 {
        let idx = self.pairs.index();
        let owners = idx.owners(attr);
        if owners.is_empty() {
            return f64::NEG_INFINITY;
        }
        // Nodes that own `attr` *and* another attribute of the set —
        // they pay an extra message after the split.
        let rest: BTreeSet<AttrId> = set_i.iter().copied().filter(|&a| a != attr).collect();
        let mut rest_nodes = Vec::new();
        idx.or_participants(&rest, &mut rest_nodes);
        let owns_rest = |d: u32| rest_nodes[d as usize / 64] & (1u64 << (d % 64)) != 0;
        let overlap = owners.iter().filter(|&&d| owns_rest(d)).count();
        self.cost.per_value() * uncollected_pairs as f64
            - 2.0 * self.cost.per_message() * overlap as f64
    }

    /// Lower bound on the number of topology edges a merge must change:
    /// at minimum every node of the smaller tree is re-parented.
    pub fn merge_cost_lb(&self, plan: &MonitoringPlan, i: usize, j: usize) -> usize {
        self.merge_cost_lb_trees(plan.trees(), i, j)
    }

    /// [`merge_cost_lb`](Self::merge_cost_lb) over a bare tree slice,
    /// for callers that track trees without wrapping them in a plan
    /// (including `Arc<PlannedTree>` working sets).
    pub fn merge_cost_lb_trees<T: Borrow<PlannedTree>>(
        &self,
        trees: &[T],
        i: usize,
        j: usize,
    ) -> usize {
        let size = |k: usize| trees.get(k).map_or(0, |t| t.borrow().len());
        size(i).min(size(j)).max(1)
    }

    /// Lower bound on the edges a split must change: the extracted
    /// attribute's tree must be wired up from scratch.
    pub fn split_cost_lb(&self, attr: AttrId) -> usize {
        self.pairs.nodes_of(attr).len().max(1)
    }

    /// Ranks the neighborhood operations of `partition` by decreasing
    /// estimated gain. `plan` supplies per-tree uncollected-pair counts
    /// for split estimation (pass the current plan).
    ///
    /// A merge frees `2C` at every node included in both trees: it sends
    /// (and its parent receives) one message instead of two. Gains are
    /// in **capacity units** (send + receive); a plan's
    /// [`message_volume`](crate::plan::MonitoringPlan::message_volume)
    /// counts sends only, so the volume an op frees is `gain / 2` — see
    /// the `ranked_gains_match_evaluated_send_deltas` property test.
    ///
    /// Merges of trees with *no shared participants* are not
    /// enumerated: they save no per-message overhead (only one
    /// collector message) and would rank last anyway; skipping them
    /// keeps ranking `O(Σ_node k_node²)` instead of `O(k²·n)`. If no
    /// overlapping pair exists, the smallest two trees are offered as
    /// a fallback merge so the search never starves. Splits of
    /// attributes with no owners are likewise not enumerated
    /// ([`split_gain`](Self::split_gain) ranks them `−∞`): they are
    /// structural no-ops and must not ride a congested set's
    /// `a·uncollected` term to the front of the ranking.
    pub fn rank_ops(
        &self,
        partition: &Partition,
        plan: &MonitoringPlan,
    ) -> Vec<(PartitionOp, f64)> {
        self.rank_ops_trees(partition, plan.trees())
    }

    /// [`rank_ops`](Self::rank_ops) over a bare tree slice, so callers
    /// holding `(Partition, Vec<PlannedTree>)` state need not assemble
    /// a throwaway [`MonitoringPlan`] every round.
    pub fn rank_ops_trees<T: Borrow<PlannedTree>>(
        &self,
        partition: &Partition,
        trees: &[T],
    ) -> Vec<(PartitionOp, f64)> {
        use std::collections::BTreeMap;

        let sets = partition.sets();
        let idx = self.pairs.index();
        let n = idx.node_count();
        let k = trees.len();
        let uncollected: Vec<usize> = trees
            .iter()
            .map(|t| {
                let t = t.borrow();
                t.demanded_pairs.saturating_sub(t.collected_pairs)
            })
            .collect();

        // Per-node membership over nodes *included in the current
        // trees* — only they are actually paying per-message overhead,
        // so only their overlap is freed by a merge (a saturated-out
        // demand overlap frees nothing). Indexed by dense node id:
        // dense ids ascend with NodeId, so iteration order matches the
        // old BTreeMap<NodeId, _> walk exactly.
        let mut member_sets: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut included: Vec<Vec<u32>> = Vec::with_capacity(k);
        for (i, planned) in trees.iter().enumerate() {
            let mut mine = Vec::new();
            if let Some(tree) = planned.borrow().tree.as_ref() {
                for node in tree.nodes() {
                    let d = idx
                        .dense_node(node)
                        .unwrap_or_else(|| unreachable!("member owns attrs"));
                    member_sets[d as usize].push(i as u32);
                    mine.push(d);
                }
            }
            included.push(mine);
        }
        // Pairwise included-member overlap. Tree counts stay small (one
        // per attribute set), so a dense k×k triangle beats a keyed map
        // for every realistic round; the map remains as a fallback so a
        // pathological partition cannot allocate k² words.
        let mut overlap_dense: Vec<u32> = Vec::new();
        let mut overlap_map: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let use_dense = k <= 1 << 10;
        if use_dense {
            overlap_dense.resize(k * k, 0);
        }
        for here in &member_sets {
            for x in 0..here.len() {
                for y in (x + 1)..here.len() {
                    let (a, b) = (here[x].min(here[y]) as usize, here[x].max(here[y]) as usize);
                    if use_dense {
                        overlap_dense[a * k + b] += 1;
                    } else {
                        *overlap_map.entry((a, b)).or_insert(0) += 1;
                    }
                }
            }
        }
        if use_dense {
            for i in 0..k {
                for j in (i + 1)..k {
                    let ov = overlap_dense[i * k + j];
                    if ov > 0 {
                        overlap_map.insert((i, j), ov as usize);
                    }
                }
            }
        }
        // Split gains: per-(set, attr) counts of included multi-attr
        // owners (they would pay an extra message after the split).
        // Attr-major over the CSR owner rows: stamp each set's included
        // members, count owned-in-set attrs per member, then re-walk
        // the rows crediting attrs whose included owners own ≥ 2.
        let mut multi_owner: BTreeMap<(usize, AttrId), usize> = BTreeMap::new();
        let mut owned_in_set = vec![0u32; n];
        let mut stamp = vec![usize::MAX; n];
        for (i, set) in sets.iter().enumerate() {
            if set.len() < 2 || included.get(i).is_none_or(Vec::is_empty) {
                continue;
            }
            for &d in &included[i] {
                stamp[d as usize] = i;
                owned_in_set[d as usize] = 0;
            }
            for &attr in set {
                for &o in idx.owners(attr) {
                    if stamp[o as usize] == i {
                        owned_in_set[o as usize] += 1;
                    }
                }
            }
            for &attr in set {
                let mut count = 0usize;
                for &o in idx.owners(attr) {
                    if stamp[o as usize] == i && owned_in_set[o as usize] >= 2 {
                        count += 1;
                    }
                }
                if count > 0 {
                    multi_owner.insert((i, attr), count);
                }
            }
        }

        let mut ranked: Vec<(PartitionOp, f64)> = Vec::new();
        for (&(i, j), &ov) in &overlap_map {
            let mut gain = 2.0 * self.cost.per_message() * ov as f64;
            // Root-feasibility penalty: the merged tree's root must
            // carry both trees' payloads in one message.
            if let Some(cap) = self.root_capacity {
                let payload =
                    (trees[i].borrow().collected_pairs + trees[j].borrow().collected_pairs) as f64;
                let feasible = ((cap - self.cost.per_message()) / self.cost.per_value()).max(0.0);
                let excess = payload - feasible;
                if excess > 0.0 {
                    gain -= 2.0 * self.cost.per_value() * excess;
                }
            }
            ranked.push((PartitionOp::Merge(i, j), gain));
        }
        if ranked.is_empty() && sets.len() >= 2 {
            // Fallback: merge the two smallest trees (saves one
            // collector message).
            let mut by_size: Vec<usize> = (0..sets.len()).collect();
            by_size.sort_by_key(|&i| trees.get(i).map_or(0, |t| t.borrow().len()));
            ranked.push((
                PartitionOp::Merge(by_size[0].min(by_size[1]), by_size[0].max(by_size[1])),
                self.cost.per_message(),
            ));
        }
        // Stranded sets (no tree built at all) can only be collected by
        // riding along a built tree: offer each one's best
        // demand-overlap partner as a low-ranked candidate. Overlaps
        // come from participant bitsets built once for the whole round
        // (AND-popcount per pair) rather than a participant-set
        // materialization per (stranded, partner) pair, which made this
        // loop O(sets²·attrs) on large singleton partitions.
        let stranded: Vec<usize> = trees
            .iter()
            .enumerate()
            .filter(|&(i, planned)| planned.borrow().tree.is_none() && i < sets.len())
            .map(|(i, _)| i)
            .collect();
        if !stranded.is_empty() {
            let bitsets = self.pairs.participant_bitsets(sets);
            for i in stranded {
                // Exact counts keep `max_by_key` picking the same
                // (last-maximal) partner the set-intersection scan did.
                let best = (0..sets.len())
                    .filter(|&j| j != i && trees[j].borrow().tree.is_some())
                    .max_by_key(|&j| bitsets.overlap(i, j));
                if let Some(j) = best {
                    ranked.push((
                        PartitionOp::Merge(i.min(j), i.max(j)),
                        self.cost.per_message(),
                    ));
                }
            }
        }
        for (i, s) in sets.iter().enumerate() {
            if s.len() < 2 {
                continue;
            }
            let un = uncollected.get(i).copied().unwrap_or(0);
            for &attr in s {
                // An attribute nobody owns (possible after failures
                // shrink the pair set under a stale partition) builds
                // an empty tree: splitting it out is a structural
                // no-op. `split_gain` ranks it −∞; enumerating it here
                // with gain `a·uncollected` would outrank every real
                // candidate on a congested set, so skip it entirely.
                if idx.owners(attr).is_empty() {
                    continue;
                }
                let ov = multi_owner.get(&(i, attr)).copied().unwrap_or(0);
                let gain =
                    self.cost.per_value() * un as f64 - 2.0 * self.cost.per_message() * ov as f64;
                ranked.push((PartitionOp::Split(i, attr), gain));
            }
        }

        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        ranked
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::ids::NodeId;

    fn pairs_two_attr_overlap() -> PairSet {
        // attr0 on nodes 0-5, attr1 on nodes 3-8: overlap {3,4,5}.
        let mut p = PairSet::new();
        for n in 0..6 {
            p.insert(NodeId(n), AttrId(0));
        }
        for n in 3..9 {
            p.insert(NodeId(n), AttrId(1));
        }
        p
    }

    #[test]
    fn split_gain_rises_with_congestion() {
        let pairs = pairs_two_attr_overlap();
        let est = GainEstimator::new(&pairs, CostModel::new(2.0, 1.0).unwrap());
        let both: BTreeSet<AttrId> = [AttrId(0), AttrId(1)].into_iter().collect();
        let idle = est.split_gain(&both, AttrId(1), 0);
        let congested = est.split_gain(&both, AttrId(1), 20);
        assert!(congested > idle);
        // Overlap {3,4,5} pays 2C each: idle gain is −12.
        assert_eq!(idle, -12.0);
    }

    #[test]
    fn split_gain_of_absent_attr_is_minus_inf() {
        let pairs = pairs_two_attr_overlap();
        let est = GainEstimator::new(&pairs, CostModel::default());
        let set: BTreeSet<AttrId> = [AttrId(0)].into_iter().collect();
        assert_eq!(est.split_gain(&set, AttrId(9), 5), f64::NEG_INFINITY);
    }

    #[test]
    fn rank_orders_descending() {
        use crate::attribute::AttrCatalog;
        use crate::capacity::CapacityMap;
        use crate::evaluate::{build_forest, EvalContext};
        let pairs = pairs_two_attr_overlap();
        let caps = CapacityMap::uniform(9, 20.0, 200.0).unwrap();
        let catalog = AttrCatalog::new();
        let ctx = EvalContext::basic(&pairs, &caps, CostModel::default(), &catalog);
        let partition = Partition::singleton(pairs.attr_universe());
        let plan = build_forest(&partition, &ctx);
        let est = GainEstimator::new(&pairs, CostModel::default());
        let ranked = est.rank_ops(&partition, &plan);
        assert!(!ranked.is_empty());
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1, "ranking must be descending");
        }
    }

    #[test]
    fn cost_lower_bounds() {
        let pairs = pairs_two_attr_overlap();
        let est = GainEstimator::new(&pairs, CostModel::default());
        assert_eq!(est.split_cost_lb(AttrId(0)), 6);
        assert_eq!(est.split_cost_lb(AttrId(9)), 1);
    }

    #[test]
    fn rank_never_offers_splitting_an_ownerless_attr() {
        use crate::attribute::AttrCatalog;
        use crate::capacity::CapacityMap;
        use crate::evaluate::{build_forest, EvalContext};
        // attr0 on nodes 0-5; attr9 owned by nobody (its owners failed
        // after the partition was formed). Budgets are tight enough
        // that the tree is congested, so the buggy ranking gave
        // Split(0, attr9) the full `a·uncollected` gain and put the
        // no-op ahead of everything real.
        let mut pairs = PairSet::new();
        for n in 0..6 {
            pairs.insert(NodeId(n), AttrId(0));
        }
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let caps = CapacityMap::uniform(6, 4.0, 100.0).unwrap();
        let catalog = AttrCatalog::new();
        let ctx = EvalContext::basic(&pairs, &caps, cost, &catalog);
        let set: crate::partition::AttrSet = [AttrId(0), AttrId(9)].into_iter().collect();
        let partition = Partition::from_sets(vec![set]).unwrap();
        let plan = build_forest(&partition, &ctx);
        let tree = &plan.trees()[0];
        assert!(
            tree.collected_pairs < tree.demanded_pairs,
            "precondition: the tree must be congested"
        );
        let est = GainEstimator::new(&pairs, cost);
        for (op, gain) in est.rank_ops(&partition, &plan) {
            if let PartitionOp::Split(_, attr) = op {
                assert_ne!(
                    attr,
                    AttrId(9),
                    "ownerless attr offered as a split (gain {gain})"
                );
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// The harness behind the estimator's unit contract: on a
        /// saturation-free instance every ranked gain (capacity units,
        /// send + receive) equals exactly **twice** the per-message
        /// send volume the op frees when the partition is actually
        /// re-evaluated — `message_volume` counts sends only. The
        /// per-value volume component is structure-dependent (it moves
        /// with node depths as trees are rebuilt) and is deliberately
        /// outside the estimate; the send-count delta is the part with
        /// an exact answer, and matching it pins the estimator's sign
        /// convention, its factor of 2, and the overlap bookkeeping in
        /// `rank_ops_trees`. Exactness implies the ranking *order*
        /// agrees with the evaluated deltas as well.
        #[test]
        fn ranked_gains_match_evaluated_send_deltas(
            n in 3usize..9,
            m in 2u32..5,
            mask in prop::collection::vec(0u32..2, 64),
        ) {
            use crate::attribute::AttrCatalog;
            use crate::capacity::CapacityMap;
            use crate::evaluate::{build_forest, EvalContext};

            let mut pairs = PairSet::new();
            for a in 0..m {
                // Every attribute keeps at least one owner so no tree
                // is stranded and no set is participant-less.
                pairs.insert(NodeId(a % n as u32), AttrId(a));
            }
            for node in 0..n as u32 {
                for a in 0..m {
                    if mask[((node * m + a) as usize) % mask.len()] == 1 {
                        pairs.insert(NodeId(node), AttrId(a));
                    }
                }
            }
            let cost = CostModel::new(2.0, 1.0).unwrap();
            // Generous budgets: every participant is included, so the
            // instance is saturation-free and `uncollected` is 0.
            let caps = CapacityMap::uniform(n, 1e6, 1e6).unwrap();
            let catalog = AttrCatalog::new();
            let ctx = EvalContext::basic(&pairs, &caps, cost, &catalog);
            let est = GainEstimator::new(&pairs, cost);
            let c = cost.per_message();

            let eval = |p: &Partition| {
                let plan = build_forest(p, &ctx);
                let sends: usize = plan.trees().iter().map(PlannedTree::len).sum();
                (plan.collected_pairs(), sends)
            };

            // Singleton partition exercises merges; the one-set
            // partition exercises splits.
            let singleton = Partition::singleton(pairs.attr_universe());
            let one_set =
                Partition::from_sets(vec![pairs.attr_universe().into_iter().collect()]).unwrap();
            for partition in [singleton, one_set] {
                let plan = build_forest(&partition, &ctx);
                let (pairs_before, sends_before) = (
                    plan.collected_pairs(),
                    plan.trees().iter().map(PlannedTree::len).sum::<usize>(),
                );
                for (op, gain) in est.rank_ops(&partition, &plan) {
                    let mut next = partition.clone();
                    next.apply(op).unwrap();
                    let (pairs_after, sends_after) = eval(&next);
                    prop_assert_eq!(
                        pairs_after, pairs_before,
                        "saturation-free ops preserve coverage ({:?})", op
                    );
                    let freed = sends_before as f64 - sends_after as f64;
                    // The no-overlap fallback merge carries a flat
                    // `C` sentinel (a real overlap gain is ≥ 2C, so
                    // the two cannot collide); it must correspond to
                    // a merge that frees no sends.
                    if matches!(op, PartitionOp::Merge(_, _)) && (gain - c).abs() < 1e-9 {
                        prop_assert_eq!(freed, 0.0, "fallback merge {:?}", op);
                        continue;
                    }
                    prop_assert!(
                        (gain - 2.0 * c * freed).abs() < 1e-9,
                        "{:?}: estimated {} but re-evaluation frees {} sends",
                        op, gain, freed
                    );
                }
            }
        }
    }
}
