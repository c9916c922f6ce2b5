//! Runtime topology adaptation under task churn (paper §4).
//!
//! When monitoring tasks are added, removed, or modified, the topology
//! must follow. The schemes compared in §7 ("Runtime adaptation",
//! Fig. 9):
//!
//! - [`AdaptScheme::DirectApply`] (D-A) — minimally patch the current
//!   topology: keep the attribute partition, rebuild only the trees
//!   whose membership changed.
//! - [`AdaptScheme::Rebuild`] — rerun the full REMO search from
//!   scratch on every change (best topology, highest cost).
//! - [`AdaptScheme::NoThrottle`] — start from the D-A base topology
//!   and run a *restricted* local search: only merge/split operations
//!   involving a tree reconstructed by the change are considered,
//!   ranked by estimated cost-effectiveness (gain / adaptation-cost
//!   lower bound).
//! - [`AdaptScheme::Adaptive`] — NO-THROTTLE plus *cost-benefit
//!   throttling*: an operation is applied only when its adaptation
//!   message volume `M_adapt` is below
//!   `(T_cur − min T_adj,i) · gain_per_epoch` (paper §4.2), i.e. the
//!   expected savings before the affected trees are next perturbed
//!   must pay for the control messages. The first non-cost-effective
//!   operation terminates the search.
//!
//! The per-epoch gain combines the message-volume reduction
//! `C_cur − C_adj` of the paper's threshold with the value of newly
//! collected pairs (`a` per pair), so coverage-improving operations are
//! throttled on the same scale as efficiency-improving ones.

use crate::attribute::AttrCatalog;
use crate::cache::{CacheStats, TreeCache};
use crate::capacity::CapacityMap;
use crate::cost::CostModel;
use crate::estimate::GainEstimator;
use crate::evaluate::build_tree_for_set_cached;
use crate::ids::{AttrId, NodeId};
use crate::pairs::PairSet;
use crate::partition::{AttrSet, Partition, PartitionOp};
use crate::plan::{MonitoringPlan, PlannedTree};
use crate::planner::{Planner, SearchState};
use crate::tree::Parent;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// The adaptation scheme (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum AdaptScheme {
    /// Patch affected trees only; no re-optimization.
    DirectApply,
    /// Full re-plan from scratch on every change.
    Rebuild,
    /// Restricted local search from the D-A base topology.
    NoThrottle,
    /// Restricted local search with cost-benefit throttling (the
    /// paper's ADAPTIVE; the default).
    #[default]
    Adaptive,
}

/// What one adaptation round did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptationReport {
    /// Control messages needed to morph the old topology into the new
    /// one (edge changes, the paper's `M_adapt`).
    pub adaptation_messages: usize,
    /// Wall-clock planning time of this round (Fig. 9a).
    pub planning_time: Duration,
    /// Trees rebuilt by the direct-apply base step.
    pub trees_rebuilt: usize,
    /// Local-search operations applied on top of the base topology.
    pub ops_applied: usize,
    /// Operations rejected by cost-benefit throttling.
    pub ops_throttled: usize,
}

/// Stateful adaptive planner: owns the current plan and applies task
/// churn under a chosen [`AdaptScheme`].
///
/// # Examples
///
/// ```
/// use remo_core::{CapacityMap, CostModel, NodeId, AttrId, PairSet, AttrCatalog};
/// use remo_core::adapt::{AdaptivePlanner, AdaptScheme};
/// use remo_core::planner::Planner;
///
/// # fn main() -> Result<(), remo_core::PlanError> {
/// let caps = CapacityMap::uniform(10, 20.0, 100.0)?;
/// let cost = CostModel::default();
/// let pairs: PairSet = (0..10).map(|n| (NodeId(n), AttrId(0))).collect();
/// let mut ap = AdaptivePlanner::new(
///     Planner::default(),
///     AdaptScheme::Adaptive,
///     pairs.clone(),
///     caps,
///     cost,
///     AttrCatalog::new(),
/// );
/// let before = ap.plan().collected_pairs();
///
/// // Churn: attribute 1 appears on five nodes.
/// let mut new_pairs = pairs;
/// for n in 0..5 {
///     new_pairs.insert(NodeId(n), AttrId(1));
/// }
/// let report = ap.update(new_pairs, 10);
/// assert!(ap.plan().collected_pairs() >= before);
/// assert!(report.trees_rebuilt >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AdaptivePlanner {
    planner: Planner,
    scheme: AdaptScheme,
    caps: CapacityMap,
    cost: CostModel,
    catalog: AttrCatalog,
    pairs: PairSet,
    plan: MonitoringPlan,
    /// Last epoch each tree (keyed by its attribute set) was adjusted.
    last_adjust: BTreeMap<Vec<AttrId>, u64>,
    /// Cap on local-search operations per adaptation round.
    max_ops: usize,
    /// Memoized tree builds, reused across adaptation rounds (consulted
    /// only when the planner's `cache` knob is on). Pair churn
    /// invalidates it; capacity changes miss naturally because budgets
    /// are part of the cache key — so a failure/recovery cycle
    /// warm-starts from the pre-failure builds.
    cache: TreeCache,
}

impl AdaptivePlanner {
    /// Plans the initial topology and returns the stateful planner.
    pub fn new(
        planner: Planner,
        scheme: AdaptScheme,
        pairs: PairSet,
        caps: CapacityMap,
        cost: CostModel,
        catalog: AttrCatalog,
    ) -> Self {
        let cache = TreeCache::new();
        let plan = planner
            .plan_with_report_cached(
                &pairs,
                &caps,
                cost,
                &catalog,
                planner.config().cache.then_some(&cache),
            )
            .0;
        AdaptivePlanner {
            planner,
            scheme,
            caps,
            cost,
            catalog,
            pairs,
            plan,
            last_adjust: BTreeMap::new(),
            max_ops: 32,
            cache,
        }
    }

    /// The tree cache to consult, honoring the planner's `cache` knob.
    fn cache_ref(&self) -> Option<&TreeCache> {
        self.planner.config().cache.then_some(&self.cache)
    }

    /// Hit/miss counters of the cross-round tree-build cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The current monitoring plan.
    pub fn plan(&self) -> &MonitoringPlan {
        &self.plan
    }

    /// The current pair set.
    pub fn pairs(&self) -> &PairSet {
        &self.pairs
    }

    /// The adaptation scheme in use.
    pub fn scheme(&self) -> AdaptScheme {
        self.scheme
    }

    /// The current node capacities (reflecting failures applied via
    /// `AdaptivePlanner::set_node_capacity`).
    pub fn caps(&self) -> &CapacityMap {
        &self.caps
    }

    /// The cost model plans are built against.
    pub fn cost(&self) -> CostModel {
        self.cost
    }

    /// The attribute catalog plans are built against.
    pub fn catalog(&self) -> &AttrCatalog {
        &self.catalog
    }

    /// Applies a new deduplicated pair set (produced by the task
    /// manager after churn) at epoch `now`, returning what changed.
    pub fn update(&mut self, new_pairs: PairSet, now: u64) -> AdaptationReport {
        let t0 = Instant::now();
        let old_plan = self.plan.clone();
        // Cached trees embed participant sets derived from the old pair
        // universe; churn makes them unsound, not merely suboptimal.
        self.cache.invalidate();

        let report = match self.scheme {
            AdaptScheme::Rebuild => {
                let plan = self
                    .planner
                    .plan_with_report_cached(
                        &new_pairs,
                        &self.caps,
                        self.cost,
                        &self.catalog,
                        self.cache_ref(),
                    )
                    .0;
                self.plan = plan;
                AdaptationReport {
                    adaptation_messages: 0,
                    planning_time: Duration::ZERO,
                    trees_rebuilt: self.plan.trees().len(),
                    ops_applied: 0,
                    ops_throttled: 0,
                }
            }
            AdaptScheme::DirectApply => {
                let (rebuilt, ..) = self.direct_apply(&new_pairs);
                AdaptationReport {
                    adaptation_messages: 0,
                    planning_time: Duration::ZERO,
                    trees_rebuilt: rebuilt,
                    ops_applied: 0,
                    ops_throttled: 0,
                }
            }
            AdaptScheme::NoThrottle | AdaptScheme::Adaptive => {
                let (rebuilt, affected) = self.direct_apply(&new_pairs);
                let throttle = self.scheme == AdaptScheme::Adaptive;
                let (ops_applied, ops_throttled) =
                    self.restricted_search(&new_pairs, affected, throttle, now);
                AdaptationReport {
                    adaptation_messages: 0,
                    planning_time: Duration::ZERO,
                    trees_rebuilt: rebuilt,
                    ops_applied,
                    ops_throttled,
                }
            }
        };

        self.pairs = new_pairs;
        let adaptation_messages = old_plan.edge_diff(&self.plan);
        self.stamp_adjust_times(&old_plan, now);
        self.debug_audit();
        AdaptationReport {
            adaptation_messages,
            planning_time: t0.elapsed(),
            ..report
        }
    }

    /// Runs the full rule-registry audit over the current plan against
    /// the current demand and capacities, with the planner's own
    /// extension flags (so exact-accounting rules replicate its
    /// arithmetic).
    pub fn audit(&self) -> crate::validate::AuditOutcome {
        crate::validate::Audit::new().run(
            &crate::validate::AuditInput::new(
                &self.plan,
                &self.pairs,
                &self.caps,
                self.cost,
                &self.catalog,
            )
            .aggregation_aware(self.planner.config().aggregation_aware)
            .frequency_aware(self.planner.config().frequency_aware),
        )
    }

    /// Post-condition (debug builds): the adapted plan must still pass
    /// every error-severity audit rule against the current demand and
    /// capacities.
    fn debug_audit(&self) {
        #[cfg(debug_assertions)]
        {
            let outcome = self.audit();
            debug_assert!(
                outcome.is_clean(),
                "adaptation produced a plan that fails the audit:\n{}",
                outcome.render()
            );
        }
    }

    /// Handles a node failure (paper §2.2: the management core's
    /// failure handling): the node's capacity drops to zero, every tree
    /// it participates in is rebuilt without it against residual
    /// capacity, and — for the optimizing schemes — the restricted
    /// local search re-optimizes the affected trees.
    pub fn handle_node_failure(&mut self, node: NodeId, now: u64) -> AdaptationReport {
        self.set_node_capacity(node, 0.0, now)
    }

    /// Restores a recovered node's capacity and re-plans the trees that
    /// could benefit (all trees whose attributes the node demands).
    pub fn handle_node_recovery(
        &mut self,
        node: NodeId,
        capacity: f64,
        now: u64,
    ) -> AdaptationReport {
        self.set_node_capacity(node, capacity, now)
    }

    fn set_node_capacity(&mut self, node: NodeId, capacity: f64, now: u64) -> AdaptationReport {
        let t0 = Instant::now();
        let old_plan = self.plan.clone();
        self.caps
            .set_node(node, capacity)
            .unwrap_or_else(|e| panic!("non-negative capacity: {e}"));

        // Affected: trees the node is currently in (failure) plus trees
        // whose attribute sets the node demands (recovery headroom).
        let demanded: BTreeSet<AttrId> = self
            .pairs
            .attrs_of(node)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let affected: BTreeSet<usize> = self
            .plan
            .partition()
            .sets()
            .iter()
            .zip(self.plan.trees())
            .enumerate()
            .filter(|(_, (set, planned))| {
                planned.tree.as_ref().is_some_and(|t| t.contains(node))
                    || set.iter().any(|a| demanded.contains(a))
            })
            .map(|(i, _)| i)
            .collect();

        let pairs = self.pairs.clone();
        let rebuilt = self.rebuild_trees(&affected, &pairs);
        let (ops_applied, ops_throttled) = match self.scheme {
            AdaptScheme::DirectApply | AdaptScheme::Rebuild => (0, 0),
            AdaptScheme::NoThrottle => self.restricted_search(&pairs, affected, false, now),
            AdaptScheme::Adaptive => self.restricted_search(&pairs, affected, true, now),
        };

        let adaptation_messages = old_plan.edge_diff(&self.plan);
        self.stamp_adjust_times(&old_plan, now);
        self.debug_audit();
        AdaptationReport {
            adaptation_messages,
            planning_time: t0.elapsed(),
            trees_rebuilt: rebuilt,
            ops_applied,
            ops_throttled,
        }
    }

    /// Rebuilds the given trees (by index) against the residual
    /// capacity left by the others, smallest demand first. The
    /// partition is unchanged. Returns how many trees were rebuilt.
    fn rebuild_trees(&mut self, affected: &BTreeSet<usize>, pairs: &PairSet) -> usize {
        let partition = self.plan.partition().clone();
        let mut avail: BTreeMap<NodeId, f64> = self.caps.iter().collect();
        let mut collector_avail = self.caps.collector();
        let mut new_trees: Vec<Option<PlannedTree>> = vec![None; partition.len()];
        for (i, t) in self.plan.trees().iter().enumerate() {
            if affected.contains(&i) {
                continue;
            }
            for (&n, &u) in &t.usage {
                if let Some(r) = avail.get_mut(&n) {
                    *r -= u;
                }
            }
            collector_avail -= t.collector_usage;
            new_trees[i] = Some(t.clone());
        }
        let ctx = crate::evaluate::EvalContext {
            pairs,
            caps: &self.caps,
            cost: self.cost,
            catalog: &self.catalog,
            builder: self.planner.config().builder,
            allocation: self.planner.config().allocation,
            aggregation_aware: self.planner.config().aggregation_aware,
            frequency_aware: self.planner.config().frequency_aware,
        };
        let mut order: Vec<usize> = affected.iter().copied().collect();
        order.sort_by_key(|&i| pairs.participants(&partition.sets()[i]).len());
        for i in order {
            let t = build_tree_for_set_cached(
                &partition.sets()[i],
                &ctx,
                &avail,
                collector_avail,
                self.cache_ref(),
            );
            for (&n, &u) in &t.usage {
                if let Some(r) = avail.get_mut(&n) {
                    *r -= u;
                }
            }
            collector_avail -= t.collector_usage;
            new_trees[i] = Some(t);
        }
        let rebuilt = affected.len();
        self.plan = MonitoringPlan::new(
            partition,
            new_trees
                .into_iter()
                .map(|t| t.unwrap_or_else(|| unreachable!("every set planned")))
                .collect(),
        );
        rebuilt
    }

    /// D-A: carry the partition over to the new pair universe, reuse
    /// untouched trees, rebuild affected ones against residual
    /// capacity. Returns `(trees_rebuilt, affected_indexes)`.
    fn direct_apply(&mut self, new_pairs: &PairSet) -> (usize, BTreeSet<usize>) {
        let (added, removed) = self.pairs.diff(new_pairs);
        let touched: BTreeSet<AttrId> = added
            .iter()
            .chain(removed.iter())
            .map(|&(_, a)| a)
            .collect();
        let new_universe = new_pairs.attr_universe();

        // Filter dead attributes out of the partition; append new ones
        // as singleton sets (the minimal direct change).
        let mut sets: Vec<AttrSet> = Vec::new();
        let mut kept_from_old: Vec<Option<usize>> = Vec::new();
        let mut seen: BTreeSet<AttrId> = BTreeSet::new();
        for (k, set) in self.plan.partition().sets().iter().enumerate() {
            let filtered: AttrSet = set
                .iter()
                .copied()
                .filter(|a| new_universe.contains(a))
                .collect();
            if filtered.is_empty() {
                continue;
            }
            seen.extend(filtered.iter().copied());
            // Whether filtered or not, the set descends from old tree k;
            // a shrunk set is detected as affected below by inequality.
            kept_from_old.push(Some(k));
            sets.push(filtered);
        }
        for &a in &new_universe {
            if !seen.contains(&a) {
                let mut s = AttrSet::new();
                s.insert(a);
                sets.push(s);
                kept_from_old.push(None);
            }
        }
        let partition = Partition::from_sets(sets)
            .unwrap_or_else(|e| panic!("filtered sets remain disjoint and non-empty: {e}"));

        // Affected sets: contain a touched attribute, shrank, or are new.
        let mut affected: BTreeSet<usize> = BTreeSet::new();
        for (i, set) in partition.sets().iter().enumerate() {
            let is_new = kept_from_old[i].is_none();
            let shrank = kept_from_old[i]
                .map(|k| self.plan.partition().sets()[k] != *set)
                .unwrap_or(true);
            if is_new || shrank || set.iter().any(|a| touched.contains(a)) {
                affected.insert(i);
            }
        }

        // Residual capacity after the unaffected trees.
        let mut avail: BTreeMap<NodeId, f64> = self.caps.iter().collect();
        let mut collector_avail = self.caps.collector();
        let mut new_trees: Vec<Option<PlannedTree>> = vec![None; partition.len()];
        for (i, old_idx) in kept_from_old.iter().enumerate() {
            if affected.contains(&i) {
                continue;
            }
            let k =
                old_idx.unwrap_or_else(|| unreachable!("unaffected trees come from the old plan"));
            let t = self.plan.trees()[k].clone();
            for (&n, &u) in &t.usage {
                if let Some(r) = avail.get_mut(&n) {
                    *r -= u;
                }
            }
            collector_avail -= t.collector_usage;
            new_trees[i] = Some(t);
        }

        // Rebuild affected trees, smallest first, drawing down residual.
        let ctx = crate::evaluate::EvalContext {
            pairs: new_pairs,
            caps: &self.caps,
            cost: self.cost,
            catalog: &self.catalog,
            builder: self.planner.config().builder,
            allocation: self.planner.config().allocation,
            aggregation_aware: self.planner.config().aggregation_aware,
            frequency_aware: self.planner.config().frequency_aware,
        };
        let mut order: Vec<usize> = affected.iter().copied().collect();
        order.sort_by_key(|&i| new_pairs.participants(&partition.sets()[i]).len());
        for i in order {
            let t = build_tree_for_set_cached(
                &partition.sets()[i],
                &ctx,
                &avail,
                collector_avail,
                self.cache_ref(),
            );
            for (&n, &u) in &t.usage {
                if let Some(r) = avail.get_mut(&n) {
                    *r -= u;
                }
            }
            collector_avail -= t.collector_usage;
            new_trees[i] = Some(t);
        }

        let rebuilt = affected.len();
        self.plan = MonitoringPlan::new(
            partition,
            new_trees
                .into_iter()
                .map(|t| t.unwrap_or_else(|| unreachable!("every set planned")))
                .collect(),
        );
        (rebuilt, affected)
    }

    /// The §4.1 restricted local search over the D-A base topology.
    /// Returns `(ops_applied, ops_throttled)`.
    fn restricted_search(
        &mut self,
        new_pairs: &PairSet,
        mut touched: BTreeSet<usize>,
        throttle: bool,
        now: u64,
    ) -> (usize, usize) {
        let ctx = crate::evaluate::EvalContext {
            pairs: new_pairs,
            caps: &self.caps,
            cost: self.cost,
            catalog: &self.catalog,
            builder: self.planner.config().builder,
            allocation: self.planner.config().allocation,
            aggregation_aware: self.planner.config().aggregation_aware,
            frequency_aware: self.planner.config().frequency_aware,
        };
        let max_budget = self.caps.iter().map(|(_, b)| b).fold(0.0f64, f64::max);
        let estimator = GainEstimator::with_capacity(new_pairs, self.cost, max_budget);

        let mut state = SearchState::from_plan(&self.plan, &self.caps);

        let mut ops_applied = 0usize;
        let mut ops_throttled = 0usize;

        while ops_applied + ops_throttled < self.max_ops {
            let (partition, trees, score) = (state.partition(), state.trees(), state.score());
            let ranked = estimator.rank_ops_trees(partition, trees);

            // Candidates restricted to trees in `touched`, ranked by
            // estimated cost-effectiveness (gain / cost lower bound).
            let mut merges: Vec<(PartitionOp, f64)> = Vec::new();
            let mut splits: Vec<(PartitionOp, f64)> = Vec::new();
            for (op, gain) in ranked {
                match op {
                    PartitionOp::Merge(i, j) => {
                        if touched.contains(&i) || touched.contains(&j) {
                            let lb = estimator.merge_cost_lb_trees(trees, i, j) as f64;
                            merges.push((op, gain / lb.max(1.0)));
                        }
                    }
                    PartitionOp::Split(i, attr) => {
                        if touched.contains(&i) {
                            let lb = estimator.split_cost_lb(attr) as f64;
                            splits.push((op, gain / lb.max(1.0)));
                        }
                    }
                }
            }
            let by_eff = |a: &(PartitionOp, f64), b: &(PartitionOp, f64)| {
                b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal)
            };
            merges.sort_by(by_eff);
            splits.sort_by(by_eff);

            // First valid (improving) merge, first valid split. Both
            // successors are materialized: they are compared with each
            // other, and throttling diffs old trees against new.
            let window = self.planner.config().candidates_per_round;
            let eval_first = |ops: &[(PartitionOp, f64)]| {
                ops.iter().take(window).find_map(|&(op, _)| {
                    state
                        .eval(op, &ctx, self.cache_ref())
                        .map(|ev| state.applied(ev))
                        .filter(|next| next.score().better_than(&score))
                        .map(|next| (op, next))
                })
            };
            let cand_merge = eval_first(&merges);
            let cand_split = eval_first(&splits);

            let (op, next) = match (cand_merge, cand_split) {
                (None, None) => break,
                (Some(m), None) => m,
                (None, Some(s)) => s,
                (Some(m), Some(s)) => {
                    if m.1.score().better_than(&s.1.score()) {
                        m
                    } else {
                        s
                    }
                }
            };
            let new_trees = next.trees();

            if throttle {
                let affected_old: Vec<usize> = match op {
                    PartitionOp::Merge(i, j) => vec![i, j],
                    PartitionOp::Split(i, _) => vec![i],
                };
                let m_adapt = op_edge_changes(op, trees, new_trees);
                let m_adapt_volume = m_adapt as f64 * self.cost.message_cost(1.0);

                let c_cur: f64 = affected_old.iter().map(|&k| trees[k].message_volume).sum();
                let new_affected: Vec<usize> = match op {
                    PartitionOp::Merge(i, j) => vec![i.min(j)],
                    PartitionOp::Split(i, _) => vec![i, new_trees.len() - 1],
                };
                let c_adj: f64 = new_affected
                    .iter()
                    .map(|&k| new_trees[k].message_volume)
                    .sum();
                let pair_gain = next.score().pairs.saturating_sub(score.pairs) as f64;
                let gain_per_epoch = (c_cur - c_adj) + self.cost.per_value() * pair_gain;

                let min_adjust = affected_old
                    .iter()
                    .map(|&k| {
                        let key: Vec<AttrId> = partition.sets()[k].iter().copied().collect();
                        self.last_adjust.get(&key).copied().unwrap_or(0)
                    })
                    .min()
                    .unwrap_or(0);
                let horizon = now.saturating_sub(min_adjust) as f64;
                let threshold = horizon * gain_per_epoch;
                if m_adapt_volume >= threshold {
                    // Not cost effective; terminate immediately (§4.2).
                    ops_throttled += 1;
                    break;
                }
            }

            // Remap `touched` across the index shift and include the
            // result trees.
            touched = remap_touched(&touched, op, new_trees.len());
            state = next;
            ops_applied += 1;
        }

        self.plan = state.into_plan();
        (ops_applied, ops_throttled)
    }

    /// Records adjustment timestamps for trees whose topology changed.
    fn stamp_adjust_times(&mut self, old_plan: &MonitoringPlan, now: u64) {
        let old_by_set: BTreeMap<Vec<AttrId>, &PlannedTree> = old_plan
            .partition()
            .sets()
            .iter()
            .zip(old_plan.trees())
            .map(|(s, t)| (s.iter().copied().collect(), t))
            .collect();
        let mut fresh: BTreeMap<Vec<AttrId>, u64> = BTreeMap::new();
        for (set, tree) in self.plan.partition().sets().iter().zip(self.plan.trees()) {
            let key: Vec<AttrId> = set.iter().copied().collect();
            let changed = match old_by_set.get(&key) {
                None => true,
                Some(old) => match (&old.tree, &tree.tree) {
                    (Some(a), Some(b)) => a.edge_diff(b) > 0,
                    (None, None) => false,
                    _ => true,
                },
            };
            let stamp = if changed {
                now
            } else {
                self.last_adjust.get(&key).copied().unwrap_or(0)
            };
            fresh.insert(key, stamp);
        }
        self.last_adjust = fresh;
    }
}

/// Edges (control messages) the op changes: new edges whose parent
/// differs from every old assignment of that node in the affected
/// trees, plus nodes dropped from the affected trees.
fn op_edge_changes(
    op: PartitionOp,
    old_trees: &[std::sync::Arc<PlannedTree>],
    new_trees: &[std::sync::Arc<PlannedTree>],
) -> usize {
    let affected_old: Vec<usize> = match op {
        PartitionOp::Merge(i, j) => vec![i, j],
        PartitionOp::Split(i, _) => vec![i],
    };
    let new_affected: Vec<usize> = match op {
        PartitionOp::Merge(i, j) => vec![i.min(j)],
        PartitionOp::Split(i, _) => vec![i, new_trees.len() - 1],
    };

    let mut old_parents: BTreeMap<NodeId, BTreeSet<Parent>> = BTreeMap::new();
    let mut old_nodes: BTreeSet<NodeId> = BTreeSet::new();
    for &k in &affected_old {
        if let Some(t) = old_trees[k].tree.as_ref() {
            for n in t.nodes() {
                old_nodes.insert(n);
                old_parents.entry(n).or_default().insert(
                    t.parent(n)
                        .unwrap_or_else(|| unreachable!("member has a parent")),
                );
            }
        }
    }
    let mut changed = 0usize;
    let mut new_nodes: BTreeSet<NodeId> = BTreeSet::new();
    for &k in &new_affected {
        if let Some(t) = new_trees[k].tree.as_ref() {
            for n in t.nodes() {
                new_nodes.insert(n);
                let p = t
                    .parent(n)
                    .unwrap_or_else(|| unreachable!("member has a parent"));
                if !old_parents.get(&n).is_some_and(|s| s.contains(&p)) {
                    changed += 1;
                }
            }
        }
    }
    changed + old_nodes.difference(&new_nodes).count()
}

/// Remaps the touched-tree index set across a partition op and adds the
/// op's result trees.
fn remap_touched(touched: &BTreeSet<usize>, op: PartitionOp, new_len: usize) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    match op {
        PartitionOp::Merge(i, j) => {
            let (lo, hi) = (i.min(j), i.max(j));
            for &t in touched {
                if t == lo || t == hi {
                    continue;
                }
                out.insert(if t > hi { t - 1 } else { t });
            }
            out.insert(lo);
        }
        PartitionOp::Split(i, _) => {
            out.extend(touched.iter().copied());
            out.insert(i);
            out.insert(new_len - 1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::planner::PlannerConfig;

    fn dense_pairs(nodes: u32, attrs: u32) -> PairSet {
        (0..nodes)
            .flat_map(|n| (0..attrs).map(move |a| (NodeId(n), AttrId(a))))
            .collect()
    }

    fn planner() -> Planner {
        Planner::new(PlannerConfig::default())
    }

    fn make(scheme: AdaptScheme, nodes: usize, attrs: u32, budget: f64) -> AdaptivePlanner {
        let caps = CapacityMap::uniform(nodes, budget, 500.0).unwrap();
        AdaptivePlanner::new(
            planner(),
            scheme,
            dense_pairs(nodes as u32, attrs),
            caps,
            CostModel::new(2.0, 1.0).unwrap(),
            AttrCatalog::new(),
        )
    }

    /// Standard churn: 2 nodes swap one attribute for a new one.
    fn churn(pairs: &PairSet) -> PairSet {
        let mut p = pairs.clone();
        p.remove(NodeId(0), AttrId(0));
        p.remove(NodeId(1), AttrId(0));
        p.insert(NodeId(0), AttrId(100));
        p.insert(NodeId(1), AttrId(100));
        p
    }

    #[test]
    fn direct_apply_keeps_unaffected_trees() {
        let mut ap = make(AdaptScheme::DirectApply, 10, 3, 25.0);
        let old = ap.plan().clone();
        let new_pairs = churn(ap.pairs());
        let report = ap.update(new_pairs.clone(), 5);
        assert!(report.trees_rebuilt >= 1);
        assert_eq!(report.ops_applied, 0);
        // The new attribute must be planned somewhere.
        assert!(ap.plan().tree_of_attr(AttrId(100)).is_some());
        // All demanded pairs accounted.
        assert_eq!(ap.plan().demanded_pairs(), new_pairs.len());
        // Untouched attrs keep their partition sets.
        let _ = old;
        assert!(ap.plan().partition().is_valid());
    }

    #[test]
    fn rebuild_replans_everything() {
        let mut ap = make(AdaptScheme::Rebuild, 10, 3, 25.0);
        let new_pairs = churn(ap.pairs());
        let report = ap.update(new_pairs, 5);
        assert_eq!(report.trees_rebuilt, ap.plan().trees().len());
    }

    #[test]
    fn removal_of_last_pair_drops_attribute() {
        let mut ap = make(AdaptScheme::DirectApply, 6, 2, 50.0);
        let mut new_pairs = ap.pairs().clone();
        for n in 0..6 {
            new_pairs.remove(NodeId(n), AttrId(1));
        }
        ap.update(new_pairs, 3);
        assert!(ap.plan().tree_of_attr(AttrId(1)).is_none());
        assert!(ap.plan().partition().is_valid());
    }

    #[test]
    fn adaptive_collects_at_least_direct_apply() {
        // Repeated churn; ADAPTIVE should never fall below D-A since it
        // starts from the D-A base and only applies improvements.
        let mut da = make(AdaptScheme::DirectApply, 12, 4, 16.0);
        let mut ad = make(AdaptScheme::Adaptive, 12, 4, 16.0);
        let mut pairs = da.pairs().clone();
        for round in 0..5u64 {
            let mut p = pairs.clone();
            // Rotate one attribute on a couple of nodes.
            let a_old = AttrId(round as u32 % 4);
            let a_new = AttrId(200 + round as u32);
            p.remove(NodeId(round as u32 % 12), a_old);
            p.insert(NodeId(round as u32 % 12), a_new);
            da.update(p.clone(), round * 10);
            ad.update(p.clone(), round * 10);
            pairs = p;
        }
        assert!(
            ad.plan().collected_pairs() >= da.plan().collected_pairs(),
            "adaptive {} vs d-a {}",
            ad.plan().collected_pairs(),
            da.plan().collected_pairs()
        );
    }

    #[test]
    fn no_throttle_applies_ops_when_gainful() {
        // Start from singleton-heavy universe with lots of shared nodes:
        // merges are clearly gainful after churn touches a tree.
        let mut ap = make(AdaptScheme::NoThrottle, 10, 5, 100.0);
        let new_pairs = churn(ap.pairs());
        let report = ap.update(new_pairs, 5);
        // With abundant capacity the restricted search can merge the
        // new singleton tree into an existing one.
        assert!(report.ops_applied <= ap.max_ops);
        assert!(ap.plan().partition().is_valid());
    }

    #[test]
    fn throttling_reports_rejections() {
        // now = 0 ⇒ horizon 0 ⇒ threshold 0 ⇒ every op throttled.
        let mut ap = make(AdaptScheme::Adaptive, 10, 5, 100.0);
        let new_pairs = churn(ap.pairs());
        let report = ap.update(new_pairs, 0);
        assert_eq!(report.ops_applied, 0, "zero horizon must throttle all");
        assert!(report.ops_throttled <= 1, "terminates at first rejection");
    }

    #[test]
    fn edge_diff_reported() {
        let mut ap = make(AdaptScheme::DirectApply, 8, 2, 30.0);
        let new_pairs = churn(ap.pairs());
        let report = ap.update(new_pairs, 5);
        assert!(report.adaptation_messages > 0);
    }

    #[test]
    fn node_failure_evicts_node_and_stays_feasible() {
        let mut ap = make(AdaptScheme::Adaptive, 12, 3, 25.0);
        let victim = NodeId(4);
        let before = ap.plan().collected_pairs();
        let report = ap.handle_node_failure(victim, 10);
        assert!(report.trees_rebuilt >= 1, "victim's trees must rebuild");
        // The victim carries no load anywhere.
        for t in ap.plan().trees() {
            if let Some(tree) = &t.tree {
                assert!(!tree.contains(victim), "failed node still routed");
            }
        }
        // Everything else stays within budget.
        for (n, u) in ap.plan().node_usage() {
            assert!(u <= 25.0 + 1e-6, "{n} over budget after failure");
        }
        assert!(ap.plan().collected_pairs() <= before);
        assert!(ap.plan().partition().is_valid());
    }

    #[test]
    fn node_recovery_restores_coverage() {
        let mut ap = make(AdaptScheme::Adaptive, 12, 3, 25.0);
        let before = ap.plan().collected_pairs();
        let victim = NodeId(4);
        ap.handle_node_failure(victim, 10);
        let during = ap.plan().collected_pairs();
        ap.handle_node_recovery(victim, 25.0, 20);
        let after = ap.plan().collected_pairs();
        assert!(after >= during, "recovery must not lose pairs");
        assert!(
            after >= before.saturating_sub(1),
            "recovery should restore coverage ({after} vs {before})"
        );
        // The recovered node participates again.
        let back = ap
            .plan()
            .trees()
            .iter()
            .any(|t| t.tree.as_ref().is_some_and(|tr| tr.contains(victim)));
        assert!(back, "recovered node should rejoin the topology");
    }

    #[test]
    fn remap_touched_merge_and_split() {
        let touched: BTreeSet<usize> = [1, 3, 5].into_iter().collect();
        let merged = remap_touched(&touched, PartitionOp::Merge(1, 3), 5);
        assert_eq!(merged.into_iter().collect::<Vec<_>>(), vec![1, 4]);
        let split = remap_touched(&touched, PartitionOp::Split(2, AttrId(0)), 7);
        assert_eq!(split.into_iter().collect::<Vec<_>>(), vec![1, 2, 3, 5, 6]);
    }

    #[test]
    fn planning_time_is_measured() {
        let mut ap = make(AdaptScheme::Rebuild, 10, 3, 25.0);
        let new_pairs = churn(ap.pairs());
        let report = ap.update(new_pairs, 1);
        assert!(report.planning_time > Duration::ZERO);
    }
}
