//! Resource-aware evaluation: constructing a forest for a given
//! attribute partition (paper §3.2).
//!
//! Evaluation is what turns a candidate partition into an actual plan:
//! each attribute set gets a tree built under the configured
//! construction scheme and capacity-allocation scheme, and the plan's
//! objective — collected node-attribute pairs — falls out.

use crate::alloc::AllocationScheme;
use crate::attribute::AttrCatalog;
use crate::build::{
    build_tree, pair_cap, BuildOutcome, BuildRequest, BuilderKind, LocalLoad, NodeDemand,
};
use crate::cache::TreeCache;
use crate::capacity::CapacityMap;
use crate::cost::{Aggregation, CostModel};
use crate::ids::{IdMap, NodeId};
use crate::index::PairIndex;
use crate::pairs::PairSet;
use crate::partition::{AttrSet, Partition};
use crate::plan::{MonitoringPlan, PlannedTree};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything the evaluator needs besides the partition itself.
#[derive(Debug, Clone, Copy)]
pub struct EvalContext<'a> {
    /// The deduplicated node-attribute pairs to collect.
    pub pairs: &'a PairSet,
    /// Capacity budgets.
    pub caps: &'a CapacityMap,
    /// Message cost model.
    pub cost: CostModel,
    /// Attribute metadata (aggregation kinds, frequencies). May be an
    /// empty catalog: unknown attributes default to holistic
    /// unit-frequency.
    pub catalog: &'a AttrCatalog,
    /// Tree construction scheme.
    pub builder: BuilderKind,
    /// Capacity allocation scheme across trees.
    pub allocation: AllocationScheme,
    /// Plan with funnel functions (paper §6.1); when `false`,
    /// aggregated metrics are costed as holistic (the basic REMO of
    /// Fig. 12a).
    pub aggregation_aware: bool,
    /// Weight piggybacked values by update frequency (paper §6.3);
    /// when `false`, every value costs a full weight.
    pub frequency_aware: bool,
}

impl<'a> EvalContext<'a> {
    /// A context with the default builder (REMO adaptive), default
    /// allocation (ordered), and both extensions off.
    pub fn basic(
        pairs: &'a PairSet,
        caps: &'a CapacityMap,
        cost: CostModel,
        catalog: &'a AttrCatalog,
    ) -> Self {
        EvalContext {
            pairs,
            caps,
            cost,
            catalog,
            builder: BuilderKind::default(),
            allocation: AllocationScheme::default(),
            aggregation_aware: false,
            frequency_aware: false,
        }
    }
}

/// A read-only view of per-node residual budgets.
///
/// Tree construction only ever *reads* budgets; abstracting the source
/// lets candidate evaluation substitute a copy-on-write overlay (a
/// [`BudgetLedger`] plus touched values) for a full copy per candidate.
pub trait BudgetView {
    /// The budget available on `node` (0.0 when unknown).
    fn budget(&self, node: NodeId) -> f64;

    /// The budget of the node at dense position `dense` of `index`,
    /// the index of the pair set being planned. Request assembly and
    /// the tree cache's key walk participants densely; a
    /// [`BudgetLedger`] answers without looking the id up.
    fn budget_at(&self, index: &PairIndex, dense: u32) -> f64 {
        self.budget(index.node_id(dense))
    }
}

impl BudgetView for BTreeMap<NodeId, f64> {
    fn budget(&self, node: NodeId) -> f64 {
        self.get(&node).copied().unwrap_or(0.0)
    }
}

/// Residual budgets: a capacity map less the usage of every tree
/// charged to it. Node residuals sit in one `Vec` in [`PairIndex`]
/// dense-node order, beside the collector's remainder. The forest
/// builder, the local search, the adaptive rebuild and the frequency
/// groups all keep their running account in this one type.
///
/// Every node's residual takes the same subtractions in the same order
/// as a `BTreeMap<NodeId, f64>` collected from the capacity map and
/// charged tree by tree, so every value is bit-identical to that map's.
/// A node with pairs but no capacity reads 0.0 and is never charged; a
/// node with a capacity but no pairs is never in a tree and keeps its
/// capacity.
#[derive(Debug, Clone)]
pub struct BudgetLedger {
    index: Arc<PairIndex>,
    /// Residual per dense node (0.0 for a node without a capacity).
    nodes: Vec<f64>,
    /// Per dense node: whether it has a capacity, and so is charged.
    capped: Vec<bool>,
    /// Nodes with a capacity but no pairs, ascending.
    idle: Vec<(NodeId, f64)>,
    collector: f64,
}

impl BudgetLedger {
    /// The full capacities of `caps`, laid out over `pairs`' index.
    pub fn new(pairs: &PairSet, caps: &CapacityMap) -> Self {
        let index = pairs.shared_index();
        let mut nodes = vec![0.0; index.node_count()];
        let mut capped = vec![false; index.node_count()];
        let mut idle = Vec::new();
        for (n, b) in caps.iter() {
            match index.dense_node(n) {
                Some(d) => {
                    nodes[d as usize] = b;
                    capped[d as usize] = true;
                }
                None => idle.push((n, b)),
            }
        }
        BudgetLedger {
            index,
            nodes,
            capped,
            idle,
            collector: caps.collector(),
        }
    }

    /// The collector's remainder.
    pub fn collector(&self) -> f64 {
        self.collector
    }

    /// The dense position of `node` if it is charged: it has pairs and
    /// a capacity.
    fn charged(&self, node: NodeId) -> Option<usize> {
        let d = self.index.dense_node(node)? as usize;
        self.capped[d].then_some(d)
    }

    fn charge_node(&mut self, node: NodeId, usage: f64) {
        if let Some(d) = self.charged(node) {
            self.nodes[d] -= usage;
        }
    }

    /// Subtracts `tree`'s usage from its nodes and the collector.
    pub fn charge(&mut self, tree: &PlannedTree) {
        for (&n, &u) in &tree.usage {
            self.charge_node(n, u);
        }
        self.collector -= tree.collector_usage;
    }

    /// Subtracts `plan`'s per-node usage, summed over its trees, and
    /// its collector usage: one subtraction per node.
    pub fn charge_plan(&mut self, plan: &MonitoringPlan) {
        for (n, u) in plan.node_usage() {
            self.charge_node(n, u);
        }
        self.collector -= plan.collector_usage();
    }

    /// Every node with a capacity and its residual, in no particular
    /// order.
    pub fn residuals(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let dense = (0..self.nodes.len()).filter(|&d| self.capped[d]);
        dense
            .map(|d| (self.index.node_id(d as u32), self.nodes[d]))
            .chain(self.idle.iter().copied())
    }

    /// The residuals of the nodes with pairs, in dense order.
    pub(crate) fn dense(&self) -> &[f64] {
        &self.nodes
    }

    /// Takes over what an overlay of this ledger left.
    pub(crate) fn settle(&mut self, touched: Touched) {
        for (d, v) in touched.nodes {
            self.nodes[d as usize] = v;
        }
        self.collector = touched.collector;
    }
}

impl PartialEq for BudgetLedger {
    /// Equal residuals, compared as `f64`s like the map's values.
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.idle == other.idle && self.collector == other.collector
    }
}

impl BudgetView for BudgetLedger {
    fn budget(&self, node: NodeId) -> f64 {
        match self.index.dense_node(node) {
            Some(d) => self.nodes[d as usize],
            None => self
                .idle
                .binary_search_by_key(&node, |&(n, _)| n)
                .map_or(0.0, |i| self.idle[i].1),
        }
    }

    fn budget_at(&self, index: &PairIndex, dense: u32) -> f64 {
        debug_assert_eq!(
            index.node_count(),
            self.nodes.len(),
            "another pair set's index"
        );
        self.nodes[dense as usize]
    }
}

/// Copy-on-write overlay of a [`BudgetLedger`]: the final values of the
/// few nodes a candidate op has freed or charged, and the collector's.
///
/// Frees and charges replay the same `+=` / `-=` sequence per node a
/// charged copy of the ledger would see, so reads are bit-identical to
/// that copy; untouched nodes skip the copy.
#[derive(Debug)]
pub struct BudgetOverlay<'a> {
    base: &'a BudgetLedger,
    touched: Touched,
}

/// What a [`BudgetOverlay`] changed: the final residual of every node
/// it touched, by dense position, and the collector's.
#[derive(Debug)]
pub struct Touched {
    nodes: IdMap<u32, f64>,
    collector: f64,
}

impl<'a> BudgetOverlay<'a> {
    /// An overlay with no changes yet.
    pub fn new(base: &'a BudgetLedger) -> Self {
        BudgetOverlay {
            base,
            touched: Touched {
                nodes: IdMap::default(),
                collector: base.collector,
            },
        }
    }

    /// Adds `sign` (±1) times `tree`'s usage; `x + (−u)` is `x − u`
    /// to the bit.
    fn add(&mut self, tree: &PlannedTree, sign: f64) {
        for (&n, &u) in &tree.usage {
            if let Some(d) = self.base.charged(n) {
                let base = self.base.nodes[d];
                *self.touched.nodes.entry(d as u32).or_insert(base) += sign * u;
            }
        }
        self.touched.collector += sign * tree.collector_usage;
    }

    /// Gives back what `tree` was charged.
    pub fn free(&mut self, tree: &PlannedTree) {
        self.add(tree, 1.0);
    }

    /// Charges `tree`'s usage.
    pub fn charge(&mut self, tree: &PlannedTree) {
        self.add(tree, -1.0);
    }

    /// The collector's remainder.
    pub fn collector(&self) -> f64 {
        self.touched.collector
    }

    /// The final values of every touched node and the collector.
    pub fn into_touched(self) -> Touched {
        self.touched
    }
}

impl BudgetView for BudgetOverlay<'_> {
    fn budget(&self, node: NodeId) -> f64 {
        match self.base.index.dense_node(node) {
            Some(d) => self.budget_at(&self.base.index, d),
            None => self.base.budget(node),
        }
    }

    fn budget_at(&self, index: &PairIndex, dense: u32) -> f64 {
        match self.touched.nodes.get(&dense) {
            Some(&v) => v,
            None => self.base.budget_at(index, dense),
        }
    }
}

/// Builds the [`BuildRequest`] for one attribute set, with per-node
/// budgets drawn from `avail` and the given collector budget.
///
/// Demand assembly runs over the dense [`PairIndex`]: participants come
/// from a word-parallel bitset OR, loads accumulate attr-major over the
/// CSR owner rows. Attributes ascend within `set` and owners ascend
/// within each row, so each node's load receives the same additions in
/// the same order as the old per-node `owned ∩ set` walk — the sums are
/// bit-identical, only the traversal is packed.
pub fn make_request<B: BudgetView + ?Sized>(
    set: &AttrSet,
    ctx: &EvalContext<'_>,
    avail: &B,
    collector_budget: f64,
) -> BuildRequest {
    let idx = ctx.pairs.index();
    // Funnel table: non-identity aggregations present in this set, in
    // attribute order (only when aggregation-aware planning is on).
    // `funnel_slot[i]` is the funnel of the i-th attribute of the set.
    let mut funnels: Vec<Aggregation> = Vec::new();
    let mut funnel_slot: Vec<Option<usize>> = Vec::new();
    if ctx.aggregation_aware {
        funnel_slot.reserve(set.len());
        for &attr in set {
            let agg = ctx.catalog.get_or_default(attr).aggregation();
            if agg.is_identity() {
                funnel_slot.push(None);
            } else {
                funnel_slot.push(Some(funnels.len()));
                funnels.push(agg);
            }
        }
    }

    // Dense participants, ascending — dense order is NodeId order.
    let mut row = Vec::new();
    idx.or_participants(set, &mut row);
    let mut dense = Vec::new();
    PairIndex::iter_bits(&row, &mut dense);

    let mut demand: Vec<NodeDemand> = dense
        .iter()
        .map(|&d| {
            let node = idx.node_id(d);
            NodeDemand {
                node,
                load: LocalLoad {
                    holistic: 0.0,
                    funnel: vec![0.0; funnels.len()],
                },
                budget: avail.budget_at(idx, d),
                pairs: 0,
            }
        })
        .collect();

    for (i, &attr) in set.iter().enumerate() {
        let weight = if ctx.frequency_aware {
            ctx.catalog.get_or_default(attr).frequency()
        } else {
            1.0
        };
        let slot = if ctx.aggregation_aware {
            funnel_slot[i]
        } else {
            None
        };
        for &owner in idx.owners(attr) {
            let k = dense
                .binary_search(&owner)
                .unwrap_or_else(|_| unreachable!("owner is a participant"));
            let d = &mut demand[k];
            d.pairs += 1;
            match slot {
                Some(m) => d.load.funnel[m] += weight,
                None => d.load.holistic += weight,
            }
        }
    }

    BuildRequest {
        attrs: set.clone(),
        demand,
        collector_budget,
        cost: ctx.cost,
        funnels,
    }
}

/// Builds one tree for `set` against residual capacities, returning
/// the planned tree. `avail` and `collector_avail` are *not* mutated;
/// callers subtract the returned usage themselves.
pub fn build_tree_for_set<B: BudgetView + ?Sized>(
    set: &AttrSet,
    ctx: &EvalContext<'_>,
    avail: &B,
    collector_avail: f64,
) -> PlannedTree {
    let req = make_request(set, ctx, avail, collector_avail);
    into_planned(build_tree(ctx.builder, &req))
}

fn into_planned(out: BuildOutcome) -> PlannedTree {
    PlannedTree {
        tree: out.tree,
        usage: out.usage,
        collector_usage: out.collector_usage,
        collected_pairs: out.collected_pairs,
        demanded_pairs: out.demanded_pairs,
        excluded: out.excluded,
        message_volume: out.message_volume,
    }
}

/// [`build_tree_for_set`], consulting (and populating) a [`TreeCache`]
/// when one is supplied, for a caller that only wants the tree if it
/// collects at least `floor` pairs: `None`, and nothing built or cached,
/// when the [`pair_cap`] of the request the build would use is below
/// `floor`. The cap is checked before the cache is, so what is cut never
/// depends on what an earlier search happened to cache. Construction is
/// deterministic, so a cache hit is bit-identical to a fresh build.
pub(crate) fn build_tree_reaching<B: BudgetView + ?Sized>(
    set: &AttrSet,
    ctx: &EvalContext<'_>,
    avail: &B,
    collector_avail: f64,
    cache: Option<&TreeCache>,
    floor: usize,
) -> Option<PlannedTree> {
    if floor == 0 {
        return Some(match cache {
            Some(cache) => cache.get_or_build(set, ctx, avail, collector_avail),
            None => build_tree_for_set(set, ctx, avail, collector_avail),
        });
    }
    let req = make_request(set, ctx, avail, collector_avail);
    if pair_cap(&req) < floor {
        return None;
    }
    let build = || into_planned(build_tree(ctx.builder, &req));
    Some(match cache {
        Some(cache) => cache.get_or_build_with(set, ctx, avail, collector_avail, build),
        None => build(),
    })
}

/// Constructs the full forest for `partition` under the context's
/// allocation scheme.
///
/// # Examples
///
/// ```
/// use remo_core::{CapacityMap, CostModel, NodeId, AttrId, PairSet, Partition, AttrCatalog};
/// use remo_core::evaluate::{build_forest, EvalContext};
///
/// # fn main() -> Result<(), remo_core::PlanError> {
/// let caps = CapacityMap::uniform(8, 25.0, 200.0)?;
/// let pairs: PairSet = (0..8)
///     .flat_map(|n| (0..3).map(move |a| (NodeId(n), AttrId(a))))
///     .collect();
/// let catalog = AttrCatalog::new();
/// let ctx = EvalContext::basic(&pairs, &caps, CostModel::default(), &catalog);
/// let plan = build_forest(&Partition::one_set(pairs.attr_universe()), &ctx);
/// assert_eq!(plan.trees().len(), 1);
/// assert!(plan.collected_pairs() > 0);
/// # Ok(())
/// # }
/// ```
pub fn build_forest(partition: &Partition, ctx: &EvalContext<'_>) -> MonitoringPlan {
    build_whole_forest(partition, ctx, None)
}

/// [`build_forest_cached`] with no floor: always a forest.
pub(crate) fn build_whole_forest(
    partition: &Partition,
    ctx: &EvalContext<'_>,
    cache: Option<&TreeCache>,
) -> MonitoringPlan {
    build_forest_cached(partition, ctx, cache, 0)
        .unwrap_or_else(|| unreachable!("no forest is below a floor of 0"))
}

/// The sets of `partition` in the order [`build_forest`] constructs
/// them. Under a dynamic allocation scheme each tree is built against
/// what the trees before it left, so two partitions with equal sequences
/// get the same trees — the planner builds such a forest only once.
pub(crate) fn build_sequence<'p>(
    partition: &'p Partition,
    ctx: &EvalContext<'_>,
) -> Vec<&'p AttrSet> {
    let sets = partition.sets();
    let size = |s| ctx.pairs.index().participant_count(s);
    let sizes: Vec<usize> = sets.iter().map(size).collect();
    let order = ctx.allocation.construction_order(&sizes);
    order.into_iter().map(|k| &sets[k]).collect()
}

/// [`build_forest`] with an optional [`TreeCache`] and a `floor` in
/// collected pairs; the planner's seed forests and whole-forest
/// rebuilds in its global phase reuse trees built earlier in the same
/// call.
///
/// The result is `Some` exactly when the finished forest collects at
/// least `floor` pairs, and is then the forest an unbounded build
/// returns. A tree collects at most what its set demands, and under a
/// dynamic allocation at most its [`pair_cap`] under the starting
/// budgets: budgets only fall as trees are built, and the cap falls
/// with them. So once the pairs collected so far plus those bounds for
/// the unbuilt sets fall below `floor`, the forest cannot reach it and
/// the remaining trees are not built. Each tree is also held to the cap
/// of the request it is built from, under the budgets it actually sees:
/// one that cannot make up what the others at their bounds leave short
/// is not built either.
pub fn build_forest_cached(
    partition: &Partition,
    ctx: &EvalContext<'_>,
    cache: Option<&TreeCache>,
    floor: usize,
) -> Option<MonitoringPlan> {
    let sets = partition.sets();
    let idx = ctx.pairs.index();
    let mut remaining = BudgetLedger::new(ctx.pairs, ctx.caps);
    // Per set, an upper bound on what its tree collects.
    let bound: Vec<usize> = if floor > 0 && !ctx.allocation.is_static() {
        let cap = |set| pair_cap(&make_request(set, ctx, &remaining, remaining.collector()));
        sets.iter().map(cap).collect()
    } else {
        let demanded = |set: &AttrSet| set.iter().map(|&a| idx.owners(a).len()).sum();
        sets.iter().map(demanded).collect()
    };
    // Upper bound on what the finished forest collects.
    let mut reachable: usize = bound.iter().sum();
    if reachable < floor {
        return None;
    }
    // Dense participant lists per set (ascending = NodeId order).
    let mut row = Vec::new();
    let participants: Vec<Vec<u32>> = sets
        .iter()
        .map(|s| {
            idx.or_participants(s, &mut row);
            let mut dense = Vec::new();
            PairIndex::iter_bits(&row, &mut dense);
            dense
        })
        .collect();
    let sizes: Vec<usize> = participants.iter().map(Vec::len).collect();
    let order = ctx.allocation.construction_order(&sizes);

    // Per dense node, the sizes of the trees it participates in (static
    // schemes).
    let mut my_tree_sizes: Vec<Vec<usize>> = Vec::new();
    if ctx.allocation.is_static() {
        my_tree_sizes.resize(idx.node_count(), Vec::new());
        for (k, parts) in participants.iter().enumerate() {
            for &d in parts {
                my_tree_sizes[d as usize].push(sizes[k]);
            }
        }
    }

    // Uniform splits the collector over trees that can actually send
    // to it: a participant-less set builds an empty tree, and counting
    // it would strand a share of the collector budget.
    let populated_count = sizes.iter().filter(|&&s| s > 0).count().max(1);

    let mut planned: Vec<Option<PlannedTree>> = (0..sets.len()).map(|_| None).collect();
    for k in order {
        let set = &sets[k];
        // What this tree must collect for the forest to reach `floor`
        // with every other tree at its bound.
        let need = floor.saturating_sub(reachable - bound[k]);
        // Budgets visible to this tree. Static schemes compute each
        // tree's share; dynamic schemes read the running ledger
        // directly (no per-tree clone).
        let tree = if ctx.allocation.is_static() {
            let budgets: BTreeMap<NodeId, f64> = participants[k]
                .iter()
                .map(|&d| {
                    let n = idx.node_id(d);
                    let b = ctx.caps.node(n).unwrap_or(0.0);
                    let all = &my_tree_sizes[d as usize];
                    (n, ctx.allocation.node_share(b, sizes[k], all))
                })
                .collect();
            let collector_budget = match ctx.allocation {
                AllocationScheme::Uniform => ctx.caps.collector() / populated_count as f64,
                AllocationScheme::Proportional => {
                    // A zero-size set gets weight 0 and the degenerate
                    // all-zero partition hands each (empty) tree the
                    // full collector; empty trees send nothing, so
                    // neither case can oversubscribe it.
                    let total: usize = sizes.iter().sum();
                    if total == 0 {
                        ctx.caps.collector()
                    } else {
                        ctx.caps.collector() * sizes[k] as f64 / total as f64
                    }
                }
                _ => unreachable!("static schemes only"),
            };
            build_tree_reaching(set, ctx, &budgets, collector_budget, cache, need)?
        } else {
            build_tree_reaching(set, ctx, &remaining, remaining.collector(), cache, need)?
        };
        if !ctx.allocation.is_static() {
            remaining.charge(&tree);
        }
        reachable = reachable - bound[k] + tree.collected_pairs;
        planned[k] = Some(tree);
        if reachable < floor {
            return None;
        }
    }

    Some(MonitoringPlan::new(
        partition.clone(),
        planned
            .into_iter()
            .map(|t| t.unwrap_or_else(|| unreachable!("every set planned")))
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::ids::AttrId;

    fn dense_pairs(nodes: u32, attrs: u32) -> PairSet {
        (0..nodes)
            .flat_map(|n| (0..attrs).map(move |a| (NodeId(n), AttrId(a))))
            .collect()
    }

    fn ctx_parts(nodes: u32) -> (PairSet, CapacityMap, AttrCatalog) {
        (
            dense_pairs(nodes, 3),
            CapacityMap::uniform(nodes as usize, 30.0, 500.0).unwrap(),
            AttrCatalog::new(),
        )
    }

    #[test]
    fn one_set_forest_has_single_tree() {
        let (pairs, caps, catalog) = ctx_parts(6);
        let ctx = EvalContext::basic(&pairs, &caps, CostModel::default(), &catalog);
        let plan = build_forest(&Partition::one_set(pairs.attr_universe()), &ctx);
        assert_eq!(plan.trees().len(), 1);
        assert_eq!(plan.demanded_pairs(), 18);
    }

    #[test]
    fn singleton_forest_has_tree_per_attr() {
        let (pairs, caps, catalog) = ctx_parts(6);
        let ctx = EvalContext::basic(&pairs, &caps, CostModel::default(), &catalog);
        let plan = build_forest(&Partition::singleton(pairs.attr_universe()), &ctx);
        assert_eq!(plan.trees().len(), 3);
    }

    #[test]
    fn usage_never_exceeds_capacity_dynamic() {
        let (pairs, catalog) = (dense_pairs(10, 4), AttrCatalog::new());
        let caps = CapacityMap::uniform(10, 12.0, 100.0).unwrap();
        let ctx = EvalContext::basic(&pairs, &caps, CostModel::default(), &catalog);
        for alloc in [AllocationScheme::OnDemand, AllocationScheme::Ordered] {
            let ctx = EvalContext {
                allocation: alloc,
                ..ctx
            };
            let plan = build_forest(&Partition::singleton(pairs.attr_universe()), &ctx);
            for (n, u) in plan.node_usage() {
                assert!(
                    u <= caps.node(n).unwrap() + 1e-6,
                    "{alloc:?}: node {n} over budget ({u})"
                );
            }
            assert!(plan.collector_usage() <= caps.collector() + 1e-6);
        }
    }

    #[test]
    fn usage_never_exceeds_capacity_static() {
        let pairs = dense_pairs(10, 4);
        let catalog = AttrCatalog::new();
        let caps = CapacityMap::uniform(10, 12.0, 100.0).unwrap();
        let base = EvalContext::basic(&pairs, &caps, CostModel::default(), &catalog);
        for alloc in [AllocationScheme::Uniform, AllocationScheme::Proportional] {
            let ctx = EvalContext {
                allocation: alloc,
                ..base
            };
            let plan = build_forest(&Partition::singleton(pairs.attr_universe()), &ctx);
            for (n, u) in plan.node_usage() {
                assert!(
                    u <= caps.node(n).unwrap() + 1e-6,
                    "{alloc:?}: node {n} over budget ({u})"
                );
            }
            assert!(plan.collector_usage() <= caps.collector() + 1e-6);
        }
    }

    #[test]
    fn ordered_at_least_matches_uniform() {
        // Uneven tree sizes: attr 0 everywhere, attrs 1-3 on few nodes.
        let mut pairs = PairSet::new();
        for n in 0..12 {
            pairs.insert(NodeId(n), AttrId(0));
        }
        for a in 1..4 {
            for n in 0..3 {
                pairs.insert(NodeId(n), AttrId(a));
            }
        }
        let caps = CapacityMap::uniform(12, 10.0, 300.0).unwrap();
        let catalog = AttrCatalog::new();
        let base = EvalContext::basic(&pairs, &caps, CostModel::default(), &catalog);
        let score = |alloc| {
            let ctx = EvalContext {
                allocation: alloc,
                ..base
            };
            build_forest(&Partition::singleton(pairs.attr_universe()), &ctx).collected_pairs()
        };
        assert!(score(AllocationScheme::Ordered) >= score(AllocationScheme::Uniform));
    }

    #[test]
    fn uniform_collector_split_skips_participant_less_sets() {
        // Attrs 0 and 1 are demanded on every node; attr 9 by nobody,
        // so its tree is empty and consumes no collector intake. The
        // collector budget admits each populated root's full payload
        // at a half share but not at a third: dividing by *all* sets
        // (the pre-fix behavior) strands a third of the collector on
        // the empty tree and drops pairs from the populated ones.
        let pairs = dense_pairs(6, 2);
        let caps = CapacityMap::uniform(6, 30.0, 17.0).unwrap();
        let catalog = AttrCatalog::new();
        let ctx = EvalContext {
            allocation: AllocationScheme::Uniform,
            ..EvalContext::basic(&pairs, &caps, CostModel::default(), &catalog)
        };
        let set = |a: u32| -> AttrSet { [AttrId(a)].into_iter().collect() };
        let with_stray = Partition::from_sets(vec![set(0), set(1), set(9)]).unwrap();
        let without = Partition::from_sets(vec![set(0), set(1)]).unwrap();
        let with_stray = build_forest(&with_stray, &ctx);
        let without = build_forest(&without, &ctx);
        assert_eq!(
            with_stray.collected_pairs(),
            without.collected_pairs(),
            "a participant-less set must not dilute the uniform collector split"
        );
        assert!(with_stray.collector_usage() <= caps.collector() + 1e-6);
    }

    #[test]
    fn proportional_collector_split_with_degenerate_partitions() {
        // A zero-size set has zero weight: it neither receives a share
        // nor dilutes the populated trees'.
        let pairs = dense_pairs(6, 2);
        let caps = CapacityMap::uniform(6, 30.0, 17.0).unwrap();
        let catalog = AttrCatalog::new();
        let ctx = EvalContext {
            allocation: AllocationScheme::Proportional,
            ..EvalContext::basic(&pairs, &caps, CostModel::default(), &catalog)
        };
        let set = |a: u32| -> AttrSet { [AttrId(a)].into_iter().collect() };
        let with_stray = Partition::from_sets(vec![set(0), set(1), set(9)]).unwrap();
        let without = Partition::from_sets(vec![set(0), set(1)]).unwrap();
        assert_eq!(
            build_forest(&with_stray, &ctx).collected_pairs(),
            build_forest(&without, &ctx).collected_pairs()
        );

        // All-zero partition (nothing demanded at all): total size 0.
        // Pinned behavior: no division by zero, an empty plan, and no
        // collector usage — the nominal full-collector share is
        // irrelevant because the trees are empty.
        let empty_pairs = PairSet::new();
        let ctx0 = EvalContext {
            allocation: AllocationScheme::Proportional,
            ..EvalContext::basic(&empty_pairs, &caps, CostModel::default(), &catalog)
        };
        let all_zero = Partition::from_sets(vec![set(3), set(4)]).unwrap();
        let plan = build_forest(&all_zero, &ctx0);
        assert_eq!(plan.collected_pairs(), 0);
        assert_eq!(plan.collector_usage(), 0.0);
        // Same degenerate case under Uniform: divisor clamps, no panic.
        let ctx0 = EvalContext {
            allocation: AllocationScheme::Uniform,
            ..ctx0
        };
        let plan = build_forest(&all_zero, &ctx0);
        assert_eq!(plan.collected_pairs(), 0);
    }

    #[test]
    fn aggregation_awareness_shrinks_upstream_cost() {
        use crate::attribute::AttrInfo;
        use crate::cost::Aggregation;
        let mut catalog = AttrCatalog::new();
        let max_attr = catalog.register(AttrInfo::new("max").with_aggregation(Aggregation::Max));
        let pairs: PairSet = (0..10).map(|n| (NodeId(n), max_attr)).collect();
        let caps = CapacityMap::uniform(10, 7.0, 7.0).unwrap();
        let base = EvalContext::basic(&pairs, &caps, CostModel::default(), &catalog);
        let naive = build_forest(&Partition::one_set(pairs.attr_universe()), &base);
        let aware = EvalContext {
            aggregation_aware: true,
            ..base
        };
        let aware = build_forest(&Partition::one_set(pairs.attr_universe()), &aware);
        assert!(
            aware.collected_pairs() > naive.collected_pairs(),
            "funnel-aware planning should include more nodes ({} vs {})",
            aware.collected_pairs(),
            naive.collected_pairs()
        );
    }

    #[test]
    fn frequency_awareness_discounts_slow_attrs() {
        use crate::attribute::AttrInfo;
        let mut catalog = AttrCatalog::new();
        let slow = catalog.register(AttrInfo::new("slow").with_frequency(0.25).unwrap());
        let fast = catalog.register(AttrInfo::new("fast"));
        let mut pairs = PairSet::new();
        for n in 0..10 {
            pairs.insert(NodeId(n), slow);
            pairs.insert(NodeId(n), fast);
        }
        // Tight collector: it bounds total root payload.
        let caps = CapacityMap::uniform(10, 50.0, 14.0).unwrap();
        let base = EvalContext::basic(&pairs, &caps, CostModel::default(), &catalog);
        let naive = build_forest(&Partition::one_set(pairs.attr_universe()), &base);
        let awarectx = EvalContext {
            frequency_aware: true,
            ..base
        };
        let aware = build_forest(&Partition::one_set(pairs.attr_universe()), &awarectx);
        assert!(aware.collected_pairs() >= naive.collected_pairs());
        assert!(aware.collected_pairs() > 0);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The floor is exact: a bounded build returns a forest exactly
        /// when the unbounded build collects at least `floor` pairs, and
        /// that forest is the unbounded one byte for byte — under every
        /// allocation scheme, whatever order it builds the sets in.
        #[test]
        fn floor_cuts_exactly_the_forests_below_it(
            raw in prop::collection::vec((0u32..12, 0u32..9), 1..90),
            bins in prop::collection::vec(0usize..4, 9),
            per_node in 3u32..14,
            collector in 8u32..60,
            slack in 0usize..40,
        ) {
            let pairs: PairSet = raw.iter().map(|&(n, a)| (NodeId(n), AttrId(a))).collect();
            let caps =
                CapacityMap::uniform(12, f64::from(per_node), f64::from(collector)).unwrap();
            let catalog = AttrCatalog::new();
            let base = EvalContext::basic(&pairs, &caps, CostModel::new(2.0, 1.0).unwrap(), &catalog);
            let mut grouped = vec![AttrSet::new(); 4];
            for a in pairs.attrs() {
                grouped[bins[a.0 as usize]].insert(a);
            }
            grouped.retain(|s| !s.is_empty());
            let partitions = [
                Partition::singleton(pairs.attr_universe()),
                Partition::from_sets(grouped).unwrap(),
            ];
            for allocation in [
                AllocationScheme::Uniform,
                AllocationScheme::Proportional,
                AllocationScheme::OnDemand,
                AllocationScheme::Ordered,
            ] {
                let ctx = EvalContext { allocation, ..base };
                for partition in &partitions {
                    let full = build_forest(partition, &ctx);
                    let (got, want) = (full.collected_pairs(), full.demanded_pairs());
                    let json = serde_json::to_string(&full).unwrap();
                    let floors =
                        [0, got.saturating_sub(slack), got.saturating_sub(1), got, got + 1, want, want + 1];
                    for floor in floors {
                        let bounded = build_forest_cached(partition, &ctx, None, floor);
                        prop_assert_eq!(
                            bounded.is_some(),
                            got >= floor,
                            "{:?}, floor {} against {} of {} pairs",
                            allocation, floor, got, want
                        );
                        if let Some(plan) = bounded {
                            prop_assert_eq!(serde_json::to_string(&plan).unwrap(), json.clone());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_partition_yields_empty_plan() {
        let (pairs, caps, catalog) = ctx_parts(3);
        let ctx = EvalContext::basic(&pairs, &caps, CostModel::default(), &catalog);
        let plan = build_forest(&Partition::one_set([]), &ctx);
        assert_eq!(plan.trees().len(), 0);
        assert_eq!(plan.collected_pairs(), 0);
    }

    /// A tree that only charges: `usage` on its nodes, `collector` on
    /// the collector.
    fn charging(usage: BTreeMap<NodeId, f64>, collector: f64) -> PlannedTree {
        PlannedTree {
            tree: None,
            usage,
            collector_usage: collector,
            collected_pairs: 0,
            demanded_pairs: 0,
            excluded: Vec::new(),
            message_volume: 0.0,
        }
    }

    /// The account the ledger replaces: the capacity map collected into
    /// a `BTreeMap`, charged where a node has an entry.
    fn charge_map(map: &mut BTreeMap<NodeId, f64>, tree: &PlannedTree, sign: f64) {
        for (n, &u) in &tree.usage {
            if let Some(r) = map.get_mut(n) {
                *r += sign * u;
            }
        }
    }

    /// Every read of `ledger` — by id over the ids 0..12, by dense index
    /// over the pair set's nodes — against `map`, to the bit.
    fn same_reads(ledger: &impl BudgetView, map: &BTreeMap<NodeId, f64>, idx: &PairIndex) {
        for n in (0..12).map(NodeId) {
            assert_eq!(ledger.budget(n).to_bits(), map.budget(n).to_bits(), "{n}");
        }
        for d in 0..idx.node_count() as u32 {
            let (got, want) = (ledger.budget_at(idx, d), map.budget_at(idx, d));
            assert_eq!(got.to_bits(), want.to_bits(), "dense {d}");
        }
    }

    proptest::proptest! {
        /// Nodes 0..10 may have pairs and 0..12 may have a capacity, so
        /// some nodes have pairs and no capacity and some the reverse.
        /// Trees hold only nodes with pairs, as built trees do.
        #[test]
        fn ledger_reads_match_the_map_it_replaces(
            owned in proptest::prop::collection::btree_set((0u32..10, 0u32..4), 1..30),
            capacities in proptest::prop::collection::vec((0u32..12, 0.0f64..100.0), 0..12),
            trees in proptest::prop::collection::vec(
                (proptest::prop::collection::vec((0usize..30, 0.0f64..20.0), 0..8), 0.0f64..9.0),
                1..8,
            ),
            freed in 0usize..8,
        ) {
            let pairs: PairSet = owned.iter().map(|&(n, a)| (NodeId(n), AttrId(a))).collect();
            let mut caps = CapacityMap::new(80.0).unwrap();
            for &(n, b) in &capacities {
                caps.set_node(NodeId(n), b).unwrap();
            }
            let idx = pairs.index();
            let with_pairs: Vec<NodeId> = pairs.nodes().collect();
            let trees: Vec<PlannedTree> = trees
                .into_iter()
                .map(|(usage, collector)| {
                    let usage = usage
                        .into_iter()
                        .map(|(k, u)| (with_pairs[k % with_pairs.len()], u))
                        .collect();
                    charging(usage, collector)
                })
                .collect();

            let mut ledger = BudgetLedger::new(&pairs, &caps);
            let mut map: BTreeMap<NodeId, f64> = caps.iter().collect();
            let mut collector = caps.collector();
            same_reads(&ledger, &map, idx);
            for t in &trees {
                ledger.charge(t);
                charge_map(&mut map, t, -1.0);
                collector -= t.collector_usage;
                same_reads(&ledger, &map, idx);
                proptest::prop_assert_eq!(ledger.collector().to_bits(), collector.to_bits());
            }
            let mut residuals: Vec<(NodeId, f64)> = ledger.residuals().collect();
            residuals.sort_by_key(|&(n, _)| n);
            proptest::prop_assert_eq!(residuals, map.clone().into_iter().collect::<Vec<_>>());

            // An overlay frees one charged tree and charges another.
            let (gone, new) = (&trees[freed % trees.len()], &trees[0]);
            let mut view = BudgetOverlay::new(&ledger);
            view.free(gone);
            view.charge(new);
            charge_map(&mut map, gone, 1.0);
            charge_map(&mut map, new, -1.0);
            let collector = collector + gone.collector_usage - new.collector_usage;
            same_reads(&view, &map, idx);
            proptest::prop_assert_eq!(view.collector().to_bits(), collector.to_bits());
            let touched = view.into_touched();
            ledger.settle(touched);
            same_reads(&ledger, &map, idx);
            proptest::prop_assert_eq!(ledger.collector().to_bits(), collector.to_bits());
        }
    }
}
