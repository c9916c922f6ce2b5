//! Memoized tree construction — the incremental-search optimization of
//! the journal version's §5 ("efficient adaptive" planning).
//!
//! The guided local search evaluates each merge/split candidate by
//! building the affected trees from scratch. Within one planning call
//! the same (attribute set, residual budgets) construction problem
//! recurs: a rejected candidate is re-ranked next round against
//! unchanged budgets, and a seed or global forest rebuilds sets whose
//! budgets an earlier forest already saw. [`TreeCache`] memoizes
//! finished [`PlannedTree`]s under a *structural* key — the attribute
//! set, every participant's budget (bit pattern), the collector budget,
//! and a construction-config fingerprint — so any such recurrence is a
//! map lookup instead of an `O(n log n)` build.
//!
//! Tree construction is a pure, deterministic function of the key plus
//! the pair set and attribute catalog. The latter two are *not* part of
//! the key, so a cache serves one `(pairs, catalog)`: the planner fills
//! one per cold plan and drops it when the call returns. Capacity is in
//! the key, so a changed budget simply misses. The adaptive planner's
//! churn and repair steps build uncached: across task changes the
//! residual budgets differ anyway, and the cache's memory was most of
//! what it added there.
//!
//! The planner runs on the calling thread, so the table sits in a
//! `RefCell` and takes no lock.

use crate::alloc::AllocationScheme;
use crate::build::BuilderKind;
use crate::evaluate::{build_tree_for_set, BudgetView, EvalContext};
use crate::ids::IdMap;
use crate::index::PairIndex;
use crate::partition::AttrSet;
use crate::plan::PlannedTree;
use std::cell::RefCell;

/// Entry cap, the only bound on one call's cache once `max_rounds` is
/// raised; reaching it deterministically drops
/// every entry (a full clear beats LRU bookkeeping here: keys recur in
/// bursts within a search, and a cleared cache refills within one
/// round).
const MAX_ENTRIES: usize = 8192;

/// Construction-configuration fingerprint: every knob outside the
/// budgets that changes what `build_tree_for_set` would produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CfgKey {
    builder: u8,
    branch_based: bool,
    subtree_only: bool,
    allocation: u8,
    aggregation_aware: bool,
    frequency_aware: bool,
    per_message: u64,
    per_value: u64,
}

impl CfgKey {
    fn of(ctx: &EvalContext<'_>) -> Self {
        let (builder, branch_based, subtree_only) = match ctx.builder {
            BuilderKind::Star => (0, false, false),
            BuilderKind::Chain => (1, false, false),
            BuilderKind::MaxAvb => (2, false, false),
            BuilderKind::Adaptive(adj) => (3, adj.branch_based, adj.subtree_only),
        };
        let allocation = match ctx.allocation {
            AllocationScheme::Uniform => 0,
            AllocationScheme::Proportional => 1,
            AllocationScheme::OnDemand => 2,
            AllocationScheme::Ordered => 3,
        };
        CfgKey {
            builder,
            branch_based,
            subtree_only,
            allocation,
            aggregation_aware: ctx.aggregation_aware,
            frequency_aware: ctx.frequency_aware,
            per_message: ctx.cost.per_message().to_bits(),
            per_value: ctx.cost.per_value().to_bits(),
        }
    }
}

/// One memoized construction problem. Budgets are stored as bit
/// patterns: bit-equality is exactly the guarantee under which a replay
/// of the deterministic builder yields the identical tree. The map
/// hashes keys with the id hasher: a key holds one `(u32, u64)` per
/// participant, all of them the planner's own ids and budgets.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    cfg: CfgKey,
    attrs: Vec<u32>,
    budgets: Vec<(u32, u64)>,
    collector: u64,
}

impl CacheKey {
    fn new<B: BudgetView + ?Sized>(
        ctx: &EvalContext<'_>,
        set: &AttrSet,
        avail: &B,
        collector_avail: f64,
    ) -> Self {
        // Participants via the dense index: the bitset OR iterated
        // ascending yields the same (node, budget) sequence the old
        // `BTreeSet` walk produced, so keys are unchanged.
        let idx = ctx.pairs.index();
        let mut row = Vec::new();
        idx.or_participants(set, &mut row);
        let mut dense = Vec::new();
        PairIndex::iter_bits(&row, &mut dense);
        CacheKey {
            cfg: CfgKey::of(ctx),
            attrs: set.iter().map(|a| a.0).collect(),
            budgets: dense
                .iter()
                .map(|&d| (idx.node_id(d).0, avail.budget_at(idx, d).to_bits()))
                .collect(),
            collector: collector_avail.to_bits(),
        }
    }
}

/// Cache counters of one [`TreeCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to a fresh build.
    pub misses: u64,
    /// Always 0: a cache serves one planning call and is never
    /// invalidated. Kept so reports that carry the field still parse.
    pub invalidations: u64,
    /// Full clears forced by the entry cap.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups (0.0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Registry handles (hits, misses), resolved together on the first
/// lookup so both series exist once any lookup ran: `get_or_build` sits
/// on the planner's hot path, and a name lookup per call would pay a
/// registry-mutex round trip.
fn counters() -> &'static (remo_obs::Counter, remo_obs::Counter) {
    static HANDLES: std::sync::OnceLock<(remo_obs::Counter, remo_obs::Counter)> =
        std::sync::OnceLock::new();
    HANDLES.get_or_init(|| {
        (
            remo_obs::counter("remo_planner_cache_hits_total"),
            remo_obs::counter("remo_planner_cache_misses_total"),
        )
    })
}

#[derive(Debug, Default)]
struct Inner {
    map: IdMap<CacheKey, PlannedTree>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A memo table of built trees for one planning call (see module docs).
#[derive(Debug, Default)]
pub struct TreeCache {
    inner: RefCell<Inner>,
}

impl TreeCache {
    /// An empty cache.
    pub fn new() -> Self {
        TreeCache::default()
    }

    /// Returns the cached tree for this exact construction problem, or
    /// builds, stores, and returns it.
    pub fn get_or_build<B: BudgetView + ?Sized>(
        &self,
        set: &AttrSet,
        ctx: &EvalContext<'_>,
        avail: &B,
        collector_avail: f64,
    ) -> PlannedTree {
        let build = || build_tree_for_set(set, ctx, avail, collector_avail);
        self.get_or_build_with(set, ctx, avail, collector_avail, build)
    }

    /// [`get_or_build`](Self::get_or_build) with the build on a miss
    /// left to `build`, which must build this very problem (a caller
    /// that already holds its request need not assemble it twice).
    pub(crate) fn get_or_build_with<B: BudgetView + ?Sized>(
        &self,
        set: &AttrSet,
        ctx: &EvalContext<'_>,
        avail: &B,
        collector_avail: f64,
        build: impl FnOnce() -> PlannedTree,
    ) -> PlannedTree {
        let key = CacheKey::new(ctx, set, avail, collector_avail);
        let mut inner = self.inner.borrow_mut();
        if let Some(tree) = inner.map.get(&key).cloned() {
            inner.hits += 1;
            if remo_obs::enabled() {
                counters().0.inc();
            }
            return tree;
        }
        inner.misses += 1;
        if remo_obs::enabled() {
            counters().1.inc();
        }
        let tree = build();
        if inner.map.len() >= MAX_ENTRIES {
            inner.map.clear();
            inner.evictions += 1;
        }
        inner.map.insert(key, tree.clone());
        tree
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.borrow();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            invalidations: 0,
            evictions: inner.evictions,
            entries: inner.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::attribute::AttrCatalog;
    use crate::capacity::CapacityMap;
    use crate::cost::CostModel;
    use crate::ids::{AttrId, NodeId};
    use crate::pairs::PairSet;
    use std::collections::BTreeMap;

    fn dense_pairs(nodes: u32, attrs: u32) -> PairSet {
        (0..nodes)
            .flat_map(|n| (0..attrs).map(move |a| (NodeId(n), AttrId(a))))
            .collect()
    }

    fn set_of(attrs: &[u32]) -> AttrSet {
        attrs.iter().map(|&a| AttrId(a)).collect()
    }

    #[test]
    fn identical_problem_hits() {
        let pairs = dense_pairs(8, 3);
        let caps = CapacityMap::uniform(8, 20.0, 200.0).unwrap();
        let catalog = AttrCatalog::new();
        let ctx = EvalContext::basic(&pairs, &caps, CostModel::default(), &catalog);
        let avail: BTreeMap<NodeId, f64> = caps.iter().collect();
        let cache = TreeCache::new();

        let a = cache.get_or_build(&set_of(&[0, 1]), &ctx, &avail, caps.collector());
        let b = cache.get_or_build(&set_of(&[0, 1]), &ctx, &avail, caps.collector());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        // A hit is bit-identical to the fresh build.
        assert_eq!(a.usage, b.usage);
        assert_eq!(a.collected_pairs, b.collected_pairs);
        assert_eq!(a.message_volume.to_bits(), b.message_volume.to_bits());
    }

    #[test]
    fn merged_and_split_sets_are_distinct_problems() {
        let pairs = dense_pairs(8, 3);
        let caps = CapacityMap::uniform(8, 20.0, 200.0).unwrap();
        let catalog = AttrCatalog::new();
        let ctx = EvalContext::basic(&pairs, &caps, CostModel::default(), &catalog);
        let avail: BTreeMap<NodeId, f64> = caps.iter().collect();
        let cache = TreeCache::new();

        cache.get_or_build(&set_of(&[0]), &ctx, &avail, caps.collector());
        cache.get_or_build(&set_of(&[1]), &ctx, &avail, caps.collector());
        // The merged set misses: it is a different construction problem.
        cache.get_or_build(&set_of(&[0, 1]), &ctx, &avail, caps.collector());
        // Splitting back re-hits the singleton entries.
        cache.get_or_build(&set_of(&[0]), &ctx, &avail, caps.collector());
        cache.get_or_build(&set_of(&[1]), &ctx, &avail, caps.collector());
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn capacity_change_misses_and_restore_hits() {
        let pairs = dense_pairs(6, 2);
        let caps = CapacityMap::uniform(6, 20.0, 100.0).unwrap();
        let catalog = AttrCatalog::new();
        let ctx = EvalContext::basic(&pairs, &caps, CostModel::default(), &catalog);
        let cache = TreeCache::new();
        let set = set_of(&[0, 1]);

        let full: BTreeMap<NodeId, f64> = caps.iter().collect();
        cache.get_or_build(&set, &ctx, &full, caps.collector());

        // One node loses capacity (failure): key differs, so a miss —
        // no explicit invalidation needed.
        let mut failed = full.clone();
        failed.insert(NodeId(2), 0.0);
        cache.get_or_build(&set, &ctx, &failed, caps.collector());
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);

        // Recovery restores the exact snapshot: warm-start hit.
        cache.get_or_build(&set, &ctx, &full, caps.collector());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn different_config_is_a_different_key() {
        let pairs = dense_pairs(6, 2);
        let caps = CapacityMap::uniform(6, 20.0, 100.0).unwrap();
        let catalog = AttrCatalog::new();
        let ctx = EvalContext::basic(&pairs, &caps, CostModel::default(), &catalog);
        let star = EvalContext {
            builder: BuilderKind::Star,
            ..ctx
        };
        let avail: BTreeMap<NodeId, f64> = caps.iter().collect();
        let cache = TreeCache::new();
        let set = set_of(&[0, 1]);
        cache.get_or_build(&set, &ctx, &avail, caps.collector());
        cache.get_or_build(&set, &star, &avail, caps.collector());
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn hit_rate_reports_fraction() {
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            ..CacheStats::default()
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
