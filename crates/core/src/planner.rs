//! The basic REMO planner: guided local search over attribute
//! partitions with resource-aware evaluation (paper §3).
//!
//! Starting from an initial partition, each round ranks the
//! merge/split neighborhood by estimated gain ([`GainEstimator`]),
//! evaluates the top few candidates by actually constructing the
//! affected trees against residual capacities, and applies the first
//! that improves the objective (collected node-attribute pairs, ties
//! broken by lower message volume) or, a *tolerant* plateau move, lowers
//! volume for a bounded few pairs. The search returns the best state it
//! visited and ends for one of three [`StopReason`]s: a round accepted
//! nothing, the whole state recurred exactly (plateau moves can walk in
//! a circle; laps that only revisit it are skipped), or `max_rounds`.

use crate::alloc::AllocationScheme;
use crate::attribute::AttrCatalog;
use crate::build::BuilderKind;
use crate::cache::TreeCache;
use crate::capacity::CapacityMap;
use crate::cost::CostModel;
use crate::estimate::GainEstimator;
use crate::evaluate::{
    build_forest, build_forest_cached, build_sequence, build_tree_reaching, build_whole_forest,
    BudgetLedger, BudgetOverlay, EvalContext, Touched,
};
use crate::ids::AttrId;
use crate::pairs::PairSet;
use crate::partition::{AttrSet, Partition, PartitionOp};
use crate::plan::{MonitoringPlan, PlannedTree};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where the local search starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum InitialPartition {
    /// One set per attribute (the PIER-style baseline); the default —
    /// merges then discover sharing opportunities.
    #[default]
    Singleton,
    /// A single set with every attribute; splits then relieve
    /// congestion.
    OneSet,
}

/// How many top-ranked candidates the local search fully evaluates per
/// round: the guided-search window.
pub(crate) const CANDIDATES_PER_ROUND: usize = 16;

/// Budget of whole-forest reconstructions a search may spend on stall
/// recovery (the paper's resource-sensitive refinement phase).
const GLOBAL_EVALS: usize = 16;

/// How many top-ranked candidates are evaluated globally at a stall.
const GLOBAL_CANDIDATES: usize = 6;

/// Planner configuration.
///
/// The search policy is fixed by the first seven fields (with the
/// window and budgets `CANDIDATES_PER_ROUND`, `GLOBAL_EVALS` and
/// `GLOBAL_CANDIDATES`, which no caller varies). `cache` is
/// mechanical: it changes how fast the one search loop runs, never
/// which plan it returns or what its [`PlanReport`] counts.
/// `parallelism` is read and ignored: the search runs on the calling
/// thread.
///
/// Deserialization fills every field a document omits from
/// [`PlannerConfig::default`] and ignores keys it does not know, so
/// documents written for an older field set keep parsing.
///
/// # Examples
///
/// ```
/// use remo_core::planner::{PlannerConfig, InitialPartition};
/// use remo_core::build::BuilderKind;
/// let cfg = PlannerConfig {
///     max_rounds: 64,
///     ..PlannerConfig::default()
/// };
/// assert_eq!(cfg.initial, InitialPartition::Singleton);
/// assert!(matches!(cfg.builder, BuilderKind::Adaptive(_)));
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct PlannerConfig {
    /// Tree construction scheme (default: REMO adaptive).
    pub builder: BuilderKind,
    /// Capacity allocation scheme (default: ordered on-demand).
    pub allocation: AllocationScheme,
    /// Initial partition of the search.
    pub initial: InitialPartition,
    /// The logical length of the search in rounds (default 128). The
    /// plan is always that of this many rounds; once the state provably
    /// cycles, whole laps are skipped ([`PlanReport::rounds_skipped`]).
    pub max_rounds: usize,
    /// Plan with in-network aggregation funnels (paper §6.1).
    pub aggregation_aware: bool,
    /// Weight values by update frequency (paper §6.3).
    pub frequency_aware: bool,
    /// Attribute pairs that must never share a set — the SSDP/DSDP
    /// reliability constraint (paper §6.2).
    pub forbidden_pairs: Vec<(AttrId, AttrId)>,
    /// Ignored: the planner is one serial engine on the calling thread.
    /// Kept so that configs and struct literals that set it still
    /// compile and parse.
    pub parallelism: usize,
    /// Whether tree construction is memoized in a [`TreeCache`] for the
    /// length of one planning call (default on). Off, every candidate
    /// rebuilds its trees from scratch.
    pub cache: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            builder: BuilderKind::default(),
            allocation: AllocationScheme::default(),
            initial: InitialPartition::default(),
            max_rounds: 128,
            aggregation_aware: false,
            frequency_aware: false,
            forbidden_pairs: Vec::new(),
            parallelism: 0,
            cache: true,
        }
    }
}

// Hand-written because the derive's `#[serde(default)]` means the field
// type's default (`cache: false`), not this struct's. The struct literal
// has no `..`, so a new field fails to compile until it is read here.
impl Deserialize for PlannerConfig {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        if !matches!(v, serde::Value::Object(_)) {
            return Err(format!("expected object, found {}", v.kind()));
        }
        fn field<T: Deserialize>(
            v: &serde::Value,
            name: &str,
            default: T,
        ) -> Result<T, serde::Error> {
            v.get(name).map_or(Ok(default), T::deserialize)
        }
        let d = PlannerConfig::default();
        Ok(PlannerConfig {
            builder: field(v, "builder", d.builder)?,
            allocation: field(v, "allocation", d.allocation)?,
            initial: field(v, "initial", d.initial)?,
            max_rounds: field(v, "max_rounds", d.max_rounds)?,
            aggregation_aware: field(v, "aggregation_aware", d.aggregation_aware)?,
            frequency_aware: field(v, "frequency_aware", d.frequency_aware)?,
            forbidden_pairs: field(v, "forbidden_pairs", d.forbidden_pairs)?,
            parallelism: field(v, "parallelism", d.parallelism)?,
            cache: field(v, "cache", d.cache)?,
        })
    }
}

/// Lexicographic plan objective: more pairs first, then lower message
/// volume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Score {
    pub pairs: usize,
    pub volume: f64,
}

impl Score {
    /// The score of a forest, folded in tree order.
    fn of<T: std::borrow::Borrow<PlannedTree>>(trees: &[T]) -> Score {
        Score {
            pairs: trees.iter().map(|t| t.borrow().collected_pairs).sum(),
            volume: trees.iter().map(|t| t.borrow().message_volume).sum(),
        }
    }

    pub(crate) fn better_than(&self, other: &Score) -> bool {
        self.pairs > other.pairs || (self.pairs == other.pairs && self.volume < other.volume - 1e-9)
    }
}

/// The local phase's acceptance rule: strict improvement, or a
/// tolerant plateau move that lowers volume for at most `pair_tol`
/// pairs below the state and `drift_cap` below the best state visited.
#[derive(Debug, Clone, Copy)]
struct Acceptance {
    pair_tol: usize,
    drift_cap: usize,
}

impl Acceptance {
    /// The rule for a search over `demanded` pairs.
    fn of(demanded: usize) -> Self {
        Acceptance {
            pair_tol: (demanded / 200).max(2),
            drift_cap: (demanded / 50).max(8),
        }
    }

    /// Whether a candidate scoring `new` is accepted against `score`,
    /// and whether strictly: `(strict, accepted)`.
    fn accepts(&self, new: &Score, best_pairs: usize, score: &Score) -> (bool, bool) {
        let strict = new.better_than(score);
        let tolerant = new.volume < score.volume - 1e-9
            && new.pairs + self.pair_tol >= score.pairs
            && new.pairs + self.drift_cap >= best_pairs;
        (strict, strict || tolerant)
    }

    /// The fewest pairs an accepted candidate collects: `score.pairs`
    /// for a strict improvement, and for a tolerant move the larger of
    /// the two distances the tolerances allow, whichever is lower.
    fn need(&self, best_pairs: usize, score: &Score) -> usize {
        let tolerant = score
            .pairs
            .saturating_sub(self.pair_tol)
            .max(best_pairs.saturating_sub(self.drift_cap));
        score.pairs.min(tolerant)
    }
}

/// Why a search ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StopReason {
    /// A round accepted no candidate: a fixed point.
    #[default]
    Converged,
    /// The whole state recurs every `period` rounds; laps were skipped.
    Cycle {
        /// Rounds per lap.
        period: usize,
    },
    /// `max_rounds` rounds were run.
    RoundCap,
}

/// Search telemetry: what the guided local search actually did.
///
/// Returned by [`Planner::plan_with_report`]; useful for tuning the
/// search knobs and for the planning-cost experiments (Fig. 9a).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PlanReport {
    /// Seed forests started before refinement (a twin seed borrows one).
    pub seeds_evaluated: usize,
    /// Of those, abandoned part-built because they could no longer
    /// collect as many pairs as the initial seed's forest.
    #[serde(default)]
    pub seeds_abandoned: usize,
    /// Search rounds executed.
    pub rounds: usize,
    /// Rounds of proven cycle laps not executed.
    #[serde(default)]
    pub rounds_skipped: usize,
    /// Why the search ended.
    #[serde(default)]
    pub stop: StopReason,
    /// Candidates accepted by the incremental (local) phase.
    pub local_accepts: usize,
    /// Of those, accepted under the plateau tolerance (volume down,
    /// pairs within tolerance) rather than strict improvement.
    pub tolerant_accepts: usize,
    /// Whole-forest reconstructions accepted (redistribution or global
    /// candidate evaluation).
    pub global_accepts: usize,
    /// Local candidates started: built, or cut short by the pair cap.
    pub local_evals: usize,
    /// Of those, cut before all their trees were built: the pair cap
    /// ([`crate::build::pair_cap`]) showed they could not collect the
    /// pairs acceptance needs.
    #[serde(default)]
    pub candidates_cut: usize,
    /// Whole-forest reconstructions performed.
    pub global_evals: usize,
    /// Wall milliseconds spent evaluating seed partitions.
    #[serde(default)]
    pub seed_ms: f64,
    /// Wall milliseconds spent ranking candidate operations.
    #[serde(default)]
    pub rank_ms: f64,
    /// Wall milliseconds spent evaluating local candidates.
    #[serde(default)]
    pub local_ms: f64,
    /// Wall milliseconds spent in global-phase forest rebuilds.
    #[serde(default)]
    pub global_ms: f64,
}

impl PlanReport {
    /// Publishes this report into the process-wide metrics registry
    /// (no-op while observability is disabled): per-phase duration
    /// histograms plus plan/round/eval/accept counters, so exported
    /// Prometheus text carries the planner-phase breakdown of Fig. 9a.
    pub fn export_metrics(&self) {
        if !remo_obs::enabled() {
            return;
        }
        remo_obs::counter("remo_planner_plans_total").inc();
        remo_obs::counter("remo_planner_seeds_abandoned_total").inc_by(self.seeds_abandoned as f64);
        remo_obs::counter("remo_planner_rounds_total").inc_by(self.rounds as f64);
        remo_obs::counter("remo_planner_rounds_skipped_total").inc_by(self.rounds_skipped as f64);
        for (name, hit) in [
            ("converged", self.stop == StopReason::Converged),
            ("cycle", matches!(self.stop, StopReason::Cycle { .. })),
            ("round_cap", self.stop == StopReason::RoundCap),
        ] {
            remo_obs::counter(&format!("remo_planner_stops_{name}_total")).inc_by(f64::from(hit));
        }
        remo_obs::counter("remo_planner_local_evals_total").inc_by(self.local_evals as f64);
        remo_obs::counter("remo_planner_candidates_cut_total").inc_by(self.candidates_cut as f64);
        remo_obs::counter("remo_planner_local_accepts_total").inc_by(self.local_accepts as f64);
        remo_obs::counter("remo_planner_tolerant_accepts_total")
            .inc_by(self.tolerant_accepts as f64);
        remo_obs::counter("remo_planner_global_evals_total").inc_by(self.global_evals as f64);
        remo_obs::counter("remo_planner_global_accepts_total").inc_by(self.global_accepts as f64);
        remo_obs::histogram("remo_planner_seed_duration_ms").observe(self.seed_ms);
        remo_obs::histogram("remo_planner_rank_duration_ms").observe(self.rank_ms);
        remo_obs::histogram("remo_planner_local_duration_ms").observe(self.local_ms);
        remo_obs::histogram("remo_planner_global_duration_ms").observe(self.global_ms);
        // Candidate throughput of the local phase — the number the
        // arena/bitset/delta work moves, worth a first-class series. A
        // cut candidate costs next to nothing, so only built ones count.
        let built = self.local_evals - self.candidates_cut;
        if self.local_ms > 0.0 && built > 0 {
            remo_obs::histogram("remo_planner_candidate_evals_per_sec")
                .observe(built as f64 / self.local_ms * 1e3);
        }
    }
}

/// Registry handles, resolved once: accept/reject fire per candidate
/// in the local-search loop, and a name lookup per call would pay a
/// registry-mutex round trip even with observability disabled.
fn accepted_counter() -> &'static remo_obs::Counter {
    static HANDLE: std::sync::OnceLock<remo_obs::Counter> = std::sync::OnceLock::new();
    HANDLE.get_or_init(|| remo_obs::counter("remo_planner_candidates_accepted_total"))
}

fn rejected_counter() -> &'static remo_obs::Counter {
    static HANDLE: std::sync::OnceLock<remo_obs::Counter> = std::sync::OnceLock::new();
    HANDLE.get_or_init(|| remo_obs::counter("remo_planner_candidates_rejected_total"))
}

fn delta_eval_counter() -> &'static remo_obs::Counter {
    static HANDLE: std::sync::OnceLock<remo_obs::Counter> = std::sync::OnceLock::new();
    HANDLE.get_or_init(|| remo_obs::counter("remo_planner_delta_evals_total"))
}

/// The basic REMO planner.
#[derive(Debug, Clone, Default)]
pub struct Planner {
    config: PlannerConfig,
}

impl Planner {
    /// Creates a planner with the given configuration.
    pub fn new(config: PlannerConfig) -> Self {
        Planner { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Plans a monitoring forest using an empty attribute catalog
    /// (all attributes holistic, unit frequency).
    pub fn plan(&self, pairs: &PairSet, caps: &CapacityMap, cost: CostModel) -> MonitoringPlan {
        let catalog = AttrCatalog::new();
        self.plan_with_catalog(pairs, caps, cost, &catalog)
    }

    /// Plans a monitoring forest with attribute metadata.
    ///
    /// The search seeds from a small portfolio of starting partitions
    /// — the configured initial partition plus balanced partitions
    /// sized so each tree's payload fits through a root under the
    /// node budgets — evaluates each, and refines the best. Balanced
    /// seeds matter under heavy load, where the path from a singleton
    /// start to a good mid-granularity partition crosses a long
    /// plateau that defeats purely local search.
    pub fn plan_with_catalog(
        &self,
        pairs: &PairSet,
        caps: &CapacityMap,
        cost: CostModel,
        catalog: &AttrCatalog,
    ) -> MonitoringPlan {
        self.plan_with_report(pairs, caps, cost, catalog).0
    }

    /// Like [`plan_with_catalog`](Self::plan_with_catalog), also
    /// returning search telemetry.
    pub fn plan_with_report(
        &self,
        pairs: &PairSet,
        caps: &CapacityMap,
        cost: CostModel,
        catalog: &AttrCatalog,
    ) -> (MonitoringPlan, PlanReport) {
        let local = self.config.cache.then(TreeCache::new);
        self.plan_with_report_cached(pairs, caps, cost, catalog, local.as_ref())
    }

    /// Like [`plan_with_report`](Self::plan_with_report), with a
    /// caller-owned [`TreeCache`] whose counters the caller can read
    /// afterwards. A cache serves one `(pairs, catalog)`: both feed
    /// tree construction without being part of its key, so pass a
    /// cache only to plans over the pairs and catalog it was filled
    /// with. Pass `None` to disable memoization regardless of the
    /// `cache` knob.
    pub fn plan_with_report_cached(
        &self,
        pairs: &PairSet,
        caps: &CapacityMap,
        cost: CostModel,
        catalog: &AttrCatalog,
        cache: Option<&TreeCache>,
    ) -> (MonitoringPlan, PlanReport) {
        let ctx = self.eval_context(pairs, caps, cost, catalog);
        let mut report = PlanReport::default();
        let mut seeds = vec![self.initial_partition(pairs)];
        if self.config.forbidden_pairs.is_empty() {
            seeds.extend(self.balanced_seeds(pairs, caps, cost));
        }
        // Under a dynamic allocation scheme a forest is a function of
        // its build sequence alone: a seed whose sequence an earlier
        // seed (its twin) shares borrows that forest, not built twice.
        let orders: Vec<_> = seeds.iter().map(|s| build_sequence(s, &ctx)).collect();
        let twin_of =
            |i: usize| (0..i).find(|&j| !ctx.allocation.is_static() && orders[j] == orders[i]);
        let distinct: Vec<usize> = (0..seeds.len()).filter(|&i| twin_of(i).is_none()).collect();
        let mut best: Option<MonitoringPlan> = None;
        let t_seed = Instant::now();
        {
            let _seed_span = remo_obs::span!("planner.seed");
            // Selection orders by pairs first, so a forest that cannot
            // reach the initial seed's pair count cannot be chosen: the
            // initial seed is built to the end, the others race that
            // floor and are abandoned once they cannot reach it (a tie
            // is kept for the volume comparison).
            let initial = build_whole_forest(&seeds[0], &ctx, cache);
            let floor = initial.collected_pairs();
            let raced: Vec<_> = distinct[1..]
                .iter()
                .map(|&i| build_forest_cached(&seeds[i], &ctx, cache, floor))
                .collect();
            report.seeds_evaluated = distinct.len();
            report.seeds_abandoned = raced.iter().filter(|p| p.is_none()).count();
            let mut raced = raced.into_iter();
            // Per seed, its forest; `None` for an abandoned seed and
            // for the twins that drop out with it.
            let mut plans: Vec<Option<MonitoringPlan>> = vec![Some(initial)];
            for (i, seed) in seeds.iter().enumerate().skip(1) {
                plans.push(match twin_of(i) {
                    Some(j) => plans[j].as_ref().map(|p| p.reordered(seed)),
                    None => raced.next().flatten(),
                });
            }
            for plan in plans.into_iter().flatten() {
                let better = match &best {
                    None => true,
                    Some(b) => {
                        plan.collected_pairs() > b.collected_pairs()
                            || (plan.collected_pairs() == b.collected_pairs()
                                && plan.message_volume() < b.message_volume())
                    }
                };
                if better {
                    best = Some(plan);
                }
            }
        }
        let plan = best.unwrap_or_else(|| unreachable!("at least one seed"));
        report.seed_ms = t_seed.elapsed().as_secs_f64() * 1e3;
        let refined = self.refine_with_report(&plan, &ctx, &mut report, cache, true);
        report.export_metrics();
        #[cfg(debug_assertions)]
        {
            // Post-condition: re-prove every error-severity paper
            // invariant on the plan we are about to hand out.
            let outcome = crate::validate::Audit::new().run(
                &crate::validate::AuditInput::new(&refined, pairs, caps, cost, catalog)
                    .aggregation_aware(self.config.aggregation_aware)
                    .frequency_aware(self.config.frequency_aware),
            );
            debug_assert!(
                outcome.is_clean(),
                "planner emitted a plan that fails its own audit:\n{}",
                outcome.render()
            );
        }
        (refined, report)
    }

    /// Balanced seed partitions: attributes LPT-packed into `k` bins by
    /// pair count, for a few `k` around the smallest tree count whose
    /// per-tree payload fits through a root.
    fn balanced_seeds(
        &self,
        pairs: &PairSet,
        caps: &CapacityMap,
        cost: CostModel,
    ) -> Vec<Partition> {
        let universe: Vec<AttrId> = pairs.attrs().collect();
        if universe.len() < 2 {
            return Vec::new();
        }
        let max_budget = caps.iter().map(|(_, b)| b).fold(0.0f64, f64::max);
        let feasible_payload = ((max_budget - cost.per_message()) / cost.per_value()).max(1.0);
        let total_values = pairs.len() as f64;
        let k_min = (total_values / feasible_payload).ceil().max(1.0) as usize;

        let mut weights: Vec<(AttrId, usize)> = universe
            .iter()
            .map(|&a| (a, pairs.nodes_of(a).map_or(0, |n| n.len())))
            .collect();
        weights.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));

        let mut seeds = Vec::new();
        for mult in [1usize, 2, 4] {
            let k = (k_min * mult).clamp(1, universe.len());
            // Longest-processing-time packing into k bins.
            let mut bins: Vec<(usize, AttrSet)> = vec![(0, AttrSet::new()); k];
            for &(a, w) in &weights {
                let (load, set) = bins
                    .iter_mut()
                    .min_by_key(|(load, _)| *load)
                    .unwrap_or_else(|| unreachable!("k >= 1"));
                *load += w;
                set.insert(a);
            }
            let sets: Vec<AttrSet> = bins
                .into_iter()
                .map(|(_, s)| s)
                .filter(|s| !s.is_empty())
                .collect();
            if let Ok(p) = Partition::from_sets(sets) {
                // Balanced seeds differ pairwise in set count; whether
                // one repeats the *initial* seed is the caller's check.
                if seeds.iter().all(|q: &Partition| q.len() != p.len()) {
                    seeds.push(p);
                }
            }
            if k == universe.len() {
                break;
            }
        }
        seeds
    }

    /// Evaluates a *fixed* partition (no search) — used for the
    /// SINGLETON-SET and ONE-SET baselines of §7 — returning the plan
    /// with its per-tree cost breakdown and wall time.
    pub fn evaluate_partition(
        &self,
        partition: &Partition,
        pairs: &PairSet,
        caps: &CapacityMap,
        cost: CostModel,
        catalog: &AttrCatalog,
    ) -> EvalBreakdown {
        let t0 = Instant::now();
        let ctx = self.eval_context(pairs, caps, cost, catalog);
        let plan = build_forest(partition, &ctx);
        EvalBreakdown::from_plan(plan, t0.elapsed())
    }

    pub(crate) fn eval_context<'a>(
        &self,
        pairs: &'a PairSet,
        caps: &'a CapacityMap,
        cost: CostModel,
        catalog: &'a AttrCatalog,
    ) -> EvalContext<'a> {
        EvalContext {
            pairs,
            caps,
            cost,
            catalog,
            builder: self.config.builder,
            allocation: self.config.allocation,
            aggregation_aware: self.config.aggregation_aware,
            frequency_aware: self.config.frequency_aware,
        }
    }

    fn initial_partition(&self, pairs: &PairSet) -> Partition {
        match self.config.initial {
            // SSDP constraints hold trivially in a singleton start; a
            // one-set start must not co-locate forbidden pairs, so it
            // degrades to singleton when constraints exist.
            InitialPartition::OneSet if self.config.forbidden_pairs.is_empty() => {
                Partition::one_set(pairs.attr_universe())
            }
            InitialPartition::OneSet => Partition::singleton(pairs.attr_universe()),
            InitialPartition::Singleton => Partition::singleton(pairs.attr_universe()),
        }
    }

    fn violates_constraints(&self, set: &AttrSet) -> bool {
        self.config
            .forbidden_pairs
            .iter()
            .any(|(a, b)| set.contains(a) && set.contains(b))
    }

    /// The guided local search proper: iteratively apply the first
    /// acceptable candidate among the top-ranked augmentations.
    /// `skip_laps` is off only in the unit tests' plain-cap oracle.
    fn refine_with_report(
        &self,
        plan: &MonitoringPlan,
        ctx: &EvalContext<'_>,
        report: &mut PlanReport,
        cache: Option<&TreeCache>,
        mut skip_laps: bool,
    ) -> MonitoringPlan {
        let mut state = SearchState::from_plan(plan, ctx.pairs, ctx.caps);

        let max_budget = ctx.caps.iter().map(|(_, b)| b).fold(0.0f64, f64::max);
        let estimator = GainEstimator::with_capacity(ctx.pairs, ctx.cost, max_budget);

        // The paper's two-phase iteration: a cheap local phase applies
        // augmentations whose *incremental* rebuild already improves
        // the plan; when it stalls, a global phase rebuilds the whole
        // forest (redistributing capacity the local view cannot see)
        // and evaluates the top candidates against the full
        // reconstruction. Global rebuilds are budgeted because each
        // one costs a complete forest construction.
        let mut global_budget = GLOBAL_EVALS;

        // Best-so-far snapshot: tolerant plateau moves may transiently
        // lose a few pairs while volume savings accumulate; the search
        // always returns the best state it visited.
        let mut best = (state.partition.clone(), state.trees.clone(), state.score);
        let demanded: usize = state.trees.iter().map(|t| t.demanded_pairs).sum();
        let rule = Acceptance::of(demanded);

        // Termination (DESIGN.md): the next state is a function of
        // `state`, `best`'s pairs and `global_budget`. A repeated digest
        // nominates a lap; laps are skipped only once one has ended
        // deep-equal to its snapshot, so the plan is the plain loop's.
        let mut seen: HashMap<u64, usize> = HashMap::new();
        let mut lap: Option<(usize, usize, (usize, usize), SearchState)> = None;
        report.stop = StopReason::RoundCap;
        let mut round = 0;
        while round < self.config.max_rounds {
            if skip_laps && lap.as_ref().is_none_or(|l| l.0 == round) {
                let now = (best.2.pairs, global_budget);
                if let Some((_, period, ..)) = lap.take().filter(|l| l.2 == now && l.3 == state) {
                    let skipped = (self.config.max_rounds - round) / period * period;
                    remo_obs::event!("planner.cycle",
                        "round" => round, "period" => period, "skipped" => skipped);
                    if skipped > 0 {
                        report.stop = StopReason::Cycle { period };
                    }
                    report.rounds_skipped = skipped;
                    round += skipped;
                    skip_laps = false;
                    continue;
                }
                if let Some(prev) = seen.insert(state.fingerprint(now), round) {
                    lap = Some((2 * round - prev, round - prev, now, state.clone()));
                }
            }
            let t_rank = Instant::now();
            let ranked = {
                let _rank_span = remo_obs::span!("planner.rank");
                estimator.rank_ops_trees(&state.partition, &state.trees)
            };
            report.rank_ms += t_rank.elapsed().as_secs_f64() * 1e3;
            let mut applied = false;
            let t_local = Instant::now();
            let local_span = remo_obs::span!("planner.local");

            // ---- local phase: incremental first improvement, with a
            // small pair tolerance for strong volume reductions ----
            let window: Vec<PartitionOp> = ranked
                .iter()
                .take(CANDIDATES_PER_ROUND)
                .map(|&(op, _)| op)
                .filter(|&op| !self.op_violates_constraints(op, &state.partition))
                .collect();
            // A candidate that cannot collect this many pairs is
            // rejected whatever its volume, so it need not be built.
            let need = rule.need(best.2.pairs, &state.score);
            let mut cut = 0;
            let accepted = first_accepted(
                &window,
                |&op| state.eval_reaching(op, ctx, cache, need),
                |ev| {
                    let ok = match ev? {
                        Ok(ev) => {
                            let (strict, ok) = rule.accepts(&ev.score, best.2.pairs, &state.score);
                            ok.then_some((strict, ev))
                        }
                        Err(Cut) => {
                            cut += 1;
                            None
                        }
                    };
                    if ok.is_none() {
                        if remo_obs::enabled() {
                            rejected_counter().inc();
                        }
                        remo_obs::event!("planner.local.reject", "round" => round);
                    }
                    ok
                },
            );
            // Charged: evaluations up to and including the accepted
            // rank, where the scan stops; `cut` counts the same way.
            report.local_evals += accepted
                .as_ref()
                .map_or(window.len(), |&(rank, _)| rank + 1);
            report.candidates_cut += cut;
            if let Some((_, (strict, ev))) = accepted {
                report.local_accepts += 1;
                if !strict {
                    report.tolerant_accepts += 1;
                }
                state.apply(ev);
                applied = true;
                if remo_obs::enabled() {
                    accepted_counter().inc();
                }
                remo_obs::event!("planner.local.accept",
                    "round" => round,
                    "strict" => strict,
                    "pairs" => state.score.pairs,
                    "volume" => state.score.volume);
            }

            drop(local_span);
            report.local_ms += t_local.elapsed().as_secs_f64() * 1e3;

            // ---- global phase: full reconstruction fallback ----
            let t_global = Instant::now();
            let global_span = remo_obs::span!("planner.global");
            if !applied && global_budget > 0 {
                // Every forest here must beat the state, so must
                // collect at least its pairs: each races that floor.
                let floor = state.score.pairs;
                let better = |plan: Option<MonitoringPlan>| {
                    plan.filter(|p| Score::of(p.trees()).better_than(&state.score))
                };
                // First, pure redistribution under the same partition.
                global_budget -= 1;
                report.global_evals += 1;
                let rebuilt = build_forest_cached(&state.partition, ctx, cache, floor);
                if let Some(rebuilt) = better(rebuilt) {
                    state = SearchState::from_plan(&rebuilt, ctx.pairs, ctx.caps);
                    applied = true;
                    report.global_accepts += 1;
                    remo_obs::event!("planner.global.redistribution",
                        "round" => round,
                        "pairs" => state.score.pairs,
                        "volume" => state.score.volume);
                } else {
                    // Then, the top candidates evaluated globally, as
                    // many as the budget still pays for.
                    let candidates: Vec<(PartitionOp, Partition)> = ranked
                        .iter()
                        .take(GLOBAL_CANDIDATES)
                        .filter(|&&(op, _)| !self.op_violates_constraints(op, &state.partition))
                        .filter_map(|&(op, _)| {
                            let mut cand = state.partition.clone();
                            cand.apply(op).ok().map(|_| (op, cand))
                        })
                        .take(global_budget)
                        .collect();
                    let accepted = first_accepted(
                        &candidates,
                        |(_, cand)| build_forest_cached(cand, ctx, cache, floor),
                        better,
                    );
                    // Charged like the local window: up to and
                    // including the accepted rank.
                    let charged = accepted
                        .as_ref()
                        .map_or(candidates.len(), |&(rank, _)| rank + 1);
                    global_budget -= charged;
                    report.global_evals += charged;
                    if let Some((rank, plan)) = accepted {
                        let op = candidates[rank].0;
                        report.global_accepts += 1;
                        state = SearchState::from_plan(&plan, ctx.pairs, ctx.caps);
                        applied = true;
                        remo_obs::event!("planner.global.accept",
                            "round" => round,
                            "op" => format!("{op:?}"),
                            "pairs" => state.score.pairs,
                            "volume" => state.score.volume);
                    }
                }
            }

            drop(global_span);
            report.global_ms += t_global.elapsed().as_secs_f64() * 1e3;

            report.rounds += 1;
            if state.score.better_than(&best.2) {
                best = (state.partition.clone(), state.trees.clone(), state.score);
            }
            if !applied {
                report.stop = StopReason::Converged;
                remo_obs::event!("planner.converged",
                    "round" => round,
                    "pairs" => state.score.pairs,
                    "volume" => state.score.volume);
                break;
            }
            remo_obs::event!("planner.round",
                "round" => round,
                "pairs" => state.score.pairs,
                "volume" => state.score.volume,
                "trees" => state.partition.len());
            round += 1;
        }

        if best.2.better_than(&state.score) {
            plan_of(best.0, best.1)
        } else {
            state.into_plan()
        }
    }

    pub(crate) fn op_violates_constraints(&self, op: PartitionOp, partition: &Partition) -> bool {
        if self.config.forbidden_pairs.is_empty() {
            return false;
        }
        match op {
            PartitionOp::Split(..) => false,
            PartitionOp::Merge(i, j) => {
                let mut merged: AttrSet = partition.sets()[i].clone();
                merged.extend(partition.sets()[j].iter().copied());
                self.violates_constraints(&merged)
            }
        }
    }
}

/// Evaluates `items` in rank order and returns the first that `accept`
/// takes, with its rank.
///
/// Acceptance almost always lands in the first few ranks, so evaluating
/// the whole list eagerly would waste most of the builds. Callers charge
/// `rank + 1` evaluations.
fn first_accepted<T, E, A>(
    items: &[T],
    eval: impl Fn(&T) -> E,
    mut accept: impl FnMut(E) -> Option<A>,
) -> Option<(usize, A)> {
    items
        .iter()
        .enumerate()
        .find_map(|(rank, item)| accept(eval(item)).map(|a| (rank, a)))
}

/// What the local search walks: a partition, its forest, and the
/// budgets and score that forest implies. The planner's loop, the
/// adaptive planner's restricted search and the scoring proptest all
/// step this one type.
///
/// `avail` and `score` are functions of `trees`:
/// [`from_plan`](Self::from_plan) derives them from scratch,
/// [`apply`](Self::apply) keeps them current from a candidate's deltas.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SearchState {
    partition: Partition,
    /// Shared handles: an applied op replaces only the one or two trees
    /// it rebuilt, every other slot is an `Arc` bump instead of a deep
    /// `PlannedTree` clone.
    trees: Vec<Arc<PlannedTree>>,
    /// Node and collector budgets left after every tree's usage.
    avail: BudgetLedger,
    score: Score,
}

impl SearchState {
    /// The state of `plan`, a plan of `pairs`, under the budgets `caps`.
    pub(crate) fn from_plan(plan: &MonitoringPlan, pairs: &PairSet, caps: &CapacityMap) -> Self {
        let mut avail = BudgetLedger::new(pairs, caps);
        for t in plan.trees() {
            avail.charge(t);
        }
        SearchState {
            partition: plan.partition().clone(),
            trees: plan.trees().iter().cloned().map(Arc::new).collect(),
            avail,
            score: Score::of(plan.trees()),
        }
    }

    pub(crate) fn partition(&self) -> &Partition {
        &self.partition
    }

    pub(crate) fn trees(&self) -> &[Arc<PlannedTree>] {
        &self.trees
    }

    pub(crate) fn score(&self) -> Score {
        self.score
    }

    pub(crate) fn into_plan(self) -> MonitoringPlan {
        plan_of(self.partition, self.trees)
    }

    /// A digest of this state and of the two counters (`also`) the next
    /// round depends on besides it. Equal states have equal digests; an
    /// equal digest proves nothing.
    fn fingerprint(&self, also: (usize, usize)) -> u64 {
        let mut h = DefaultHasher::new();
        (also, self.partition.sets(), self.score.pairs).hash(&mut h);
        self.avail
            .dense()
            .iter()
            .for_each(|b| b.to_bits().hash(&mut h));
        h.finish()
    }

    /// Evaluates one candidate op *without materializing* the resulting
    /// state: only the op's new trees are built (smaller-first, against
    /// a copy-on-write budget overlay), unaffected trees are referenced
    /// in place, and the score is the incremental gain delta — subtract
    /// the affected trees' costs, add the rebuilt ones' — so candidate
    /// cost does not scale with the partition size. `None` when `op`
    /// does not apply to the partition.
    pub(crate) fn eval(
        &self,
        op: PartitionOp,
        ctx: &EvalContext<'_>,
        cache: Option<&TreeCache>,
    ) -> Option<CandidateEval> {
        self.eval_reaching(op, ctx, cache, 0)
            .map(|ev| ev.unwrap_or_else(|Cut| unreachable!("nothing is below a floor of 0")))
    }

    /// [`eval`](Self::eval) for a caller that rejects any candidate
    /// collecting fewer than `need` pairs: `Err(Cut)` as soon as the
    /// kept trees, the trees rebuilt so far and a bound on each tree
    /// still to build cannot reach `need` — the trees built so far
    /// count, the next one is bounded by its [`crate::build::pair_cap`]
    /// and the one after it by its demand.
    pub(crate) fn eval_reaching(
        &self,
        op: PartitionOp,
        ctx: &EvalContext<'_>,
        cache: Option<&TreeCache>,
        need: usize,
    ) -> Option<Result<CandidateEval, Cut>> {
        let (partition, trees) = (&self.partition, &self.trees);
        // Applicability, mirroring `Partition::apply`'s error cases
        // without cloning the partition.
        let len = partition.len();
        let affected_old = match op {
            PartitionOp::Merge(i, j) => {
                if i == j || i >= len || j >= len {
                    return None;
                }
                vec![i, j]
            }
            PartitionOp::Split(i, attr) => {
                let set = partition.sets().get(i)?;
                if set.len() <= 1 || !set.contains(&attr) {
                    return None;
                }
                vec![i]
            }
        };

        // Free the affected trees' capacity onto the overlay.
        let mut view = BudgetOverlay::new(&self.avail);
        for &k in &affected_old {
            view.free(&trees[k]);
        }

        // The op's result sets, keyed by their new-partition index.
        let new_sets: Vec<(usize, AttrSet)> = match op {
            PartitionOp::Merge(i, j) => {
                let (lo, hi) = (i.min(j), i.max(j));
                let mut merged = partition.sets()[lo].clone();
                merged.extend(partition.sets()[hi].iter().copied());
                vec![(lo, merged)]
            }
            PartitionOp::Split(i, attr) => {
                let mut shrunk = partition.sets()[i].clone();
                shrunk.remove(&attr);
                let mut extracted = AttrSet::new();
                extracted.insert(attr);
                vec![(i, shrunk), (len, extracted)]
            }
        };

        // Build smaller-first (ordered on-demand within the candidate),
        // drawing down the freed residual.
        let idx = ctx.pairs.index();
        let mut order: Vec<usize> = (0..new_sets.len()).collect();
        order.sort_by_key(|&x| idx.participant_count(&new_sets[x].1));
        let kept: usize = self.score.pairs
            - affected_old
                .iter()
                .map(|&k| trees[k].collected_pairs)
                .sum::<usize>();
        // Pairs the rebuilt trees must still collect between them.
        let mut short = need.saturating_sub(kept);
        let mut built: BTreeMap<usize, Arc<PlannedTree>> = BTreeMap::new();
        for (p, &x) in order.iter().enumerate() {
            let (k, set) = &new_sets[x];
            let later: usize = order[p + 1..]
                .iter()
                .flat_map(|&y| &new_sets[y].1)
                .map(|&a| idx.owners(a).len())
                .sum();
            let floor = short.saturating_sub(later);
            let collector = view.collector();
            let Some(t) = build_tree_reaching(set, ctx, &view, collector, cache, floor) else {
                return Some(Err(Cut));
            };
            short = short.saturating_sub(t.collected_pairs);
            view.charge(&t);
            built.insert(*k, Arc::new(t));
        }

        if remo_obs::enabled() {
            delta_eval_counter().inc();
        }
        let mut score = self.score;
        for &k in &affected_old {
            score.pairs -= trees[k].collected_pairs;
            score.volume -= trees[k].message_volume;
        }
        for t in built.values() {
            score.pairs += t.collected_pairs;
            score.volume += t.message_volume;
        }

        Some(Ok(CandidateEval {
            op,
            built,
            touched: view.into_touched(),
            score,
        }))
    }

    /// Steps to the state `ev` describes. `ev` must come from
    /// [`eval`](Self::eval) on this very state.
    pub(crate) fn apply(&mut self, ev: CandidateEval) {
        self.partition
            .apply(ev.op)
            .unwrap_or_else(|e| panic!("op validated by eval: {e}"));
        self.trees = assemble_trees(ev.op, &self.trees, ev.built);
        self.avail.settle(ev.touched);
        self.score = ev.score;
    }

    /// [`apply`](Self::apply) on a copy, for callers that compare
    /// several successors of one state.
    pub(crate) fn applied(&self, ev: CandidateEval) -> SearchState {
        let mut next = self.clone();
        next.apply(ev);
        next
    }
}

fn plan_of(partition: Partition, trees: Vec<Arc<PlannedTree>>) -> MonitoringPlan {
    MonitoringPlan::new(
        partition,
        trees.into_iter().map(Arc::unwrap_or_clone).collect(),
    )
}

/// A candidate [`SearchState::eval_reaching`] stopped building: it
/// could not collect the pairs its caller needs.
#[derive(Debug)]
pub(crate) struct Cut;

/// One evaluated candidate: just the op's newly built trees plus the
/// final budget values of the nodes it touched — everything needed to
/// apply it in place, nothing cloned from the unaffected state.
#[derive(Debug)]
pub(crate) struct CandidateEval {
    op: PartitionOp,
    built: BTreeMap<usize, Arc<PlannedTree>>,
    touched: Touched,
    score: Score,
}

impl CandidateEval {
    /// How many trees the evaluation built: one for a merge, two for a
    /// split.
    pub(crate) fn trees_built(&self) -> usize {
        self.built.len()
    }
}

/// Lays out the post-op tree vector parallel to the post-op partition:
/// merge collapses `hi` into `lo`; split rebuilds `i` and appends the
/// extracted singleton. Unaffected slots are reference bumps, not deep
/// clones — with hundreds of trees in flight this was the dominant
/// per-accepted-op cost.
fn assemble_trees(
    op: PartitionOp,
    trees: &[Arc<PlannedTree>],
    mut built: BTreeMap<usize, Arc<PlannedTree>>,
) -> Vec<Arc<PlannedTree>> {
    let mut new_trees: Vec<Arc<PlannedTree>> = Vec::with_capacity(trees.len() + 1);
    match op {
        PartitionOp::Merge(i, j) => {
            let (lo, hi) = (i.min(j), i.max(j));
            for (k, t) in trees.iter().enumerate() {
                if k == hi {
                    continue;
                }
                if k == lo {
                    new_trees.push(
                        built
                            .remove(&lo)
                            .unwrap_or_else(|| unreachable!("merged tree built")),
                    );
                } else {
                    new_trees.push(Arc::clone(t));
                }
            }
        }
        PartitionOp::Split(i, _) => {
            for (k, t) in trees.iter().enumerate() {
                if k == i {
                    new_trees.push(
                        built
                            .remove(&i)
                            .unwrap_or_else(|| unreachable!("shrunk tree built")),
                    );
                } else {
                    new_trees.push(Arc::clone(t));
                }
            }
            new_trees.push(
                built
                    .remove(&trees.len())
                    .unwrap_or_else(|| unreachable!("extracted tree built")),
            );
        }
    }
    new_trees
}

/// Per-tree slice of an [`EvalBreakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeEval {
    /// Attributes in the tree's set.
    pub attrs: usize,
    /// Nodes actually placed in the tree.
    pub nodes: usize,
    /// Pairs the tree delivers.
    pub collected_pairs: usize,
    /// Pairs the tree's set demands.
    pub demanded_pairs: usize,
    /// Demanded pairs the tree failed to place.
    pub uncovered_pairs: usize,
    /// Per-epoch message volume.
    pub message_volume: f64,
    /// Collector budget consumed by the root message.
    pub collector_usage: f64,
}

/// Structured result of [`Planner::evaluate_partition`]: the plan plus
/// the per-tree cost/coverage decomposition callers used to re-derive
/// by hand, and the evaluation wall time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalBreakdown {
    /// The constructed plan.
    pub plan: MonitoringPlan,
    /// One entry per tree, parallel to `plan.trees()`.
    pub per_tree: Vec<TreeEval>,
    /// Total demanded pairs the plan fails to deliver.
    pub uncovered_pairs: usize,
    /// Wall-clock time of the forest construction.
    pub wall: Duration,
}

impl EvalBreakdown {
    /// Derives the breakdown from a finished plan.
    pub fn from_plan(plan: MonitoringPlan, wall: Duration) -> Self {
        let per_tree: Vec<TreeEval> = plan
            .partition()
            .sets()
            .iter()
            .zip(plan.trees())
            .map(|(set, t)| TreeEval {
                attrs: set.len(),
                nodes: t.len(),
                collected_pairs: t.collected_pairs,
                demanded_pairs: t.demanded_pairs,
                uncovered_pairs: t.demanded_pairs.saturating_sub(t.collected_pairs),
                message_volume: t.message_volume,
                collector_usage: t.collector_usage,
            })
            .collect();
        let uncovered_pairs = per_tree.iter().map(|t| t.uncovered_pairs).sum();
        EvalBreakdown {
            plan,
            per_tree,
            uncovered_pairs,
            wall,
        }
    }

    /// Fraction of demanded pairs delivered.
    pub fn coverage(&self) -> f64 {
        self.plan.coverage()
    }

    /// Consumes the breakdown, yielding the plan.
    pub fn into_plan(self) -> MonitoringPlan {
        self.plan
    }
}

/// Convenience handles for the two baseline schemes of §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionScheme {
    /// One attribute per tree (PIER-style).
    SingletonSet,
    /// One tree for all attributes.
    OneSet,
    /// REMO's partition-augmentation search.
    Remo,
}

impl PartitionScheme {
    /// Plans under this scheme with shared planner settings.
    pub fn plan(
        &self,
        planner: &Planner,
        pairs: &PairSet,
        caps: &CapacityMap,
        cost: CostModel,
        catalog: &AttrCatalog,
    ) -> MonitoringPlan {
        match self {
            PartitionScheme::SingletonSet => planner
                .evaluate_partition(
                    &Partition::singleton(pairs.attr_universe()),
                    pairs,
                    caps,
                    cost,
                    catalog,
                )
                .into_plan(),
            PartitionScheme::OneSet => planner
                .evaluate_partition(
                    &Partition::one_set(pairs.attr_universe()),
                    pairs,
                    caps,
                    cost,
                    catalog,
                )
                .into_plan(),
            PartitionScheme::Remo => planner.plan_with_catalog(pairs, caps, cost, catalog),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::evaluate::EvalContext;
    use crate::ids::NodeId;

    fn dense_pairs(nodes: u32, attrs: u32) -> PairSet {
        (0..nodes)
            .flat_map(|n| (0..attrs).map(move |a| (NodeId(n), AttrId(a))))
            .collect()
    }

    fn setup(nodes: usize, budget: f64, collector: f64) -> (CapacityMap, CostModel, AttrCatalog) {
        (
            CapacityMap::uniform(nodes, budget, collector).unwrap(),
            CostModel::new(2.0, 1.0).unwrap(),
            AttrCatalog::new(),
        )
    }

    #[test]
    fn plan_on_empty_pairs_is_empty() {
        let (caps, cost, _) = setup(4, 10.0, 100.0);
        let plan = Planner::default().plan(&PairSet::new(), &caps, cost);
        assert_eq!(plan.collected_pairs(), 0);
        assert_eq!(plan.trees().len(), 0);
    }

    #[test]
    fn remo_at_least_matches_both_baselines() {
        // A moderately loaded system where neither extreme is optimal.
        let pairs = dense_pairs(12, 4);
        let (caps, cost, catalog) = setup(12, 14.0, 120.0);
        let planner = Planner::default();
        let sp = PartitionScheme::SingletonSet
            .plan(&planner, &pairs, &caps, cost, &catalog)
            .collected_pairs();
        let op = PartitionScheme::OneSet
            .plan(&planner, &pairs, &caps, cost, &catalog)
            .collected_pairs();
        let remo = PartitionScheme::Remo
            .plan(&planner, &pairs, &caps, cost, &catalog)
            .collected_pairs();
        assert!(remo >= sp.max(op), "remo {remo} vs sp {sp}, op {op}");
    }

    #[test]
    fn search_merges_overlapping_singletons() {
        // Plenty of capacity: merging everything into few trees is
        // strictly better on message volume.
        let pairs = dense_pairs(8, 3);
        let (caps, cost, catalog) = setup(8, 100.0, 1000.0);
        let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
        assert!(
            plan.partition().len() < 3,
            "expected merges, got {} sets",
            plan.partition().len()
        );
        assert_eq!(plan.coverage(), 1.0);
    }

    #[test]
    fn plan_respects_capacities() {
        let pairs = dense_pairs(15, 5);
        let (caps, cost, catalog) = setup(15, 12.0, 80.0);
        let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
        for (n, u) in plan.node_usage() {
            assert!(u <= caps.node(n).unwrap() + 1e-6, "node {n} over budget");
        }
        assert!(plan.collector_usage() <= caps.collector() + 1e-6);
        assert!(plan.partition().is_valid());
    }

    #[test]
    fn forbidden_pairs_never_share_a_tree() {
        let pairs = dense_pairs(10, 4);
        let (caps, cost, catalog) = setup(10, 100.0, 1000.0);
        let cfg = PlannerConfig {
            forbidden_pairs: vec![(AttrId(0), AttrId(1))],
            ..PlannerConfig::default()
        };
        let plan = Planner::new(cfg).plan_with_catalog(&pairs, &caps, cost, &catalog);
        for set in plan.partition().sets() {
            assert!(
                !(set.contains(&AttrId(0)) && set.contains(&AttrId(1))),
                "forbidden pair co-located in {set:?}"
            );
        }
    }

    #[test]
    fn one_set_initial_with_splits_relieves_congestion() {
        let pairs = dense_pairs(14, 6);
        let (caps, cost, catalog) = setup(14, 10.0, 60.0);
        let cfg = PlannerConfig {
            initial: InitialPartition::OneSet,
            ..PlannerConfig::default()
        };
        let from_one = Planner::new(cfg).plan_with_catalog(&pairs, &caps, cost, &catalog);
        let baseline = Planner::default()
            .evaluate_partition(
                &Partition::one_set(pairs.attr_universe()),
                &pairs,
                &caps,
                cost,
                &catalog,
            )
            .into_plan()
            .collected_pairs();
        assert!(
            from_one.collected_pairs() >= baseline,
            "search must not be worse than its start"
        );
    }

    #[test]
    fn plan_with_report_counts_search_work() {
        let pairs = dense_pairs(10, 4);
        let (caps, cost, catalog) = setup(10, 14.0, 120.0);
        let (plan, report) = Planner::default().plan_with_report(&pairs, &caps, cost, &catalog);
        assert!(report.seeds_evaluated >= 1);
        assert!(report.rounds >= 1);
        assert!(report.local_evals >= report.local_accepts);
        assert!(report.tolerant_accepts <= report.local_accepts);
        assert!(plan.collected_pairs() > 0);
        // The report-producing path returns the same plan.
        let direct = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
        assert_eq!(plan.collected_pairs(), direct.collected_pairs());
        assert_eq!(plan.partition(), direct.partition());
    }

    #[test]
    fn config_json_missing_fields_take_the_struct_defaults() {
        let json = |cfg: &PlannerConfig| serde_json::to_string(cfg).unwrap();
        let default = json(&PlannerConfig::default());
        let empty: PlannerConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(json(&empty), default);

        // A parent-commit document minus the two mechanical knobs: the
        // retired `full_recompute` key is ignored, `cache` comes back on.
        let legacy = default
            .replace(",\"parallelism\":0", "")
            .replace(",\"cache\":true", ",\"full_recompute\":false");
        assert!(!legacy.contains("parallelism") && !legacy.contains("cache"));
        let parsed: PlannerConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(json(&parsed), default);

        // A document that still carries the three search knobs that are
        // constants now: their keys are ignored like any unknown key.
        let knobs = default.replace(
            "\"max_rounds\":128",
            "\"candidates_per_round\":4,\"max_rounds\":128,\"global_evals\":2,\"global_candidates\":1",
        );
        assert!(knobs.contains("\"global_candidates\":1"), "{knobs}");
        let parsed: PlannerConfig = serde_json::from_str(&knobs).unwrap();
        assert_eq!(json(&parsed), default);

        // Present fields still win over the defaults.
        let set: PlannerConfig =
            serde_json::from_str(r#"{"parallelism":3,"cache":false,"max_rounds":7}"#).unwrap();
        assert_eq!((set.parallelism, set.cache, set.max_rounds), (3, false, 7));
        assert!(serde_json::from_str::<PlannerConfig>("[]").is_err());
    }

    use proptest::prelude::*;

    /// The scoring oracle: re-fold the whole post-op tree vector.
    fn full_recompute(state: &SearchState, ev: &CandidateEval) -> Score {
        Score::of(&assemble_trees(ev.op, &state.trees, ev.built.clone()))
    }

    proptest! {
        /// The delta-scoring invariant: for any candidate op against
        /// any reachable search state, the incremental score (base
        /// minus affected old trees plus rebuilt trees) is **bit-for-
        /// bit** equal to the full re-fold over the whole tree vector.
        /// The workload keeps loads and costs integer-valued, so both
        /// summation orders are exact — any disagreement is a
        /// bookkeeping bug in the delta path, not float noise.
        ///
        /// Along the same trajectory, stepping in place (`apply`) and
        /// stepping by copy (`applied`) stay the same state, and that
        /// state's budgets and score are the ones `from_plan` derives
        /// from scratch.
        #[test]
        fn delta_scores_match_full_recompute_over_op_sequences(
            raw in prop::collection::vec((0u32..7, 0u32..10), 1..60),
            seq in prop::collection::vec((0u8..2, 0u8..64, 0u8..64), 1..12),
            per_node in 8.0f64..50.0,
            collector in 50.0f64..400.0,
        ) {
            let pairs: PairSet = raw
                .iter()
                .map(|&(n, a)| (NodeId(n), AttrId(a)))
                .collect();
            let caps = CapacityMap::uniform(7, per_node, collector).unwrap();
            let cost = CostModel::new(2.0, 1.0).unwrap();
            let catalog = AttrCatalog::new();
            let ctx = crate::evaluate::EvalContext::basic(&pairs, &caps, cost, &catalog);

            let start = crate::evaluate::build_forest(
                &Partition::singleton(pairs.attr_universe()),
                &ctx,
            );
            let mut state = SearchState::from_plan(&start, &pairs, &caps);
            let mut copied = state.clone();

            for (m, x, y) in seq {
                let is_merge = m == 1;
                let k = state.partition.len();
                let op = if is_merge && k >= 2 {
                    let (i, j) = ((x as usize) % k, (y as usize) % k);
                    if i == j {
                        continue;
                    }
                    PartitionOp::Merge(i.min(j), i.max(j))
                } else {
                    let i = (x as usize) % k;
                    let set = &state.partition.sets()[i];
                    if set.len() < 2 {
                        continue;
                    }
                    let attr = *set
                        .iter()
                        .nth((y as usize) % set.len())
                        .unwrap();
                    PartitionOp::Split(i, attr)
                };

                // Every op generated above applies to the partition.
                let ev = state.eval(op, &ctx, None).unwrap();
                let full = full_recompute(&state, &ev);
                prop_assert_eq!(ev.score.pairs, full.pairs, "pairs diverged on {:?}", op);
                prop_assert_eq!(
                    ev.score.volume.to_bits(),
                    full.volume.to_bits(),
                    "volume diverged on {:?}: delta {} vs recompute {}",
                    op,
                    ev.score.volume,
                    full.volume
                );

                // Advance the state through the op (accepted or not —
                // the invariants must hold along arbitrary trajectories,
                // not just improving ones).
                copied = copied.applied(copied.eval(op, &ctx, None).unwrap());
                state.apply(ev);
                let plan = state.clone().into_plan();
                prop_assert_eq!(
                    serde_json::to_string(&plan).unwrap(),
                    serde_json::to_string(&copied.clone().into_plan()).unwrap()
                );
                prop_assert_eq!(&state.avail, &copied.avail);
                prop_assert_eq!(state.avail.collector().to_bits(), copied.avail.collector().to_bits());
                prop_assert_eq!(state.score, copied.score);

                let fresh = SearchState::from_plan(&plan, &pairs, &caps);
                prop_assert_eq!(&state.avail, &fresh.avail, "budgets drifted on {:?}", op);
                prop_assert_eq!(state.avail.collector(), fresh.avail.collector());
                prop_assert_eq!(state.score, fresh.score);
            }
        }
    }

    fn json(plan: &MonitoringPlan) -> String {
        serde_json::to_string(plan).unwrap()
    }

    /// Seeded sparse ownership: each cell of a `nodes` x `attrs` grid
    /// is demanded with probability `density`.
    fn sparse_pairs(seed: u64, nodes: u32, attrs: u32, density: f64) -> PairSet {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..nodes)
            .flat_map(|n| (0..attrs).map(move |a| (NodeId(n), AttrId(a))))
            .filter(|_| rng.gen_bool(density))
            .collect()
    }

    /// The oracle seed borrowing and lap skipping must be invisible
    /// against: every seed forest built from scratch and compared as
    /// `plan_with_report_cached` compares them, then every round up to
    /// `max_rounds` run (`skip_laps` off).
    fn oracle(
        planner: &Planner,
        pairs: &PairSet,
        caps: &CapacityMap,
        cost: CostModel,
    ) -> (MonitoringPlan, PlanReport) {
        let catalog = AttrCatalog::new();
        let ctx = planner.eval_context(pairs, caps, cost, &catalog);
        let mut seeds = vec![planner.initial_partition(pairs)];
        if planner.config.forbidden_pairs.is_empty() {
            seeds.extend(planner.balanced_seeds(pairs, caps, cost));
        }
        let mut report = PlanReport {
            seeds_evaluated: seeds.len(),
            ..PlanReport::default()
        };
        let mut best: Option<MonitoringPlan> = None;
        for seed in &seeds {
            let plan = build_forest(seed, &ctx);
            let better = best.as_ref().is_none_or(|b| {
                plan.collected_pairs() > b.collected_pairs()
                    || (plan.collected_pairs() == b.collected_pairs()
                        && plan.message_volume() < b.message_volume())
            });
            if better {
                best = Some(plan);
            }
        }
        let plan = planner.refine_with_report(&best.unwrap(), &ctx, &mut report, None, false);
        (plan, report)
    }

    /// Plans with `config` and with the oracle and checks the
    /// optimisations changed nothing but the work done; returns the
    /// planner's report.
    fn assert_matches_oracle(
        config: PlannerConfig,
        pairs: &PairSet,
        caps: &CapacityMap,
        cost: CostModel,
    ) -> PlanReport {
        let planner = Planner::new(config);
        let what = format!("{:?}", planner.config);
        let (plan, report) = planner.plan_with_report(pairs, caps, cost, &AttrCatalog::new());
        let (expected, full) = oracle(&planner, pairs, caps, cost);
        assert_eq!(json(&plan), json(&expected), "plan diverged: {what}");
        // Every logical round is either run or skipped ...
        assert_eq!(report.rounds + report.rounds_skipped, full.rounds, "{what}");
        assert!(report.seeds_evaluated <= full.seeds_evaluated, "{what}");
        // The initial seed sets the floor; it is never abandoned itself.
        assert!(report.seeds_abandoned < report.seeds_evaluated, "{what}");
        // ... and the rounds that ran are the oracle's first ones.
        assert!(report.local_evals <= full.local_evals, "{what}");
        assert!(report.local_accepts <= full.local_accepts, "{what}");
        assert_eq!(report.global_evals, full.global_evals, "{what}");
        match report.stop {
            StopReason::Cycle { period } => {
                assert!(report.rounds < planner.config.max_rounds, "{what}");
                assert!(period > 0 && report.rounds_skipped % period == 0, "{what}");
                assert_eq!(full.stop, StopReason::RoundCap, "{what}");
            }
            stop => {
                assert_eq!(stop, full.stop, "{what}");
                assert_eq!(report.rounds_skipped, 0, "{what}");
            }
        }
        report
    }

    /// A shape whose default search converges and one whose default
    /// search walks a plateau in a circle (period 2).
    fn feasible_and_starved() -> [(PairSet, CapacityMap); 2] {
        [
            (
                sparse_pairs(1, 13, 7, 0.7),
                CapacityMap::uniform(13, 12.0, 53.0).unwrap(),
            ),
            (
                sparse_pairs(4, 18, 7, 0.9),
                CapacityMap::uniform(18, 6.0, 19.0).unwrap(),
            ),
        ]
    }

    /// The optimisation is invisible: over the 32-configuration grid of
    /// `tests/engine_equivalence.rs` and caps chosen to pin the lap
    /// arithmetic (odd and even, below and above the first repeat), the
    /// plan is byte-for-byte the oracle's.
    #[test]
    fn plans_equal_the_plain_capped_search_for_every_cap() {
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let builders = [
            BuilderKind::Star,
            BuilderKind::Chain,
            BuilderKind::MaxAvb,
            BuilderKind::default(),
        ];
        let allocations = [
            AllocationScheme::Uniform,
            AllocationScheme::Proportional,
            AllocationScheme::OnDemand,
            AllocationScheme::Ordered,
        ];
        let mut cycles = [0usize; 2];
        for (shape, (pairs, caps)) in feasible_and_starved().iter().enumerate() {
            for builder in builders {
                for allocation in allocations {
                    for initial in [InitialPartition::Singleton, InitialPartition::OneSet] {
                        for max_rounds in [0, 1, 2, 3, 7, 8, 33, 128, 129] {
                            let config = PlannerConfig {
                                builder,
                                allocation,
                                initial,
                                max_rounds,
                                ..PlannerConfig::default()
                            };
                            let report = assert_matches_oracle(config, pairs, caps, cost);
                            cycles[shape] += usize::from(report.rounds_skipped > 0);
                        }
                    }
                }
            }
        }
        assert!(
            cycles[1] > 0,
            "the starved shape must exercise lap skipping"
        );
    }

    /// The two shapes are what their names say under the default
    /// configuration, and the report says why each search ended.
    #[test]
    fn report_says_why_the_search_stopped() {
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let [feasible, starved] = feasible_and_starved();
        let run = |(pairs, caps): &(PairSet, CapacityMap), max_rounds| {
            let config = PlannerConfig {
                max_rounds,
                ..PlannerConfig::default()
            };
            assert_matches_oracle(config, pairs, caps, cost)
        };
        let report = run(&feasible, 128);
        assert_eq!(report.stop, StopReason::Converged);
        assert_eq!(report.rounds_skipped, 0);

        let report = run(&starved, 128);
        assert_eq!(report.stop, StopReason::Cycle { period: 2 });
        assert_eq!(report.rounds + report.rounds_skipped, 128);
        assert!(report.rounds <= 16, "{report:?}");
        // Raising the cap by whole laps buys skipped rounds, not
        // executed ones, and the same plan (no oracle: it would run them).
        let plan = |max_rounds| {
            let config = PlannerConfig {
                max_rounds,
                ..PlannerConfig::default()
            };
            Planner::new(config).plan_with_report(&starved.0, &starved.1, cost, &AttrCatalog::new())
        };
        let (short, long) = (plan(128), plan(100_000));
        assert_eq!(json(&short.0), json(&long.0));
        assert_eq!(long.1.stop, report.stop);
        assert_eq!(long.1.rounds, report.rounds);
        assert_eq!(long.1.rounds + long.1.rounds_skipped, 100_000);

        // Too short to repeat: the cap is what stopped it.
        let report = run(&starved, 3);
        assert_eq!(report.stop, StopReason::RoundCap);
        assert_eq!((report.rounds, report.rounds_skipped), (3, 0));
        assert_eq!(run(&starved, 0).stop, StopReason::RoundCap);
    }

    /// Reports written before `stop` and `rounds_skipped` existed parse.
    #[test]
    fn report_json_without_stop_fields_parses() {
        let report = PlanReport {
            rounds: 6,
            rounds_skipped: 122,
            stop: StopReason::Cycle { period: 2 },
            ..PlanReport::default()
        };
        let text = serde_json::to_string(&report).unwrap();
        assert_eq!(serde_json::from_str::<PlanReport>(&text).unwrap(), report);
        let old = text
            .replace(",\"rounds_skipped\":122", "")
            .replace(",\"stop\":{\"Cycle\":{\"period\":2}}", "");
        assert!(!old.contains("stop") && !old.contains("skipped"), "{old}");
        let parsed: PlanReport = serde_json::from_str(&old).unwrap();
        assert_eq!((parsed.rounds, parsed.rounds_skipped), (6, 0));
        assert_eq!(parsed.stop, StopReason::Converged);
    }

    /// The rule rejected on evidence — stop when the *unordered*
    /// partition and the score repeat — fires on a state the search has
    /// not been in: a merge and the split that undoes it return the same
    /// sets, trees, budgets and score in a different set order, and set
    /// order decides rank ties. Neither the digest nor the deep compare
    /// may take the two for the same state.
    #[test]
    fn permuted_partition_with_equal_score_is_a_different_state() {
        let pairs = dense_pairs(6, 3);
        let (caps, cost, catalog) = setup(6, 100.0, 1000.0);
        let ctx = EvalContext::basic(&pairs, &caps, cost, &catalog);
        let start = build_forest(&Partition::singleton(pairs.attr_universe()), &ctx);
        let before = SearchState::from_plan(&start, &pairs, &caps);
        let merged = before.applied(before.eval(PartitionOp::Merge(0, 1), &ctx, None).unwrap());
        let split = PartitionOp::Split(0, AttrId(0));
        let after = merged.applied(merged.eval(split, &ctx, None).unwrap());

        let unordered = |s: &SearchState| -> std::collections::BTreeSet<AttrSet> {
            s.partition.sets().iter().cloned().collect()
        };
        assert_eq!(unordered(&before), unordered(&after));
        assert_eq!(before.score, after.score);
        assert_eq!(before.avail, after.avail);
        assert_ne!(before.partition, after.partition, "set order differs");

        assert_ne!(before, after);
        assert_ne!(before.fingerprint((0, 0)), after.fingerprint((0, 0)));
        // The same state does compare and digest equal, whatever path
        // produced it, and the two extra counters are part of the digest.
        let again = SearchState::from_plan(&before.clone().into_plan(), &pairs, &caps);
        assert_eq!(before, again);
        assert_eq!(before.fingerprint((7, 1)), again.fingerprint((7, 1)));
        assert_ne!(before.fingerprint((7, 1)), before.fingerprint((7, 0)));
    }

    /// A seed forest is built once: a seed whose construction sequence
    /// repeats an earlier seed's borrows that forest, and the chosen
    /// start — hence the plan — is the one building every seed gives.
    #[test]
    fn duplicate_seed_forests_are_built_once() {
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let [feasible, (pairs, caps)] = feasible_and_starved();
        let seeds_built = |config: PlannerConfig, pairs: &PairSet, caps: &CapacityMap| {
            let planner = Planner::new(config.clone());
            let listed = 1 + planner.balanced_seeds(pairs, caps, cost).len();
            let built = assert_matches_oracle(config, pairs, caps, cost).seeds_evaluated;
            (built, listed)
        };

        // Starved: the payload that fits a root is below one value per
        // attribute, so the one balanced seed is the singleton
        // partition again, in weight order. Ordered allocation builds
        // both smallest-first, ties by attribute id: the same sequence.
        let weights: Vec<usize> = pairs
            .attrs()
            .map(|a| pairs.nodes_of(a).map_or(0, |n| n.len()))
            .collect();
        assert!(
            weights.windows(2).any(|w| w[0] < w[1]),
            "weight order must differ from id order: {weights:?}"
        );
        let ordered = PlannerConfig::default();
        assert_eq!(seeds_built(ordered, &pairs, &caps), (1, 2));
        // On-demand allocation builds in partition order, so the
        // permuted duplicate is a different sequence and is kept ...
        let on_demand = PlannerConfig {
            allocation: AllocationScheme::OnDemand,
            ..PlannerConfig::default()
        };
        assert_eq!(seeds_built(on_demand, &pairs, &caps), (2, 2));
        // ... and a static scheme's budgets depend on the whole
        // partition, so nothing is ever borrowed.
        let uniform = PlannerConfig {
            allocation: AllocationScheme::Uniform,
            ..PlannerConfig::default()
        };
        assert_eq!(seeds_built(uniform, &pairs, &caps), (2, 2));

        // Ample capacity: a one-set start is the k = 1 balanced seed.
        let (pairs, caps) = (
            dense_pairs(8, 4),
            CapacityMap::uniform(8, 100.0, 1e3).unwrap(),
        );
        let one_set = PlannerConfig {
            initial: InitialPartition::OneSet,
            ..PlannerConfig::default()
        };
        assert_eq!(seeds_built(one_set, &pairs, &caps), (3, 4));
        // Distinct seeds are all still built.
        let (built, listed) = seeds_built(PlannerConfig::default(), &feasible.0, &feasible.1);
        assert!((2..=listed).contains(&built), "{built} of {listed}");
    }

    /// Racing the seeds against the initial seed's pair count and
    /// scanning the global candidates in rank order change neither the
    /// plan nor what the report counts, for every allocation scheme —
    /// where a balanced seed out-collects the initial one, where one
    /// only ties it and wins on volume, and where one is cut.
    #[test]
    fn seed_race_and_global_waves_are_invisible_for_every_worker_count() {
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let [sparse, _] = feasible_and_starved();
        let dense = (
            dense_pairs(12, 6),
            CapacityMap::uniform(12, 100.0, 1e3).unwrap(),
        );
        let allocations = [
            AllocationScheme::Uniform,
            AllocationScheme::Proportional,
            AllocationScheme::OnDemand,
            AllocationScheme::Ordered,
        ];
        // Every seed forest built to the end, initial seed first.
        let seed_scores = |allocation, (pairs, caps): &(PairSet, CapacityMap)| -> Vec<Score> {
            let planner = Planner::new(PlannerConfig {
                allocation,
                ..PlannerConfig::default()
            });
            let catalog = AttrCatalog::new();
            let ctx = planner.eval_context(pairs, caps, cost, &catalog);
            let mut seeds = vec![planner.initial_partition(pairs)];
            seeds.extend(planner.balanced_seeds(pairs, caps, cost));
            let score = |seed| Score::of(build_forest(seed, &ctx).trees());
            seeds.iter().map(score).collect()
        };
        let mut abandoned = Vec::new();
        let mut cut = Vec::new();
        let mut global_evals = 0;
        for shape in [&sparse, &dense] {
            for allocation in allocations {
                let config = PlannerConfig {
                    allocation,
                    ..PlannerConfig::default()
                };
                let report = assert_matches_oracle(config, &shape.0, &shape.1, cost);
                abandoned.push(report.seeds_abandoned);
                cut.push(report.candidates_cut);
                global_evals += report.global_evals;
            }
        }
        assert!(global_evals > 0, "no shape reached the global phase");

        // Sparse, ordered allocation: a balanced seed collects more
        // than the initial one and nothing is below the floor.
        let scores = seed_scores(AllocationScheme::Ordered, &sparse);
        assert!(scores[1..].iter().any(|s| s.pairs > scores[0].pairs));
        assert!(scores.iter().all(|s| s.pairs >= scores[0].pairs));
        // Dense, dynamic allocation: one balanced seed falls short and
        // is cut, two tie the initial seed on pairs and beat it on
        // volume — cutting at `<=` would lose the start the oracle picks.
        let scores = seed_scores(AllocationScheme::Ordered, &dense);
        let below = |s: &&Score| s.pairs < scores[0].pairs;
        let ties = |s: &&Score| s.pairs == scores[0].pairs && s.volume < scores[0].volume;
        assert_eq!(scores[1..].iter().filter(below).count(), 1, "{scores:?}");
        assert_eq!(scores[1..].iter().filter(ties).count(), 2, "{scores:?}");
        assert_eq!(abandoned, [0, 0, 2, 0, 0, 0, 1, 1], "by shape, then scheme");
        assert_eq!(cut, [12, 20, 12, 9, 6, 6, 1, 1], "by shape, then scheme");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Small capacity-starved instances, tight enough that the
        /// default search cycles in most of them: for any cap the plan is
        /// the oracle's, and a reported cycle always saved rounds.
        #[test]
        fn lap_skipping_is_invisible_on_starved_instances(
            seed in 0u64..1_000_000,
            nodes in 8u32..41,
            attrs in 3u32..9,
            density in 0.3f64..1.0,
            per_node in 4u32..10,
            collector in 10u32..60,
            max_rounds in 0usize..140,
        ) {
            let pairs = sparse_pairs(seed, nodes, attrs, density);
            let caps =
                CapacityMap::uniform(nodes as usize, f64::from(per_node), f64::from(collector))
                    .unwrap();
            let cost = CostModel::new(2.0, 1.0).unwrap();
            let config = PlannerConfig { max_rounds, ..PlannerConfig::default() };
            let report = assert_matches_oracle(config, &pairs, &caps, cost);
            if let StopReason::Cycle { .. } = report.stop {
                prop_assert!(report.rounds < max_rounds);
            }
        }
    }

    /// `need` is the fewest pairs `accepts` takes: below it every
    /// volume is rejected, at it some lower volume is accepted — where
    /// the plateau tolerance binds, where the drift from the best state
    /// does, and where neither reaches below the state.
    #[test]
    fn need_is_the_fewest_pairs_a_candidate_is_accepted_with() {
        let score = |pairs, volume| Score { pairs, volume };
        let mut tolerant = 0;
        for demanded in [0, 400, 1_000, 5_000] {
            let rule = Acceptance::of(demanded);
            for pairs in [0, 1, 5, 60, 300, 1_000] {
                for ahead in [0, 3, 9, 30, 200] {
                    let (state, best) = (score(pairs, 500.0), pairs + ahead);
                    let need = rule.need(best, &state);
                    let cheaper = score(need, state.volume - 1.0);
                    assert!(
                        rule.accepts(&cheaper, best, &state).1,
                        "{rule:?} {state:?} {best}"
                    );
                    if need > 0 {
                        let short = score(need - 1, f64::NEG_INFINITY);
                        assert!(
                            !rule.accepts(&short, best, &state).1,
                            "{rule:?} {state:?} {best}"
                        );
                    }
                    tolerant += usize::from(need < pairs);
                }
            }
        }
        assert!(tolerant > 0, "no state let a tolerant move lose pairs");
    }

    /// On every state the search walks from the feasible and the starved
    /// shapes' singleton starts, each candidate of the window that
    /// `eval_reaching` cuts is rejected when fully evaluated, and each
    /// it does not cut scores what the full evaluation scores.
    #[test]
    fn the_window_cuts_only_candidates_it_would_reject() {
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let planner = Planner::default();
        let catalog = AttrCatalog::new();
        let mut cuts = [0; 2];
        for (shape, (pairs, caps)) in feasible_and_starved().iter().enumerate() {
            let ctx = planner.eval_context(pairs, caps, cost, &catalog);
            let start = build_forest(&planner.initial_partition(pairs), &ctx);
            let mut state = SearchState::from_plan(&start, pairs, caps);
            let rule = Acceptance::of(start.demanded_pairs());
            let mut best = state.score.pairs;
            let max_budget = caps.iter().map(|(_, b)| b).fold(0.0f64, f64::max);
            let estimator = GainEstimator::with_capacity(pairs, cost, max_budget);
            for _ in 0..24 {
                let need = rule.need(best, &state.score);
                let ranked = estimator.rank_ops_trees(&state.partition, &state.trees);
                let mut accepted = None;
                for &(op, _) in ranked.iter().take(CANDIDATES_PER_ROUND) {
                    let full = state.eval(op, &ctx, None).unwrap();
                    let (_, ok) = rule.accepts(&full.score, best, &state.score);
                    match state.eval_reaching(op, &ctx, None, need).unwrap() {
                        Ok(ev) => assert_eq!(ev.score, full.score, "{op:?}"),
                        Err(Cut) => {
                            assert!(!ok, "{op:?} was cut but scores {:?}", full.score);
                            cuts[shape] += 1;
                        }
                    }
                    if ok && accepted.is_none() {
                        accepted = Some(full);
                    }
                }
                let Some(ev) = accepted else { break };
                state.apply(ev);
                best = best.max(state.score.pairs);
            }
        }
        // Starved budgets leave every tree's cap above what the window
        // needs; the feasible shape cuts.
        assert!(cuts[0] > 0, "cuts by shape: {cuts:?}");
    }

    #[test]
    fn score_ordering() {
        let a = Score {
            pairs: 5,
            volume: 10.0,
        };
        let b = Score {
            pairs: 5,
            volume: 12.0,
        };
        let c = Score {
            pairs: 6,
            volume: 99.0,
        };
        assert!(a.better_than(&b));
        assert!(!b.better_than(&a));
        assert!(c.better_than(&a));
        assert!(!a.better_than(&a));
    }
}
