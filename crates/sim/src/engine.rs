//! The evaluation substrate: seeded ground truth over the real agents.
//!
//! Replaces the paper's BlueGene/P + System S testbed with a
//! deterministic, seeded run of the deployed system itself. A
//! [`Simulator`] owns a [`Deployment`] on the loss-free in-process
//! transport and supplies what the testbed supplied: the values the
//! nodes observe (seeded [`ValueProcess`]es the agents sample) and the
//! comparison of the collector's snapshot against them. Everything the
//! cost model is about happens in `remo-runtime` (paper §2.3, §3.3):
//!
//! - datacenter-like network: any two endpoints communicate at equal
//!   cost; only endpoint CPU matters;
//! - a message with `x` values costs `C + a·x` at the sender *and* at
//!   the receiver, charged against each node's per-epoch budget;
//! - store-and-forward with one hop per epoch: a value produced at
//!   depth `d` is stamped received `d + 1` epochs later — the
//!   latency-staleness that drives the Fig. 8 percentage-error metric;
//! - a node over budget drops traffic (receive side: whole messages;
//!   send side: oldest readings first), which is how overload turns
//!   into observation error.

use crate::collector::{fresh_fraction, mean_error};
use crate::metrics::{EpochStats, SimMetrics};
use crate::values::{ValueModel, ValueProcess};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use remo_core::{AttrCatalog, AttrId, CapacityMap, CostModel, MonitoringPlan, NodeId, PairSet};
use remo_runtime::failure::FailureSchedule;
use remo_runtime::{CollectorCore, Deployment, Sampler};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Simulator tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// RNG seed (all stochasticity is seeded and reproducible).
    pub seed: u64,
    /// Value process assigned to every pair unless overridden.
    pub default_model: ValueModel,
    /// Per-pair relative error cap (default 1.0 = 100%).
    pub error_cap: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 7,
            default_model: ValueModel::default(),
            error_cap: 1.0,
        }
    }
}

/// Everything needed to instantiate a [`Simulator`].
#[derive(Debug, Clone)]
pub struct SimSetup<'a> {
    /// The monitoring plan to deploy.
    pub plan: &'a MonitoringPlan,
    /// The pair set the plan was built from (after any reliability
    /// rewriting).
    pub planned_pairs: &'a PairSet,
    /// The pairs error metrics are computed over (pre-rewrite
    /// originals); `None` uses `planned_pairs`.
    pub metric_pairs: Option<&'a PairSet>,
    /// Node and collector budgets.
    pub caps: &'a CapacityMap,
    /// Message cost model.
    pub cost: CostModel,
    /// Attribute metadata (aggregation, frequency).
    pub catalog: &'a AttrCatalog,
    /// Alias → original map from reliability rewriting (empty when
    /// unused).
    pub aliases: BTreeMap<AttrId, AttrId>,
    /// Tuning knobs.
    pub config: SimConfig,
}

/// The ground truth: one value process per pair, shared with the
/// agents' sampler. An alias reads its original's process, so every
/// replica of a pair observes the same value.
#[derive(Debug)]
struct Truth {
    values: BTreeMap<(NodeId, AttrId), ValueProcess>,
    aliases: BTreeMap<AttrId, AttrId>,
}

impl Truth {
    fn key(&self, node: NodeId, attr: AttrId) -> (NodeId, AttrId) {
        (node, self.aliases.get(&attr).copied().unwrap_or(attr))
    }

    /// The value of a pair [`Truth::ensure`] was given.
    fn value(&self, node: NodeId, attr: AttrId) -> f64 {
        self.values[&self.key(node, attr)].value()
    }

    fn ensure(&mut self, pairs: &PairSet, model: ValueModel) {
        for (node, attr) in pairs.iter() {
            let key = self.key(node, attr);
            self.values
                .entry(key)
                .or_insert_with(|| ValueProcess::new(model));
        }
    }
}

fn lock(truth: &Mutex<Truth>) -> MutexGuard<'_, Truth> {
    truth.lock().unwrap_or_else(|e| e.into_inner())
}

/// A deployment stepped against seeded ground truth.
#[derive(Debug)]
pub struct Simulator {
    dep: Deployment,
    /// The deployed plan (what [`Simulator::apply_plan`] diffs against).
    plan: MonitoringPlan,
    cost: CostModel,
    catalog: AttrCatalog,
    config: SimConfig,
    rng: SmallRng,
    truth: Arc<Mutex<Truth>>,
    metric_pairs: PairSet,
    metrics: SimMetrics,
    pending_control_volume: f64,
}

impl Simulator {
    /// Deploys a plan.
    pub fn new(setup: SimSetup<'_>) -> Self {
        let metric_pairs = setup.metric_pairs.unwrap_or(setup.planned_pairs).clone();
        let mut truth = Truth {
            values: BTreeMap::new(),
            aliases: setup.aliases.clone(),
        };
        truth.ensure(setup.planned_pairs, setup.config.default_model);
        truth.ensure(&metric_pairs, setup.config.default_model);
        let truth = Arc::new(Mutex::new(truth));

        let sampler: Sampler = {
            let truth = Arc::clone(&truth);
            Arc::new(move |node, attr, _epoch| lock(&truth).value(node, attr))
        };
        let mut dep = Deployment::launch(
            setup.plan,
            setup.planned_pairs,
            setup.caps,
            setup.cost,
            setup.catalog,
            sampler,
        );
        dep.set_aliases(setup.aliases);

        Simulator {
            dep,
            plan: setup.plan.clone(),
            cost: setup.cost,
            catalog: setup.catalog.clone(),
            config: setup.config,
            rng: SmallRng::seed_from_u64(setup.config.seed),
            truth,
            metric_pairs,
            metrics: SimMetrics::new(),
            pending_control_volume: 0.0,
        }
    }

    /// Current epoch (number of completed steps).
    pub fn epoch(&self) -> u64 {
        self.dep.epoch()
    }

    /// Recorded metrics so far.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// The collector's snapshot store. After step `e` it holds what the
    /// roots sent during `e`, stamped received `e + 1`.
    pub fn collector(&self) -> &CollectorCore {
        self.dep.collector()
    }

    /// Overrides the value process of one pair.
    pub fn set_model(&mut self, node: NodeId, attr: AttrId, model: ValueModel) {
        let mut truth = lock(&self.truth);
        let key = truth.key(node, attr);
        truth.values.insert(key, ValueProcess::new(model));
    }

    /// Marks a node crashed: it neither sends nor receives.
    pub fn fail_node(&mut self, node: NodeId) {
        self.dep.fail_node(node);
    }

    /// Heals a crashed node.
    pub fn heal_node(&mut self, node: NodeId) {
        self.dep.heal_node(node);
    }

    /// Fails the directed link `from → to`.
    pub fn fail_link(&mut self, from: NodeId, to: NodeId) {
        self.dep.set_link_down(from, to, true);
    }

    /// Deploys a new plan (runtime adaptation). Topology changes cost
    /// one control message per changed edge (`M_adapt`, paper §4.2),
    /// reported as the next epoch's control volume. Returns the number
    /// of control messages.
    pub fn apply_plan(&mut self, plan: &MonitoringPlan, pairs: &PairSet) -> usize {
        lock(&self.truth).ensure(pairs, self.config.default_model);
        let control = self.plan.edge_diff(plan);
        self.dep.apply_plan(plan, pairs, &self.catalog);
        self.plan = plan.clone();
        self.pending_control_volume += control as f64 * self.cost.message_cost(1.0);
        control
    }

    /// Advances one epoch; returns that epoch's stats (also recorded in
    /// [`metrics`](Self::metrics)).
    pub fn step(&mut self) -> EpochStats {
        // True values advance, and what the collector holds at the
        // start of the epoch is scored against them.
        let avg_error = {
            let mut truth = lock(&self.truth);
            for process in truth.values.values_mut() {
                process.step(&mut self.rng);
            }
            let now = self
                .metric_pairs
                .iter()
                .map(|(n, a)| ((n, a), truth.value(n, a)));
            mean_error(self.dep.collector(), now, self.config.error_cap)
        };

        let report = self.dep.tick();
        let stats = EpochStats {
            epoch: report.epoch,
            delivered_values: report.delivered_values,
            dropped_messages: report.dropped_messages,
            dropped_readings: report.dropped_readings,
            avg_error,
            error_cap: self.config.error_cap,
            monitoring_volume: report.volume,
            control_volume: std::mem::take(&mut self.pending_control_volume),
        };
        stats.export_metrics();
        self.metrics.push(stats);
        stats
    }

    /// Runs `epochs` steps.
    pub fn run(&mut self, epochs: u64) {
        for _ in 0..epochs {
            self.step();
        }
    }

    /// Runs `epochs` steps under `schedule`: before each one the
    /// schedule's state for the upcoming epoch is applied to the
    /// deployment ([`FailureSchedule::apply`]).
    pub fn run_schedule(&mut self, schedule: &FailureSchedule, epochs: u64) {
        for _ in 0..epochs {
            schedule.apply(&mut self.dep);
            self.step();
        }
    }

    /// Fraction of metric pairs with a snapshot received within
    /// `window` epochs of now.
    pub fn fresh_fraction(&self, window: u64) -> f64 {
        fresh_fraction(
            self.dep.collector(),
            self.metric_pairs.iter(),
            self.epoch(),
            window,
        )
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use remo_core::planner::Planner;

    fn dense_pairs(nodes: u32, attrs: u32) -> PairSet {
        (0..nodes)
            .flat_map(|n| (0..attrs).map(move |a| (NodeId(n), AttrId(a))))
            .collect()
    }

    fn setup_sim(nodes: usize, attrs: u32, budget: f64) -> (Simulator, PairSet) {
        let caps = CapacityMap::uniform(nodes, budget, 1_000.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let pairs = dense_pairs(nodes as u32, attrs);
        let catalog = AttrCatalog::new();
        let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
        let sim = Simulator::new(SimSetup {
            plan: &plan,
            planned_pairs: &pairs,
            metric_pairs: None,
            caps: &caps,
            cost,
            catalog: &catalog,
            aliases: BTreeMap::new(),
            config: SimConfig::default(),
        });
        (sim, pairs)
    }

    #[test]
    fn values_flow_to_collector() {
        let (mut sim, pairs) = setup_sim(8, 2, 50.0);
        sim.run(10);
        assert!(sim.metrics().total_delivered() > 0);
        // Every pair should eventually land.
        assert_eq!(sim.collector().observed_pairs(), pairs.len());
    }

    #[test]
    fn error_decreases_after_warmup() {
        let (mut sim, _) = setup_sim(8, 2, 50.0);
        let first = sim.step().avg_error;
        sim.run(15);
        let late = sim.metrics().epochs().last().unwrap().avg_error;
        assert!(late < first, "late {late} vs first {first}");
    }

    #[test]
    fn constant_values_reach_zero_error() {
        let caps = CapacityMap::uniform(5, 50.0, 500.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let pairs = dense_pairs(5, 1);
        let catalog = AttrCatalog::new();
        let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
        let mut sim = Simulator::new(SimSetup {
            plan: &plan,
            planned_pairs: &pairs,
            metric_pairs: None,
            caps: &caps,
            cost,
            catalog: &catalog,
            aliases: BTreeMap::new(),
            config: SimConfig {
                default_model: ValueModel::Constant(42.0),
                ..SimConfig::default()
            },
        });
        sim.run(10);
        assert_eq!(sim.metrics().epochs().last().unwrap().avg_error, 0.0);
    }

    #[test]
    fn failed_node_blocks_its_subtree() {
        let (mut sim, _) = setup_sim(8, 1, 50.0);
        sim.run(5);
        let baseline = sim.metrics().epochs().last().unwrap().avg_error;
        // Fail the tree root: nothing reaches the collector anymore.
        let root_delivery_before = sim.metrics().total_delivered();
        for n in 0..8 {
            sim.fail_node(NodeId(n));
        }
        sim.run(10);
        assert_eq!(
            sim.metrics().total_delivered(),
            root_delivery_before,
            "no deliveries while everything is failed"
        );
        let degraded = sim.metrics().epochs().last().unwrap().avg_error;
        assert!(degraded >= baseline);
    }

    #[test]
    fn heal_restores_flow() {
        let (mut sim, _) = setup_sim(6, 1, 50.0);
        for n in 0..6 {
            sim.fail_node(NodeId(n));
        }
        sim.run(3);
        assert_eq!(sim.metrics().total_delivered(), 0);
        for n in 0..6 {
            sim.heal_node(NodeId(n));
        }
        sim.run(5);
        assert!(sim.metrics().total_delivered() > 0);
    }

    #[test]
    fn tight_budgets_cause_drops() {
        // Plan against generous budgets, then simulate on starved nodes
        // (the planner itself never over-commits a node, so drops only
        // appear when reality falls short of the plan's assumptions).
        let plan_caps = CapacityMap::uniform(12, 1_000.0, 10_000.0).unwrap();
        let run_caps = CapacityMap::uniform(12, 7.0, 10_000.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let pairs = dense_pairs(12, 3);
        let catalog = AttrCatalog::new();
        let plan = Planner::default().plan_with_catalog(&pairs, &plan_caps, cost, &catalog);
        let mut sim = Simulator::new(SimSetup {
            plan: &plan,
            planned_pairs: &pairs,
            metric_pairs: None,
            caps: &run_caps,
            cost,
            catalog: &catalog,
            aliases: BTreeMap::new(),
            config: SimConfig::default(),
        });
        sim.run(12);
        assert!(
            sim.metrics().total_dropped_readings() > 0
                || sim.metrics().total_dropped_messages() > 0,
            "overload must manifest as drops"
        );
    }

    #[test]
    fn apply_plan_counts_control_messages() {
        let (mut sim, pairs) = setup_sim(8, 2, 50.0);
        sim.run(3);
        // Re-plan with a different builder to force topology changes.
        let caps = CapacityMap::uniform(8, 50.0, 1_000.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let catalog = AttrCatalog::new();
        let chain_planner = Planner::new(remo_core::planner::PlannerConfig {
            builder: remo_core::build::BuilderKind::Chain,
            ..Default::default()
        });
        let plan2 = chain_planner.plan_with_catalog(&pairs, &caps, cost, &catalog);
        let control = sim.apply_plan(&plan2, &pairs);
        assert!(control > 0, "different topology must cost control messages");
        let stats = sim.step();
        assert!(stats.control_volume > 0.0);
        sim.run(5);
        assert!(sim.metrics().total_delivered() > 0, "flow continues");
    }

    #[test]
    fn identical_plan_is_free() {
        let caps = CapacityMap::uniform(8, 50.0, 1_000.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let pairs = dense_pairs(8, 2);
        let catalog = AttrCatalog::new();
        let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
        let mut sim = Simulator::new(SimSetup {
            plan: &plan,
            planned_pairs: &pairs,
            metric_pairs: None,
            caps: &caps,
            cost,
            catalog: &catalog,
            aliases: BTreeMap::new(),
            config: SimConfig::default(),
        });
        sim.run(2);
        assert_eq!(sim.apply_plan(&plan, &pairs), 0);
    }

    #[test]
    fn frequency_gates_sampling() {
        use remo_core::AttrInfo;
        let mut catalog = AttrCatalog::new();
        let slow = catalog.register(AttrInfo::new("slow").with_frequency(0.25).unwrap());
        let caps = CapacityMap::uniform(3, 50.0, 500.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let pairs: PairSet = (0..3).map(|n| (NodeId(n), slow)).collect();
        let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
        let mut sim = Simulator::new(SimSetup {
            plan: &plan,
            planned_pairs: &pairs,
            metric_pairs: None,
            caps: &caps,
            cost,
            catalog: &catalog,
            aliases: BTreeMap::new(),
            config: SimConfig::default(),
        });
        sim.run(16);
        // At freq 1/4 over 16 epochs, each node samples 4 times; all
        // three nodes' samples arrive (minus pipeline tail).
        let delivered = sim.metrics().total_delivered();
        assert!(
            delivered <= 12,
            "delivered {delivered} exceeds sample budget"
        );
        assert!(delivered >= 6, "delivered {delivered} too low");
    }

    #[test]
    fn aggregation_reduces_traffic() {
        use remo_core::AttrInfo;
        let build = |agg: bool| {
            let mut catalog = AttrCatalog::new();
            let attr = if agg {
                catalog.register(AttrInfo::new("m").with_aggregation(remo_core::Aggregation::Max))
            } else {
                catalog.register(AttrInfo::new("m"))
            };
            let caps = CapacityMap::uniform(8, 50.0, 500.0).unwrap();
            let cost = CostModel::new(2.0, 1.0).unwrap();
            let pairs: PairSet = (0..8).map(|n| (NodeId(n), attr)).collect();
            let planner = Planner::new(remo_core::planner::PlannerConfig {
                aggregation_aware: agg,
                ..Default::default()
            });
            let plan = planner.plan_with_catalog(&pairs, &caps, cost, &catalog);
            let mut sim = Simulator::new(SimSetup {
                plan: &plan,
                planned_pairs: &pairs,
                metric_pairs: None,
                caps: &caps,
                cost,
                catalog: &catalog,
                aliases: BTreeMap::new(),
                config: SimConfig::default(),
            });
            sim.run(10);
            sim.metrics().total_monitoring_volume()
        };
        assert!(build(true) < build(false));
    }
}
