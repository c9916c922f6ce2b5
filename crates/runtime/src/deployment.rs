//! Deployment coordinator: launches agents for a monitoring plan and
//! drives them through lockstep epochs, all on the caller's thread.
//!
//! A tick queues `Tick` on every agent's inbox and then runs the agents
//! to completion: each handles what its inbox holds, round after round,
//! until no inbox has a message. The epoch counter is the only clock. A
//! tick report is therefore either in the queue when the agents have
//! run or it is not coming, and the set of reporters feeds the
//! [`HealthMonitor`] with no deadline to wait out. A deployment
//! launched with [`Deployment::launch_self_healing`] closes the loop:
//! confirmed failures invoke
//! `AdaptivePlanner::handle_node_failure`, the old and repaired plans
//! are diffed, and only agents whose assignments changed receive
//! targeted [`AgentMsg::Reconfigure`] messages, so orphaned subtrees
//! reattach without restarting the deployment.

use crate::agent::{Agent, AgentMsg, LocalAttr, Route, Sampler, TickReport, TreeAssignment};
use crate::collector::CollectorCore;
use crate::coordinator::Coordinator;
use crate::health::{HealthConfig, HealthMonitor, HealthReport};
use crate::repair::RepairEngine;
use crate::transport::{
    Endpoint, LossyTransport, NetConfig, NetSpec, PerfectTransport, Transport, TransportStats,
};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use remo_core::adapt::AdaptivePlanner;
use remo_core::{
    AttrCatalog, AttrId, CapacityMap, CostModel, MonitoringPlan, NodeId, PairSet, Parent,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

pub use crate::collector::{DeliveredReading, EpochReport, Observed};

/// Result of [`Deployment::snapshot`]: the observed values for the
/// queried pairs plus the pairs with no observation yet.
pub type Snapshot = (BTreeMap<(NodeId, AttrId), Observed>, Vec<(NodeId, AttrId)>);

/// Which transport a deployment runs on.
#[derive(Debug, Clone, Default)]
pub enum TransportSpec {
    /// Immediate, loss-free in-memory delivery (deterministic; the
    /// pre-transport behavior, bit for bit).
    #[default]
    Perfect,
    /// Fault-injecting transport with ARQ, bounded collector ingress,
    /// and graceful degradation.
    Lossy(NetSpec, NetConfig),
}

/// A running in-process deployment of a monitoring plan.
#[derive(Debug)]
pub struct Deployment {
    /// The agents, stepped in node order, and the sending half of each
    /// one's inbox (the transport holds the same senders).
    agents: BTreeMap<NodeId, Agent>,
    inboxes: Arc<BTreeMap<NodeId, Sender<AgentMsg>>>,
    reports: Receiver<TickReport>,
    collector_rx: Receiver<(u64, Bytes)>,
    /// Failure detector, collector core, assignments currently pushed
    /// to each agent, and (self-healing deployments only) the healer.
    coord: Coordinator,
    transport: Arc<dyn Transport>,
    net: NetConfig,
    epoch: u64,
}

impl Deployment {
    /// Launches one agent per node in `caps` and wires them according
    /// to `plan`, with default failure-detection settings (see
    /// [`HealthConfig`]).
    pub fn launch(
        plan: &MonitoringPlan,
        pairs: &PairSet,
        caps: &CapacityMap,
        cost: CostModel,
        catalog: &AttrCatalog,
        sampler: Sampler,
    ) -> Self {
        Self::launch_with_transport(
            plan,
            pairs,
            caps,
            cost,
            catalog,
            sampler,
            HealthConfig::default(),
            TransportSpec::Perfect,
        )
    }

    /// [`Deployment::launch`] with explicit failure-detector tuning, on
    /// an explicit transport. With [`TransportSpec::Lossy`] the
    /// deployment runs the full robustness stack: ARQ delivery, bounded
    /// collector ingress with backpressure, and graceful degradation
    /// under overload.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_with_transport(
        plan: &MonitoringPlan,
        pairs: &PairSet,
        caps: &CapacityMap,
        cost: CostModel,
        catalog: &AttrCatalog,
        sampler: Sampler,
        health_cfg: HealthConfig,
        tspec: TransportSpec,
    ) -> Self {
        let (report_tx, report_rx) = unbounded();
        let (collector_tx, collector_rx) = unbounded();

        let mut senders: BTreeMap<NodeId, Sender<AgentMsg>> = BTreeMap::new();
        let mut inboxes: BTreeMap<NodeId, Receiver<AgentMsg>> = BTreeMap::new();
        for node in caps.node_ids() {
            let (tx, rx) = unbounded();
            senders.insert(node, tx);
            inboxes.insert(node, rx);
        }
        let peers = Arc::new(senders);

        let (transport, net): (Arc<dyn Transport>, NetConfig) = match tspec {
            TransportSpec::Perfect => (
                Arc::new(PerfectTransport::new(Arc::clone(&peers), collector_tx)),
                NetConfig::default(),
            ),
            TransportSpec::Lossy(spec, net) => (
                Arc::new(LossyTransport::new(
                    Arc::clone(&peers),
                    collector_tx,
                    spec,
                    net.retry_window(),
                )),
                net,
            ),
        };

        let assignments = plan_assignments(plan, pairs, catalog);
        let agents = inboxes
            .into_iter()
            .map(|(node, inbox)| {
                let agent = Agent::new(
                    node,
                    inbox,
                    Arc::clone(&transport),
                    report_tx.clone(),
                    caps.node(node).unwrap_or(0.0),
                    cost,
                    net,
                    Arc::clone(&sampler),
                    assignments.get(&node).cloned().unwrap_or_default(),
                );
                (node, agent)
            })
            .collect();

        Deployment {
            agents,
            reports: report_rx,
            collector_rx,
            coord: Coordinator {
                health: HealthMonitor::new(peers.keys().copied(), health_cfg.confirm_after),
                collector: CollectorCore::new(caps.collector(), cost, net, catalog.clone()),
                healer: None,
                assignments,
            },
            inboxes: peers,
            transport,
            net,
            epoch: 0,
        }
    }

    /// Launches a self-healing deployment driven by `planner`'s
    /// current plan: confirmed agent failures trigger
    /// `AdaptivePlanner::handle_node_failure` and a targeted
    /// reconfiguration of the survivors; recovered agents reintegrate
    /// via `handle_node_recovery` at their original capacity.
    pub fn launch_self_healing(
        planner: AdaptivePlanner,
        sampler: Sampler,
        health_cfg: HealthConfig,
    ) -> Self {
        Self::launch_self_healing_with_transport(
            planner,
            sampler,
            health_cfg,
            TransportSpec::Perfect,
        )
    }

    /// [`Deployment::launch_self_healing`] on an explicit transport:
    /// the combination exercised by the chaos soak — node failures
    /// repaired by the planner while the network drops, delays, and
    /// partitions traffic underneath.
    pub fn launch_self_healing_with_transport(
        planner: AdaptivePlanner,
        sampler: Sampler,
        health_cfg: HealthConfig,
        tspec: TransportSpec,
    ) -> Self {
        let caps = planner.caps().clone();
        let catalog = planner.catalog().clone();
        let mut dep = Self::launch_with_transport(
            planner.plan(),
            planner.pairs(),
            &caps,
            planner.cost(),
            &catalog,
            sampler,
            health_cfg,
            tspec,
        );
        dep.coord.healer = Some(RepairEngine::new(planner));
        dep
    }

    /// Current epoch (completed ticks).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The assignments currently pushed to each agent (updated by
    /// launch, [`Deployment::apply_plan`], and plan repair). The audit
    /// in `remo-check` checks these against the plan they claim to
    /// implement.
    pub fn assignments(&self) -> &BTreeMap<NodeId, Vec<TreeAssignment>> {
        &self.coord.assignments
    }

    /// The collector's ingest core and snapshot store.
    pub fn collector(&self) -> &CollectorCore {
        &self.coord.collector
    }

    /// Installs the alias → original map of a reliability rewrite
    /// (`rewrite_ssdp`/`rewrite_dsdp`) at the collector, so every
    /// replica path refreshes the original pair.
    pub fn set_aliases(&mut self, aliases: BTreeMap<AttrId, AttrId>) {
        self.coord.collector.set_aliases(aliases);
    }

    /// The collector's snapshot of a pair.
    pub fn observed(&self, node: NodeId, attr: AttrId) -> Option<Observed> {
        self.coord.collector.observed(node, attr)
    }

    /// The collector's snapshot of an aggregated attribute.
    pub fn observed_aggregate(&self, attr: AttrId) -> Option<Observed> {
        self.coord.collector.observed_aggregate(attr)
    }

    /// Number of distinct pairs ever observed.
    pub fn observed_pairs(&self) -> usize {
        self.coord.collector.observed_pairs()
    }

    /// Snapshot of an explicit pair list: observed values plus the
    /// pairs with no observation yet (the runtime analog of the
    /// simulator's task-scoped query).
    pub fn snapshot(&self, pairs: impl IntoIterator<Item = (NodeId, AttrId)>) -> Snapshot {
        let mut values = BTreeMap::new();
        let mut missing = Vec::new();
        for (n, a) in pairs {
            match self.coord.collector.observed(n, a) {
                Some(o) => {
                    values.insert((n, a), o);
                }
                None => missing.push((n, a)),
            }
        }
        (values, missing)
    }

    /// Current health snapshot (states and incident statistics as of
    /// the last completed tick).
    pub fn health_report(&self) -> HealthReport {
        self.coord.health.report(self.epoch)
    }

    /// Fault counters of the underlying transport (all zero on the
    /// perfect transport).
    pub fn net_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// Forces a directed link up or down on the transport (chaos
    /// injection); a frame sent over a down link is lost. Returns
    /// `false` when the transport cannot model link faults — both
    /// in-process transports can.
    pub fn set_link_down(&self, from: NodeId, to: NodeId, down: bool) -> bool {
        self.transport.set_link_down(from, to, down)
    }

    /// What every receive-side dedup window holds: the seqs it counts
    /// as seen, by (receiver, sender). Empty on the perfect transport,
    /// which runs no ARQ; on an unreliable one each count is bounded by
    /// [`DEDUP_WINDOW`](crate::transport::DEDUP_WINDOW), however long
    /// the run.
    pub fn dedup_tracked(&self) -> BTreeMap<(Endpoint, NodeId), usize> {
        let agents = self.agents.iter().flat_map(|(&id, a)| {
            a.dedup_tracked()
                .map(move |(from, n)| ((Endpoint::Node(id), from), n))
        });
        let collector = self
            .coord
            .collector
            .dedup_tracked()
            .map(|(from, n)| ((Endpoint::Collector, from), n));
        agents.chain(collector).collect()
    }

    /// Effective reporting-interval multiplier currently in force
    /// (1 = no degradation).
    pub fn degrade_factor(&self) -> u64 {
        self.coord.collector.degrade_factor()
    }

    /// Readings accepted into the store, in order (only populated when
    /// [`NetConfig::record_deliveries`] is set).
    pub fn delivery_log(&self) -> &[DeliveredReading] {
        self.coord.collector.delivery_log()
    }

    /// Per-attribute staleness bounds under the current degradation
    /// level: once the network delivers again (faults healed, queue
    /// drained), a live pair's snapshot is at most
    /// `degrade_factor·period + tree depth + base_rto + 1` epochs old —
    /// the degraded sampling interval, plus one epoch per relay hop,
    /// plus the retransmit timer of the last in-flight frame. During
    /// an outage no finite bound exists (that is what
    /// [`EpochReport::values_lost`] and the abandoned counters
    /// surface); this is the convergence bound the soak test holds the
    /// collector to.
    pub fn staleness_bounds(&self) -> BTreeMap<AttrId, u64> {
        let factor = self.degrade_factor();
        let mut out: BTreeMap<AttrId, u64> = BTreeMap::new();
        for (&node, assigns) in &self.coord.assignments {
            for a in assigns {
                let depth = route_depth(&self.coord.assignments, node, a.tree);
                for la in &a.local {
                    let bound =
                        la.period.max(1).saturating_mul(factor) + depth + self.net.base_rto + 1;
                    let slot = out.entry(la.attr).or_insert(0);
                    *slot = (*slot).max(bound);
                }
            }
        }
        out
    }

    /// Advances one lockstep epoch and returns its aggregate report.
    ///
    /// Agents that did not report this epoch are fed to the failure
    /// detector, and (in self-healing deployments) confirmed failures
    /// trigger plan repair before the epoch completes.
    pub fn tick(&mut self) -> EpochReport {
        let _tick_span = remo_obs::span!("runtime.tick");
        self.epoch += 1;
        let epoch = self.epoch;

        // Release transport-delayed frames due this epoch before the
        // agents start processing it.
        self.transport.advance(epoch);

        for tx in self.inboxes.values() {
            let _ = tx.send(AgentMsg::Tick { epoch });
        }
        // Run to completion. A round can only leave behind what it
        // provoked — an ack for a data frame, nothing for an ack, and a
        // relay forwards child traffic on the *next* tick — so the
        // third round at the latest finds every inbox empty.
        loop {
            let mut ran = false;
            for agent in self.agents.values_mut() {
                ran |= agent.run_ready();
            }
            if !ran {
                break;
            }
        }

        let closed = self.coord.close_epoch(
            epoch,
            std::iter::from_fn(|| self.reports.try_recv().ok()),
            std::iter::from_fn(|| self.collector_rx.try_recv().ok()),
            self.transport.as_ref(),
        );
        let mut report = closed.report;
        for node in closed.reassigned {
            let assignments = self.coord.assigned(node);
            let sent = self.send(node, AgentMsg::Reconfigure { assignments });
            report.reconfigure_messages += u64::from(sent);
        }
        if let Some(factor) = closed.degrade {
            for tx in self.inboxes.values() {
                let _ = tx.send(AgentMsg::SetDegrade { factor });
            }
        }
        report.export_metrics();
        report
    }

    /// Queues `msg` on `node`'s inbox, where it waits for the next
    /// tick; whether there is such a node.
    fn send(&self, node: NodeId, msg: AgentMsg) -> bool {
        self.inboxes
            .get(&node)
            .is_some_and(|tx| tx.send(msg).is_ok())
    }

    /// Runs `epochs` ticks, returning the summed report.
    pub fn run(&mut self, epochs: u64) -> EpochReport {
        let mut total = EpochReport::default();
        for _ in 0..epochs {
            let r = self.tick();
            total.epoch = r.epoch;
            total.delivered_values += r.delivered_values;
            total.dropped_messages += r.dropped_messages;
            total.dropped_readings += r.dropped_readings;
            total.volume += r.volume;
            total.suspected += r.suspected;
            total.confirmed_dead += r.confirmed_dead;
            total.repaired += r.repaired;
            total.recovered += r.recovered;
            total.values_lost += r.values_lost;
            total.reconfigure_messages += r.reconfigure_messages;
            total.retransmit_messages += r.retransmit_messages;
            total.duplicate_messages_ignored += r.duplicate_messages_ignored;
            total.abandoned_messages += r.abandoned_messages;
            total.shed_readings += r.shed_readings;
            total.backpressure_signals += r.backpressure_signals;
            // Latest-state fields: keep the final epoch's snapshot.
            total.ingress_depth = r.ingress_depth;
            total.degrade_factor = r.degrade_factor;
        }
        total
    }

    /// Pushes a new plan to the agents (topology adaptation); returns
    /// the number of reconfiguration messages sent.
    pub fn apply_plan(
        &mut self,
        plan: &MonitoringPlan,
        pairs: &PairSet,
        catalog: &AttrCatalog,
    ) -> usize {
        let assignments = plan_assignments(plan, pairs, catalog);
        for (&node, tx) in self.inboxes.iter() {
            let a = assignments.get(&node).cloned().unwrap_or_default();
            let _ = tx.send(AgentMsg::Reconfigure { assignments: a });
        }
        self.coord.assignments = assignments;
        self.inboxes.len()
    }

    /// Crashes a node: it drops all traffic until healed. Takes
    /// effect from the next tick.
    pub fn fail_node(&mut self, node: NodeId) {
        self.send(node, AgentMsg::SetFailed(true));
    }

    /// Heals a crashed node.
    pub fn heal_node(&mut self, node: NodeId) {
        self.send(node, AgentMsg::SetFailed(false));
    }

    /// Ends the deployment. Dropping it does the same: there is no
    /// thread to stop.
    pub fn shutdown(self) {}
}

/// Computes every node's tree assignments from a plan. This is the
/// single source of truth the deployment configures agents from; the
/// audit in `remo-check` re-derives it to cross-check live assignments
/// against the plan they claim to implement.
pub fn plan_assignments(
    plan: &MonitoringPlan,
    pairs: &PairSet,
    catalog: &AttrCatalog,
) -> BTreeMap<NodeId, Vec<TreeAssignment>> {
    let mut out: BTreeMap<NodeId, Vec<TreeAssignment>> = BTreeMap::new();
    for (k, (set, planned)) in plan.partition().sets().iter().zip(plan.trees()).enumerate() {
        let Some(tree) = planned.tree.as_ref() else {
            continue;
        };
        let relay_aggregation: BTreeMap<AttrId, remo_core::Aggregation> = set
            .iter()
            .map(|&a| (a, catalog.get_or_default(a).aggregation()))
            .collect();
        for node in tree.nodes() {
            // `is_valid` guarantees members have parents, but this path
            // must not panic on a corrupted plan: skip the orphan and
            // let the audit's tree-acyclic rule report it.
            let Some(raw_parent) = tree.parent(node) else {
                continue;
            };
            let parent = match raw_parent {
                Parent::Collector => Route::Collector,
                Parent::Node(p) => Route::Node(p),
            };
            let local: Vec<LocalAttr> = pairs
                .attrs_of(node)
                .map(|owned| {
                    owned
                        .iter()
                        .filter(|attr| set.contains(attr))
                        .map(|&attr| {
                            let info = catalog.get_or_default(attr);
                            LocalAttr {
                                attr,
                                period: info.period(),
                                aggregation: info.aggregation(),
                            }
                        })
                        .collect()
                })
                .unwrap_or_default();
            out.entry(node).or_default().push(TreeAssignment {
                tree: k as u32,
                parent,
                local,
                relay_aggregation: relay_aggregation.clone(),
            });
        }
    }
    out
}

/// Hops from `node` to the collector along `tree`'s parent chain (1 =
/// the node is the tree's root). Walks are bounded, so a corrupted
/// cyclic topology yields a finite (conservative) depth instead of a
/// hang.
fn route_depth(
    assignments: &BTreeMap<NodeId, Vec<TreeAssignment>>,
    node: NodeId,
    tree: u32,
) -> u64 {
    let mut depth: u64 = 1;
    let mut cur = node;
    for _ in 0..=assignments.len() {
        let Some(a) = assignments
            .get(&cur)
            .and_then(|v| v.iter().find(|a| a.tree == tree))
        else {
            return depth;
        };
        match a.parent {
            Route::Collector => return depth,
            Route::Node(p) => {
                depth += 1;
                cur = p;
            }
        }
    }
    depth
}

/// Readings `assigns` schedules for production at `epoch` — the per-
/// epoch quantum the deployment charges to `values_lost` while the
/// owning node is unhealthy.
pub(crate) fn due_readings(assigns: &[TreeAssignment], epoch: u64) -> u64 {
    assigns
        .iter()
        .flat_map(|a| a.local.iter())
        .filter(|la| epoch.is_multiple_of(la.period.max(1)))
        .count() as u64
}

/// Nodes whose assignments differ between `old` and `new` (a missing
/// entry counts as empty) — exactly the agents plan repair sends a
/// targeted `Reconfigure` to.
pub(crate) fn changed_assignments(
    old: &BTreeMap<NodeId, Vec<TreeAssignment>>,
    new: &BTreeMap<NodeId, Vec<TreeAssignment>>,
) -> Vec<NodeId> {
    const EMPTY: &Vec<TreeAssignment> = &Vec::new();
    old.keys()
        .chain(new.keys())
        .copied()
        .collect::<BTreeSet<NodeId>>()
        .into_iter()
        .filter(|node| old.get(node).unwrap_or(EMPTY) != new.get(node).unwrap_or(EMPTY))
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::health::HealthState;
    use remo_core::planner::Planner;

    fn sampler() -> Sampler {
        Arc::new(|n: NodeId, a: AttrId, e: u64| (n.0 * 1000 + a.0 * 10) as f64 + (e % 7) as f64)
    }

    fn dense_pairs(nodes: u32, attrs: u32) -> PairSet {
        (0..nodes)
            .flat_map(|n| (0..attrs).map(move |a| (NodeId(n), AttrId(a))))
            .collect()
    }

    fn launch(nodes: usize, attrs: u32, budget: f64) -> (Deployment, PairSet) {
        let caps = CapacityMap::uniform(nodes, budget, 10_000.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let pairs = dense_pairs(nodes as u32, attrs);
        let catalog = AttrCatalog::new();
        let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
        let dep = Deployment::launch(&plan, &pairs, &caps, cost, &catalog, sampler());
        (dep, pairs)
    }

    #[test]
    fn all_pairs_eventually_observed() {
        let (mut dep, pairs) = launch(6, 2, 100.0);
        dep.run(12);
        assert_eq!(dep.observed_pairs(), pairs.len());
        dep.shutdown();
    }

    #[test]
    fn observed_values_match_sampler() {
        let (mut dep, pairs) = launch(5, 1, 100.0);
        dep.run(10);
        let s = sampler();
        for (n, a) in pairs.iter() {
            let obs = dep.observed(n, a).expect("pair observed");
            assert_eq!(
                obs.value,
                s(n, a, obs.produced),
                "value integrity for {n}/{a}"
            );
        }
        dep.shutdown();
    }

    #[test]
    fn staleness_matches_tree_depth() {
        let (mut dep, pairs) = launch(8, 1, 100.0);
        dep.run(10);
        for (n, a) in pairs.iter() {
            let obs = dep.observed(n, a).expect("observed");
            let staleness = obs.received - obs.produced;
            assert!(
                (1..=8).contains(&staleness),
                "staleness {staleness} out of range for {n}"
            );
        }
        dep.shutdown();
    }

    #[test]
    fn tight_budget_drops_traffic() {
        // Plan with generous budgets, then deploy on starved nodes: the
        // runtime must shed load rather than violate capacity.
        let plan_caps = CapacityMap::uniform(10, 1_000.0, 10_000.0).unwrap();
        let run_caps = CapacityMap::uniform(10, 6.0, 10_000.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let pairs = dense_pairs(10, 4);
        let catalog = AttrCatalog::new();
        let plan = Planner::default().plan_with_catalog(&pairs, &plan_caps, cost, &catalog);
        let mut dep = Deployment::launch(&plan, &pairs, &run_caps, cost, &catalog, sampler());
        let total = dep.run(10);
        assert!(
            total.dropped_readings > 0 || total.dropped_messages > 0,
            "starved deployment must drop"
        );
        dep.shutdown();
    }

    #[test]
    fn reconfiguration_switches_topology() {
        let caps = CapacityMap::uniform(6, 100.0, 10_000.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let pairs = dense_pairs(6, 2);
        let catalog = AttrCatalog::new();
        let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
        let mut dep = Deployment::launch(&plan, &pairs, &caps, cost, &catalog, sampler());
        dep.run(5);
        let before = dep.observed_pairs();

        // Add a new attribute and re-plan.
        let mut pairs2 = pairs.clone();
        for n in 0..6 {
            pairs2.insert(NodeId(n), AttrId(9));
        }
        let plan2 = Planner::default().plan_with_catalog(&pairs2, &caps, cost, &catalog);
        let sent = dep.apply_plan(&plan2, &pairs2, &catalog);
        assert_eq!(sent, 6);
        dep.run(8);
        assert!(dep.observed_pairs() > before);
        assert!(dep.observed(NodeId(3), AttrId(9)).is_some());
        dep.shutdown();
    }

    #[test]
    fn failed_node_stops_and_heals() {
        let (mut dep, pairs) = launch(6, 1, 100.0);
        dep.run(8);
        // Every pair observed while healthy.
        assert_eq!(dep.observed_pairs(), pairs.len());
        let victim = NodeId(2);
        dep.fail_node(victim);
        dep.run(5);
        let stale = dep.observed(victim, AttrId(0)).unwrap();
        let lag_when_failed = dep.epoch() - stale.produced;
        assert!(
            lag_when_failed >= 4,
            "victim's snapshot should go stale, lag {lag_when_failed}"
        );
        dep.heal_node(victim);
        dep.run(8);
        let fresh = dep.observed(victim, AttrId(0)).unwrap();
        assert!(
            dep.epoch() - fresh.produced <= 8,
            "healed node resumes reporting"
        );
        assert!(fresh.produced > stale.produced);
        dep.shutdown();
    }

    #[test]
    fn snapshot_query_partitions_observed_and_missing() {
        let (mut dep, pairs) = launch(5, 1, 100.0);
        dep.run(8);
        let mut wanted: Vec<(NodeId, AttrId)> = pairs.iter().collect();
        wanted.push((NodeId(99), AttrId(0))); // never observed
        let (values, missing) = dep.snapshot(wanted);
        assert_eq!(values.len(), pairs.len());
        assert_eq!(missing, vec![(NodeId(99), AttrId(0))]);
        dep.shutdown();
    }

    #[test]
    fn volume_accounts_for_messages() {
        let (mut dep, _) = launch(4, 1, 100.0);
        let r = dep.tick();
        // 4 nodes each send one message on the first epoch.
        assert!(r.volume > 0.0);
        dep.shutdown();
    }

    fn fast_health(confirm_after: u32) -> HealthConfig {
        HealthConfig {
            confirm_after,
            ..HealthConfig::default()
        }
    }

    #[test]
    fn silent_crash_is_suspected_then_confirmed() {
        let caps = CapacityMap::uniform(6, 100.0, 10_000.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let pairs = dense_pairs(6, 1);
        let catalog = AttrCatalog::new();
        let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
        let mut dep = Deployment::launch_with_transport(
            &plan,
            &pairs,
            &caps,
            cost,
            &catalog,
            sampler(),
            fast_health(2),
            TransportSpec::Perfect,
        );
        dep.run(4);
        assert!(dep.health_report().dead_nodes().is_empty());

        let victim = NodeId(4);
        dep.fail_node(victim);
        let total = dep.run(4);
        let hr = dep.health_report();
        assert_eq!(hr.states[&victim], HealthState::Dead);
        assert_eq!(hr.stats[&victim].confirmed, 1);
        assert_eq!(
            hr.stats[&victim].time_to_detect, 1,
            "K=2 confirms one epoch after first miss"
        );
        assert!(
            hr.stats[&victim].values_lost > 0,
            "victim's due readings counted as lost"
        );
        assert_eq!(total.suspected, 1);
        assert_eq!(total.confirmed_dead, 1);
        assert_eq!(total.repaired, 0, "no healer attached");
        dep.shutdown();
    }

    fn self_healing(nodes: usize, attrs: u32, confirm_after: u32) -> (Deployment, PairSet) {
        use remo_core::adapt::{AdaptScheme, AdaptivePlanner};
        let caps = CapacityMap::uniform(nodes, 100.0, 10_000.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let pairs = dense_pairs(nodes as u32, attrs);
        let planner = AdaptivePlanner::new(
            Planner::default(),
            AdaptScheme::Adaptive,
            pairs.clone(),
            caps,
            cost,
            AttrCatalog::new(),
        );
        let dep = Deployment::launch_self_healing(planner, sampler(), fast_health(confirm_after));
        (dep, pairs)
    }

    #[test]
    fn confirmed_failure_triggers_plan_repair() {
        let (mut dep, pairs) = self_healing(8, 1, 2);
        dep.run(6);
        assert_eq!(dep.observed_pairs(), pairs.len());

        let victim = NodeId(3);
        dep.fail_node(victim);
        let total = dep.run(4);
        assert_eq!(total.confirmed_dead, 1);
        assert_eq!(total.repaired, 1, "healer repairs on confirmation");
        assert!(
            total.reconfigure_messages >= 1,
            "at least one survivor re-routed"
        );
        let hr = dep.health_report();
        assert_eq!(hr.stats[&victim].repaired, 1);
        assert!(hr.stats[&victim].mttr_epochs >= hr.stats[&victim].time_to_detect);

        // After repair the survivors keep delivering fresh values.
        dep.run(6);
        let now = dep.epoch();
        for (n, a) in pairs.iter().filter(|(n, _)| *n != victim) {
            let obs = dep.observed(n, a).expect("survivor pair observed");
            assert!(
                now - obs.produced <= 10,
                "survivor {n}/{a} stale after repair: lag {}",
                now - obs.produced
            );
        }
        dep.shutdown();
    }

    #[test]
    fn recovered_node_is_reintegrated() {
        let (mut dep, pairs) = self_healing(6, 1, 2);
        dep.run(4);
        let victim = NodeId(2);
        dep.fail_node(victim);
        dep.run(4);
        assert_eq!(dep.health_report().states[&victim], HealthState::Dead);

        dep.heal_node(victim);
        let total = dep.run(10);
        assert_eq!(total.recovered, 1);
        let hr = dep.health_report();
        assert_eq!(hr.states[&victim], HealthState::Healthy);
        assert_eq!(hr.stats[&victim].recovered, 1);
        // The recovered node's pairs are being collected again.
        let now = dep.epoch();
        for (n, a) in pairs.iter().filter(|(n, _)| *n == victim) {
            let obs = dep.observed(n, a).expect("recovered pair observed");
            assert!(
                now - obs.produced <= 10,
                "recovered {n}/{a} should be fresh, lag {}",
                now - obs.produced
            );
        }
        dep.shutdown();
    }
}
