//! The protocol harness: one explorable state of the self-healing
//! reconfiguration protocol, driving the *real* production code.
//!
//! A [`Harness`] holds a runtime [`Coordinator`] with a self-healing
//! [`RepairEngine`] and drives the two halves of the runtime's epoch
//! close (`Coordinator::close_epoch`) itself: a tick is
//! [`Coordinator::observe`] — the report fold, the failure detector,
//! the charge for lost readings — followed by
//! [`Coordinator::repair`] for the nodes the detector saw recover.
//! Every invariant the checker proves therefore holds of the deployed
//! code path, not of a re-model. The one deliberate difference: repair
//! around a confirmed failure is its own schedulable event
//! ([`Event::Repair`]) instead of running synchronously inside the
//! tick, which exposes the confirmation-to-repair window where values
//! are lost and capacity must not be oversubscribed.
//!
//! After every transition [`Harness::apply`] re-checks the named
//! invariants: the full RA001–RA012 registry via
//! [`AdaptivePlanner::audit`] plus the cross-layer assignment check,
//! and the protocol-sequence rules RA013–RA016. RA016 compares the two
//! books the close keeps: the sum of [`Coordinator::observe`]'s
//! `values_lost` and the detector's per-node telemetry.
//!
//! The harness also carries the collector's session book,
//! `remo-runtime`'s [`Sessions`], and steps it through the same calls
//! the TCP hub makes (tick fan-out, report credit, the barrier's
//! verdicts, repair): an explored collector step the spec's session
//! table leaves undefined is reported as RA023, so the model checker
//! and the protocol verifier can never silently disagree about what
//! the control plane is allowed to do.

use crate::cost::{cost_bounds, CostBounds, CostFlags};
use crate::cross;
use crate::topology::TopologySpec;
use remo_core::adapt::AdaptivePlanner;
use remo_core::validate::{rules, Finding, RuleSet, Severity};
use remo_core::NodeId;
use remo_runtime::health::HealthState;
use remo_runtime::machine::{HelloOutcome, Sessions};
use remo_runtime::{
    plan_assignments, CollectorCore, Coordinator, EpochReport, HealthMonitor, NetConfig,
    RepairEngine, TickReport,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// One schedulable protocol event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Event {
    /// A node crashes (goes silent from the next tick on).
    Fail(NodeId),
    /// A crashed node comes back (reports again from the next tick).
    Recover(NodeId),
    /// One lockstep epoch: observe reporters, account losses, and
    /// reintegrate nodes the detector saw recover.
    Tick,
    /// The queued plan repair around a confirmed-dead node completes.
    Repair(NodeId),
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Fail(n) => write!(f, "fail:{}", n.0),
            Event::Recover(n) => write!(f, "recover:{}", n.0),
            Event::Tick => write!(f, "tick"),
            Event::Repair(n) => write!(f, "repair:{}", n.0),
        }
    }
}

impl Event {
    /// Parses the compact `tick` / `fail:<n>` / `recover:<n>` /
    /// `repair:<n>` form used in replay files.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed token.
    pub fn parse(text: &str) -> Result<Self, String> {
        if text == "tick" {
            return Ok(Event::Tick);
        }
        let (kind, id) = text
            .split_once(':')
            .ok_or_else(|| format!("malformed event `{text}`"))?;
        let n: u32 = id
            .parse()
            .map_err(|_| format!("malformed node id in event `{text}`"))?;
        match kind {
            "fail" => Ok(Event::Fail(NodeId(n))),
            "recover" => Ok(Event::Recover(NodeId(n))),
            "repair" => Ok(Event::Repair(NodeId(n))),
            _ => Err(format!("unknown event kind `{kind}`")),
        }
    }
}

impl Serialize for Event {
    fn serialize(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl Deserialize for Event {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => Event::parse(s),
            other => Err(format!("expected event string, found {}", other.kind())),
        }
    }
}

/// Tunable tolerances of the sequence invariants (serialized into
/// replay files so a counterexample pins the exact thresholds it was
/// found under).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InvariantConfig {
    /// Collected pairs the plan may be short of the original after
    /// every failed node has recovered (RA015). The restricted search
    /// is a heuristic; one pair of slack matches the runtime's own
    /// recovery expectations.
    pub pair_slack: u32,
    /// Factor the post-recovery message volume may exceed the
    /// original by (RA015).
    pub volume_tolerance: f64,
}

impl Default for InvariantConfig {
    fn default() -> Self {
        InvariantConfig {
            pair_slack: 1,
            volume_tolerance: 1.5,
        }
    }
}

/// One explorable protocol state (clonable, so the DFS can fork it).
#[derive(Debug, Clone)]
pub struct Harness {
    spec: TopologySpec,
    cfg: InvariantConfig,
    /// The runtime's coordinator: detector, assignments and a healer
    /// that is always present. Its collector receives no frames.
    coord: Coordinator,
    epoch: u64,
    /// Physically crashed (silent) nodes.
    down: BTreeSet<NodeId>,
    /// Confirmed-dead nodes whose plan repair has not completed yet.
    pending_repair: BTreeSet<NodeId>,
    /// Recoveries reintegrated so far (arms the convergence check).
    recoveries: u64,
    /// The sum of the epoch reports' `values_lost`, which RA016 checks
    /// against the detector's per-node telemetry.
    values_lost: u64,
    /// Telemetry total at the previous check (monotonicity witness).
    last_reported_lost: u64,
    /// Targeted reconfigurations implied by plan repairs so far.
    reconfigures: u64,
    baseline_pairs: usize,
    baseline_volume: f64,
    /// Shape-independent usage intervals from the static analyzer,
    /// computed once from the original demand. Demand only shrinks as
    /// nodes fail (and every funnel is monotone), so the upper ends
    /// stay sound bounds for every explored plan state.
    static_bounds: CostBounds,
    /// Static-bound comparisons performed so far (soundness witness
    /// for the sweep: checked everywhere, violated nowhere).
    bound_checks: u64,
    /// The collector's sessions, stepped as the hub steps them
    /// (RA023 conformance cross-check).
    sessions: Sessions,
}

impl Harness {
    /// Plans the spec's initial topology and wraps it in a fresh
    /// protocol state.
    ///
    /// # Errors
    ///
    /// Propagates [`remo_core::PlanError`] from spec construction.
    pub fn new(spec: TopologySpec, cfg: InvariantConfig) -> Result<Self, remo_core::PlanError> {
        let planner = spec.planner()?;
        let baseline_pairs = planner.plan().collected_pairs();
        let baseline_volume = planner.plan().message_volume();
        let static_bounds = cost_bounds(
            planner.pairs(),
            planner.catalog(),
            planner.cost(),
            CostFlags::default(),
        );
        let coord = Coordinator {
            health: HealthMonitor::new(spec.node_ids(), spec.confirm_after),
            collector: CollectorCore::new(
                planner.caps().collector(),
                planner.cost(),
                NetConfig::default(),
                planner.catalog().clone(),
            ),
            assignments: plan_assignments(planner.plan(), planner.pairs(), planner.catalog()),
            healer: Some(RepairEngine::new(planner)),
        };
        // Every node starts registered: the explored system begins in
        // the post-handshake steady state, so each session is walked
        // through its fresh Hello + Assign once up front.
        let mut sessions = Sessions::default();
        for n in spec.node_ids() {
            // Not inside the assert: release builds must register too.
            let admitted = sessions.hello(n, 0);
            debug_assert!(matches!(admitted, HelloOutcome::Minted(_)));
        }
        Ok(Harness {
            spec,
            cfg,
            coord,
            epoch: 0,
            down: BTreeSet::new(),
            pending_repair: BTreeSet::new(),
            recoveries: 0,
            values_lost: 0,
            last_reported_lost: 0,
            reconfigures: 0,
            baseline_pairs,
            baseline_volume,
            static_bounds,
            bound_checks: 0,
            sessions,
        })
    }

    /// Static-bound comparisons performed so far.
    pub fn bound_checks(&self) -> u64 {
        self.bound_checks
    }

    /// Every collector step the session book found undefined since the
    /// last call, as an RA023 finding — the model checker reached a
    /// control-plane step the protocol spec does not allow.
    fn undefined_steps(&mut self, findings: &mut Vec<Finding>) {
        for (n, state, event) in self.sessions.take_undefined() {
            if let Some(mut f) = RuleSet::all().finding(
                rules::UNEXPECTED_MESSAGE,
                format!(
                    "explored collector step ({state:?}, {event:?}) for node {n} is undefined \
                     in the protocol spec"
                ),
            ) {
                f.node = Some(n);
                findings.push(f);
            }
        }
    }

    /// The spec this state was built from.
    pub fn spec(&self) -> &TopologySpec {
        &self.spec
    }

    /// Completed epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The running sum of the epoch reports' `values_lost`.
    pub fn values_lost(&self) -> u64 {
        self.values_lost
    }

    /// Targeted reconfigurations implied by plan repairs so far.
    pub fn reconfigures(&self) -> u64 {
        self.reconfigures
    }

    /// The live planner under check.
    pub fn planner(&self) -> &AdaptivePlanner {
        healer(&self.coord)
    }

    /// Whether `event` may fire in this state.
    pub fn is_enabled(&self, event: Event) -> bool {
        match event {
            Event::Tick => true,
            Event::Fail(n) => {
                n.0 < self.spec.nodes
                    && !self.down.contains(&n)
                    && (self.down.len() as u32) < self.spec.max_down
            }
            Event::Recover(n) => self.down.contains(&n),
            Event::Repair(n) => self.pending_repair.contains(&n),
        }
    }

    /// Every event enabled in this state, in deterministic order.
    pub fn enabled_events(&self) -> Vec<Event> {
        let mut events = vec![Event::Tick];
        for n in self.spec.node_ids() {
            for ev in [Event::Fail(n), Event::Recover(n), Event::Repair(n)] {
                if self.is_enabled(ev) {
                    events.push(ev);
                }
            }
        }
        events
    }

    /// Applies one event and re-checks every invariant, returning the
    /// findings (error severity means a violated invariant).
    pub fn apply(&mut self, event: Event) -> Vec<Finding> {
        let mut findings = Vec::new();
        match event {
            Event::Fail(n) => {
                self.down.insert(n);
            }
            Event::Recover(n) => {
                self.down.remove(&n);
            }
            Event::Tick => {
                self.epoch += 1;
                let epoch = self.epoch;
                // Every node that is not down is connected: it takes
                // the tick and answers it in time. The barrier's
                // session steps are the hub's.
                let up: Vec<NodeId> = self
                    .spec
                    .node_ids()
                    .filter(|n| !self.down.contains(n))
                    .collect();
                let reports: Vec<TickReport> = up
                    .iter()
                    .map(|&node| TickReport {
                        node,
                        epoch,
                        ..TickReport::default()
                    })
                    .collect();
                let mut missing = self.coord.health.expected_reporters();
                self.sessions.tick(up);
                self.sessions.credit(&reports, epoch, &mut missing);
                let (mut report, events) = self.coord.observe(epoch, reports);
                self.values_lost += report.values_lost;
                self.sessions.verdicts(&missing, &events);
                self.undefined_steps(&mut findings);
                // Confirmed failures wait for their own Repair event. A
                // node that reports again cancels any still-queued
                // repair and is reintegrated now, as the close does.
                self.pending_repair.extend(&events.confirmed);
                for n in &events.recovered {
                    self.pending_repair.remove(n);
                }
                self.recoveries += events.recovered.len() as u64;
                let changed = self
                    .coord
                    .repair(&[], &events.recovered, epoch, &mut report);
                self.reconfigures += changed.len() as u64;
            }
            Event::Repair(n) => {
                self.pending_repair.remove(&n);
                self.sessions.repair(n);
                self.undefined_steps(&mut findings);
                let changed = self
                    .coord
                    .repair(&[n], &[], self.epoch, &mut EpochReport::default());
                self.reconfigures += changed.len() as u64;
                // RA014: a completed repair is a fixpoint — repairing
                // the same failure again must reassign no node, move no
                // edge and keep the pair count.
                let mut again = self.coord.clone();
                let reassigned = again.repair(&[n], &[], self.epoch, &mut EpochReport::default());
                let (plan, replan) = (self.planner().plan(), healer(&again).plan());
                let drift = replan.edge_diff(plan);
                if !reassigned.is_empty()
                    || drift != 0
                    || replan.collected_pairs() != plan.collected_pairs()
                {
                    if let Some(mut f) = RuleSet::all().finding(
                        rules::REPAIR_IDEMPOTENT,
                        format!(
                            "re-applying the repair of node {n} moved {drift} edges and changed \
                             collected pairs {} → {}",
                            plan.collected_pairs(),
                            replan.collected_pairs()
                        ),
                    ) {
                        f.node = Some(n);
                        findings.push(f);
                    }
                }
            }
        }
        findings.extend(self.check());
        findings
    }

    /// Re-proves every state invariant, returning the findings.
    fn check(&mut self) -> Vec<Finding> {
        let registry = RuleSet::all();
        let mut findings = Vec::new();
        let planner = healer(&self.coord);

        // Audit-clean: the full RA001–RA010 registry over the live
        // planner state, with the planner's own accounting flags.
        findings.extend(
            planner
                .audit()
                .findings
                .into_iter()
                .filter(|f| f.severity == Severity::Error),
        );

        // RA011 cross-layer: the assignments the harness would have
        // pushed to agents faithfully implement the current plan.
        findings.extend(cross::check_assignments(
            planner.plan(),
            planner.pairs(),
            planner.catalog(),
            &self.coord.assignments,
            &registry,
        ));

        // RA018 cross-check: every explored plan state must sit inside
        // the static analyzer's shape-independent usage intervals —
        // upper ends always, lower ends whenever the plan collects the
        // full original demand (the lo bound is conditional on full
        // collection).
        let usage = planner.plan().node_usage();
        let full_collection = planner.plan().collected_pairs() == planner.pairs().len();
        for (&n, iv) in &self.static_bounds.per_node {
            let u = usage.get(&n).copied().unwrap_or(0.0);
            self.bound_checks += 1;
            if u > iv.hi() * (1.0 + 1e-6) {
                if let Some(mut f) = registry.finding(
                    rules::STATIC_INFEASIBLE_CAPACITY,
                    format!(
                        "node {n} usage {u:.2} escaped the static worst-shape bound {:.2}",
                        iv.hi()
                    ),
                ) {
                    f.node = Some(n);
                    f.actual = Some(u);
                    f.limit = Some(iv.hi());
                    findings.push(f);
                }
            }
            if full_collection && u < iv.lo() * (1.0 - 1e-6) {
                if let Some(mut f) = registry.finding(
                    rules::STATIC_INFEASIBLE_CAPACITY,
                    format!(
                        "node {n} usage {u:.2} undercuts the static best-shape bound {:.2} \
                         with every pair collected",
                        iv.lo()
                    ),
                ) {
                    f.node = Some(n);
                    f.actual = Some(u);
                    f.limit = Some(iv.lo());
                    findings.push(f);
                }
            }
        }
        self.bound_checks += 1;
        let collector = planner.plan().collector_usage();
        if collector > self.static_bounds.collector.hi() * (1.0 + 1e-6)
            || (full_collection && collector < self.static_bounds.collector.lo() * (1.0 - 1e-6))
        {
            if let Some(mut f) = registry.finding(
                rules::STATIC_INFEASIBLE_CAPACITY,
                format!(
                    "collector usage {collector:.2} escaped the static interval [{:.2}, {:.2}]",
                    self.static_bounds.collector.lo(),
                    self.static_bounds.collector.hi()
                ),
            ) {
                f.actual = Some(collector);
                findings.push(f);
            }
        }

        // RA013: a node whose repair completed (dead, not pending)
        // must carry no load — absent from trees, empty assignments,
        // zero capacity.
        for &n in &self.down {
            if self.coord.health.state(n) != HealthState::Dead || self.pending_repair.contains(&n) {
                continue;
            }
            let usage = planner.plan().node_usage().get(&n).copied().unwrap_or(0.0);
            if usage > 0.0 {
                if let Some(mut f) = registry.finding(
                    rules::REPAIR_CAPACITY,
                    format!("repaired node {n} still carries {usage:.2} load in the plan"),
                ) {
                    f.node = Some(n);
                    f.actual = Some(usage);
                    f.limit = Some(0.0);
                    findings.push(f);
                }
            }
            if !self.coord.assigned(n).is_empty() {
                if let Some(mut f) = registry.finding(
                    rules::REPAIR_CAPACITY,
                    format!("repaired node {n} still holds tree assignments"),
                ) {
                    f.node = Some(n);
                    findings.push(f);
                }
            }
        }

        // RA015: once every failed node has recovered, no repair is
        // pending and the detector has heard from every node again, the
        // plan must be back near the original. A node that is up but
        // not yet Healthy is still converging: the next tick
        // reintegrates it.
        let settled = self.down.is_empty()
            && self.pending_repair.is_empty()
            && self
                .spec
                .node_ids()
                .all(|n| self.coord.health.state(n) == HealthState::Healthy);
        if self.recoveries > 0 && settled {
            let collected = planner.plan().collected_pairs();
            if collected + (self.cfg.pair_slack as usize) < self.baseline_pairs {
                if let Some(mut f) = registry.finding(
                    rules::RECOVERY_CONVERGENCE,
                    format!(
                        "recovered system collects {collected} pairs, original collected {} \
                         (slack {})",
                        self.baseline_pairs, self.cfg.pair_slack
                    ),
                ) {
                    f.actual = Some(collected as f64);
                    f.limit = Some(self.baseline_pairs as f64);
                    findings.push(f);
                }
            }
            let volume = planner.plan().message_volume();
            let limit = self.baseline_volume * self.cfg.volume_tolerance;
            if volume > limit + 1e-9 {
                if let Some(mut f) = registry.finding(
                    rules::RECOVERY_CONVERGENCE,
                    format!(
                        "recovered system's volume {volume:.2} exceeds {:.2}x the original \
                         {:.2}",
                        self.cfg.volume_tolerance, self.baseline_volume
                    ),
                ) {
                    f.actual = Some(volume);
                    f.limit = Some(limit);
                    findings.push(f);
                }
            }
        }

        // RA016: the close's two loss books (epoch reports, detector
        // telemetry) must agree, and the telemetry must be monotone.
        let reported = self.coord.health.report(self.epoch).total_values_lost();
        if reported != self.values_lost {
            if let Some(mut f) = registry.finding(
                rules::VALUE_LOSS_ACCOUNTING,
                format!(
                    "health telemetry reports {reported} values lost, the epoch reports {}",
                    self.values_lost
                ),
            ) {
                f.actual = Some(reported as f64);
                f.limit = Some(self.values_lost as f64);
                findings.push(f);
            }
        }
        if reported < self.last_reported_lost {
            if let Some(mut f) = registry.finding(
                rules::VALUE_LOSS_ACCOUNTING,
                format!(
                    "value-loss telemetry went backwards: {} → {reported}",
                    self.last_reported_lost
                ),
            ) {
                f.actual = Some(reported as f64);
                f.limit = Some(self.last_reported_lost as f64);
                findings.push(f);
            }
        }
        self.last_reported_lost = reported;
        findings
    }

    /// A canonical fingerprint of the protocol state, for DFS
    /// deduplication. Epoch is included because the adaptive scheme's
    /// cost-benefit throttle keys off it; cumulative counters are
    /// excluded because they cannot influence future transitions.
    pub fn fingerprint(&self) -> u64 {
        let mut text = String::new();
        text.push_str(&format!("e{}|", self.epoch));
        for n in &self.down {
            text.push_str(&format!("d{}|", n.0));
        }
        for n in &self.pending_repair {
            text.push_str(&format!("p{}|", n.0));
        }
        for n in self.spec.node_ids() {
            text.push_str(&format!(
                "h{}:{:?}:{}|",
                n.0,
                self.coord.health.state(n),
                self.coord.health.consecutive_misses(n)
            ));
        }
        for (n, c) in self.planner().caps().iter() {
            text.push_str(&format!("c{}:{}|", n.0, c.to_bits()));
        }
        for (n, state) in self.sessions.states() {
            text.push_str(&format!("s{}:{state:?}|", n.0));
        }
        if let Ok(plan) = serde_json::to_string(self.planner().plan()) {
            text.push_str(&plan);
        }
        for (n, assigns) in &self.coord.assignments {
            text.push_str(&format!("a{}:{:?}|", n.0, assigns));
        }
        fnv1a(text.as_bytes())
    }
}

/// The self-healing planner of a harness's coordinator, which always
/// has one.
fn healer(coord: &Coordinator) -> &AdaptivePlanner {
    match &coord.healer {
        Some(engine) => engine.planner(),
        None => unreachable!("Harness::new installs a healer"),
    }
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn harness() -> Harness {
        Harness::new(TopologySpec::small(3), InvariantConfig::default()).unwrap()
    }

    fn errors(findings: &[Finding]) -> Vec<&Finding> {
        findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .collect()
    }

    #[test]
    fn initial_state_is_clean() {
        let mut h = harness();
        let f = h.apply(Event::Tick);
        assert!(errors(&f).is_empty(), "{f:?}");
    }

    #[test]
    fn failure_confirm_repair_recover_cycle_stays_clean() {
        let mut h = harness();
        let victim = NodeId(1);
        for ev in [
            Event::Tick,
            Event::Fail(victim),
            Event::Tick, // confirm_after=1 confirms here
            Event::Repair(victim),
            Event::Tick,
            Event::Recover(victim),
            Event::Tick, // detector sees it report → reintegrated
            Event::Tick,
        ] {
            assert!(h.is_enabled(ev), "{ev} must be enabled");
            let f = h.apply(ev);
            assert!(errors(&f).is_empty(), "after {ev}: {f:?}");
        }
        assert!(h.values_lost() > 0, "the dead window loses readings");
        assert!(h.reconfigures() > 0, "repair re-routes survivors");
        assert!(
            h.sessions.steps() > 0,
            "the cycle must step the collector's sessions through the protocol spec"
        );
    }

    #[test]
    fn repair_window_accrues_losses_monotonically() {
        let mut h = harness();
        h.apply(Event::Fail(NodeId(0)));
        h.apply(Event::Tick);
        let after_confirm = h.values_lost();
        h.apply(Event::Tick);
        let later = h.values_lost();
        assert!(
            later > after_confirm,
            "losses keep accruing until repair completes"
        );
        h.apply(Event::Repair(NodeId(0)));
        let at_repair = h.values_lost();
        h.apply(Event::Tick);
        assert_eq!(
            h.values_lost(),
            at_repair,
            "a repaired node's assignments are empty, so charges stop"
        );
    }

    #[test]
    fn enabledness_tracks_protocol_phase() {
        let mut h = harness();
        let n = NodeId(2);
        assert!(h.is_enabled(Event::Fail(n)));
        assert!(!h.is_enabled(Event::Recover(n)));
        assert!(!h.is_enabled(Event::Repair(n)));
        h.apply(Event::Fail(n));
        assert!(!h.is_enabled(Event::Fail(n)));
        assert!(h.is_enabled(Event::Recover(n)));
        assert!(!h.is_enabled(Event::Repair(n)), "not confirmed yet");
        h.apply(Event::Tick);
        assert!(h.is_enabled(Event::Repair(n)), "confirmed → repairable");
        // max_down=1: no second concurrent failure.
        assert!(!h.is_enabled(Event::Fail(NodeId(0))));
    }

    #[test]
    fn fingerprint_dedups_identical_states_and_splits_different_ones() {
        let a = harness();
        let b = harness();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = harness();
        c.apply(Event::Fail(NodeId(0)));
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn event_text_roundtrip() {
        for ev in [
            Event::Tick,
            Event::Fail(NodeId(3)),
            Event::Recover(NodeId(0)),
            Event::Repair(NodeId(7)),
        ] {
            assert_eq!(Event::parse(&ev.to_string()).unwrap(), ev);
        }
        assert!(Event::parse("explode:1").is_err());
        assert!(Event::parse("fail").is_err());
    }
}
