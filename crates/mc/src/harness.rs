//! The protocol harness: one explorable state of the self-healing
//! reconfiguration protocol, driving the *real* production code.
//!
//! A [`Harness`] owns a live [`AdaptivePlanner`] and [`HealthMonitor`]
//! and mirrors the runtime's epoch close (`Coordinator::close_epoch`)
//! and `RepairEngine::repair` step for step —
//! the same `plan_assignments` derivation, the same
//! `changed_assignments` diff, the same `due_readings` loss
//! arithmetic — so every invariant the checker proves holds of the
//! deployed code path, not of a re-model. The one deliberate
//! difference: repair completion is its own schedulable event
//! ([`Event::Repair`]) instead of running synchronously inside the
//! tick, which exposes the confirmation-to-repair window where values
//! are lost and capacity must not be oversubscribed.
//!
//! After every transition [`Harness::apply`] re-checks the named
//! invariants: the full RA001–RA012 registry via
//! [`AdaptivePlanner::audit`] plus the cross-layer assignment check,
//! and the protocol-sequence rules RA013–RA016.
//!
//! The harness also carries one `remo-proto` [`SessionMachine`] per
//! node and replays every explored collector step (tick fan-out,
//! report credit, missed barriers, death confirmation, repair,
//! reintegration) through the shared protocol spec: an explored
//! transition the spec's session table leaves undefined is reported
//! as RA023, so the model checker and the protocol verifier can never
//! silently disagree about what the control plane is allowed to do.

use crate::topology::TopologySpec;
use remo_audit::{cross, rule, Finding, RuleSet, Severity};
use remo_core::adapt::AdaptivePlanner;
use remo_core::{CapacityMap, NodeId};
use remo_proto::{HelloOutcome, SessionEvent, SessionMachine};
use remo_runtime::health::HealthState;
use remo_runtime::{
    changed_assignments, due_readings, plan_assignments, HealthMonitor, TreeAssignment,
};
use remo_static::{cost_bounds, CostBounds, CostFlags};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
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

/// Builds a finding for an `remo-mc` sequence rule at its registry
/// severity.
fn mc_finding(name: &str, message: String) -> Option<Finding> {
    Some(Finding::new(rule(name)?, message))
}

/// One explorable protocol state (clonable, so the DFS can fork it).
#[derive(Debug, Clone)]
pub struct Harness {
    spec: TopologySpec,
    cfg: InvariantConfig,
    planner: AdaptivePlanner,
    health: HealthMonitor,
    assignments: BTreeMap<NodeId, Vec<TreeAssignment>>,
    original_caps: CapacityMap,
    epoch: u64,
    /// Physically crashed (silent) nodes.
    down: BTreeSet<NodeId>,
    /// Confirmed-dead nodes whose plan repair has not completed yet.
    pending_repair: BTreeSet<NodeId>,
    /// Recoveries reintegrated so far (arms the convergence check).
    recoveries: u64,
    /// The harness's own running loss total, kept independently of
    /// the monitor's telemetry so RA016 cross-checks the two.
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
    /// Per-node `remo-proto` session machines the explored collector
    /// steps are replayed through (RA023 conformance cross-check).
    sessions: BTreeMap<NodeId, SessionMachine>,
    /// Session-machine steps replayed so far (conformance witness).
    conformance_checks: u64,
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
        let original_caps = planner.caps().clone();
        let health = HealthMonitor::new(spec.node_ids(), spec.confirm_after);
        let assignments = plan_assignments(planner.plan(), planner.pairs(), planner.catalog());
        let baseline_pairs = planner.plan().collected_pairs();
        let baseline_volume = planner.plan().message_volume();
        let static_bounds = cost_bounds(
            planner.pairs(),
            planner.catalog(),
            planner.cost(),
            CostFlags::default(),
        );
        // Every node starts registered: the explored system begins in
        // the post-handshake steady state, so each session machine is
        // walked through its fresh Hello + Assign once up front.
        let mut sessions = BTreeMap::new();
        for n in spec.node_ids() {
            let mut m = SessionMachine::new();
            // Not inside the assert: release builds must register too.
            let admitted = m.on_hello(0);
            debug_assert!(matches!(admitted, HelloOutcome::Admitted(_)));
            sessions.insert(n, m);
        }
        Ok(Harness {
            spec,
            cfg,
            planner,
            health,
            assignments,
            original_caps,
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
            conformance_checks: 0,
        })
    }

    /// Static-bound comparisons performed so far.
    pub fn bound_checks(&self) -> u64 {
        self.bound_checks
    }

    /// Session-machine steps replayed through the protocol spec so
    /// far (the RA023 conformance witness).
    pub fn conformance_checks(&self) -> u64 {
        self.conformance_checks
    }

    /// Replays one explored collector step through `n`'s session
    /// machine; an undefined transition is an RA023 finding — the
    /// model checker reached a control-plane step the protocol spec
    /// does not allow.
    fn step_session(&mut self, n: NodeId, event: SessionEvent, findings: &mut Vec<Finding>) {
        self.conformance_checks += 1;
        let m = self.sessions.entry(n).or_default();
        let state = m.state();
        if m.step(event).is_none() {
            if let Some(mut f) = mc_finding(
                remo_audit::rules::UNEXPECTED_MESSAGE,
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

    /// The harness's independent running loss total.
    pub fn values_lost(&self) -> u64 {
        self.values_lost
    }

    /// Targeted reconfigurations implied by plan repairs so far.
    pub fn reconfigures(&self) -> u64 {
        self.reconfigures
    }

    /// The live planner under check.
    pub fn planner(&self) -> &AdaptivePlanner {
        &self.planner
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

    /// Recomputes assignments from the current plan (the deployment's
    /// own derivation) and counts the targeted reconfigurations the
    /// diff implies.
    fn rediff(&mut self) {
        let fresh = plan_assignments(
            self.planner.plan(),
            self.planner.pairs(),
            self.planner.catalog(),
        );
        self.reconfigures += changed_assignments(&self.assignments, &fresh).len() as u64;
        self.assignments = fresh;
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
                let reporters: BTreeSet<NodeId> = self
                    .spec
                    .node_ids()
                    .filter(|n| !self.down.contains(n))
                    .collect();
                let events = self.health.observe(self.epoch, &reporters);
                // Conformance cross-check: replay the collector's
                // epoch through each session machine — tick fan-out
                // reaches the connected (non-crashed) nodes, reports
                // credit the barrier, silent nodes miss the deadline,
                // and the detector's verdicts confirm/reintegrate.
                let nodes: Vec<NodeId> = self.spec.node_ids().collect();
                for &n in &nodes {
                    if !self.down.contains(&n) {
                        self.step_session(n, SessionEvent::SendTick, &mut findings);
                        self.step_session(n, SessionEvent::RecvReportFresh, &mut findings);
                    } else {
                        self.step_session(n, SessionEvent::MissDeadline, &mut findings);
                    }
                }
                for &n in &events.confirmed {
                    self.step_session(n, SessionEvent::ConfirmDead, &mut findings);
                }
                for &n in &events.recovered {
                    self.step_session(n, SessionEvent::MarkRecovered, &mut findings);
                }
                // Loss accounting, verbatim from the epoch close:
                // unhealthy nodes are charged the readings their
                // current assignments schedule this epoch.
                for (&node, assigns) in self.assignments.iter() {
                    if self.health.state(node) == HealthState::Healthy {
                        continue;
                    }
                    let due = due_readings(assigns, self.epoch);
                    if due > 0 {
                        self.health.add_values_lost(node, due);
                        self.values_lost += due;
                    }
                }
                for n in events.confirmed {
                    self.pending_repair.insert(n);
                }
                if !events.recovered.is_empty() {
                    for &n in &events.recovered {
                        // A node that reports again cancels any
                        // still-queued repair and reintegrates at its
                        // original capacity (RepairEngine::repair).
                        self.pending_repair.remove(&n);
                        let cap = self.original_caps.node(n).unwrap_or(0.0);
                        self.planner.handle_node_recovery(n, cap, self.epoch);
                        self.recoveries += 1;
                    }
                    self.rediff();
                }
            }
            Event::Repair(n) => {
                self.pending_repair.remove(&n);
                self.step_session(n, SessionEvent::Repair, &mut findings);
                self.planner.handle_node_failure(n, self.epoch);
                // RA014: a completed repair is a fixpoint — applying
                // the same failure again must change nothing.
                let mut again = self.planner.clone();
                again.handle_node_failure(n, self.epoch);
                let drift = again.plan().edge_diff(self.planner.plan());
                if drift != 0
                    || again.plan().collected_pairs() != self.planner.plan().collected_pairs()
                {
                    if let Some(mut f) = mc_finding(
                        remo_audit::rules::REPAIR_IDEMPOTENT,
                        format!(
                            "re-applying the repair of node {n} moved {drift} edges and changed \
                             collected pairs {} → {}",
                            self.planner.plan().collected_pairs(),
                            again.plan().collected_pairs()
                        ),
                    ) {
                        f.node = Some(n);
                        findings.push(f);
                    }
                }
                self.rediff();
                self.health.mark_repaired(n, self.epoch);
            }
        }
        findings.extend(self.check());
        findings
    }

    /// Re-proves every state invariant, returning the findings.
    fn check(&mut self) -> Vec<Finding> {
        let mut findings = Vec::new();

        // Audit-clean: the full RA001–RA010 registry over the live
        // planner state, with the planner's own accounting flags.
        findings.extend(
            self.planner
                .audit()
                .findings
                .into_iter()
                .filter(|f| f.severity == Severity::Error),
        );

        // RA011 cross-layer: the assignments the harness would have
        // pushed to agents faithfully implement the current plan.
        findings.extend(cross::check_assignments(
            self.planner.plan(),
            self.planner.pairs(),
            self.planner.catalog(),
            &self.assignments,
            &RuleSet::all(),
        ));

        // RA018 cross-check: every explored plan state must sit inside
        // the static analyzer's shape-independent usage intervals —
        // upper ends always, lower ends whenever the plan collects the
        // full original demand (the lo bound is conditional on full
        // collection).
        let usage = self.planner.plan().node_usage();
        let full_collection = self.planner.plan().collected_pairs() == self.planner.pairs().len();
        for (&n, iv) in &self.static_bounds.per_node {
            let u = usage.get(&n).copied().unwrap_or(0.0);
            self.bound_checks += 1;
            if u > iv.hi() * (1.0 + 1e-6) {
                if let Some(mut f) = mc_finding(
                    remo_audit::rules::STATIC_INFEASIBLE_CAPACITY,
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
                if let Some(mut f) = mc_finding(
                    remo_audit::rules::STATIC_INFEASIBLE_CAPACITY,
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
        let collector = self.planner.plan().collector_usage();
        if collector > self.static_bounds.collector.hi() * (1.0 + 1e-6)
            || (full_collection && collector < self.static_bounds.collector.lo() * (1.0 - 1e-6))
        {
            if let Some(mut f) = mc_finding(
                remo_audit::rules::STATIC_INFEASIBLE_CAPACITY,
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
            if self.health.state(n) != HealthState::Dead || self.pending_repair.contains(&n) {
                continue;
            }
            let usage = self
                .planner
                .plan()
                .node_usage()
                .get(&n)
                .copied()
                .unwrap_or(0.0);
            if usage > 0.0 {
                if let Some(mut f) = mc_finding(
                    remo_audit::rules::REPAIR_CAPACITY,
                    format!("repaired node {n} still carries {usage:.2} load in the plan"),
                ) {
                    f.node = Some(n);
                    f.actual = Some(usage);
                    f.limit = Some(0.0);
                    findings.push(f);
                }
            }
            if self.assignments.get(&n).is_some_and(|a| !a.is_empty()) {
                if let Some(mut f) = mc_finding(
                    remo_audit::rules::REPAIR_CAPACITY,
                    format!("repaired node {n} still holds tree assignments"),
                ) {
                    f.node = Some(n);
                    findings.push(f);
                }
            }
        }

        // RA015: once every failed node has recovered and no repair is
        // pending, the plan must be back near the original.
        if self.recoveries > 0 && self.down.is_empty() && self.pending_repair.is_empty() {
            let collected = self.planner.plan().collected_pairs();
            if collected + (self.cfg.pair_slack as usize) < self.baseline_pairs {
                if let Some(mut f) = mc_finding(
                    remo_audit::rules::RECOVERY_CONVERGENCE,
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
            let volume = self.planner.plan().message_volume();
            let limit = self.baseline_volume * self.cfg.volume_tolerance;
            if volume > limit + 1e-9 {
                if let Some(mut f) = mc_finding(
                    remo_audit::rules::RECOVERY_CONVERGENCE,
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

        // RA016: the harness's independent loss total and the health
        // telemetry must agree, and the telemetry must be monotone.
        let reported = self.health.report(self.epoch).total_values_lost();
        if reported != self.values_lost {
            if let Some(mut f) = mc_finding(
                remo_audit::rules::VALUE_LOSS_ACCOUNTING,
                format!(
                    "health telemetry reports {reported} values lost, harness accounted {}",
                    self.values_lost
                ),
            ) {
                f.actual = Some(reported as f64);
                f.limit = Some(self.values_lost as f64);
                findings.push(f);
            }
        }
        if reported < self.last_reported_lost {
            if let Some(mut f) = mc_finding(
                remo_audit::rules::VALUE_LOSS_ACCOUNTING,
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
                self.health.state(n),
                self.health.consecutive_misses(n)
            ));
        }
        for (n, c) in self.planner.caps().iter() {
            text.push_str(&format!("c{}:{}|", n.0, c.to_bits()));
        }
        for (n, m) in &self.sessions {
            text.push_str(&format!("s{}:{:?}|", n.0, m.state()));
        }
        if let Ok(plan) = serde_json::to_string(self.planner.plan()) {
            text.push_str(&plan);
        }
        for (n, assigns) in &self.assignments {
            text.push_str(&format!("a{}:{:?}|", n.0, assigns));
        }
        fnv1a(text.as_bytes())
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
            h.conformance_checks() > 0,
            "the cycle must replay through the protocol spec"
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
