//! Whole-plan static analysis: a rule registry that re-proves every
//! paper invariant from scratch.
//!
//! The planner maintains its invariants *by construction*; this module
//! recomputes them independently so a plan that crossed a
//! serialization boundary, was repaired by the self-healing runtime,
//! or was rewritten for reliability can be re-verified. Every
//! invariant is a named, individually-toggleable rule (see [`RULES`])
//! with a stable code, a default severity, the paper section it comes
//! from, and a fix-hint.
//!
//! The entry point is [`Audit::run`] over an [`AuditInput`].
//!
//! # Examples
//!
//! ```
//! use remo_core::{CapacityMap, CostModel, NodeId, AttrId, PairSet, AttrCatalog};
//! use remo_core::planner::Planner;
//! use remo_core::validate::{Audit, AuditInput};
//!
//! # fn main() -> Result<(), remo_core::PlanError> {
//! let caps = CapacityMap::uniform(8, 30.0, 200.0)?;
//! let pairs: PairSet = (0..8).map(|n| (NodeId(n), AttrId(0))).collect();
//! let catalog = AttrCatalog::new();
//! let cost = CostModel::default();
//! let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
//! let outcome = Audit::new().run(&AuditInput::new(&plan, &pairs, &caps, cost, &catalog));
//! assert!(outcome.is_clean());
//! # Ok(())
//! # }
//! ```

use crate::attribute::AttrCatalog;
use crate::capacity::CapacityMap;
use crate::cost::CostModel;
use crate::ids::{AttrId, NodeId};
use crate::pairs::PairSet;
use crate::plan::MonitoringPlan;
use crate::reliability::ReliabilityRewrite;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Relative/absolute tolerance for comparing recorded vs. recomputed
/// cost figures.
const TOL: f64 = 1e-6;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * 1f64.max(a.abs()).max(b.abs())
}

// ------------------------------------------------------------------ registry

/// How bad a finding is.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum Severity {
    /// Informational; never fails an audit.
    Info,
    /// Suspicious but legal; advisory.
    #[default]
    Warn,
    /// A paper invariant is broken; the plan must not be deployed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable rule names (use these instead of string literals).
pub mod rules {
    /// Recomputed per-node / collector usage within capacity budgets.
    pub const CAPACITY_BUDGET: &str = "capacity-budget";
    /// Partition sets are non-empty, pairwise disjoint, and parallel
    /// to the planned trees.
    pub const PARTITION_DISJOINT: &str = "partition-disjoint";
    /// Demanded pairs are planned and per-tree pair bookkeeping
    /// matches the structure.
    pub const PAIR_COVERAGE: &str = "pair-coverage";
    /// Every tree is structurally valid (single root, consistent
    /// indexes, acyclic).
    pub const TREE_ACYCLIC: &str = "tree-acyclic";
    /// Recorded per-tree usage equals the recomputed allocation.
    pub const ALLOC_CONSERVATION: &str = "alloc-conservation";
    /// Recorded message volume matches the `C + a·x` cost model.
    pub const COST_MODEL_ACCOUNTING: &str = "cost-model-accounting";
    /// Reliability aliases and forbidden pairs are respected.
    pub const RELIABILITY_ALIAS_CONSISTENCY: &str = "reliability-alias-consistency";
    /// Adaptation never loses coverage on surviving nodes.
    pub const ADAPTATION_MONOTONIC: &str = "adaptation-monotonic";
    /// A tree member neither samples nor relays anything.
    pub const IDLE_MEMBER: &str = "idle-member";
    /// A tree member relays for children but samples nothing itself.
    pub const RELAY_ONLY: &str = "relay-only";
    /// Runtime assignments faithfully implement the plan (checked by
    /// the audit's cross-layer pass in `remo-check`).
    pub const DEPLOYMENT_ROUTE_FIDELITY: &str = "deployment-route-fidelity";
    /// Failure schedules are self-consistent (checked by the audit's
    /// cross-layer pass in `remo-check`).
    pub const FAILURE_SCHEDULE_CONSISTENT: &str = "failure-schedule-consistent";
    /// Nodes confirmed dead carry no load while their repair is in
    /// flight (checked by the `remo-check mc` model checker).
    pub const REPAIR_CAPACITY: &str = "repair-capacity";
    /// Re-applying a completed failure repair changes nothing
    /// (checked by the `remo-check mc` model checker).
    pub const REPAIR_IDEMPOTENT: &str = "repair-idempotent";
    /// After every failed node recovers, the plan converges back to a
    /// cost-equivalent of the original (checked by the `remo-check mc`
    /// model checker).
    pub const RECOVERY_CONVERGENCE: &str = "recovery-convergence";
    /// Values lost to failures are accounted monotonically and agree
    /// with the health telemetry (checked by the `remo-check mc` model
    /// checker).
    pub const VALUE_LOSS_ACCOUNTING: &str = "value-loss-accounting";
    /// Effective per-attribute reporting intervals (sampling period ×
    /// runtime degrade factor) stay within the declared staleness SLO.
    pub const STALENESS_BOUND: &str = "staleness-bound";
    /// Even the cheapest legal plan shape (one message, maximal
    /// piggybacking, every funnel applied) overruns a node or
    /// collector budget — no plan can exist (checked pre-flight by
    /// `remo-check static`).
    pub const STATIC_INFEASIBLE_CAPACITY: &str = "static-infeasible-capacity";
    /// The declared staleness SLO cannot be met under the declared
    /// `NetSpec` — a permanent partition or dead link cuts demanded
    /// traffic, or the SLO is below the network's guaranteed minimum
    /// latency (checked pre-flight by `remo-check static`).
    pub const SLO_UNREACHABLE_UNDER_NETSPEC: &str = "slo-unreachable-under-netspec";
    /// The power-of-two backpressure loop has no fixed point: even at
    /// the maximum degrade level the collector's worst-case arrival
    /// rate exceeds its service rate (checked pre-flight by
    /// `remo-check static`).
    pub const DEGRADE_DIVERGENCE: &str = "degrade-divergence";
    /// With degradation disabled (or absent), worst-case arrivals
    /// exceed collector service, so the bounded ingress queue stays
    /// full and only shedding keeps it finite (checked pre-flight by
    /// `remo-check static`).
    pub const UNBOUNDED_QUEUE: &str = "unbounded-queue";
    /// The control-plane product automaton reaches a state where no
    /// role can make progress toward quiescence (checked by the
    /// `remo-check proto` protocol verifier).
    pub const PROTOCOL_DEADLOCK: &str = "protocol-deadlock";
    /// A reachable state delivers a message its role's transition
    /// table does not define — or treats a stale frame as fresh
    /// evidence (checked by the `remo-check proto` protocol verifier).
    pub const UNEXPECTED_MESSAGE: &str = "unexpected-message";
    /// Incarnation numbers assigned across node restarts regress or
    /// repeat, or a fresh-incarnation frame is swallowed by the dedup
    /// lattice (checked by the `remo-check proto` protocol verifier).
    pub const INCARNATION_REGRESSION: &str = "incarnation-regression";
    /// The ARQ sender exceeds its declared unacked window, or a
    /// control channel exceeds its declared bound (checked by the
    /// `remo-check proto` protocol verifier).
    pub const UNBOUNDED_INFLIGHT: &str = "unbounded-inflight";
}

/// The four analyzers of the `remo-check` crate and CLI. Every rule is
/// checked by exactly one of them ([`RuleMeta::owner`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Analyzer {
    /// Whole-plan audit of a serialized bundle (`remo-check audit`).
    Audit,
    /// Bounded model checking of self-healing (`remo-check mc`).
    Mc,
    /// Pre-flight abstract interpretation of a spec (`remo-check static`).
    Static,
    /// Exhaustive control-plane verification (`remo-check proto`).
    Proto,
}

/// Static description of one audit rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleMeta {
    /// Stable kebab-case rule name.
    pub name: &'static str,
    /// Stable short code (`RA…`), for machine consumption.
    pub code: &'static str,
    /// The analyzer that checks it.
    pub owner: Analyzer,
    /// Default severity (overridable per [`RuleSet`]).
    pub severity: Severity,
    /// Paper section the invariant comes from.
    pub paper_section: &'static str,
    /// One-line statement of the invariant.
    pub summary: &'static str,
    /// How to fix a violation.
    pub fix_hint: &'static str,
}

/// The full rule registry, in code order.
pub const RULES: &[RuleMeta] = &[
    RuleMeta {
        name: rules::CAPACITY_BUDGET,
        code: "RA001",
        owner: Analyzer::Audit,
        severity: Severity::Error,
        paper_section: "§3.2",
        summary: "recomputed node and collector usage stays within capacity budgets",
        fix_hint: "re-plan with the audited capacities, or raise the offending budget",
    },
    RuleMeta {
        name: rules::PARTITION_DISJOINT,
        code: "RA002",
        owner: Analyzer::Audit,
        severity: Severity::Error,
        paper_section: "§3.1",
        summary: "attribute partition sets are non-empty, disjoint, and parallel to the trees",
        fix_hint: "rebuild the plan; the partition was corrupted after planning",
    },
    RuleMeta {
        name: rules::PAIR_COVERAGE,
        code: "RA003",
        owner: Analyzer::Audit,
        severity: Severity::Error,
        paper_section: "§2, §3.2",
        summary: "demanded pairs are planned and pair bookkeeping matches the structures",
        fix_hint: "re-plan against the current demand (a task changed after planning)",
    },
    RuleMeta {
        name: rules::TREE_ACYCLIC,
        code: "RA004",
        owner: Analyzer::Audit,
        severity: Severity::Error,
        paper_section: "§3.2",
        summary: "every collection tree is a rooted acyclic tree with consistent indexes",
        fix_hint: "rebuild the tree; its parent/children indexes were corrupted",
    },
    RuleMeta {
        name: rules::ALLOC_CONSERVATION,
        code: "RA005",
        owner: Analyzer::Audit,
        severity: Severity::Error,
        paper_section: "§5",
        summary: "recorded per-tree usage equals the recomputed capacity allocation",
        fix_hint: "re-evaluate the plan; recorded usage diverged from the tree structures",
    },
    RuleMeta {
        name: rules::COST_MODEL_ACCOUNTING,
        code: "RA006",
        owner: Analyzer::Audit,
        severity: Severity::Error,
        paper_section: "§2.3",
        summary: "recorded message volume matches the C + a·x per-message cost model",
        fix_hint: "re-evaluate the plan with the audited cost model parameters",
    },
    RuleMeta {
        name: rules::RELIABILITY_ALIAS_CONSISTENCY,
        code: "RA007",
        owner: Analyzer::Audit,
        severity: Severity::Error,
        paper_section: "§6.2",
        summary: "alias replicas land in distinct trees and forbidden pairs never share a set",
        fix_hint: "pass the rewrite's forbidden_pairs into PlannerConfig and re-plan",
    },
    RuleMeta {
        name: rules::ADAPTATION_MONOTONIC,
        code: "RA008",
        owner: Analyzer::Audit,
        severity: Severity::Warn,
        paper_section: "§4.2",
        summary: "adaptation does not lose coverage on surviving nodes",
        fix_hint: "widen the adaptation search (candidates/rounds) or rebuild from scratch",
    },
    RuleMeta {
        name: rules::IDLE_MEMBER,
        code: "RA009",
        owner: Analyzer::Audit,
        severity: Severity::Warn,
        paper_section: "§3.2",
        summary: "every tree member samples or relays at least one attribute",
        fix_hint: "prune the member; it spends budget without contributing pairs",
    },
    RuleMeta {
        name: rules::RELAY_ONLY,
        code: "RA010",
        owner: Analyzer::Audit,
        severity: Severity::Info,
        paper_section: "§3.2",
        summary: "members that only relay are surfaced (legal, but costs without local pairs)",
        fix_hint: "no action needed; consider reattaching children to a sampling member",
    },
    RuleMeta {
        name: rules::DEPLOYMENT_ROUTE_FIDELITY,
        code: "RA011",
        owner: Analyzer::Audit,
        severity: Severity::Error,
        paper_section: "§3.2",
        summary: "runtime tree assignments mirror the plan's routes, samples, and funnels",
        fix_hint: "redeploy from the audited plan; assignments drifted from it",
    },
    RuleMeta {
        name: rules::FAILURE_SCHEDULE_CONSISTENT,
        code: "RA012",
        owner: Analyzer::Audit,
        severity: Severity::Warn,
        paper_section: "§6.2",
        summary: "scripted outages have non-empty windows, real targets, and no duplicates",
        fix_hint: "fix the outage windows/targets in the failure schedule",
    },
    RuleMeta {
        name: rules::REPAIR_CAPACITY,
        code: "RA013",
        owner: Analyzer::Mc,
        severity: Severity::Error,
        paper_section: "§4.2",
        summary: "confirmed-dead nodes carry no monitoring load while repair is in flight",
        fix_hint: "handle_node_failure must zero the node's capacity before re-planning",
    },
    RuleMeta {
        name: rules::REPAIR_IDEMPOTENT,
        code: "RA014",
        owner: Analyzer::Mc,
        severity: Severity::Error,
        paper_section: "§4.2",
        summary: "re-applying a completed failure repair leaves the plan unchanged",
        fix_hint: "make repair a fixpoint: a second handle_node_failure must be a no-op",
    },
    RuleMeta {
        name: rules::RECOVERY_CONVERGENCE,
        code: "RA015",
        owner: Analyzer::Mc,
        severity: Severity::Error,
        paper_section: "§4.2, §7.4",
        summary: "after all failed nodes recover, coverage and cost return near the original",
        fix_hint: "widen the restricted search after recovery, or rebuild from scratch",
    },
    RuleMeta {
        name: rules::VALUE_LOSS_ACCOUNTING,
        code: "RA016",
        owner: Analyzer::Mc,
        severity: Severity::Error,
        paper_section: "§7.4",
        summary: "lost-value accounting is monotone and agrees with health telemetry",
        fix_hint: "charge add_values_lost exactly once per missed scheduled reading",
    },
    RuleMeta {
        name: rules::STALENESS_BOUND,
        code: "RA017",
        owner: Analyzer::Audit,
        severity: Severity::Warn,
        paper_section: "§2.3",
        summary: "effective reporting intervals stay within the declared staleness SLO",
        fix_hint: "raise the attribute's update frequency, relax the SLO, or relieve \
                   collector backpressure so the degrade factor returns to 1",
    },
    RuleMeta {
        name: rules::STATIC_INFEASIBLE_CAPACITY,
        code: "RA018",
        owner: Analyzer::Static,
        severity: Severity::Error,
        paper_section: "§2.3, §3.2",
        summary: "the best-case symbolic plan cost fits every node and collector budget",
        fix_hint: "raise the offending budget, drop attributes from the task, or lower \
                   the per-message overhead C; no partition shape can fix this",
    },
    RuleMeta {
        name: rules::SLO_UNREACHABLE_UNDER_NETSPEC,
        code: "RA019",
        owner: Analyzer::Static,
        severity: Severity::Error,
        paper_section: "§2.3",
        summary: "the staleness SLO is reachable under the declared network fault model",
        fix_hint: "remove the permanent partition / dead link from the NetSpec, relax \
                   the SLO, or widen the ARQ retry budget past the fault window",
    },
    RuleMeta {
        name: rules::DEGRADE_DIVERGENCE,
        code: "RA020",
        owner: Analyzer::Static,
        severity: Severity::Warn,
        paper_section: "§5",
        summary: "the collector backpressure loop converges to a finite degrade level",
        fix_hint: "raise collector capacity, lower per-message overhead, or raise \
                   max_degrade_level so interval widening can catch up with arrivals",
    },
    RuleMeta {
        name: rules::UNBOUNDED_QUEUE,
        code: "RA021",
        owner: Analyzer::Static,
        severity: Severity::Warn,
        paper_section: "§5",
        summary: "the collector ingress queue is bounded without load shedding",
        fix_hint: "enable degradation (max_degrade_level > 0), raise collector \
                   capacity, or accept shedding as the steady-state overload response",
    },
    RuleMeta {
        name: rules::PROTOCOL_DEADLOCK,
        code: "RA022",
        owner: Analyzer::Proto,
        severity: Severity::Error,
        paper_section: "§4.2",
        summary: "every reachable control-plane state can make progress toward quiescence",
        fix_hint: "add the missing transition (usually a ConnLost / Shutdown handler) so \
                   the stuck role can drain; re-run `remo-check proto verify` on the spec",
    },
    RuleMeta {
        name: rules::UNEXPECTED_MESSAGE,
        code: "RA023",
        owner: Analyzer::Proto,
        severity: Severity::Error,
        paper_section: "§4.2",
        summary: "no reachable state delivers a message its transition table leaves undefined",
        fix_hint: "define the (state, message) entry — handle, ignore, or reject it \
                   explicitly — and never credit stale reports as fresh attendance",
    },
    RuleMeta {
        name: rules::INCARNATION_REGRESSION,
        code: "RA024",
        owner: Analyzer::Proto,
        severity: Severity::Error,
        paper_section: "§4.2, §7.4",
        summary: "incarnations grow strictly across restarts and never swallow fresh frames",
        fix_hint: "bump the collector's incarnation slot on every fresh Hello and scope \
                   sequence dedup to the frame's incarnation",
    },
    RuleMeta {
        name: rules::UNBOUNDED_INFLIGHT,
        code: "RA025",
        owner: Analyzer::Proto,
        severity: Severity::Error,
        paper_section: "§2.3, §5",
        summary: "unacked ARQ frames and control queues stay within their declared bounds",
        fix_hint: "enforce the send window before emitting new frames and cap control \
                   fan-out per epoch",
    },
];

/// Looks up a rule by name.
pub fn rule(name: &str) -> Option<&'static RuleMeta> {
    RULES.iter().find(|r| r.name == name)
}

/// Which rules run, and at what severity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleSet {
    disabled: BTreeSet<String>,
    severities: BTreeMap<String, Severity>,
}

impl RuleSet {
    /// Every rule enabled at its default severity.
    pub fn all() -> Self {
        RuleSet::default()
    }

    /// Only the rules whose default severity is [`Severity::Error`].
    pub fn errors_only() -> Self {
        let mut rs = RuleSet::default();
        for r in RULES {
            if r.severity != Severity::Error {
                rs.disable(r.name);
            }
        }
        rs
    }

    /// Turns a rule off.
    pub fn disable(&mut self, name: &str) -> &mut Self {
        self.disabled.insert(name.to_string());
        self
    }

    /// Turns a rule back on.
    pub fn enable(&mut self, name: &str) -> &mut Self {
        self.disabled.remove(name);
        self
    }

    /// Overrides a rule's severity.
    pub fn set_severity(&mut self, name: &str, severity: Severity) -> &mut Self {
        self.severities.insert(name.to_string(), severity);
        self
    }

    /// Whether a rule runs.
    pub fn is_enabled(&self, name: &str) -> bool {
        !self.disabled.contains(name)
    }

    /// The effective severity of a rule.
    pub fn severity(&self, meta: &RuleMeta) -> Severity {
        self.severities
            .get(meta.name)
            .copied()
            .unwrap_or(meta.severity)
    }

    /// A finding of the rule `name` at this set's severity for it —
    /// the one way every analyzer turns a rule name into a [`Finding`].
    /// `None` when the set disables the rule (or no rule has that name,
    /// which `registry_is_consistent` rules out for every [`rules`]
    /// constant).
    pub fn finding(&self, name: &str, message: String) -> Option<Finding> {
        let meta = rule(name).filter(|_| self.is_enabled(name))?;
        Some(Finding {
            severity: self.severity(meta),
            ..Finding::new(meta, message)
        })
    }
}

// ------------------------------------------------------------------ findings

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Rule name (see [`rules`]).
    pub rule: String,
    /// Stable rule code (`RA…`).
    pub code: String,
    /// Effective severity.
    pub severity: Severity,
    /// Human-readable description of the violation.
    pub message: String,
    /// Offending tree index, if tree-scoped.
    #[serde(default)]
    pub tree: Option<usize>,
    /// Offending node, if node-scoped.
    #[serde(default)]
    pub node: Option<NodeId>,
    /// Offending attribute, if attribute-scoped.
    #[serde(default)]
    pub attr: Option<AttrId>,
    /// Measured quantity (usage, recorded figure, …), when numeric.
    #[serde(default)]
    pub actual: Option<f64>,
    /// The bound or expected quantity, when numeric.
    #[serde(default)]
    pub limit: Option<f64>,
    /// How to fix it.
    pub fix_hint: String,
}

impl Finding {
    /// A finding of the registry row `meta` at its default severity,
    /// scoped to no tree, node or attribute and carrying no figures;
    /// callers fill in the rest with struct-update syntax.
    pub fn new(meta: &RuleMeta, message: String) -> Self {
        Finding {
            rule: meta.name.to_string(),
            code: meta.code.to_string(),
            severity: meta.severity,
            message,
            fix_hint: meta.fix_hint.to_string(),
            ..Finding::default()
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.rule, self.message
        )
    }
}

/// Result of a full audit.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AuditOutcome {
    /// All findings, in rule order.
    pub findings: Vec<Finding>,
    /// Recomputed aggregate per-node usage.
    pub node_usage: BTreeMap<NodeId, f64>,
    /// Recomputed collector usage.
    pub collector_usage: f64,
}

impl AuditOutcome {
    /// `true` when no error-severity finding was produced.
    pub fn is_clean(&self) -> bool {
        !self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
    }

    /// The findings of one rule.
    pub fn of_rule<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Finding> {
        self.findings.iter().filter(move |f| f.rule == name)
    }

    /// Human diagnostics: one line per finding plus its fix-hint.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
            if !f.fix_hint.is_empty() {
                out.push_str("  = help: ");
                out.push_str(&f.fix_hint);
                out.push('\n');
            }
        }
        out
    }
}

// ------------------------------------------------------------------ input

/// Everything an audit runs against: the plan, the demand and budgets
/// it claims to satisfy, and optional cross-cutting artifacts.
#[derive(Debug, Clone, Copy)]
pub struct AuditInput<'a> {
    plan: &'a MonitoringPlan,
    pairs: &'a PairSet,
    caps: &'a CapacityMap,
    cost: CostModel,
    catalog: &'a AttrCatalog,
    aggregation_aware: bool,
    frequency_aware: bool,
    rewrite: Option<&'a ReliabilityRewrite>,
    predecessor: Option<&'a MonitoringPlan>,
    failed: Option<&'a BTreeSet<NodeId>>,
    staleness_slo: Option<f64>,
    degrade_factor: f64,
}

impl<'a> AuditInput<'a> {
    /// An input with no optional artifacts; funnels are applied
    /// (matching the legacy audit), frequency weighting is off.
    pub fn new(
        plan: &'a MonitoringPlan,
        pairs: &'a PairSet,
        caps: &'a CapacityMap,
        cost: CostModel,
        catalog: &'a AttrCatalog,
    ) -> Self {
        AuditInput {
            plan,
            pairs,
            caps,
            cost,
            catalog,
            aggregation_aware: true,
            frequency_aware: false,
            rewrite: None,
            predecessor: None,
            failed: None,
            staleness_slo: None,
            degrade_factor: 1.0,
        }
    }

    /// Sets whether loads are recomputed with aggregation funnels
    /// (must match how the plan was built for the exact-accounting
    /// rules to hold).
    pub fn aggregation_aware(mut self, on: bool) -> Self {
        self.aggregation_aware = on;
        self
    }

    /// Sets whether loads are weighted by update frequency (must match
    /// how the plan was built).
    pub fn frequency_aware(mut self, on: bool) -> Self {
        self.frequency_aware = on;
        self
    }

    /// Attaches a reliability rewrite, enabling
    /// [`rules::RELIABILITY_ALIAS_CONSISTENCY`].
    pub fn with_rewrite(mut self, rewrite: &'a ReliabilityRewrite) -> Self {
        self.rewrite = Some(rewrite);
        self
    }

    /// Attaches the plan this one was adapted from (and the nodes that
    /// failed in between), enabling [`rules::ADAPTATION_MONOTONIC`].
    pub fn with_predecessor(
        mut self,
        predecessor: &'a MonitoringPlan,
        failed: &'a BTreeSet<NodeId>,
    ) -> Self {
        self.predecessor = Some(predecessor);
        self.failed = Some(failed);
        self
    }

    /// Declares a staleness SLO in epochs, enabling
    /// [`rules::STALENESS_BOUND`]: every demanded attribute's
    /// effective reporting interval must stay within it.
    pub fn with_staleness_slo(mut self, slo: f64) -> Self {
        self.staleness_slo = Some(slo);
        self
    }

    /// Sets the runtime degrade factor (the collector-backpressure
    /// reporting-interval multiplier; 1 when the runtime is healthy).
    /// Only meaningful together with [`AuditInput::with_staleness_slo`].
    pub fn with_degrade_factor(mut self, factor: f64) -> Self {
        self.degrade_factor = factor;
        self
    }
}

// ------------------------------------------------------------------ engine

/// The audit engine: a [`RuleSet`] plus the analysis passes.
#[derive(Debug, Clone, Default)]
pub struct Audit {
    rules: RuleSet,
}

struct Emitter<'r> {
    rules: &'r RuleSet,
    findings: Vec<Finding>,
}

impl Emitter<'_> {
    fn emit(&mut self, name: &str, message: String) -> Option<&mut Finding> {
        let finding = self.rules.finding(name, message)?;
        self.findings.push(finding);
        self.findings.last_mut()
    }
}

impl Audit {
    /// An audit running every rule at its default severity.
    pub fn new() -> Self {
        Audit::default()
    }

    /// The active rule configuration.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Mutable access to the rule configuration.
    pub fn rules_mut(&mut self) -> &mut RuleSet {
        &mut self.rules
    }

    /// Runs every enabled rule over `input`.
    pub fn run(&self, input: &AuditInput<'_>) -> AuditOutcome {
        let mut em = Emitter {
            rules: &self.rules,
            findings: Vec::new(),
        };
        let mut outcome = AuditOutcome::default();

        self.check_partition(input, &mut em);
        self.check_unplanned(input, &mut em);
        self.check_trees(input, &mut em, &mut outcome);
        self.check_budgets(input, &mut em, &outcome);
        if let Some(rewrite) = input.rewrite {
            self.check_reliability(input, rewrite, &mut em);
        }
        if let Some(predecessor) = input.predecessor {
            self.check_adaptation(input, predecessor, &mut em);
        }
        if let Some(slo) = input.staleness_slo {
            self.check_staleness(input, slo, &mut em);
        }

        outcome.findings = em.findings;
        outcome
            .findings
            .sort_by(|a, b| b.severity.cmp(&a.severity).then(a.code.cmp(&b.code)));
        outcome
    }

    fn check_partition(&self, input: &AuditInput<'_>, em: &mut Emitter<'_>) {
        let sets = input.plan.partition().sets();
        if sets.len() != input.plan.trees().len() {
            em.emit(
                rules::PARTITION_DISJOINT,
                format!(
                    "plan has {} partition sets but {} planned trees",
                    sets.len(),
                    input.plan.trees().len()
                ),
            );
        }
        let mut seen: BTreeMap<AttrId, usize> = BTreeMap::new();
        for (k, set) in sets.iter().enumerate() {
            if set.is_empty() {
                if let Some(f) = em.emit(
                    rules::PARTITION_DISJOINT,
                    format!("partition set {k} is empty"),
                ) {
                    f.tree = Some(k);
                }
            }
            for &attr in set {
                if let Some(prev) = seen.insert(attr, k) {
                    if let Some(f) = em.emit(
                        rules::PARTITION_DISJOINT,
                        format!("attribute {attr} appears in partition sets {prev} and {k}"),
                    ) {
                        f.tree = Some(k);
                        f.attr = Some(attr);
                    }
                }
            }
        }
    }

    fn check_unplanned(&self, input: &AuditInput<'_>, em: &mut Emitter<'_>) {
        for attr in input.pairs.attrs() {
            if input.plan.partition().set_of(attr).is_none() {
                if let Some(f) = em.emit(
                    rules::PAIR_COVERAGE,
                    format!("attribute {attr} is demanded but in no partition set"),
                ) {
                    f.attr = Some(attr);
                }
            }
        }
    }

    /// Per-tree structural pass: recomputes loads bottom-up exactly as
    /// the evaluator does and checks every tree-scoped rule.
    fn check_trees(
        &self,
        input: &AuditInput<'_>,
        em: &mut Emitter<'_>,
        outcome: &mut AuditOutcome,
    ) {
        let weight = |attr: AttrId| -> f64 {
            if input.frequency_aware {
                input.catalog.get_or_default(attr).frequency()
            } else {
                1.0
            }
        };

        for (k, (set, planned)) in input
            .plan
            .partition()
            .sets()
            .iter()
            .zip(input.plan.trees())
            .enumerate()
        {
            // Demanded pairs follow from demand alone, tree or not.
            let demanded: usize = input
                .pairs
                .participants(set)
                .into_iter()
                .map(|n| input.pairs.node_load_in(n, set))
                .sum();
            if demanded != planned.demanded_pairs {
                if let Some(f) = em.emit(
                    rules::PAIR_COVERAGE,
                    format!(
                        "tree {k} records {} demanded pairs but demand implies {demanded}",
                        planned.demanded_pairs
                    ),
                ) {
                    f.tree = Some(k);
                    f.actual = Some(planned.demanded_pairs as f64);
                    f.limit = Some(demanded as f64);
                }
            }

            let Some(tree) = planned.tree.as_ref() else {
                if planned.collected_pairs != 0 {
                    if let Some(f) = em.emit(
                        rules::PAIR_COVERAGE,
                        format!(
                            "tree {k} is unbuilt but records {} collected pairs",
                            planned.collected_pairs
                        ),
                    ) {
                        f.tree = Some(k);
                        f.actual = Some(planned.collected_pairs as f64);
                        f.limit = Some(0.0);
                    }
                }
                if !planned.usage.is_empty() || planned.collector_usage.abs() > TOL {
                    if let Some(f) = em.emit(
                        rules::ALLOC_CONSERVATION,
                        format!("tree {k} is unbuilt but records nonzero usage"),
                    ) {
                        f.tree = Some(k);
                    }
                }
                if planned.message_volume.abs() > TOL {
                    if let Some(f) = em.emit(
                        rules::COST_MODEL_ACCOUNTING,
                        format!(
                            "tree {k} is unbuilt but records message volume {:.3}",
                            planned.message_volume
                        ),
                    ) {
                        f.tree = Some(k);
                        f.actual = Some(planned.message_volume);
                        f.limit = Some(0.0);
                    }
                }
                continue;
            };

            if !tree.is_valid() {
                if let Some(f) = em.emit(rules::TREE_ACYCLIC, format!("tree {k} is malformed")) {
                    f.tree = Some(k);
                }
                // Structure is unusable; skip the load recomputation.
                continue;
            }

            // Bottom-up traversal order.
            let mut order: Vec<NodeId> = Vec::new();
            let mut stack = vec![tree.root()];
            while let Some(n) = stack.pop() {
                order.push(n);
                stack.extend(tree.children(n).iter().copied());
            }
            order.reverse();

            // Per-node weighted outgoing values per attribute.
            let mut outgoing: BTreeMap<NodeId, BTreeMap<AttrId, f64>> = BTreeMap::new();
            let mut collected = 0usize;
            for &n in &order {
                let mut per_attr: BTreeMap<AttrId, f64> = BTreeMap::new();
                let local: Vec<AttrId> = input
                    .pairs
                    .attrs_of(n)
                    .map(|owned| owned.iter().copied().filter(|a| set.contains(a)).collect())
                    .unwrap_or_default();
                collected += local.len();
                for &attr in &local {
                    *per_attr.entry(attr).or_insert(0.0) += weight(attr);
                }
                let mut relays_anything = false;
                for c in tree.children(n) {
                    for (attr, v) in &outgoing[c] {
                        *per_attr.entry(*attr).or_insert(0.0) += v;
                        relays_anything = true;
                    }
                }
                if local.is_empty() {
                    let (name, what) = if relays_anything {
                        (rules::RELAY_ONLY, "relays for its children but samples")
                    } else {
                        (rules::IDLE_MEMBER, "neither relays nor samples")
                    };
                    if let Some(f) = em.emit(
                        name,
                        format!("node {n} in tree {k} {what} no attribute of the set"),
                    ) {
                        f.tree = Some(k);
                        f.node = Some(n);
                    }
                }
                if input.aggregation_aware {
                    for (attr, v) in per_attr.iter_mut() {
                        *v = input.catalog.get_or_default(*attr).aggregation().funnel(*v);
                    }
                }
                outgoing.insert(n, per_attr);
            }

            if collected != planned.collected_pairs {
                if let Some(f) = em.emit(
                    rules::PAIR_COVERAGE,
                    format!(
                        "tree {k} records {} collected pairs but the structure implies {collected}",
                        planned.collected_pairs
                    ),
                ) {
                    f.tree = Some(k);
                    f.actual = Some(planned.collected_pairs as f64);
                    f.limit = Some(collected as f64);
                }
            }

            // Excluded nodes must not also be members.
            for x in &planned.excluded {
                if tree.parent(*x).is_some() {
                    if let Some(f) = em.emit(
                        rules::ALLOC_CONSERVATION,
                        format!("node {x} is both a member and excluded from tree {k}"),
                    ) {
                        f.tree = Some(k);
                        f.node = Some(*x);
                    }
                }
            }

            // Usage: own send plus receive cost of children's sends.
            let send =
                |n: NodeId| -> f64 { input.cost.message_cost(outgoing[&n].values().sum::<f64>()) };
            let mut tree_usage: BTreeMap<NodeId, f64> = BTreeMap::new();
            let mut volume = 0.0;
            for &n in &order {
                let mut u = send(n);
                volume += send(n);
                for c in tree.children(n) {
                    u += send(*c);
                }
                tree_usage.insert(n, u);
            }
            let root_send = send(tree.root());

            // alloc-conservation: the recorded allocation must equal
            // the recomputation node-for-node.
            for (&n, &recorded) in &planned.usage {
                match tree_usage.get(&n) {
                    Some(&recomputed) if close(recorded, recomputed) => {}
                    Some(&recomputed) => {
                        if let Some(f) = em.emit(
                            rules::ALLOC_CONSERVATION,
                            format!(
                                "tree {k} records usage {recorded:.3} at node {n} \
                                 but the structure implies {recomputed:.3}"
                            ),
                        ) {
                            f.tree = Some(k);
                            f.node = Some(n);
                            f.actual = Some(recorded);
                            f.limit = Some(recomputed);
                        }
                    }
                    None => {
                        if let Some(f) = em.emit(
                            rules::ALLOC_CONSERVATION,
                            format!("tree {k} records usage at {n}, which is not a member"),
                        ) {
                            f.tree = Some(k);
                            f.node = Some(n);
                            f.actual = Some(recorded);
                        }
                    }
                }
                if recorded < -TOL {
                    if let Some(f) = em.emit(
                        rules::ALLOC_CONSERVATION,
                        format!("tree {k} records negative usage {recorded:.3} at node {n}"),
                    ) {
                        f.tree = Some(k);
                        f.node = Some(n);
                        f.actual = Some(recorded);
                    }
                }
            }
            for (&n, &recomputed) in &tree_usage {
                if !planned.usage.contains_key(&n) && recomputed > TOL {
                    if let Some(f) = em.emit(
                        rules::ALLOC_CONSERVATION,
                        format!(
                            "tree {k} member {n} incurs usage {recomputed:.3} \
                             that the plan does not record"
                        ),
                    ) {
                        f.tree = Some(k);
                        f.node = Some(n);
                        f.limit = Some(recomputed);
                    }
                }
            }
            if !close(planned.collector_usage, root_send) {
                if let Some(f) = em.emit(
                    rules::ALLOC_CONSERVATION,
                    format!(
                        "tree {k} records collector usage {:.3} but the root sends {root_send:.3}",
                        planned.collector_usage
                    ),
                ) {
                    f.tree = Some(k);
                    f.actual = Some(planned.collector_usage);
                    f.limit = Some(root_send);
                }
            }

            // cost-model-accounting: recorded volume vs Σ send costs.
            if !close(planned.message_volume, volume) {
                if let Some(f) = em.emit(
                    rules::COST_MODEL_ACCOUNTING,
                    format!(
                        "tree {k} records message volume {:.3} but C + a·x over its \
                         structure gives {volume:.3}",
                        planned.message_volume
                    ),
                ) {
                    f.tree = Some(k);
                    f.actual = Some(planned.message_volume);
                    f.limit = Some(volume);
                }
            }

            for (n, u) in tree_usage {
                *outcome.node_usage.entry(n).or_insert(0.0) += u;
            }
            outcome.collector_usage += root_send;
        }
    }

    fn check_budgets(&self, input: &AuditInput<'_>, em: &mut Emitter<'_>, outcome: &AuditOutcome) {
        for (&n, &u) in &outcome.node_usage {
            if let Some(b) = input.caps.node(n) {
                if u > b + TOL {
                    if let Some(f) = em.emit(
                        rules::CAPACITY_BUDGET,
                        format!("node {n} uses {u:.2} of budget {b:.2}"),
                    ) {
                        f.node = Some(n);
                        f.actual = Some(u);
                        f.limit = Some(b);
                    }
                }
            } else if let Some(f) = em.emit(
                rules::CAPACITY_BUDGET,
                format!("node {n} carries load but has no capacity entry"),
            ) {
                f.node = Some(n);
                f.actual = Some(u);
            }
        }
        if outcome.collector_usage > input.caps.collector() + TOL {
            if let Some(f) = em.emit(
                rules::CAPACITY_BUDGET,
                format!(
                    "collector uses {:.2} of budget {:.2}",
                    outcome.collector_usage,
                    input.caps.collector()
                ),
            ) {
                f.actual = Some(outcome.collector_usage);
                f.limit = Some(input.caps.collector());
            }
        }
    }

    fn check_reliability(
        &self,
        input: &AuditInput<'_>,
        rewrite: &ReliabilityRewrite,
        em: &mut Emitter<'_>,
    ) {
        let partition = input.plan.partition();
        for &(a, b) in &rewrite.forbidden_pairs {
            if let (Some(i), Some(j)) = (partition.set_of(a), partition.set_of(b)) {
                if i == j {
                    if let Some(f) = em.emit(
                        rules::RELIABILITY_ALIAS_CONSISTENCY,
                        format!("forbidden pair ({a}, {b}) shares partition set {i}"),
                    ) {
                        f.tree = Some(i);
                        f.attr = Some(a);
                    }
                }
            }
        }
        let mut owner: BTreeMap<AttrId, AttrId> = BTreeMap::new();
        for (&orig, ids) in &rewrite.aliases {
            if ids.first() != Some(&orig) {
                if let Some(f) = em.emit(
                    rules::RELIABILITY_ALIAS_CONSISTENCY,
                    format!("alias list of {orig} does not start with the original attribute"),
                ) {
                    f.attr = Some(orig);
                }
            }
            for &id in ids {
                if let Some(prev) = owner.insert(id, orig) {
                    if prev != orig {
                        if let Some(f) = em.emit(
                            rules::RELIABILITY_ALIAS_CONSISTENCY,
                            format!("attribute {id} is an alias of both {prev} and {orig}"),
                        ) {
                            f.attr = Some(id);
                        }
                    }
                }
            }
            // Replicas of one original must land in distinct trees.
            let mut used: BTreeMap<usize, AttrId> = BTreeMap::new();
            for &id in ids {
                if let Some(set) = partition.set_of(id) {
                    if let Some(&other) = used.get(&set) {
                        if let Some(f) = em.emit(
                            rules::RELIABILITY_ALIAS_CONSISTENCY,
                            format!(
                                "replicas {other} and {id} of attribute {orig} \
                                 share partition set {set}"
                            ),
                        ) {
                            f.tree = Some(set);
                            f.attr = Some(id);
                        }
                    }
                    used.insert(set, id);
                }
            }
        }
    }

    /// Staleness SLO: an attribute sampled with frequency f refreshes
    /// every `round(1/f)` epochs; under collector backpressure the
    /// runtime widens that interval by the degrade factor. The
    /// effective interval bounds how stale the collector's snapshot can
    /// be even on a perfectly healthy network, so an interval beyond
    /// the SLO means the demand can never be met as configured.
    fn check_staleness(&self, input: &AuditInput<'_>, slo: f64, em: &mut Emitter<'_>) {
        for attr in input.pairs.attrs() {
            let period = input.catalog.get_or_default(attr).period() as f64;
            let effective = period * input.degrade_factor.max(1.0);
            // Strictly-greater, with the audit's relative tolerance:
            // an SLO exactly equal to the effective interval is met
            // (the snapshot refreshes exactly on the deadline), so
            // equality must not warn at any magnitude.
            if effective > slo && !close(effective, slo) {
                if let Some(f) = em.emit(
                    rules::STALENESS_BOUND,
                    format!(
                        "attribute {attr} refreshes every {effective:.0} epochs \
                         (period {period:.0} × degrade {:.0}) but the staleness SLO is {slo:.0}",
                        input.degrade_factor.max(1.0)
                    ),
                ) {
                    f.attr = Some(attr);
                    f.actual = Some(effective);
                    f.limit = Some(slo);
                }
            }
        }
    }

    fn check_adaptation(
        &self,
        input: &AuditInput<'_>,
        predecessor: &MonitoringPlan,
        em: &mut Emitter<'_>,
    ) {
        let empty = BTreeSet::new();
        let failed = input.failed.unwrap_or(&empty);
        let surviving = |plan: &MonitoringPlan| -> usize {
            plan.partition()
                .sets()
                .iter()
                .zip(plan.trees())
                .filter_map(|(set, planned)| planned.tree.as_ref().map(|t| (set, t)))
                .map(|(set, tree)| {
                    tree.nodes()
                        .filter(|n| !failed.contains(n))
                        .map(|n| input.pairs.node_load_in(n, set))
                        .sum::<usize>()
                })
                .sum()
        };
        let before = surviving(predecessor);
        let after = surviving(input.plan);
        if after < before {
            if let Some(f) = em.emit(
                rules::ADAPTATION_MONOTONIC,
                format!(
                    "adaptation dropped surviving coverage from {before} to {after} pairs \
                     ({} nodes failed)",
                    failed.len()
                ),
            ) {
                f.actual = Some(after as f64);
                f.limit = Some(before as f64);
            }
        }
    }
}

/// Asserts that `plan` passes every error-severity rule; panics with
/// the rendered findings otherwise. Bench binaries call this after
/// planning so every reported figure comes from an audited plan.
///
/// # Panics
///
/// When the audit finds an error-severity violation.
pub fn assert_plan_clean(
    plan: &MonitoringPlan,
    pairs: &PairSet,
    caps: &CapacityMap,
    cost: CostModel,
    catalog: &AttrCatalog,
) {
    let outcome = Audit::new().run(&AuditInput::new(plan, pairs, caps, cost, catalog));
    assert!(
        outcome.is_clean(),
        "plan failed its audit:\n{}",
        outcome.render()
    );
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::plan::PlannedTree;
    use crate::planner::{PartitionScheme, Planner, PlannerConfig};
    use crate::tree::Tree;
    use crate::AttrInfo;
    use crate::Partition;

    fn dense_pairs(nodes: u32, attrs: u32) -> PairSet {
        (0..nodes)
            .flat_map(|n| (0..attrs).map(move |a| (NodeId(n), AttrId(a))))
            .collect()
    }

    fn audit(
        plan: &MonitoringPlan,
        pairs: &PairSet,
        caps: &CapacityMap,
        cost: CostModel,
        catalog: &AttrCatalog,
    ) -> AuditOutcome {
        Audit::new().run(&AuditInput::new(plan, pairs, caps, cost, catalog))
    }

    #[test]
    fn registry_is_consistent() {
        let mut codes = BTreeSet::new();
        let mut names = BTreeSet::new();
        for r in RULES {
            assert!(codes.insert(r.code), "duplicate code {}", r.code);
            assert!(names.insert(r.name), "duplicate name {}", r.name);
            assert!(!r.fix_hint.is_empty());
            assert!(!r.summary.is_empty());
        }
        assert_eq!(rule(rules::CAPACITY_BUDGET).map(|r| r.code), Some("RA001"));
        assert!(rule("no-such-rule").is_none());
        assert!(RuleSet::all()
            .finding("no-such-rule", String::new())
            .is_none());
        // Every named constant resolves, once each and in code order, so
        // `RuleSet::finding` never sees an unregistered name from them.
        let named = [
            rules::CAPACITY_BUDGET,
            rules::PARTITION_DISJOINT,
            rules::PAIR_COVERAGE,
            rules::TREE_ACYCLIC,
            rules::ALLOC_CONSERVATION,
            rules::COST_MODEL_ACCOUNTING,
            rules::RELIABILITY_ALIAS_CONSISTENCY,
            rules::ADAPTATION_MONOTONIC,
            rules::IDLE_MEMBER,
            rules::RELAY_ONLY,
            rules::DEPLOYMENT_ROUTE_FIDELITY,
            rules::FAILURE_SCHEDULE_CONSISTENT,
            rules::REPAIR_CAPACITY,
            rules::REPAIR_IDEMPOTENT,
            rules::RECOVERY_CONVERGENCE,
            rules::VALUE_LOSS_ACCOUNTING,
            rules::STALENESS_BOUND,
            rules::STATIC_INFEASIBLE_CAPACITY,
            rules::SLO_UNREACHABLE_UNDER_NETSPEC,
            rules::DEGRADE_DIVERGENCE,
            rules::UNBOUNDED_QUEUE,
            rules::PROTOCOL_DEADLOCK,
            rules::UNEXPECTED_MESSAGE,
            rules::INCARNATION_REGRESSION,
            rules::UNBOUNDED_INFLIGHT,
        ];
        let registered: Vec<&str> = RULES.iter().map(|r| r.name).collect();
        assert_eq!(named.as_slice(), registered.as_slice());
        for name in named {
            let f = RuleSet::all().finding(name, String::new()).unwrap();
            assert_eq!(
                (f.rule.as_str(), f.code.as_str()),
                (name, rule(name).unwrap().code)
            );
        }
    }

    #[test]
    fn finding_follows_the_rule_set() {
        let mut rs = RuleSet::all();
        rs.set_severity(rules::CAPACITY_BUDGET, Severity::Warn);
        let f = rs
            .finding(rules::CAPACITY_BUDGET, "over".to_string())
            .unwrap();
        assert_eq!((f.severity, f.message.as_str()), (Severity::Warn, "over"));
        rs.disable(rules::CAPACITY_BUDGET);
        assert!(rs.finding(rules::CAPACITY_BUDGET, String::new()).is_none());
    }

    /// RA001–RA025 with no gap, each owned by exactly one analyzer
    /// (one field, so "exactly one" holds by construction; this pins
    /// *which*).
    #[test]
    fn every_code_has_its_one_owner() {
        for (n, r) in (1..).zip(RULES) {
            let owner = match n {
                13..=16 => Analyzer::Mc,
                18..=21 => Analyzer::Static,
                22..=25 => Analyzer::Proto,
                _ => Analyzer::Audit,
            };
            assert_eq!((r.code, r.owner), (format!("RA{n:03}").as_str(), owner));
        }
        assert_eq!(RULES.len(), 25);
    }

    #[test]
    fn planner_output_audits_clean() {
        let pairs = dense_pairs(12, 4);
        let caps = CapacityMap::uniform(12, 25.0, 200.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let catalog = AttrCatalog::new();
        for scheme in [
            PartitionScheme::SingletonSet,
            PartitionScheme::OneSet,
            PartitionScheme::Remo,
        ] {
            let plan = scheme.plan(&Planner::default(), &pairs, &caps, cost, &catalog);
            let outcome = audit(&plan, &pairs, &caps, cost, &catalog);
            assert!(outcome.is_clean(), "{scheme:?}:\n{}", outcome.render());
        }
    }

    #[test]
    fn audit_recomputation_matches_plan() {
        let pairs = dense_pairs(10, 3);
        let caps = CapacityMap::uniform(10, 30.0, 300.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let catalog = AttrCatalog::new();
        let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
        let outcome = audit(&plan, &pairs, &caps, cost, &catalog);
        for (n, u) in plan.node_usage() {
            let audited = outcome.node_usage.get(&n).copied().unwrap_or(0.0);
            assert!((audited - u).abs() < 1e-6, "node {n}: {audited} vs {u}");
        }
        assert!((outcome.collector_usage - plan.collector_usage()).abs() < 1e-6);
        // Exact accounting holds, so these rules found nothing.
        assert_eq!(outcome.of_rule(rules::ALLOC_CONSERVATION).count(), 0);
        assert_eq!(outcome.of_rule(rules::COST_MODEL_ACCOUNTING).count(), 0);
    }

    #[test]
    fn extension_aware_plans_audit_exactly() {
        // Funnel and frequency accounting must replicate the
        // evaluator's arithmetic bit-for-bit when the flags match.
        let pairs = dense_pairs(10, 3);
        let caps = CapacityMap::uniform(10, 40.0, 400.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let mut catalog = AttrCatalog::new();
        catalog.register(AttrInfo::new("sum").with_aggregation(crate::Aggregation::Sum));
        catalog.register(AttrInfo::new("top").with_aggregation(crate::Aggregation::Top(2)));
        catalog.register(
            AttrInfo::new("slow")
                .with_frequency(0.25)
                .expect("valid frequency"),
        );
        let planner = Planner::new(PlannerConfig {
            aggregation_aware: true,
            frequency_aware: true,
            ..PlannerConfig::default()
        });
        let plan = planner.plan_with_catalog(&pairs, &caps, cost, &catalog);
        let outcome = Audit::new().run(
            &AuditInput::new(&plan, &pairs, &caps, cost, &catalog)
                .aggregation_aware(true)
                .frequency_aware(true),
        );
        assert!(outcome.is_clean(), "{}", outcome.render());
        assert_eq!(outcome.of_rule(rules::ALLOC_CONSERVATION).count(), 0);
        assert_eq!(outcome.of_rule(rules::COST_MODEL_ACCOUNTING).count(), 0);
    }

    #[test]
    fn overloaded_plan_trips_capacity_budget() {
        let pairs = dense_pairs(8, 2);
        let roomy = CapacityMap::uniform(8, 100.0, 500.0).unwrap();
        let tight = CapacityMap::uniform(8, 5.0, 500.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let catalog = AttrCatalog::new();
        let plan = Planner::default().plan_with_catalog(&pairs, &roomy, cost, &catalog);
        let outcome = audit(&plan, &pairs, &tight, cost, &catalog);
        assert!(!outcome.is_clean());
        assert!(outcome.of_rule(rules::CAPACITY_BUDGET).count() > 0);
    }

    #[test]
    fn unplanned_attr_trips_pair_coverage() {
        let pairs = dense_pairs(4, 2);
        let caps = CapacityMap::uniform(4, 50.0, 200.0).unwrap();
        let cost = CostModel::default();
        let catalog = AttrCatalog::new();
        let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
        let mut bigger = pairs.clone();
        bigger.insert(NodeId(0), AttrId(9));
        let outcome = audit(&plan, &bigger, &caps, cost, &catalog);
        assert!(outcome
            .of_rule(rules::PAIR_COVERAGE)
            .any(|f| f.attr == Some(AttrId(9))));
    }

    /// A hand-built forest where node 1 owns nothing of the set but
    /// relays node 2's values, and node 3 is a true idle leaf.
    fn relay_fixture() -> (MonitoringPlan, PairSet, CapacityMap, CostModel) {
        let pairs: PairSet = [(NodeId(0), AttrId(0)), (NodeId(2), AttrId(0))]
            .into_iter()
            .collect();
        let set: crate::AttrSet = [AttrId(0)].into_iter().collect();
        let mut tree = Tree::new(set.clone(), NodeId(0));
        tree.attach(NodeId(1), NodeId(0));
        tree.attach(NodeId(2), NodeId(1));
        tree.attach(NodeId(3), NodeId(0));
        let cost = CostModel::new(2.0, 1.0).unwrap();
        // Recompute the bookkeeping the builder would have recorded.
        let send2 = cost.message_cost(1.0); // n2 sends its own value
        let send1 = cost.message_cost(1.0); // n1 relays n2's value
        let send3 = cost.message_cost(0.0); // n3 sends an empty message
        let send0 = cost.message_cost(2.0); // n0: own value + relayed
        let usage: BTreeMap<NodeId, f64> = [
            (NodeId(0), send0 + send1 + send3),
            (NodeId(1), send1 + send2),
            (NodeId(2), send2),
            (NodeId(3), send3),
        ]
        .into_iter()
        .collect();
        let planned = PlannedTree {
            tree: Some(tree),
            usage,
            collector_usage: send0,
            collected_pairs: 2,
            demanded_pairs: 2,
            excluded: Vec::new(),
            message_volume: send0 + send1 + send2 + send3,
        };
        let plan = MonitoringPlan::new(Partition::one_set(set), vec![planned]);
        let caps = CapacityMap::uniform(4, 100.0, 100.0).unwrap();
        (plan, pairs, caps, cost)
    }

    #[test]
    fn relay_only_member_is_distinguished_from_idle() {
        // Regression: a relaying non-sampling member used to be
        // indistinguishable from a true leaf — no finding at all.
        let (plan, pairs, caps, cost) = relay_fixture();
        let catalog = AttrCatalog::new();
        let outcome = audit(&plan, &pairs, &caps, cost, &catalog);
        let relay: Vec<_> = outcome.of_rule(rules::RELAY_ONLY).collect();
        assert_eq!(relay.len(), 1, "{}", outcome.render());
        assert_eq!(relay[0].node, Some(NodeId(1)));
        assert_eq!(relay[0].severity, Severity::Info);
        let idle: Vec<_> = outcome.of_rule(rules::IDLE_MEMBER).collect();
        assert_eq!(idle.len(), 1);
        assert_eq!(idle[0].node, Some(NodeId(3)));
        // Info/warn findings do not fail the audit.
        assert!(outcome.is_clean(), "{}", outcome.render());
    }

    #[test]
    fn rules_are_individually_toggleable() {
        let (plan, pairs, caps, cost) = relay_fixture();
        let catalog = AttrCatalog::new();
        let mut rs = RuleSet::all();
        rs.disable(rules::RELAY_ONLY).disable(rules::IDLE_MEMBER);
        let mut audit = Audit::new();
        *audit.rules_mut() = rs;
        let outcome = audit.run(&AuditInput::new(&plan, &pairs, &caps, cost, &catalog));
        assert_eq!(outcome.findings.len(), 0, "{}", outcome.render());

        // Severity override promotes an advisory rule to an error.
        let mut rs = RuleSet::all();
        rs.set_severity(rules::IDLE_MEMBER, Severity::Error);
        let mut audit = Audit::new();
        *audit.rules_mut() = rs;
        let outcome = audit.run(&AuditInput::new(&plan, &pairs, &caps, cost, &catalog));
        assert!(!outcome.is_clean());
    }

    #[test]
    fn tampered_bookkeeping_trips_the_exact_rules() {
        let pairs = dense_pairs(6, 2);
        let caps = CapacityMap::uniform(6, 50.0, 300.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let catalog = AttrCatalog::new();
        let clean = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);

        // Inflate one recorded usage entry → alloc-conservation.
        let mut trees = clean.trees().to_vec();
        if let Some((_, u)) = trees[0].usage.iter_mut().next() {
            *u *= 2.0;
        }
        let tampered = MonitoringPlan::new(clean.partition().clone(), trees);
        let outcome = audit(&tampered, &pairs, &caps, cost, &catalog);
        assert!(outcome.of_rule(rules::ALLOC_CONSERVATION).count() > 0);

        // Inflate the recorded volume → cost-model-accounting.
        let mut trees = clean.trees().to_vec();
        trees[0].message_volume += 5.0;
        let tampered = MonitoringPlan::new(clean.partition().clone(), trees);
        let outcome = audit(&tampered, &pairs, &caps, cost, &catalog);
        assert!(outcome.of_rule(rules::COST_MODEL_ACCOUNTING).count() > 0);
    }

    #[test]
    fn adaptation_regression_is_flagged() {
        let pairs = dense_pairs(8, 2);
        let roomy = CapacityMap::uniform(8, 100.0, 500.0).unwrap();
        let tight = CapacityMap::uniform(8, 9.0, 500.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let catalog = AttrCatalog::new();
        let full = Planner::default().plan_with_catalog(&pairs, &roomy, cost, &catalog);
        let partial = Planner::default().plan_with_catalog(&pairs, &tight, cost, &catalog);
        assert!(partial.collected_pairs() < full.collected_pairs());
        let failed = BTreeSet::new();
        let outcome = Audit::new().run(
            &AuditInput::new(&partial, &pairs, &tight, cost, &catalog)
                .with_predecessor(&full, &failed),
        );
        let hits: Vec<_> = outcome.of_rule(rules::ADAPTATION_MONOTONIC).collect();
        assert_eq!(hits.len(), 1, "{}", outcome.render());
        assert_eq!(hits[0].severity, Severity::Warn);
        // Warn severity: the audit still passes.
        assert!(outcome.is_clean());
    }

    #[test]
    fn staleness_slo_trips_on_slow_attrs_and_degrade() {
        let pairs = dense_pairs(6, 2);
        let caps = CapacityMap::uniform(6, 50.0, 300.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let mut catalog = AttrCatalog::new();
        // Attr 1 refreshes every 8 epochs; attr 0 keeps the default 1.
        catalog.register(AttrInfo::new("fast"));
        catalog.register(
            AttrInfo::new("slow")
                .with_frequency(0.125)
                .expect("valid frequency"),
        );
        let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);

        // SLO 5: only the slow attribute (period 8) trips, as a warning.
        let outcome = Audit::new()
            .run(&AuditInput::new(&plan, &pairs, &caps, cost, &catalog).with_staleness_slo(5.0));
        let hits: Vec<_> = outcome.of_rule(rules::STALENESS_BOUND).collect();
        assert_eq!(hits.len(), 1, "{}", outcome.render());
        assert_eq!(hits[0].attr, Some(AttrId(1)));
        assert_eq!(hits[0].severity, Severity::Warn);
        assert_eq!(hits[0].actual, Some(8.0));
        assert_eq!(hits[0].limit, Some(5.0));
        assert!(outcome.is_clean(), "warnings never fail the audit");

        // A backpressure degrade factor of 8 pushes even the fast
        // attribute (period 1 → effective 8) over the SLO.
        let outcome = Audit::new().run(
            &AuditInput::new(&plan, &pairs, &caps, cost, &catalog)
                .with_staleness_slo(5.0)
                .with_degrade_factor(8.0),
        );
        assert_eq!(outcome.of_rule(rules::STALENESS_BOUND).count(), 2);

        // A generous SLO is quiet.
        let outcome = Audit::new()
            .run(&AuditInput::new(&plan, &pairs, &caps, cost, &catalog).with_staleness_slo(8.0));
        assert_eq!(outcome.of_rule(rules::STALENESS_BOUND).count(), 0);
    }

    /// Regression pin for the RA017 boundary: the comparison is
    /// strict (`effective > slo` warns, `effective == slo` does not),
    /// including when the equality is only reached through the
    /// degrade multiplier, and at magnitudes where an absolute
    /// epsilon would misclassify.
    #[test]
    fn staleness_slo_equal_to_effective_interval_is_quiet() {
        let pairs = dense_pairs(4, 1);
        let caps = CapacityMap::uniform(4, 50.0, 300.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let mut catalog = AttrCatalog::new();
        // Period 4 (frequency 0.25).
        catalog.register(
            AttrInfo::new("quarter")
                .with_frequency(0.25)
                .expect("valid frequency"),
        );
        let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
        let input = || AuditInput::new(&plan, &pairs, &caps, cost, &catalog);

        // SLO == period: met exactly, no warning.
        let outcome = Audit::new().run(&input().with_staleness_slo(4.0));
        assert_eq!(
            outcome.of_rule(rules::STALENESS_BOUND).count(),
            0,
            "{}",
            outcome.render()
        );

        // SLO == period × degrade: still equality, still quiet.
        let outcome = Audit::new().run(&input().with_staleness_slo(8.0).with_degrade_factor(2.0));
        assert_eq!(
            outcome.of_rule(rules::STALENESS_BOUND).count(),
            0,
            "{}",
            outcome.render()
        );

        // One epoch under the effective interval: warns.
        let outcome = Audit::new().run(&input().with_staleness_slo(7.0).with_degrade_factor(2.0));
        assert_eq!(outcome.of_rule(rules::STALENESS_BOUND).count(), 1);

        // Equality at a magnitude where the old absolute epsilon is
        // below one ulp: must stay quiet (relative comparison).
        let big = 4.0 * (1u64 << 40) as f64;
        let outcome = Audit::new().run(
            &input()
                .with_staleness_slo(big)
                .with_degrade_factor((1u64 << 40) as f64),
        );
        assert_eq!(outcome.of_rule(rules::STALENESS_BOUND).count(), 0);
    }

    #[test]
    fn finding_display_and_render() {
        let (plan, pairs, caps, cost) = relay_fixture();
        let catalog = AttrCatalog::new();
        let outcome = audit(&plan, &pairs, &caps, cost, &catalog);
        let text = outcome.render();
        assert!(text.contains("warning[RA009] idle-member"), "{text}");
        assert!(text.contains("= help:"), "{text}");
    }

    #[test]
    fn tight_budget_trips_capacity_rule() {
        let pairs = dense_pairs(8, 2);
        let roomy = CapacityMap::uniform(8, 100.0, 500.0).unwrap();
        let tight = CapacityMap::uniform(8, 5.0, 500.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let catalog = AttrCatalog::new();
        let plan = Planner::default().plan_with_catalog(&pairs, &roomy, cost, &catalog);
        assert!(audit(&plan, &pairs, &roomy, cost, &catalog).is_clean());
        let outcome = audit(&plan, &pairs, &tight, cost, &catalog);
        assert!(outcome
            .findings
            .iter()
            .any(|f| f.rule == rules::CAPACITY_BUDGET && f.node.is_some()));
    }
}
