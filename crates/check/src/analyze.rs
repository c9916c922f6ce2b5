//! The pre-flight analyzer: abstract interpretation of a deployment
//! before a single agent is launched. Given only the *declarative*
//! inputs — a [`DeploymentSpec`], an optional [`NetSpec`]/[`NetConfig`],
//! and an optional staleness SLO — it computes sound bounds on what any
//! concrete plan and any run of the lossy runtime can do:
//!
//! * **Capacity** ([`crate::cost`]): per-node and collector usage
//!   intervals over the `C + a·x` model, valid for every partition
//!   shape the planner could pick. A best-shape lower bound exceeding
//!   a budget is infeasibility, not a tuning problem → **RA018**.
//! * **Staleness** ([`crate::latency`]): closed-form worst-case snapshot
//!   age under the ARQ transport (geometric backoff series, delivery
//!   delay, degrade-widened reporting gaps). Permanently severed
//!   nodes make a declared SLO unreachable → **RA019**.
//! * **Degradation** ([`crate::degrade`]): fluid fixed point of the
//!   backpressure loop. A degrade ladder too short to shed load is
//!   **RA020**; a disabled ladder over an overloaded collector is
//!   **RA021**. When the system keeps up at level 0 and every
//!   outstanding reading fits the ingress queue, the analysis
//!   certifies the run shed-free and tightens the queue bound.
//!
//! The dynamic layers prove these bounds honest: a property test
//! drives random triples through the real lossy runtime and asserts
//! observations never escape the intervals, and the model checker's
//! exhaustive sweep cross-checks every explored plan state against
//! the capacity bounds.

use crate::cost::{cost_bounds, CostBounds, CostFlags};
use crate::degrade::{degrade_analysis, DegradeAnalysis};
use crate::latency::{staleness_bounds, StalenessBounds};
use remo_core::spec::DeploymentSpec;
use remo_core::validate::{rules, Finding, RuleSet, Severity};
use remo_runtime::{NetConfig, NetSpec};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Everything the analyzer consumes, as one serializable document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StaticBundle {
    /// The monitoring problem.
    pub spec: DeploymentSpec,
    /// Network fault model (defaults to a perfect network).
    #[serde(default)]
    pub net: Option<NetSpec>,
    /// ARQ / backpressure configuration (defaults to
    /// [`NetConfig::default`]).
    #[serde(default)]
    pub net_config: Option<NetConfig>,
    /// Declared end-to-end staleness SLO, in epochs.
    #[serde(default)]
    pub staleness_slo: Option<f64>,
}

impl StaticBundle {
    /// Parses a bundle from JSON. A bare [`DeploymentSpec`] document
    /// is accepted too (net model and SLO default).
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error as a string.
    pub fn from_json(json: &str) -> Result<Self, String> {
        if let Ok(bundle) = serde_json::from_str::<StaticBundle>(json) {
            return Ok(bundle);
        }
        DeploymentSpec::from_json(json).map(|spec| StaticBundle {
            spec,
            net: None,
            net_config: None,
            staleness_slo: None,
        })
    }

    /// Serializes the bundle to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying serialization error as a string.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self).map_err(|e| e.to_string())
    }
}

/// The full analysis result.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Shape-independent usage intervals.
    pub cost: CostBounds,
    /// Worst-case staleness closed forms.
    pub staleness: StalenessBounds,
    /// Backpressure fixed point.
    pub degrade: DegradeAnalysis,
    /// RA018–RA021 findings.
    pub findings: Vec<Finding>,
}

impl AnalysisReport {
    /// `true` when no error-severity finding was produced.
    pub fn is_clean(&self) -> bool {
        !self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// Whether the staleness bounds are *certified*: no demanded node
    /// is permanently severed and the collector is proven shed-free,
    /// so no reading can be silently lost to abandonment-after-
    /// partition or ingress shedding.
    pub fn staleness_certified(&self) -> bool {
        self.staleness.unreachable.is_empty() && self.degrade.shed_free
    }

    /// Human-readable rendering of the bounds (findings render
    /// through `AuditOutcome::render`, like every analyzer's).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pre-flight analysis: {} nodes, {} attrs",
            self.cost.participants, self.cost.attrs
        );
        let _ = writeln!(
            out,
            "  collector usage in [{:.2}, {:.2}]",
            self.cost.collector.lo(),
            self.cost.collector.hi()
        );
        if let Some((n, iv)) = self
            .cost
            .per_node
            .iter()
            .max_by(|a, b| a.1.lo().total_cmp(&b.1.lo()))
        {
            let _ = writeln!(
                out,
                "  hottest node {} usage in [{:.2}, {:.2}]",
                n,
                iv.lo(),
                iv.hi()
            );
        }
        if let Some(worst) = self.staleness.worst() {
            let _ = writeln!(
                out,
                "  staleness ≤ {} epochs ({}, per-hop {}, degrade ×{})",
                worst,
                if self.staleness_certified() {
                    "certified"
                } else {
                    "uncertified"
                },
                self.staleness.per_hop,
                self.staleness.max_degrade_factor
            );
        }
        match self.degrade.converges_at {
            Some(l) => {
                let _ = writeln!(
                    out,
                    "  backpressure converges at degrade level {l} \
                     (service {:.2}/epoch); queue ≤ {} readings{}",
                    self.degrade.service_worst,
                    self.degrade.queue_bound,
                    if self.degrade.shed_free {
                        ", shed-free"
                    } else {
                        ""
                    }
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  backpressure diverges at every degrade level \
                     (service {:.2}/epoch < arrival {:.2}/epoch)",
                    self.degrade.service_worst,
                    self.degrade.arrival.last().copied().unwrap_or(0.0)
                );
            }
        }
        out
    }
}

/// Runs the full pre-flight analysis on a bundle.
///
/// # Errors
///
/// Returns a message when the spec itself is malformed (bad costs,
/// capacities, aggregations, or empty tasks).
pub fn analyze(bundle: &StaticBundle) -> Result<AnalysisReport, String> {
    let spec = &bundle.spec;
    let pairs = spec.pairs().map_err(|e| e.to_string())?;
    let caps = spec.capacities().map_err(|e| e.to_string())?;
    let cost = spec.cost().map_err(|e| e.to_string())?;
    let catalog = spec.catalog()?;
    let flags = CostFlags {
        aggregation_aware: spec.aggregation_aware,
        frequency_aware: spec.frequency_aware,
    };
    let net = bundle.net.clone().unwrap_or_default();
    let cfg = bundle.net_config.unwrap_or_default();

    let bounds = cost_bounds(&pairs, &catalog, cost, flags);
    let staleness = staleness_bounds(&pairs, &catalog, &net, &cfg);
    let degrade = degrade_analysis(&pairs, &catalog, cost, caps.collector(), &net, &cfg);

    // Every finding carries the offending node (if any) and the bound
    // it broke: `actual` against `limit`.
    let registry = RuleSet::all();
    let mut findings = Vec::new();
    let mut report = |name, message, node, actual, limit| {
        let scoped = |f| Finding {
            node,
            actual,
            limit,
            ..f
        };
        findings.extend(registry.finding(name, message).map(scoped));
    };

    // RA018: even the cheapest shape overruns a budget — the pairs
    // cannot all be collected, no matter how the planner partitions.
    for (&n, iv) in &bounds.per_node {
        let budget = caps.node(n).unwrap_or(0.0);
        if iv.lo() > budget * (1.0 + 1e-6) {
            report(
                rules::STATIC_INFEASIBLE_CAPACITY,
                format!(
                    "node {n}: best-shape usage lower bound {:.2} exceeds its budget {budget:.2}; \
                     its pairs are uncollectable under any partition",
                    iv.lo()
                ),
                Some(n),
                Some(iv.lo()),
                Some(budget),
            );
        }
    }
    if bounds.collector.lo() > caps.collector() * (1.0 + 1e-6) {
        report(
            rules::STATIC_INFEASIBLE_CAPACITY,
            format!(
                "collector: best-shape intake lower bound {:.2} exceeds the collector budget {:.2}",
                bounds.collector.lo(),
                caps.collector()
            ),
            None,
            Some(bounds.collector.lo()),
            Some(caps.collector()),
        );
    }

    // RA019: an SLO was declared but some demanded node can never
    // deliver again under this fault model.
    if let Some(slo) = bundle.staleness_slo {
        for &n in &staleness.unreachable {
            report(
                rules::SLO_UNREACHABLE_UNDER_NETSPEC,
                format!(
                    "node {n} is permanently severed from the collector under this NetSpec; \
                     the {slo}-epoch staleness SLO can never be met for its pairs"
                ),
                Some(n),
                None,
                Some(slo),
            );
        }
    }

    // RA020 / RA021: the backpressure loop cannot reach a stable
    // level. Mutually exclusive on whether a degrade ladder exists.
    if degrade.converges_at.is_none() {
        let arrival_floor = degrade.arrival.last().copied().unwrap_or(0.0);
        if cfg.max_degrade_level > 0 {
            report(
                rules::DEGRADE_DIVERGENCE,
                format!(
                    "arrival rate at the deepest degrade level ({arrival_floor:.2}/epoch) still \
                     exceeds the worst-case collector service rate ({:.2}/epoch); \
                     the backpressure loop pins at level {} and sheds forever",
                    degrade.service_worst, cfg.max_degrade_level
                ),
                None,
                Some(arrival_floor),
                Some(degrade.service_worst),
            );
        } else {
            report(
                rules::UNBOUNDED_QUEUE,
                format!(
                    "degradation is disabled (max_degrade_level = 0) but the arrival rate \
                     ({arrival_floor:.2}/epoch) exceeds the worst-case collector service rate \
                     ({:.2}/epoch); the ingress queue is bounded only by shedding",
                    degrade.service_worst
                ),
                None,
                Some(arrival_floor),
                Some(degrade.service_worst),
            );
        }
    }

    Ok(AnalysisReport {
        cost: bounds,
        staleness,
        degrade,
        findings,
    })
}
