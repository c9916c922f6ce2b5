//! # remo-sim
//!
//! The evaluation substrate of REMO monitoring overlays: seeded ground
//! truth, metrics and schedules over the real agents.
//!
//! The paper evaluates REMO on a BlueGene/P rack running IBM System S;
//! this crate substitutes a deterministic, seeded run of the system
//! itself (see DESIGN.md for the substitution argument). Per-node CPU
//! budgets, the `C + a·x` message cost model charged at both
//! endpoints, store-and-forward hop latency, overload-induced drops
//! and failure injection are `remo-runtime`'s agents and collector on
//! the loss-free in-process transport — there is no second
//! implementation of them here. What this crate owns is what the
//! testbed supplied around the system: the values the nodes observe,
//! the collector-side percentage-error and staleness metrics of the
//! paper's real-system experiments, and the churn driver. Scripted
//! outages are `remo_runtime::failure` data, which
//! [`Simulator::run_schedule`] applies as it steps.
//!
//! Entry points:
//! - [`Simulator`] — deploy a [`MonitoringPlan`](remo_core::MonitoringPlan)
//!   on a [`Deployment`](remo_runtime::Deployment) and step it through
//!   epochs against seeded true values;
//! - [`run_adaptation_experiment`] — drive a plan through task churn
//!   under one of the adaptation schemes (Fig. 9);
//! - [`ValueModel`] — the true-value processes.
//!
//! ```
//! use remo_core::{CapacityMap, CostModel, NodeId, AttrId, PairSet, AttrCatalog};
//! use remo_core::planner::Planner;
//! use remo_sim::{Simulator, SimSetup, SimConfig};
//!
//! # fn main() -> Result<(), remo_core::PlanError> {
//! let caps = CapacityMap::uniform(6, 30.0, 300.0)?;
//! let cost = CostModel::default();
//! let pairs: PairSet = (0..6)
//!     .flat_map(|n| (0..2).map(move |a| (NodeId(n), AttrId(a))))
//!     .collect();
//! let catalog = AttrCatalog::new();
//! let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
//!
//! let mut sim = Simulator::new(SimSetup {
//!     plan: &plan,
//!     planned_pairs: &pairs,
//!     metric_pairs: None,
//!     caps: &caps,
//!     cost,
//!     catalog: &catalog,
//!     aliases: Default::default(),
//!     config: SimConfig::default(),
//! });
//! sim.run(20);
//! assert!(sim.metrics().total_delivered() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alerts;
pub mod analysis;
pub mod collector;
pub mod engine;
pub mod metrics;
pub mod query;
pub mod runner;
pub mod values;

pub use alerts::{Alert, AlertRule, ResultProcessor};
pub use analysis::{staleness_profile, StalenessProfile};
pub use collector::{fresh_fraction, mean_error};
pub use engine::{SimConfig, SimSetup, Simulator};
pub use metrics::{EpochStats, SimMetrics};
pub use runner::{run_adaptation_experiment, AdaptationRunStats};
pub use values::{ValueModel, ValueProcess};
