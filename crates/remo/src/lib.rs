//! # remo
//!
//! Resource-aware application state monitoring — a Rust reproduction of
//! the REMO system (Meng, Kashyap, Venkatramani, Liu; ICDCS 2009 /
//! TPDS 2012).
//!
//! This facade crate re-exports the whole stack:
//!
//! - [`remo_core`] (re-exported as `core`) — the planner: task dedup, partition search,
//!   resource-constrained tree construction, capacity allocation,
//!   runtime adaptation, reliability rewriting, frequency support;
//! - [`remo_sim`] (re-exported as `sim`) — the evaluation substrate: seeded true values,
//!   error metrics and failure schedules over the runtime's agents;
//! - [`remo_runtime`] (re-exported as `runtime`) — the in-process deployment substrate;
//! - [`remo_workloads`] (re-exported as `workloads`) — synthetic tasks, the System-S-like
//!   application model, and churn generation.
//!
//! ```
//! use remo::prelude::*;
//!
//! # fn main() -> Result<(), remo::PlanError> {
//! let caps = CapacityMap::uniform(16, 20.0, 400.0)?;
//! let cost = CostModel::default();
//! let mut tasks = TaskManager::new();
//! tasks.add(MonitoringTask::new(
//!     TaskId(0),
//!     (0..4).map(AttrId),
//!     (0..16).map(NodeId),
//! ))?;
//! let plan = Planner::default().plan(&tasks.pairs(), &caps, cost);
//! println!("{} trees, coverage {:.0}%", plan.trees().len(), plan.coverage() * 100.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod spec;

pub use remo_core as core;
pub use remo_runtime as runtime;
pub use remo_sim as sim;
pub use remo_workloads as workloads;

pub use remo_core::{
    Aggregation, AttrCatalog, AttrId, AttrInfo, AttrSet, CapacityMap, CostModel, MonitoringPlan,
    MonitoringTask, NodeId, PairSet, Parent, Partition, PartitionOp, PlanError, TaskChange, TaskId,
    TaskManager, Tree,
};

/// Convenient glob import of the most used types across all layers.
pub mod prelude {
    pub use crate::chaos::ChaosDriver;
    pub use remo_core::adapt::{AdaptScheme, AdaptivePlanner};
    pub use remo_core::alloc::AllocationScheme;
    pub use remo_core::build::BuilderKind;
    pub use remo_core::planner::{InitialPartition, PartitionScheme, Planner, PlannerConfig};
    pub use remo_core::{
        Aggregation, AttrCatalog, AttrId, AttrInfo, CapacityMap, CostModel, MonitoringPlan,
        MonitoringTask, NodeId, PairSet, Partition, PlanError, TaskChange, TaskId, TaskManager,
    };
    pub use remo_runtime::{Deployment, HealthConfig, HealthReport, HealthState, NodeHealthStats};
    pub use remo_sim::failure::{FailureSchedule, Outage};
    pub use remo_sim::{SimConfig, SimSetup, Simulator, ValueModel};
    pub use remo_workloads::{
        AppModel, AppModelConfig, ChurnConfig, Scenario, ScenarioConfig, TaskGenConfig,
    };
}
