//! # remo-core
//!
//! Resource-aware monitoring-overlay planning, reproducing the REMO
//! system (Meng, Kashyap, Venkatramani, Liu — ICDCS 2009 / TPDS 2012).
//!
//! Large-scale application state monitoring collects values of many
//! *(node, attribute)* pairs at a central collector. REMO organizes the
//! monitoring nodes into a **forest of collection trees** that
//! maximizes the number of pairs delivered while respecting per-node
//! CPU budgets, under a cost model with an explicit per-message
//! overhead (`C + a·x` per message of `x` values).
//!
//! The crate provides:
//!
//! - the task model and deduplication ([`TaskManager`]),
//! - attribute-set partitions and their merge/split neighborhood
//!   ([`Partition`]),
//! - resource-constrained tree construction ([`build`]) with the STAR,
//!   CHAIN, MAX_AVB, and REMO-adaptive schemes,
//! - capacity allocation across trees ([`alloc`]),
//! - the guided-local-search planner ([`planner`]),
//! - runtime topology adaptation with cost-benefit throttling
//!   ([`adapt`]),
//! - extensions: in-network aggregation funnels ([`Aggregation`]),
//!   reliability rewriting ([`reliability`]), and heterogeneous update
//!   frequencies ([`frequency`]).
//!
//! ## Quick start
//!
//! ```
//! use remo_core::{
//!     CapacityMap, CostModel, MonitoringTask, NodeId, AttrId, TaskId,
//!     TaskManager, planner::{Planner, PlannerConfig},
//! };
//!
//! # fn main() -> Result<(), remo_core::PlanError> {
//! // 20 nodes, each with 8 capacity units; generous collector.
//! let caps = CapacityMap::uniform(20, 8.0, 200.0)?;
//! let cost = CostModel::new(2.0, 1.0)?;
//!
//! let mut tasks = TaskManager::new();
//! tasks.add(MonitoringTask::new(
//!     TaskId(0),
//!     (0..4).map(AttrId),
//!     (0..20).map(NodeId),
//! ))?;
//!
//! let planner = Planner::new(PlannerConfig::default());
//! let plan = planner.plan(&tasks.pairs(), &caps, cost);
//! assert!(plan.collected_pairs() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Planner diagnostics go through remo-obs (structured events plus the
// REMO_PLANNER_DEBUG echo); direct prints from library code are build
// errors so they cannot creep back in.
#![deny(clippy::print_stdout)]
#![deny(clippy::print_stderr)]

pub mod adapt;
pub mod alloc;
mod attribute;
pub mod build;
pub mod cache;
mod capacity;
pub mod corpus;
mod cost;
mod error;
pub mod estimate;
pub mod evaluate;
pub mod explore;
pub mod export;
pub mod frequency;
mod ids;
pub mod index;
mod pairs;
mod partition;
pub mod plan;
pub mod planner;
pub mod reliability;
pub mod sarif;
pub mod symbolic;
mod task;
mod taskman;
mod tree;
pub mod validate;

pub use attribute::{AttrCatalog, AttrInfo};
pub use cache::{CacheStats, TreeCache};
pub use capacity::CapacityMap;
pub use cost::{Aggregation, CostModel};
pub use error::PlanError;
pub use ids::{AttrId, NodeId, TaskId};
pub use index::PairIndex;
pub use pairs::{PairSet, ParticipantBitsets};
pub use partition::{AttrSet, Partition, PartitionOp};
pub use plan::MonitoringPlan;
pub use symbolic::Interval;
pub use task::{MonitoringTask, TaskChange};
pub use taskman::TaskManager;
pub use tree::{Parent, Tree};
