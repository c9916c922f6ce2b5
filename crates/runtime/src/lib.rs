//! # remo-runtime
//!
//! A real deployment substrate for REMO monitoring plans: one agent
//! state machine per monitoring node ([`agent`]), messaging with a
//! binary wire protocol ([`proto`]), token-bucket capacity emulation
//! ([`throttle`]), coordinator-driven lockstep epochs, in-network
//! aggregation at relay points, live topology reconfiguration, and a
//! self-healing control loop ([`health`]): epoch-barrier failure
//! detection, automatic plan repair through
//! `remo_core::adapt::AdaptivePlanner`, and targeted reconfiguration
//! of the surviving agents. The control plane steps the protocol's
//! transition tables ([`spec`]) through spec-driven machines
//! ([`machine`]), and scripted outages ([`failure`]) drive a deployment
//! from data.
//!
//! This crate encodes, routes and decodes the real wire frames and
//! charges the `C + a·x` cost model at both endpoints — it is the role
//! the BlueGene/System S deployment plays in the paper, and the one
//! engine the evaluation runs on:
//! [`remo-sim`](../remo_sim/index.html) steps a [`Deployment`] against
//! seeded true values rather than modelling one. In process every
//! agent is stepped to completion on the caller's thread and the epoch
//! counter is the only clock, so a run is a function of its inputs;
//! the `remo-node` crate runs the same agents and the same epoch close
//! ([`Coordinator`]) as processes over TCP.
//!
//! ```
//! use remo_core::{CapacityMap, CostModel, NodeId, AttrId, PairSet, AttrCatalog};
//! use remo_core::planner::Planner;
//! use remo_runtime::{Deployment, Sampler};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), remo_core::PlanError> {
//! let caps = CapacityMap::uniform(4, 50.0, 1_000.0)?;
//! let cost = CostModel::default();
//! let pairs: PairSet = (0..4).map(|n| (NodeId(n), AttrId(0))).collect();
//! let catalog = AttrCatalog::new();
//! let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
//!
//! let sampler: Sampler = Arc::new(|n, _a, _e| n.0 as f64);
//! let mut dep = Deployment::launch(&plan, &pairs, &caps, cost, &catalog, sampler);
//! dep.run(8);
//! assert_eq!(dep.observed_pairs(), 4);
//! dep.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agent;
pub mod collector;
pub mod coordinator;
pub mod ctrl;
pub mod deployment;
pub mod failure;
pub mod framing;
pub mod health;
pub mod machine;
pub mod proto;
pub mod repair;
pub mod samplers;
pub mod spec;
pub mod throttle;
pub mod transport;

pub use agent::{AgentMsg, LocalAttr, Route, Sampler, TickReport, TreeAssignment};
pub use collector::{CollectorCore, DeliveredReading, EpochReport, Observed};
pub use coordinator::{Coordinator, EpochClose};
pub use ctrl::{CtrlError, CtrlMsg};
pub use deployment::{
    changed_assignments, due_readings, plan_assignments, Deployment, Snapshot, TransportSpec,
};
pub use framing::{Envelope, FrameDecoder, FrameError};
pub use health::{
    HealthConfig, HealthEvents, HealthMonitor, HealthReport, HealthState, NodeHealthStats,
};
pub use proto::{FrameKind, WireMessage, WireReading};
pub use repair::RepairEngine;
pub use throttle::TokenBucket;
pub use transport::{
    Endpoint, IncarnationTracker, LinkSpec, LossyTransport, NetConfig, NetSpec, PartitionWindow,
    PerfectTransport, SeqTracker, Transport, TransportStats, MAX_BACKOFF_SHIFT,
};
