//! # remo-node
//!
//! The distributed REMO runtime: real processes, real sockets.
//!
//! Where [`remo-runtime`](../remo_runtime/index.html) deploys a
//! monitoring plan as threads exchanging frames over channels, this
//! crate deploys the *same* engine across OS processes connected by
//! TCP:
//!
//! * [`service`] — the `remo-collector` process: accepts node
//!   connections, routes node→node tree traffic (hub topology), drives
//!   lockstep epochs, detects failures via the epoch-report barrier,
//!   repairs the plan through the shared
//!   [`RepairEngine`](remo_runtime::RepairEngine), and enforces
//!   collector capacity through the shared
//!   [`CollectorCore`](remo_runtime::CollectorCore) — the exact
//!   arithmetic the in-memory runtime pins in its equivalence tests.
//! * [`client`] — the `remo-node` process: registers with the
//!   collector, then runs the unmodified
//!   [`Agent`](remo_runtime::agent::Agent) state machine over a
//!   [`net::TcpTransport`], reconnecting with backoff when the
//!   connection drops.
//! * [`net`] — the socket plumbing both sides share: framed envelopes
//!   ([`remo_runtime::framing`]) carrying data-plane
//!   ([`remo_runtime::proto`]) and control-plane
//!   ([`remo_runtime::ctrl`]) payloads, the per-connection out-buffer,
//!   and the `poll` wrapper.
//!
//! The collection path is run-to-completion, with no async runtime
//! (the workspace vendors none) and no thread mesh: a node is one
//! thread that reads a batch, steps the agent inline and answers in
//! one write; the collector is one thread in a `poll(2)` readiness
//! loop over non-blocking sockets (`net::poll`, the crate's one
//! `unsafe` block) that routes and collects as bytes arrive and writes
//! each connection once per epoch: what it routes is held for the
//! destination's next `Tick` and leaves in the write that carries it.
//! A fleet of `n` nodes in one process is `n + 1` threads. The
//! `Transport` seam is unchanged, so the agent and collector logic do
//! not know. Unix only: the readiness loop is `poll(2)`.
//!
//! ## Configuration knobs
//!
//! The binaries read `REMO_DIST_*` environment variables (all
//! optional; see [`config`]): `REMO_DIST_EPOCH_MS`,
//! `REMO_DIST_DEADLINE_MS`, `REMO_DIST_CONFIRM_AFTER`,
//! `REMO_DIST_NODE_CAPACITY`, `REMO_DIST_COLLECTOR_CAPACITY`,
//! `REMO_DIST_STARTUP_WAIT_MS`, `REMO_DIST_RECONNECT_BASE_MS`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(not(unix))]
compile_error!("remo-node's collector waits in poll(2): Unix only");

pub mod client;
pub mod config;
pub mod net;
pub mod service;
pub mod summary;

use remo_runtime::Sampler;
use std::sync::Arc;

pub use client::{spawn_node, NodeConfig, NodeHandle};
pub use service::{CollectorService, ServiceConfig};
pub use summary::RunSummary;

/// The deterministic sampler both `remo-node` and `remo-collector`
/// agree on, so the collector can verify end-to-end value integrity
/// without any side channel: `value = node·1000 + attr·10 + epoch%10`.
pub fn dist_sampler() -> Sampler {
    Arc::new(|n, a, e| f64::from(n.0) * 1000.0 + f64::from(a.0) * 10.0 + (e % 10) as f64)
}
