//! # remo-mc
//!
//! Bounded model checking of REMO's self-healing reconfiguration
//! protocol. The per-plan invariants (remo-audit rules RA001–RA012)
//! prove every plan the planner *happened* to build is sound; this
//! crate closes the gap to every plan *reachable* under the protocol:
//! it exhaustively enumerates interleavings of failure, recovery,
//! epoch-tick, and repair-completion events on small seeded
//! topologies, driving the real `AdaptivePlanner` and the
//! deployment's real assignment/loss arithmetic, and re-checks named
//! invariants after every transition:
//!
//! - **audit-clean** — the full RA registry plus the cross-layer
//!   assignment check hold in every reachable state;
//! - **RA013 repair-capacity** — a repaired node carries no load;
//! - **RA014 repair-idempotent** — re-applying a repair is a no-op;
//! - **RA015 recovery-convergence** — full recovery returns the plan
//!   near the original's coverage and cost;
//! - **RA016 value-loss-accounting** — loss telemetry is monotone and
//!   matches an independent recount.
//!
//! The explorer deduplicates states by fingerprint, delta-debugs any
//! violating trace to a minimal counterexample, and emits it in a
//! serializable replay format (see the committed `corpus/`).
//!
//! The crate also hosts `remo-check`, the one CLI in front of all
//! four analyzers (it is the crate that depends on all of them):
//! `remo-check mc explore|replay` drives exploration and replay and
//! reports violations through the SARIF pipeline.
//!
//! ```
//! use remo_mc::{explore, InvariantConfig, TopologySpec};
//!
//! let spec = TopologySpec::small(1);
//! let result = explore::explore(&spec, &InvariantConfig::default(), 3).unwrap();
//! assert!(result.violations.is_empty());
//! assert!(result.stats.visited > 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod explore;
pub mod harness;
pub mod minimize;
pub mod replay;
pub mod topology;

pub use explore::{ExploreResult, ExploreStats, Violation};
pub use harness::{Event, Harness, InvariantConfig};
pub use minimize::{minimize, replay_events, ReplayOutcome};
pub use replay::{Expectation, ReplayFile, Verdict};
pub use topology::{seeded_specs, TopologySpec};
