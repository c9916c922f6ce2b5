//! # remo-proto
//!
//! An **executable specification** of the REMO distributed control
//! plane, plus an exhaustive verifier over it.
//!
//! PR 9 stood up the real distributed runtime — Hello/Welcome/Assign/
//! Tick/Report/Degrade/Shutdown over TCP, per-hop ARQ, incarnation-
//! scoped dedup — and all three of its late bugfixes were protocol
//! state-machine bugs found by soak testing. This crate moves that
//! class of bug to *before* the code runs:
//!
//! - [`spec`] — the transition tables and policy knobs as plain
//!   serializable data ([`ProtocolSpec::shipped`] is canonical);
//! - [`machine`] — spec-driven machines the runtime actually embeds
//!   ([`ClientMachine`] in `remo-node`'s supervisor, [`SessionMachine`]
//!   per collector session, [`DedupModel`] shadowing
//!   `IncarnationTracker` in debug builds);
//! - [`verify`] — bounded-exhaustive exploration of the product
//!   automaton under lossy-channel semantics (drop, duplicate,
//!   reorder, connection reset, restart with incarnation bump),
//!   proving deadlock freedom (RA022), no unexpected message and no
//!   stale-report resurrection (RA023), incarnation monotonicity and
//!   no dedup swallow (RA024), and bounded in-flight frames (RA025);
//! - [`corpus`] — known-bad spec mutations, one per rule, including
//!   both PR 9 bugs re-introduced at the spec level.
//!
//! `remo-check proto verify` (the shared analyzer CLI, in `crates/mc`)
//! verifies specs and reports through the shared SARIF pipeline
//! (`remo_core::sarif`).
//!
//! ```
//! use remo_proto::{ProtocolSpec, verify::verify_with_depth};
//!
//! let report = verify_with_depth(&ProtocolSpec::shipped(), 16);
//! assert!(report.is_clean());
//!
//! let mut buggy = ProtocolSpec::shipped();
//! buggy.dedup.incarnation_scoped = false; // PR 9's seq-restart bug
//! let report = verify_with_depth(&buggy, 16);
//! assert!(report.findings.iter().any(|f| f.code == "RA024"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::print_stdout)]
#![deny(clippy::print_stderr)]

pub mod corpus;
pub mod machine;
pub mod spec;
pub mod verify;

pub use machine::{ClientMachine, DedupModel, HelloOutcome, SessionMachine};
pub use spec::{
    ClientAction, ClientEvent, ClientState, CtrlKind, ProtocolSpec, SessionAction, SessionEvent,
    SessionState,
};
pub use verify::VerifyReport;
