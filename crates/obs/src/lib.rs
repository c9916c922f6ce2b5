//! # remo-obs
//!
//! Unified observability for the REMO workspace: structured tracing
//! (spans and events) plus a metrics registry (counters, gauges,
//! histograms), with two exporters — JSON-lines trace files and
//! Prometheus text format.
//!
//! The evaluation of a monitoring system is itself a monitoring
//! problem (cf. the self-monitoring arguments of layered-gossip and
//! hierarchical pub-sub monitoring systems): per-phase planner cost,
//! collection latency, and adaptation traffic must come out of one
//! pipeline or they cannot be compared. Every crate in this workspace
//! reports through the process-wide [`Registry`] and trace sink
//! defined here; `remo-plan --trace/--metrics` and the bench binaries
//! export them, and `remo-obs dump` summarizes the files.
//!
//! ## Zero cost when disabled
//!
//! Observability is **off by default**. A disabled [`span!`] or
//! [`event!`] callsite performs a single relaxed atomic load and no
//! allocation; metric handles skip their atomic update. Enable
//! collection explicitly:
//!
//! ```
//! let _g = remo_obs::test_guard(); // serialize access in doctests
//! remo_obs::enable();
//! {
//!     let _span = remo_obs::span!("doc.example");
//!     remo_obs::event!("doc.tick", "n" => 3u64);
//! }
//! remo_obs::counter("doc_ticks_total").inc();
//! let trace = remo_obs::drain_trace();
//! assert!(trace.iter().any(|r| r.name == "doc.example"));
//! remo_obs::disable();
//! ```
//!
//! ## Callsites
//!
//! Each `span!`/`event!` expansion declares a `static` [`Callsite`]
//! holding its name, file, and line. The callsite registers itself in
//! the process-wide callsite table on first hit and caches its id in
//! an atomic, so steady-state recording never re-hashes name strings.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod registry;
pub mod summary;
pub mod trace;

pub use registry::{counter, gauge, histogram, Counter, Gauge, Histogram, Registry};
pub use trace::{
    drain_trace, record_event, span_enter, Callsite, FieldValue, SpanGuard, TraceRecord,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether observability collection is currently on.
///
/// This is the only check on the disabled fast path: a relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on (spans, events, and metric updates record).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns collection off. Already-recorded data stays until drained.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Serializes tests that flip the global enabled flag or read the
/// global registry/trace: hold the returned guard for the duration.
///
/// The global state is process-wide; concurrent tests would otherwise
/// observe each other's spans and counter increments.
pub fn test_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    match lock.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn enable_disable_roundtrip() {
        let _g = test_guard();
        let was = enabled();
        enable();
        assert!(enabled());
        disable();
        assert!(!enabled());
        if was {
            enable();
        }
    }
}
