//! A small library of [`Sampler`]s for deployments: the functions
//! agents call to observe local attribute values.
//!
//! In a real integration the sampler wraps the application's own
//! instrumentation (paper §2.1: "we assume values of attributes are
//! made available by application-specific tools"); these constructors
//! cover tests, demos, and experiments.

use crate::agent::Sampler;
use remo_core::{AttrId, NodeId};
use std::collections::HashMap;
use std::sync::Arc;

/// Every pair reads the same constant.
pub fn constant(value: f64) -> Sampler {
    Arc::new(move |_n, _a, _e| value)
}

/// A deterministic but pair- and epoch-dependent value, handy for
/// integrity checks (the collector can recompute what each node must
/// have sampled).
pub fn deterministic() -> Sampler {
    Arc::new(|n: NodeId, a: AttrId, e: u64| {
        (n.0 as f64) * 1_000.0 + (a.0 as f64) * 10.0 + (e % 10) as f64
    })
}

/// Linear ramp per pair: `base + slope·epoch`.
pub fn ramp(base: f64, slope: f64) -> Sampler {
    Arc::new(move |_n, _a, e| base + slope * e as f64)
}

/// Fixed per-pair values from a table; pairs not in the table read
/// `default`. Useful for injecting exact anomalies in tests.
pub fn table(values: HashMap<(NodeId, AttrId), f64>, default: f64) -> Sampler {
    Arc::new(move |n, a, _e| values.get(&(n, a)).copied().unwrap_or(default))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = constant(5.5);
        assert_eq!(s(NodeId(1), AttrId(2), 3), 5.5);
        assert_eq!(s(NodeId(9), AttrId(0), 99), 5.5);
    }

    #[test]
    fn deterministic_distinguishes_pairs() {
        let s = deterministic();
        assert_ne!(s(NodeId(1), AttrId(0), 0), s(NodeId(2), AttrId(0), 0));
        assert_ne!(s(NodeId(1), AttrId(0), 0), s(NodeId(1), AttrId(1), 0));
        assert_eq!(s(NodeId(1), AttrId(0), 3), s(NodeId(1), AttrId(0), 13));
    }

    #[test]
    fn ramp_grows_linearly() {
        let s = ramp(10.0, 2.0);
        assert_eq!(s(NodeId(0), AttrId(0), 0), 10.0);
        assert_eq!(s(NodeId(0), AttrId(0), 5), 20.0);
    }

    #[test]
    fn table_overrides_default() {
        let mut t = HashMap::new();
        t.insert((NodeId(1), AttrId(1)), 99.0);
        let s = table(t, 1.0);
        assert_eq!(s(NodeId(1), AttrId(1), 0), 99.0);
        assert_eq!(s(NodeId(1), AttrId(2), 0), 1.0);
    }
}
