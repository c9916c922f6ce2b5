//! Interval arithmetic over the `C + a·x` cost model: the abstract
//! domain of the pre-flight analyzer (`remo-check static`).
//!
//! A monitoring spec constrains a plan without determining it — the
//! partition shape, tree topology, and funnel placement are all
//! planner choices. A *symbolic* cost therefore is not one number but
//! an [`Interval`] `[lo, hi]` covering every shape the planner could
//! legally pick: `lo` is the best case (one message, maximal
//! piggybacking, every funnel applied), `hi` the worst (singleton
//! sets, no funnel benefit). Every concrete plan's cost figure lands
//! inside the interval, which is what makes interval comparisons
//! against capacity budgets sound pre-flight checks.
//!
//! The arithmetic here is deliberately tiny: the `C + a·x` model is
//! affine and the funnel functions are monotone, so mapping endpoints
//! is exact (no over-approximation is introduced by the domain
//! itself; any looseness comes from how callers bound `x`).
//!
//! # Examples
//!
//! ```
//! use remo_core::{CostModel, Interval};
//! let cost = CostModel::new(2.0, 1.0).unwrap();
//! // Somewhere between 3 and 8 values per message:
//! let c = cost.message_cost_interval(Interval::new(3.0, 8.0));
//! assert_eq!(c, Interval::new(5.0, 10.0));
//! assert!(c.contains(cost.message_cost(4.0)));
//! ```

use crate::cost::{Aggregation, CostModel};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A closed interval `[lo, hi]` of non-negative cost units.
///
/// Constructors order the endpoints, so an `Interval` is always
/// well-formed (`lo <= hi`) without any panicking validation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// The degenerate `[0, 0]` interval.
    pub const ZERO: Interval = Interval { lo: 0.0, hi: 0.0 };

    /// Builds `[lo, hi]`, swapping the endpoints if given reversed.
    pub fn new(lo: f64, hi: f64) -> Self {
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval { lo: hi, hi: lo }
        }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: f64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// Lower endpoint.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// `hi - lo`: how much the planner's shape freedom is worth.
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether `v` lies inside the interval (with a small relative
    /// tolerance, matching the audit's cost comparisons).
    pub fn contains(&self, v: f64) -> bool {
        let tol = 1e-6 * 1f64.max(self.lo.abs()).max(self.hi.abs());
        v >= self.lo - tol && v <= self.hi + tol
    }

    /// Pointwise sum (exact for independent addends).
    pub fn add(&self, other: Interval) -> Interval {
        Interval {
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
        }
    }

    /// Scales both endpoints by a non-negative factor.
    pub fn scale(&self, k: f64) -> Interval {
        Interval::new(self.lo * k, self.hi * k)
    }

    /// Convex hull: the smallest interval containing both.
    pub fn join(&self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.2}, {:.2}]", self.lo, self.hi)
    }
}

impl CostModel {
    /// Symbolic form of [`CostModel::message_cost`]: the cost of one
    /// message whose value count is only known to lie in `values`.
    /// Exact because `C + a·x` is affine and `a >= 0`.
    pub fn message_cost_interval(&self, values: Interval) -> Interval {
        Interval::new(
            self.message_cost(values.lo()),
            self.message_cost(values.hi()),
        )
    }
}

impl Aggregation {
    /// Symbolic form of [`Aggregation::funnel`]: every funnel is
    /// monotone non-decreasing, so mapping the endpoints is exact.
    pub fn funnel_interval(&self, incoming: Interval) -> Interval {
        Interval::new(self.funnel(incoming.lo()), self.funnel(incoming.hi()))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn constructors_order_endpoints() {
        assert_eq!(Interval::new(5.0, 2.0), Interval::new(2.0, 5.0));
        assert_eq!(Interval::point(3.0).width(), 0.0);
        assert_eq!(Interval::ZERO.hi(), 0.0);
    }

    #[test]
    fn arithmetic_is_pointwise() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(10.0, 20.0);
        assert_eq!(a.add(b), Interval::new(11.0, 22.0));
        assert_eq!(a.scale(3.0), Interval::new(3.0, 6.0));
        assert_eq!(a.join(b), Interval::new(1.0, 20.0));
    }

    #[test]
    fn contains_has_audit_tolerance() {
        let i = Interval::new(1.0, 2.0);
        assert!(i.contains(1.0));
        assert!(i.contains(2.0 + 1e-9));
        assert!(!i.contains(2.1));
        assert!(!i.contains(0.9));
    }

    #[test]
    fn message_cost_interval_brackets_every_concrete_cost() {
        let cost = CostModel::new(4.0, 0.5).unwrap();
        let sym = cost.message_cost_interval(Interval::new(0.0, 10.0));
        for x in 0..=10 {
            assert!(sym.contains(cost.message_cost(x as f64)));
        }
        assert_eq!(sym, Interval::new(4.0, 9.0));
    }

    #[test]
    fn funnel_interval_matches_concrete_funnel() {
        let i = Interval::new(0.5, 12.0);
        assert_eq!(Aggregation::Holistic.funnel_interval(i), i);
        assert_eq!(Aggregation::Sum.funnel_interval(i), Interval::new(0.5, 1.0));
        assert_eq!(
            Aggregation::Top(3).funnel_interval(i),
            Interval::new(0.5, 3.0)
        );
    }

    #[test]
    fn serde_roundtrip() {
        let i = Interval::new(1.5, 7.25);
        let text = serde_json::to_string(&i).unwrap();
        let back: Interval = serde_json::from_str(&text).unwrap();
        assert_eq!(back, i);
    }
}
