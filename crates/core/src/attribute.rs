//! The attribute catalog: per-attribute-type metadata.
//!
//! Attributes of the same type (e.g. `cpu_utilization`) on different
//! nodes are instances of one catalog entry. The catalog records the
//! properties the planner needs: the in-network aggregation kind
//! (paper §6.1) and the update frequency (paper §6.3).

use crate::cost::Aggregation;
use crate::error::PlanError;
use crate::ids::AttrId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Metadata for one attribute type.
///
/// # Examples
///
/// ```
/// use remo_core::{AttrInfo, Aggregation};
/// let info = AttrInfo::new("cpu_utilization")
///     .with_aggregation(Aggregation::Max)
///     .with_frequency(0.5)
///     .unwrap();
/// assert_eq!(info.name(), "cpu_utilization");
/// assert_eq!(info.frequency(), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttrInfo {
    name: String,
    aggregation: Aggregation,
    frequency: f64,
}

impl AttrInfo {
    /// Creates a holistic attribute with unit update frequency.
    pub fn new(name: impl Into<String>) -> Self {
        AttrInfo {
            name: name.into(),
            aggregation: Aggregation::Holistic,
            frequency: 1.0,
        }
    }

    /// Sets the in-network aggregation kind.
    #[must_use]
    pub fn with_aggregation(mut self, aggregation: Aggregation) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Sets the update frequency in updates per epoch; values below
    /// `1.0` mean the attribute is collected less often than once per
    /// epoch and piggybacks at fractional cost (paper §6.3).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::InvalidParameter`] if `frequency` is not in
    /// `(0, 1]`. Frequencies above the epoch rate are expressed by
    /// shrinking the epoch, not by super-unit frequencies, which keeps
    /// the piggyback weight `freq/freq_max ≤ 1` well-formed.
    pub fn with_frequency(mut self, frequency: f64) -> Result<Self, PlanError> {
        if !frequency.is_finite() || frequency <= 0.0 || frequency > 1.0 {
            return Err(PlanError::InvalidParameter {
                name: "frequency",
                value: frequency,
            });
        }
        self.frequency = frequency;
        Ok(self)
    }

    /// Human-readable attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The aggregation kind applied in-network.
    pub fn aggregation(&self) -> Aggregation {
        self.aggregation
    }

    /// Update frequency in updates per epoch, in `(0, 1]`.
    pub fn frequency(&self) -> f64 {
        self.frequency
    }

    /// Epochs between two samples: `round(1/f)`, at least 1. A
    /// frequency that is not positive — which [`AttrInfo::with_frequency`]
    /// refuses, but a deserialized descriptor can carry — never
    /// refreshes: `u64::MAX`.
    pub fn period(&self) -> u64 {
        if self.frequency > 0.0 {
            (1.0 / self.frequency).round().max(1.0) as u64
        } else {
            u64::MAX
        }
    }
}

/// Registry of attribute types, indexed by [`AttrId`].
///
/// # Examples
///
/// ```
/// use remo_core::{AttrCatalog, AttrInfo};
/// let mut catalog = AttrCatalog::new();
/// let cpu = catalog.register(AttrInfo::new("cpu"));
/// let mem = catalog.register(AttrInfo::new("mem"));
/// assert_ne!(cpu, mem);
/// assert_eq!(catalog.get(cpu).unwrap().name(), "cpu");
/// assert_eq!(catalog.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AttrCatalog {
    entries: BTreeMap<AttrId, AttrInfo>,
    next: u32,
}

impl AttrCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a catalog with `n` generic holistic attributes named
    /// `attr0..attr{n-1}` — the synthetic-workload default.
    ///
    /// # Examples
    ///
    /// ```
    /// use remo_core::AttrCatalog;
    /// let c = AttrCatalog::with_generic(3);
    /// assert_eq!(c.len(), 3);
    /// ```
    pub fn with_generic(n: usize) -> Self {
        let mut catalog = Self::new();
        for i in 0..n {
            catalog.register(AttrInfo::new(format!("attr{i}")));
        }
        catalog
    }

    /// Registers a new attribute type and returns its id.
    pub fn register(&mut self, info: AttrInfo) -> AttrId {
        let id = AttrId(self.next);
        self.next += 1;
        self.entries.insert(id, info);
        id
    }

    /// Looks up an attribute's metadata.
    pub fn get(&self, id: AttrId) -> Option<&AttrInfo> {
        self.entries.get(&id)
    }

    /// Looks up an attribute's metadata, falling back to a default
    /// holistic unit-frequency descriptor for unregistered ids.
    ///
    /// The planner uses this so that workloads generated purely from
    /// integer ids work without pre-registering a catalog.
    pub fn get_or_default(&self, id: AttrId) -> AttrInfo {
        self.entries
            .get(&id)
            .cloned()
            .unwrap_or_else(|| AttrInfo::new(format!("attr{}", id.0)))
    }

    /// Number of registered attribute types.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no attributes are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(id, info)` entries in id order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &AttrInfo)> {
        self.entries.iter().map(|(id, info)| (*id, info))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn register_assigns_sequential_ids() {
        let mut c = AttrCatalog::new();
        let a = c.register(AttrInfo::new("a"));
        let b = c.register(AttrInfo::new("b"));
        assert_eq!(a, AttrId(0));
        assert_eq!(b, AttrId(1));
    }

    #[test]
    fn frequency_validation() {
        assert!(AttrInfo::new("a").with_frequency(0.0).is_err());
        assert!(AttrInfo::new("a").with_frequency(1.5).is_err());
        assert!(AttrInfo::new("a").with_frequency(f64::NAN).is_err());
        assert!(AttrInfo::new("a").with_frequency(1.0).is_ok());
        assert!(AttrInfo::new("a").with_frequency(0.01).is_ok());
    }

    #[test]
    fn period_is_the_rounded_inverse_frequency_and_never_below_one() {
        let period = |frequency| AttrInfo {
            frequency,
            ..AttrInfo::new("a")
        };
        for (f, want) in [
            (1.0, 1),
            (0.75, 1),
            (0.5, 2),
            (0.4, 3),
            (1.0 / 3.0, 3),
            (0.3, 3),
            (0.25, 4),
            (0.125, 8),
            (0.01, 100),
            (0.0, u64::MAX),
            (-0.5, u64::MAX),
        ] {
            assert_eq!(period(f).period(), want, "frequency {f}");
        }
    }

    #[test]
    fn get_or_default_for_unknown() {
        let c = AttrCatalog::new();
        let info = c.get_or_default(AttrId(7));
        assert_eq!(info.name(), "attr7");
        assert!(info.aggregation().is_identity());
        assert_eq!(info.frequency(), 1.0);
    }

    #[test]
    fn generic_catalog() {
        let c = AttrCatalog::with_generic(5);
        assert_eq!(c.len(), 5);
        assert_eq!(c.get(AttrId(4)).unwrap().name(), "attr4");
        assert!(c.get(AttrId(5)).is_none());
    }

    #[test]
    fn iter_in_id_order() {
        let c = AttrCatalog::with_generic(3);
        let ids: Vec<AttrId> = c.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![AttrId(0), AttrId(1), AttrId(2)]);
    }
}
