//! Attribute-set partitions and their merge/split neighborhood
//! (paper §3.1).
//!
//! A partition divides the monitored attribute universe into disjoint
//! non-empty sets; each set is delivered by one monitoring tree. The
//! two classical extremes are the *singleton-set* partition (one
//! attribute per tree, à la PIER) and the *one-set* partition (a single
//! tree for everything). REMO searches the space between them by
//! repeatedly applying `merge` and `split` operations (Definitions 2
//! and 3).

use crate::error::PlanError;
use crate::ids::AttrId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// An attribute set within a partition.
pub type AttrSet = BTreeSet<AttrId>;

/// A partition of the attribute universe into disjoint non-empty sets.
///
/// Invariants (enforced by all mutating operations):
/// - sets are pairwise disjoint,
/// - no set is empty,
/// - the union of all sets equals the universe the partition was built
///   over.
///
/// # Examples
///
/// ```
/// use remo_core::{Partition, AttrId};
/// let universe: Vec<AttrId> = (0..4).map(AttrId).collect();
/// let mut p = Partition::singleton(universe.iter().copied());
/// assert_eq!(p.len(), 4);
/// p.merge(0, 1)?;
/// assert_eq!(p.len(), 3);
/// let one = Partition::one_set(universe);
/// assert_eq!(one.len(), 1);
/// # Ok::<(), remo_core::PlanError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    sets: Vec<AttrSet>,
}

impl Partition {
    /// Builds the singleton-set partition (SP): one set per attribute.
    pub fn singleton(universe: impl IntoIterator<Item = AttrId>) -> Self {
        let sets = universe
            .into_iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .map(|a| {
                let mut s = AttrSet::new();
                s.insert(a);
                s
            })
            .collect();
        Partition { sets }
    }

    /// Builds the one-set partition (OP): all attributes in one set.
    /// An empty universe yields an empty partition.
    pub fn one_set(universe: impl IntoIterator<Item = AttrId>) -> Self {
        let set: AttrSet = universe.into_iter().collect();
        if set.is_empty() {
            Partition { sets: Vec::new() }
        } else {
            Partition { sets: vec![set] }
        }
    }

    /// Builds a partition from explicit sets.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::BadPartitionIndex`] if any set is empty or
    /// two sets overlap (the index in the error is the offending set's
    /// position).
    pub fn from_sets(sets: Vec<AttrSet>) -> Result<Self, PlanError> {
        let mut seen = AttrSet::new();
        for (i, set) in sets.iter().enumerate() {
            if set.is_empty() {
                return Err(PlanError::BadPartitionIndex(i));
            }
            for attr in set {
                if !seen.insert(*attr) {
                    return Err(PlanError::BadPartitionIndex(i));
                }
            }
        }
        Ok(Partition { sets })
    }

    /// Number of sets (= number of monitoring trees).
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Returns `true` if the partition has no sets.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The sets, in stable order.
    pub fn sets(&self) -> &[AttrSet] {
        &self.sets
    }

    /// One set by index.
    pub fn set(&self, index: usize) -> Option<&AttrSet> {
        self.sets.get(index)
    }

    /// The index of the set containing `attr`, if any.
    pub fn set_of(&self, attr: AttrId) -> Option<usize> {
        self.sets.iter().position(|s| s.contains(&attr))
    }

    /// The union of all sets.
    pub fn universe(&self) -> AttrSet {
        self.sets.iter().flatten().copied().collect()
    }

    /// Merge operation (Definition 2): replaces sets `i` and `j` with
    /// their union. The merged set takes position `min(i, j)`; later
    /// set indexes shift down by one.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::BadPartitionIndex`] if `i == j` or either
    /// index is out of bounds.
    pub fn merge(&mut self, i: usize, j: usize) -> Result<usize, PlanError> {
        if i == j {
            return Err(PlanError::BadPartitionIndex(j));
        }
        if i >= self.sets.len() || j >= self.sets.len() {
            return Err(PlanError::BadPartitionIndex(i.max(j)));
        }
        let (lo, hi) = (i.min(j), i.max(j));
        let taken = self.sets.remove(hi);
        self.sets[lo].extend(taken);
        Ok(lo)
    }

    /// Split operation (Definition 2): removes `attr` from set `i` and
    /// appends `{attr}` as a new set at the end.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::BadPartitionIndex`] if `i` is out of
    /// bounds, or [`PlanError::BadSplit`] if `attr` is not in set `i`
    /// or set `i` is a singleton (splitting it would leave an empty
    /// set).
    pub fn split(&mut self, i: usize, attr: AttrId) -> Result<usize, PlanError> {
        let set = self
            .sets
            .get_mut(i)
            .ok_or(PlanError::BadPartitionIndex(i))?;
        if set.len() <= 1 || !set.contains(&attr) {
            return Err(PlanError::BadSplit(attr));
        }
        set.remove(&attr);
        let mut fresh = AttrSet::new();
        fresh.insert(attr);
        self.sets.push(fresh);
        Ok(self.sets.len() - 1)
    }

    /// Applies a [`PartitionOp`], returning the index of the modified
    /// or created set.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`merge`](Self::merge) and
    /// [`split`](Self::split).
    pub fn apply(&mut self, op: PartitionOp) -> Result<usize, PlanError> {
        match op {
            PartitionOp::Merge(i, j) => self.merge(i, j),
            PartitionOp::Split(i, attr) => self.split(i, attr),
        }
    }

    /// Checks the partition invariants; used by tests and
    /// `debug_assert!`s.
    pub fn is_valid(&self) -> bool {
        let mut seen = AttrSet::new();
        for set in &self.sets {
            if set.is_empty() {
                return false;
            }
            for attr in set {
                if !seen.insert(*attr) {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, set) in self.sets.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{{")?;
            for (k, attr) in set.iter().enumerate() {
                if k > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{attr}")?;
            }
            write!(f, "}}")?;
        }
        write!(f, "}}")
    }
}

/// A one-step modification to a partition: the neighborhood moves of
/// the guided local search (paper Definition 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartitionOp {
    /// Union of sets at the two indexes.
    Merge(usize, usize),
    /// Extraction of one attribute from the set at the index into a
    /// new singleton set.
    Split(usize, AttrId),
}

impl fmt::Display for PartitionOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionOp::Merge(i, j) => write!(f, "merge({i}, {j})"),
            PartitionOp::Split(i, a) => write!(f, "split({i}, {a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn universe(n: u32) -> Vec<AttrId> {
        (0..n).map(AttrId).collect()
    }

    #[test]
    fn singleton_and_one_set() {
        let sp = Partition::singleton(universe(4));
        assert_eq!(sp.len(), 4);
        assert!(sp.is_valid());
        let op = Partition::one_set(universe(4));
        assert_eq!(op.len(), 1);
        assert_eq!(op.set(0).unwrap().len(), 4);
        assert!(Partition::one_set(universe(0)).is_empty());
    }

    #[test]
    fn merge_unions_and_shifts() {
        let mut p = Partition::singleton(universe(3));
        let idx = p.merge(0, 2).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(p.len(), 2);
        assert!(p.set(0).unwrap().contains(&AttrId(0)));
        assert!(p.set(0).unwrap().contains(&AttrId(2)));
        assert!(p.is_valid());
    }

    #[test]
    fn merge_rejects_bad_indexes() {
        let mut p = Partition::singleton(universe(2));
        assert!(p.merge(0, 0).is_err());
        assert!(p.merge(0, 5).is_err());
    }

    #[test]
    fn split_extracts_singleton() {
        let mut p = Partition::one_set(universe(3));
        let idx = p.split(0, AttrId(1)).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(p.len(), 2);
        assert!(!p.set(0).unwrap().contains(&AttrId(1)));
        assert_eq!(p.set(1).unwrap().len(), 1);
        assert!(p.is_valid());
    }

    #[test]
    fn split_rejects_singleton_set_and_missing_attr() {
        let mut p = Partition::singleton(universe(2));
        assert_eq!(p.split(0, AttrId(0)), Err(PlanError::BadSplit(AttrId(0))));
        let mut p = Partition::one_set(universe(2));
        assert_eq!(p.split(0, AttrId(9)), Err(PlanError::BadSplit(AttrId(9))));
    }

    #[test]
    fn from_sets_validates() {
        assert!(Partition::from_sets(vec![AttrSet::new()]).is_err());
        let overlapping = vec![
            [AttrId(0)].into_iter().collect::<AttrSet>(),
            [AttrId(0)].into_iter().collect::<AttrSet>(),
        ];
        assert!(Partition::from_sets(overlapping).is_err());
    }

    #[test]
    fn set_of_finds_owner() {
        let mut p = Partition::one_set(universe(3));
        p.split(0, AttrId(2)).unwrap();
        assert_eq!(p.set_of(AttrId(2)), Some(1));
        assert_eq!(p.set_of(AttrId(0)), Some(0));
        assert_eq!(p.set_of(AttrId(9)), None);
    }

    #[test]
    fn display_is_readable() {
        let p = Partition::one_set(universe(2));
        assert_eq!(p.to_string(), "{{a0 a1}}");
    }
}
