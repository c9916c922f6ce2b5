//! Strongly-typed identifiers for the entities in a monitoring deployment.
//!
//! The planner juggles three id spaces — monitoring nodes, attribute
//! *types*, and monitoring tasks — that are all small integers at heart.
//! Newtypes keep them from being confused for one another
//! (see C-NEWTYPE in the Rust API guidelines).

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a monitoring node (a member host of the monitored
/// application). The central collector is *not* a `NodeId`; it is
/// represented by [`Parent::Collector`](crate::tree::Parent) in tree
/// structures and has its own capacity entry in
/// [`CapacityMap`](crate::capacity::CapacityMap).
///
/// # Examples
///
/// ```
/// use remo_core::NodeId;
/// let n = NodeId(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(format!("{n}"), "n3");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index, for dense tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identifier of an attribute *type* (e.g. `cpu_utilization`).
///
/// Attributes at different nodes with the same subscription are
/// considered the same type (paper §2.3); a monitored datum is therefore
/// a *(node, attribute)* pair — see
/// [`PairSet`](crate::pairs::PairSet).
///
/// # Examples
///
/// ```
/// use remo_core::AttrId;
/// assert_eq!(format!("{}", AttrId(7)), "a7");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct AttrId(pub u32);

impl AttrId {
    /// Returns the id as a `usize` index, for dense tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl From<u32> for AttrId {
    fn from(v: u32) -> Self {
        AttrId(v)
    }
}

/// Identifier of a monitoring task submitted by a user
/// (see [`MonitoringTask`](crate::task::MonitoringTask)).
///
/// # Examples
///
/// ```
/// use remo_core::TaskId;
/// assert_eq!(format!("{}", TaskId(0)), "t0");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u32> for TaskId {
    fn from(v: u32) -> Self {
        TaskId(v)
    }
}

/// Hasher of the id-keyed tables on the planner's and the collector's
/// hot paths: one rotate-xor-multiply per `u32` (a `u64` is two). The
/// tree kernel looks a node id up for nearly every step it takes, the
/// tree cache hashes a participant list per lookup, the collector a
/// `(NodeId, AttrId)` pair per delivered value and the lossy transport a
/// frame's identity per send; the default SipHash costs more than the
/// work around each of them.
///
/// It is not collision-resistant. Every key it hashes is built from the
/// system's own ids, budgets and registered nodes, never from input a
/// stranger controls, and nothing iterates these tables in an order
/// that matters.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(v)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.write_u32(v as u32);
        self.write_u32((v >> 32) as u32);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the table
        // indexes with the low ones.
        self.0.rotate_left(26)
    }
}

/// [`IdHasher`] as a `HashMap`/`HashSet` build hasher.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` of ids, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n: NodeId = 42u32.into();
        assert_eq!(n, NodeId(42));
        assert_eq!(n.index(), 42);
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(1).to_string(), "n1");
        assert_eq!(AttrId(2).to_string(), "a2");
        assert_eq!(TaskId(3).to_string(), "t3");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(NodeId(2) < NodeId(10));
        assert!(AttrId(2) < AttrId(10));
    }

    fn id_hash<T: std::hash::Hash>(key: &T) -> u64 {
        use std::hash::BuildHasher;
        IdBuildHasher::default().hash_one(key)
    }

    /// The largest bucket when `hashes` are spread over `buckets` (a
    /// power of two) by their low bits, as a table indexes them.
    fn fullest_bucket(hashes: impl Iterator<Item = u64>, buckets: usize) -> usize {
        let mut load = vec![0usize; buckets];
        for h in hashes {
            load[(h as usize) & (buckets - 1)] += 1;
        }
        load.into_iter().max().unwrap()
    }

    #[test]
    fn id_hasher_is_deterministic() {
        let key = (NodeId(7), AttrId(3));
        assert_eq!(id_hash(&key), id_hash(&key));
        assert_eq!(
            id_hash(&(7u32, 1.5f64.to_bits())),
            id_hash(&(7u32, 1.5f64.to_bits()))
        );
        assert_ne!(id_hash(&NodeId(1)), id_hash(&NodeId(2)));
        assert_ne!(
            id_hash(&(NodeId(1), AttrId(2))),
            id_hash(&(NodeId(2), AttrId(1)))
        );
    }

    #[test]
    fn id_hasher_spreads_dense_runs_and_grids() {
        for buckets in [64usize, 256, 1024] {
            // A dense run of node ids, offset like a fleet's id range.
            for base in [0u32, 1_000, 1 << 20] {
                let n = 8 * buckets as u32;
                let full = fullest_bucket((base..base + n).map(|i| id_hash(&NodeId(i))), buckets);
                assert!(
                    full <= 4 * 8,
                    "run from {base}: {full} in one of {buckets} buckets"
                );
            }
            // A node × attribute grid, the collector's pair keys.
            let side = ((8 * buckets) as f64).sqrt() as u32 + 1;
            let grid = (0..side).flat_map(|n| (0..side).map(move |a| (NodeId(n), AttrId(a))));
            let share = (side * side) as usize / buckets;
            let full = fullest_bucket(grid.map(|k| id_hash(&k)), buckets);
            assert!(
                full <= 4 * share.max(1),
                "{side}² grid: {full} in one of {buckets} buckets"
            );
        }
    }

    #[test]
    fn ids_hash_and_eq() {
        use std::collections::HashSet;
        let set: HashSet<NodeId> = [NodeId(1), NodeId(1), NodeId(2)].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
