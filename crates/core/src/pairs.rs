//! The deduplicated node-attribute pair set — the input to monitoring
//! planning (paper Problem Statement 1).

use crate::ids::{AttrId, NodeId};
use crate::index::PairIndex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// Pair lists returned by [`PairSet::diff`]: `(added, removed)`.
pub type PairDiff = (Vec<(NodeId, AttrId)>, Vec<(NodeId, AttrId)>);

/// A deduplicated set of `(node, attribute)` pairs with both forward
/// (node → attributes) and reverse (attribute → nodes) indexes.
///
/// Produced by the [`TaskManager`](crate::taskman::TaskManager) after
/// removing inter-task duplication; consumed by the planner.
///
/// # Examples
///
/// ```
/// use remo_core::{PairSet, NodeId, AttrId};
/// let mut pairs = PairSet::new();
/// pairs.insert(NodeId(0), AttrId(0));
/// pairs.insert(NodeId(0), AttrId(1));
/// pairs.insert(NodeId(1), AttrId(0));
/// assert_eq!(pairs.len(), 3);
/// assert_eq!(pairs.attrs_of(NodeId(0)).unwrap().len(), 2);
/// assert_eq!(pairs.nodes_of(AttrId(0)).unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PairSet {
    by_node: BTreeMap<NodeId, BTreeSet<AttrId>>,
    by_attr: BTreeMap<AttrId, BTreeSet<NodeId>>,
    len: usize,
    /// Lazily built dense index ([`PairIndex`]); cleared by any
    /// mutation so it always mirrors the current pair content. Not part
    /// of the value: skipped by serde (hand-written impls below) and
    /// ignored by `PartialEq`.
    index: OnceLock<Arc<PairIndex>>,
}

impl PartialEq for PairSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.by_node == other.by_node && self.by_attr == other.by_attr
    }
}

impl Eq for PairSet {}

// Hand-written serde impls matching the derive's wire format for the
// three data fields; the index cache is transient and rebuilt on
// demand after a round-trip.
impl Serialize for PairSet {
    fn serialize(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("by_node".to_string(), self.by_node.serialize()),
            ("by_attr".to_string(), self.by_attr.serialize()),
            ("len".to_string(), self.len.serialize()),
        ])
    }
}

impl Deserialize for PairSet {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        if !matches!(v, serde::Value::Object(_)) {
            return Err(format!("expected object, found {}", v.kind()));
        }
        let read = |field: &str| {
            v.get(field)
                .ok_or_else(|| format!("missing field `{field}`"))
        };
        Ok(PairSet {
            by_node: Deserialize::deserialize(read("by_node")?)?,
            by_attr: Deserialize::deserialize(read("by_attr")?)?,
            len: Deserialize::deserialize(read("len")?)?,
            index: OnceLock::new(),
        })
    }
}

impl PairSet {
    /// Creates an empty pair set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a pair; returns `true` if it was not already present.
    pub fn insert(&mut self, node: NodeId, attr: AttrId) -> bool {
        let fresh = self.by_node.entry(node).or_default().insert(attr);
        if fresh {
            self.by_attr.entry(attr).or_default().insert(node);
            self.len += 1;
            self.index.take();
        }
        fresh
    }

    /// Removes a pair; returns `true` if it was present.
    pub fn remove(&mut self, node: NodeId, attr: AttrId) -> bool {
        let removed = match self.by_node.get_mut(&node) {
            Some(set) => set.remove(&attr),
            None => false,
        };
        if removed {
            if self.by_node.get(&node).is_some_and(BTreeSet::is_empty) {
                self.by_node.remove(&node);
            }
            if let Some(set) = self.by_attr.get_mut(&attr) {
                set.remove(&node);
                if set.is_empty() {
                    self.by_attr.remove(&attr);
                }
            }
            self.len -= 1;
            self.index.take();
        }
        removed
    }

    /// The dense struct-of-arrays index over this pair set, built on
    /// first use and cached until the next mutation. All hot planner
    /// paths (participant discovery, load accumulation, overlap
    /// ranking) go through this view.
    pub fn index(&self) -> &PairIndex {
        self.shared().as_ref()
    }

    /// [`index`](Self::index) as a shared handle, for a value that
    /// outlives this borrow of the pair set.
    pub(crate) fn shared_index(&self) -> Arc<PairIndex> {
        Arc::clone(self.shared())
    }

    fn shared(&self) -> &Arc<PairIndex> {
        self.index.get_or_init(|| Arc::new(PairIndex::build(self)))
    }

    /// Returns `true` if the pair is present.
    pub fn contains(&self, node: NodeId, attr: AttrId) -> bool {
        self.by_node
            .get(&node)
            .is_some_and(|set| set.contains(&attr))
    }

    /// Number of distinct pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Attributes monitored on `node`, if any.
    pub fn attrs_of(&self, node: NodeId) -> Option<&BTreeSet<AttrId>> {
        self.by_node.get(&node)
    }

    /// Nodes on which `attr` is monitored, if any.
    pub fn nodes_of(&self, attr: AttrId) -> Option<&BTreeSet<NodeId>> {
        self.by_attr.get(&attr)
    }

    /// All nodes with at least one monitored attribute.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.by_node.keys().copied()
    }

    /// All attributes monitored on at least one node — the attribute
    /// universe `A` that partitions are defined over.
    pub fn attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.by_attr.keys().copied()
    }

    /// The attribute universe as an owned set.
    pub fn attr_universe(&self) -> BTreeSet<AttrId> {
        self.by_attr.keys().copied().collect()
    }

    /// Iterates over every `(node, attr)` pair in node-major order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, AttrId)> + '_ {
        self.by_node
            .iter()
            .flat_map(|(&n, attrs)| attrs.iter().map(move |&a| (n, a)))
    }

    /// Number of pairs on `node` whose attribute is in `set` — the
    /// local value count `x_i` a node contributes to the tree that
    /// delivers `set`.
    pub fn node_load_in(&self, node: NodeId, set: &BTreeSet<AttrId>) -> usize {
        self.by_node
            .get(&node)
            .map_or(0, |attrs| attrs.intersection(set).count())
    }

    /// The nodes that participate in the tree delivering attribute set
    /// `set`: every node owning at least one pair whose attribute is in
    /// `set`.
    pub fn participants(&self, set: &BTreeSet<AttrId>) -> BTreeSet<NodeId> {
        let mut out = BTreeSet::new();
        for attr in set {
            if let Some(nodes) = self.by_attr.get(attr) {
                out.extend(nodes.iter().copied());
            }
        }
        out
    }

    /// Precomputes dense participant bitsets for a list of attribute
    /// sets in one pass over the reverse index, so pairwise overlap
    /// queries become AND-popcount over `u64` words instead of
    /// materializing [`participants`](Self::participants) sets per
    /// query. Overlap counts are exact, so callers that pick partners
    /// by maximum overlap make the same choices either way.
    pub fn participant_bitsets(&self, sets: &[BTreeSet<AttrId>]) -> ParticipantBitsets {
        let node_index: BTreeMap<NodeId, usize> = self
            .by_node
            .keys()
            .enumerate()
            .map(|(x, &n)| (n, x))
            .collect();
        let words = node_index.len().div_ceil(64).max(1);
        let mut bits = vec![0u64; sets.len() * words];
        for (s, set) in sets.iter().enumerate() {
            let row = &mut bits[s * words..(s + 1) * words];
            for attr in set {
                if let Some(nodes) = self.by_attr.get(attr) {
                    for n in nodes {
                        let x = node_index[n];
                        row[x / 64] |= 1u64 << (x % 64);
                    }
                }
            }
        }
        ParticipantBitsets { words, bits }
    }

    /// Computes the symmetric difference with `other` as
    /// `(added, removed)` pair lists: pairs in `other` but not `self`,
    /// and pairs in `self` but not `other`. Used to find trees affected
    /// by task churn.
    pub fn diff(&self, other: &PairSet) -> PairDiff {
        let added = other
            .iter()
            .filter(|&(n, a)| !self.contains(n, a))
            .collect();
        let removed = self
            .iter()
            .filter(|&(n, a)| !other.contains(n, a))
            .collect();
        (added, removed)
    }
}

/// Dense per-set participant bitsets over a fixed node universe; see
/// [`PairSet::participant_bitsets`].
#[derive(Debug, Clone)]
pub struct ParticipantBitsets {
    words: usize,
    bits: Vec<u64>,
}

impl ParticipantBitsets {
    /// Number of participants the two sets share.
    pub fn overlap(&self, i: usize, j: usize) -> usize {
        let a = &self.bits[i * self.words..(i + 1) * self.words];
        let b = &self.bits[j * self.words..(j + 1) * self.words];
        a.iter()
            .zip(b)
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum()
    }

    /// Number of participants in set `i`.
    pub fn count(&self, i: usize) -> usize {
        self.bits[i * self.words..(i + 1) * self.words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

impl FromIterator<(NodeId, AttrId)> for PairSet {
    fn from_iter<I: IntoIterator<Item = (NodeId, AttrId)>>(iter: I) -> Self {
        let mut set = PairSet::new();
        for (n, a) in iter {
            set.insert(n, a);
        }
        set
    }
}

impl Extend<(NodeId, AttrId)> for PairSet {
    fn extend<I: IntoIterator<Item = (NodeId, AttrId)>>(&mut self, iter: I) {
        for (n, a) in iter {
            self.insert(n, a);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn sample() -> PairSet {
        [
            (NodeId(0), AttrId(0)),
            (NodeId(0), AttrId(1)),
            (NodeId(1), AttrId(0)),
            (NodeId(2), AttrId(2)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn insert_deduplicates() {
        let mut p = PairSet::new();
        assert!(p.insert(NodeId(0), AttrId(0)));
        assert!(!p.insert(NodeId(0), AttrId(0)));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn remove_cleans_indexes() {
        let mut p = sample();
        assert!(p.remove(NodeId(2), AttrId(2)));
        assert!(!p.remove(NodeId(2), AttrId(2)));
        assert!(p.nodes_of(AttrId(2)).is_none());
        assert!(p.attrs_of(NodeId(2)).is_none());
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn reverse_index_consistent() {
        let p = sample();
        assert_eq!(
            p.nodes_of(AttrId(0))
                .unwrap()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(1)]
        );
        assert_eq!(p.attr_universe().len(), 3);
    }

    #[test]
    fn node_load_counts_intersection() {
        let p = sample();
        let set: BTreeSet<AttrId> = [AttrId(0), AttrId(2)].into_iter().collect();
        assert_eq!(p.node_load_in(NodeId(0), &set), 1);
        assert_eq!(p.node_load_in(NodeId(2), &set), 1);
        assert_eq!(p.node_load_in(NodeId(9), &set), 0);
    }

    #[test]
    fn participants_unions_attr_owners() {
        let p = sample();
        let set: BTreeSet<AttrId> = [AttrId(1), AttrId(2)].into_iter().collect();
        let d = p.participants(&set);
        assert_eq!(
            d.into_iter().collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(2)]
        );
    }

    #[test]
    fn diff_reports_adds_and_removes() {
        let a = sample();
        let mut b = sample();
        b.remove(NodeId(1), AttrId(0));
        b.insert(NodeId(3), AttrId(3));
        let (added, removed) = a.diff(&b);
        assert_eq!(added, vec![(NodeId(3), AttrId(3))]);
        assert_eq!(removed, vec![(NodeId(1), AttrId(0))]);
    }

    #[test]
    fn iter_order_is_node_major() {
        let p = sample();
        let v: Vec<_> = p.iter().collect();
        assert_eq!(v[0], (NodeId(0), AttrId(0)));
        assert_eq!(v[1], (NodeId(0), AttrId(1)));
        assert_eq!(v[2], (NodeId(1), AttrId(0)));
    }
}
