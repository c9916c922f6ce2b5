//! The deduplicated node-attribute pair set — the input to monitoring
//! planning (paper Problem Statement 1) — held once, as a node-major
//! sorted array.

use crate::ids::{AttrId, NodeId};
use crate::index::PairIndex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Pair lists returned by [`PairSet::diff`]: `(added, removed)`.
pub type PairDiff = (Vec<(NodeId, AttrId)>, Vec<(NodeId, AttrId)>);

/// A deduplicated set of `(node, attribute)` pairs.
///
/// The pairs are held once, node-major: the ascending owning nodes,
/// and one flat array of attributes in which each node's run is
/// ascending (compressed sparse rows, one per node). So a node's attributes
/// are a slice ([`attrs_of`](Self::attrs_of)), and collecting a set is
/// one sort. The attribute-major view ([`nodes_of`](Self::nodes_of),
/// [`attrs`](Self::attrs), [`participants`](Self::participants)) reads
/// the dense [`PairIndex`], built on first use and cached until the
/// next mutation.
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
/// assert_eq!(pairs.attrs_of(NodeId(0)), Some(&[AttrId(0), AttrId(1)][..]));
/// assert_eq!(pairs.nodes_of(AttrId(0)).len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PairSet {
    /// Nodes owning at least one pair, ascending.
    nodes: Vec<NodeId>,
    /// `ends[i]` is one past the last attribute of `nodes[i]` in
    /// `attrs`; its run starts where the previous node's ends.
    ends: Vec<u32>,
    /// Every pair's attribute, node-major, ascending within a node.
    attrs: Vec<AttrId>,
    /// Lazily built dense index ([`PairIndex`]); cleared by any
    /// mutation so it always mirrors the current pair content. Not part
    /// of the value: skipped by serde (hand-written impls below) and
    /// ignored by `PartialEq`.
    index: OnceLock<Arc<PairIndex>>,
}

impl PartialEq for PairSet {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.ends == other.ends && self.attrs == other.attrs
    }
}

impl Eq for PairSet {}

// The wire format carries both directions and the count — `by_node`
// (node → ascending attributes), `by_attr` (attribute → ascending
// nodes) and `len` — as plan bundles already written do; reading one
// checks that the three agree. The index cache is transient and rebuilt
// on demand after a round-trip.
impl Serialize for PairSet {
    fn serialize(&self) -> serde::Value {
        let by_node: BTreeMap<NodeId, Vec<AttrId>> =
            self.runs().map(|(n, attrs)| (n, attrs.to_vec())).collect();
        let by_attr: BTreeMap<AttrId, Vec<NodeId>> = self
            .attrs()
            .map(|a| (a, self.nodes_of(a).collect()))
            .collect();
        serde::Value::Object(vec![
            ("by_node".to_string(), by_node.serialize()),
            ("by_attr".to_string(), by_attr.serialize()),
            ("len".to_string(), self.len().serialize()),
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
        let by_node: BTreeMap<NodeId, Vec<AttrId>> = Deserialize::deserialize(read("by_node")?)?;
        let by_attr: BTreeMap<AttrId, Vec<NodeId>> = Deserialize::deserialize(read("by_attr")?)?;
        let len: usize = Deserialize::deserialize(read("len")?)?;
        let pairs: PairSet = by_node
            .into_iter()
            .flat_map(|(n, attrs)| attrs.into_iter().map(move |a| (n, a)))
            .collect();
        let transposed: PairSet = by_attr
            .into_iter()
            .flat_map(|(a, nodes)| nodes.into_iter().map(move |n| (n, a)))
            .collect();
        if pairs != transposed || pairs.len() != len {
            return Err("`by_node`, `by_attr` and `len` describe different pair sets".into());
        }
        Ok(pairs)
    }
}

impl PairSet {
    /// Creates an empty pair set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The pair set of `pairs`, sorted and deduplicated in place.
    fn from_pairs(mut pairs: Vec<(NodeId, AttrId)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        let mut set = PairSet {
            attrs: Vec::with_capacity(pairs.len()),
            ..PairSet::default()
        };
        for (n, a) in pairs {
            if set.nodes.last() == Some(&n) {
                set.ends.pop();
            } else {
                set.nodes.push(n);
            }
            set.attrs.push(a);
            let end = u32::try_from(set.attrs.len())
                .unwrap_or_else(|_| unreachable!("more than u32::MAX pairs"));
            set.ends.push(end);
        }
        set.nodes.shrink_to_fit();
        set.ends.shrink_to_fit();
        set
    }

    /// Where the attributes of `nodes[i]` lie in `attrs`.
    fn span(&self, i: usize) -> Range<usize> {
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        start as usize..self.ends[i] as usize
    }

    /// Each node with its ascending attributes, in node order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (NodeId, &[AttrId])> + '_ {
        let run = |(i, &n)| (n, &self.attrs[self.span(i)]);
        self.nodes.iter().enumerate().map(run)
    }

    /// Inserts a pair; returns `true` if it was not already present.
    pub fn insert(&mut self, node: NodeId, attr: AttrId) -> bool {
        let i = match self.nodes.binary_search(&node) {
            Ok(i) => i,
            Err(i) => {
                // A new node starts with an empty run.
                let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev]);
                self.nodes.insert(i, node);
                self.ends.insert(i, start);
                i
            }
        };
        let span = self.span(i);
        let Err(k) = self.attrs[span.clone()].binary_search(&attr) else {
            return false;
        };
        self.attrs.insert(span.start + k, attr);
        for end in &mut self.ends[i..] {
            *end += 1;
        }
        self.index.take();
        true
    }

    /// Removes a pair; returns `true` if it was present.
    pub fn remove(&mut self, node: NodeId, attr: AttrId) -> bool {
        let Ok(i) = self.nodes.binary_search(&node) else {
            return false;
        };
        let span = self.span(i);
        let Ok(k) = self.attrs[span.clone()].binary_search(&attr) else {
            return false;
        };
        self.attrs.remove(span.start + k);
        for end in &mut self.ends[i..] {
            *end -= 1;
        }
        if span.len() == 1 {
            self.nodes.remove(i);
            self.ends.remove(i);
        }
        self.index.take();
        true
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
        self.attrs_of(node)
            .is_some_and(|attrs| attrs.binary_search(&attr).is_ok())
    }

    /// Number of distinct pairs.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Returns `true` if there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Attributes monitored on `node`, ascending, if any.
    pub fn attrs_of(&self, node: NodeId) -> Option<&[AttrId]> {
        let i = self.nodes.binary_search(&node).ok()?;
        Some(&self.attrs[self.span(i)])
    }

    /// Nodes on which `attr` is monitored, ascending; none if nobody
    /// owns it. Reads the [`index`](Self::index), so a loop that
    /// mutates the set should not call it.
    pub fn nodes_of(&self, attr: AttrId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        let idx = self.index();
        idx.owners(attr).iter().map(|&d| idx.node_id(d))
    }

    /// All nodes with at least one monitored attribute, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// All attributes monitored on at least one node, ascending — the
    /// attribute universe `A` that partitions are defined over.
    pub fn attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.index().attr_ids().iter().copied()
    }

    /// The attribute universe as an owned set.
    pub fn attr_universe(&self) -> BTreeSet<AttrId> {
        self.attrs().collect()
    }

    /// Iterates over every `(node, attr)` pair in node-major order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, AttrId)> + '_ {
        self.runs()
            .flat_map(|(n, attrs)| attrs.iter().map(move |&a| (n, a)))
    }

    /// Number of pairs on `node` whose attribute is in `set` — the
    /// local value count `x_i` a node contributes to the tree that
    /// delivers `set`.
    pub fn node_load_in(&self, node: NodeId, set: &BTreeSet<AttrId>) -> usize {
        self.attrs_of(node)
            .map_or(0, |attrs| attrs.iter().filter(|a| set.contains(a)).count())
    }

    /// The nodes that participate in the tree delivering attribute set
    /// `set`, ascending: every node owning at least one pair whose
    /// attribute is in `set`.
    pub fn participants(&self, set: &BTreeSet<AttrId>) -> Vec<NodeId> {
        let idx = self.index();
        let (mut row, mut dense) = (Vec::new(), Vec::new());
        idx.or_participants(set, &mut row);
        PairIndex::iter_bits(&row, &mut dense);
        dense.into_iter().map(|d| idx.node_id(d)).collect()
    }

    /// Dense participant bitsets for a list of attribute sets, one row
    /// per set ORed from the index's per-attribute rows, so pairwise
    /// overlap queries become AND-popcount over `u64` words instead of
    /// materializing [`participants`](Self::participants) per query.
    /// Overlap counts are exact, so callers that pick partners by
    /// maximum overlap make the same choices either way.
    pub fn participant_bitsets(&self, sets: &[BTreeSet<AttrId>]) -> ParticipantBitsets {
        let idx = self.index();
        let words = idx.words();
        let mut bits = vec![0u64; sets.len() * words];
        for (row, set) in bits.chunks_exact_mut(words).zip(sets) {
            for bits in set.iter().filter_map(|&attr| idx.attr_bits(attr)) {
                for (w, b) in row.iter_mut().zip(bits) {
                    *w |= b;
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
        PairSet::from_pairs(iter.into_iter().collect())
    }
}

impl Extend<(NodeId, AttrId)> for PairSet {
    fn extend<I: IntoIterator<Item = (NodeId, AttrId)>>(&mut self, iter: I) {
        *self = PairSet::from_pairs(self.iter().chain(iter).collect());
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
        assert_eq!(p.nodes_of(AttrId(2)).len(), 0);
        assert!(p.attrs_of(NodeId(2)).is_none());
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn reverse_index_consistent() {
        let p = sample();
        assert_eq!(
            p.nodes_of(AttrId(0)).collect::<Vec<_>>(),
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
        assert_eq!(p.participants(&set), vec![NodeId(0), NodeId(2)]);
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
