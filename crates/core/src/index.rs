//! Dense pair-set index: the flat, cache-friendly mirror of
//! [`PairSet`] that the planner's hot loops run
//! over.
//!
//! `PairSet` keeps its `BTreeMap`-based forward/reverse indexes as the
//! mutable source of truth (task churn inserts and removes pairs), but
//! every planning pass walks the *same frozen* pair set thousands of
//! times: participant discovery per attribute set, per-node load
//! accumulation, pairwise overlap counts. [`PairIndex`] lowers those
//! walks onto packed arrays:
//!
//! - node and attribute ids are renumbered into dense `u32` indexes
//!   (`node_ids` / `attr_ids` are the sorted id tables, so dense order
//!   *is* ascending id order — iterating densely preserves every
//!   ordering the tree builders and the estimator tie-break on);
//! - the reverse index becomes one CSR array (`attr_offsets` into
//!   `attr_nodes`), so "owners of attribute a" is a contiguous slice;
//! - each attribute additionally gets a `u64`-word participant bitset
//!   row, so "participants of set S" is a word-parallel OR and
//!   pair-coverage / stranded-partner checks are AND-popcounts.
//!
//! The index is built once per pair-set state and cached inside
//! `PairSet` behind a `OnceLock` (invalidated by `insert`/`remove`), so
//! planner, cache, and estimator all share one build.

use crate::ids::{AttrId, NodeId};
use crate::pairs::PairSet;
use crate::partition::AttrSet;

/// Flat struct-of-arrays view of a [`PairSet`]; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct PairIndex {
    /// Sorted node ids: dense index → `NodeId`.
    node_ids: Vec<NodeId>,
    /// Sorted attribute ids: attribute row → `AttrId`.
    attr_ids: Vec<AttrId>,
    /// CSR offsets into [`attr_nodes`](Self::attr_nodes);
    /// `len == attr_ids.len() + 1`.
    attr_offsets: Vec<u32>,
    /// Owners of each attribute as dense node indexes, ascending within
    /// each row.
    attr_nodes: Vec<u32>,
    /// Words per participant-bitset row: `ceil(node_count / 64)`, at
    /// least 1.
    words: usize,
    /// Per-attribute participant bitsets, `attr_ids.len() * words`.
    attr_bits: Vec<u64>,
}

impl PairIndex {
    /// Builds the dense index from a pair set. `O(pairs)` time and
    /// space.
    pub fn build(pairs: &PairSet) -> Self {
        let node_ids: Vec<NodeId> = pairs.nodes().collect();
        let attr_ids: Vec<AttrId> = pairs.attrs().collect();
        let words = node_ids.len().div_ceil(64).max(1);

        let mut attr_offsets = Vec::with_capacity(attr_ids.len() + 1);
        let mut attr_nodes = Vec::with_capacity(pairs.len());
        let mut attr_bits = vec![0u64; attr_ids.len() * words];
        attr_offsets.push(0);
        for (row, &attr) in attr_ids.iter().enumerate() {
            if let Some(owners) = pairs.nodes_of(attr) {
                let bits = &mut attr_bits[row * words..(row + 1) * words];
                for &n in owners {
                    let dense = node_ids
                        .binary_search(&n)
                        .unwrap_or_else(|_| unreachable!("owner {n} missing from node table"));
                    let dense = u32::try_from(dense)
                        .unwrap_or_else(|_| unreachable!("more than u32::MAX nodes"));
                    attr_nodes.push(dense);
                    bits[(dense / 64) as usize] |= 1u64 << (dense % 64);
                }
            }
            let end = u32::try_from(attr_nodes.len())
                .unwrap_or_else(|_| unreachable!("more than u32::MAX pairs"));
            attr_offsets.push(end);
        }
        PairIndex {
            node_ids,
            attr_ids,
            attr_offsets,
            attr_nodes,
            words,
            attr_bits,
        }
    }

    /// Number of distinct nodes.
    pub fn node_count(&self) -> usize {
        self.node_ids.len()
    }

    /// Words per participant-bitset row.
    pub fn words(&self) -> usize {
        self.words
    }

    /// The `NodeId` at a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `dense` is out of range.
    pub fn node_id(&self, dense: u32) -> NodeId {
        self.node_ids[dense as usize]
    }

    /// The dense index of a node, if present.
    pub fn dense_node(&self, node: NodeId) -> Option<u32> {
        self.node_ids.binary_search(&node).ok().map(|x| x as u32)
    }

    /// The attribute row of `attr`, if present.
    pub fn attr_row(&self, attr: AttrId) -> Option<usize> {
        self.attr_ids.binary_search(&attr).ok()
    }

    /// Owners of `attr` as dense node indexes (ascending); empty when
    /// the attribute is unowned.
    pub fn owners(&self, attr: AttrId) -> &[u32] {
        match self.attr_row(attr) {
            Some(row) => {
                let lo = self.attr_offsets[row] as usize;
                let hi = self.attr_offsets[row + 1] as usize;
                &self.attr_nodes[lo..hi]
            }
            None => &[],
        }
    }

    /// The participant bitset of one attribute, or `None` if unowned.
    pub fn attr_bits(&self, attr: AttrId) -> Option<&[u64]> {
        self.attr_row(attr)
            .map(|row| &self.attr_bits[row * self.words..(row + 1) * self.words])
    }

    /// ORs the participant bitsets of every attribute in `set` into
    /// `buf` (resized and zeroed to one row). This is the word-parallel
    /// form of [`PairSet::participants`].
    pub fn or_participants(&self, set: &AttrSet, buf: &mut Vec<u64>) {
        buf.clear();
        buf.resize(self.words, 0);
        for &attr in set {
            if let Some(bits) = self.attr_bits(attr) {
                for (w, b) in buf.iter_mut().zip(bits) {
                    *w |= b;
                }
            }
        }
    }

    /// Number of participants of `set` (popcount of the OR row),
    /// without materializing the participant list.
    pub fn participant_count(&self, set: &AttrSet) -> usize {
        if set.len() == 1 {
            // Single attribute: the row is already the answer.
            return set
                .iter()
                .next()
                .and_then(|&a| self.attr_row(a))
                .map_or(0, |row| {
                    (self.attr_offsets[row + 1] - self.attr_offsets[row]) as usize
                });
        }
        let mut count = 0usize;
        let mut scratch = vec![0u64; 0];
        self.or_participants(set, &mut scratch);
        for w in &scratch {
            count += w.count_ones() as usize;
        }
        count
    }

    /// Appends the dense indexes set in `bits` to `out`, ascending.
    pub fn iter_bits(bits: &[u64], out: &mut Vec<u32>) {
        for (wi, &w) in bits.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                let b = w.trailing_zeros();
                out.push((wi as u32) * 64 + b);
                w &= w - 1;
            }
        }
    }

    /// Popcount of one bitset row.
    pub fn popcount(bits: &[u64]) -> usize {
        bits.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use std::collections::BTreeSet;

    fn sample() -> PairSet {
        [
            (NodeId(5), AttrId(0)),
            (NodeId(5), AttrId(1)),
            (NodeId(9), AttrId(0)),
            (NodeId(70), AttrId(2)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn dense_order_matches_id_order() {
        let pairs = sample();
        let idx = pairs.index();
        assert_eq!(idx.node_count(), 3);
        assert_eq!(idx.node_id(0), NodeId(5));
        assert_eq!(idx.node_id(2), NodeId(70));
        assert_eq!(idx.dense_node(NodeId(9)), Some(1));
        assert_eq!(idx.dense_node(NodeId(6)), None);
    }

    #[test]
    fn owners_match_reverse_index() {
        let pairs = sample();
        let idx = pairs.index();
        assert_eq!(idx.owners(AttrId(0)), &[0, 1]);
        assert_eq!(idx.owners(AttrId(2)), &[2]);
        assert!(idx.owners(AttrId(9)).is_empty());
    }

    #[test]
    fn or_participants_matches_participants() {
        let pairs = sample();
        let idx = pairs.index();
        let set: BTreeSet<AttrId> = [AttrId(1), AttrId(2)].into_iter().collect();
        let mut row = Vec::new();
        idx.or_participants(&set, &mut row);
        let mut dense = Vec::new();
        PairIndex::iter_bits(&row, &mut dense);
        let via_index: Vec<NodeId> = dense.iter().map(|&x| idx.node_id(x)).collect();
        let direct: Vec<NodeId> = pairs.participants(&set).into_iter().collect();
        assert_eq!(via_index, direct);
        assert_eq!(idx.participant_count(&set), direct.len());
    }

    #[test]
    fn cache_invalidated_on_mutation() {
        let mut pairs = sample();
        assert_eq!(pairs.index().node_count(), 3);
        pairs.insert(NodeId(80), AttrId(3));
        assert_eq!(pairs.index().node_count(), 4);
        pairs.remove(NodeId(80), AttrId(3));
        assert_eq!(pairs.index().node_count(), 3);
    }

    #[test]
    fn empty_set_has_empty_index() {
        let pairs = PairSet::new();
        let idx = pairs.index();
        assert_eq!(idx.node_count(), 0);
        assert!(idx.attr_ids.is_empty());
        assert_eq!(idx.words(), 1);
        assert_eq!(idx.participant_count(&BTreeSet::new()), 0);
    }
}
