//! Dense pair-set index: the flat, cache-friendly mirror of
//! [`PairSet`] that the planner's hot loops run
//! over.
//!
//! `PairSet` holds the pairs once, as a node-major sorted array: the
//! mutable source of truth (task churn inserts and removes pairs). Every
//! planning pass walks the *same frozen* pair set thousands of times,
//! mostly attribute-major: participant discovery per attribute set,
//! per-node load accumulation, pairwise overlap counts. [`PairIndex`]
//! is that attribute-major view, on packed arrays:
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
    /// Builds the dense index from a pair set's node-major array: count
    /// each attribute's owners, then walk the nodes in order, so every
    /// owner row comes out ascending. `O(pairs · log attrs)` time,
    /// `O(pairs)` space.
    pub fn build(pairs: &PairSet) -> Self {
        let node_ids: Vec<NodeId> = pairs.nodes().collect();
        let mut attr_ids: Vec<AttrId> = pairs.iter().map(|(_, a)| a).collect();
        attr_ids.sort_unstable();
        attr_ids.dedup();
        attr_ids.shrink_to_fit();
        let words = node_ids.len().div_ceil(64).max(1);
        let row_of = |attr: AttrId| {
            attr_ids
                .binary_search(&attr)
                .unwrap_or_else(|_| unreachable!("{attr} missing from the attribute table"))
        };

        let mut attr_offsets = vec![0u32; attr_ids.len() + 1];
        for (_, attr) in pairs.iter() {
            attr_offsets[row_of(attr) + 1] += 1;
        }
        for row in 1..attr_offsets.len() {
            attr_offsets[row] += attr_offsets[row - 1];
        }
        let mut next = attr_offsets.clone();
        let mut attr_nodes = vec![0u32; pairs.len()];
        let mut attr_bits = vec![0u64; attr_ids.len() * words];
        for (dense, (_, attrs)) in pairs.runs().enumerate() {
            let dense =
                u32::try_from(dense).unwrap_or_else(|_| unreachable!("more than u32::MAX nodes"));
            for &attr in attrs {
                let row = row_of(attr);
                attr_nodes[next[row] as usize] = dense;
                next[row] += 1;
                attr_bits[row * words + (dense / 64) as usize] |= 1u64 << (dense % 64);
            }
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

    /// Sorted attribute ids: attribute row → `AttrId`.
    pub fn attr_ids(&self) -> &[AttrId] {
        &self.attr_ids
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
        let direct = pairs.participants(&set);
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
