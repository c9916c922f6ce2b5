//! `PairSet` against a `BTreeSet<(NodeId, AttrId)>` model, and its
//! wire format pinned byte for byte.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use remo_core::{AttrId, NodeId, PairSet};
use std::collections::BTreeSet;

fn small() -> PairSet {
    [(7, 3), (0, 1), (12, 1), (1, 0), (0, 0), (0, 1)]
        .into_iter()
        .map(|(n, a)| (NodeId(n), AttrId(a)))
        .collect()
}

/// The JSON a plan bundle carries for a pair set: `by_node`, `by_attr`
/// and `len`, keys in ascending id order.
#[test]
fn wire_format_is_pinned() {
    let json = serde_json::to_string(&small()).unwrap();
    assert_eq!(
        json,
        r#"{"by_node":{"0":[0,1],"1":[0],"7":[3],"12":[1]},"by_attr":{"0":[0,1],"1":[0,12],"3":[7]},"len":5}"#
    );
}

/// A document whose three fields disagree is rejected, not half-read.
#[test]
fn disagreeing_fields_are_rejected() {
    for json in [
        r#"{"by_node":{"0":[0]},"by_attr":{"0":[1]},"len":1}"#,
        r#"{"by_node":{"0":[0]},"by_attr":{"0":[0]},"len":2}"#,
        r#"{"by_node":{"0":[0]},"len":1}"#,
    ] {
        assert!(serde_json::from_str::<PairSet>(json).is_err(), "{json}");
    }
    let empty: PairSet = serde_json::from_str(r#"{"by_node":{},"by_attr":{},"len":0}"#).unwrap();
    assert!(empty.is_empty());
}

type Model = BTreeSet<(NodeId, AttrId)>;

const NODES: u32 = 12;
const ATTRS: u32 = 10;

/// Attribute sets the participant queries run over, one of them empty
/// and one naming attributes nobody owns.
fn query_sets() -> Vec<BTreeSet<AttrId>> {
    let set = |ids: &[u32]| ids.iter().map(|&a| AttrId(a)).collect();
    vec![
        set(&[]),
        set(&[0]),
        set(&[1, 2]),
        set(&[0, 3, 7]),
        set(&[4, 5, 6, 8, 9]),
        set(&[ATTRS, ATTRS + 3]),
        (0..ATTRS).map(AttrId).collect(),
    ]
}

fn model_nodes_of(model: &Model, set: &BTreeSet<AttrId>) -> Vec<NodeId> {
    let nodes: BTreeSet<NodeId> = model
        .iter()
        .filter(|(_, a)| set.contains(a))
        .map(|&(n, _)| n)
        .collect();
    nodes.into_iter().collect()
}

/// Every read of the pair set against the model.
fn agrees(pairs: &PairSet, model: &Model) {
    assert_eq!(pairs.len(), model.len());
    assert_eq!(pairs.is_empty(), model.is_empty());
    assert_eq!(
        pairs.iter().collect::<Vec<_>>(),
        model.iter().copied().collect::<Vec<_>>()
    );
    let nodes: BTreeSet<NodeId> = model.iter().map(|&(n, _)| n).collect();
    let attrs: BTreeSet<AttrId> = model.iter().map(|&(_, a)| a).collect();
    assert_eq!(
        pairs.nodes().collect::<Vec<_>>(),
        nodes.iter().copied().collect::<Vec<_>>()
    );
    assert_eq!(
        pairs.attrs().collect::<Vec<_>>(),
        attrs.iter().copied().collect::<Vec<_>>()
    );
    assert_eq!(pairs.attr_universe(), attrs);
    for n in (0..=NODES).map(NodeId) {
        let owned: Vec<AttrId> = model.iter().filter(|p| p.0 == n).map(|p| p.1).collect();
        let expect = (!owned.is_empty()).then_some(owned.as_slice());
        assert_eq!(pairs.attrs_of(n), expect, "{n}");
        for a in (0..=ATTRS).map(AttrId) {
            assert_eq!(pairs.contains(n, a), model.contains(&(n, a)), "{n} {a}");
        }
    }
    let idx = pairs.index();
    assert_eq!(idx.node_count(), nodes.len());
    for a in (0..=ATTRS).map(AttrId) {
        let owners = model_nodes_of(model, &[a].into());
        assert_eq!(pairs.nodes_of(a).collect::<Vec<_>>(), owners, "{a}");
        let dense: Vec<NodeId> = idx.owners(a).iter().map(|&d| idx.node_id(d)).collect();
        assert_eq!(dense, owners, "{a}");
    }
    let sets = query_sets();
    let bitsets = pairs.participant_bitsets(&sets);
    for (i, set) in sets.iter().enumerate() {
        let mine = model_nodes_of(model, set);
        assert_eq!(pairs.participants(set), mine);
        assert_eq!(bitsets.count(i), mine.len());
        assert_eq!(idx.participant_count(set), mine.len());
        for (j, other) in sets.iter().enumerate() {
            let theirs = model_nodes_of(model, other);
            let shared = mine.iter().filter(|n| theirs.contains(n)).count();
            assert_eq!(bitsets.overlap(i, j), shared, "sets {i} and {j}");
        }
        for n in (0..=NODES).map(NodeId) {
            let load = model
                .iter()
                .filter(|p| p.0 == n && set.contains(&p.1))
                .count();
            assert_eq!(pairs.node_load_in(n, set), load);
        }
    }
    let collected: PairSet = model.iter().rev().copied().collect();
    assert_eq!(pairs, &collected);
    let json = serde_json::to_string(pairs).unwrap();
    assert_eq!(json, serde_json::to_string(&collected).unwrap());
    assert_eq!(&serde_json::from_str::<PairSet>(&json).unwrap(), pairs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random collect / extend / insert / remove sequences read the same
    /// as a sorted set of pairs, and `diff` against the state before
    /// each step names exactly what the step changed.
    #[test]
    fn pair_set_matches_a_sorted_set_model(
        start in prop::collection::vec((0..NODES, 0..ATTRS), 0..40),
        ops in prop::collection::vec((0u32..4, 0..NODES, 0..ATTRS), 0..40),
    ) {
        let pair = |n: u32, a: u32| (NodeId(n), AttrId(a));
        let mut pairs: PairSet = start.iter().map(|&(n, a)| pair(n, a)).collect();
        let mut model: Model = start.iter().map(|&(n, a)| pair(n, a)).collect();
        agrees(&pairs, &model);
        for (kind, n, a) in ops {
            let (before, old) = (pairs.clone(), model.clone());
            match kind {
                0 => prop_assert_eq!(pairs.insert(NodeId(n), AttrId(a)), model.insert(pair(n, a))),
                1 => prop_assert_eq!(pairs.remove(NodeId(n), AttrId(a)), model.remove(&pair(n, a))),
                2 => {
                    let batch = [pair(n, a), pair(n, (a + 3) % ATTRS), pair((n + 5) % NODES, a), pair(n, a)];
                    pairs.extend(batch);
                    model.extend(batch);
                }
                _ => pairs = model.iter().rev().copied().collect(),
            }
            agrees(&pairs, &model);
            let added: Vec<_> = model.difference(&old).copied().collect();
            let removed: Vec<_> = old.difference(&model).copied().collect();
            prop_assert_eq!(before.diff(&pairs), (added, removed));
            prop_assert_eq!(before == pairs, old == model);
        }
    }
}
