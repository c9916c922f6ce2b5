//! Task-churn generation (paper §7, "Runtime adaptation").
//!
//! The adaptation experiments emulate a dynamic monitoring environment
//! by repeatedly selecting 5 percent of the monitoring nodes and
//! replacing 50 percent of their monitored attributes.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use remo_core::{AttrId, NodeId, PairSet};
use serde::{Deserialize, Serialize};

/// Churn parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Fraction of monitoring nodes whose tasks change per batch
    /// (paper: 0.05).
    pub node_fraction: f64,
    /// Fraction of a selected node's attributes replaced (paper: 0.5).
    pub attr_fraction: f64,
    /// Attribute-universe size replacements are drawn from.
    pub attr_universe: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            node_fraction: 0.05,
            attr_fraction: 0.5,
            attr_universe: 200,
        }
    }
}

/// Produces the next pair set after one churn batch: on each selected
/// node, the chosen attributes are swapped for different ones from the
/// universe.
///
/// # Examples
///
/// ```
/// use remo_workloads::churn::{churn_pairs, ChurnConfig};
/// use remo_core::{PairSet, NodeId, AttrId};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let pairs: PairSet = (0..20)
///     .flat_map(|n| (0..4).map(move |a| (NodeId(n), AttrId(a))))
///     .collect();
/// let mut rng = SmallRng::seed_from_u64(1);
/// let next = churn_pairs(&pairs, &ChurnConfig::default(), &mut rng);
/// assert_eq!(next.len(), pairs.len(), "churn swaps, never grows");
/// assert_ne!(next, pairs);
/// ```
pub fn churn_pairs(pairs: &PairSet, cfg: &ChurnConfig, rng: &mut SmallRng) -> PairSet {
    let mut out = pairs.clone();
    let nodes: Vec<NodeId> = pairs.nodes().collect();
    if nodes.is_empty() {
        return out;
    }
    let pick = ((nodes.len() as f64 * cfg.node_fraction).round() as usize).max(1);
    let mut shuffled = nodes;
    shuffled.shuffle(rng);
    for &node in shuffled.iter().take(pick) {
        let owned: Vec<AttrId> = pairs.attrs_of(node).unwrap_or_default().to_vec();
        if owned.is_empty() {
            continue;
        }
        let replace = ((owned.len() as f64 * cfg.attr_fraction).round() as usize).max(1);
        let mut victims = owned.clone();
        victims.shuffle(rng);
        for &old in victims.iter().take(replace) {
            out.remove(node, old);
            // Draw a replacement the node does not already monitor.
            for _ in 0..64 {
                let cand = AttrId(rng.gen_range(0..cfg.attr_universe.max(1)) as u32);
                if !out.contains(node, cand) {
                    out.insert(node, cand);
                    break;
                }
            }
        }
    }
    out
}

/// Builds a schedule of `batches` churn batches, one every
/// `interval` epochs starting at `first_epoch`, each derived from the
/// previous state. Returns `(epoch, pair set effective from then)`.
pub fn churn_schedule(
    initial: &PairSet,
    cfg: &ChurnConfig,
    batches: usize,
    first_epoch: u64,
    interval: u64,
    rng: &mut SmallRng,
) -> Vec<(u64, PairSet)> {
    let mut out = Vec::with_capacity(batches);
    let mut cur = initial.clone();
    for b in 0..batches {
        cur = churn_pairs(&cur, cfg, rng);
        out.push((first_epoch + b as u64 * interval, cur.clone()));
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use rand::SeedableRng;

    fn pairs(nodes: u32, attrs: u32) -> PairSet {
        (0..nodes)
            .flat_map(|n| (0..attrs).map(move |a| (NodeId(n), AttrId(a))))
            .collect()
    }

    #[test]
    fn churn_preserves_pair_count() {
        let p = pairs(40, 5);
        let mut rng = SmallRng::seed_from_u64(9);
        let next = churn_pairs(&p, &ChurnConfig::default(), &mut rng);
        assert_eq!(next.len(), p.len());
    }

    #[test]
    fn churn_touches_expected_node_count() {
        let p = pairs(100, 4);
        let mut rng = SmallRng::seed_from_u64(9);
        let next = churn_pairs(
            &p,
            &ChurnConfig {
                node_fraction: 0.05,
                attr_fraction: 0.5,
                attr_universe: 300,
            },
            &mut rng,
        );
        let changed_nodes = p
            .nodes()
            .filter(|&n| p.attrs_of(n) != next.attrs_of(n))
            .count();
        assert!(
            (4..=6).contains(&changed_nodes),
            "expected ~5 changed nodes, got {changed_nodes}"
        );
    }

    #[test]
    fn schedule_epochs_are_spaced() {
        let p = pairs(20, 3);
        let mut rng = SmallRng::seed_from_u64(2);
        let sched = churn_schedule(&p, &ChurnConfig::default(), 4, 10, 5, &mut rng);
        assert_eq!(
            sched.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![10, 15, 20, 25]
        );
        // Each batch differs from the previous.
        assert_ne!(sched[0].1, sched[1].1);
    }

    #[test]
    fn empty_pairs_survive_churn() {
        let p = PairSet::new();
        let mut rng = SmallRng::seed_from_u64(2);
        let next = churn_pairs(&p, &ChurnConfig::default(), &mut rng);
        assert!(next.is_empty());
    }
}
