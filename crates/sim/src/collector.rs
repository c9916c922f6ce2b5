//! Scores of the collector's snapshot store against ground truth.
//!
//! The store itself is the runtime's
//! [`CollectorCore`]: it keeps, for every
//! node-attribute pair, the freshest value that has reached the
//! collector (aliases of a reliability rewrite folded onto their
//! original). This module computes what the paper's real-system
//! experiments report about it (Fig. 8): the relative difference
//! between the collector's snapshot and the true values.

use remo_core::{AttrId, NodeId};
use remo_runtime::CollectorCore;

/// Mean relative error of the snapshot against `truth`
/// (`((node, attr), true value)`, summed in the order given), each
/// pair's error capped at `cap`. Pairs never observed score the full
/// cap — a dropped pair is as wrong as it gets.
pub fn mean_error(
    store: &CollectorCore,
    truth: impl IntoIterator<Item = ((NodeId, AttrId), f64)>,
    cap: f64,
) -> f64 {
    let (mut total, mut pairs) = (0.0, 0usize);
    for ((node, attr), actual) in truth {
        pairs += 1;
        total += match store.observed(node, attr) {
            None => cap,
            Some(s) => ((s.value - actual).abs() / actual.abs().max(1e-9)).min(cap),
        };
    }
    if pairs == 0 {
        0.0
    } else {
        total / pairs as f64
    }
}

/// Fraction of `pairs` with a snapshot received within the last
/// `window` epochs of `now`.
pub fn fresh_fraction(
    store: &CollectorCore,
    pairs: impl IntoIterator<Item = (NodeId, AttrId)>,
    now: u64,
    window: u64,
) -> f64 {
    let (mut fresh, mut total) = (0usize, 0usize);
    for (n, a) in pairs {
        total += 1;
        if store
            .observed(n, a)
            .is_some_and(|s| now.saturating_sub(s.received) <= window)
        {
            fresh += 1;
        }
    }
    if total == 0 {
        1.0
    } else {
        fresh as f64 / total as f64
    }
}

/// A collector core nothing is ever refused by, plus the helper the
/// crate's tests record fixtures through.
#[cfg(test)]
pub(crate) mod fixture {
    use remo_core::{AttrCatalog, AttrId, CostModel, NodeId};
    use remo_runtime::{CollectorCore, EpochReport, NetConfig, WireReading};

    pub(crate) fn store() -> CollectorCore {
        CollectorCore::new(
            f64::INFINITY,
            CostModel::default(),
            NetConfig::default(),
            AttrCatalog::new(),
        )
    }

    /// Records one single-sample reading, received at `received`.
    pub(crate) fn record(
        store: &mut CollectorCore,
        (node, attr): (u32, u32),
        value: f64,
        produced: u64,
        received: u64,
    ) {
        record_reading(
            store,
            WireReading {
                node: NodeId(node),
                attr: AttrId(attr),
                value,
                produced,
                contributors: 1,
            },
            received,
        );
    }

    pub(crate) fn record_reading(store: &mut CollectorCore, reading: WireReading, received: u64) {
        store.record(&reading, received, &mut EpochReport::default());
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::fixture::{record, record_reading, store};
    use super::*;
    use remo_runtime::WireReading;
    use std::collections::BTreeMap;

    fn truth(entries: &[(u32, u32, f64)]) -> BTreeMap<(NodeId, AttrId), f64> {
        entries
            .iter()
            .map(|&(n, a, v)| ((NodeId(n), AttrId(a)), v))
            .collect()
    }

    #[test]
    fn record_and_get() {
        let mut c = store();
        record(&mut c, (0, 1), 5.0, 3, 4);
        let s = c.observed(NodeId(0), AttrId(1)).unwrap();
        assert_eq!(s.value, 5.0);
        assert_eq!(s.produced, 3);
        assert_eq!(s.received, 4);
    }

    #[test]
    fn stale_replica_does_not_regress() {
        let mut c = store();
        record(&mut c, (0, 0), 9.0, 10, 11);
        record(&mut c, (0, 0), 1.0, 5, 12);
        assert_eq!(c.observed(NodeId(0), AttrId(0)).unwrap().value, 9.0);
    }

    #[test]
    fn mean_error_counts_missing_as_cap() {
        let mut c = store();
        record(&mut c, (0, 0), 50.0, 1, 1);
        let t = truth(&[(0, 0, 100.0), (1, 0, 100.0)]);
        // Observed pair: 50% error; missing pair: capped 100%.
        assert!((mean_error(&c, t, 1.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn error_cap_applies() {
        let mut c = store();
        record(&mut c, (0, 0), 1000.0, 1, 1);
        let t = truth(&[(0, 0, 1.0)]);
        assert_eq!(mean_error(&c, t, 1.0), 1.0);
    }

    #[test]
    fn fresh_fraction_windows() {
        let mut c = store();
        record(&mut c, (0, 0), 1.0, 1, 2);
        record(&mut c, (1, 0), 1.0, 9, 10);
        let t = truth(&[(0, 0, 1.0), (1, 0, 1.0)]);
        assert_eq!(fresh_fraction(&c, t.keys().copied(), 10, 1), 0.5);
        assert_eq!(fresh_fraction(&c, t.keys().copied(), 10, 100), 1.0);
    }

    #[test]
    fn aggregates_stored_per_attr() {
        let mut c = store();
        let agg = WireReading {
            node: NodeId(3),
            attr: AttrId(7),
            value: 42.0,
            produced: 5,
            contributors: 4,
        };
        record_reading(&mut c, agg, 6);
        assert_eq!(c.observed_aggregate(AttrId(7)).unwrap().value, 42.0);
        assert!(c.observed(NodeId(3), AttrId(7)).is_none());
    }
}
