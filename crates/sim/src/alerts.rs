//! The result processor: threshold rules evaluated against the
//! collector's snapshots (paper §2.2 — "executes the concrete
//! monitoring operations including collecting and aggregating
//! attribute values, triggering warnings").

use remo_core::{AttrId, NodeId};
use remo_runtime::CollectorCore;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Comparison direction of a threshold rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Condition {
    /// Fire when the observed value exceeds the threshold.
    Above,
    /// Fire when the observed value falls below the threshold.
    Below,
}

/// A threshold rule over one attribute type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertRule {
    /// Rule name (shown in firings).
    pub name: String,
    /// Attribute the rule watches.
    pub attr: AttrId,
    /// Threshold value.
    pub threshold: f64,
    /// Fire above or below.
    pub condition: Condition,
    /// Snapshots older than this many epochs do not fire (stale data
    /// should page nobody); `None` disables the staleness guard.
    pub max_staleness: Option<u64>,
}

impl AlertRule {
    /// Creates a rule firing when `attr` goes above `threshold`.
    pub fn above(name: impl Into<String>, attr: AttrId, threshold: f64) -> Self {
        AlertRule {
            name: name.into(),
            attr,
            threshold,
            condition: Condition::Above,
            max_staleness: None,
        }
    }

    /// Creates a rule firing when `attr` drops below `threshold`.
    pub fn below(name: impl Into<String>, attr: AttrId, threshold: f64) -> Self {
        AlertRule {
            name: name.into(),
            attr,
            threshold,
            condition: Condition::Below,
            max_staleness: None,
        }
    }

    /// Adds a staleness guard.
    #[must_use]
    pub fn with_max_staleness(mut self, epochs: u64) -> Self {
        self.max_staleness = Some(epochs);
        self
    }

    fn matches(&self, value: f64) -> bool {
        match self.condition {
            Condition::Above => value > self.threshold,
            Condition::Below => value < self.threshold,
        }
    }
}

/// One rule firing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// The firing rule's name.
    pub rule: String,
    /// Node whose snapshot fired (the aggregate's carrier node for
    /// aggregated attributes).
    pub node: NodeId,
    /// Attribute watched.
    pub attr: AttrId,
    /// The offending value.
    pub value: f64,
    /// Epoch the value was produced.
    pub produced: u64,
    /// Epoch the alert was evaluated.
    pub evaluated: u64,
}

/// Evaluates rules against collector snapshots, with edge-triggered
/// deduplication: a rule re-fires for a pair only after the condition
/// clears.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ResultProcessor {
    rules: Vec<AlertRule>,
    /// Pairs currently in violation per rule index (edge triggering).
    active: BTreeMap<(usize, NodeId, AttrId), ()>,
    fired: Vec<Alert>,
}

impl ResultProcessor {
    /// Creates a processor with no rules.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule; returns its index.
    pub fn add_rule(&mut self, rule: AlertRule) -> usize {
        self.rules.push(rule);
        self.rules.len() - 1
    }

    /// Registered rules.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// All firings so far, in order.
    pub fn alerts(&self) -> &[Alert] {
        &self.fired
    }

    /// Drains and returns the firings recorded so far.
    pub fn take_alerts(&mut self) -> Vec<Alert> {
        std::mem::take(&mut self.fired)
    }

    /// Evaluates every rule against `store`'s snapshots of `pairs` at
    /// epoch `now`; returns how many alerts fired this round.
    pub fn evaluate(
        &mut self,
        store: &CollectorCore,
        pairs: impl IntoIterator<Item = (NodeId, AttrId)>,
        now: u64,
    ) -> usize {
        let pairs: Vec<(NodeId, AttrId)> = pairs.into_iter().collect();
        let mut fired = 0;
        for (idx, rule) in self.rules.iter().enumerate() {
            for &(node, attr) in pairs.iter().filter(|&&(_, a)| a == rule.attr) {
                let Some(s) = store.observed(node, attr) else {
                    continue;
                };
                if let Some(max) = rule.max_staleness {
                    if now.saturating_sub(s.produced) > max {
                        continue;
                    }
                }
                let key = (idx, node, attr);
                if rule.matches(s.value) {
                    if let std::collections::btree_map::Entry::Vacant(e) = self.active.entry(key) {
                        e.insert(());
                        self.fired.push(Alert {
                            rule: rule.name.clone(),
                            node,
                            attr,
                            value: s.value,
                            produced: s.produced,
                            evaluated: now,
                        });
                        fired += 1;
                    }
                } else {
                    self.active.remove(&key);
                }
            }
            // Aggregated attributes: one snapshot per attr.
            if let Some(s) = store.observed_aggregate(rule.attr) {
                let within = rule
                    .max_staleness
                    .is_none_or(|max| now.saturating_sub(s.produced) <= max);
                let key = (idx, NodeId(u32::MAX), rule.attr);
                if within && rule.matches(s.value) {
                    if let std::collections::btree_map::Entry::Vacant(e) = self.active.entry(key) {
                        e.insert(());
                        self.fired.push(Alert {
                            rule: rule.name.clone(),
                            node: NodeId(u32::MAX),
                            attr: rule.attr,
                            value: s.value,
                            produced: s.produced,
                            evaluated: now,
                        });
                        fired += 1;
                    }
                } else if !rule.matches(s.value) {
                    self.active.remove(&key);
                }
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::collector::fixture::{self, record};
    use remo_runtime::WireReading;

    fn store_with(node: u32, attr: u32, value: f64, produced: u64) -> CollectorCore {
        let mut s = fixture::store();
        record(&mut s, (node, attr), value, produced, produced + 1);
        s
    }

    #[test]
    fn above_rule_fires_once_until_cleared() {
        let mut rp = ResultProcessor::new();
        rp.add_rule(AlertRule::above("hot", AttrId(0), 90.0));
        let pairs = [(NodeId(1), AttrId(0))];

        let mut s = store_with(1, 0, 95.0, 10);
        assert_eq!(rp.evaluate(&s, pairs, 11), 1);
        // Still violating: edge-triggered, no re-fire.
        assert_eq!(rp.evaluate(&s, pairs, 12), 0);
        // Clears...
        record(&mut s, (1, 0), 50.0, 13, 14);
        assert_eq!(rp.evaluate(&s, pairs, 14), 0);
        // ...then violates again: re-fires.
        record(&mut s, (1, 0), 99.0, 15, 16);
        assert_eq!(rp.evaluate(&s, pairs, 16), 1);
        assert_eq!(rp.alerts().len(), 2);
    }

    #[test]
    fn below_rule() {
        let mut rp = ResultProcessor::new();
        rp.add_rule(AlertRule::below("starved", AttrId(2), 5.0));
        let s = store_with(0, 2, 1.0, 1);
        assert_eq!(rp.evaluate(&s, [(NodeId(0), AttrId(2))], 2), 1);
        assert_eq!(rp.alerts()[0].rule, "starved");
        assert_eq!(rp.alerts()[0].value, 1.0);
    }

    #[test]
    fn staleness_guard_suppresses_old_data() {
        let mut rp = ResultProcessor::new();
        rp.add_rule(AlertRule::above("hot", AttrId(0), 90.0).with_max_staleness(3));
        let s = store_with(1, 0, 95.0, 10);
        assert_eq!(
            rp.evaluate(&s, [(NodeId(1), AttrId(0))], 20),
            0,
            "too stale"
        );
        assert_eq!(
            rp.evaluate(&s, [(NodeId(1), AttrId(0))], 12),
            1,
            "fresh enough"
        );
    }

    #[test]
    fn missing_snapshot_is_silent() {
        let mut rp = ResultProcessor::new();
        rp.add_rule(AlertRule::above("hot", AttrId(0), 1.0));
        let s = fixture::store();
        assert_eq!(rp.evaluate(&s, [(NodeId(0), AttrId(0))], 1), 0);
    }

    #[test]
    fn aggregate_snapshots_fire_rules() {
        let mut rp = ResultProcessor::new();
        rp.add_rule(AlertRule::above("agg", AttrId(7), 40.0));
        let mut s = fixture::store();
        fixture::record_reading(
            &mut s,
            WireReading {
                node: NodeId(3),
                attr: AttrId(7),
                value: 42.0,
                produced: 5,
                contributors: 4,
            },
            6,
        );
        assert_eq!(rp.evaluate(&s, [], 6), 1);
    }

    #[test]
    fn take_alerts_drains() {
        let mut rp = ResultProcessor::new();
        rp.add_rule(AlertRule::above("hot", AttrId(0), 90.0));
        let s = store_with(1, 0, 95.0, 10);
        rp.evaluate(&s, [(NodeId(1), AttrId(0))], 11);
        assert_eq!(rp.take_alerts().len(), 1);
        assert!(rp.alerts().is_empty());
    }
}
