//! End-of-run reconciliation report emitted by the collector service.

use std::fmt::Write as _;

/// What a distributed run delivered, reconciled against what the plan
/// promised. Serialized as JSON by hand — the report is flat and the
/// workspace keeps binary dependencies minimal.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunSummary {
    /// Epochs completed.
    pub epochs: u64,
    /// (node, attribute) pairs the plan was built over.
    pub planned_pairs: u64,
    /// Distinct pairs the collector actually observed.
    pub observed_pairs: u64,
    /// Values recorded at the collector across the run.
    pub delivered_values: u64,
    /// Nodes confirmed dead by the failure detector.
    pub confirmed_dead: u64,
    /// Confirmed failures the plan was repaired around.
    pub repaired: u64,
    /// Dead nodes that reported again and were reintegrated.
    pub recovered: u64,
    /// Readings unhealthy nodes were scheduled to produce but could
    /// not, until the plan was repaired around them.
    pub values_lost: u64,
    /// Targeted `Assign` reconfigurations sent by plan repair.
    pub reconfigure_messages: u64,
    /// Duplicate data frames discarded by incarnation-scoped dedup.
    pub duplicate_messages_ignored: u64,
    /// Readings shed by the bounded ingress queue.
    pub shed_readings: u64,
    /// Degrade factor in force at the end of the run.
    pub degrade_factor: u64,
    /// Observed values checked against the deterministic sampler.
    pub integrity_checked: u64,
    /// Checked values that did not match the sampler (must be 0).
    pub integrity_violations: u64,
    /// Control frames the protocol spec left undefined in the state
    /// they arrived in, dropped by the session machines.
    pub protocol_rejects: u64,
}

impl RunSummary {
    /// Flat JSON encoding.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        let mut first = true;
        let mut field = |s: &mut String, k: &str, v: u64| {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "\"{k}\":{v}");
        };
        field(&mut s, "epochs", self.epochs);
        field(&mut s, "planned_pairs", self.planned_pairs);
        field(&mut s, "observed_pairs", self.observed_pairs);
        field(&mut s, "delivered_values", self.delivered_values);
        field(&mut s, "confirmed_dead", self.confirmed_dead);
        field(&mut s, "repaired", self.repaired);
        field(&mut s, "recovered", self.recovered);
        field(&mut s, "values_lost", self.values_lost);
        field(&mut s, "reconfigure_messages", self.reconfigure_messages);
        field(
            &mut s,
            "duplicate_messages_ignored",
            self.duplicate_messages_ignored,
        );
        field(&mut s, "shed_readings", self.shed_readings);
        field(&mut s, "degrade_factor", self.degrade_factor);
        field(&mut s, "integrity_checked", self.integrity_checked);
        field(&mut s, "integrity_violations", self.integrity_violations);
        field(&mut s, "protocol_rejects", self.protocol_rejects);
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_flat_and_complete() {
        let s = RunSummary {
            epochs: 40,
            planned_pairs: 18,
            observed_pairs: 18,
            ..RunSummary::default()
        };
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"planned_pairs\":18"));
        assert!(j.contains("\"values_lost\":0"));
        assert!(j.contains("\"integrity_violations\":0"));
        assert!(!j.contains(",,"));
    }
}
