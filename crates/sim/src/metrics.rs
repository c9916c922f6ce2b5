//! Simulation metrics: delivery, drops, error, and traffic volumes.

use serde::{Deserialize, Serialize};

/// Per-epoch observation of the simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct EpochStats {
    /// Epoch index.
    pub epoch: u64,
    /// Attribute values delivered to the collector this epoch
    /// (aggregates count their contributors).
    pub delivered_values: u64,
    /// Messages dropped (receiver over budget, or failure).
    pub dropped_messages: u64,
    /// Readings lost to drops and send-side trimming.
    pub dropped_readings: u64,
    /// Mean relative error over all demanded pairs. Each pair's error
    /// is capped at the run's configured cap — [`error_cap`]
    /// (`SimConfig::error_cap`, default 1.0), **not** a fixed 1.0 —
    /// and pairs with no observation yet count as the cap.
    ///
    /// [`error_cap`]: EpochStats::error_cap
    pub avg_error: f64,
    /// The per-pair error cap `avg_error` was computed under. 0.0
    /// means the cap was not recorded (data serialized before this
    /// field existed).
    #[serde(default)]
    pub error_cap: f64,
    /// Monitoring traffic volume in cost units (sends + receives paid).
    pub monitoring_volume: f64,
    /// Topology-control traffic volume in cost units.
    pub control_volume: f64,
}

impl EpochStats {
    /// Re-emits this epoch through the process-wide metrics registry
    /// (no-op while observability is disabled), so simulation runs
    /// and fig binaries share one export pipeline.
    pub fn export_metrics(&self) {
        if !remo_obs::enabled() {
            return;
        }
        remo_obs::counter("remo_sim_epochs_total").inc();
        remo_obs::counter("remo_sim_delivered_values_total").inc_by(self.delivered_values as f64);
        remo_obs::counter("remo_sim_dropped_messages_total").inc_by(self.dropped_messages as f64);
        remo_obs::counter("remo_sim_dropped_readings_total").inc_by(self.dropped_readings as f64);
        remo_obs::counter("remo_sim_monitoring_volume_total").inc_by(self.monitoring_volume);
        remo_obs::counter("remo_sim_control_volume_total").inc_by(self.control_volume);
        remo_obs::gauge("remo_sim_avg_error").set(self.avg_error);
    }
}

/// Accumulated metrics over a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimMetrics {
    epochs: Vec<EpochStats>,
}

impl SimMetrics {
    /// Creates an empty metric store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one epoch's stats.
    pub fn push(&mut self, stats: EpochStats) {
        self.epochs.push(stats);
    }

    /// All per-epoch stats in order.
    pub fn epochs(&self) -> &[EpochStats] {
        &self.epochs
    }

    /// Number of recorded epochs.
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// Mean of `avg_error` over the recorded epochs (skipping the
    /// first `warmup` epochs, which are dominated by pipeline fill).
    ///
    /// Each epoch's value is already capped at *that epoch's*
    /// [`EpochStats::error_cap`]; this method averages them as
    /// recorded. When the series mixes caps (e.g. epochs recorded
    /// under different `SimConfig::error_cap` settings, or merged from
    /// several runs), the summands are on different scales — use
    /// [`mean_error_recapped`](Self::mean_error_recapped) to bring
    /// them onto one scale first.
    pub fn mean_error(&self, warmup: usize) -> f64 {
        let slice = self.epochs.get(warmup..).unwrap_or(&[]);
        if slice.is_empty() {
            return 0.0;
        }
        slice.iter().map(|e| e.avg_error).sum::<f64>() / slice.len() as f64
    }

    /// Like [`mean_error`](Self::mean_error), but re-caps every
    /// epoch's `avg_error` at `cap` before averaging, so run-level
    /// summaries never silently mix per-epoch values recorded under
    /// different caps. `cap` must be at or below every recorded
    /// epoch's cap for the result to be exact (re-capping cannot
    /// reconstruct error mass a lower original cap already discarded).
    pub fn mean_error_recapped(&self, warmup: usize, cap: f64) -> f64 {
        let slice = self.epochs.get(warmup..).unwrap_or(&[]);
        if slice.is_empty() {
            return 0.0;
        }
        slice.iter().map(|e| e.avg_error.min(cap)).sum::<f64>() / slice.len() as f64
    }

    /// Total values delivered to the collector.
    pub fn total_delivered(&self) -> u64 {
        self.epochs.iter().map(|e| e.delivered_values).sum()
    }

    /// Total readings lost.
    pub fn total_dropped_readings(&self) -> u64 {
        self.epochs.iter().map(|e| e.dropped_readings).sum()
    }

    /// Total messages dropped.
    pub fn total_dropped_messages(&self) -> u64 {
        self.epochs.iter().map(|e| e.dropped_messages).sum()
    }

    /// Total monitoring traffic volume in cost units.
    pub fn total_monitoring_volume(&self) -> f64 {
        self.epochs.iter().map(|e| e.monitoring_volume).sum()
    }

    /// Total control traffic volume in cost units.
    pub fn total_control_volume(&self) -> f64 {
        self.epochs.iter().map(|e| e.control_volume).sum()
    }

    /// Writes the per-epoch series as CSV (header + one row per
    /// epoch) to `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(
            w,
            "epoch,delivered_values,dropped_messages,dropped_readings,avg_error,monitoring_volume,control_volume"
        )?;
        for e in &self.epochs {
            writeln!(
                w,
                "{},{},{},{},{:.6},{:.3},{:.3}",
                e.epoch,
                e.delivered_values,
                e.dropped_messages,
                e.dropped_readings,
                e.avg_error,
                e.monitoring_volume,
                e.control_volume
            )?;
        }
        Ok(())
    }

    /// Control volume as a fraction of all traffic (Fig. 9b).
    pub fn control_fraction(&self) -> f64 {
        let c = self.total_control_volume();
        let m = self.total_monitoring_volume();
        if c + m == 0.0 {
            0.0
        } else {
            c / (c + m)
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn stats(epoch: u64, err: f64, delivered: u64) -> EpochStats {
        EpochStats {
            epoch,
            delivered_values: delivered,
            avg_error: err,
            monitoring_volume: 10.0,
            control_volume: if epoch == 0 { 5.0 } else { 0.0 },
            ..EpochStats::default()
        }
    }

    #[test]
    fn mean_error_skips_warmup() {
        let mut m = SimMetrics::new();
        m.push(stats(0, 1.0, 0));
        m.push(stats(1, 0.2, 5));
        m.push(stats(2, 0.4, 5));
        assert!((m.mean_error(1) - 0.3).abs() < 1e-12);
        assert!((m.mean_error(0) - (1.6 / 3.0)).abs() < 1e-12);
        assert_eq!(m.mean_error(10), 0.0, "warmup beyond data");
    }

    #[test]
    fn totals_accumulate() {
        let mut m = SimMetrics::new();
        m.push(stats(0, 0.0, 3));
        m.push(stats(1, 0.0, 4));
        assert_eq!(m.total_delivered(), 7);
        assert_eq!(m.total_monitoring_volume(), 20.0);
        assert_eq!(m.total_control_volume(), 5.0);
        assert!((m.control_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let mut m = SimMetrics::new();
        m.push(stats(0, 0.5, 3));
        m.push(stats(1, 0.25, 4));
        let mut buf = Vec::new();
        m.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("epoch,delivered_values"));
        assert!(lines[1].starts_with("0,3,"));
        assert!(lines[2].starts_with("1,4,"));
    }

    #[test]
    fn mean_error_recapped_puts_mixed_caps_on_one_scale() {
        // Known profile: two epochs recorded under cap 4.0 (errors may
        // exceed 1.0) and one under cap 1.0. The plain mean silently
        // mixes scales; the recapped mean is the cap-1.0 summary.
        let mut m = SimMetrics::new();
        m.push(EpochStats {
            epoch: 0,
            avg_error: 3.0,
            error_cap: 4.0,
            ..EpochStats::default()
        });
        m.push(EpochStats {
            epoch: 1,
            avg_error: 0.5,
            error_cap: 4.0,
            ..EpochStats::default()
        });
        m.push(EpochStats {
            epoch: 2,
            avg_error: 1.0,
            error_cap: 1.0,
            ..EpochStats::default()
        });
        assert!((m.mean_error(0) - 1.5).abs() < 1e-12, "as-recorded mean");
        // Recapped at 1.0: (1.0 + 0.5 + 1.0) / 3.
        assert!((m.mean_error_recapped(0, 1.0) - 2.5 / 3.0).abs() < 1e-12);
        // Recapping at a cap at or above every recorded cap changes
        // nothing.
        assert!((m.mean_error_recapped(0, 4.0) - m.mean_error(0)).abs() < 1e-12);
        assert_eq!(m.mean_error_recapped(10, 1.0), 0.0, "warmup beyond data");
    }

    #[test]
    fn epoch_stats_record_their_cap() {
        let s = EpochStats {
            avg_error: 2.5,
            error_cap: 4.0,
            ..EpochStats::default()
        };
        let v = serde::Serialize::serialize(&s);
        let back: EpochStats = serde::Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, s);
        // Legacy data without the field deserializes with cap 0.0
        // ("not recorded"), not an error.
        let legacy = serde_json::parse(
            r#"{"epoch":1,"delivered_values":0,"dropped_messages":0,
                "dropped_readings":0,"avg_error":0.5,
                "monitoring_volume":0.0,"control_volume":0.0}"#,
        )
        .unwrap();
        let back: EpochStats = serde::Deserialize::deserialize(&legacy).unwrap();
        assert_eq!(back.error_cap, 0.0);
        assert_eq!(back.avg_error, 0.5);
    }

    #[test]
    fn empty_metrics_are_sane() {
        let m = SimMetrics::new();
        assert!(m.is_empty());
        assert_eq!(m.mean_error(0), 0.0);
        assert_eq!(m.control_fraction(), 0.0);
    }
}
