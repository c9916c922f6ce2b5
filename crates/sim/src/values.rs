//! True-value processes for monitored attributes.
//!
//! The BlueGene/System S testbed exposed real, continuously changing
//! metrics (rates, buffer occupancies, OS counters). The simulator
//! substitutes seeded stochastic processes with the same character:
//! bounded drifting walks with optional bursty regimes (stream
//! workloads are "highly bursty", paper §1).

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Shape of one attribute's true-value evolution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ValueModel {
    /// Bounded random walk: `v ← clamp(v + U(−step, step), lo, hi)`.
    Walk {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
        /// Maximum per-epoch increment magnitude.
        step: f64,
    },
    /// Bursty walk: like `Walk`, but with probability `burst_p` the
    /// epoch's step is multiplied by `burst_gain` — the load spikes of
    /// a stream processing system.
    Bursty {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
        /// Base per-epoch increment magnitude.
        step: f64,
        /// Probability of a burst epoch.
        burst_p: f64,
        /// Step multiplier during a burst.
        burst_gain: f64,
    },
    /// Constant value (useful in tests: any error is purely a delivery
    /// artifact).
    Constant(f64),
}

impl Default for ValueModel {
    fn default() -> Self {
        ValueModel::Walk {
            lo: 10.0,
            hi: 100.0,
            step: 2.0,
        }
    }
}

/// A live value following a [`ValueModel`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValueProcess {
    model: ValueModel,
    current: f64,
}

impl ValueProcess {
    /// Starts a process at the model's midpoint (or the constant).
    pub fn new(model: ValueModel) -> Self {
        let current = match model {
            ValueModel::Walk { lo, hi, .. } | ValueModel::Bursty { lo, hi, .. } => (lo + hi) / 2.0,
            ValueModel::Constant(v) => v,
        };
        ValueProcess { model, current }
    }

    /// The current true value.
    #[inline]
    pub fn value(&self) -> f64 {
        self.current
    }

    /// Advances one epoch.
    pub fn step(&mut self, rng: &mut SmallRng) {
        match self.model {
            ValueModel::Constant(_) => {}
            ValueModel::Walk { lo, hi, step } => {
                let d = rng.gen_range(-step..=step);
                self.current = (self.current + d).clamp(lo, hi);
            }
            ValueModel::Bursty {
                lo,
                hi,
                step,
                burst_p,
                burst_gain,
            } => {
                let gain = if rng.gen_bool(burst_p.clamp(0.0, 1.0)) {
                    burst_gain
                } else {
                    1.0
                };
                let d = rng.gen_range(-step..=step) * gain;
                self.current = (self.current + d).clamp(lo, hi);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn walk_stays_bounded() {
        let mut p = ValueProcess::new(ValueModel::Walk {
            lo: 0.0,
            hi: 10.0,
            step: 3.0,
        });
        let mut r = rng();
        for _ in 0..1000 {
            p.step(&mut r);
            assert!((0.0..=10.0).contains(&p.value()));
        }
    }

    #[test]
    fn constant_never_moves() {
        let mut p = ValueProcess::new(ValueModel::Constant(7.5));
        let mut r = rng();
        for _ in 0..10 {
            p.step(&mut r);
        }
        assert_eq!(p.value(), 7.5);
    }

    #[test]
    fn bursty_moves_more_than_walk() {
        let walk = ValueModel::Walk {
            lo: -1e9,
            hi: 1e9,
            step: 1.0,
        };
        let burst = ValueModel::Bursty {
            lo: -1e9,
            hi: 1e9,
            step: 1.0,
            burst_p: 0.5,
            burst_gain: 20.0,
        };
        let travel = |model| {
            let mut p = ValueProcess::new(model);
            let mut r = rng();
            let mut sum = 0.0;
            let mut prev = 0.0;
            for _ in 0..500 {
                p.step(&mut r);
                sum += (p.value() - prev).abs();
                prev = p.value();
            }
            sum
        };
        assert!(travel(burst) > travel(walk) * 2.0);
    }

    #[test]
    fn initial_value_is_midpoint() {
        let p = ValueProcess::new(ValueModel::Walk {
            lo: 10.0,
            hi: 30.0,
            step: 1.0,
        });
        assert_eq!(p.value(), 20.0);
    }
}
