//! Token-bucket capacity emulation.
//!
//! On the BlueGene testbed the per-node monitoring budget is real CPU
//! headroom; in this runtime we emulate it with a token bucket
//! refilled once per epoch with the node's capacity, from which every
//! send and receive draws its `C + a·x` cost.

use serde::{Deserialize, Serialize};

/// A per-epoch token bucket.
///
/// # Examples
///
/// ```
/// use remo_runtime::throttle::TokenBucket;
/// let mut b = TokenBucket::new(10.0);
/// assert!(b.try_consume(7.0));
/// assert!(!b.try_consume(4.0), "only 3 left");
/// b.refill();
/// assert!(b.try_consume(4.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TokenBucket {
    capacity: f64,
    available: f64,
}

impl TokenBucket {
    /// Creates a bucket holding `capacity` tokens per epoch, initially
    /// full.
    pub fn new(capacity: f64) -> Self {
        TokenBucket {
            capacity,
            available: capacity,
        }
    }

    /// Tokens remaining this epoch.
    pub fn available(&self) -> f64 {
        self.available
    }

    /// The per-epoch capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Consumes `cost` tokens if available; returns whether it did.
    /// A tiny epsilon absorbs float rounding.
    pub fn try_consume(&mut self, cost: f64) -> bool {
        if cost <= self.available + 1e-9 {
            self.available -= cost;
            true
        } else {
            false
        }
    }

    /// Deducts `cost` unconditionally (used for one-shot control
    /// charges that may push the bucket negative, eating into the next
    /// epoch).
    pub fn charge(&mut self, cost: f64) {
        self.available -= cost;
    }

    /// Starts a new epoch: availability resets to capacity plus any
    /// overdraft carried from unconditional charges (never exceeding
    /// capacity).
    pub fn refill(&mut self) {
        self.available = (self.available.min(0.0) + self.capacity).min(self.capacity);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn consume_within_capacity() {
        let mut b = TokenBucket::new(5.0);
        assert!(b.try_consume(5.0));
        assert!(!b.try_consume(0.1));
    }

    #[test]
    fn refill_resets() {
        let mut b = TokenBucket::new(5.0);
        b.try_consume(5.0);
        b.refill();
        assert_eq!(b.available(), 5.0);
    }

    #[test]
    fn overdraft_carries_into_next_epoch() {
        let mut b = TokenBucket::new(5.0);
        b.charge(8.0); // 3 tokens of debt
        b.refill();
        assert!((b.available() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unused_tokens_do_not_accumulate() {
        let mut b = TokenBucket::new(5.0);
        b.refill();
        b.refill();
        assert_eq!(b.available(), 5.0);
    }
}
