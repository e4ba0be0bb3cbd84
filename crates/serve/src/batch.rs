//! Batch-closure policy: a worker flushes its open batch when enough
//! keys have accumulated (*size flush*) or when the oldest queued
//! request has waited long enough (*deadline flush*).
//!
//! This is the classic throughput/latency dial of batched serving
//! systems: larger batches keep more independent probes in flight per
//! walker pass (more memory-level parallelism, the paper's whole
//! thesis), while the deadline bounds how long a lone request can be
//! held hostage waiting for company.

use std::time::{Duration, Instant};

/// Why a batch was closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// The batch reached its size target.
    Size,
    /// The deadline expired first.
    Deadline,
    /// The service is shutting down; the final partial batch flushed.
    Shutdown,
}

/// The flush policy for one worker.
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Flush once this many keys are batched.
    pub batch_size: usize,
    /// Flush this long after the batch's first key arrived.
    pub deadline: Duration,
}

impl BatchPolicy {
    /// Creates a policy.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    #[must_use]
    pub fn new(batch_size: usize, deadline: Duration) -> BatchPolicy {
        assert!(batch_size > 0, "batch size must be positive");
        BatchPolicy {
            batch_size,
            deadline,
        }
    }

    /// Whether a batch holding `keys` keys, opened at `opened`, must
    /// flush at `now` — and why.
    #[must_use]
    pub fn flush_due(&self, keys: usize, opened: Instant, now: Instant) -> Option<FlushReason> {
        if keys >= self.batch_size {
            Some(FlushReason::Size)
        } else if keys > 0 && now.saturating_duration_since(opened) >= self.deadline {
            Some(FlushReason::Deadline)
        } else {
            None
        }
    }

    /// The latest instant a batch opened at `opened` may keep waiting.
    #[must_use]
    pub fn flush_deadline(&self, opened: Instant) -> Instant {
        opened + self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_flush_fires_at_target() {
        let p = BatchPolicy::new(8, Duration::from_secs(3600));
        let opened = Instant::now();
        assert_eq!(p.flush_due(7, opened, opened), None);
        assert_eq!(p.flush_due(8, opened, opened), Some(FlushReason::Size));
        assert_eq!(p.flush_due(64, opened, opened), Some(FlushReason::Size));
    }

    #[test]
    fn deadline_flush_fires_for_nonempty_stale_batches() {
        let p = BatchPolicy::new(1000, Duration::from_millis(1));
        let opened = Instant::now();
        let now = opened + Duration::from_millis(5);
        assert_eq!(p.flush_due(3, opened, now), Some(FlushReason::Deadline));
        assert_eq!(p.flush_due(3, opened, opened), None);
        // An empty batch never deadline-flushes — nothing to flush.
        assert_eq!(p.flush_due(0, opened, now), None);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_rejected() {
        let _ = BatchPolicy::new(0, Duration::from_millis(1));
    }
}
