//! Batch-closure policy: a worker admits queued work into its open batch
//! until the batch reaches its size target (*size flush*) or the queue
//! runs dry (*drained flush*), whichever comes first.
//!
//! Batching is work-conserving, like the paper's dispatcher, which hands
//! a key to a walker the moment one is free: a worker never holds a
//! batch open waiting for company. Larger batches still form on their
//! own under load — a backlog keeps admission finding work, so more
//! independent probes share one walker pass (more memory-level
//! parallelism, the paper's whole thesis). The deadline is only a cap
//! under load: it closes a batch whose admission keeps finding work but
//! never reaches the size target.

use std::time::{Duration, Instant};

/// Why a batch was closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// The batch reached its size target.
    Size,
    /// The queue ran dry: nothing more was waiting to join the batch.
    Drained,
    /// The deadline capped an admission that kept finding work.
    Deadline,
    /// The service is shutting down; the final partial batch flushed.
    Shutdown,
}

/// The flush policy for one worker.
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Flush once this many keys are batched.
    pub batch_size: usize,
    /// Flush this long after the batch's first key arrived, even while
    /// more work is queued.
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
    /// flush at `now` although more work is queued — and why.
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
