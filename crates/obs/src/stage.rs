//! Stage-timing seam: attribute a request's life to pipeline phases.
//!
//! Every stage is a contiguous interval on one request's timeline, from
//! the frame decode to the reply bytes leaving the server; each boundary
//! between two stages is one clock reading. [`StageTimes`] holds one
//! [`AtomicHistogram`] per stage; any thread records into it lock-free and
//! any observer snapshots it live.

use std::time::Duration;

use crate::hist::{AtomicHistogram, HistogramSnapshot};

/// The stages of a request's life, in pipeline order. A read part runs
/// `queue_wait → batch_wait → walk`, a write part `queue_wait → write`;
/// `net_read` and `reply_write` exist only behind the network tier.
/// Stages order by pipeline position.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Frame decoded off the socket → submitted to the service.
    NetRead,
    /// Submitted → admitted into a batch or a write barrier.
    QueueWait,
    /// Admitted → the batch closed (size, deadline or shutdown); includes
    /// the walker steps taken while later parts were fed in.
    BatchWait,
    /// Batch closed → the part's walk drained.
    Walk,
    /// The part's application started at the write barrier → applied.
    Write,
    /// First part done → last part done (the cross-shard gather).
    Gather,
    /// Last part done → reply bytes flushed to the socket: the waker
    /// hand-off, the encode and the socket write.
    ReplyWrite,
}

/// Number of [`Stage`]s.
pub const STAGES: usize = 7;

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; STAGES] = [
        Stage::NetRead,
        Stage::QueueWait,
        Stage::BatchWait,
        Stage::Walk,
        Stage::Write,
        Stage::Gather,
        Stage::ReplyWrite,
    ];

    /// Stable snake_case name, used in JSON and Prometheus exposition.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::NetRead => "net_read",
            Stage::QueueWait => "queue_wait",
            Stage::BatchWait => "batch_wait",
            Stage::Walk => "walk",
            Stage::Write => "write",
            Stage::Gather => "gather",
            Stage::ReplyWrite => "reply_write",
        }
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// One shared latency histogram per [`Stage`].
#[derive(Debug, Default)]
pub struct StageTimes {
    hists: [AtomicHistogram; STAGES],
}

impl StageTimes {
    /// Fresh, all-empty stage histograms.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample for `stage`.
    #[inline]
    pub fn record(&self, stage: Stage, d: Duration) {
        self.hists[stage.index()].record_duration(d);
    }

    /// Snapshot every stage without resetting it.
    #[must_use]
    pub fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            per: std::array::from_fn(|i| self.hists[i].snapshot()),
        }
    }
}

/// Point-in-time copy of every stage histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    per: [HistogramSnapshot; STAGES],
}

impl StageSnapshot {
    /// The snapshot for one stage.
    #[must_use]
    pub fn get(&self, stage: Stage) -> &HistogramSnapshot {
        &self.per[stage.index()]
    }

    /// Fold `other` into `self`, stage by stage.
    pub fn merge_from(&mut self, other: &StageSnapshot) {
        for (mine, theirs) in self.per.iter_mut().zip(&other.per) {
            mine.merge_from(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_record_independently() {
        let times = StageTimes::new();
        times.record(Stage::QueueWait, Duration::from_nanos(100));
        times.record(Stage::Walk, Duration::from_nanos(200));
        times.record(Stage::Walk, Duration::from_nanos(300));
        let mut snap = times.snapshot();
        assert_eq!(snap.get(Stage::QueueWait).count(), 1);
        assert_eq!(snap.get(Stage::Walk).count(), 2);
        assert_eq!(snap.get(Stage::Walk).sum_ns, 500);
        assert_eq!(snap.get(Stage::Gather).count(), 0);
        assert_eq!(snap.get(Stage::BatchWait), &HistogramSnapshot::default());
        snap.merge_from(&times.snapshot());
        assert_eq!(snap.get(Stage::Walk).sum_ns, 1_000);
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "net_read",
                "queue_wait",
                "batch_wait",
                "walk",
                "write",
                "gather",
                "reply_write"
            ]
        );
    }
}
