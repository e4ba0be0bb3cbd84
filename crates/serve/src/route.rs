//! The one routing rule both index tiers share: contiguous key ranges
//! split at boundary keys, so hash shard `i` and B+-tree shard `i` own
//! the same span and one worker serves both.
//!
//! The route is *pure* in the boundaries (plus one build-time constant
//! for the saturated-`u64::MAX` corner). Purity is the single-home
//! invariant: every copy of a key ever inserted lands in the one shard
//! [`shard_of`](KeyRanges::shard_of) names, so lookups, deletes and
//! updates are single-shard operations no matter what sequence of
//! writes preceded them.

use widx_db::index::partition_range;

/// Boundary keys between `shards` contiguous key ranges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct KeyRanges {
    /// `shards - 1` non-decreasing boundary keys; shard `i` owns keys
    /// `k` with `boundaries[i-1] <= k < boundaries[i]` (unbounded at
    /// the ends).
    boundaries: Vec<u64>,
    /// Build-time home for `key == u64::MAX` when the trailing
    /// saturated boundary collides with it (see
    /// [`shard_of`](Self::shard_of)).
    max_key_home: usize,
}

impl KeyRanges {
    /// Splits `pairs` into `shards` contiguous, roughly equal key ranges
    /// (see [`partition_range`]) and returns the per-shard entry streams
    /// with the routing rule that names them.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub(crate) fn partition(
        shards: usize,
        pairs: impl IntoIterator<Item = (u64, u64)>,
    ) -> (Vec<Vec<(u64, u64)>>, KeyRanges) {
        let (parts, boundaries) = partition_range(shards, pairs);
        // If the data ends at u64::MAX, the trailing empty shards carry
        // a saturated boundary equal to the key itself; the plain route
        // (`partition_point(|b| *b <= key)`, which for `u64::MAX` is
        // every boundary) would point past the data. Freeze the actual
        // home now — boundaries never change, so the exception is as
        // static as the rest of the rule.
        let mut max_key_home = boundaries.len();
        while max_key_home > 0 && parts[max_key_home].is_empty() {
            max_key_home -= 1;
        }
        let ranges = KeyRanges {
            boundaries,
            max_key_home,
        };
        (parts, ranges)
    }

    /// The boundary keys (`shard_count - 1` of them, non-decreasing).
    pub(crate) fn boundaries(&self) -> &[u64] {
        &self.boundaries
    }

    /// The shard that owns `key`, for reads and writes alike.
    pub(crate) fn shard_of(&self, key: u64) -> usize {
        if key == u64::MAX && self.boundaries.last() == Some(&u64::MAX) {
            return self.max_key_home;
        }
        self.boundaries.partition_point(|b| *b <= key)
    }

    /// The inclusive span of shards the range `[lo, hi]` can touch —
    /// see [`OrderedShardedIndex::shard_span`](crate::OrderedShardedIndex::shard_span).
    pub(crate) fn shard_span(&self, lo: u64, hi: u64) -> (usize, usize) {
        assert!(lo <= hi, "degenerate range has no shard span");
        let first = self.boundaries.partition_point(|b| *b < lo);
        let last = self.boundaries.partition_point(|b| *b <= hi);
        (first, last)
    }
}
