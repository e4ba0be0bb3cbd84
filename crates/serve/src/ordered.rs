//! The ordered sharded index: N contiguous key-space partitions, each
//! served by its own [`BTreeIndex`] — the range-serving counterpart of
//! [`ShardedIndex`](crate::ShardedIndex), split at the same boundary
//! keys so one worker owns both tiers of a key range.
//!
//! Shard `i` owns the contiguous span `[boundaries[i-1],
//! boundaries[i])`. That placement is what makes range serving scale —
//! a scan touches only the adjacent shards its key interval overlaps,
//! and gathering their per-shard (already key-ordered, disjoint) result
//! streams back into one ordered reply is a concatenation, not a merge
//! sort.

use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use widx_db::index::BTreeIndex;

use crate::route::KeyRanges;

/// A B+-tree index range-partitioned into independent shards, one per
/// serving worker. Scans route by boundary-key span; builds split the
/// sorted entry stream into roughly equal contiguous chunks (duplicates
/// of one key never straddle a boundary).
pub struct OrderedShardedIndex {
    shards: Vec<RwLock<BTreeIndex>>,
    ranges: KeyRanges,
}

impl OrderedShardedIndex {
    /// Partitions `pairs` into `shards` contiguous key ranges and
    /// builds one B+-tree of the given `fanout` per range.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `fanout < 2`.
    #[must_use]
    pub fn from_pairs(
        fanout: usize,
        shards: usize,
        pairs: impl IntoIterator<Item = (u64, u64)>,
    ) -> OrderedShardedIndex {
        let (parts, ranges) = KeyRanges::partition(shards, pairs);
        OrderedShardedIndex {
            shards: parts
                .into_iter()
                .map(|part| RwLock::new(BTreeIndex::build(fanout, part)))
                .collect(),
            ranges,
        }
    }

    /// [`from_pairs`](Self::from_pairs) with an ignored `_domain`
    /// argument, kept so `perfbench` still builds; the next benchmark
    /// change removes it.
    ///
    /// # Panics
    ///
    /// As [`from_pairs`](Self::from_pairs).
    #[must_use]
    pub fn build(
        fanout: usize,
        shards: usize,
        _domain: &Arc<widx_db::epoch::EpochDomain>,
        pairs: impl IntoIterator<Item = (u64, u64)>,
    ) -> OrderedShardedIndex {
        OrderedShardedIndex::from_pairs(fanout, shards, pairs)
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read access to shard `shard`. Walker batches hold this guard for
    /// the duration of one batch.
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned (a worker panicked mid-write).
    pub fn read(&self, shard: usize) -> RwLockReadGuard<'_, BTreeIndex> {
        self.shards[shard].read().expect("ordered shard lock")
    }

    /// Write access to shard `shard` — reserved for the shard's owning
    /// worker at batch barriers.
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned.
    pub fn write(&self, shard: usize) -> RwLockWriteGuard<'_, BTreeIndex> {
        self.shards[shard].write().expect("ordered shard lock")
    }

    /// The boundary keys between shards (`shard_count() - 1` of them,
    /// non-decreasing).
    #[must_use]
    pub fn boundaries(&self) -> &[u64] {
        self.ranges.boundaries()
    }

    /// The shard that owns `key`, for reads and writes alike: a pure
    /// function of the frozen boundaries, so every write of a key, ever,
    /// lands in the same shard.
    #[must_use]
    pub fn shard_of(&self, key: u64) -> usize {
        self.ranges.shard_of(key)
    }

    /// The inclusive span of shards the range `[lo, hi]` can touch, as
    /// `(first, last)`. The span errs on the inclusive side at the left
    /// seam (the extra shard contributes nothing), so callers may
    /// scatter to every shard in it unconditionally.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` (degenerate ranges touch no shard; callers
    /// filter them first).
    #[must_use]
    pub fn shard_span(&self, lo: u64, hi: u64) -> (usize, usize) {
        self.ranges.shard_span(lo, hi)
    }

    /// The key-range routing rule, shared with the hash tier.
    pub(crate) fn ranges(&self) -> &KeyRanges {
        &self.ranges
    }

    /// Total entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|s| self.read(s).len()).sum()
    }

    /// Whether the ordered index holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serial scatter/gather oracle: every `(key, payload)` with `lo <=
    /// key <= hi` in key order, truncated to `limit` — what the served
    /// [`RangeScan`](crate::Request::RangeScan) path must reproduce.
    #[must_use]
    pub fn scan(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        if lo > hi || limit == 0 {
            return out;
        }
        let (first, last) = self.shard_span(lo, hi);
        for shard in first..=last {
            out.extend(self.read(shard).range_scan(lo, hi, limit - out.len()));
            if out.len() == limit {
                break;
            }
        }
        out
    }

    /// Descending counterpart of [`scan`](Self::scan): shards visited
    /// in *reverse* key order, each scanned backwards — what a served
    /// `RangeScan { desc: true }` must reproduce (the `ORDER BY key
    /// DESC` oracle: largest keys first, duplicates in reverse build
    /// order, the largest `limit` keys surviving).
    #[must_use]
    pub fn scan_desc(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        if lo > hi || limit == 0 {
            return out;
        }
        let (first, last) = self.shard_span(lo, hi);
        for shard in (first..=last).rev() {
            out.extend(self.read(shard).range_scan_desc(lo, hi, limit - out.len()));
            if out.len() == limit {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ordered(shards: usize, entries: u64) -> OrderedShardedIndex {
        OrderedShardedIndex::from_pairs(8, shards, (0..entries).map(|k| (k * 2, k)))
    }

    #[test]
    fn spans_and_routing_respect_boundaries() {
        let idx = ordered(4, 1000);
        assert_eq!(idx.shard_count(), 4);
        assert_eq!(idx.len(), 1000);
        for k in (0..2000u64).step_by(2) {
            let owner = idx.shard_of(k);
            let hit: Vec<usize> = (0..idx.shard_count())
                .filter(|s| idx.read(*s).lookup(k).is_some())
                .collect();
            assert_eq!(hit, vec![owner], "key {k}");
            let (first, last) = idx.shard_span(k, k);
            assert!((first..=last).contains(&owner), "span covers owner for {k}");
        }
    }

    #[test]
    fn scan_oracle_equals_one_big_tree() {
        let idx = ordered(5, 2000);
        let one = BTreeIndex::build(8, (0..2000u64).map(|k| (k * 2, k)));
        for (lo, hi, limit) in [
            (0u64, u64::MAX, usize::MAX),
            (100, 700, usize::MAX),
            (101, 699, 17),
            (3999, 3999, usize::MAX),
            (500, 100, usize::MAX),
            (0, 4000, 0),
        ] {
            assert_eq!(
                idx.scan(lo, hi, limit),
                one.range_scan(lo, hi, limit),
                "scan [{lo}, {hi}] limit {limit}"
            );
        }
    }

    #[test]
    fn scan_desc_oracle_equals_one_big_tree() {
        let idx = ordered(5, 2000);
        let one = BTreeIndex::build(8, (0..2000u64).map(|k| (k * 2, k)));
        for (lo, hi, limit) in [
            (0u64, u64::MAX, usize::MAX),
            (100, 700, usize::MAX),
            (101, 699, 17),
            (3999, 3999, usize::MAX),
            (500, 100, usize::MAX),
            (0, 4000, 0),
        ] {
            assert_eq!(
                idx.scan_desc(lo, hi, limit),
                one.range_scan_desc(lo, hi, limit),
                "scan_desc [{lo}, {hi}] limit {limit}"
            );
        }
    }

    #[test]
    fn limit_truncates_across_shard_seams() {
        let idx = ordered(4, 1000);
        // A scan spanning all shards, cut mid-way through the second.
        let all = idx.scan(0, u64::MAX, usize::MAX);
        assert_eq!(all.len(), 1000);
        let per_shard = idx.read(0).len();
        let limit = per_shard + 3;
        let got = idx.scan(0, u64::MAX, limit);
        assert_eq!(got.len(), limit);
        assert_eq!(got, all[..limit], "prefix of the full ordered scan");
    }

    #[test]
    fn single_shard_and_empty_builds() {
        let idx = ordered(1, 100);
        assert_eq!(idx.shard_count(), 1);
        assert!(idx.boundaries().is_empty());
        assert_eq!(idx.scan(0, 300, usize::MAX).len(), 100);

        let empty = OrderedShardedIndex::from_pairs(4, 3, std::iter::empty());
        assert!(empty.is_empty());
        assert_eq!(empty.scan(0, u64::MAX, usize::MAX), vec![]);
    }

    #[test]
    fn duplicates_stay_colocated_and_ordered() {
        let mut pairs: Vec<(u64, u64)> = (0..100u64).map(|k| (k, 0)).collect();
        pairs.extend((0..50u64).map(|p| (40, p + 1)));
        let idx = OrderedShardedIndex::from_pairs(4, 4, pairs);
        let dups: Vec<u64> = idx
            .scan(40, 40, usize::MAX)
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        let mut want = vec![0u64];
        want.extend(1..=50);
        assert_eq!(dups, want, "build-order payloads in one shard");
    }

    #[test]
    #[should_panic(expected = "degenerate range")]
    fn inverted_span_rejected() {
        let _ = ordered(2, 10).shard_span(5, 4);
    }

    #[test]
    fn max_key_routes_to_its_data_despite_saturated_boundary() {
        // Data ending at u64::MAX with empty trailing shards: the
        // saturated boundary equals the key, which must still route to
        // the shard holding it — in both tiers, for reads, writes, and
        // scans.
        let idx = OrderedShardedIndex::from_pairs(4, 3, [(u64::MAX, 7u64), (u64::MAX, 8)]);
        let owner = idx.shard_of(u64::MAX);
        assert!(
            idx.read(owner).lookup(u64::MAX).is_some(),
            "owner shard holds the key"
        );
        assert_eq!(
            idx.scan(u64::MAX, u64::MAX, usize::MAX),
            vec![(u64::MAX, 7), (u64::MAX, 8)]
        );
        // Both index types built from the same pairs route every key —
        // data keys, their neighbours, the boundaries, both ends of the
        // key space — to the same shard.
        let sets: [Vec<(u64, u64)>; 4] = [
            vec![(u64::MAX, 7), (u64::MAX, 8)],
            vec![(3, 0), (u64::MAX - 1, 1), (u64::MAX, 2)],
            (0..100u64).map(|k| (k * 3, k)).collect(),
            Vec::new(),
        ];
        for pairs in sets {
            for shards in 1..6 {
                let ordered = OrderedShardedIndex::from_pairs(4, shards, pairs.iter().copied());
                let hashed = crate::ShardedIndex::from_pairs(
                    widx_db::hash::HashRecipe::robust64(),
                    shards,
                    4,
                    1.0,
                    pairs.iter().copied(),
                );
                assert_eq!(hashed.ranges(), ordered.ranges());
                let mut keys = vec![0, 1, u64::MAX - 1, u64::MAX];
                for (k, _) in &pairs {
                    keys.extend([k.saturating_sub(1), *k, k.saturating_add(1)]);
                }
                keys.extend_from_slice(ordered.boundaries());
                for k in keys {
                    let owner = ordered.shard_of(k);
                    assert_eq!(hashed.shard_of(k), owner, "key {k}, {shards} shards");
                    if !hashed.lookup_all(k).is_empty() {
                        assert!(ordered.read(owner).lookup(k).is_some(), "key {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn write_route_is_stable_under_any_write_sequence() {
        let idx = ordered(4, 500);
        // Empty a middle shard completely, then keep writing the same
        // keys: the pure route keeps naming the now-empty shard, so a
        // later insert + delete pair stays consistent (no dual-homing).
        let victim_lo = idx.boundaries()[0];
        let victim_hi = idx.boundaries()[1] - 1;
        for k in victim_lo..=victim_hi {
            idx.write(idx.shard_of(k)).delete(k);
        }
        assert!(idx.read(1).is_empty(), "shard 1 emptied");
        for k in victim_lo..=victim_hi.min(victim_lo + 50) {
            let home = idx.shard_of(k);
            assert_eq!(home, 1, "route ignores emptiness");
            idx.write(home).insert(k, 777);
            assert_eq!(idx.scan(k, k, usize::MAX), vec![(k, 777)]);
            assert_eq!(idx.write(idx.shard_of(k)).delete(k), 1);
            assert!(idx.scan(k, k, usize::MAX).is_empty());
        }
    }

    #[test]
    fn writes_within_the_span_stay_scannable() {
        let idx = ordered(4, 500);
        // Insert brand-new keys between existing ones across all shards
        // through the route; scans must see them in order.
        for k in (1..999u64).step_by(2) {
            idx.write(idx.shard_of(k)).insert(k, k + 10_000);
        }
        let all = idx.scan(0, 1000, usize::MAX);
        let mut want: Vec<(u64, u64)> = (0..500u64).map(|k| (k * 2, k)).collect();
        want.extend((1..999u64).step_by(2).map(|k| (k, k + 10_000)));
        want.sort_by_key(|(k, _)| *k);
        assert_eq!(all, want);
        let mut rev = all.clone();
        rev.reverse();
        assert_eq!(idx.scan_desc(0, 1000, usize::MAX), rev);
    }
}
