//! The sharded index: N independent [`HashIndex`] partitions, one per
//! contiguous key range. The ranges are the same ones the ordered tier
//! ([`OrderedShardedIndex`](crate::OrderedShardedIndex)) splits at, so
//! hash shard `i` and B+-tree shard `i` belong to one worker.
//!
//! Since the serving tier accepts online writes, each shard sits behind
//! its own `RwLock`. The lock is *structurally* uncontended: the shard
//! worker is the sole writer for its shard and takes the write guard
//! only at batch barriers, while readers (walker batches, stats
//! scrapes, oracles) share the read guard. The lock's job is to make
//! the `&mut` visible to the borrow checker and memory model, not to
//! arbitrate between competing writers — there are none.

use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use widx_db::hash::HashRecipe;
use widx_db::index::{HashIndex, IndexStats};

use crate::route::KeyRanges;

/// A hash index partitioned into independent shards, one per serving
/// worker. Probes route by key range; builds size each shard's bucket
/// array for its own entry count.
pub struct ShardedIndex {
    recipe: HashRecipe,
    shards: Vec<RwLock<HashIndex>>,
    ranges: KeyRanges,
}

impl ShardedIndex {
    /// Partitions `pairs` into `shards` contiguous key ranges of roughly
    /// equal entry count (duplicates of one key never straddle a
    /// boundary) and builds one index per range, each sized for ~`load`
    /// entries per bucket with at least `min_buckets` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `min_buckets` is zero, or `load` is not
    /// positive.
    #[must_use]
    pub fn from_pairs(
        recipe: HashRecipe,
        shards: usize,
        min_buckets: usize,
        load: f64,
        pairs: impl IntoIterator<Item = (u64, u64)>,
    ) -> ShardedIndex {
        assert!(min_buckets > 0, "need at least one bucket per shard");
        assert!(load > 0.0, "target load must be positive");
        let (parts, ranges) = KeyRanges::partition(shards, pairs);
        let shards = parts
            .into_iter()
            .map(|part| {
                let want = (part.len() as f64 / load).ceil() as usize;
                RwLock::new(HashIndex::build(
                    recipe.clone(),
                    want.max(min_buckets),
                    part,
                ))
            })
            .collect();
        ShardedIndex {
            recipe,
            shards,
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
        recipe: HashRecipe,
        shards: usize,
        min_buckets: usize,
        load: f64,
        _domain: &Arc<widx_db::epoch::EpochDomain>,
        pairs: impl IntoIterator<Item = (u64, u64)>,
    ) -> ShardedIndex {
        ShardedIndex::from_pairs(recipe, shards, min_buckets, load, pairs)
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `key` — reads and writes route identically,
    /// so a shard worker is the sole writer for everything it serves.
    #[must_use]
    pub fn shard_of(&self, key: u64) -> usize {
        self.ranges.shard_of(key)
    }

    /// The key-range routing rule, shared with the ordered tier.
    pub(crate) fn ranges(&self) -> &KeyRanges {
        &self.ranges
    }

    /// Read access to shard `shard`. Walker batches hold this guard for
    /// the duration of one batch.
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned (a worker panicked mid-write).
    pub fn read(&self, shard: usize) -> RwLockReadGuard<'_, HashIndex> {
        self.shards[shard].read().expect("hash shard lock")
    }

    /// Write access to shard `shard` — reserved for the shard's owning
    /// worker at batch barriers.
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned.
    pub fn write(&self, shard: usize) -> RwLockWriteGuard<'_, HashIndex> {
        self.shards[shard].write().expect("hash shard lock")
    }

    /// The bucketing recipe.
    #[must_use]
    pub fn recipe(&self) -> &HashRecipe {
        &self.recipe
    }

    /// Total entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|s| self.read(s).len()).sum()
    }

    /// Whether the sharded index holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every payload stored under `key` — the single-threaded oracle for
    /// the whole sharded structure.
    #[must_use]
    pub fn lookup_all(&self, key: u64) -> Vec<u64> {
        self.read(self.shard_of(key)).lookup_all(key)
    }

    /// Per-shard shape statistics, in shard order.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<IndexStats> {
        (0..self.shards.len())
            .map(|s| self.read(s).stats())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded(shards: usize, entries: u64) -> ShardedIndex {
        ShardedIndex::from_pairs(
            HashRecipe::robust64(),
            shards,
            8,
            1.0,
            (0..entries).map(|k| (k, k + 1000)),
        )
    }

    #[test]
    fn every_key_found_in_exactly_its_shard() {
        let idx = sharded(4, 2000);
        assert_eq!(idx.shard_count(), 4);
        assert_eq!(idx.len(), 2000);
        for k in 0..2000 {
            assert_eq!(idx.lookup_all(k), vec![k + 1000]);
            let owner = idx.shard_of(k);
            for s in 0..idx.shard_count() {
                assert_eq!(
                    idx.read(s).lookup(k).is_some(),
                    s == owner,
                    "key {k} shard {s}"
                );
            }
        }
    }

    #[test]
    fn shards_are_load_balanced() {
        let idx = sharded(8, 16_384);
        let sizes: Vec<usize> = (0..idx.shard_count()).map(|s| idx.read(s).len()).collect();
        let mean = 16_384 / 8;
        for (s, size) in sizes.iter().enumerate() {
            assert!(
                *size > mean / 2 && *size < mean * 2,
                "shard {s} imbalanced: {sizes:?}"
            );
        }
    }

    #[test]
    fn load_controls_bucket_sizing() {
        let build = |load: f64| {
            ShardedIndex::from_pairs(
                HashRecipe::robust64(),
                2,
                1,
                load,
                (0..4096u64).map(|k| (k, k)),
            )
        };
        let (tight, roomy) = (build(4.0), build(0.5));
        for s in 0..2 {
            assert!(roomy.read(s).bucket_count() > tight.read(s).bucket_count());
        }
    }

    #[test]
    fn duplicates_stay_colocated() {
        let pairs = vec![(7u64, 1u64), (7, 2), (7, 3), (9, 4)];
        let idx = ShardedIndex::from_pairs(HashRecipe::robust64(), 3, 4, 1.0, pairs);
        let mut got = idx.lookup_all(7);
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn single_shard_is_degenerate_but_valid() {
        let idx = sharded(1, 100);
        assert_eq!(idx.shard_count(), 1);
        assert_eq!(idx.shard_of(42), 0);
        assert_eq!(idx.lookup_all(42), vec![1042]);
    }

    #[test]
    fn empty_build() {
        let idx = ShardedIndex::from_pairs(HashRecipe::robust64(), 2, 4, 1.0, std::iter::empty());
        assert!(idx.is_empty());
        assert_eq!(idx.lookup_all(5), Vec::<u64>::new());
    }

    #[test]
    fn writes_through_the_shard_locks_stay_routed() {
        let idx = sharded(4, 100);
        // Insert/delete/update through the owner shard's write guard —
        // exactly what the shard worker does at a batch barrier.
        for k in 200..260u64 {
            idx.write(idx.shard_of(k)).insert(k, k * 2);
        }
        for k in 200..260u64 {
            assert_eq!(idx.lookup_all(k), vec![k * 2]);
        }
        assert_eq!(idx.write(idx.shard_of(210)).delete(210), 1);
        assert!(idx.lookup_all(210).is_empty());
        assert!(idx.write(idx.shard_of(220)).update(220, 9));
        assert_eq!(idx.lookup_all(220), vec![9]);
        assert_eq!(idx.len(), 100 + 60 - 1);
    }
}
