//! Shard-aware build path: split `(key, payload)` streams into
//! contiguous key ranges so each shard can build (and later serve) its
//! own independent indexes — a [`HashIndex`](crate::index::HashIndex)
//! and, for ordered serving, a [`BTreeIndex`](crate::index::BTreeIndex)
//! over the same span.
//!
//! This is the data-placement half of scaling the paper's design point
//! out to a socket: one Widx front-end (dispatcher + walkers) per shard,
//! each walking only index state it owns — no cross-shard pointers, no
//! synchronization on the probe path.

/// Splits `pairs` into `shards` contiguous key ranges of roughly equal
/// entry count: each shard owns one span of the key space, so
/// cross-shard scans touch only adjacent shards.
///
/// Returns the per-shard entry streams (each key-sorted, stable — equal
/// keys keep their input order) and the `shards - 1` boundary keys:
/// shard `i` owns keys `k` with `boundaries[i - 1] <= k <
/// boundaries[i]` (unbounded at the ends). Duplicates of one key are
/// never split across shards, so a boundary is always a real key-change
/// point; trailing shards may be empty when the data has fewer distinct
/// keys than shards.
///
/// # Panics
///
/// Panics if `shards` is zero.
#[must_use]
pub fn partition_range(
    shards: usize,
    pairs: impl IntoIterator<Item = (u64, u64)>,
) -> (Vec<Vec<(u64, u64)>>, Vec<u64>) {
    assert!(shards > 0, "need at least one shard");
    let mut entries: Vec<(u64, u64)> = pairs.into_iter().collect();
    entries.sort_by_key(|(k, _)| *k);
    let len = entries.len();
    let mut parts = Vec::with_capacity(shards);
    let mut boundaries = Vec::with_capacity(shards.saturating_sub(1));
    let mut start = 0usize;
    for s in 1..=shards {
        let mut end = if s == shards { len } else { (len * s) / shards };
        end = end.max(start);
        // Push the split point past any duplicate run so equal keys
        // stay colocated.
        while end > start && end < len && entries[end].0 == entries[end - 1].0 {
            end += 1;
        }
        if s < shards {
            boundaries.push(if end < len {
                entries[end].0
            } else {
                // Everything is already placed; later shards are empty.
                entries.last().map_or(0, |(k, _)| k.saturating_add(1))
            });
        }
        parts.push(entries[start..end].to_vec());
        start = end;
    }
    (parts, boundaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::BTreeIndex;

    #[test]
    fn partition_is_a_permutation() {
        let pairs: Vec<(u64, u64)> = (0..500u64).map(|k| (k % 97, k)).collect();
        let (parts, _) = partition_range(3, pairs.iter().copied());
        assert_eq!(parts.len(), 3);
        let mut merged: Vec<(u64, u64)> = parts.concat();
        merged.sort_unstable();
        let mut want = pairs.clone();
        want.sort_unstable();
        assert_eq!(merged, want);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = partition_range(0, std::iter::empty());
    }

    #[test]
    fn single_shard_degenerates_to_plain_build() {
        let (parts, bounds) = partition_range(1, (0..50u64).map(|k| (k, k)));
        assert_eq!(parts[0].len(), 50);
        assert!(bounds.is_empty());
    }

    #[test]
    fn range_partition_is_ordered_and_balanced() {
        let pairs: Vec<(u64, u64)> = (0..1000u64).rev().map(|k| (k, k * 3)).collect();
        let (parts, bounds) = partition_range(4, pairs);
        assert_eq!(parts.len(), 4);
        assert_eq!(bounds, vec![250, 500, 750]);
        for (s, part) in parts.iter().enumerate() {
            assert_eq!(part.len(), 250, "shard {s} balanced");
            assert!(
                part.windows(2).all(|w| w[0].0 <= w[1].0),
                "shard {s} sorted"
            );
        }
        // Concatenation in shard order is the full sorted stream.
        let merged: Vec<(u64, u64)> = parts.concat();
        assert_eq!(merged, (0..1000u64).map(|k| (k, k * 3)).collect::<Vec<_>>());
    }

    #[test]
    fn range_partition_keeps_duplicates_colocated_and_stable() {
        // One heavy key right at a would-be boundary.
        let mut pairs: Vec<(u64, u64)> = (0..10u64).map(|k| (k, 0)).collect();
        pairs.extend((0..30u64).map(|p| (10, p)));
        let (parts, bounds) = partition_range(4, pairs);
        let dup_shard: Vec<usize> = parts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.iter().any(|(k, _)| *k == 10))
            .map(|(s, _)| s)
            .collect();
        assert_eq!(dup_shard.len(), 1, "duplicates of 10 in one shard");
        let dups: Vec<u64> = parts[dup_shard[0]]
            .iter()
            .filter(|(k, _)| *k == 10)
            .map(|(_, p)| *p)
            .collect();
        assert_eq!(dups, (0..30u64).collect::<Vec<_>>(), "stable payload order");
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn range_partition_with_fewer_keys_than_shards() {
        let (parts, bounds) = partition_range(5, [(3u64, 0u64), (3, 1)]);
        assert_eq!(parts.iter().filter(|p| !p.is_empty()).count(), 1);
        assert_eq!(bounds.len(), 4);
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        let (parts, bounds) = partition_range(3, std::iter::empty());
        assert!(parts.iter().all(Vec::is_empty));
        assert_eq!(bounds, vec![0, 0]);
    }

    #[test]
    fn range_sharded_trees_scan_their_own_spans() {
        let pairs: Vec<(u64, u64)> = (0..600u64).map(|k| (k, k + 1)).collect();
        let (parts, bounds) = partition_range(3, pairs);
        let trees: Vec<BTreeIndex> = parts.into_iter().map(|p| BTreeIndex::build(8, p)).collect();
        assert_eq!(trees.len(), 3);
        assert_eq!(bounds.len(), 2);
        let total: usize = trees.iter().map(BTreeIndex::len).sum();
        assert_eq!(total, 600);
        // Each tree's full scan stays inside its boundary span.
        for (s, tree) in trees.iter().enumerate() {
            for (k, _) in tree.range_scan(0, u64::MAX, usize::MAX) {
                if s > 0 {
                    assert!(k >= bounds[s - 1], "key {k} below shard {s}");
                }
                if s < bounds.len() {
                    assert!(k < bounds[s], "key {k} above shard {s}");
                }
            }
        }
    }
}
