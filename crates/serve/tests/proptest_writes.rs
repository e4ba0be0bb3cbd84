//! Property tests for the mutable serving tier: arbitrary interleavings
//! of inserts, deletes, updates, point lookups, multi-lookups, and
//! range scans through the sharded, batched, multi-threaded service
//! answer exactly like a serial mutable oracle (`BTreeMap<u64,
//! Vec<u64>>`), for arbitrary shard counts, fanouts, batch sizes, and
//! in-flight depths — including shutdown arriving with writes still
//! queued.
//!
//! The oracle mirrors the index semantics: `insert` stacks duplicate
//! payloads in arrival order, `delete` removes every entry under the
//! key, `update` collapses the key to the single new payload (and
//! never inserts on miss).
//!
//! A plain test closes the file: readers on other threads must see a
//! stable key range exactly while a writer churns the keys next to it,
//! so leaves split and merge and freed node slots are reused at once.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use proptest::prelude::*;
use widx_db::hash::HashRecipe;
use widx_serve::{ProbeService, Request, Response, ServeConfig};

/// Serial mutable oracle over the same key space.
#[derive(Default)]
struct Oracle {
    map: BTreeMap<u64, Vec<u64>>,
}

impl Oracle {
    fn insert(&mut self, key: u64, payload: u64) -> bool {
        self.map.entry(key).or_default().push(payload);
        true
    }

    fn delete(&mut self, key: u64) -> bool {
        self.map.remove(&key).is_some()
    }

    fn update(&mut self, key: u64, payload: u64) -> bool {
        match self.map.get_mut(&key) {
            Some(payloads) => {
                *payloads = vec![payload];
                true
            }
            None => false,
        }
    }

    fn lookup(&self, key: u64) -> Vec<u64> {
        let mut out = self.map.get(&key).cloned().unwrap_or_default();
        out.sort_unstable();
        out
    }

    fn multi_lookup(&self, keys: &[u64]) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = keys
            .iter()
            .flat_map(|k| self.lookup(*k).into_iter().map(move |p| (*k, p)))
            .collect();
        out.sort_unstable();
        out
    }

    /// Key-ordered scan; duplicate payloads under one key come back in
    /// arrival order, exactly like the B+-tree's in-leaf ordering.
    fn range_scan(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, u64)> {
        self.map
            .range(lo..=hi)
            .flat_map(|(k, ps)| ps.iter().map(move |p| (*k, *p)))
            .take(limit)
            .collect()
    }
}

fn config(shards: usize, fanout: usize, batch: usize, inflight: usize) -> ServeConfig {
    ServeConfig::default()
        .with_shards(shards)
        .with_fanout(fanout)
        .with_batch_size(batch)
        .with_inflight(inflight)
        .with_batch_deadline(Duration::from_micros(100))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every interleaving of the six operation kinds, applied serially,
    /// agrees with the mutable oracle at each step — no stale reads
    /// after a write, no resurrection after a delete, no insert-on-miss
    /// from update, and range scans that see every mutation in key
    /// order.
    #[test]
    fn interleaved_ops_match_the_mutable_oracle(
        seed_pairs in prop::collection::vec((0u64..60, 0u64..1000), 0..120),
        ops in prop::collection::vec((0u8..6, 0u64..60, 0u64..1000), 1..120),
        shards in 1usize..5,
        fanout in 2usize..8,
        batch in 1usize..24,
        inflight in 1usize..8,
    ) {
        let service = ProbeService::build_with_range(
            HashRecipe::robust64(),
            seed_pairs.iter().copied(),
            &config(shards, fanout, batch, inflight),
        );
        let mut oracle = Oracle::default();
        for (key, payload) in &seed_pairs {
            oracle.insert(*key, *payload);
        }
        for (op, key, payload) in &ops {
            let (op, key, payload) = (*op, *key, *payload);
            match op {
                0 => prop_assert_eq!(
                    service.insert(key, payload).unwrap(),
                    oracle.insert(key, payload)
                ),
                1 => prop_assert_eq!(service.delete(key).unwrap(), oracle.delete(key)),
                2 => prop_assert_eq!(
                    service.update(key, payload).unwrap(),
                    oracle.update(key, payload)
                ),
                3 => {
                    let mut got = service.lookup(key).unwrap();
                    got.sort_unstable();
                    prop_assert_eq!(got, oracle.lookup(key));
                }
                4 => {
                    let keys = [key, key / 2, payload % 60];
                    let mut got = service.multi_lookup(&keys).unwrap();
                    got.sort_unstable();
                    prop_assert_eq!(got, oracle.multi_lookup(&keys));
                }
                _ => {
                    let lo = key.min(payload % 60);
                    let hi = lo + payload % 20;
                    let limit = if payload % 7 == 0 { 5 } else { usize::MAX };
                    prop_assert_eq!(
                        service.range_scan(lo, hi, limit).unwrap(),
                        oracle.range_scan(lo, hi, limit)
                    );
                }
            }
        }
        // The final index state agrees wholesale, through both tiers.
        let full = service.range_scan(0, u64::MAX, usize::MAX).unwrap();
        prop_assert_eq!(&full, &oracle.range_scan(0, u64::MAX, usize::MAX));
    }

    /// Writes queued when `stop` lands still apply (drain-then-halt),
    /// every accepted ack arrives, and the final snapshot's write
    /// counters cover every accepted op.
    #[test]
    fn shutdown_drains_queued_writes(
        seed_pairs in prop::collection::vec((0u64..40, any::<u64>()), 0..80),
        inserts in prop::collection::vec((100u64..200, any::<u64>()), 1..60),
        shards in 1usize..5,
        batch in 1usize..24,
    ) {
        let service = ProbeService::build_with_range(
            HashRecipe::robust64(),
            seed_pairs.iter().copied(),
            &config(shards, 4, batch, 4),
        );
        // Pipeline the writes without waiting, then stop under them.
        let pendings: Vec<_> = inserts
            .iter()
            .map(|(k, p)| {
                service
                    .submit(Request::Insert { pairs: vec![(*k, *p)] })
                    .unwrap()
            })
            .collect();
        service.stop();
        prop_assert!(service.insert(1, 1).is_err(), "post-stop writes refused");
        for pending in pendings {
            prop_assert_eq!(
                pending.wait(),
                Response::Write { acks: vec![true] },
                "accepted write drained before the halt"
            );
        }
        let stats = service.shutdown();
        // Each op applies in the hash tier and the ordered tier.
        prop_assert_eq!(stats.total_write_applied(), inserts.len() as u64 * 2);
    }
}

/// The stable range the readers check; the writer never touches it.
const STABLE_LO: u64 = 1_000;
const STABLE_HI: u64 = 1_199;

/// Churn key `i`: alternately just below and just above the stable
/// range, so the leaves holding its ends split and merge.
fn churn_key(i: u64) -> u64 {
    let offset = (i / 2) % 200;
    if i.is_multiple_of(2) {
        STABLE_LO - 1 - offset
    } else {
        STABLE_HI + 1 + offset
    }
}

/// One writer inserts a fresh window of churn keys each round and
/// deletes the previous round's window, under a fanout-4 ordered tier
/// (many splits and merges, freed slots reused on the next split) and
/// a hash tier whose overflow slots are freed and reused the same way.
/// Two readers scan, reverse-scan and multi-lookup the stable range
/// throughout; every answer must equal the stable set exactly.
#[test]
fn readers_see_the_stable_range_exactly_while_a_writer_churns_beside_it() {
    let stable: Vec<(u64, u64)> = (STABLE_LO..=STABLE_HI).map(|k| (k, k * 7)).collect();
    let service = Arc::new(ProbeService::build_with_range(
        HashRecipe::robust64(),
        stable.iter().copied(),
        &config(2, 4, 8, 4),
    ));
    let start = Arc::new(Barrier::new(3));
    let done = Arc::new(AtomicBool::new(false));

    let writer = {
        let (service, start, done) = (Arc::clone(&service), Arc::clone(&start), Arc::clone(&done));
        thread::spawn(move || {
            let window =
                |round: u64| -> Vec<u64> { (0..32).map(|i| churn_key(round * 32 + i)).collect() };
            start.wait();
            for round in 0..300u64 {
                let insert = Request::Insert {
                    pairs: window(round).into_iter().map(|k| (k, round)).collect(),
                };
                let acks = service.submit(insert).unwrap().wait();
                assert_eq!(
                    acks,
                    Response::Write {
                        acks: vec![true; 32]
                    }
                );
                if round > 0 {
                    let delete = Request::Delete {
                        keys: window(round - 1),
                    };
                    let acks = service.submit(delete).unwrap().wait();
                    assert_eq!(
                        acks,
                        Response::Write {
                            acks: vec![true; 32]
                        }
                    );
                }
            }
            done.store(true, Ordering::Release);
        })
    };

    let readers: Vec<_> = (0..2u64)
        .map(|reader| {
            let (service, start, done) =
                (Arc::clone(&service), Arc::clone(&start), Arc::clone(&done));
            let stable = stable.clone();
            thread::spawn(move || {
                let mut reversed = stable.clone();
                reversed.reverse();
                // Every eleventh stable key, offset per reader.
                let keys: Vec<u64> = (STABLE_LO + reader..=STABLE_HI).step_by(11).collect();
                let want: Vec<(u64, u64)> = keys.iter().map(|k| (*k, k * 7)).collect();
                start.wait();
                let mut passes = 0u32;
                while passes < 20 || !done.load(Ordering::Acquire) {
                    let asc = service
                        .range_scan(STABLE_LO, STABLE_HI, usize::MAX)
                        .unwrap();
                    assert_eq!(asc, stable, "ascending scan, pass {passes}");
                    let desc = service
                        .range_scan_desc(STABLE_LO, STABLE_HI, usize::MAX)
                        .unwrap();
                    assert_eq!(desc, reversed, "descending scan, pass {passes}");
                    let mut got = service.multi_lookup(&keys).unwrap();
                    got.sort_unstable();
                    assert_eq!(got, want, "multi-lookup, pass {passes}");
                    passes += 1;
                }
            })
        })
        .collect();

    writer.join().expect("writer panicked");
    for reader in readers {
        reader.join().expect("reader panicked");
    }
    let stats = Arc::try_unwrap(service)
        .ok()
        .expect("threads released the service")
        .shutdown();
    // 300 insert windows and 299 delete windows, each in both tiers.
    assert_eq!(stats.total_write_applied(), (300 + 299) * 32 * 2);
}
