//! The benchmark-side oracle: what every answer must be, given the
//! built key space and the writes issued so far.
//!
//! Built slots carry a write version. `sent[s]` is the newest version any
//! client has issued for slot `s` and `acked[s]` the newest one whose
//! acknowledgement has come back. A read that started after an ack must
//! see at least that version and can never see one not yet issued, so a
//! lookup is checked against `[acked at send, sent at receive]`.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::gen::{payload, version_of, Keyspace, Op};

pub struct Oracle {
    sent: Vec<AtomicU32>,
    acked: Vec<AtomicU32>,
}

impl Oracle {
    /// `writes`: whether the workload updates built keys (the version
    /// arrays are only allocated then).
    pub fn new(ks: &Keyspace, writes: bool) -> Oracle {
        let n = if writes { ks.slots() as usize } else { 0 };
        Oracle {
            sent: (0..n).map(|_| AtomicU32::new(0)).collect(),
            acked: (0..n).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Issues the next version of `slot`.
    pub fn bump(&self, slot: u64) -> u32 {
        self.sent[slot as usize].fetch_add(1, Ordering::SeqCst) + 1
    }

    fn sent(&self, slot: u64) -> u32 {
        self.sent
            .get(slot as usize)
            .map_or(0, |v| v.load(Ordering::SeqCst))
    }

    fn acked(&self, slot: u64) -> u32 {
        self.acked
            .get(slot as usize)
            .map_or(0, |v| v.load(Ordering::SeqCst))
    }

    /// Per-key version floors for a read about to be sent.
    pub fn floors(&self, ks: &Keyspace, op: &Op) -> Vec<u32> {
        if self.acked.is_empty() {
            return Vec::new();
        }
        match op {
            Op::Lookup(key) => vec![ks.slot(*key).map_or(0, |s| self.acked(s))],
            Op::Multi(keys) => keys
                .iter()
                .map(|k| ks.slot(*k).map_or(0, |s| self.acked(s)))
                .collect(),
            _ => Vec::new(),
        }
    }

    fn payload_ok(&self, ks: &Keyspace, key: u64, value: u64, floor: u32) -> bool {
        let Some(slot) = ks.slot(key) else {
            return false;
        };
        if !ks.present(slot) {
            return false;
        }
        match version_of(key, value) {
            Some(v) => v >= floor && v <= self.sent(slot),
            None => false,
        }
    }

    /// Checks one answer; on success records write acks.
    pub fn check(
        &self,
        ks: &Keyspace,
        op: &Op,
        floors: &[u32],
        response: &widx_serve::Response,
    ) -> bool {
        use widx_serve::Response;
        let floor = |i: usize| floors.get(i).copied().unwrap_or(0);
        match (op, response) {
            (Op::Lookup(key), Response::Lookup { key: got, payloads }) => {
                got == key && self.lookup_ok(ks, *key, payloads, floor(0))
            }
            (Op::Multi(keys), Response::MultiLookup { matches }) => {
                self.multi_ok(ks, keys, floors, matches)
            }
            (Op::Scan { lo, hi, limit }, Response::RangeScan { entries }) => {
                self.scan_ok(ks, *lo, *hi, *limit, entries, false)
            }
            (Op::Update { key, version }, Response::Write { acks }) => {
                let ok = acks == &[true];
                if ok {
                    let slot = ks.slot(*key).expect("updates target slot keys");
                    self.acked[slot as usize].fetch_max(*version, Ordering::SeqCst);
                }
                ok
            }
            (Op::Insert { .. } | Op::Delete { .. }, Response::Write { acks }) => acks == &[true],
            _ => false,
        }
    }

    fn lookup_ok(&self, ks: &Keyspace, key: u64, payloads: &[u64], floor: u32) -> bool {
        match ks.slot(key) {
            Some(s) if ks.present(s) => {
                payloads.len() == 1 && self.payload_ok(ks, key, payloads[0], floor)
            }
            _ => payloads.is_empty(),
        }
    }

    /// Every present probe key matches exactly once per occurrence with
    /// a valid payload; misses match nothing; nothing else comes back.
    fn multi_ok(
        &self,
        ks: &Keyspace,
        keys: &[u64],
        floors: &[u32],
        matches: &[(u64, u64)],
    ) -> bool {
        let mut want: Vec<(u64, u32)> = keys
            .iter()
            .enumerate()
            .filter(|(_, k)| ks.slot(**k).is_some_and(|s| ks.present(s)))
            .map(|(i, k)| (*k, floors.get(i).copied().unwrap_or(0)))
            .collect();
        if want.len() != matches.len() {
            return false;
        }
        want.sort_unstable();
        let mut got = matches.to_vec();
        got.sort_unstable();
        want.iter()
            .zip(&got)
            .all(|(&(k, floor), &(gk, value))| k == gk && self.payload_ok(ks, k, value, floor))
    }

    /// A scan is sorted, inside `[lo, hi]`, at most `limit` long, and
    /// holds every present slot key of the range up to where it stops;
    /// fresh keys may interleave. `exact` (quiescent state) also
    /// requires current versions and no fresh keys at all.
    pub fn scan_ok(
        &self,
        ks: &Keyspace,
        lo: u64,
        hi: u64,
        limit: usize,
        entries: &[(u64, u64)],
        exact: bool,
    ) -> bool {
        if entries.len() > limit || entries.windows(2).any(|w| w[0].0 >= w[1].0) {
            return false;
        }
        let mut slot = ks.slot_ceil(lo);
        let next_present = |mut s: u64| {
            while s < ks.slots() && !ks.present(s) {
                s += 1;
            }
            s
        };
        slot = next_present(slot);
        for &(key, value) in entries {
            if key < lo || key > hi {
                return false;
            }
            if ks.is_fresh(key) {
                if exact || version_of(key, value) != Some(0) {
                    return false;
                }
                continue;
            }
            if slot >= ks.slots() || key != ks.key(slot) || !self.payload_ok(ks, key, value, 0) {
                return false;
            }
            if exact && version_of(key, value) != Some(self.sent(slot)) {
                return false;
            }
            slot = next_present(slot + 1);
        }
        // A short scan must have run out of range, not of patience.
        entries.len() == limit || slot >= ks.slots() || ks.key(slot) > hi
    }

    /// The quiescent payload of a present slot.
    pub fn current(&self, ks: &Keyspace, slot: u64) -> u64 {
        payload(ks.key(slot), self.sent(slot))
    }

    /// Every issued version has been acknowledged.
    pub fn settled(&self) -> bool {
        self.sent
            .iter()
            .zip(&self.acked)
            .all(|(s, a)| s.load(Ordering::SeqCst) == a.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use widx_serve::Response;

    #[test]
    fn wrong_answers_are_caught() {
        let ks = Keyspace::generate(256, 0.0, 5);
        let oracle = Oracle::new(&ks, true);
        let (k0, k1) = (ks.key(0), ks.key(1));
        let hit = |k| Response::Lookup {
            key: k,
            payloads: vec![payload(k, 0)],
        };
        assert!(oracle.check(&ks, &Op::Lookup(k0), &[0], &hit(k0)));
        // Another key's payload, a second payload, a miss.
        let swapped = Response::Lookup {
            key: k0,
            payloads: vec![payload(k1, 0)],
        };
        assert!(!oracle.check(&ks, &Op::Lookup(k0), &[0], &swapped));
        let doubled = Response::Lookup {
            key: k0,
            payloads: vec![payload(k0, 0); 2],
        };
        assert!(!oracle.check(&ks, &Op::Lookup(k0), &[0], &doubled));
        let missing = Response::Lookup {
            key: k0,
            payloads: vec![],
        };
        assert!(!oracle.check(&ks, &Op::Lookup(k0), &[0], &missing));
        // A version never written, then one written and acked.
        let ahead = Response::Lookup {
            key: k0,
            payloads: vec![payload(k0, 1)],
        };
        assert!(!oracle.check(&ks, &Op::Lookup(k0), &[0], &ahead));
        let v = oracle.bump(0);
        assert!(oracle.check(
            &ks,
            &Op::Update {
                key: k0,
                version: v
            },
            &[],
            &Response::Write { acks: vec![true] }
        ));
        assert!(oracle.check(
            &ks,
            &Op::Lookup(k0),
            &oracle.floors(&ks, &Op::Lookup(k0)),
            &ahead
        ));
        // Once acked, the old version is stale.
        assert!(!oracle.check(
            &ks,
            &Op::Lookup(k0),
            &oracle.floors(&ks, &Op::Lookup(k0)),
            &hit(k0)
        ));
        // A multi-lookup that drops a match.
        let multi = Op::Multi(vec![k1, k1]);
        let one = Response::MultiLookup {
            matches: vec![(k1, payload(k1, 0))],
        };
        assert!(!oracle.check(&ks, &multi, &[0, 0], &one));
    }

    #[test]
    fn scans_must_be_sorted_bounded_and_gapless() {
        let ks = Keyspace::generate(256, 0.0, 5);
        let oracle = Oracle::new(&ks, false);
        let entry = |s: u64| (ks.key(s), payload(ks.key(s), 0));
        let (lo, hi) = (ks.key(10), ks.key(20));
        let full: Vec<_> = (10..=20).map(entry).collect();
        assert!(oracle.scan_ok(&ks, lo, hi, 64, &full, true));
        assert!(oracle.scan_ok(&ks, lo, hi, 5, &full[..5], true));
        assert!(
            !oracle.scan_ok(&ks, lo, hi, 4, &full[..5], true),
            "over the limit"
        );
        assert!(
            !oracle.scan_ok(&ks, lo, hi, 64, &full[..10], true),
            "stopped early"
        );
        let mut gap = full.clone();
        gap.remove(3);
        assert!(!oracle.scan_ok(&ks, lo, hi, 64, &gap, true), "a gap");
        let mut unsorted = full.clone();
        unsorted.swap(0, 1);
        assert!(
            !oracle.scan_ok(&ks, lo, hi, 64, &unsorted, true),
            "unsorted"
        );
        let mut outside = full;
        outside.push(entry(21));
        assert!(!oracle.scan_ok(&ks, lo, hi, 64, &outside, true), "past hi");
    }
}
