//! Deterministic workload generation: the key space, payload tags, the
//! Zipf sampler and the per-connection operation streams. Everything
//! here is a pure function of the seed; the serving stack only ever
//! sees the keys and requests produced here.

use std::collections::VecDeque;

use crate::oracle::Oracle;
use crate::spec::{KeyDist, Workload};

/// splitmix64: a small, fast, seedable generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix64(seed ^ mix64(stream.wrapping_add(0x5bd1_e995))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias is below 2^-40 for the
    /// sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The splitmix64 finalizer — a bijection on `u64`.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Low payload bits that carry a write version; the high bits are a
/// per-key tag, so a payload returned under the wrong key never checks.
const VERSION_BITS: u32 = 24;
const VERSION_MASK: u64 = (1 << VERSION_BITS) - 1;

/// The payload stored under `key` at write `version` (0 = as built).
pub fn payload(key: u64, version: u32) -> u64 {
    (mix64(key ^ 0x7061_796c_6f61_6421) & !VERSION_MASK) | (u64::from(version) & VERSION_MASK)
}

/// The version a payload encodes, when its tag matches `key`.
pub fn version_of(key: u64, payload_value: u64) -> Option<u32> {
    (payload(key, 0) == payload_value & !VERSION_MASK)
        .then_some((payload_value & VERSION_MASK) as u32)
}

/// Slots of the key space: slot `s` is key `(base + s) << 2 | 1`, and is
/// either present (built) or a miss. Fresh keys written and deleted
/// during a run are `(base + j) << 2 | 2` — never a slot key, so reads
/// never collide with the write traffic's private keys.
pub struct Keyspace {
    base: u64,
    slots: u64,
    present: Vec<u64>,
}

/// First slot's key prefix. Fixed, like the Zipf scatter below: with
/// them, a seed moves which keys are drawn, but not which keys are hot
/// nor which shard a hot key hashes to — that shard imbalance would
/// otherwise swing throughput from seed to seed.
const KEY_BASE: u64 = 1 << 20;
const SCATTER_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
const SCATTER_XOR: u64 = 0x2545_f491_4f6c_dd1d;

impl Keyspace {
    /// Exactly `entries` present slots out of `entries / (1 - miss)`,
    /// chosen by selection sampling from the seed.
    pub fn generate(entries: u64, miss: f64, seed: u64) -> Keyspace {
        let slots = ((entries as f64) / (1.0 - miss)).ceil() as u64;
        let mut rng = Rng::new(seed, 1);
        let mut present = vec![0u64; slots.div_ceil(64) as usize];
        let mut need = entries;
        for s in 0..slots {
            let left = slots - s;
            if rng.below(left) < need {
                present[(s / 64) as usize] |= 1 << (s % 64);
                need -= 1;
            }
        }
        Keyspace {
            base: KEY_BASE,
            slots,
            present,
        }
    }

    pub fn slots(&self) -> u64 {
        self.slots
    }

    pub fn key(&self, slot: u64) -> u64 {
        ((self.base + slot) << 2) | 1
    }

    pub fn fresh_key(&self, j: u64) -> u64 {
        ((self.base + j) << 2) | 2
    }

    pub fn is_fresh(&self, key: u64) -> bool {
        key & 3 == 2 && (key >> 2) >= self.base
    }

    /// The slot a key names, if it is a slot key inside the space.
    pub fn slot(&self, key: u64) -> Option<u64> {
        if key & 3 != 1 {
            return None;
        }
        let s = (key >> 2).checked_sub(self.base)?;
        (s < self.slots).then_some(s)
    }

    /// First slot whose key is `>= key` (may be `slots`).
    pub fn slot_ceil(&self, key: u64) -> u64 {
        let k = key >> 2;
        let s = if key & 3 <= 1 { k } else { k + 1 };
        s.saturating_sub(self.base).min(self.slots)
    }

    pub fn present(&self, slot: u64) -> bool {
        self.present[(slot / 64) as usize] >> (slot % 64) & 1 == 1
    }

    /// The built `(key, payload)` pairs, in key order.
    pub fn pairs(&self) -> impl Iterator<Item = (u64, u64)> + Clone + '_ {
        (0..self.slots)
            .filter(|&s| self.present(s))
            .map(|s| (self.key(s), payload(self.key(s), 0)))
    }

    /// Scatters a Zipf rank over the slots (a bijection when `slots` is
    /// a power of two).
    fn scatter(&self, rank: u64) -> u64 {
        debug_assert!(self.slots.is_power_of_two());
        (rank.wrapping_mul(SCATTER_MUL) ^ SCATTER_XOR) & (self.slots - 1)
    }
}

/// Zipf(θ) over `[0, n)` by Gray et al.'s method (as in YCSB): O(n) set-up,
/// O(1) per draw.
pub struct Zipf {
    n: f64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        let nf = n as f64;
        Zipf {
            n: nf,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / nf).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha);
        (r as u64).min(self.n as u64 - 1)
    }
}

/// Draws slots from a workload's key distribution.
pub struct SlotDraw {
    zipf: Option<Zipf>,
}

impl SlotDraw {
    pub fn new(wl: &Workload, ks: &Keyspace) -> SlotDraw {
        SlotDraw {
            zipf: match wl.keys {
                KeyDist::Uniform => None,
                KeyDist::Zipf(theta) => Some(Zipf::new(ks.slots(), theta)),
            },
        }
    }

    pub fn slot(&self, ks: &Keyspace, rng: &mut Rng) -> u64 {
        match &self.zipf {
            None => rng.below(ks.slots()),
            Some(z) => ks.scatter(z.sample(rng)),
        }
    }
}

/// One client operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// A single-key `Lookup`.
    Lookup(u64),
    /// A `MultiLookup` of several keys.
    Multi(Vec<u64>),
    /// An ascending `RangeScan`.
    Scan { lo: u64, hi: u64, limit: usize },
    /// `Update` of a built key this connection owns.
    Update { key: u64, version: u32 },
    /// `Insert` of a fresh key.
    Insert { key: u64 },
    /// `Delete` of a fresh key this connection inserted earlier.
    Delete { key: u64 },
}

/// What an operation is, for latency and failure accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Lookup,
    Scan,
    Write,
}

impl Op {
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Lookup(_) | Op::Multi(_) => OpKind::Lookup,
            Op::Scan { .. } => OpKind::Scan,
            Op::Update { .. } | Op::Insert { .. } | Op::Delete { .. } => OpKind::Write,
        }
    }

    /// Work units the operation completes: keys looked up, one per scan,
    /// one per write.
    pub fn units(&self) -> u64 {
        match self {
            Op::Multi(keys) => keys.len() as u64,
            _ => 1,
        }
    }

    pub fn request(&self) -> widx_serve::Request {
        use widx_serve::Request;
        match self {
            Op::Lookup(key) => Request::Lookup { key: *key },
            Op::Multi(keys) => Request::MultiLookup { keys: keys.clone() },
            Op::Scan { lo, hi, limit } => Request::RangeScan {
                lo: *lo,
                hi: *hi,
                limit: *limit,
                desc: false,
            },
            Op::Update { key, version } => Request::Update {
                pairs: vec![(*key, payload(*key, *version))],
            },
            Op::Insert { key } => Request::Insert {
                pairs: vec![(*key, payload(*key, 0))],
            },
            Op::Delete { key } => Request::Delete { keys: vec![*key] },
        }
    }
}

/// Fresh inserts a connection keeps live before it starts deleting the
/// oldest: the entry count stays within `connections × FRESH_LAG` of the
/// built size for the whole run.
pub const FRESH_LAG: u64 = 16;

/// Slots a scan spans (and its limit).
pub const SCAN_SPAN: u64 = 64;

/// One connection's operation stream. Connection `conn` of `conns`
/// updates only built slots `s` with `s % conns == conn` and writes only
/// its own fresh keys, so every key has one writer and the final state
/// has a definite oracle.
pub struct OpStream {
    rng: Rng,
    draw: SlotDraw,
    conn: u64,
    conns: u64,
    batch: usize,
    read_pct: u64,
    scan_pct: u64,
    writes: u64,
    fresh_issued: u64,
    live_fresh: VecDeque<u64>,
}

impl OpStream {
    /// `stream` separates the rungs of one run, so each rung draws its
    /// own requests from the seed.
    pub fn new(
        wl: &Workload,
        ks: &Keyspace,
        seed: u64,
        stream: u64,
        conn: u64,
        conns: u64,
    ) -> OpStream {
        OpStream {
            rng: Rng::new(seed, 1000 + stream * 64 + conn),
            draw: SlotDraw::new(wl, ks),
            conn,
            conns,
            batch: wl.batch,
            read_pct: wl.mix.lookup_pct,
            scan_pct: wl.mix.scan_pct,
            writes: 0,
            fresh_issued: 0,
            live_fresh: VecDeque::new(),
        }
    }

    pub fn next(&mut self, ks: &Keyspace, oracle: &Oracle) -> Op {
        let roll = self.rng.below(100);
        if roll < self.read_pct {
            if self.batch == 1 {
                return Op::Lookup(ks.key(self.draw.slot(ks, &mut self.rng)));
            }
            let keys = (0..self.batch)
                .map(|_| ks.key(self.draw.slot(ks, &mut self.rng)))
                .collect();
            return Op::Multi(keys);
        }
        if roll < self.read_pct + self.scan_pct {
            let first = self.draw.slot(ks, &mut self.rng);
            let last = (first + SCAN_SPAN - 1).min(ks.slots() - 1);
            return Op::Scan {
                lo: ks.key(first),
                hi: ks.key(last),
                limit: SCAN_SPAN as usize,
            };
        }
        self.writes += 1;
        if self.writes % 2 == 1 {
            // Update a present slot this connection owns.
            let mut slot = self.draw.slot(ks, &mut self.rng);
            slot -= slot % self.conns;
            slot += self.conn;
            while slot >= ks.slots() || !ks.present(slot) {
                slot = (slot + self.conns) % ks.slots();
                slot -= slot % self.conns;
                slot += self.conn;
            }
            let key = ks.key(slot);
            return Op::Update {
                key,
                version: oracle.bump(slot),
            };
        }
        if self.live_fresh.len() as u64 >= FRESH_LAG {
            let key = self.live_fresh.pop_front().expect("live fresh keys");
            return Op::Delete { key };
        }
        let key = ks.fresh_key(self.fresh_issued * self.conns + self.conn);
        self.fresh_issued += 1;
        self.live_fresh.push_back(key);
        Op::Insert { key }
    }

    /// Deletes for the fresh keys still live, issued after the measured
    /// window so the final state equals the built one.
    pub fn drain(&mut self) -> Vec<Op> {
        self.live_fresh
            .drain(..)
            .map(|key| Op::Delete { key })
            .collect()
    }

    /// Every fresh-key index this stream wrote is below this bound.
    pub fn fresh_end(&self) -> u64 {
        self.fresh_issued * self.conns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use widx_db::hash::HashRecipe;
    use widx_db::index::HashIndex;

    fn mix_workload() -> &'static Workload {
        spec::workload("rw-scan-mix").expect("declared")
    }

    fn ops(seed: u64, n: usize) -> Vec<Op> {
        let wl = mix_workload();
        let ks = Keyspace::generate(1 << 12, wl.miss, seed);
        let oracle = Oracle::new(&ks, true);
        let mut stream = OpStream::new(wl, &ks, seed, 1, 0, 2);
        (0..n).map(|_| stream.next(&ks, &oracle)).collect()
    }

    #[test]
    fn generated_workloads_repeat_per_seed_and_differ_across_seeds() {
        let a = Keyspace::generate(1000, 0.06, 7);
        let b = Keyspace::generate(1000, 0.06, 7);
        let c = Keyspace::generate(1000, 0.06, 8);
        assert!(a.pairs().eq(b.pairs()));
        assert!(!a.pairs().eq(c.pairs()));
        assert_eq!(a.pairs().count(), 1000);
        assert_eq!(a.slots(), 1064);

        assert_eq!(ops(7, 2000), ops(7, 2000));
        assert_ne!(ops(7, 2000), ops(8, 2000));
        let kinds = |ops: &[Op], k: OpKind| ops.iter().filter(|o| o.kind() == k).count();
        let sample = ops(7, 10_000);
        assert!((7_500..8_500).contains(&kinds(&sample, OpKind::Lookup)));
        assert!((700..1_300).contains(&kinds(&sample, OpKind::Scan)));
        assert!((700..1_300).contains(&kinds(&sample, OpKind::Write)));
    }

    #[test]
    fn write_mix_keeps_the_entry_count_constant() {
        let wl = mix_workload();
        let ks = Keyspace::generate(1 << 12, wl.miss, 3);
        let oracle = Oracle::new(&ks, true);
        let mut index = HashIndex::build(HashRecipe::robust64(), 1 << 12, ks.pairs());
        let built = index.len();
        let max_chain = index.stats().max_chain;
        let mut streams: Vec<OpStream> =
            (0..2).map(|c| OpStream::new(wl, &ks, 3, 1, c, 2)).collect();
        let apply = |index: &mut HashIndex, op: Op| match op {
            Op::Update { key, version } => assert!(index.update(key, payload(key, version))),
            Op::Insert { key } => index.insert(key, payload(key, 0)),
            Op::Delete { key } => assert_eq!(index.delete(key), 1),
            _ => {}
        };
        for i in 0..20_000 {
            let op = streams[i % 2].next(&ks, &oracle);
            apply(&mut index, op);
            assert!(index.len().abs_diff(built) as u64 <= 2 * FRESH_LAG);
        }
        for stream in &mut streams {
            for op in stream.drain() {
                apply(&mut index, op);
            }
        }
        assert_eq!(index.len(), built);
        assert_eq!(index.stats().max_chain, max_chain);
    }
}
