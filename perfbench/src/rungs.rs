//! The ladder's rungs. Each drives one layer through its public calls
//! on the same keys: the bare walker engines (`widx-soft`), the
//! in-process `ProbeService` (`widx-serve`), the loopback
//! `WidxServer`/`WidxClient` (`widx-net`), and a bare echo server as the
//! network floor.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use widx_db::epoch::EpochDomain;
use widx_db::hash::HashRecipe;
use widx_db::index::{BTreeIndex, HashIndex};
use widx_net::wire::{self, Decoded};
use widx_net::{Reply, WidxClient, WidxServer};
use widx_serve::{
    OrderedShardedIndex, PendingResponse, ProbeService, Response, ShardedIndex, SubmitError,
};
use widx_soft::{
    probe_amac, probe_group_prefetch, probe_scalar, scan_btree_amac, scan_btree_scalar, ScanRange,
    WalkCounters,
};

use crate::gen::{Keyspace, Op, OpKind, OpStream, Rng, SlotDraw, SCAN_SPAN};
use crate::oracle::Oracle;
use crate::spec::{self, Load, Workload};
use crate::stats::Samples;
use crate::trace::SpanLog;

/// Everything a rung needs to generate and check its traffic.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    pub wl: &'static Workload,
    pub ks: &'a Keyspace,
    pub oracle: &'a Oracle,
    pub seed: u64,
    /// Span clock origin.
    pub epoch: Instant,
}

/// One in every `SAMPLE` requests of a traced rung records spans.
const SAMPLE: u64 = 8;

/// What a rung's client threads saw.
#[derive(Default)]
pub struct Tally {
    /// Latency per [`OpKind`], from send (closed loop) or due time
    /// (open loop) to answer.
    pub lat: [Samples; 3],
    /// Keys looked up, scans and write ops answered correctly.
    pub units: u64,
    pub attempted: u64,
    pub refused: u64,
    pub wrong: u64,
    pub first_wrong: Option<String>,
    /// Open loop: how late the generator sent each request.
    pub late: Samples,
    /// `(completed at, work units)` per timed answer.
    pub done: Vec<(Instant, u64)>,
    /// When the timed load began.
    pub start: Option<Instant>,
    pub elapsed: Duration,
    pub spans: Option<SpanLog>,
    /// Fresh-key indices below this may have been written.
    pub fresh_end: u64,
}

impl Tally {
    fn new(ctx: &Ctx, traced: bool, thread: u64) -> Tally {
        Tally {
            spans: traced.then(|| SpanLog::new(ctx.epoch, thread)),
            ..Tally::default()
        }
    }

    /// Accounts one answer; `None` is a refusal.
    fn answer(
        &mut self,
        ctx: &Ctx,
        op: &Op,
        floors: &[u32],
        response: Option<&Response>,
        latency: Duration,
        timed: bool,
    ) {
        let Some(response) = response else {
            self.refused += 1;
            return;
        };
        if !ctx.oracle.check(ctx.ks, op, floors, response) {
            self.wrong += 1;
            self.first_wrong
                .get_or_insert_with(|| format!("{op:?} -> {response:?}"));
            return;
        }
        if timed {
            let now = Instant::now();
            self.units += op.units();
            self.done.push((now, op.units()));
            self.lat[op.kind() as usize].push(now, latency.as_nanos() as u64);
        }
    }

    pub fn failed(&self) -> u64 {
        self.refused + self.wrong
    }

    pub fn merge(&mut self, other: Tally) {
        for (a, b) in self.lat.iter_mut().zip(other.lat) {
            a.extend(b);
        }
        self.units += other.units;
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.wrong += other.wrong;
        if self.first_wrong.is_none() {
            self.first_wrong = other.first_wrong;
        }
        self.late.extend(other.late);
        self.done.extend(other.done);
        self.start = match (self.start, other.start) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.elapsed = self.elapsed.max(other.elapsed);
        self.fresh_end = self.fresh_end.max(other.fresh_end);
        match (&mut self.spans, other.spans) {
            (Some(a), Some(b)) => a.absorb(b),
            (a @ None, b) => *a = b,
            _ => {}
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        self.units as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    pub fn lookup(&mut self) -> &mut Samples {
        &mut self.lat[OpKind::Lookup as usize]
    }
}

// ---------------------------------------------------------------- set-up

/// The serving stack of one run: index, service, loopback server.
pub struct Stack {
    pub service: Arc<ProbeService>,
    pub server: WidxServer,
}

/// Set-up timings.
pub struct Setup {
    pub build: Duration,
    /// Index build to first answered loopback request.
    pub total: Duration,
}

impl Stack {
    /// Builds the index, starts the service and the server, and waits for
    /// the first loopback answer.
    pub fn up(ctx: &Ctx, log: Option<&mut SpanLog>) -> std::io::Result<(Stack, Setup)> {
        let config = spec::serve_config();
        let t0 = Instant::now();
        let domain = EpochDomain::new();
        let sharded = ShardedIndex::build(
            HashRecipe::robust64(),
            config.shards,
            config.min_buckets,
            config.load,
            &domain,
            ctx.ks.pairs(),
        );
        let ordered = ctx.wl.range_tier.then(|| {
            OrderedShardedIndex::build(config.fanout, config.shards, &domain, ctx.ks.pairs())
        });
        let built = Instant::now();
        let service = Arc::new(match ordered {
            Some(ordered) => ProbeService::start_with_ordered(sharded, ordered, &config),
            None => ProbeService::start(sharded, &config),
        });
        let started = Instant::now();
        let server = WidxServer::bind("127.0.0.1:0", Arc::clone(&service), spec::net_config())?;
        let mut client = WidxClient::connect(server.local_addr())?;
        let slot = (0..ctx.ks.slots())
            .find(|&s| ctx.ks.present(s))
            .expect("a present key");
        let op = Op::Lookup(ctx.ks.key(slot));
        let answer = client.call(&op.request()).map_err(std::io::Error::other)?;
        let answered = Instant::now();
        if !ctx.oracle.check(ctx.ks, &op, &[], &answer) {
            return Err(std::io::Error::other(format!(
                "first answer wrong: {answer:?}"
            )));
        }
        if let Some(log) = log {
            log.record("db.build", 0, 0, t0, built);
            log.record("serve.start", 0, 0, built, started);
            log.record("net.first_answer", 0, 0, started, answered);
        }
        let setup = Setup {
            build: built - t0,
            total: answered - t0,
        };
        Ok((Stack { service, server }, setup))
    }

    pub fn down(self) {
        let _ = self.server.shutdown();
        let service = Arc::try_unwrap(self.service)
            .unwrap_or_else(|_| panic!("service still shared at shutdown"));
        let _ = service.shutdown();
    }
}

/// Shape of the hash tier (and the ordered tier's size).
#[derive(Clone, Copy, Debug, Default)]
pub struct Shape {
    pub len: f64,
    pub ordered_len: f64,
    pub mean_chain: f64,
    pub max_chain: f64,
    pub matches_per_lookup: f64,
}

/// Probes per [`Shape::matches_per_lookup`] sample.
const SHAPE_PROBES: usize = 4096;

pub fn shape(ctx: &Ctx, service: &ProbeService) -> Shape {
    let sharded = service.sharded();
    let stats = sharded.shard_stats();
    let entries: usize = stats.iter().map(|s| s.entries).sum();
    let non_empty: usize = stats.iter().map(|s| s.buckets - s.empty_buckets).sum();
    let mut rng = Rng::new(ctx.seed, 7);
    let draw = SlotDraw::new(ctx.wl, ctx.ks);
    let matches: usize = (0..SHAPE_PROBES)
        .map(|_| {
            sharded
                .lookup_all(ctx.ks.key(draw.slot(ctx.ks, &mut rng)))
                .len()
        })
        .sum();
    Shape {
        len: entries as f64,
        ordered_len: service.ordered().map_or(0, OrderedShardedIndex::len) as f64,
        mean_chain: entries as f64 / non_empty.max(1) as f64,
        max_chain: stats.iter().map(|s| s.max_chain).max().unwrap_or(0) as f64,
        matches_per_lookup: matches as f64 / SHAPE_PROBES as f64,
    }
}

/// Compares the quiescent state with the oracle on a key sample:
/// lookups via `multi_lookup`, fresh keys gone, and exact scans.
pub fn final_check(ctx: &Ctx, service: &ProbeService, fresh_end: u64) -> Result<(), String> {
    if !ctx.oracle.settled() {
        return Err("a write was never acknowledged".into());
    }
    let mut rng = Rng::new(ctx.seed, 9);
    let keys: Vec<u64> = (0..SHAPE_PROBES)
        .map(|_| ctx.ks.key(rng.below(ctx.ks.slots())))
        .collect();
    let mut got = service.multi_lookup(&keys).map_err(|e| e.to_string())?;
    got.sort_unstable();
    let mut want: Vec<(u64, u64)> = keys
        .iter()
        .filter_map(|&k| {
            let s = ctx.ks.slot(k)?;
            ctx.ks
                .present(s)
                .then(|| (k, ctx.oracle.current(ctx.ks, s)))
        })
        .collect();
    want.sort_unstable();
    if got != want {
        return Err("quiescent lookups differ from the oracle".into());
    }
    for j in (0..fresh_end).step_by((fresh_end as usize / 256).max(1)) {
        let key = ctx.ks.fresh_key(j);
        if !service.lookup(key).map_err(|e| e.to_string())?.is_empty() {
            return Err(format!("fresh key {key} survived its delete"));
        }
    }
    if service.ordered().is_some() {
        for _ in 0..64 {
            let first = rng.below(ctx.ks.slots());
            let last = (first + SCAN_SPAN - 1).min(ctx.ks.slots() - 1);
            let (lo, hi) = (ctx.ks.key(first), ctx.ks.key(last));
            let limit = SCAN_SPAN as usize;
            let entries = service
                .range_scan(lo, hi, limit)
                .map_err(|e| e.to_string())?;
            if !ctx.oracle.scan_ok(ctx.ks, lo, hi, limit, &entries, true) {
                return Err(format!(
                    "quiescent scan [{lo}, {hi}] differs from the oracle"
                ));
            }
        }
    }
    Ok(())
}

// ------------------------------------------------------------- engines

/// Bare-engine throughput on the service's own shards.
#[derive(Default, Debug)]
pub struct EngineResult {
    pub scalar_keys_per_s: f64,
    pub group_keys_per_s: f64,
    pub amac_keys_per_s: f64,
    pub amac_mlp: f64,
    pub nodes_per_lookup: f64,
    pub btree_scalar_scans_per_s: f64,
    pub btree_amac_scans_per_s: f64,
    pub wrong: u64,
    pub attempted: u64,
}

/// Keys per hash-engine call.
const ENGINE_CHUNK: usize = 4096;
/// Scans per B+-tree-engine call.
const SCAN_CHUNK: usize = 256;

/// Runs each engine for `per_engine`, single-threaded, over probe keys
/// drawn like the workload's and routed to their shards. The B+-tree
/// engines scan the ordered tier's shard 0 or, for a hash-only workload,
/// a tree built over the same pairs for this rung alone.
pub fn engines(
    ctx: &Ctx,
    service: &ProbeService,
    per_engine: Duration,
    log: &mut SpanLog,
) -> EngineResult {
    let config = spec::serve_config();
    let sharded = service.sharded();
    let mut rng = Rng::new(ctx.seed, 11);
    let draw = SlotDraw::new(ctx.wl, ctx.ks);
    let mut routed: Vec<Vec<u64>> = vec![Vec::new(); sharded.shard_count()];
    for _ in 0..ENGINE_CHUNK * 16 {
        let key = ctx.ks.key(draw.slot(ctx.ks, &mut rng));
        routed[sharded.shard_of(key)].push(key);
    }
    let guards: Vec<_> = (0..sharded.shard_count())
        .map(|s| sharded.read(s))
        .collect();
    let mut result = EngineResult::default();

    type Engine = fn(&HashIndex, &[u64], &mut Vec<(u64, u64)>) -> WalkCounters;
    let engines: [(&'static str, Engine); 3] = [
        ("soft.scalar", |i, k, o| probe_scalar(i, k, o)),
        ("soft.group", |i, k, o| {
            probe_group_prefetch(i, k, spec::serve_config().inflight, o)
        }),
        ("soft.amac", |i, k, o| {
            probe_amac(i, k, spec::serve_config().inflight, o)
        }),
    ];
    let mut out = Vec::with_capacity(ENGINE_CHUNK);
    for (name, engine) in engines {
        let (mut keys, mut busy, mut counters) = (0u64, Duration::ZERO, WalkCounters::default());
        let end = Instant::now() + per_engine;
        'run: loop {
            for (shard, probes) in routed.iter().enumerate() {
                for chunk in probes.chunks(ENGINE_CHUNK) {
                    out.clear();
                    let t0 = Instant::now();
                    let c = engine(&guards[shard], std::hint::black_box(chunk), &mut out);
                    let t1 = Instant::now();
                    log.record(name, 0, 0, t0, t1);
                    busy += t1 - t0;
                    keys += chunk.len() as u64;
                    counters.merge(&c);
                    result.attempted += 1;
                    if !engine_answer_ok(ctx, chunk, &mut out) {
                        result.wrong += 1;
                    }
                    if t1 >= end {
                        break 'run;
                    }
                }
            }
        }
        let rate = keys as f64 / busy.as_secs_f64().max(1e-9);
        match name {
            "soft.scalar" => result.scalar_keys_per_s = rate,
            "soft.group" => result.group_keys_per_s = rate,
            _ => {
                result.amac_keys_per_s = rate;
                result.amac_mlp = counters.occupancy as f64 / counters.rounds.max(1) as f64;
                result.nodes_per_lookup = counters.nodes as f64 / keys.max(1) as f64;
            }
        }
    }
    drop(guards);

    // B+-tree scans.
    let own_tree;
    let ordered_guard;
    let tree: &BTreeIndex = match service.ordered() {
        Some(ordered) => {
            ordered_guard = ordered.read(0);
            &ordered_guard
        }
        None => {
            let t0 = Instant::now();
            own_tree = BTreeIndex::build(config.fanout, ctx.ks.pairs());
            log.record("db.btree_build", 0, 0, t0, Instant::now());
            &own_tree
        }
    };
    // Scans stay inside this one tree.
    let Some(&last) = tree.leaf_entries(tree.last_leaf()).0.last() else {
        return result;
    };
    let scans: Vec<(ScanRange, u64, u64)> = (0..ENGINE_CHUNK)
        .filter_map(|_| {
            let first = draw.slot(ctx.ks, &mut rng);
            let (lo, hi) = (
                ctx.ks.key(first),
                ctx.ks.key((first + SCAN_SPAN - 1).min(ctx.ks.slots() - 1)),
            );
            (lo <= last).then(|| {
                (
                    ScanRange::new(lo, hi.min(last)).with_limit(SCAN_SPAN as usize),
                    lo,
                    hi.min(last),
                )
            })
        })
        .collect();
    let ranges: Vec<ScanRange> = scans.iter().map(|s| s.0).collect();
    let mut emitted: Vec<(u32, u64, u64)> = Vec::new();
    for name in ["soft.btree_scalar", "soft.btree_amac"] {
        let (mut done, mut busy) = (0u64, Duration::ZERO);
        let end = Instant::now() + per_engine;
        for (ci, chunk) in ranges.chunks(SCAN_CHUNK).enumerate().cycle() {
            emitted.clear();
            let mut emit = |tag: u32, key: u64, value: u64| emitted.push((tag, key, value));
            let t0 = Instant::now();
            if name == "soft.btree_scalar" {
                scan_btree_scalar(tree, std::hint::black_box(chunk), &mut emit);
            } else {
                scan_btree_amac(
                    tree,
                    std::hint::black_box(chunk),
                    config.inflight,
                    &mut emit,
                );
            }
            let t1 = Instant::now();
            log.record(name, 0, 0, t0, t1);
            busy += t1 - t0;
            done += chunk.len() as u64;
            result.attempted += 1;
            let base = ci * SCAN_CHUNK;
            if !btree_answer_ok(ctx, &scans[base..base + chunk.len()], &mut emitted) {
                result.wrong += 1;
            }
            if t1 >= end {
                break;
            }
        }
        let rate = done as f64 / busy.as_secs_f64().max(1e-9);
        if name == "soft.btree_scalar" {
            result.btree_scalar_scans_per_s = rate;
        } else {
            result.btree_amac_scans_per_s = rate;
        }
    }
    result
}

/// An engine's matches for `keys`: every present key once, with a valid
/// payload.
fn engine_answer_ok(ctx: &Ctx, keys: &[u64], out: &mut [(u64, u64)]) -> bool {
    let present = keys
        .iter()
        .filter(|k| ctx.ks.slot(**k).is_some_and(|s| ctx.ks.present(s)))
        .count();
    present == out.len()
        && out.iter().all(|&(k, v)| {
            ctx.oracle.check(
                ctx.ks,
                &Op::Lookup(k),
                &[],
                &Response::Lookup {
                    key: k,
                    payloads: vec![v],
                },
            )
        })
}

/// Per scan: ascending, in range, within the limit, valid payloads.
fn btree_answer_ok(
    ctx: &Ctx,
    scans: &[(ScanRange, u64, u64)],
    emitted: &mut [(u32, u64, u64)],
) -> bool {
    emitted.sort_by_key(|e| e.0);
    let mut at = 0;
    for (i, &(_, lo, hi)) in scans.iter().enumerate() {
        let start = at;
        while at < emitted.len() && emitted[at].0 == i as u32 {
            at += 1;
        }
        let entries: Vec<(u64, u64)> = emitted[start..at].iter().map(|e| (e.1, e.2)).collect();
        if !ctx
            .oracle
            .scan_ok(ctx.ks, lo, hi, SCAN_SPAN as usize, &entries, false)
        {
            return false;
        }
    }
    at == emitted.len()
}

// ------------------------------------------------------- closed loops

/// The workload's own load on `ProbeService` for `run`: its closed loop,
/// or its open loop at the headline rate.
pub fn serve_load(
    ctx: &Ctx,
    service: &ProbeService,
    run: Duration,
    stream: u64,
    traced: bool,
) -> Tally {
    match ctx.wl.load {
        Load::Closed { conns, depth } => {
            serve_closed(ctx, service, conns, depth, run, stream, traced)
        }
        Load::Open { headline, .. } => serve_open(ctx, service, headline, run, stream, traced),
    }
}

/// The workload's own load over loopback for `run`, as [`serve_load`].
pub fn net_load(
    ctx: &Ctx,
    addr: SocketAddr,
    run: Duration,
    stream: u64,
    traced: bool,
) -> std::io::Result<Tally> {
    match ctx.wl.load {
        Load::Closed { conns, depth } => net_closed(ctx, addr, conns, depth, run, stream, traced),
        Load::Open { headline, .. } => {
            net_open(ctx, addr, headline, run, stream, traced).map(|r| r.tally)
        }
    }
}

/// Closed loop against `ProbeService`: each of `conns` threads keeps
/// `depth` requests submitted and waits for the oldest.
pub fn serve_closed(
    ctx: &Ctx,
    service: &ProbeService,
    conns: usize,
    depth: usize,
    run: Duration,
    stream: u64,
    traced: bool,
) -> Tally {
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut tally = Tally::new(ctx, traced, 100 + c as u64);
                    let mut gen =
                        OpStream::new(ctx.wl, ctx.ks, ctx.seed, stream, c as u64, conns as u64);
                    let mut queue = std::collections::VecDeque::new();
                    let start = Instant::now();
                    let end = start + run;
                    let mut seq = 0u64;
                    let mut issue =
                        |tally: &mut Tally, queue: &mut std::collections::VecDeque<_>, op: Op| {
                            let floors = ctx.oracle.floors(ctx.ks, &op);
                            tally.attempted += 1;
                            seq += 1;
                            let t0 = Instant::now();
                            let pending = service.submit(op.request());
                            let t1 = Instant::now();
                            match pending {
                                Ok(p) => queue.push_back((p, op, floors, t0, t1, seq)),
                                Err(_) => tally.refused += 1,
                            }
                        };
                    for _ in 0..depth {
                        let op = gen.next(ctx.ks, ctx.oracle);
                        issue(&mut tally, &mut queue, op);
                    }
                    while let Some((pending, op, floors, t0, t1, req)) = queue.pop_front() {
                        let w0 = Instant::now();
                        let response = pending.wait();
                        let w1 = Instant::now();
                        tally.answer(ctx, &op, &floors, Some(&response), w1 - t0, true);
                        if let Some(log) = tally.spans.as_mut().filter(|_| req % SAMPLE == 0) {
                            let root = log.reserve();
                            log.record("serve.submit", root, req, t0, t1);
                            log.record("serve.wait", root, req, w0, w1);
                            log.record_as(root, "serve.request", 0, req, t0, w1);
                        }
                        if w1 < end {
                            let op = gen.next(ctx.ks, ctx.oracle);
                            issue(&mut tally, &mut queue, op);
                        }
                    }
                    tally.elapsed = start.elapsed();
                    tally.start = Some(start);
                    tally.fresh_end = gen.fresh_end();
                    for op in gen.drain() {
                        tally.attempted += 1;
                        let response = service.submit(op.request()).map(PendingResponse::wait).ok();
                        tally.answer(ctx, &op, &[], response.as_ref(), Duration::ZERO, false);
                    }
                    tally
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("serve client thread"));
        }
    });
    total
}

/// Closed loop over loopback: each of `conns` threads owns a
/// `WidxClient`, keeps `depth` requests pipelined and reaps whichever
/// answer comes next.
pub fn net_closed(
    ctx: &Ctx,
    addr: SocketAddr,
    conns: usize,
    depth: usize,
    run: Duration,
    stream: u64,
    traced: bool,
) -> std::io::Result<Tally> {
    let mut total = Tally::default();
    std::thread::scope(|s| -> std::io::Result<()> {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || -> std::io::Result<Tally> {
                    let mut client = WidxClient::connect(addr)?;
                    let mut tally = Tally::new(ctx, traced, 200 + c as u64);
                    let mut gen =
                        OpStream::new(ctx.wl, ctx.ks, ctx.seed, stream, c as u64, conns as u64);
                    let mut inflight: HashMap<u64, (Op, Vec<u32>, Instant, Instant)> =
                        HashMap::new();
                    let start = Instant::now();
                    let end = start + run;
                    let issue = |client: &mut WidxClient,
                                 tally: &mut Tally,
                                 inflight: &mut HashMap<_, _>,
                                 op: Op|
                     -> std::io::Result<()> {
                        let floors = ctx.oracle.floors(ctx.ks, &op);
                        tally.attempted += 1;
                        let t0 = Instant::now();
                        let id = client.send(&op.request())?;
                        inflight.insert(id, (op, floors, t0, Instant::now()));
                        Ok(())
                    };
                    for _ in 0..depth {
                        let op = gen.next(ctx.ks, ctx.oracle);
                        issue(&mut client, &mut tally, &mut inflight, op)?;
                    }
                    while !inflight.is_empty() {
                        let r0 = Instant::now();
                        let (id, reply) = client.recv_any()?;
                        let r1 = Instant::now();
                        let (op, floors, t0, t1) = inflight
                            .remove(&id)
                            .ok_or_else(|| std::io::Error::other("reply to an unknown id"))?;
                        tally.answer(ctx, &op, &floors, reply.as_ref().ok(), r1 - t0, true);
                        if let Some(log) = tally.spans.as_mut().filter(|_| id % SAMPLE == 0) {
                            let root = log.reserve();
                            log.record("client.send", root, id, t0, t1);
                            log.record("client.recv", root, id, r0, r1);
                            log.record_as(root, "client.request", 0, id, t0, r1);
                        }
                        if r1 < end {
                            let op = gen.next(ctx.ks, ctx.oracle);
                            issue(&mut client, &mut tally, &mut inflight, op)?;
                        }
                    }
                    tally.elapsed = start.elapsed();
                    tally.start = Some(start);
                    tally.fresh_end = gen.fresh_end();
                    for op in gen.drain() {
                        tally.attempted += 1;
                        let response = client.call(&op.request()).ok();
                        tally.answer(ctx, &op, &[], response.as_ref(), Duration::ZERO, false);
                    }
                    Ok(tally)
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("net client thread")?);
        }
        Ok(())
    })?;
    Ok(total)
}

// --------------------------------------------------------- open loops

/// Waits until `due` by yielding, never sleeping: the open-loop client
/// spins so that its own timer wake-ups add nothing to latency (in a VM
/// a halted vCPU can take milliseconds to wake). Yielding hands the CPU
/// to any runnable server thread at once.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// The open-loop schedule: request `i` is due at `start + i / rate`.
pub fn due(start: Instant, rate: u64, i: u64) -> Instant {
    start + Duration::from_nanos(i * 1_000_000_000 / rate)
}

/// The open-loop sender: waits for each due time, hands `(due, sent)`
/// to `send`, and stops after `run`. Latency is measured from `due`, so
/// a stall in the sender or anything behind it counts against every
/// request it delays.
pub fn pace(rate: u64, run: Duration, mut send: impl FnMut(u64, Instant, Instant) -> bool) -> u64 {
    let start = Instant::now();
    let mut i = 0;
    loop {
        let at = due(start, rate, i);
        if at >= start + run {
            return i;
        }
        wait_until(at);
        if !send(i, at, Instant::now()) {
            return i;
        }
        i += 1;
    }
}

/// Single-key lookups at `rate` against `ProbeService`: one thread
/// submits on schedule, another waits for the answers in order.
pub fn serve_open(
    ctx: &Ctx,
    service: &ProbeService,
    rate: u64,
    run: Duration,
    stream: u64,
    traced: bool,
) -> Tally {
    let (tx, rx) = mpsc::channel::<(
        u64,
        Op,
        Vec<u32>,
        Instant,
        Instant,
        Instant,
        Result<PendingResponse, SubmitError>,
    )>();
    std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut tally = Tally::new(ctx, traced, 301);
            for (i, op, floors, at, t0, t1, pending) in rx {
                tally.late.push(t0, (t0 - at).as_nanos() as u64);
                let Ok(pending) = pending else {
                    tally.refused += 1;
                    continue;
                };
                let w0 = Instant::now();
                while !pending.is_ready() {
                    std::thread::yield_now();
                }
                let response = pending.wait();
                let w1 = Instant::now();
                tally.answer(ctx, &op, &floors, Some(&response), w1 - at, true);
                if let Some(log) = tally.spans.as_mut().filter(|_| i % SAMPLE == 0) {
                    let root = log.reserve();
                    log.record("serve.submit", root, i, t0, t1);
                    log.record("serve.wait", root, i, w0, w1);
                    log.record_as(root, "serve.request", 0, i, at, w1);
                }
            }
            tally
        });
        let mut gen = OpStream::new(ctx.wl, ctx.ks, ctx.seed, stream, 0, 1);
        let start = Instant::now();
        let sent = pace(rate, run, |i, at, t0| {
            let op = gen.next(ctx.ks, ctx.oracle);
            let floors = ctx.oracle.floors(ctx.ks, &op);
            let pending = service.submit(op.request());
            tx.send((i, op, floors, at, t0, Instant::now(), pending))
                .is_ok()
        });
        drop(tx);
        let mut tally = receiver.join().expect("serve receiver thread");
        tally.attempted = sent;
        tally.elapsed = start.elapsed();
        tally.start = Some(start);
        tally
    })
}

/// `write_all` on a non-blocking socket.
fn write_spinning(socket: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    let since = Instant::now();
    while !bytes.is_empty() {
        match socket.write(bytes) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && since.elapsed() < STALL => {
                std::thread::yield_now();
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// `read_exact` on a non-blocking socket.
fn read_spinning(socket: &mut TcpStream, mut into: &mut [u8]) -> std::io::Result<()> {
    let since = Instant::now();
    while !into.is_empty() {
        match socket.read(into) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => into = &mut into[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && since.elapsed() < STALL => {
                std::thread::yield_now();
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Open-loop result of one rate rung over loopback.
pub struct OpenRung {
    pub rate: u64,
    pub tally: Tally,
    /// Requests still unanswered when the sender stopped.
    pub backlog: u64,
}

/// How long the receiver waits for a straggling answer before it gives
/// the connection up as stalled.
const STALL: Duration = Duration::from_secs(5);

/// Single-key lookups at `rate` on one loopback connection: a sender
/// thread writes request frames on schedule, a receiver thread decodes
/// the answers. `WidxClient` owns its socket whole, so both threads speak
/// the wire format (`widx_net::wire`) over clones of one stream.
pub fn net_open(
    ctx: &Ctx,
    addr: SocketAddr,
    rate: u64,
    run: Duration,
    stream: u64,
    traced: bool,
) -> std::io::Result<OpenRung> {
    let socket = TcpStream::connect(addr)?;
    socket.set_nodelay(true)?;
    // Non-blocking, for both clones: the receiver polls instead of
    // sleeping in `read`, for the same reason the sender spins.
    socket.set_nonblocking(true)?;
    let mut reader = socket.try_clone()?;
    let mut writer = socket;
    let (tx, rx) = mpsc::channel::<(u64, Op, Vec<u32>, Instant, Instant, Instant)>();
    let answered = AtomicU64::new(0);
    let answered = &answered;
    std::thread::scope(|s| -> std::io::Result<OpenRung> {
        let receiver = s.spawn(move || -> std::io::Result<Tally> {
            let mut tally = Tally::new(ctx, traced, 401);
            let mut waiting: HashMap<u64, (Op, Vec<u32>, Instant, Instant, Instant)> =
                HashMap::new();
            let mut buf = Vec::new();
            let mut chunk = vec![0u8; 64 << 10];
            let mut closed = false;
            // A receive wait starts when an answer is owed.
            let mut r0 = Instant::now();
            let mut progress = Instant::now();
            loop {
                loop {
                    match rx.try_recv() {
                        Ok((i, op, floors, at, t0, t1)) => {
                            waiting.insert(i, (op, floors, at, t0, t1));
                        }
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            closed = true;
                            break;
                        }
                    }
                }
                match wire::decode_reply(&buf) {
                    Ok(Decoded::Frame {
                        consumed,
                        id,
                        value,
                    }) => {
                        buf.drain(..consumed);
                        let r1 = Instant::now();
                        // The sender posts each request right after writing
                        // it, so its answer can overtake the post.
                        while !waiting.contains_key(&id) {
                            let (i, op, floors, at, t0, t1) = rx
                                .recv()
                                .map_err(|_| std::io::Error::other("reply to an unsent id"))?;
                            waiting.insert(i, (op, floors, at, t0, t1));
                        }
                        let (op, floors, at, t0, t1) = waiting.remove(&id).expect("just inserted");
                        answered.fetch_add(1, Ordering::Relaxed);
                        tally.late.push(t0, (t0 - at).as_nanos() as u64);
                        let response = match value {
                            Ok(Reply::Response(r)) => Some(r),
                            _ => None,
                        };
                        tally.answer(ctx, &op, &floors, response.as_ref(), r1 - at, true);
                        if let Some(log) = tally.spans.as_mut().filter(|_| id % SAMPLE == 0) {
                            let root = log.reserve();
                            log.record("client.send", root, id, t0, t1);
                            log.record("client.recv", root, id, r0, r1);
                            log.record_as(root, "client.request", 0, id, at, r1);
                        }
                        r0 = Instant::now();
                    }
                    Ok(Decoded::Incomplete) if waiting.is_empty() => {
                        // Nothing owed: wait for the next send, not the
                        // socket, or for the sender to finish.
                        if closed {
                            return Ok(tally);
                        }
                        match rx.try_recv() {
                            Ok((i, op, floors, at, t0, t1)) => {
                                waiting.insert(i, (op, floors, at, t0, t1));
                                r0 = Instant::now();
                                progress = r0;
                            }
                            Err(mpsc::TryRecvError::Empty) => std::thread::yield_now(),
                            Err(mpsc::TryRecvError::Disconnected) => closed = true,
                        }
                    }
                    Ok(Decoded::Incomplete) => match reader.read(&mut chunk) {
                        Ok(0) => return Err(std::io::Error::other("server closed the connection")),
                        Ok(n) => {
                            buf.extend_from_slice(&chunk[..n]);
                            progress = Instant::now();
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            if progress.elapsed() > STALL {
                                return Err(std::io::Error::other("no answer for too long"));
                            }
                            std::thread::yield_now();
                        }
                        Err(e) => return Err(e),
                    },
                    Ok(Decoded::Corrupt { error, .. }) => {
                        return Err(std::io::Error::other(error.to_string()))
                    }
                    Err(e) => return Err(std::io::Error::other(e.to_string())),
                }
            }
        });
        let mut gen = OpStream::new(ctx.wl, ctx.ks, ctx.seed, stream, 0, 1);
        let mut frame = Vec::new();
        let mut failure = None;
        let start = Instant::now();
        let sent = pace(rate, run, |i, at, t0| {
            let op = gen.next(ctx.ks, ctx.oracle);
            let floors = ctx.oracle.floors(ctx.ks, &op);
            frame.clear();
            wire::encode_request(&mut frame, i, &op.request());
            if let Err(e) = write_spinning(&mut writer, &frame) {
                failure = Some(e);
                return false;
            }
            tx.send((i, op, floors, at, t0, Instant::now())).is_ok()
        });
        let backlog = sent - answered.load(Ordering::Relaxed).min(sent);
        drop(tx);
        let mut tally = receiver.join().expect("net receiver thread")?;
        if let Some(e) = failure {
            return Err(e);
        }
        tally.attempted = sent;
        tally.elapsed = start.elapsed();
        tally.start = Some(start);
        Ok(OpenRung {
            rate,
            tally,
            backlog,
        })
    })
}

// ---------------------------------------------------------------- echo

/// Round trips through a bare loopback echo server — one connection,
/// depth 1, the workload's request and reply frame sizes — for `run`.
/// The service does nothing here, so this is the network floor.
pub fn echo(request_len: usize, reply_len: usize, run: Duration) -> std::io::Result<Samples> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|s| -> std::io::Result<Samples> {
        let server = s.spawn(move || -> std::io::Result<()> {
            let (mut conn, _) = listener.accept()?;
            conn.set_nodelay(true)?;
            let mut req = vec![0u8; request_len];
            let reply = vec![0x5au8; reply_len];
            loop {
                match conn.read_exact(&mut req) {
                    Ok(()) => conn.write_all(&reply)?,
                    Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
                    Err(e) => return Err(e),
                }
            }
        });
        // The client polls, as the open-loop client does.
        let mut conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        conn.set_nonblocking(true)?;
        let req = vec![0xa5u8; request_len];
        let mut reply = vec![0u8; reply_len];
        let mut samples = Samples::default();
        let end = Instant::now() + run;
        while Instant::now() < end {
            let t0 = Instant::now();
            write_spinning(&mut conn, &req)?;
            read_spinning(&mut conn, &mut reply)?;
            samples.push(Instant::now(), t0.elapsed().as_nanos() as u64);
        }
        drop(conn);
        server.join().expect("echo server thread")?;
        Ok(samples)
    })
}

/// Encoded request and reply frame sizes of a lookup of the workload's
/// batch size that hits every key.
pub fn frame_sizes(ctx: &Ctx) -> (usize, usize) {
    let keys: Vec<u64> = (0..ctx.wl.batch as u64).map(|s| ctx.ks.key(s)).collect();
    let (op, response) = if ctx.wl.batch == 1 {
        let key = keys[0];
        (
            Op::Lookup(key),
            Response::Lookup {
                key,
                payloads: vec![0],
            },
        )
    } else {
        let matches = keys.iter().map(|&k| (k, 0)).collect();
        (Op::Multi(keys), Response::MultiLookup { matches })
    };
    let (mut req, mut reply) = (Vec::new(), Vec::new());
    wire::encode_request(&mut req, 1, &op.request());
    wire::encode_response(&mut reply, 1, &response);
    (req.len(), reply.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // A 15 ms stall while sending request 5 must show up as lateness
        // on the requests due during it, without moving their due times.
        let mut sent = Vec::new();
        let start = Instant::now();
        let n = pace(1000, Duration::from_millis(40), |i, at, t0| {
            sent.push((i, at, t0));
            if i == 5 {
                std::thread::sleep(Duration::from_millis(15));
            }
            true
        });
        assert_eq!(n, 40);
        assert_eq!(sent.len(), 40);
        let late = |i: usize| sent[i].2 - sent[i].1;
        assert!(
            late(6) >= Duration::from_millis(10),
            "request 6 was {:?} late",
            late(6)
        );
        assert!(late(15) >= Duration::from_millis(2));
        // The schedule itself never slips: request i stays due at i ms.
        for &(i, at, _) in &sent {
            let offset = at.duration_since(start).as_secs_f64() * 1e3 - i as f64;
            assert!(
                offset.abs() < 1.0,
                "request {i} due {offset} ms off schedule"
            );
        }
        // Answering instantly, latency from due still carries the stall.
        let latency_6 = sent[6].2 - due(sent[0].1, 1000, 6);
        assert!(latency_6 >= Duration::from_millis(10));
    }
}
