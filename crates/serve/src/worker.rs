//! The shard workers: one thread per key range, draining a bounded
//! queue into batches and driving resumable walkers over them —
//! software "four walkers behind one dispatcher", where the dispatcher
//! is the shard router and the walker count is the in-flight depth.
//!
//! A worker owns both tiers of its key range: hash shard `i`, which an
//! [`AmacWalker`] probes, and — when the service has an ordered tier —
//! B+-tree shard `i`, which a [`BTreeRangeWalker`] scans with several
//! resumable cursors in flight. One batch holds both read guards and
//! feeds probes and scans to their walkers side by side.
//!
//! Workers own no private counters: everything is published straight
//! into the worker's lock-free [`WorkerCell`] as batches complete, so a
//! live scrape sees the same numbers a shutdown join would.
//!
//! # One clock
//!
//! Every stage boundary reads the worker's [`StageClock`] once. That one
//! reading stamps the parts crossing the boundary (admitted, batch
//! closed, done), closes the profiler window (batch window → batch-wait,
//! drain → walk, completion loop → gather, barrier → write; blocked time
//! in `pop()` closes into no stage and counts only as idle), and is the
//! instant the request's trace spans use.
//!
//! # Writes
//!
//! The serving tier is mutable: each worker is the *sole writer* for
//! its key range. Walker batches run under the read guards;
//! [`Job::Write`] parts are applied to both indexes under both write
//! guards at batch barriers (never mid-batch), and acked from that one
//! part. The walkers are built per batch and borrow the read guards, so
//! no traversal state survives into a barrier: the indexes free
//! unlinked nodes on the spot. Because one thread applies every write
//! of a key range and serves every read of it, a read issued after
//! another read returned never sees an older state, whichever tier
//! either read used. The shard locks are structurally uncontended —
//! their job is memory-model visibility, not writer arbitration.

use std::sync::Arc;
use std::time::Instant;

use widx_db::index::{BTreeIndex, HashIndex};
use widx_obs::{FlushKind, ProfCell, Stage, StageClock, WalkCounters, WorkerCell};
use widx_soft::{AmacWalker, BTreeRangeWalker};

use crate::batch::{BatchPolicy, FlushReason};
use crate::ordered::OrderedShardedIndex;
use crate::queue::{Job, ShardQueue};
use crate::request::{PartDone, PartStamps, ResponseState, RoutedMatch, WriteOp};
use crate::shard::ShardedIndex;

/// Everything a shard worker thread needs.
pub(crate) struct WorkerContext {
    pub(crate) shard: usize,
    pub(crate) queue: Arc<ShardQueue>,
    pub(crate) sharded: Arc<ShardedIndex>,
    /// The ordered tier, when the service has one; its shard `shard`
    /// covers the same key range as the hash shard.
    pub(crate) ordered: Option<Arc<OrderedShardedIndex>>,
    pub(crate) policy: BatchPolicy,
    pub(crate) inflight: usize,
    /// Entries per chunk pushed to the seam on streaming scans.
    pub(crate) stream_chunk: usize,
    /// This worker's registry cell — the single home of its counters
    /// and of the histograms of every request it completes.
    pub(crate) cell: Arc<WorkerCell>,
    /// Hardware-profiling cell, when the service enabled profiling: the
    /// worker's stage clock opens a per-thread counter group and
    /// publishes stage windows here.
    pub(crate) prof: Option<Arc<ProfCell>>,
}

impl WorkerContext {
    /// A part of this worker's finishing at `done`, admitted at `admitted`
    /// (and, for a read part, its batch closed at `closed`).
    fn part(
        &self,
        admitted: Instant,
        closed: Option<Instant>,
        done: Instant,
        walk: WalkCounters,
    ) -> PartDone<'_> {
        let stamps = PartStamps {
            admitted,
            closed,
            done,
        };
        PartDone {
            stamps,
            shard: self.shard as u32,
            cell: &self.cell,
            walk,
        }
    }
}

/// A write part stashed mid-batch, applied at the next batch barrier.
struct WriteJob {
    ops: Vec<(u32, WriteOp)>,
    reply: Arc<ResponseState>,
}

/// Anything a write barrier can mutate: both index flavours expose the
/// same insert/delete/update surface.
trait WriteTarget {
    fn apply(&mut self, op: WriteOp) -> bool;
}

impl WriteTarget for HashIndex {
    fn apply(&mut self, op: WriteOp) -> bool {
        match op {
            WriteOp::Insert { key, payload } => {
                self.insert(key, payload);
                true
            }
            WriteOp::Delete { key } => self.delete(key) > 0,
            WriteOp::Update { key, payload } => self.update(key, payload),
        }
    }
}

impl WriteTarget for BTreeIndex {
    fn apply(&mut self, op: WriteOp) -> bool {
        match op {
            WriteOp::Insert { key, payload } => {
                self.insert(key, payload);
                true
            }
            WriteOp::Delete { key } => self.delete(key) > 0,
            WriteOp::Update { key, payload } => self.update(key, payload),
        }
    }
}

/// Applies stashed write parts to both of the worker's indexes under
/// their write guards — the batch barrier, which starts at the worker's
/// last clock reading `start`. Per part: apply every op to each tier,
/// publish the write counters *before* completing the part (a caller
/// whose `wait()` returned must find the write counted by a
/// `live_stats()` scrape), and ack `(op, key, applied)` rows. The hash
/// tier's result is the ack; both tiers hold the same entries, so the
/// B+-tree agrees. Each part's application starts where the previous
/// one's ended. Returns the barrier's last reading.
fn apply_writes(
    ctx: &WorkerContext,
    jobs: Vec<WriteJob>,
    start: Instant,
    clock: &mut StageClock,
) -> Instant {
    let mut hash = ctx.sharded.write(ctx.shard);
    let mut tree = ctx.ordered.as_ref().map(|o| o.write(ctx.shard));
    let mut now = start;
    for job in jobs {
        ctx.cell.add_jobs(1);
        let total = job.ops.len() as u64;
        let mut acks: Vec<RoutedMatch> = Vec::with_capacity(job.ops.len());
        for (op_idx, op) in job.ops {
            let applied = hash.apply(op);
            if let Some(tree) = &mut tree {
                tree.apply(op);
            }
            acks.push((op_idx, op.key(), u64::from(applied)));
        }
        let applied: u64 = acks.iter().map(|(_, _, applied)| applied).sum();
        ctx.cell.add_write_batch(total, applied);
        ctx.cell.add_matches(applied);
        let admitted = now;
        now = clock.read();
        let part = ctx.part(admitted, None, now, WalkCounters::default());
        job.reply.complete_part(&acks, &part);
    }
    ctx.cell.add_busy(now - start);
    clock.close(Some(Stage::Write));
    now
}

fn flush_kind(reason: FlushReason) -> FlushKind {
    match reason {
        FlushReason::Size => FlushKind::Size,
        FlushReason::Drained => FlushKind::Drained,
        FlushReason::Deadline => FlushKind::Deadline,
        FlushReason::Shutdown => FlushKind::Shutdown,
    }
}

/// A request shard-part participating in the worker's open batch: a
/// probe part or a scan part. Streaming scan parts push chunks to the
/// seam as their cursors yield; every other part accumulates `items`.
struct OpenPart {
    reply: Arc<ResponseState>,
    scan: bool,
    streaming: bool,
    items: Vec<RoutedMatch>,
    /// The clock reading that admitted this part into the batch.
    admitted: Instant,
    /// Scatter ranks of a scan part's cursors (a streaming part
    /// completes per rank).
    ranks: Vec<u32>,
    /// Entries emitted for this part, streamed chunks included.
    emitted: u64,
}

/// Where walker emissions land: the open parts, and the tag map that
/// routes each emission to its part. One tag space covers both walkers.
struct Sink {
    /// tag → (open-part index, probe row or scatter rank).
    meta: Vec<(u32, u32)>,
    open: Vec<OpenPart>,
    /// tag → the streaming chunk being built (only scan tags have one).
    chunks: Vec<Vec<(u64, u64)>>,
    chunk_size: usize,
}

impl Sink {
    /// Allocates the next tag for row `row` of open part `part`.
    fn tag(&mut self, part: u32, row: u32) -> u32 {
        let tag = u32::try_from(self.meta.len()).expect("batch exceeds u32 tags");
        self.meta.push((part, row));
        tag
    }

    /// Routes one walker emission to its request: buffered parts
    /// accumulate, streaming parts build a chunk and push it to the
    /// gather seam every `chunk_size` entries — this mid-batch flush is
    /// what makes a long scan's first entries reach the client while
    /// the walker ring is still running.
    fn emit(&mut self, tag: u32, key: u64, payload: u64) {
        let (part, row) = self.meta[tag as usize];
        let part = &mut self.open[part as usize];
        part.emitted += 1;
        if !part.streaming {
            part.items.push((row, key, payload));
            return;
        }
        let buf = &mut self.chunks[tag as usize];
        buf.push((key, payload));
        if buf.len() >= self.chunk_size {
            // The seam hands back a consumed chunk's buffer when it has
            // one: a long scan settles into a closed loop of recycled
            // allocations instead of one fresh `Vec` per chunk.
            if let Some(spare) = part.reply.push_chunk(row, std::mem::take(buf)) {
                *buf = spare;
            }
        }
    }
}

/// One open batch: the two walkers (each borrowing its read guard),
/// where their emissions go, and the work admitted so far.
struct Batch<'g> {
    probes: AmacWalker<'g>,
    /// `None` when the service has no ordered tier.
    scans: Option<BTreeRangeWalker<'g>>,
    sink: Sink,
    keys: u64,
    cursors: u64,
}

impl<'g> Batch<'g> {
    /// Admits one probe or scan part at the clock reading `at`: feeds its
    /// keys or ranges to the matching walker.
    fn admit(&mut self, ctx: &WorkerContext, job: Job, at: Instant) {
        let (reply, keys, ranges) = match job {
            Job::Probe { entries, reply } => (reply, entries, Vec::new()),
            Job::Scan { scans, reply } => (reply, Vec::new(), scans),
            Job::Write { .. } | Job::Poison { .. } => unreachable!("only reads join a batch"),
        };
        ctx.cell.add_jobs(1);
        if keys.is_empty() && ranges.is_empty() {
            // Defensive: never strand an empty part. (The planner never
            // scatters an empty streaming part.)
            debug_assert!(!reply.is_streaming(), "empty streaming shard-part");
            reply.complete_part(&[], &ctx.part(at, Some(at), at, WalkCounters::default()));
            return;
        }
        let part = self.sink.open.len() as u32;
        self.sink.open.push(OpenPart {
            scan: !ranges.is_empty(),
            streaming: reply.is_streaming(),
            reply,
            items: Vec::new(),
            admitted: at,
            ranks: Vec::new(),
            emitted: 0,
        });
        self.keys += keys.len() as u64;
        for (row, key) in keys {
            let tag = self.sink.tag(part, row);
            self.probes
                .feed(tag, key, &mut |t, k, p| self.sink.emit(t, k, p));
        }
        self.cursors += ranges.len() as u64;
        for (rank, range) in ranges {
            let tag = self.sink.tag(part, rank);
            self.sink.chunks.resize_with(tag as usize + 1, Vec::new);
            self.sink.open[part as usize].ranks.push(rank);
            let walker = self
                .scans
                .as_mut()
                .expect("scan routed to a worker without an ordered shard");
            walker.feed(tag, range, &mut |t, k, p| self.sink.emit(t, k, p));
        }
    }
}

/// The worker thread body: loops batches until the poison pill,
/// publishing every counter into the worker's registry cell as it goes
/// — shutdown needs no hand-back, a final registry snapshot sees
/// everything.
pub(crate) fn run_worker(ctx: &WorkerContext) {
    let mut clock = StageClock::new(ctx.prof.clone());
    let mut now = clock.read();
    clock.close(None);

    loop {
        // Wait (idle) for the batch-opening job. Blocked time belongs to
        // no stage: it counts only as the worker's idle time.
        let first = ctx.queue.pop();
        let popped = clock.read();
        clock.close(None);
        ctx.cell.add_idle(popped - now);
        now = popped;

        let mut writes: Vec<WriteJob> = Vec::new();
        let shutdown = match first {
            // A write opening a batch is its own barrier: nothing is
            // reading — this worker is the range's only writer and its
            // only walker driver.
            Job::Write { ops, reply } => {
                writes.push(WriteJob { ops, reply });
                false
            }
            Job::Poison { key } => {
                debug_assert_eq!(key, widx_core::POISON_KEY);
                break; // Poison with an empty batch: halt immediately.
            }
            read => {
                // Walker batch: hold both read guards for the batch's
                // whole lifetime, so nothing mutates (or frees a node)
                // under an in-flight ring. The walkers are rebuilt per
                // batch — they borrow the guards.
                let hash = ctx.sharded.read(ctx.shard);
                let tree = ctx.ordered.as_ref().map(|o| o.read(ctx.shard));
                let mut batch = Batch {
                    probes: AmacWalker::new(&hash, ctx.inflight),
                    scans: tree
                        .as_deref()
                        .map(|tree| BTreeRangeWalker::new(tree, ctx.inflight)),
                    sink: Sink {
                        meta: Vec::new(),
                        open: Vec::new(),
                        chunks: Vec::new(),
                        chunk_size: ctx.stream_chunk,
                    },
                    keys: 0,
                    cursors: 0,
                };
                let (shutdown, end) =
                    run_batch(ctx, &mut batch, read, popped, &mut writes, &mut clock);
                now = end;
                shutdown
            }
        };
        // Batch barrier: the read guards are gone; apply every write the
        // batch loop stashed (shutdown included — queued writes always
        // land before the final snapshot).
        if !writes.is_empty() {
            now = apply_writes(ctx, writes, now, &mut clock);
        }
        if shutdown {
            break;
        }
    }
}

/// Assembles and drains one batch starting from `first`, admitted at the
/// clock reading `opened`. Emissions are attributed to their request *as
/// they happen*, so streaming parts can flush chunks to the gather seam
/// while other cursors in the ring are still descending. Returns whether
/// the poison pill arrived (the worker must halt after this batch) and
/// the batch's last clock reading.
fn run_batch(
    ctx: &WorkerContext,
    batch: &mut Batch<'_>,
    first: Job,
    opened: Instant,
    writes: &mut Vec<WriteJob>,
    clock: &mut StageClock,
) -> (bool, Instant) {
    let cell = &*ctx.cell;
    let mut shutdown = false;
    batch.admit(ctx, first, opened);

    // Work-conserving admission: take queued work until the batch fills
    // or the queue runs dry, never waiting for more. Under a backlog the
    // deadline caps how long admission runs. Probe keys and scan cursors
    // both count toward the size flush.
    let mut now = opened;
    let reason = loop {
        if let Some(reason) = ctx.policy.flush_due(batch.sink.meta.len(), opened, now) {
            break reason;
        }
        let Some(next) = ctx.queue.try_pop() else {
            break FlushReason::Drained;
        };
        now = clock.read();
        match next {
            // Writes never interleave into an open walker batch: stash
            // for the barrier right after this batch closes.
            Job::Write { ops, reply } => writes.push(WriteJob { ops, reply }),
            Job::Poison { .. } => {
                shutdown = true;
                break FlushReason::Shutdown;
            }
            read => batch.admit(ctx, read, now),
        }
    };
    let closed = clock.read();
    clock.close(Some(Stage::BatchWait));

    // Drain both rings: emissions attribute inline, in emit order, so
    // each scan tag's slice (and chunk sequence) stays key-ordered —
    // the invariant the gather side's rank-ordered release relies on.
    let sink = &mut batch.sink;
    batch.probes.drain(&mut |t, k, p| sink.emit(t, k, p));
    if let Some(scans) = &mut batch.scans {
        scans.drain(&mut |t, k, p| sink.emit(t, k, p));
    }
    let drained = clock.read();
    clock.close(Some(Stage::Walk));

    // Flush every streaming tag's tail chunk.
    for (tag, buf) in sink.chunks.iter_mut().enumerate() {
        if !buf.is_empty() {
            let (part, rank) = sink.meta[tag];
            let _ = sink.open[part as usize]
                .reply
                .push_chunk(rank, std::mem::take(buf));
        }
    }
    // Publish every counter before any part completes.
    let (mut matches, mut entries) = (0, 0);
    for part in &sink.open {
        if part.scan {
            entries += part.emitted;
        } else {
            matches += part.emitted;
        }
    }
    cell.add_batch(batch.keys, flush_kind(reason));
    cell.add_matches(matches);
    cell.add_scans(batch.cursors, entries);
    // Nothing in the batch window blocks: admitting and walking are
    // both busy time.
    cell.add_busy(drained - opened);
    let mut walk = batch.probes.take_counters();
    if let Some(scans) = &mut batch.scans {
        walk.merge(&scans.take_counters());
    }
    clock.add_walk(&walk);
    for part in &sink.open {
        let done = ctx.part(part.admitted, Some(closed), drained, walk);
        if part.streaming {
            for rank in &part.ranks {
                part.reply.complete_stream_part(*rank, &done);
            }
        } else {
            part.reply.complete_part(&part.items, &done);
        }
    }
    let end = clock.read();
    clock.close(Some(Stage::Gather));
    (shutdown, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use widx_db::hash::HashRecipe;

    use crate::request::{Request, RequestKind, Response};
    use crate::service::{ProbeService, ServeConfig};

    /// A one-shard worker over keys `0..1024` with a size target of 64
    /// and a deadline that can never fire in a test.
    fn context(queue: &Arc<ShardQueue>) -> WorkerContext {
        let pairs = (0..1024u64).map(|k| (k, k + 1));
        WorkerContext {
            shard: 0,
            queue: Arc::clone(queue),
            sharded: Arc::new(ShardedIndex::from_pairs(
                HashRecipe::robust64(),
                1,
                64,
                1.0,
                pairs,
            )),
            ordered: None,
            policy: BatchPolicy::new(64, Duration::from_secs(3600)),
            inflight: 8,
            stream_chunk: 512,
            cell: Arc::new(WorkerCell::new()),
            prof: None,
        }
    }

    #[test]
    fn work_conserving_backlog_still_fills_size_batches() {
        let queue = Arc::new(ShardQueue::new(1024));
        let replies: Vec<Arc<ResponseState>> = (0..256u64)
            .map(|key| {
                let reply = Arc::new(ResponseState::new(RequestKind::MultiLookup, 1));
                let entries = vec![(0, key)];
                let job = Job::Probe {
                    entries,
                    reply: Arc::clone(&reply),
                };
                queue.push(job).unwrap();
                reply
            })
            .collect();
        queue.push_poison();
        let ctx = context(&queue);
        run_worker(&ctx); // returns at the poison pill

        let stats = ctx.cell.snapshot();
        assert_eq!((stats.batches, stats.keys), (4, 256));
        assert_eq!(
            (
                stats.size_flushes,
                stats.drained_flushes,
                stats.deadline_flushes,
                stats.shutdown_flushes
            ),
            (4, 0, 0, 0),
            "a backlog fills every batch to its size target"
        );
        for (key, reply) in (0u64..).zip(&replies) {
            let inner = reply.inner.lock().unwrap();
            assert!(inner.done, "key {key} was answered");
            assert_eq!(inner.items, vec![(0, key, key + 1)]);
        }
    }

    #[test]
    fn work_conserving_lone_lookup_flushes_when_the_queue_runs_dry() {
        let config = ServeConfig::default()
            .with_shards(1)
            .with_batch_deadline(Duration::from_secs(3600));
        let service =
            ProbeService::build(HashRecipe::robust64(), (0..64u64).map(|k| (k, k)), &config);
        let pending = service.submit(Request::Lookup { key: 7 }).unwrap();
        match pending.wait_timeout(Duration::from_secs(30)) {
            Ok(Response::Lookup { payloads, .. }) => assert_eq!(payloads, vec![7]),
            Ok(other) => panic!("wrong variant {other:?}"),
            Err(_) => panic!("a lone lookup waited for company"),
        }
        let stats = service.shutdown();
        let worker = &stats.workers[0];
        assert_eq!(worker.batches, 1);
        assert_eq!((worker.drained_flushes, worker.deadline_flushes), (1, 0));
        assert!(stats
            .render_prometheus()
            .contains("widx_worker_flushes_total{shard=\"0\",reason=\"drained\"} 1\n"));
    }
}
