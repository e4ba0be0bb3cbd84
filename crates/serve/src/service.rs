//! The probe service: shard router, worker pool, and client API.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use widx_db::hash::HashRecipe;
use widx_obs::{
    ActiveTrace, FlightRecorder, HistogramSnapshot, ProfCell, ProfSnapshot, Stage, StageTimes,
    WorkerCell,
};
use widx_soft::ScanRange;

use crate::batch::BatchPolicy;
use crate::ordered::OrderedShardedIndex;
use crate::queue::{Job, PushError, ShardQueue};
use crate::request::{
    PendingResponse, PendingStream, Request, RequestKind, Response, ResponseState, TraceState,
    WriteOp,
};
use crate::shard::ShardedIndex;
use crate::stats::{LatencySummary, ServiceStats, StageStats, WorkerStats};
use crate::worker::{run_worker, WorkerContext};

/// Tuning knobs for a [`ProbeService`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker/shard count (the "walker pool" width across the socket):
    /// the number of contiguous key ranges. Each worker serves one range
    /// in the hashed tier and, when built, in the ordered tier.
    pub shards: usize,
    /// In-flight depth per worker and walker: AMAC probes on the hash
    /// shard, resumable scan cursors on the ordered shard.
    pub inflight: usize,
    /// Probe keys plus scan cursors per batch before a size flush.
    pub batch_size: usize,
    /// Longest a batch keeps admitting queued work before a deadline
    /// flush. A cap under load only: a batch never waits for company,
    /// it flushes as soon as the queue runs dry.
    pub batch_deadline: Duration,
    /// Per-shard queue capacity in keys (backpressure threshold).
    pub queue_capacity: usize,
    /// Bucket floor per shard at build time.
    pub min_buckets: usize,
    /// Target entries per bucket at build time.
    pub load: f64,
    /// B+-tree fanout for the ordered tier at build time.
    pub fanout: usize,
    /// Entries per chunk on streaming range scans: a worker pushes a
    /// chunk to the gather seam every `stream_chunk` entries its walker
    /// yields for one scan (the tail chunk may be smaller).
    /// Smaller chunks cut first-chunk latency; larger ones amortize
    /// seam and framing overhead.
    pub stream_chunk: usize,
    /// Head sampling rate for per-request traces: record every `N`th
    /// request into the flight recorder. `0` (the default) disables
    /// head sampling entirely — with no slow threshold either, the
    /// trace seam is never armed and requests carry zero tracing cost.
    pub trace_sample: u64,
    /// Tail sampling: any request whose end-to-end latency reaches this
    /// threshold is always recorded (regardless of head sampling) and
    /// emitted to the rate-limited slow-request log. `None` (the
    /// default) disables tail sampling.
    pub slow_threshold: Option<Duration>,
    /// Flight-recorder ring capacity in traces.
    pub trace_capacity: usize,
    /// Hardware profiling: when set, every worker thread opens a
    /// `perf-event` counter group (cycles, instructions, LLC misses,
    /// dTLB misses) and attributes windows to the stage seam, so
    /// [`ProbeService::live_stats`] and the `Profile` wire opcode carry
    /// a per-stage cycle breakdown with derived IPC / MPKI /
    /// stall-fraction / effective-MLP. On hosts without usable hardware
    /// counters the groups degrade to the software backend (the
    /// snapshot says so) — enabling this never fails. Off by default:
    /// unprofiled workers pay nothing.
    pub profile: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 4,
            inflight: 8,
            batch_size: 64,
            batch_deadline: Duration::from_micros(200),
            queue_capacity: 4096,
            min_buckets: 64,
            load: 1.0,
            fanout: 8,
            stream_chunk: 512,
            trace_sample: 0,
            slow_threshold: None,
            trace_capacity: 256,
            profile: false,
        }
    }
}

impl ServeConfig {
    /// Sets the shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> ServeConfig {
        self.shards = shards;
        self
    }

    /// Sets the per-worker AMAC in-flight depth.
    #[must_use]
    pub fn with_inflight(mut self, inflight: usize) -> ServeConfig {
        self.inflight = inflight;
        self
    }

    /// Sets the size-flush threshold.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> ServeConfig {
        self.batch_size = batch_size;
        self
    }

    /// Sets the deadline that caps batch admission under load.
    #[must_use]
    pub fn with_batch_deadline(mut self, deadline: Duration) -> ServeConfig {
        self.batch_deadline = deadline;
        self
    }

    /// Sets the per-shard queue capacity (keys).
    #[must_use]
    pub fn with_queue_capacity(mut self, keys: usize) -> ServeConfig {
        self.queue_capacity = keys;
        self
    }

    /// Sets the ordered tier's B+-tree fanout.
    #[must_use]
    pub fn with_fanout(mut self, fanout: usize) -> ServeConfig {
        self.fanout = fanout;
        self
    }

    /// Sets the streaming chunk size (entries per chunk).
    #[must_use]
    pub fn with_stream_chunk(mut self, entries: usize) -> ServeConfig {
        self.stream_chunk = entries;
        self
    }

    /// Sets the head-sampling rate (`0` disables head sampling).
    #[must_use]
    pub fn with_trace_sample(mut self, one_in: u64) -> ServeConfig {
        self.trace_sample = one_in;
        self
    }

    /// Sets the tail-sampling slow threshold (`None` disables).
    #[must_use]
    pub fn with_slow_threshold(mut self, threshold: Option<Duration>) -> ServeConfig {
        self.slow_threshold = threshold;
        self
    }

    /// Sets the flight-recorder ring capacity in traces.
    #[must_use]
    pub fn with_trace_capacity(mut self, traces: usize) -> ServeConfig {
        self.trace_capacity = traces;
        self
    }

    /// Enables per-worker hardware profiling (see
    /// [`profile`](ServeConfig::profile)).
    #[must_use]
    pub fn with_profile(mut self, profile: bool) -> ServeConfig {
        self.profile = profile;
        self
    }
}

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The service has shut down (or is in the middle of doing so).
    Stopped,
    /// A [`Request::RangeScan`] was submitted to a service built without
    /// an ordered tier (see
    /// [`build_with_range`](ProbeService::build_with_range)).
    NoOrderedIndex,
    /// A non-blocking submission ([`try_submit`](ProbeService::try_submit))
    /// found a target shard queue at capacity. The request was *not*
    /// enqueued anywhere — retry later. Blocking paths never return
    /// this; they wait out the backpressure instead.
    Busy,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Stopped => write!(f, "probe service is stopped"),
            SubmitError::NoOrderedIndex => {
                write!(f, "probe service has no ordered index for range scans")
            }
            SubmitError::Busy => write!(f, "probe service shard queue is at capacity"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What the net tier knows about a request when it submits one on
/// behalf of a connection — passed to the `*_traced` submission surface
/// so the service records the request's `net_read` stage (frame decoded
/// → submitted), and so an armed trace is anchored at the frame-decode
/// instant, carries the wire request id, and is *deferred*: the service
/// leaves the completed trace attached for the reactor to close with the
/// reply-write span (see `PendingResponse::wait_reply`).
#[derive(Clone, Copy, Debug)]
pub struct NetTraceCtx {
    /// Index of the reactor that decoded the frame.
    pub reactor: u32,
    /// The wire request id.
    pub id: u64,
    /// When the frame finished decoding — the start of the `net_read`
    /// stage and of the trace timeline.
    pub decoded_at: Instant,
}

/// A running probe-serving engine: one worker thread per key range, each
/// driving AMAC walkers over its hash shard and, with an ordered tier,
/// B+-tree cursors over its B+-tree shard.
///
/// Shutdown mirrors the accelerator's poison-pill protocol
/// ([`widx_core::POISON_KEY`]): [`stop`](ProbeService::stop) (or
/// [`shutdown`](ProbeService::shutdown)) enqueues one pill per shard
/// *behind* all accepted work, so every request submitted before the
/// stop still completes — drain, then halt. After `stop`, new
/// submissions fail with [`SubmitError::Stopped`].
pub struct ProbeService {
    sharded: Arc<ShardedIndex>,
    /// The ordered (B+-tree) tier, when built, split at the same
    /// boundary keys as `sharded`. `None` on services built for point
    /// traffic only.
    ordered: Option<Arc<OrderedShardedIndex>>,
    queues: Vec<Arc<ShardQueue>>,
    workers: Vec<JoinHandle<()>>,
    /// Per-worker registry cells (shard order): each worker publishes
    /// its counters and latencies here while it runs, so stats are a
    /// read-only snapshot at any time — no join required.
    cells: Vec<Arc<WorkerCell>>,
    /// Per-worker hardware-profiling cells (shard order), populated only
    /// when the config enabled profiling — empty otherwise, which is
    /// also how `snapshot_stats` knows profiling is off.
    prof_cells: Vec<Arc<ProfCell>>,
    /// The histogram home of the front-end stages (`net_read`,
    /// `reply_write`); the worker stages live in the completing worker's
    /// cell.
    stages: Arc<StageTimes>,
    /// The per-request trace ring; always present, only written when
    /// the sampling knobs arm traces.
    recorder: Arc<FlightRecorder>,
    /// Head-sampling counter (every request ticks it while tracing is
    /// armed; every `trace_sample`th tick arms a trace).
    trace_seq: AtomicU64,
    trace_sample: u64,
    slow_threshold: Option<Duration>,
    started: Instant,
    /// Stop gate: every submission holds a read guard across all of its
    /// queue pushes; `stop` flips the flag and poisons the queues under
    /// the write guard. A request is therefore accepted (every shard part
    /// enqueued) or refused atomically — it can never be half-enqueued
    /// by racing with `stop`.
    stopped: RwLock<bool>,
    /// The statistics from the join that already happened, kept so a
    /// second pass through `shutdown_inner` (an explicit `shutdown`
    /// followed by `Drop`, or a `stop` racing a concurrent shutdown
    /// path) returns them instead of panicking on "nothing to join".
    joined: Option<(ServiceStats, usize)>,
}

impl ProbeService {
    /// Builds the sharded index from `pairs` and starts serving.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configuration (zero shards/inflight/batch
    /// size/queue capacity) or if a worker thread cannot be spawned.
    #[must_use]
    pub fn build(
        recipe: HashRecipe,
        pairs: impl IntoIterator<Item = (u64, u64)>,
        config: &ServeConfig,
    ) -> ProbeService {
        let sharded = ShardedIndex::from_pairs(
            recipe,
            config.shards,
            config.min_buckets,
            config.load,
            pairs,
        );
        ProbeService::start(sharded, config)
    }

    /// Builds *both* tiers over the same `pairs`, split at the same key
    /// ranges — the hash index for point traffic and the B+-tree tier
    /// for [`Request::RangeScan`] — and starts serving, one worker per
    /// range. The production shape of a table with a hash index and an
    /// ordered index over the same column.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configuration or if a worker thread cannot
    /// be spawned.
    #[must_use]
    pub fn build_with_range(
        recipe: HashRecipe,
        pairs: impl IntoIterator<Item = (u64, u64)>,
        config: &ServeConfig,
    ) -> ProbeService {
        let pairs: Vec<(u64, u64)> = pairs.into_iter().collect();
        let sharded = ShardedIndex::from_pairs(
            recipe,
            config.shards,
            config.min_buckets,
            config.load,
            pairs.iter().copied(),
        );
        let ordered = OrderedShardedIndex::from_pairs(config.fanout, config.shards, pairs);
        ProbeService::start_with_ordered(sharded, ordered, config)
    }

    /// Starts serving an already-built [`ShardedIndex`]. The worker
    /// count is the index's shard count; `config.shards` is ignored.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configuration or if a worker thread cannot
    /// be spawned.
    #[must_use]
    pub fn start(sharded: ShardedIndex, config: &ServeConfig) -> ProbeService {
        ProbeService::start_inner(sharded, None, config)
    }

    /// Starts serving already-built point and ordered tiers, one worker
    /// per key range owning both tiers' shard of it. The tiers must be
    /// split at the same boundary keys — build both from the same pairs
    /// with the same shard count. `config.shards` is ignored.
    ///
    /// # Panics
    ///
    /// Panics if the two tiers' key ranges differ, on nonsensical
    /// configuration, or if a worker thread cannot be spawned.
    #[must_use]
    pub fn start_with_ordered(
        sharded: ShardedIndex,
        ordered: OrderedShardedIndex,
        config: &ServeConfig,
    ) -> ProbeService {
        ProbeService::start_inner(sharded, Some(ordered), config)
    }

    fn start_inner(
        sharded: ShardedIndex,
        ordered: Option<OrderedShardedIndex>,
        config: &ServeConfig,
    ) -> ProbeService {
        assert!(config.inflight > 0, "need at least one in-flight probe");
        assert!(config.stream_chunk > 0, "need a positive stream chunk");
        if let Some(ordered) = &ordered {
            assert!(
                ordered.ranges() == sharded.ranges(),
                "hash and ordered tiers must share one key-range partition"
            );
        }
        let policy = BatchPolicy::new(config.batch_size, config.batch_deadline);
        let sharded = Arc::new(sharded);
        let ordered = ordered.map(Arc::new);
        let shards = sharded.shard_count();
        let queues: Vec<Arc<ShardQueue>> = (0..shards)
            .map(|_| Arc::new(ShardQueue::new(config.queue_capacity)))
            .collect();
        let cells: Vec<Arc<WorkerCell>> =
            (0..shards).map(|_| Arc::new(WorkerCell::new())).collect();
        let prof_cells: Vec<Arc<ProfCell>> = if config.profile {
            (0..shards).map(|_| Arc::new(ProfCell::new())).collect()
        } else {
            Vec::new()
        };
        let workers = queues
            .iter()
            .enumerate()
            .map(|(shard, queue)| {
                let ctx = WorkerContext {
                    shard,
                    queue: Arc::clone(queue),
                    sharded: Arc::clone(&sharded),
                    ordered: ordered.clone(),
                    policy,
                    inflight: config.inflight,
                    stream_chunk: config.stream_chunk,
                    cell: Arc::clone(&cells[shard]),
                    prof: prof_cells.get(shard).cloned(),
                };
                std::thread::Builder::new()
                    .name(format!("widx-serve-{shard}"))
                    .spawn(move || run_worker(&ctx))
                    .expect("spawn shard worker")
            })
            .collect();
        ProbeService {
            sharded,
            ordered,
            queues,
            workers,
            cells,
            prof_cells,
            stages: Arc::new(StageTimes::new()),
            recorder: Arc::new(FlightRecorder::new(config.trace_capacity)),
            trace_seq: AtomicU64::new(0),
            trace_sample: config.trace_sample,
            slow_threshold: config.slow_threshold,
            started: Instant::now(),
            stopped: RwLock::new(false),
            joined: None,
        }
    }

    /// The served index.
    #[must_use]
    pub fn sharded(&self) -> &ShardedIndex {
        &self.sharded
    }

    /// The served ordered index, when the service has a range tier.
    #[must_use]
    pub fn ordered(&self) -> Option<&OrderedShardedIndex> {
        self.ordered.as_deref()
    }

    /// Probe keys, scan cursors and write ops currently queued per shard
    /// (backlog snapshot).
    #[must_use]
    pub fn backlog(&self) -> Vec<usize> {
        self.queues.iter().map(|q| q.backlog_keys()).collect()
    }

    /// The per-request flight recorder (always present; empty unless
    /// the sampling knobs arm traces).
    #[must_use]
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.recorder)
    }

    /// The flight recorder's gauges plus recent traces as one JSON
    /// document — the payload of the `Trace` wire opcode.
    #[must_use]
    pub fn traces_json(&self) -> String {
        self.recorder.to_json()
    }

    /// Whether the service was built with hardware profiling enabled
    /// ([`ServeConfig::with_profile`]).
    #[must_use]
    pub fn profiling_enabled(&self) -> bool {
        !self.prof_cells.is_empty()
    }

    /// The merged profiling snapshot across every worker, or `None`
    /// when the service was built without profiling.
    #[must_use]
    pub fn prof_snapshot(&self) -> Option<ProfSnapshot> {
        if !self.profiling_enabled() {
            return None;
        }
        let mut merged = ProfSnapshot::default();
        for cell in &self.prof_cells {
            merged.merge(&cell.snapshot());
        }
        Some(merged)
    }

    /// The profiling snapshot as a self-describing JSON document — the
    /// payload of the `Profile` wire opcode. An unprofiled service
    /// answers `{"enabled": false}` rather than erroring, so a scraper
    /// can probe for the capability.
    #[must_use]
    pub fn profile_json(&self) -> String {
        match self.prof_snapshot() {
            Some(snap) => format!("{{\"enabled\": true, \"prof\": {}}}", snap.to_json()),
            None => "{\"enabled\": false}".to_owned(),
        }
    }

    /// Shares `state` with the workers, first arming its trace when the
    /// sampling knobs select the request. Runs at plan time, *before* the
    /// request is enqueued, which is what makes net-deferred commits
    /// race-free: the deferral policy is fixed before any worker can
    /// complete the request. The trace's timeline starts at the frame
    /// decode behind a network tier (with the `net_read` span up to
    /// submit), or at submit in-process.
    fn share(
        &self,
        state: ResponseState,
        kind: &'static str,
        net: Option<&NetTraceCtx>,
    ) -> Arc<ResponseState> {
        if self.trace_sample == 0 && self.slow_threshold.is_none() {
            return Arc::new(state);
        }
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        let sampled = self.trace_sample > 0 && seq.is_multiple_of(self.trace_sample);
        if !sampled && self.slow_threshold.is_none() {
            return Arc::new(state);
        }
        let active = match net {
            Some(ctx) => {
                let mut active = ActiveTrace::new(ctx.decoded_at, ctx.id, kind, sampled);
                active.set_reactor(ctx.reactor);
                active.span_between(Stage::NetRead, ctx.decoded_at, state.submitted);
                active
            }
            None => ActiveTrace::new(state.submitted, seq, kind, sampled),
        };
        Arc::new(state.with_trace(Box::new(TraceState {
            active,
            recorder: Arc::clone(&self.recorder),
            slow_threshold: self.slow_threshold,
            deferred: net.is_some(),
            _commit_ticket: self.recorder.begin_commit(),
        })))
    }

    /// Submits a request, blocking only when a target shard queue is
    /// over capacity (backpressure). The returned handle resolves once
    /// every involved shard has answered.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once [`stop`](ProbeService::stop) or
    /// shutdown has begun, or [`SubmitError::NoOrderedIndex`] for a
    /// [`Request::RangeScan`] without a range tier.
    pub fn submit(&self, request: Request) -> Result<PendingResponse, SubmitError> {
        let _gate = self.gate()?;
        let (state, parts) = self.plan(&request, None)?;
        self.push_parts(parts);
        Ok(PendingResponse { state })
    }

    /// Opens the stop gate for one submission. Holding the returned read
    /// guard across every queue push keeps `stop` (which poisons the
    /// queues under the write guard) out, so a request is accepted
    /// (every shard part enqueued) or refused atomically.
    fn gate(&self) -> Result<RwLockReadGuard<'_, bool>, SubmitError> {
        let stopped = self.stopped.read().expect("stop gate");
        if *stopped {
            Err(SubmitError::Stopped)
        } else {
            Ok(stopped)
        }
    }

    /// Scatters `request` into ready-to-enqueue `(shard, job)` parts,
    /// shard index ascending — the single consistent lock order every
    /// multi-queue pusher must use — plus the shared completion state.
    #[allow(clippy::type_complexity)]
    fn plan(
        &self,
        request: &Request,
        net: Option<&NetTraceCtx>,
    ) -> Result<(Arc<ResponseState>, Vec<(usize, Job)>), SubmitError> {
        let keys = request.keys();
        Ok(match request {
            Request::Lookup { key } => self.plan_keys(RequestKind::Lookup { key: *key }, keys, net),
            Request::MultiLookup { .. } => self.plan_keys(RequestKind::MultiLookup, keys, net),
            Request::JoinProbe { .. } => self.plan_keys(RequestKind::JoinProbe, keys, net),
            Request::RangeScan {
                lo,
                hi,
                limit,
                desc,
            } => return self.plan_scan(*lo, *hi, *limit, *desc, false, net),
            Request::Insert { .. } => self.plan_write("insert", request, net),
            Request::Delete { .. } => self.plan_write("delete", request, net),
            Request::Update { .. } => self.plan_write("update", request, net),
        })
    }

    /// Scatters a write over the shards that own its keys. Each part
    /// applies its ops to both tiers of its key range and acks them.
    fn plan_write(
        &self,
        kind_name: &'static str,
        request: &Request,
        net: Option<&NetTraceCtx>,
    ) -> (Arc<ResponseState>, Vec<(usize, Job)>) {
        let ops = request.write_ops().expect("write request variant");
        assert!(
            u32::try_from(ops.len()).is_ok(),
            "request exceeds u32 op space"
        );
        let kind = RequestKind::Write { ops: ops.len() };
        let mut parts: Vec<Vec<(u32, WriteOp)>> = vec![Vec::new(); self.sharded.shard_count()];
        for (i, op) in ops.iter().enumerate() {
            parts[self.sharded.shard_of(op.key())].push((i as u32, *op));
        }
        let live = parts.iter().filter(|p| !p.is_empty()).count();
        let state = self.share(ResponseState::new(kind, live), kind_name, net);
        let jobs = parts
            .into_iter()
            .enumerate()
            .filter(|(_, ops)| !ops.is_empty())
            .map(|(shard, ops)| {
                let job = Job::Write {
                    ops,
                    reply: Arc::clone(&state),
                };
                (shard, job)
            })
            .collect();
        (state, jobs)
    }

    /// Partitions `keys` by shard into ready-to-enqueue jobs (shard
    /// index ascending) plus the shared completion state sized to the
    /// number of live parts.
    fn plan_keys(
        &self,
        kind: RequestKind,
        keys: &[u64],
        net: Option<&NetTraceCtx>,
    ) -> (Arc<ResponseState>, Vec<(usize, Job)>) {
        assert!(
            u32::try_from(keys.len()).is_ok(),
            "request exceeds u32 row space"
        );
        let kind_name = match kind {
            RequestKind::Lookup { .. } => "lookup",
            RequestKind::MultiLookup => "multi_lookup",
            RequestKind::JoinProbe => "join_probe",
            RequestKind::RangeScan { .. } => "range_scan",
            RequestKind::Write { .. } => unreachable!("writes plan through plan_write"),
        };
        if let [key] = keys {
            // Fast path: a single-key request touches exactly one shard
            // — skip the per-shard partition scaffolding.
            let state = self.share(ResponseState::new(kind, 1), kind_name, net);
            let job = Job::Probe {
                entries: vec![(0, *key)],
                reply: Arc::clone(&state),
            };
            return (state, vec![(self.sharded.shard_of(*key), job)]);
        }
        let shard_count = self.sharded.shard_count();
        let mut parts: Vec<Vec<(u32, u64)>> = vec![Vec::new(); shard_count];
        for (row, key) in keys.iter().enumerate() {
            parts[self.sharded.shard_of(*key)].push((row as u32, *key));
        }
        let live_parts = parts.iter().filter(|p| !p.is_empty()).count();
        let state = self.share(ResponseState::new(kind, live_parts), kind_name, net);
        let jobs = parts
            .into_iter()
            .enumerate()
            .filter(|(_, entries)| !entries.is_empty())
            .map(|(shard, entries)| {
                let job = Job::Probe {
                    entries,
                    reply: Arc::clone(&state),
                };
                (shard, job)
            })
            .collect();
        (state, jobs)
    }

    /// Scatters a scan over every shard its key interval overlaps — each
    /// part carries the full interval and limit, since shard trees hold
    /// only their own span and the global `limit` is re-applied at
    /// gather time. Returns per-shard jobs (shard index ascending) plus
    /// the shared completion state; degenerate scans yield zero parts
    /// and a state that is born complete. Scatter *ranks* are assigned
    /// in output order — shard order ascending, or descending for a
    /// `desc` scan — so the gather side (buffered bucket concatenation
    /// and the streaming seam alike) never needs to know the direction:
    /// rank order *is* reply order.
    #[allow(clippy::type_complexity)]
    fn plan_scan(
        &self,
        lo: u64,
        hi: u64,
        limit: usize,
        desc: bool,
        streaming: bool,
        net: Option<&NetTraceCtx>,
    ) -> Result<(Arc<ResponseState>, Vec<(usize, Job)>), SubmitError> {
        let Some(ordered) = &self.ordered else {
            return Err(SubmitError::NoOrderedIndex);
        };
        let kind = RequestKind::RangeScan { limit };
        let kind_name = if streaming {
            "range_stream"
        } else {
            "range_scan"
        };
        let state_for = |parts: usize| {
            let state = if streaming {
                ResponseState::new_stream(kind, parts, limit)
            } else {
                ResponseState::new(kind, parts)
            };
            self.share(state, kind_name, net)
        };
        if lo > hi || limit == 0 {
            // Degenerate scans complete immediately: zero parts.
            return Ok((state_for(0), Vec::new()));
        }
        let (first, last) = ordered.shard_span(lo, hi);
        let parts = last - first + 1;
        let state = state_for(parts);
        let jobs = (first..=last)
            .enumerate()
            .map(|(i, shard)| {
                let rank = if desc { parts - 1 - i } else { i } as u32;
                let job = Job::Scan {
                    scans: vec![(
                        rank,
                        ScanRange {
                            lo,
                            hi,
                            limit,
                            desc,
                        },
                    )],
                    reply: Arc::clone(&state),
                };
                (shard, job)
            })
            .collect();
        Ok((state, jobs))
    }

    /// Submits a chunk-streaming range scan, blocking only under queue
    /// backpressure: the returned [`PendingStream`] yields merged
    /// key-ordered chunks *while shards are still scanning*, instead of
    /// buffering the whole reply like [`range_scan`](Self::range_scan).
    /// The scatter, batching, walkers, and the limit-at-the-seam
    /// contract are identical to the buffered path — concatenating the
    /// chunks reproduces its reply exactly.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once shutdown has begun, or
    /// [`SubmitError::NoOrderedIndex`] without a range tier.
    pub fn range_stream(
        &self,
        lo: u64,
        hi: u64,
        limit: usize,
        desc: bool,
    ) -> Result<PendingStream, SubmitError> {
        let _gate = self.gate()?;
        let (state, parts) = self.plan_scan(lo, hi, limit, desc, true, None)?;
        self.push_parts(parts);
        Ok(PendingStream { state })
    }

    /// Non-blocking [`range_stream`](Self::range_stream): refuses with
    /// [`SubmitError::Busy`] instead of waiting out backpressure
    /// (all-or-nothing across shards) — the submission surface the
    /// `widx-net` event loop uses for the chunked reply opcodes.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] under backpressure, [`SubmitError::Stopped`]
    /// once shutdown has begun, or [`SubmitError::NoOrderedIndex`]
    /// without a range tier.
    pub fn try_range_stream(
        &self,
        lo: u64,
        hi: u64,
        limit: usize,
        desc: bool,
    ) -> Result<PendingStream, SubmitError> {
        self.try_range_stream_traced(lo, hi, limit, desc, None)
    }

    /// [`try_range_stream`](Self::try_range_stream) with an optional
    /// network trace context: when the front-end carries a sampled (or
    /// potentially slow) request, `net` anchors the trace at
    /// frame-decode time and tags it with the reactor that owns the
    /// connection. Pass `None` for in-process callers.
    ///
    /// # Errors
    ///
    /// Same contract as [`try_range_stream`](Self::try_range_stream).
    pub fn try_range_stream_traced(
        &self,
        lo: u64,
        hi: u64,
        limit: usize,
        desc: bool,
        net: Option<NetTraceCtx>,
    ) -> Result<PendingStream, SubmitError> {
        let _gate = self.gate()?;
        let (state, parts) = self.plan_scan(lo, hi, limit, desc, true, net.as_ref())?;
        self.try_push_parts(parts)?;
        self.note_net_read(&state, net.as_ref());
        Ok(PendingStream { state })
    }

    /// Non-blocking [`submit`](ProbeService::submit): never waits out
    /// backpressure. When any target shard queue is at capacity the
    /// request is refused with [`SubmitError::Busy`] and *nothing* is
    /// enqueued (all-or-nothing across shards), so a caller that cannot
    /// block — the `widx-net` event loop — can turn backpressure into a
    /// typed error reply instead of stalling every other connection.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] under backpressure, [`SubmitError::Stopped`]
    /// once shutdown has begun, or [`SubmitError::NoOrderedIndex`] for a
    /// [`Request::RangeScan`] without a range tier.
    pub fn try_submit(&self, request: Request) -> Result<PendingResponse, SubmitError> {
        self.try_submit_traced(request, None)
    }

    /// [`try_submit`](Self::try_submit) with an optional network trace
    /// context: when the front-end carries a sampled (or potentially
    /// slow) request, `net` anchors the trace at frame-decode time and
    /// tags it with the reactor that owns the connection. Pass `None`
    /// for in-process callers.
    ///
    /// # Errors
    ///
    /// Same contract as [`try_submit`](Self::try_submit).
    pub fn try_submit_traced(
        &self,
        request: Request,
        net: Option<NetTraceCtx>,
    ) -> Result<PendingResponse, SubmitError> {
        let _gate = self.gate()?;
        let (state, parts) = self.plan(&request, net.as_ref())?;
        self.try_push_parts(parts)?;
        self.note_net_read(&state, net.as_ref());
        Ok(PendingResponse { state })
    }

    /// Records an accepted request's `net_read` stage — frame decoded →
    /// submitted — when a network tier submitted it.
    fn note_net_read(&self, state: &ResponseState, net: Option<&NetTraceCtx>) {
        if let Some(ctx) = net {
            self.stages.record(
                Stage::NetRead,
                state.submitted.saturating_duration_since(ctx.decoded_at),
            );
        }
    }

    /// Enqueues every `(shard, job)` part, blocking under backpressure.
    /// The caller holds the stop gate open.
    fn push_parts(&self, parts: Vec<(usize, Job)>) {
        for (shard, job) in parts {
            match self.queues[shard].push(job) {
                Ok(()) => {}
                // Queues are poisoned only under the stop gate's write
                // guard, which cannot be held while we hold the read guard.
                Err(PushError::Stopped) => {
                    unreachable!("queue poisoned while stop gate held open")
                }
            }
        }
    }

    /// Enqueues every `(shard, job)` part or none of them (refusing with
    /// [`SubmitError::Busy`] when any queue is at capacity). The caller
    /// holds the stop gate open.
    fn try_push_parts(&self, parts: Vec<(usize, Job)>) -> Result<(), SubmitError> {
        let targeted = parts
            .into_iter()
            .map(|(shard, job)| (&*self.queues[shard], job))
            .collect();
        crate::queue::try_push_all(targeted).map_err(|_| SubmitError::Busy)
    }

    /// Blocking convenience: all payloads under `key`.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once shutdown has begun.
    pub fn lookup(&self, key: u64) -> Result<Vec<u64>, SubmitError> {
        match self.submit(Request::Lookup { key })?.wait() {
            Response::Lookup { payloads, .. } => Ok(payloads),
            _ => unreachable!("lookup requests assemble lookup responses"),
        }
    }

    /// Blocking convenience: `(key, payload)` matches for `keys`.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once shutdown has begun.
    pub fn multi_lookup(&self, keys: &[u64]) -> Result<Vec<(u64, u64)>, SubmitError> {
        let keys = keys.to_vec();
        match self.submit(Request::MultiLookup { keys })?.wait() {
            Response::MultiLookup { matches } => Ok(matches),
            _ => unreachable!("multi-lookup requests assemble multi-lookup responses"),
        }
    }

    /// Blocking convenience: `(probe row, payload)` join pairs for the
    /// outer column `keys`.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once shutdown has begun.
    pub fn join_probe(&self, keys: &[u64]) -> Result<Vec<(u64, u64)>, SubmitError> {
        let keys = keys.to_vec();
        match self.submit(Request::JoinProbe { keys })?.wait() {
            Response::JoinProbe { pairs } => Ok(pairs),
            _ => unreachable!("join-probe requests assemble join-probe responses"),
        }
    }

    /// Blocking convenience: insert `payload` under `key` through the
    /// owning shard worker. Returns once the write has been applied to
    /// every tier (always `true` — inserts cannot miss).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once shutdown has begun.
    pub fn insert(&self, key: u64, payload: u64) -> Result<bool, SubmitError> {
        self.write_one(Request::Insert {
            pairs: vec![(key, payload)],
        })
    }

    /// Blocking convenience: delete every payload under `key`. `Ok(true)`
    /// when at least one entry existed.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once shutdown has begun.
    pub fn delete(&self, key: u64) -> Result<bool, SubmitError> {
        self.write_one(Request::Delete { keys: vec![key] })
    }

    /// Blocking convenience: replace every payload under `key` with
    /// `payload`. `Ok(true)` when the key existed; a miss changes
    /// nothing and returns `Ok(false)`.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once shutdown has begun.
    pub fn update(&self, key: u64, payload: u64) -> Result<bool, SubmitError> {
        self.write_one(Request::Update {
            pairs: vec![(key, payload)],
        })
    }

    fn write_one(&self, request: Request) -> Result<bool, SubmitError> {
        match self.submit(request)?.wait() {
            Response::Write { acks } => Ok(acks[0]),
            _ => unreachable!("write requests assemble write responses"),
        }
    }

    /// Blocking convenience: every `(key, payload)` with `lo <= key <=
    /// hi` in ascending key order, truncated to the first `limit`
    /// (`usize::MAX` for unbounded).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once shutdown has begun, or
    /// [`SubmitError::NoOrderedIndex`] when the service was built
    /// without a range tier.
    pub fn range_scan(
        &self,
        lo: u64,
        hi: u64,
        limit: usize,
    ) -> Result<Vec<(u64, u64)>, SubmitError> {
        self.scan(lo, hi, limit, false)
    }

    /// Blocking convenience: [`range_scan`](Self::range_scan) in
    /// descending key order — the `ORDER BY key DESC` shape, with the
    /// *largest* keys surviving `limit` and duplicates in reverse build
    /// order.
    ///
    /// # Errors
    ///
    /// As [`range_scan`](Self::range_scan).
    pub fn range_scan_desc(
        &self,
        lo: u64,
        hi: u64,
        limit: usize,
    ) -> Result<Vec<(u64, u64)>, SubmitError> {
        self.scan(lo, hi, limit, true)
    }

    fn scan(
        &self,
        lo: u64,
        hi: u64,
        limit: usize,
        desc: bool,
    ) -> Result<Vec<(u64, u64)>, SubmitError> {
        let request = Request::RangeScan {
            lo,
            hi,
            limit,
            desc,
        };
        match self.submit(request)?.wait() {
            Response::RangeScan { entries } => Ok(entries),
            _ => unreachable!("range-scan requests assemble range-scan responses"),
        }
    }

    /// A coherent [`ServiceStats`] snapshot of the *running* service —
    /// no shutdown, no join, no pause. Workers keep publishing into
    /// their lock-free registry cells while this reads them, so the
    /// numbers are at most one batch stale per worker; counts are
    /// internally consistent (every latency count is derived from the
    /// same histogram buckets the percentiles are).
    ///
    /// At quiescence (all submitted requests completed) this equals the
    /// final [`shutdown`](Self::shutdown) snapshot, field for field,
    /// except `wall` (which keeps advancing), each worker's `idle`
    /// (which accumulates while the worker blocks on an empty queue),
    /// and `net` (attached by the network tier, if any).
    #[must_use]
    pub fn live_stats(&self) -> ServiceStats {
        self.snapshot_stats()
    }

    /// The histogram home of the front-end stages: the service records
    /// `net_read` here when a network tier submits, and the `widx-net`
    /// server records [`reply_write`](widx_obs::Stage::ReplyWrite) here
    /// once a reply's bytes are flushed.
    #[must_use]
    pub fn stage_times(&self) -> Arc<StageTimes> {
        Arc::clone(&self.stages)
    }

    /// The one materialization path: both `live_stats` and the shutdown
    /// join read the same registry, so "final stats" is literally the
    /// last live scrape.
    fn snapshot_stats(&self) -> ServiceStats {
        let mut latency = HistogramSnapshot::default();
        let mut stages = self.stages.snapshot();
        let workers = self
            .cells
            .iter()
            .enumerate()
            .map(|(shard, cell)| {
                let snap = cell.snapshot();
                latency.merge_from(&snap.latency);
                stages.merge_from(&snap.stages);
                WorkerStats::from_cell(shard, &snap)
            })
            .collect();
        ServiceStats {
            workers,
            latency: LatencySummary::from_histogram(&latency),
            stages: StageStats::from_snapshot(&stages),
            net: crate::stats::NetStats::default(),
            trace: self.recorder.stats(),
            prof: self.prof_snapshot(),
            wall: self.started.elapsed(),
        }
    }

    /// Begins shutdown without consuming the service: marks the service
    /// stopped (subsequent [`submit`](ProbeService::submit)s fail with
    /// [`SubmitError::Stopped`]) and enqueues one poison pill per shard
    /// behind all accepted work. Workers drain, then halt; call
    /// [`shutdown`](ProbeService::shutdown) to join them and collect
    /// statistics. Idempotent.
    pub fn stop(&self) {
        let mut stopped = self.stopped.write().expect("stop gate");
        if !*stopped {
            *stopped = true;
            for queue in &self.queues {
                queue.push_poison();
            }
        }
    }

    /// Drains all accepted work, halts every worker (poison pill per
    /// shard), and returns the collected statistics.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker panicked (after joining the rest).
    /// [`Drop`] performs the same join but swallows worker panics, so a
    /// service dropped during unwinding never aborts the process.
    #[must_use]
    pub fn shutdown(mut self) -> ServiceStats {
        let (stats, panicked) = self.shutdown_inner();
        assert!(panicked == 0, "{panicked} shard worker(s) panicked");
        stats
    }

    fn shutdown_inner(&mut self) -> (ServiceStats, usize) {
        self.stop();
        if self.workers.is_empty() {
            // Already joined by a prior pass (an explicit shutdown
            // followed by `Drop`, or concurrent shutdown paths racing a
            // `stop`): hand back the stats that pass produced instead
            // of re-snapshotting with a later wall clock.
            if let Some(prior) = self.joined.clone() {
                return prior;
            }
            return (self.snapshot_stats(), 0);
        }
        // Workers publish into the registry as they run, so the join is
        // purely a drain barrier: once every worker has halted, the
        // registry holds its final values and one more live snapshot
        // *is* the post-mortem report.
        let mut panicked = 0usize;
        for handle in self.workers.drain(..) {
            if handle.join().is_err() {
                panicked += 1;
            }
        }
        let result = (self.snapshot_stats(), panicked);
        self.joined = Some(result.clone());
        result
    }
}

impl Drop for ProbeService {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service(entries: u64, config: &ServeConfig) -> ProbeService {
        ProbeService::build(
            HashRecipe::robust64(),
            (0..entries).map(|k| (k, k * 2)),
            config,
        )
    }

    #[test]
    fn lookup_hits_and_misses() {
        let s = service(1000, &ServeConfig::default());
        assert_eq!(s.lookup(7).unwrap(), vec![14]);
        assert_eq!(s.lookup(5000).unwrap(), Vec::<u64>::new());
        let stats = s.shutdown();
        assert_eq!(stats.total_keys(), 2);
        assert_eq!(stats.total_matches(), 1);
        assert_eq!(stats.latency.count, 2);
    }

    #[test]
    fn multi_lookup_spans_shards() {
        let s = service(1000, &ServeConfig::default().with_batch_size(8));
        // Every other key across the whole key space, so every key
        // range is probed.
        let keys: Vec<u64> = (0..1000).step_by(2).collect();
        let mut got = s.multi_lookup(&keys).unwrap();
        got.sort_unstable();
        let want: Vec<(u64, u64)> = keys.iter().map(|k| (*k, k * 2)).collect();
        assert_eq!(got, want);
        let stats = s.shutdown();
        assert_eq!(stats.total_keys(), 500);
        assert!(stats.workers.len() == 4);
        assert!(
            stats.workers.iter().all(|w| w.keys > 0),
            "all shards probed"
        );
    }

    #[test]
    fn join_probe_reports_rows() {
        let s = service(100, &ServeConfig::default());
        // Rows 0 and 2 hit the same key; row 1 misses.
        let mut got = s.join_probe(&[4, 7777, 4]).unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 8), (2, 8)]);
    }

    #[test]
    fn duplicate_keys_in_one_request_all_answered() {
        let s = service(50, &ServeConfig::default());
        let mut got = s.multi_lookup(&[3, 3, 3]).unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![(3, 6), (3, 6), (3, 6)]);
    }

    #[test]
    fn empty_request_completes_instantly() {
        let s = service(10, &ServeConfig::default());
        assert_eq!(s.multi_lookup(&[]).unwrap(), vec![]);
    }

    #[test]
    fn submit_after_stop_fails_but_accepted_work_completes() {
        let s = service(10, &ServeConfig::default());
        let pending = s.submit(Request::Lookup { key: 1 }).unwrap();
        s.stop();
        assert_eq!(
            s.submit(Request::Lookup { key: 2 }).err(),
            Some(SubmitError::Stopped),
            "post-stop submissions are refused"
        );
        assert_eq!(s.lookup(3), Err(SubmitError::Stopped));
        let stats = s.shutdown();
        assert_eq!(
            pending.wait(),
            Response::Lookup {
                key: 1,
                payloads: vec![2]
            }
        );
        assert!(stats.wall > Duration::ZERO);
        assert_eq!(stats.latency.count, 1, "only the accepted request ran");
    }

    #[test]
    fn stop_is_idempotent() {
        let s = service(10, &ServeConfig::default());
        s.stop();
        s.stop();
        let stats = s.shutdown();
        assert_eq!(stats.total_keys(), 0);
    }

    #[test]
    fn pipelined_submissions_all_resolve() {
        let s = service(2000, &ServeConfig::default().with_batch_size(32));
        let pendings: Vec<PendingResponse> = (0..200)
            .map(|i| s.submit(Request::Lookup { key: i }).unwrap())
            .collect();
        for (i, p) in pendings.into_iter().enumerate() {
            match p.wait() {
                Response::Lookup { key, payloads } => {
                    assert_eq!(key, i as u64);
                    assert_eq!(payloads, vec![i as u64 * 2]);
                }
                other => panic!("wrong variant: {other:?}"),
            }
        }
        let stats = s.shutdown();
        assert_eq!(stats.latency.count, 200);
        // Batching must have occurred: fewer batches than requests.
        let batches: u64 = stats.workers.iter().map(|w| w.batches).sum();
        assert!(batches < 200, "batches {batches}");
    }

    #[test]
    fn try_submit_serves_and_respects_stop() {
        let s = range_service(500, &ServeConfig::default());
        match s.try_submit(Request::Lookup { key: 20 }).unwrap().wait() {
            Response::Lookup { payloads, .. } => assert_eq!(payloads, vec![10]),
            other => panic!("wrong variant: {other:?}"),
        }
        match s
            .try_submit(Request::RangeScan {
                lo: 10,
                hi: 20,
                limit: usize::MAX,
                desc: false,
            })
            .unwrap()
            .wait()
        {
            Response::RangeScan { entries } => {
                assert_eq!(entries, (5..=10u64).map(|k| (k * 2, k)).collect::<Vec<_>>());
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // Multi-shard fan-out through the non-blocking path.
        let keys: Vec<u64> = (0..200).collect();
        let mut got = match s.try_submit(Request::MultiLookup { keys }).unwrap().wait() {
            Response::MultiLookup { matches } => matches,
            other => panic!("wrong variant: {other:?}"),
        };
        got.sort_unstable();
        let want: Vec<(u64, u64)> = (0..100u64).map(|k| (k * 2, k)).collect();
        assert_eq!(got, want);
        s.stop();
        assert_eq!(
            s.try_submit(Request::Lookup { key: 1 }).err(),
            Some(SubmitError::Stopped)
        );
    }

    #[test]
    fn try_submit_without_ordered_tier_is_refused() {
        let s = service(50, &ServeConfig::default());
        assert_eq!(
            s.try_submit(Request::RangeScan {
                lo: 0,
                hi: 9,
                limit: 1,
                desc: false,
            })
            .err(),
            Some(SubmitError::NoOrderedIndex)
        );
    }

    #[test]
    fn second_shutdown_pass_returns_the_already_joined_stats() {
        // Regression: a shutdown pass entered after the workers were
        // already joined (Drop after an explicit shutdown, or a `stop`
        // racing concurrent shutdown paths) used to find nothing to
        // join and panic the consuming `shutdown()`; it must return the
        // first join's stats instead.
        let mut s = service(10, &ServeConfig::default());
        let _ = s.lookup(1);
        let (first, panicked) = s.shutdown_inner();
        assert_eq!(panicked, 0);
        assert_eq!(first.latency.count, 1);
        let (second, panicked) = s.shutdown_inner();
        assert_eq!(panicked, 0);
        assert_eq!(second.latency.count, first.latency.count);
        assert_eq!(second.workers.len(), first.workers.len());
        assert_eq!(second.total_keys(), first.total_keys());
    }

    #[test]
    fn drop_without_shutdown_halts_workers() {
        let s = service(10, &ServeConfig::default());
        let _ = s.lookup(1);
        drop(s); // must not hang
    }

    fn range_service(entries: u64, config: &ServeConfig) -> ProbeService {
        ProbeService::build_with_range(
            HashRecipe::robust64(),
            (0..entries).map(|k| (k * 2, k)),
            config,
        )
    }

    #[test]
    fn range_scan_spans_shards_in_key_order() {
        let s = range_service(2000, &ServeConfig::default());
        let got = s.range_scan(0, u64::MAX, usize::MAX).unwrap();
        assert_eq!(got, (0..2000u64).map(|k| (k * 2, k)).collect::<Vec<_>>());
        // Bounded scan with a limit cutting across a shard seam.
        let oracle = s.ordered().unwrap().scan(500, 3000, 700);
        assert_eq!(s.range_scan(500, 3000, 700).unwrap(), oracle);
        let stats = s.shutdown();
        assert!(
            stats.workers.iter().all(|w| w.scan_cursors > 0),
            "full-range scan drove every ordered shard"
        );
        assert!(stats.total_scan_entries() >= 2000);
    }

    #[test]
    fn both_tiers_run_on_one_worker_per_key_range() {
        for shards in [1, 2, 4] {
            let s = range_service(2000, &ServeConfig::default().with_shards(shards));
            let keys: Vec<u64> = (0..4000).step_by(2).collect();
            assert_eq!(s.multi_lookup(&keys).unwrap().len(), 2000);
            assert_eq!(s.range_scan(0, u64::MAX, usize::MAX).unwrap().len(), 2000);
            let stats = s.shutdown();
            assert_eq!(stats.workers.len(), shards);
            for w in &stats.workers {
                assert!(w.keys > 0 && w.scan_cursors > 0, "{shards} shards: {w:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "share one key-range partition")]
    fn tiers_with_different_key_ranges_are_refused() {
        let pairs = || (0..100u64).map(|k| (k, k));
        let sharded = ShardedIndex::from_pairs(HashRecipe::robust64(), 2, 8, 1.0, pairs());
        let ordered = OrderedShardedIndex::from_pairs(8, 3, pairs());
        let _ = ProbeService::start_with_ordered(sharded, ordered, &ServeConfig::default());
    }

    #[test]
    fn range_scan_degenerate_and_miss_cases() {
        let s = range_service(100, &ServeConfig::default());
        assert_eq!(s.range_scan(50, 10, usize::MAX).unwrap(), vec![]);
        assert_eq!(s.range_scan(0, 100, 0).unwrap(), vec![]);
        assert_eq!(s.range_scan(1, 1, usize::MAX).unwrap(), vec![]); // odd keys miss
        assert_eq!(s.range_scan(100_000, 200_000, 5).unwrap(), vec![]);
        let stats = s.shutdown();
        // Degenerate scans complete client-side (zero parts) and never
        // reach a worker; only the two real scans record latencies.
        assert_eq!(stats.latency.count, 2);
    }

    #[test]
    fn range_and_point_traffic_interleave() {
        let s = range_service(500, &ServeConfig::default().with_batch_size(8));
        let scan = s
            .submit(Request::RangeScan {
                lo: 10,
                hi: 40,
                limit: usize::MAX,
                desc: false,
            })
            .unwrap();
        let point = s.submit(Request::Lookup { key: 20 }).unwrap();
        assert_eq!(
            scan.wait(),
            Response::RangeScan {
                entries: (5..=20u64).map(|k| (k * 2, k)).collect()
            }
        );
        assert_eq!(
            point.wait(),
            Response::Lookup {
                key: 20,
                payloads: vec![10]
            }
        );
    }

    #[test]
    fn range_scan_desc_matches_the_reverse_oracle_across_shards() {
        let s = range_service(2000, &ServeConfig::default());
        let got = s.range_scan_desc(0, u64::MAX, usize::MAX).unwrap();
        assert_eq!(
            got,
            (0..2000u64).rev().map(|k| (k * 2, k)).collect::<Vec<_>>()
        );
        // Bounded desc scan with a limit cutting across a shard seam:
        // the *largest* keys survive.
        let oracle = s.ordered().unwrap().scan_desc(500, 3000, 700);
        assert_eq!(oracle.len(), 700);
        assert_eq!(s.range_scan_desc(500, 3000, 700).unwrap(), oracle);
        assert_eq!(s.range_scan_desc(50, 10, usize::MAX).unwrap(), vec![]);
        assert_eq!(s.range_scan_desc(0, 100, 0).unwrap(), vec![]);
    }

    #[test]
    fn range_stream_concatenates_to_the_buffered_reply() {
        let s = range_service(3000, &ServeConfig::default().with_stream_chunk(64));
        for desc in [false, true] {
            let want = if desc {
                s.range_scan_desc(100, 4000, usize::MAX).unwrap()
            } else {
                s.range_scan(100, 4000, usize::MAX).unwrap()
            };
            let mut stream = s.range_stream(100, 4000, usize::MAX, desc).unwrap();
            let mut got = Vec::new();
            let mut chunks = 0usize;
            while let Some(chunk) = stream.next_chunk() {
                assert!(!chunk.is_empty(), "no empty chunks");
                assert!(chunk.len() <= 64, "chunk respects stream_chunk");
                got.extend(chunk);
                chunks += 1;
            }
            assert_eq!(got, want, "desc={desc}");
            assert!(chunks > 1, "a long scan streams in several chunks");
        }
        let _ = s.shutdown();
    }

    #[test]
    fn range_stream_limit_cuts_at_the_seam() {
        let s = range_service(1000, &ServeConfig::default().with_stream_chunk(16));
        let want = s.range_scan(0, u64::MAX, 333).unwrap();
        let mut stream = s.range_stream(0, u64::MAX, 333, false).unwrap();
        assert_eq!(stream.collect_remaining(), want);
        // Degenerate streams are born ended.
        let mut empty = s.range_stream(10, 3, usize::MAX, false).unwrap();
        assert_eq!(empty.next(), None);
        let mut zero = s.range_stream(0, 10, 0, true).unwrap();
        assert_eq!(zero.try_next(), crate::request::StreamPoll::End);
    }

    #[test]
    fn range_stream_respects_stop_and_missing_tier() {
        let s = service(100, &ServeConfig::default());
        assert_eq!(
            s.range_stream(0, 10, usize::MAX, false).err(),
            Some(SubmitError::NoOrderedIndex)
        );
        let s = range_service(100, &ServeConfig::default());
        let mut accepted = s.range_stream(0, u64::MAX, usize::MAX, false).unwrap();
        s.stop();
        assert_eq!(
            s.range_stream(0, 10, usize::MAX, false).err(),
            Some(SubmitError::Stopped)
        );
        assert_eq!(
            s.try_range_stream(0, 10, usize::MAX, false).err(),
            Some(SubmitError::Stopped)
        );
        let _ = s.shutdown();
        // Accepted streams drain fully through shutdown.
        assert_eq!(
            accepted.collect_remaining(),
            (0..100u64).map(|k| (k * 2, k)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn try_range_stream_serves_chunks() {
        let s = range_service(500, &ServeConfig::default().with_stream_chunk(32));
        let mut stream = s.try_range_stream(10, 600, usize::MAX, true).unwrap();
        assert_eq!(
            stream.collect_remaining(),
            s.ordered().unwrap().scan_desc(10, 600, usize::MAX)
        );
    }

    #[test]
    fn range_scan_without_ordered_tier_is_refused() {
        let s = service(100, &ServeConfig::default());
        assert_eq!(
            s.range_scan(0, 10, usize::MAX),
            Err(SubmitError::NoOrderedIndex)
        );
        assert_eq!(s.lookup(1).unwrap(), vec![2], "point path unaffected");
    }

    #[test]
    fn range_scan_after_stop_is_refused_but_accepted_scans_drain() {
        let s = range_service(1000, &ServeConfig::default());
        let pending = s
            .submit(Request::RangeScan {
                lo: 0,
                hi: 99,
                limit: usize::MAX,
                desc: false,
            })
            .unwrap();
        s.stop();
        assert_eq!(s.range_scan(0, 9, 1), Err(SubmitError::Stopped));
        let _stats = s.shutdown();
        assert_eq!(
            pending.wait(),
            Response::RangeScan {
                entries: (0..50u64).map(|k| (k * 2, k)).collect()
            }
        );
    }

    #[test]
    fn insert_update_delete_roundtrip() {
        let s = service(100, &ServeConfig::default());
        // Fresh key: miss, insert, hit, update, delete, miss again.
        assert_eq!(s.lookup(5000).unwrap(), Vec::<u64>::new());
        assert!(s.insert(5000, 42).unwrap());
        assert_eq!(s.lookup(5000).unwrap(), vec![42]);
        assert!(s.update(5000, 43).unwrap());
        assert_eq!(s.lookup(5000).unwrap(), vec![43]);
        assert!(s.delete(5000).unwrap());
        assert_eq!(s.lookup(5000).unwrap(), Vec::<u64>::new());
        assert!(!s.delete(5000).unwrap(), "second delete misses");
        // Update never inserts on miss.
        assert!(!s.update(6000, 1).unwrap());
        assert_eq!(s.lookup(6000).unwrap(), Vec::<u64>::new());
        // Duplicate inserts stack payloads; one delete clears them all.
        assert!(s.insert(7000, 1).unwrap());
        assert!(s.insert(7000, 2).unwrap());
        let mut got = s.lookup(7000).unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        assert!(s.delete(7000).unwrap());
        assert_eq!(s.lookup(7000).unwrap(), Vec::<u64>::new());
        let stats = s.shutdown();
        assert_eq!(stats.total_write_ops(), 8);
        assert_eq!(stats.total_write_applied(), 6, "two misses unacked");
    }

    #[test]
    fn writes_propagate_to_both_tiers() {
        // range_service stores (k*2, k): odd keys are absent, so 2001
        // is a fresh key visible to both point probes and range scans.
        let s = range_service(1000, &ServeConfig::default());
        assert!(s.insert(2001, 555).unwrap());
        assert_eq!(s.lookup(2001).unwrap(), vec![555]);
        assert_eq!(
            s.range_scan(1996, 2002, usize::MAX).unwrap(),
            vec![(1996, 998), (1998, 999), (2001, 555)],
            "the ordered tier sees the insert, in key order"
        );
        assert!(s.update(2001, 556).unwrap());
        assert_eq!(
            s.range_scan_desc(2001, 2001, usize::MAX).unwrap(),
            vec![(2001, 556)]
        );
        assert!(s.delete(2001).unwrap());
        assert_eq!(s.lookup(2001).unwrap(), Vec::<u64>::new());
        assert_eq!(s.range_scan(2001, 2001, usize::MAX).unwrap(), vec![]);
        let stats = s.shutdown();
        assert_eq!(stats.total_write_ops(), 3, "each op counts once");
    }

    #[test]
    fn batched_writes_ack_positionally() {
        let s = service(100, &ServeConfig::default());
        // A batch spanning shards: acks come back in request order.
        let pairs: Vec<(u64, u64)> = (200..232).map(|k| (k, k + 1)).collect();
        let pending = s
            .submit(Request::Insert {
                pairs: pairs.clone(),
            })
            .unwrap();
        assert_eq!(
            pending.wait(),
            Response::Write {
                acks: vec![true; 32]
            }
        );
        // Delete interleaving hits (even positions) and misses.
        let keys: Vec<u64> = (0..32u64)
            .map(|i| if i % 2 == 0 { 200 + i } else { 900 + i })
            .collect();
        match s.submit(Request::Delete { keys }).unwrap().wait() {
            Response::Write { acks } => {
                assert_eq!(acks.len(), 32);
                for (i, ack) in acks.iter().enumerate() {
                    assert_eq!(*ack, i % 2 == 0, "ack {i} positional");
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
        // An empty batch completes instantly with no acks.
        assert_eq!(
            s.submit(Request::Update { pairs: vec![] }).unwrap().wait(),
            Response::Write { acks: vec![] }
        );
    }

    #[test]
    fn writes_after_stop_are_refused_but_accepted_writes_drain() {
        let s = service(100, &ServeConfig::default());
        let pending = s
            .submit(Request::Insert {
                pairs: vec![(300, 1), (301, 2)],
            })
            .unwrap();
        s.stop();
        assert_eq!(s.insert(302, 3), Err(SubmitError::Stopped));
        assert_eq!(s.delete(300), Err(SubmitError::Stopped));
        assert_eq!(
            pending.wait(),
            Response::Write {
                acks: vec![true, true]
            },
            "accepted writes drain before the halt"
        );
        let stats = s.shutdown();
        assert_eq!(stats.total_write_applied(), 2);
    }

    #[test]
    fn quiescent_live_stats_match_the_final_snapshot_for_writes() {
        // The drain-before-snapshot contract: once every submitted
        // response has resolved, the live write counters already equal
        // what shutdown will report — workers publish a write batch
        // into the registry *before* completing its reply.
        let s = range_service(500, &ServeConfig::default().with_batch_size(8));
        let mut pendings = Vec::new();
        for k in 0..200u64 {
            pendings.push(
                s.submit(Request::Insert {
                    pairs: vec![(3000 + k, k)],
                })
                .unwrap(),
            );
            pendings.push(s.submit(Request::Lookup { key: k * 2 }).unwrap());
            if k % 3 == 0 {
                pendings.push(
                    s.submit(Request::Delete {
                        keys: vec![3000 + k, 7],
                    })
                    .unwrap(),
                );
            }
        }
        for p in pendings {
            let _ = p.wait();
        }
        let live = s.live_stats();
        let total_ops = live.total_write_ops();
        let total_applied = live.total_write_applied();
        let total_batches = live.total_write_batches();
        // Each op lands in both tiers at one barrier and counts once.
        assert_eq!(total_ops, 200 + 67 * 2, "every accepted op published");
        let stats = s.shutdown();
        assert_eq!(stats.total_write_ops(), total_ops);
        assert_eq!(stats.total_write_applied(), total_applied);
        assert_eq!(stats.total_write_batches(), total_batches);
        for (live_w, final_w) in live.workers.iter().zip(&stats.workers) {
            assert_eq!(live_w.write_ops, final_w.write_ops);
            assert_eq!(live_w.write_applied, final_w.write_applied);
            assert_eq!(live_w.write_batches, final_w.write_batches);
        }
    }
}
