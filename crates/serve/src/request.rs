//! The typed request/response surface of the probe service, plus the
//! completion plumbing connecting shard workers back to waiting clients
//! — buffered ([`PendingResponse`]) and chunk-streaming
//! ([`PendingStream`]).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use widx_obs::{
    ActiveTrace, FlightRecorder, PendingCommit, Stage, StageTimes, WalkCounters, WorkerCell,
};

/// One write operation, as routed to the shard that owns its key. The
/// owning shard worker applies it under the shard's write guard at a
/// batch barrier — the single-writer-per-shard model that keeps the
/// shard locks structurally uncontended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOp {
    /// Append `payload` under `key` (duplicates accumulate, after any
    /// existing payloads for the key). Always applies.
    Insert {
        /// The key to insert under.
        key: u64,
        /// The payload to store.
        payload: u64,
    },
    /// Remove *every* payload stored under `key`. Applies when at least
    /// one entry existed; a miss acks `false`.
    Delete {
        /// The key to remove.
        key: u64,
    },
    /// Replace every payload under `key` with the single `payload`.
    /// Applies only when the key existed — an update never inserts, a
    /// miss acks `false` and leaves the index unchanged.
    Update {
        /// The key to update.
        key: u64,
        /// The replacement payload.
        payload: u64,
    },
}

impl WriteOp {
    /// The key this operation routes by.
    #[must_use]
    pub fn key(&self) -> u64 {
        match self {
            WriteOp::Insert { key, .. } | WriteOp::Delete { key } | WriteOp::Update { key, .. } => {
                *key
            }
        }
    }
}

/// A probe request submitted to the service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// All payloads stored under one key (the serving analogue of
    /// [`widx_db::index::HashIndex::lookup_all`]).
    Lookup {
        /// The key to probe.
        key: u64,
    },
    /// Probe a batch of keys; the response carries `(key, payload)`
    /// matches, unordered, duplicates included.
    MultiLookup {
        /// The keys to probe (duplicates allowed).
        keys: Vec<u64>,
    },
    /// Probe the keys of an outer-relation column; the response carries
    /// `(probe row, payload)` pairs — the positional index-join form the
    /// paper's hash-join inner loop produces.
    JoinProbe {
        /// The outer relation's key column, in row order.
        keys: Vec<u64>,
    },
    /// Scan the ordered index for every entry with a key in `[lo, hi]`;
    /// the response carries `(key, payload)` entries in key order,
    /// truncated to the first `limit`. Served by the range-partitioned
    /// B+-tree tier — the service scatters the scan over the shards the
    /// interval overlaps and gathers their disjoint, pre-ordered
    /// streams back into one reply.
    RangeScan {
        /// Inclusive lower key bound.
        lo: u64,
        /// Inclusive upper key bound (`lo > hi` is a valid, empty scan).
        hi: u64,
        /// Maximum entries returned (`usize::MAX` for unbounded).
        limit: usize,
        /// Scan direction: `false` ascends, `true` serves
        /// `ORDER BY key DESC` — descending key order, duplicates in
        /// reverse build order, the *largest* keys surviving `limit`.
        desc: bool,
    },
    /// Insert `(key, payload)` pairs. Every pair applies; the response
    /// acks each one `true`, in request order.
    Insert {
        /// The `(key, payload)` pairs to insert.
        pairs: Vec<(u64, u64)>,
    },
    /// Delete every payload under each key. Each key acks `true` when
    /// at least one entry existed, `false` on a miss.
    Delete {
        /// The keys to delete.
        keys: Vec<u64>,
    },
    /// Replace every payload under each key with the paired payload.
    /// Each pair acks `true` when the key existed; a miss acks `false`
    /// and inserts nothing.
    Update {
        /// The `(key, replacement payload)` pairs.
        pairs: Vec<(u64, u64)>,
    },
}

impl Request {
    /// The probe keys of this request, in row order (empty for a
    /// [`RangeScan`](Request::RangeScan), which is bounded by keys
    /// rather than enumerating them, and for write requests, which
    /// route through the write planner instead).
    #[must_use]
    pub fn keys(&self) -> &[u64] {
        match self {
            Request::Lookup { key } => std::slice::from_ref(key),
            Request::MultiLookup { keys } | Request::JoinProbe { keys } => keys,
            Request::RangeScan { .. } | Request::Insert { .. } | Request::Update { .. } => &[],
            Request::Delete { keys } => keys,
        }
    }

    /// The flat operation list of a write request (`None` for reads).
    /// Operation order is request order — the order response acks are
    /// reported in.
    #[must_use]
    pub fn write_ops(&self) -> Option<Vec<WriteOp>> {
        match self {
            Request::Insert { pairs } => Some(
                pairs
                    .iter()
                    .map(|&(key, payload)| WriteOp::Insert { key, payload })
                    .collect(),
            ),
            Request::Delete { keys } => {
                Some(keys.iter().map(|&key| WriteOp::Delete { key }).collect())
            }
            Request::Update { pairs } => Some(
                pairs
                    .iter()
                    .map(|&(key, payload)| WriteOp::Update { key, payload })
                    .collect(),
            ),
            _ => None,
        }
    }
}

/// What kind of response a request assembles into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RequestKind {
    Lookup {
        key: u64,
    },
    MultiLookup,
    JoinProbe,
    RangeScan {
        limit: usize,
    },
    /// A write batch of `ops` operations; acks assemble positionally.
    Write {
        ops: usize,
    },
}

/// A completed probe response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Every payload stored under the looked-up key.
    Lookup {
        /// The probed key.
        key: u64,
        /// All payloads found (empty on a miss).
        payloads: Vec<u64>,
    },
    /// `(key, payload)` matches for a [`Request::MultiLookup`],
    /// unordered.
    MultiLookup {
        /// All `(probe key, payload)` matches.
        matches: Vec<(u64, u64)>,
    },
    /// `(probe row, payload)` pairs for a [`Request::JoinProbe`],
    /// unordered.
    JoinProbe {
        /// All `(outer row index, payload)` join pairs.
        pairs: Vec<(u64, u64)>,
    },
    /// The merged reply to a [`Request::RangeScan`]: per-shard result
    /// streams gathered back into one key order — ascending (duplicates
    /// in build order) or, for a `desc` request, descending (duplicates
    /// in reverse build order) — truncated to the request's `limit`.
    RangeScan {
        /// `(key, payload)` entries in request key order.
        entries: Vec<(u64, u64)>,
    },
    /// Per-operation acknowledgements for a write request
    /// ([`Request::Insert`]/[`Delete`](Request::Delete)/
    /// [`Update`](Request::Update)), in request operation order: `true`
    /// when the operation took effect (inserts always; deletes and
    /// updates only when the key existed).
    Write {
        /// Applied/miss flag per operation, positionally.
        acks: Vec<bool>,
    },
}

impl Response {
    /// Number of matches the response carries, regardless of variant
    /// (payloads for a `Lookup`, pairs otherwise) — misses contribute
    /// zero.
    #[must_use]
    pub fn match_count(&self) -> usize {
        match self {
            Response::Lookup { payloads, .. } => payloads.len(),
            Response::MultiLookup { matches } => matches.len(),
            Response::JoinProbe { pairs } => pairs.len(),
            Response::RangeScan { entries } => entries.len(),
            Response::Write { acks } => acks.iter().filter(|a| **a).count(),
        }
    }
}

/// One match as routed internally: `(probe row, key, payload)`.
pub(crate) type RoutedMatch = (u32, u64, u64);

/// One scatter rank's stash of streamed chunks that cannot be released
/// yet (a rank earlier in output order is still scanning).
#[derive(Default)]
struct RankBuf {
    chunks: VecDeque<Vec<(u64, u64)>>,
    done: bool,
}

/// The streaming gather seam of one chunked range scan. Ranks release
/// strictly in order — rank `head` forwards chunks as they arrive, later
/// ranks stash until every earlier rank's part has completed — so the
/// released chunk sequence concatenates to exactly the buffered
/// [`Response::RangeScan`], with the request's `limit` still applied
/// here at the seam (`remaining` counts it down; once it hits zero the
/// stream ends early and everything still in flight is discarded).
struct StreamState {
    /// Index of the rank currently allowed to release chunks.
    head: usize,
    ranks: Vec<RankBuf>,
    /// Released, key-ordered, limit-truncated chunks awaiting the
    /// consumer.
    ready: VecDeque<Vec<(u64, u64)>>,
    /// Entries the seam may still release before the limit.
    remaining: usize,
    /// Recycled chunk buffers: consumed in place by
    /// [`PendingStream::try_next_with`], handed back to the pushing
    /// worker by [`ResponseState::push_chunk`] so the steady state of a
    /// long scan allocates no fresh chunk `Vec`s at all.
    spare: Vec<Vec<(u64, u64)>>,
}

/// Recycled chunk buffers retained per stream; beyond this they drop,
/// so a burst of consumed chunks cannot pin memory on a quiet stream.
const STREAM_SPARE_CAP: usize = 8;

impl StreamState {
    /// Whether the stream can produce nothing further (the consumer
    /// sees `End` once `ready` drains).
    fn finished(&self, all_parts_done: bool) -> bool {
        all_parts_done || self.remaining == 0
    }

    /// Returns a consumed chunk's buffer to the spare pool (cleared).
    fn recycle(&mut self, mut chunk: Vec<(u64, u64)>) {
        if self.spare.len() < STREAM_SPARE_CAP {
            chunk.clear();
            self.spare.push(chunk);
        }
    }
}

/// Everything a traced request carries until its trace commits: the
/// span timeline under construction, the recorder to commit into, and
/// the commit policy. `deferred` marks traces the net tier closes (the
/// reply-write span outlives the service-side completion), so the final
/// part's completion leaves them in place for the [`ReplyMark`] instead
/// of committing at wakeup.
pub(crate) struct TraceState {
    pub(crate) active: ActiveTrace,
    pub(crate) recorder: Arc<FlightRecorder>,
    pub(crate) slow_threshold: Option<Duration>,
    pub(crate) deferred: bool,
    /// Barrier ticket taken when the trace was armed. Every commit path
    /// runs its `offer` *before* this field drops (fields drop after the
    /// statement that moved `active` out), so once
    /// [`FlightRecorder::flush`] returns, the recorder has seen this
    /// trace's commit decision — including a deferred trace whose
    /// mark was dropped without committing.
    pub(crate) _commit_ticket: PendingCommit,
}

impl TraceState {
    /// Seal the trace at `end` and apply the recorder's sampling and
    /// slow-threshold commit policy.
    fn commit(self, end: Instant) {
        let total = end.saturating_duration_since(self.active.base());
        self.recorder.offer(self.active, total, self.slow_threshold);
    }
}

/// A completed request handed to a front-end that writes its reply: the
/// instant its last part finished, which opens the
/// [`reply_write`](Stage::ReplyWrite) stage, plus its deferred trace when
/// one rides it. Close it with [`flushed`](ReplyMark::flushed) once the
/// reply bytes are on the socket; dropping it leaves the stage
/// unrecorded and the trace uncommitted.
pub struct ReplyMark {
    /// `None` when the reply went out before the last part finished (a
    /// stream its limit ended early).
    done: Option<Instant>,
    trace: Option<Box<TraceState>>,
}

impl ReplyMark {
    /// Close the reply-write stage at `flushed`: record it into `stages`
    /// and commit the trace, whose last span now ends at `flushed`.
    pub fn flushed(self, stages: &StageTimes, flushed: Instant) {
        if let Some(done) = self.done {
            stages.record(Stage::ReplyWrite, flushed.saturating_duration_since(done));
        }
        if let Some(mut trace) = self.trace {
            if let Some(done) = self.done {
                trace.active.span_between(Stage::ReplyWrite, done, flushed);
            }
            trace.commit(flushed);
        }
    }
}

/// The instants one shard part crossed its worker's stage boundaries —
/// each a single clock reading the worker also used for its profiler
/// window. With the request's submit instant they tile the part's life.
#[derive(Clone, Copy)]
pub(crate) struct PartStamps {
    /// Admitted into a batch, or its application began at a write barrier.
    pub(crate) admitted: Instant,
    /// The part's batch closed; `None` for a write part.
    pub(crate) closed: Option<Instant>,
    /// The part completed: its batch drained, or its ops were applied.
    pub(crate) done: Instant,
}

impl PartStamps {
    /// The part's stages as `(stage, end)` in pipeline order; each stage
    /// starts where the previous one ended, the first at submit.
    fn ends(self) -> impl Iterator<Item = (Stage, Instant)> {
        let (work, walked) = match self.closed {
            Some(closed) => (Stage::Walk, Some((Stage::BatchWait, closed))),
            None => (Stage::Write, None),
        };
        std::iter::once((Stage::QueueWait, self.admitted))
            .chain(walked)
            .chain(std::iter::once((work, self.done)))
    }
}

/// One shard part finishing at its worker: its stamps, plus the worker's
/// shard (for traces), cell (the histogram home of a request it
/// completes) and the walker counters of the part's batch.
pub(crate) struct PartDone<'a> {
    pub(crate) stamps: PartStamps,
    pub(crate) shard: u32,
    pub(crate) cell: &'a WorkerCell,
    pub(crate) walk: WalkCounters,
}

/// What the final part's completion hands out once the lock drops: the
/// latency, and an in-process trace to seal at the last part's done.
type Finished = (Duration, Option<(Box<TraceState>, Instant)>);

pub(crate) struct PendingInner {
    pub(crate) parts_left: usize,
    pub(crate) items: Vec<RoutedMatch>,
    /// `Some` on chunk-streaming range scans; `None` on buffered
    /// requests.
    stream: Option<StreamState>,
    /// Completion hook: invoked (outside the lock) whenever a chunk
    /// becomes consumable or the request completes, so a polling event
    /// loop can skip scanning pending lists that saw no progress.
    waker: Option<Arc<dyn Fn() + Send + Sync>>,
    pub(crate) kind: RequestKind,
    /// The stamps of the part that finished first (earliest `done`): its
    /// stages, then the gather, tile the request's life.
    first: Option<PartStamps>,
    /// The latest part `done` so far — once every part has finished, the
    /// request's completion instant (the submit instant for a request
    /// born complete).
    last_done: Option<Instant>,
    /// Per-request trace under construction, when sampling armed one.
    trace: Option<Box<TraceState>>,
    pub(crate) done: bool,
    /// Stream readers parked on `ready` (a reader bumps this and parks
    /// in one critical section).
    #[cfg(test)]
    blocked_readers: usize,
}

/// Shared completion state for one in-flight request: workers complete
/// shard-parts (and, on streaming scans, push chunks); the client
/// blocks in [`PendingResponse::wait`] or drains a [`PendingStream`].
pub(crate) struct ResponseState {
    pub(crate) inner: Mutex<PendingInner>,
    pub(crate) ready: Condvar,
    /// Submission time — the start of every request's timeline (or of its
    /// `queue_wait`, behind a network tier); immutable after construction.
    pub(crate) submitted: Instant,
}

impl ResponseState {
    pub(crate) fn new(kind: RequestKind, parts: usize) -> ResponseState {
        let submitted = Instant::now();
        ResponseState {
            inner: Mutex::new(PendingInner {
                parts_left: parts,
                items: Vec::new(),
                stream: None,
                waker: None,
                kind,
                first: None,
                last_done: (parts == 0).then_some(submitted),
                trace: None,
                done: parts == 0,
                #[cfg(test)]
                blocked_readers: 0,
            }),
            ready: Condvar::new(),
            submitted,
        }
    }

    /// Attaches an armed trace. Must be called before the state is
    /// shared (it takes `self` by value precisely so no lock is needed).
    /// A zero-part request is already complete, so a non-deferred trace
    /// commits on the spot instead of waiting for a completion that will
    /// never run.
    pub(crate) fn with_trace(mut self, trace: Box<TraceState>) -> ResponseState {
        let inner = self.inner.get_mut().expect("pending lock");
        if inner.done && !trace.deferred {
            trace.commit(self.submitted);
            return self;
        }
        inner.trace = Some(trace);
        self
    }

    /// The mark a front-end closes once the reply to this (completed)
    /// request is flushed: the completion instant plus any deferred trace.
    fn reply_mark(&self, inner: &mut PendingInner) -> ReplyMark {
        ReplyMark {
            done: inner.last_done.filter(|_| inner.done),
            trace: inner.trace.take(),
        }
    }

    /// A streaming state: `parts` scatter ranks whose chunks the seam
    /// releases in rank order, `limit` applied as they release.
    pub(crate) fn new_stream(kind: RequestKind, parts: usize, limit: usize) -> ResponseState {
        let state = ResponseState::new(kind, parts);
        state.inner.lock().expect("pending lock").stream = Some(StreamState {
            head: 0,
            ranks: (0..parts).map(|_| RankBuf::default()).collect(),
            ready: VecDeque::new(),
            remaining: limit,
            spare: Vec::new(),
        });
        state
    }

    /// Whether workers should stream chunks to this state instead of
    /// accumulating a buffered reply.
    pub(crate) fn is_streaming(&self) -> bool {
        self.inner.lock().expect("pending lock").stream.is_some()
    }
    /// Releases everything releasable: the head rank's stashed chunks,
    /// advancing `head` over completed ranks. Returns true when the
    /// consumer-visible state changed (a chunk released, or the limit
    /// exhausted the stream).
    fn drain_released(stream: &mut StreamState) -> bool {
        let mut released = false;
        while stream.head < stream.ranks.len() && stream.remaining > 0 {
            while let Some(mut chunk) = stream.ranks[stream.head].chunks.pop_front() {
                chunk.truncate(stream.remaining);
                stream.remaining -= chunk.len();
                if !chunk.is_empty() {
                    stream.ready.push_back(chunk);
                    released = true;
                }
                if stream.remaining == 0 {
                    break;
                }
            }
            if stream.remaining == 0 {
                // Limit exhausted at the seam: the stream's end is now
                // observable; drop whatever later ranks stashed.
                for rank in &mut stream.ranks {
                    rank.chunks.clear();
                }
                released = true;
                break;
            }
            if stream.ranks[stream.head].done {
                stream.head += 1;
            } else {
                break;
            }
        }
        released
    }

    /// Called by a shard worker when a streaming scan's walker has
    /// yielded a chunk for scatter rank `rank`. Chunks for the head
    /// rank become consumable immediately; later ranks stash until the
    /// seam reaches them.
    ///
    /// Returns a recycled chunk buffer (cleared, capacity intact) when
    /// the seam has one — the worker's next chunk for this stream can
    /// reuse it instead of allocating. A chunk pushed after the limit
    /// exhausted is handed straight back the same way.
    pub(crate) fn push_chunk(
        &self,
        rank: u32,
        mut chunk: Vec<(u64, u64)>,
    ) -> Option<Vec<(u64, u64)>> {
        if chunk.is_empty() {
            return Some(chunk);
        }
        let mut inner = self.inner.lock().expect("pending lock");
        let stream = inner
            .stream
            .as_mut()
            .expect("chunk pushed to a buffered request");
        if stream.remaining == 0 {
            // Limit already exhausted; the entries are discarded but the
            // buffer goes back to the worker for its next stream.
            chunk.clear();
            return Some(chunk);
        }
        stream.ranks[rank as usize].chunks.push_back(chunk);
        let spare = stream.spare.pop();
        if Self::drain_released(stream) {
            self.ready.notify_all();
            let waker = inner.waker.clone();
            drop(inner);
            if let Some(wake) = waker {
                wake();
            }
        }
        spare
    }

    /// Called by a shard worker when a streaming scan's part for
    /// scatter rank `rank` has fully drained (every chunk pushed).
    /// Returns the completion latency when this was the final part.
    pub(crate) fn complete_stream_part(&self, rank: u32, part: &PartDone<'_>) -> Option<Duration> {
        let mut inner = self.inner.lock().expect("pending lock");
        let stream = inner
            .stream
            .as_mut()
            .expect("stream part completed on a buffered request");
        stream.ranks[rank as usize].done = true;
        Self::drain_released(stream);
        let finished = self.finish_part(&mut inner, part);
        // Head advancement may have released chunks, and completion may
        // have ended the stream — wake unconditionally; spurious wakes
        // only cost the consumer one empty poll.
        self.release(inner, finished)
    }

    /// Called by a shard worker when this request's slice of a batch has
    /// fully drained. Returns the request's completion latency when this
    /// was the final outstanding part.
    pub(crate) fn complete_part(
        &self,
        items: &[RoutedMatch],
        part: &PartDone<'_>,
    ) -> Option<Duration> {
        let mut inner = self.inner.lock().expect("pending lock");
        inner.items.extend_from_slice(items);
        let finished = self.finish_part(&mut inner, part)?;
        self.release(inner, Some(finished))
    }

    /// Folds one finished part into the request, under its lock. The
    /// final part records the request into the completing worker's cell
    /// **before** any completion signal — a caller whose `wait()` has
    /// returned must find the request counted by a `live_stats()` scrape:
    /// the first-done part's stages, then the gather to the last part's
    /// `done`, each the difference of two stamps, and the latency from
    /// submit to that same `done` — so the stages add up to the latency
    /// exactly. The trace's spans are built from the same instants.
    fn finish_part(&self, inner: &mut PendingInner, part: &PartDone<'_>) -> Option<Finished> {
        if let Some(trace) = inner.trace.as_deref_mut() {
            trace.active.add_shard(part.shard);
            trace.active.add_walk(&part.walk);
        }
        let stamps = part.stamps;
        if inner.first.is_none_or(|first| stamps.done < first.done) {
            inner.first = Some(stamps);
        }
        inner.last_done = inner.last_done.max(Some(stamps.done));
        inner.parts_left -= 1;
        if inner.parts_left > 0 {
            return None;
        }
        inner.done = true;
        let (first, last) = (inner.first?, inner.last_done?);
        let mut from = self.submitted;
        for (stage, end) in first.ends().chain(std::iter::once((Stage::Gather, last))) {
            part.cell
                .record_stage(stage, end.saturating_duration_since(from));
            if let Some(trace) = inner.trace.as_deref_mut() {
                trace.active.span_between(stage, from, end);
            }
            from = end;
        }
        let latency = last.saturating_duration_since(self.submitted);
        part.cell.record_latency(latency);
        let commit = match &inner.trace {
            Some(trace) if !trace.deferred => inner.trace.take().map(|trace| (trace, last)),
            _ => None,
        };
        Some((latency, commit))
    }

    /// Signals progress once a part's completion is folded in: wakes
    /// blocked waiters, commits an in-process trace, then runs the
    /// completion hook, all after the lock drops. Returns the latency
    /// when the request completed.
    fn release(
        &self,
        inner: MutexGuard<'_, PendingInner>,
        finished: Option<Finished>,
    ) -> Option<Duration> {
        self.ready.notify_all();
        let waker = inner.waker.clone();
        drop(inner);
        let latency = finished.map(|(latency, commit)| {
            if let Some((trace, end)) = commit {
                trace.commit(end);
            }
            latency
        });
        if let Some(wake) = waker {
            wake();
        }
        latency
    }

    /// Installs the completion hook, invoking it immediately (once)
    /// when the state already has consumable progress — so a caller
    /// registering after completion still learns about it.
    fn install_waker(&self, waker: Arc<dyn Fn() + Send + Sync>) {
        let wake_now = {
            let mut inner = self.inner.lock().expect("pending lock");
            let ready_now = inner.done
                || inner
                    .stream
                    .as_ref()
                    .is_some_and(|s| !s.ready.is_empty() || s.remaining == 0);
            inner.waker = Some(Arc::clone(&waker));
            ready_now
        };
        if wake_now {
            waker();
        }
    }
}

/// A handle to a submitted request; [`wait`](PendingResponse::wait)
/// blocks until every shard involved has answered.
pub struct PendingResponse {
    pub(crate) state: Arc<ResponseState>,
}

impl PendingResponse {
    /// Blocks until the request completes and assembles its response.
    #[must_use]
    pub fn wait(self) -> Response {
        self.wait_reply().0
    }

    /// [`wait`](Self::wait) for a front-end that writes the reply itself:
    /// also hands back the [`ReplyMark`] that records the request's
    /// reply-write stage, and commits its deferred trace, once the reply
    /// bytes are flushed.
    #[must_use]
    pub fn wait_reply(self) -> (Response, ReplyMark) {
        let mut inner = self.state.inner.lock().expect("pending lock");
        while !inner.done {
            inner = self.state.ready.wait(inner).expect("pending wait");
        }
        let mark = self.state.reply_mark(&mut inner);
        (Self::assemble(&mut inner), mark)
    }

    /// Like [`wait`](PendingResponse::wait), but gives up after
    /// `timeout`, returning the handle back so the caller can retry —
    /// an escape hatch for supervisors that must not hang if a worker
    /// died mid-request.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when the deadline passes first.
    pub fn wait_timeout(self, timeout: std::time::Duration) -> Result<Response, PendingResponse> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.state.inner.lock().expect("pending lock");
        while !inner.done {
            let now = Instant::now();
            if now >= deadline {
                drop(inner);
                return Err(self);
            }
            let (guard, _) = self
                .state
                .ready
                .wait_timeout(inner, deadline - now)
                .expect("pending wait");
            inner = guard;
        }
        let response = Self::assemble(&mut inner);
        drop(inner);
        Ok(response)
    }

    fn assemble(inner: &mut PendingInner) -> Response {
        let items = std::mem::take(&mut inner.items);
        match inner.kind {
            RequestKind::Lookup { key } => Response::Lookup {
                key,
                payloads: items.into_iter().map(|(_, _, payload)| payload).collect(),
            },
            RequestKind::MultiLookup => Response::MultiLookup {
                matches: items
                    .into_iter()
                    .map(|(_, key, payload)| (key, payload))
                    .collect(),
            },
            RequestKind::JoinProbe => Response::JoinProbe {
                pairs: items
                    .into_iter()
                    .map(|(row, _, payload)| (u64::from(row), payload))
                    .collect(),
            },
            RequestKind::RangeScan { limit } => {
                // Shard parts arrive in completion order, but each part
                // is already key-ordered and the parts' key ranges are
                // disjoint and ascending in scatter-rank order (range
                // partitioning), so bucketing by rank and concatenating
                // restores the global scan order in O(n) — no sort on
                // the gather path. The per-shard walkers each honoured
                // `limit` locally; the global truncation happens here,
                // at the seam.
                let mut buckets: Vec<Vec<(u64, u64)>> = Vec::new();
                for (rank, key, payload) in items {
                    let rank = rank as usize;
                    if rank >= buckets.len() {
                        buckets.resize_with(rank + 1, Vec::new);
                    }
                    buckets[rank].push((key, payload));
                }
                let mut entries: Vec<(u64, u64)> = buckets.into_iter().flatten().collect();
                entries.truncate(limit);
                Response::RangeScan { entries }
            }
            RequestKind::Write { ops } => {
                // Items are `(op index, key, applied)` rows from the
                // shard workers. Unreported ops cannot happen — every op
                // is routed to exactly one shard — but default to a miss
                // ack defensively.
                let mut acks = vec![false; ops];
                for (op, _key, applied) in items {
                    acks[op as usize] = applied != 0;
                }
                Response::Write { acks }
            }
        }
    }

    /// Whether the response is already complete (non-blocking).
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.state.inner.lock().expect("pending lock").done
    }

    /// Installs a completion hook invoked when the request completes
    /// (and immediately, once, if it already has). Lets a polling event
    /// loop skip scanning its pending list until something actually
    /// completed, instead of calling [`is_ready`](Self::is_ready) on
    /// every entry every tick. Replaces any previously installed hook.
    pub fn set_waker(&self, waker: impl Fn() + Send + Sync + 'static) {
        self.state.install_waker(Arc::new(waker));
    }
}

/// What a non-blocking [`PendingStream::try_next`] observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamPoll {
    /// The next key-ordered chunk (non-empty, at most the service's
    /// `stream_chunk` entries).
    Chunk(Vec<(u64, u64)>),
    /// The stream is complete: every chunk has been taken. Terminal.
    End,
    /// No chunk consumable yet — poll again later (or install a waker).
    Pending,
}

/// What a zero-copy [`PendingStream::try_next_with`] poll observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamConsumed {
    /// The sink was handed one chunk of this many entries; its buffer
    /// was recycled into the seam's spare pool for the pushing worker.
    Consumed(usize),
    /// The stream is complete: every chunk has been taken. Terminal.
    End,
    /// No chunk consumable yet — poll again later (or install a waker).
    Pending,
}

/// A handle to a chunk-streaming range scan: chunks become consumable
/// *while shards are still scanning* — per-shard walkers push chunks as
/// they yield, and the gather seam forwards them in merged key order
/// (ascending or descending as requested) with the request's `limit`
/// applied at the seam. The concatenation of every chunk equals the
/// buffered [`Response::RangeScan`] for the same scan, exactly.
pub struct PendingStream {
    pub(crate) state: Arc<ResponseState>,
}

impl PendingStream {
    /// Non-blocking poll for the next chunk.
    #[must_use]
    pub fn try_next(&mut self) -> StreamPoll {
        let mut inner = self.state.inner.lock().expect("pending lock");
        let done = inner.done;
        let stream = inner
            .stream
            .as_mut()
            .expect("stream handle over a buffered state");
        if let Some(chunk) = stream.ready.pop_front() {
            return StreamPoll::Chunk(chunk);
        }
        if stream.finished(done) {
            StreamPoll::End
        } else {
            StreamPoll::Pending
        }
    }

    /// Non-blocking zero-copy poll: when a chunk is consumable, `sink`
    /// is handed a borrow of it and the buffer is recycled into the
    /// seam's spare pool — the path the net tier serializes chunks
    /// straight out of, without the owned-`Vec` handoff of
    /// [`try_next`](Self::try_next).
    ///
    /// `sink` runs under the seam lock: keep it short (serialize and
    /// return) and never call back into this stream or its service from
    /// inside it.
    pub fn try_next_with<F: FnOnce(&[(u64, u64)])>(&mut self, sink: F) -> StreamConsumed {
        let mut inner = self.state.inner.lock().expect("pending lock");
        let done = inner.done;
        let stream = inner
            .stream
            .as_mut()
            .expect("stream handle over a buffered state");
        if let Some(chunk) = stream.ready.pop_front() {
            sink(&chunk);
            let n = chunk.len();
            stream.recycle(chunk);
            return StreamConsumed::Consumed(n);
        }
        if stream.finished(done) {
            StreamConsumed::End
        } else {
            StreamConsumed::Pending
        }
    }

    /// Blocks for the next chunk; `None` means the stream has ended.
    /// (Also available through the [`Iterator`] impl.)
    #[must_use]
    pub fn next_chunk(&mut self) -> Option<Vec<(u64, u64)>> {
        let mut inner = self.state.inner.lock().expect("pending lock");
        loop {
            let done = inner.done;
            let stream = inner
                .stream
                .as_mut()
                .expect("stream handle over a buffered state");
            if let Some(chunk) = stream.ready.pop_front() {
                return Some(chunk);
            }
            if stream.finished(done) {
                return None;
            }
            #[cfg(test)]
            {
                inner.blocked_readers += 1;
            }
            inner = self.state.ready.wait(inner).expect("pending wait");
            #[cfg(test)]
            {
                inner.blocked_readers -= 1;
            }
        }
    }

    /// Blocks until the stream ends, concatenating every remaining
    /// chunk — the buffered reply, delivered late. Mostly a convenience
    /// for tests and oracles.
    #[must_use]
    pub fn collect_remaining(&mut self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(chunk) = self.next_chunk() {
            out.extend(chunk);
        }
        out
    }

    /// Whether a chunk (or the end of the stream) is consumable right
    /// now — [`try_next`](Self::try_next) would not return `Pending`.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        let inner = self.state.inner.lock().expect("pending lock");
        let stream = inner
            .stream
            .as_ref()
            .expect("stream handle over a buffered state");
        !stream.ready.is_empty() || stream.finished(inner.done)
    }

    /// Installs a chunk-ready hook invoked whenever a chunk becomes
    /// consumable or the stream ends (and immediately, once, if either
    /// already holds) — the completion-wakeup contract that lets the
    /// net event loop skip streams that made no progress. Replaces any
    /// previously installed hook.
    pub fn set_waker(&self, waker: impl Fn() + Send + Sync + 'static) {
        self.state.install_waker(Arc::new(waker));
    }

    /// The [`ReplyMark`] of this stream, for a front-end to close once
    /// the stream's final frame is flushed — see
    /// [`PendingResponse::wait_reply`]. Take it once the stream has ended
    /// (`StreamPoll::End`). A stream its limit ended while shards were
    /// still scanning has no completion instant yet: its mark records no
    /// reply-write stage.
    #[must_use]
    pub fn reply_mark(&self) -> ReplyMark {
        let mut inner = self.state.inner.lock().expect("pending lock");
        self.state.reply_mark(&mut inner)
    }
}

impl Iterator for PendingStream {
    type Item = Vec<(u64, u64)>;

    /// Blocking iteration over the stream's chunks, in key order.
    fn next(&mut self) -> Option<Vec<(u64, u64)>> {
        self.next_chunk()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::LazyLock;

    use super::*;

    static CELL: LazyLock<WorkerCell> = LazyLock::new(WorkerCell::new);

    /// A read part finishing now, recorded into a shared throwaway cell.
    fn part() -> PartDone<'static> {
        let now = Instant::now();
        PartDone {
            stamps: PartStamps {
                admitted: now,
                closed: Some(now),
                done: now,
            },
            shard: 0,
            cell: &CELL,
            walk: WalkCounters::default(),
        }
    }

    #[test]
    fn stages_tile_submit_to_the_last_part_done() {
        let cell = WorkerCell::new();
        let done = |state: &ResponseState, admitted, closed: Option<u64>, done| PartDone {
            stamps: PartStamps {
                admitted: state.submitted + Duration::from_micros(admitted),
                closed: closed.map(|us| state.submitted + Duration::from_micros(us)),
                done: state.submitted + Duration::from_micros(done),
            },
            shard: 1,
            cell: &cell,
            walk: WalkCounters::default(),
        };
        // The part completing second finished its walk first: its stages
        // open the timeline, the gather runs to the other part's done.
        let state = ResponseState::new(RequestKind::MultiLookup, 2);
        assert!(state
            .complete_part(&[], &done(&state, 3, Some(9), 20))
            .is_none());
        let latency = state.complete_part(&[], &done(&state, 2, Some(5), 11));
        assert_eq!(latency, Some(Duration::from_micros(20)));
        let write = ResponseState::new(RequestKind::Write { ops: 1 }, 1);
        let _ = write.complete_part(&[], &done(&write, 4, None, 7));

        let snap = cell.snapshot();
        let sums: Vec<u64> = Stage::ALL.map(|s| snap.stages.get(s).sum_ns / 1000).into();
        // net_read, queue_wait, batch_wait, walk, write, gather, reply_write
        assert_eq!(sums, [0, 2 + 4, 3, 6, 3, 9, 0]);
        assert_eq!(snap.latency.sum_ns, 27_000);
    }

    #[test]
    fn request_keys_views() {
        assert_eq!(Request::Lookup { key: 9 }.keys(), &[9]);
        assert_eq!(Request::MultiLookup { keys: vec![1, 2] }.keys(), &[1, 2]);
        assert_eq!(Request::JoinProbe { keys: vec![3] }.keys(), &[3]);
        let scan = Request::RangeScan {
            lo: 1,
            hi: 5,
            limit: 10,
            desc: false,
        };
        assert_eq!(scan.keys(), &[] as &[u64]);
    }

    #[test]
    fn range_scan_parts_merge_in_key_order_with_limit() {
        let state = Arc::new(ResponseState::new(RequestKind::RangeScan { limit: 5 }, 3));
        // Parts complete out of shard order; each part is key-ordered
        // with a disjoint key range. Duplicates (key 20) sit in one part.
        state.complete_part(&[(1, 20, 1), (1, 20, 2), (1, 25, 0)], &part());
        state.complete_part(&[(2, 30, 9), (2, 31, 9)], &part());
        state.complete_part(&[(0, 10, 7), (0, 11, 8)], &part());
        match (PendingResponse { state }).wait() {
            Response::RangeScan { entries } => {
                assert_eq!(
                    entries,
                    vec![(10, 7), (11, 8), (20, 1), (20, 2), (25, 0)],
                    "key order restored, duplicate order kept, limit cut at seam"
                );
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn write_acks_assemble_positionally_from_routed_rows() {
        // 4 ops scattered over two shard parts; op 2 missed.
        let state = Arc::new(ResponseState::new(RequestKind::Write { ops: 4 }, 2));
        state.complete_part(&[(0, 10, 1), (2, 30, 0)], &part());
        state.complete_part(&[(1, 20, 1), (3, 40, 1)], &part());
        match (PendingResponse { state }).wait() {
            Response::Write { acks } => assert_eq!(acks, vec![true, true, false, true]),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn write_requests_expose_ops_and_route_keys() {
        let ins = Request::Insert {
            pairs: vec![(1, 10), (2, 20)],
        };
        assert_eq!(ins.keys(), &[] as &[u64]);
        assert_eq!(
            ins.write_ops().unwrap(),
            vec![
                WriteOp::Insert {
                    key: 1,
                    payload: 10
                },
                WriteOp::Insert {
                    key: 2,
                    payload: 20
                },
            ]
        );
        let del = Request::Delete { keys: vec![7, 8] };
        assert_eq!(del.keys(), &[7, 8]);
        assert_eq!(
            del.write_ops().unwrap(),
            vec![WriteOp::Delete { key: 7 }, WriteOp::Delete { key: 8 }]
        );
        let upd = Request::Update {
            pairs: vec![(3, 9)],
        };
        assert_eq!(
            upd.write_ops().unwrap(),
            vec![WriteOp::Update { key: 3, payload: 9 }]
        );
        assert_eq!(upd.write_ops().unwrap()[0].key(), 3);
        assert!(Request::Lookup { key: 1 }.write_ops().is_none());
        let resp = Response::Write {
            acks: vec![true, false, true],
        };
        assert_eq!(resp.match_count(), 2, "applied ops count as matches");
    }

    #[test]
    fn completion_assembles_lookup() {
        let state = Arc::new(ResponseState::new(RequestKind::Lookup { key: 5 }, 2));
        assert!(state.complete_part(&[(0, 5, 50)], &part()).is_none());
        let latency = state.complete_part(&[(0, 5, 51)], &part());
        assert!(latency.is_some(), "last part yields the latency");
        let resp = PendingResponse { state }.wait();
        match resp {
            Response::Lookup { key, mut payloads } => {
                payloads.sort_unstable();
                assert_eq!((key, payloads), (5, vec![50, 51]));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn join_rows_survive_routing() {
        let state = Arc::new(ResponseState::new(RequestKind::JoinProbe, 1));
        state.complete_part(&[(7, 100, 1), (2, 100, 1)], &part());
        match (PendingResponse { state }).wait() {
            Response::JoinProbe { mut pairs } => {
                pairs.sort_unstable();
                assert_eq!(pairs, vec![(2, 1), (7, 1)]);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn wait_timeout_returns_handle_then_response() {
        let state = Arc::new(ResponseState::new(RequestKind::MultiLookup, 1));
        let pending = PendingResponse {
            state: Arc::clone(&state),
        };
        let pending = pending
            .wait_timeout(std::time::Duration::from_millis(10))
            .expect_err("not complete yet");
        state.complete_part(&[(0, 1, 2)], &part());
        match pending.wait_timeout(std::time::Duration::from_secs(5)) {
            Ok(Response::MultiLookup { matches }) => assert_eq!(matches, vec![(1, 2)]),
            other => panic!("unexpected: {:?}", other.map_err(|_| "timeout")),
        }
    }

    #[test]
    fn zero_part_requests_complete_immediately() {
        let state = Arc::new(ResponseState::new(RequestKind::MultiLookup, 0));
        let pending = PendingResponse { state };
        assert!(pending.is_ready());
        assert_eq!(pending.wait(), Response::MultiLookup { matches: vec![] });
    }

    fn stream_state(parts: usize, limit: usize) -> Arc<ResponseState> {
        Arc::new(ResponseState::new_stream(
            RequestKind::RangeScan { limit },
            parts,
            limit,
        ))
    }

    #[test]
    fn stream_releases_head_rank_immediately_and_stashes_later_ranks() {
        let state = stream_state(3, usize::MAX);
        let mut stream = PendingStream {
            state: Arc::clone(&state),
        };
        assert_eq!(stream.try_next(), StreamPoll::Pending);
        // Rank 1 arrives first: stashed, not consumable.
        state.push_chunk(1, vec![(20, 0), (21, 0)]);
        assert_eq!(stream.try_next(), StreamPoll::Pending);
        // Rank 0 streams through live.
        state.push_chunk(0, vec![(1, 0)]);
        assert_eq!(stream.try_next(), StreamPoll::Chunk(vec![(1, 0)]));
        state.push_chunk(0, vec![(2, 0)]);
        assert_eq!(stream.try_next(), StreamPoll::Chunk(vec![(2, 0)]));
        assert_eq!(stream.try_next(), StreamPoll::Pending);
        // Rank 0 completes: rank 1's stash releases, in order.
        assert!(state.complete_stream_part(0, &part()).is_none());
        assert_eq!(stream.try_next(), StreamPoll::Chunk(vec![(20, 0), (21, 0)]));
        assert_eq!(stream.try_next(), StreamPoll::Pending);
        // Ranks 1 and 2 complete (2 pushed nothing): stream ends, and
        // the final completion reports the latency.
        assert!(state.complete_stream_part(1, &part()).is_none());
        assert!(state.complete_stream_part(2, &part()).is_some());
        assert_eq!(stream.try_next(), StreamPoll::End);
    }

    #[test]
    fn stream_limit_cuts_at_the_seam_and_discards_the_rest() {
        let state = stream_state(2, 3);
        let mut stream = PendingStream {
            state: Arc::clone(&state),
        };
        state.push_chunk(1, vec![(50, 0), (51, 0), (52, 0)]); // stashed
        state.push_chunk(0, vec![(1, 0), (2, 0)]);
        assert_eq!(stream.next(), Some(vec![(1, 0), (2, 0)]));
        assert!(state.complete_stream_part(0, &part()).is_none());
        // One entry of rank 1's stash survives the limit; the rest is
        // discarded and the stream ends even though rank 1's part is
        // still "running".
        assert_eq!(stream.next(), Some(vec![(50, 0)]));
        assert_eq!(stream.next(), None);
        assert!(stream.is_ready());
        // The straggler part still completes for latency accounting.
        state.push_chunk(1, vec![(53, 0)]); // dropped
        assert!(state.complete_stream_part(1, &part()).is_some());
        assert_eq!(stream.try_next(), StreamPoll::End);
    }

    #[test]
    fn zero_part_streams_are_born_ended() {
        let mut stream = PendingStream {
            state: stream_state(0, 10),
        };
        assert!(stream.is_ready());
        assert_eq!(stream.try_next(), StreamPoll::End);
        assert_eq!(stream.next(), None);
    }

    #[test]
    fn stream_waker_fires_on_chunks_end_and_late_registration() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let state = stream_state(1, usize::MAX);
        let stream = PendingStream {
            state: Arc::clone(&state),
        };
        let wakes = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&wakes);
        stream.set_waker(move || {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(wakes.load(Ordering::Relaxed), 0, "nothing ready yet");
        state.push_chunk(0, vec![(1, 1)]);
        assert_eq!(wakes.load(Ordering::Relaxed), 1, "chunk ready");
        state.complete_stream_part(0, &part());
        assert_eq!(wakes.load(Ordering::Relaxed), 2, "end of stream");
        // Late registration on an already-ready state fires immediately.
        let late = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&late);
        stream.set_waker(move || {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(late.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn buffered_waker_fires_on_final_part() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let state = Arc::new(ResponseState::new(RequestKind::MultiLookup, 2));
        let pending = PendingResponse {
            state: Arc::clone(&state),
        };
        let wakes = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&wakes);
        pending.set_waker(move || {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        state.complete_part(&[(0, 1, 2)], &part());
        assert_eq!(wakes.load(Ordering::Relaxed), 0, "one part still out");
        state.complete_part(&[], &part());
        assert_eq!(wakes.load(Ordering::Relaxed), 1, "completion woke");
        assert!(pending.is_ready());
    }

    #[test]
    fn in_place_poll_matches_owned_poll_and_recycles_buffers() {
        let state = stream_state(2, usize::MAX);
        let mut stream = PendingStream {
            state: Arc::clone(&state),
        };
        assert_eq!(
            stream.try_next_with(|_| panic!("nothing ready")),
            StreamConsumed::Pending
        );
        // Nothing consumed yet, so no spare to hand back.
        let first = vec![(1, 10), (2, 20)];
        assert!(state.push_chunk(0, first).is_none());
        let mut seen = Vec::new();
        assert_eq!(
            stream.try_next_with(|entries| seen.extend_from_slice(entries)),
            StreamConsumed::Consumed(2)
        );
        assert_eq!(seen, vec![(1, 10), (2, 20)]);
        // The consumed buffer was recycled: the next push gets it back,
        // cleared but with its capacity intact.
        let spare = state.push_chunk(0, vec![(3, 30)]).expect("recycled buffer");
        assert!(spare.is_empty());
        assert!(spare.capacity() >= 2);
        seen.clear();
        assert_eq!(
            stream.try_next_with(|entries| seen.extend_from_slice(entries)),
            StreamConsumed::Consumed(1)
        );
        assert_eq!(seen, vec![(3, 30)]);
        assert_eq!(
            stream.try_next_with(|_| panic!("pending")),
            StreamConsumed::Pending
        );
        assert!(state.complete_stream_part(0, &part()).is_none());
        assert!(state.complete_stream_part(1, &part()).is_some());
        assert_eq!(
            stream.try_next_with(|_| panic!("ended")),
            StreamConsumed::End
        );
    }

    #[test]
    fn push_after_limit_hands_the_buffer_straight_back() {
        let state = stream_state(1, 1);
        let mut stream = PendingStream {
            state: Arc::clone(&state),
        };
        assert!(state.push_chunk(0, vec![(1, 0), (2, 0)]).is_none());
        assert_eq!(
            stream.try_next_with(|e| assert_eq!(e, [(1, 0)])),
            StreamConsumed::Consumed(1)
        );
        // Limit exhausted at the seam: the next push's entries are
        // discarded but its allocation returns to the worker.
        let back = state.push_chunk(0, vec![(3, 0)]).expect("buffer back");
        assert!(back.is_empty() && back.capacity() >= 1);
        assert_eq!(
            stream.try_next_with(|_| panic!("ended")),
            StreamConsumed::End
        );
    }

    #[test]
    fn blocking_next_wakes_on_cross_thread_pushes() {
        let state = stream_state(1, usize::MAX);
        let mut stream = PendingStream {
            state: Arc::clone(&state),
        };
        let pusher = std::thread::spawn(move || {
            // Push only once the reader is parked, so the push must wake it.
            while state.inner.lock().unwrap().blocked_readers == 0 {
                std::thread::yield_now();
            }
            state.push_chunk(0, vec![(7, 7)]);
            state.complete_stream_part(0, &part());
        });
        assert_eq!(stream.next(), Some(vec![(7, 7)]));
        assert_eq!(stream.next(), None);
        pusher.join().unwrap();
    }
}
