//! # widx-serve — a sharded, batched probe-serving engine
//!
//! The paper's Widx accelerator puts *four walkers behind one
//! dispatcher* to mine the inter-key parallelism of index probes.
//! `widx-soft` reproduces that on one core with AMAC interleaving; this
//! crate scales the same shape to a whole socket and wraps it in the
//! request/response surface a production in-memory DB front-end needs —
//! a **software walker pool as a service**:
//!
//! * [`ShardedIndex`] — the index split at boundary keys into
//!   contiguous key ranges, one independent
//!   [`HashIndex`](widx_db::index::HashIndex) per range (built from
//!   [`partition_range`](widx_db::index::partition_range));
//! * [`OrderedShardedIndex`] — the ordered counterpart, split at the
//!   *same* boundary keys: one
//!   [`BTreeIndex`](widx_db::index::BTreeIndex) per range, serving
//!   [`Request::RangeScan`] — scans scatter to the adjacent shards
//!   their interval overlaps and gather back into one key-ordered,
//!   limit-truncated reply;
//! * [`ProbeService`] — one worker thread per key range (the dispatcher
//!   role), owning that range's hash shard and, when built, its B+-tree
//!   shard. Each worker drains one bounded queue into *batches* — flush
//!   at [`batch_size`](ServeConfig::batch_size) probe keys plus scan
//!   cursors, or as soon as the queue runs dry — and feeds probes to a resumable
//!   [`AmacWalker`](widx_soft::AmacWalker) ring and scans to a
//!   [`BTreeRangeWalker`](widx_soft::BTreeRangeWalker) ring (the
//!   walkers). Writes join the same queue and apply to both tiers at one
//!   batch barrier, so a read never sees one tier ahead of the other.
//!   Queues push back when full, and shutdown mirrors
//!   [`widx_core::POISON_KEY`] — drain accepted work, then halt;
//! * typed requests — [`Request::Lookup`], [`Request::MultiLookup`],
//!   [`Request::JoinProbe`], [`Request::RangeScan`] (ascending or
//!   `ORDER BY key DESC` via its `desc` flag) — with per-request
//!   completion latency and per-worker throughput/occupancy telemetry
//!   ([`ServiceStats`]) feeding the `widx-bench` reporting machinery;
//! * **streaming range replies** —
//!   [`range_stream`](ProbeService::range_stream) returns a
//!   [`PendingStream`] whose chunks the gather seam releases in merged
//!   key order *while shards are still scanning* (per-shard walkers
//!   push a chunk every [`stream_chunk`](ServeConfig::stream_chunk)
//!   entries; the request's limit still applies at the seam), with a
//!   completion-wakeup hook ([`PendingStream::set_waker`] /
//!   [`PendingResponse::set_waker`]) so a polling front-end learns
//!   "chunk ready" without scanning its pending lists.
//!
//! Batching across *concurrent requests* is what makes the pool a
//! service rather than a loop: a single `Lookup` arriving alone would
//! waste the walker ring, but dozens of independent requests batched at
//! a shard fill every in-flight slot, exactly like the paper's
//! dispatcher keeping all four walkers busy.
//!
//! # Example
//!
//! ```
//! use widx_db::hash::HashRecipe;
//! use widx_serve::{ProbeService, ServeConfig};
//!
//! let config = ServeConfig::default().with_shards(2).with_batch_size(16);
//! let service = ProbeService::build_with_range(
//!     HashRecipe::robust64(),
//!     (0..10_000u64).map(|k| (k, k + 1)),
//!     &config,
//! );
//! assert_eq!(service.lookup(41).unwrap(), vec![42]);
//!
//! let mut pairs = service.join_probe(&[5, 99_999, 5]).unwrap();
//! pairs.sort_unstable();
//! assert_eq!(pairs, vec![(0, 6), (2, 6)]); // rows 0 and 2 hit, row 1 missed
//!
//! // Ordered serving: key-ordered, limit-truncated range scans.
//! let entries = service.range_scan(100, 5_000, 3).unwrap();
//! assert_eq!(entries, vec![(100, 101), (101, 102), (102, 103)]);
//!
//! // Writes land in both tiers at one barrier and are acked once.
//! assert!(service.update(100, 7).unwrap());
//! assert_eq!(service.range_scan(100, 100, 1).unwrap(), vec![(100, 7)]);
//!
//! let stats = service.shutdown();
//! assert_eq!(stats.workers.len(), 2); // one worker per key range, both tiers
//! assert_eq!(stats.total_keys(), 4); // one lookup key + three join rows
//! assert!(stats.total_scan_entries() >= 4);
//! assert_eq!(stats.total_write_ops(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod ordered;
mod queue;
mod request;
mod route;
mod service;
mod shard;
mod stats;
mod worker;

pub use batch::{BatchPolicy, FlushReason};
pub use ordered::OrderedShardedIndex;
pub use queue::PushError;
pub use request::{
    PendingResponse, PendingStream, ReplyMark, Request, Response, StreamConsumed, StreamPoll,
};
pub use service::{NetTraceCtx, ProbeService, ServeConfig, SubmitError};
pub use shard::ShardedIndex;
pub use stats::{LatencySummary, NetStats, ReactorStats, ServiceStats, StageStats, WorkerStats};
// Re-exported telemetry primitives, so front-ends (the `widx-net`
// server records the reply-write stage) need no direct `widx-obs`
// dependency.
pub use widx_obs::{
    AtomicHistogram, FlightRecorder, HistogramSnapshot, ReactorGauges, RecorderStats, RequestTrace,
    Span, Stage, StageSnapshot, StageTimes, WalkCounters,
};
