//! # widx-obs — live telemetry primitives
//!
//! Lock-free building blocks for observing the serving stack while it runs:
//!
//! - [`AtomicHistogram`] / [`HistogramSnapshot`]: fixed log-linear
//!   latency histograms (8 sub-buckets per octave), recordable from any
//!   thread, snapshot-without-reset, mergeable in any order.
//! - [`WorkerCell`] / [`WorkerCellSnapshot`]: a padded bundle of one
//!   worker's counters plus the latency and stage histograms of the
//!   requests it completes. Workers publish directly into their cell, so a
//!   shutdown join is just a final snapshot and `live_stats()` is the same
//!   snapshot taken earlier.
//! - [`Stage`] / [`StageTimes`]: the one stage taxonomy — net-read /
//!   queue-wait / batch-wait / walk / write / gather / reply-write — whose
//!   intervals tile a request's life, shared by the histograms, the traces
//!   and the profiler.
//! - [`ReactorGauges`]: a padded pair of gauges one net-tier reactor
//!   re-publishes every event-loop pass (connections owned, unflushed
//!   reply bytes), stored contiguously without false sharing.
//! - [`PromText`]: Prometheus text-exposition builder.
//! - [`FlightRecorder`] / [`RequestTrace`]: the per-request trace seam — a
//!   bounded ring of completed traces (spans per stage plus walker-level
//!   [`WalkCounters`]) filled by head sampling and a tail slow-threshold.
//! - [`StageClock`] / [`ProfCell`] / [`ProfSnapshot`]: the worker's one
//!   clock reading per stage boundary, which also closes hardware counter
//!   windows (cycles, instructions, LLC/dTLB misses) per stage, with
//!   derived IPC / MPKI / stall-fraction / effective-MLP and a
//!   software-counter cross-check.
//! - [`json`]: tiny escape/extract helpers for the JSON stats payload.
//!
//! Everything here is plain `std` atomics — no locks on any record path.
//! The only dependency is the vendored `perf-event` shim the `prof`
//! module sits on (which keeps its `unsafe` on its side of the fence).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cell;
mod gauge;
mod hist;
pub mod json;
mod prof;
mod prom;
mod stage;
mod trace;

pub use cell::{FlushKind, WorkerCell, WorkerCellSnapshot};
pub use gauge::ReactorGauges;
pub use hist::{
    bucket_ceil, bucket_floor, bucket_of, AtomicHistogram, HistogramSnapshot, HIST_BUCKETS,
    SUB_BUCKETS,
};
pub use prof::{ProfCell, ProfSnapshot, ProfStageSnapshot, StageClock, MISS_LATENCY_CYCLES};
pub use prom::{lint_exposition, PromText};
pub use stage::{Stage, StageSnapshot, StageTimes, STAGES};
pub use trace::{
    ActiveTrace, FlightRecorder, PendingCommit, RecorderStats, RequestTrace, Span, WalkCounters,
};
