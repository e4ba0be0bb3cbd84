//! Serving telemetry: per-worker throughput/occupancy and service-wide
//! request latency, shaped for the `widx-bench` table machinery.
//!
//! Since the live-telemetry refactor the numbers here are *views*: workers
//! publish into lock-free `widx_obs` registry cells as they run, and both
//! [`ProbeService::live_stats`](crate::ProbeService::live_stats) and the
//! shutdown join materialize a [`ServiceStats`] from the same snapshot
//! path, so the post-mortem report is just the last scrape.

use std::time::Duration;

use widx_obs::{
    HistogramSnapshot, ProfSnapshot, PromText, RecorderStats, Stage, StageSnapshot,
    WorkerCellSnapshot,
};

/// Counters one shard worker accumulates over its lifetime.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerStats {
    /// The worker's shard id.
    pub shard: usize,
    /// Probe jobs (request shard-parts) processed.
    pub jobs: u64,
    /// Batches flushed.
    pub batches: u64,
    /// Keys probed.
    pub keys: u64,
    /// Matches emitted.
    pub matches: u64,
    /// Batches closed because they reached the size target.
    pub size_flushes: u64,
    /// Batches closed by the deadline.
    pub deadline_flushes: u64,
    /// Final partial batches flushed at shutdown.
    pub shutdown_flushes: u64,
    /// Mutation operations applied at write barriers (insert/delete/update).
    pub write_ops: u64,
    /// Mutation operations that took effect (insert always; delete/update
    /// only when the key existed).
    pub write_applied: u64,
    /// Write barriers executed (batches of mutations applied under the
    /// shard's write guard).
    pub write_batches: u64,
    /// Time spent probing (walker running).
    pub busy: Duration,
    /// Time spent waiting for work.
    pub idle: Duration,
}

impl WorkerStats {
    /// Materializes worker stats from a live registry cell snapshot.
    pub(crate) fn from_cell(shard: usize, cell: &WorkerCellSnapshot) -> WorkerStats {
        WorkerStats {
            shard,
            jobs: cell.jobs,
            batches: cell.batches,
            keys: cell.keys,
            matches: cell.matches,
            size_flushes: cell.size_flushes,
            deadline_flushes: cell.deadline_flushes,
            shutdown_flushes: cell.shutdown_flushes,
            write_ops: cell.write_ops,
            write_applied: cell.write_applied,
            write_batches: cell.write_batches,
            busy: Duration::from_nanos(cell.busy_ns),
            idle: Duration::from_nanos(cell.idle_ns),
        }
    }

    /// Fraction of the worker's lifetime spent probing — the software
    /// analogue of the paper's walker-utilization figure (Figure 5).
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        let total = self.busy.as_secs_f64() + self.idle.as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.busy.as_secs_f64() / total
        }
    }

    /// Keys probed per second of *busy* time (per-walker service rate).
    #[must_use]
    pub fn busy_throughput(&self) -> f64 {
        let busy = self.busy.as_secs_f64();
        if busy == 0.0 {
            0.0
        } else {
            self.keys as f64 / busy
        }
    }

    /// Mean keys per flushed batch.
    #[must_use]
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.keys as f64 / self.batches as f64
        }
    }
}

/// Order statistics over per-request completion latencies.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Completed requests measured.
    pub count: usize,
    /// Mean latency in nanoseconds.
    pub mean_ns: f64,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile latency in nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile latency in nanoseconds — the tail the network
    /// tier's idle/tail experiments watch (a lost completion wakeup
    /// shows up here long before it moves the p99).
    pub p999_ns: u64,
    /// Smallest observed latency in nanoseconds.
    pub min_ns: u64,
    /// Largest observed latency in nanoseconds.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarizes a sample set (nanoseconds). Percentiles use the
    /// nearest-rank method.
    #[must_use]
    pub fn from_samples(mut samples: Vec<u64>) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let count = samples.len();
        let rank = |p: f64| -> u64 {
            let idx = ((p * count as f64).ceil() as usize).clamp(1, count) - 1;
            samples[idx]
        };
        LatencySummary {
            count,
            mean_ns: samples.iter().map(|s| *s as f64).sum::<f64>() / count as f64,
            p50_ns: rank(0.50),
            p95_ns: rank(0.95),
            p99_ns: rank(0.99),
            p999_ns: rank(0.999),
            min_ns: samples[0],
            max_ns: samples[count - 1],
        }
    }

    /// Summarizes a live histogram snapshot. Percentiles are quantized to
    /// the histogram's log2 bucket edges (clamped to the observed
    /// min/max); count, mean, min, and max are exact.
    #[must_use]
    pub fn from_histogram(hist: &HistogramSnapshot) -> LatencySummary {
        LatencySummary {
            count: usize::try_from(hist.count()).unwrap_or(usize::MAX),
            mean_ns: hist.mean_ns(),
            p50_ns: hist.quantile(0.50),
            p95_ns: hist.quantile(0.95),
            p99_ns: hist.quantile(0.99),
            p999_ns: hist.quantile(0.999),
            min_ns: hist.min(),
            max_ns: hist.max(),
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"count\": {}, \"mean_ns\": {:.1}, \"p50_ns\": {}, \"p95_ns\": {}, \
             \"p99_ns\": {}, \"p999_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
            self.count,
            self.mean_ns,
            self.p50_ns,
            self.p95_ns,
            self.p99_ns,
            self.p999_ns,
            self.min_ns,
            self.max_ns
        )
    }
}

/// Per-stage latency summaries: where a request's life goes between
/// `submit` and the reply bytes leaving the server.
///
/// Counts differ per stage by design: queue-wait counts shard-parts,
/// batch-wait and walk count batches, gather counts completed requests,
/// and reply-write counts reply frames (zero unless a `widx-net` server
/// is attached).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageStats {
    /// Submit to first worker admission, per request shard-part.
    pub queue_wait: LatencySummary,
    /// Batch open to flush decision, per batch.
    pub batch_wait: LatencySummary,
    /// Index-walking time, per batch.
    pub walk: LatencySummary,
    /// Write-application time at batch barriers, per write batch.
    pub write: LatencySummary,
    /// First shard-part done to last shard-part done, per request.
    pub gather: LatencySummary,
    /// Reply frame encoded to bytes flushed to the socket, per frame.
    pub reply_write: LatencySummary,
}

impl StageStats {
    /// Materializes stage summaries from a live stage-times snapshot.
    #[must_use]
    pub fn from_snapshot(snap: &StageSnapshot) -> StageStats {
        StageStats {
            queue_wait: LatencySummary::from_histogram(snap.get(Stage::QueueWait)),
            batch_wait: LatencySummary::from_histogram(snap.get(Stage::BatchWait)),
            walk: LatencySummary::from_histogram(snap.get(Stage::Walk)),
            write: LatencySummary::from_histogram(snap.get(Stage::Write)),
            gather: LatencySummary::from_histogram(snap.get(Stage::Gather)),
            reply_write: LatencySummary::from_histogram(snap.get(Stage::ReplyWrite)),
        }
    }

    /// `(name, summary)` pairs in pipeline order.
    #[must_use]
    pub fn named(&self) -> [(&'static str, LatencySummary); 6] {
        [
            (Stage::QueueWait.name(), self.queue_wait),
            (Stage::BatchWait.name(), self.batch_wait),
            (Stage::Walk.name(), self.walk),
            (Stage::Write.name(), self.write),
            (Stage::Gather.name(), self.gather),
            (Stage::ReplyWrite.name(), self.reply_write),
        ]
    }
}

/// One reactor's gauge pair, as snapshot into a [`NetStats`]. Each
/// reactor thread of a multi-reactor `widx-net` server re-publishes its
/// pair every event-loop pass; the totals in [`NetStats`] are the sums.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Connections currently pinned to this reactor.
    pub open_connections: u64,
    /// Bytes currently buffered for write across this reactor's
    /// connections.
    pub write_backlog_bytes: u64,
}

/// Counters for the network front-end tier (`widx-net`), when the
/// service is exposed over a socket. The serving crate defines the
/// shape so [`ServiceStats`] can carry it without depending on the
/// network layer; the `widx-net` server fills it in and attaches it via
/// [`ServiceStats::with_net`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Well-formed request frames decoded.
    pub frames_in: u64,
    /// Reply frames written (responses *and* error frames).
    pub frames_out: u64,
    /// Requests refused with a `Busy` error frame — either a shard
    /// queue at capacity or a connection over its in-flight cap.
    pub busy_rejects: u64,
    /// Frames that failed to decode (bad version/opcode/payload).
    pub decode_errors: u64,
    /// Gauge: connections currently open across every reactor
    /// (published by the event loops each iteration, so a live scrape
    /// sees the current fleet).
    pub open_connections: u64,
    /// Gauge: bytes currently buffered for write across all open
    /// connections (reply backpressure).
    pub write_backlog_bytes: u64,
    /// Per-reactor gauge breakdown, in reactor order — one entry per
    /// event-loop thread. The two gauge totals above are the sums over
    /// this vector. Empty when no server is attached.
    pub reactors: Vec<ReactorStats>,
}

impl NetStats {
    /// Whether any traffic was observed at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.connections == 0
            && self.frames_in == 0
            && self.frames_out == 0
            && self.busy_rejects == 0
            && self.decode_errors == 0
            && self.open_connections == 0
            && self.write_backlog_bytes == 0
            && self.reactors.iter().all(|r| *r == ReactorStats::default())
    }
}

/// Everything the service measured, returned by
/// [`ProbeService::live_stats`](crate::ProbeService::live_stats) at any
/// moment and by [`ProbeService::shutdown`](crate::ProbeService::shutdown)
/// as the final snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceStats {
    /// Per-worker counters for the point-probe (hash) tier, in shard
    /// order. `keys` counts probe keys.
    pub workers: Vec<WorkerStats>,
    /// Per-worker counters for the ordered (range-scan) tier, in shard
    /// order — empty on services built without one. `keys` counts scan
    /// cursors fed; `matches` counts entries emitted.
    pub range_workers: Vec<WorkerStats>,
    /// Completion-latency summary across every finished request (both
    /// tiers).
    pub latency: LatencySummary,
    /// Per-stage breakdown of where request time goes.
    pub stages: StageStats,
    /// Network front-end counters — all zero unless a `widx-net` server
    /// snapshot was attached with [`ServiceStats::with_net`].
    pub net: NetStats,
    /// Flight-recorder gauges: ring depth and record/drop/slow totals.
    /// All zero unless per-request tracing is armed.
    pub trace: RecorderStats,
    /// Hardware-profiling snapshot merged across every worker: per-stage
    /// cycles/instructions/misses with derived IPC / MPKI / stall
    /// fraction / effective MLP, plus the software walker cross-check.
    /// `None` unless the service was built with
    /// `ServeConfig::with_profile(true)`.
    pub prof: Option<ProfSnapshot>,
    /// Wall-clock time from service start to this snapshot.
    pub wall: Duration,
}

impl ServiceStats {
    /// Attaches a network-tier snapshot (from `widx_net::WidxServer`) to
    /// the service's own counters, completing the full serving picture:
    /// sockets → frames → queues → walkers.
    #[must_use]
    pub fn with_net(mut self, net: NetStats) -> ServiceStats {
        self.net = net;
        self
    }

    /// Total keys probed across point-probe workers.
    #[must_use]
    pub fn total_keys(&self) -> u64 {
        self.workers.iter().map(|w| w.keys).sum()
    }

    /// Total matches across point-probe workers.
    #[must_use]
    pub fn total_matches(&self) -> u64 {
        self.workers.iter().map(|w| w.matches).sum()
    }

    /// Total scan cursors driven across range workers (one per shard a
    /// scan's interval overlapped).
    #[must_use]
    pub fn total_scan_cursors(&self) -> u64 {
        self.range_workers.iter().map(|w| w.keys).sum()
    }

    /// Total entries emitted across range workers (before any gather
    /// truncation at the request's `limit`).
    #[must_use]
    pub fn total_scan_entries(&self) -> u64 {
        self.range_workers.iter().map(|w| w.matches).sum()
    }

    /// Total mutation operations applied across both tiers.
    #[must_use]
    pub fn total_write_ops(&self) -> u64 {
        self.workers
            .iter()
            .chain(self.range_workers.iter())
            .map(|w| w.write_ops)
            .sum()
    }

    /// Total mutation operations that took effect across both tiers.
    #[must_use]
    pub fn total_write_applied(&self) -> u64 {
        self.workers
            .iter()
            .chain(self.range_workers.iter())
            .map(|w| w.write_applied)
            .sum()
    }

    /// Total write barriers executed across both tiers.
    #[must_use]
    pub fn total_write_batches(&self) -> u64 {
        self.workers
            .iter()
            .chain(self.range_workers.iter())
            .map(|w| w.write_batches)
            .sum()
    }

    /// Service-level throughput: keys probed per wall-clock second.
    #[must_use]
    pub fn wall_throughput(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall == 0.0 {
            0.0
        } else {
            self.total_keys() as f64 / wall
        }
    }

    /// Service-level scan throughput: entries emitted per wall-clock
    /// second.
    #[must_use]
    pub fn scan_throughput(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall == 0.0 {
            0.0
        } else {
            self.total_scan_entries() as f64 / wall
        }
    }

    /// Renders the snapshot as a flat JSON document — the payload of the
    /// wire protocol's `Stats` reply. Hand-rolled (the workspace carries
    /// no serde); `widx_obs::json` can read the numeric fields back.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        let host_cpus = std::thread::available_parallelism().map_or(0, usize::from);
        out.push_str(&format!(
            "{{\"wall_ms\": {:.3}, \"uptime_ms\": {:.3}, \"host_cpus\": {}, \
             \"version\": \"{}\", \"total_keys\": {}, \"total_matches\": {}, \
             \"total_scan_cursors\": {}, \"total_scan_entries\": {}, \
             \"total_write_ops\": {}, \"total_write_applied\": {}, \
             \"total_write_batches\": {},",
            self.wall.as_secs_f64() * 1e3,
            self.wall.as_secs_f64() * 1e3,
            host_cpus,
            env!("CARGO_PKG_VERSION"),
            self.total_keys(),
            self.total_matches(),
            self.total_scan_cursors(),
            self.total_scan_entries(),
            self.total_write_ops(),
            self.total_write_applied(),
            self.total_write_batches()
        ));
        out.push_str(&format!(
            " \"trace\": {{\"capacity\": {}, \"depth\": {}, \"recorded\": {}, \
             \"dropped\": {}, \"slow\": {}}},",
            self.trace.capacity,
            self.trace.depth,
            self.trace.recorded,
            self.trace.dropped,
            self.trace.slow
        ));
        if let Some(prof) = &self.prof {
            out.push_str(&format!(" \"prof\": {},", prof.to_json()));
        }
        out.push_str(&format!(" \"latency\": {},", self.latency.to_json()));
        out.push_str(" \"stages\": {");
        for (i, (name, summary)) in self.stages.named().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(" \"{}\": {}", name, summary.to_json()));
        }
        out.push_str("},");
        for (field, tier) in [
            ("workers", &self.workers),
            ("range_workers", &self.range_workers),
        ] {
            out.push_str(&format!(" \"{field}\": ["));
            for (i, w) in tier.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    " {{\"shard\": {}, \"jobs\": {}, \"batches\": {}, \"keys\": {}, \
                     \"matches\": {}, \"size_flushes\": {}, \"deadline_flushes\": {}, \
                     \"shutdown_flushes\": {}, \"write_ops\": {}, \
                     \"write_applied\": {}, \"write_batches\": {}, \
                     \"busy_ns\": {}, \"idle_ns\": {}, \
                     \"occupancy\": {:.4}}}",
                    w.shard,
                    w.jobs,
                    w.batches,
                    w.keys,
                    w.matches,
                    w.size_flushes,
                    w.deadline_flushes,
                    w.shutdown_flushes,
                    w.write_ops,
                    w.write_applied,
                    w.write_batches,
                    w.busy.as_nanos(),
                    w.idle.as_nanos(),
                    w.occupancy()
                ));
            }
            out.push_str("],");
        }
        out.push_str(&format!(
            " \"net\": {{\"connections\": {}, \"frames_in\": {}, \"frames_out\": {}, \
             \"busy_rejects\": {}, \"decode_errors\": {}, \"open_connections\": {}, \
             \"write_backlog_bytes\": {}, \"reactors\": [",
            self.net.connections,
            self.net.frames_in,
            self.net.frames_out,
            self.net.busy_rejects,
            self.net.decode_errors,
            self.net.open_connections,
            self.net.write_backlog_bytes
        ));
        for (i, r) in self.net.reactors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                " {{\"reactor\": {}, \"open\": {}, \"backlog_bytes\": {}}}",
                i, r.open_connections, r.write_backlog_bytes
            ));
        }
        out.push_str("]}}");
        out
    }

    /// Renders the snapshot in Prometheus text-exposition format (0.0.4),
    /// suitable for a scrape endpoint or `curl`-style inspection.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut p = PromText::new();
        p.help("widx_wall_seconds", "Service uptime at snapshot time.")
            .type_("widx_wall_seconds", "gauge")
            .sample("widx_wall_seconds", &[], self.wall.as_secs_f64());
        p.help(
            "widx_worker_keys_total",
            "Keys probed / scan cursors fed per worker.",
        )
        .type_("widx_worker_keys_total", "counter");
        p.help(
            "widx_worker_matches_total",
            "Matches / scan entries emitted per worker.",
        )
        .type_("widx_worker_matches_total", "counter");
        p.help("widx_worker_batches_total", "Batches flushed per worker.")
            .type_("widx_worker_batches_total", "counter");
        p.help(
            "widx_worker_occupancy",
            "Fraction of worker lifetime spent walking.",
        )
        .type_("widx_worker_occupancy", "gauge");
        p.help(
            "widx_write_ops_total",
            "Mutation operations applied per worker.",
        )
        .type_("widx_write_ops_total", "counter");
        p.help(
            "widx_write_applied_total",
            "Mutation operations that took effect per worker.",
        )
        .type_("widx_write_applied_total", "counter");
        p.help(
            "widx_write_batches_total",
            "Write barriers executed per worker.",
        )
        .type_("widx_write_batches_total", "counter");
        for (tier, workers) in [("point", &self.workers), ("range", &self.range_workers)] {
            for w in workers.iter() {
                let shard = w.shard.to_string();
                let labels = [("tier", tier), ("shard", shard.as_str())];
                p.sample_u64("widx_worker_keys_total", &labels, w.keys);
                p.sample_u64("widx_worker_matches_total", &labels, w.matches);
                p.sample_u64("widx_worker_batches_total", &labels, w.batches);
                p.sample("widx_worker_occupancy", &labels, w.occupancy());
                p.sample_u64("widx_write_ops_total", &labels, w.write_ops);
                p.sample_u64("widx_write_applied_total", &labels, w.write_applied);
                p.sample_u64("widx_write_batches_total", &labels, w.write_batches);
            }
        }
        p.help(
            "widx_request_latency_ns",
            "End-to-end request completion latency.",
        )
        .type_("widx_request_latency_ns", "summary");
        for (q, v) in [
            ("0.5", self.latency.p50_ns),
            ("0.95", self.latency.p95_ns),
            ("0.99", self.latency.p99_ns),
            ("0.999", self.latency.p999_ns),
        ] {
            p.sample_u64("widx_request_latency_ns", &[("quantile", q)], v);
        }
        p.sample(
            "widx_request_latency_ns_sum",
            &[],
            self.latency.mean_ns * self.latency.count as f64,
        );
        p.sample_u64(
            "widx_request_latency_ns_count",
            &[],
            self.latency.count as u64,
        );
        p.help("widx_stage_ns", "Per-stage latency breakdown.")
            .type_("widx_stage_ns", "summary");
        for (name, summary) in self.stages.named() {
            for (q, v) in [("0.5", summary.p50_ns), ("0.99", summary.p99_ns)] {
                p.sample_u64("widx_stage_ns", &[("stage", name), ("quantile", q)], v);
            }
            p.sample(
                "widx_stage_ns_sum",
                &[("stage", name)],
                summary.mean_ns * summary.count as f64,
            );
            p.sample_u64(
                "widx_stage_ns_count",
                &[("stage", name)],
                summary.count as u64,
            );
        }
        for (name, help, value) in [
            (
                "widx_net_connections_total",
                "Connections accepted.",
                self.net.connections,
            ),
            (
                "widx_net_frames_in_total",
                "Request frames decoded.",
                self.net.frames_in,
            ),
            (
                "widx_net_frames_out_total",
                "Reply frames written.",
                self.net.frames_out,
            ),
            (
                "widx_net_busy_rejects_total",
                "Requests refused Busy.",
                self.net.busy_rejects,
            ),
            (
                "widx_net_decode_errors_total",
                "Frames that failed to decode.",
                self.net.decode_errors,
            ),
        ] {
            p.help(name, help)
                .type_(name, "counter")
                .sample_u64(name, &[], value);
        }
        for (name, help, value) in [
            (
                "widx_net_open_connections",
                "Connections currently open.",
                self.net.open_connections,
            ),
            (
                "widx_net_write_backlog_bytes",
                "Bytes buffered for write across open connections.",
                self.net.write_backlog_bytes,
            ),
        ] {
            p.help(name, help)
                .type_(name, "gauge")
                .sample_u64(name, &[], value);
        }
        for (name, help, value) in [
            (
                "widx_trace_capacity",
                "Flight-recorder ring capacity in traces.",
                self.trace.capacity,
            ),
            (
                "widx_trace_depth",
                "Traces currently held by the flight recorder.",
                self.trace.depth,
            ),
        ] {
            p.help(name, help)
                .type_(name, "gauge")
                .sample_u64(name, &[], value);
        }
        for (name, help, value) in [
            (
                "widx_trace_recorded_total",
                "Request traces recorded (head-sampled or slow).",
                self.trace.recorded,
            ),
            (
                "widx_trace_dropped_total",
                "Traces evicted from a full flight-recorder ring.",
                self.trace.dropped,
            ),
            (
                "widx_trace_slow_total",
                "Recorded traces that exceeded the slow threshold.",
                self.trace.slow,
            ),
        ] {
            p.help(name, help)
                .type_(name, "counter")
                .sample_u64(name, &[], value);
        }
        if let Some(prof) = &self.prof {
            self.render_prof_prometheus(&mut p, prof);
        }
        if !self.net.reactors.is_empty() {
            p.help(
                "widx_net_reactor_open_connections",
                "Connections pinned to each reactor.",
            )
            .type_("widx_net_reactor_open_connections", "gauge");
            p.help(
                "widx_net_reactor_write_backlog_bytes",
                "Bytes buffered for write per reactor.",
            )
            .type_("widx_net_reactor_write_backlog_bytes", "gauge");
            for (i, r) in self.net.reactors.iter().enumerate() {
                let reactor = i.to_string();
                let labels = [("reactor", reactor.as_str())];
                p.sample_u64(
                    "widx_net_reactor_open_connections",
                    &labels,
                    r.open_connections,
                );
                p.sample_u64(
                    "widx_net_reactor_write_backlog_bytes",
                    &labels,
                    r.write_backlog_bytes,
                );
            }
        }
        p.finish()
    }

    /// The `widx_prof_*` series: per-stage hardware counters, derived
    /// memory-boundedness gauges (only when their denominators ticked —
    /// the `soft` backend emits none), and the software walker
    /// cross-check.
    fn render_prof_prometheus(&self, p: &mut PromText, prof: &ProfSnapshot) {
        use widx_obs::ProfStageSnapshot;

        p.help(
            "widx_prof_workers",
            "Worker counter groups merged into the profile.",
        )
        .type_("widx_prof_workers", "gauge")
        .sample_u64("widx_prof_workers", &[], prof.workers);
        p.help(
            "widx_prof_hw",
            "1 when the profile carries real hardware counts.",
        )
        .type_("widx_prof_hw", "gauge")
        .sample_u64("widx_prof_hw", &[], u64::from(prof.hw));
        for (name, help) in [
            (
                "widx_prof_cycles_total",
                "Core cycles attributed per stage.",
            ),
            (
                "widx_prof_instructions_total",
                "Instructions retired per stage.",
            ),
            ("widx_prof_llc_misses_total", "LLC misses per stage."),
            ("widx_prof_dtlb_misses_total", "dTLB misses per stage."),
            (
                "widx_prof_windows_total",
                "Counter windows recorded per stage.",
            ),
        ] {
            p.help(name, help).type_(name, "counter");
        }
        for stage in Stage::ALL {
            let s = prof.get(stage);
            let labels = [("stage", stage.name())];
            p.sample_u64("widx_prof_cycles_total", &labels, s.cycles);
            p.sample_u64("widx_prof_instructions_total", &labels, s.instructions);
            p.sample_u64("widx_prof_llc_misses_total", &labels, s.llc_misses);
            p.sample_u64("widx_prof_dtlb_misses_total", &labels, s.dtlb_misses);
            p.sample_u64("widx_prof_windows_total", &labels, s.windows);
        }
        type Derived = fn(&ProfStageSnapshot) -> Option<f64>;
        let derived: [(&str, &str, Derived); 4] = [
            (
                "widx_prof_ipc",
                "Instructions per cycle per stage.",
                ProfStageSnapshot::ipc,
            ),
            (
                "widx_prof_llc_mpki",
                "LLC misses per thousand instructions per stage.",
                ProfStageSnapshot::llc_mpki,
            ),
            (
                "widx_prof_stall_fraction",
                "First-order fraction of stage cycles under an LLC miss.",
                ProfStageSnapshot::stall_fraction,
            ),
            (
                "widx_prof_effective_mlp",
                "Miss-latency-weighted cycles over actual cycles per stage.",
                ProfStageSnapshot::effective_mlp,
            ),
        ];
        for (name, help, get) in derived {
            if Stage::ALL.into_iter().all(|s| get(prof.get(s)).is_none()) {
                continue;
            }
            p.help(name, help).type_(name, "gauge");
            for stage in Stage::ALL {
                if let Some(v) = get(prof.get(stage)) {
                    p.sample(name, &[("stage", stage.name())], v);
                }
            }
        }
        for (name, help, value) in [
            (
                "widx_prof_walk_nodes_total",
                "Index nodes visited by profiled walkers.",
                prof.walk.nodes,
            ),
            (
                "widx_prof_walk_rounds_total",
                "Walker ring rounds across profiled batches.",
                prof.walk.rounds,
            ),
            (
                "widx_prof_walk_occupancy_total",
                "Live walker slots summed over rounds.",
                prof.walk.occupancy,
            ),
            (
                "widx_prof_walk_prefetches_total",
                "Prefetches issued by profiled walkers.",
                prof.walk.prefetches,
            ),
        ] {
            p.help(name, help)
                .type_(name, "counter")
                .sample_u64(name, &[], value);
        }
        if let Some(mlp) = prof.soft_mlp() {
            p.help(
                "widx_prof_soft_mlp",
                "Software MLP cross-check: walker occupancy per round.",
            )
            .type_("widx_prof_soft_mlp", "gauge")
            .sample("widx_prof_soft_mlp", &[], mlp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_and_rates() {
        let w = WorkerStats {
            shard: 0,
            jobs: 10,
            batches: 4,
            keys: 100,
            matches: 80,
            busy: Duration::from_millis(30),
            idle: Duration::from_millis(10),
            ..WorkerStats::default()
        };
        assert!((w.occupancy() - 0.75).abs() < 1e-9);
        assert!((w.mean_batch() - 25.0).abs() < 1e-9);
        assert!((w.busy_throughput() - 100.0 / 0.03).abs() < 1e-6);
    }

    #[test]
    fn empty_worker_is_all_zeroes() {
        let w = WorkerStats::default();
        assert_eq!(w.occupancy(), 0.0);
        assert_eq!(w.busy_throughput(), 0.0);
        assert_eq!(w.mean_batch(), 0.0);
    }

    #[test]
    fn latency_percentiles_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        let s = LatencySummary::from_samples(samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, 50);
        assert_eq!(s.p95_ns, 95);
        assert_eq!(s.p99_ns, 99);
        assert_eq!(s.p999_ns, 100, "nearest rank rounds 99.9 up");
        assert_eq!(s.min_ns, 1);
        assert_eq!(s.max_ns, 100);
        assert!((s.mean_ns - 50.5).abs() < 1e-9);
    }

    #[test]
    fn latency_of_empty_sample_set() {
        let s = LatencySummary::from_samples(vec![]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max_ns, 0);
    }

    #[test]
    fn latency_from_histogram_tracks_exact_fields() {
        let h = widx_obs::AtomicHistogram::new();
        for ns in [100u64, 200, 400, 800] {
            h.record(ns);
        }
        let s = LatencySummary::from_histogram(&h.snapshot());
        assert_eq!(s.count, 4);
        assert_eq!(s.min_ns, 100);
        assert_eq!(s.max_ns, 800);
        assert!((s.mean_ns - 375.0).abs() < 1e-9);
        // Quantiles are bucket-quantized but bounded by the true range.
        assert!(s.p50_ns >= 100 && s.p50_ns <= 800);
        assert!(s.p99_ns >= s.p50_ns && s.p99_ns <= 800);

        let empty = LatencySummary::from_histogram(&widx_obs::HistogramSnapshot::default());
        assert_eq!(empty, LatencySummary::default());
    }

    #[test]
    fn service_totals() {
        let stats = ServiceStats {
            workers: vec![
                WorkerStats {
                    keys: 60,
                    matches: 50,
                    write_ops: 12,
                    write_applied: 9,
                    write_batches: 3,
                    ..WorkerStats::default()
                },
                WorkerStats {
                    keys: 40,
                    matches: 30,
                    write_ops: 8,
                    write_applied: 8,
                    write_batches: 2,
                    ..WorkerStats::default()
                },
            ],
            range_workers: vec![WorkerStats {
                keys: 6,
                matches: 90,
                ..WorkerStats::default()
            }],
            latency: LatencySummary::default(),
            stages: StageStats::default(),
            net: NetStats::default(),
            trace: RecorderStats::default(),
            prof: None,
            wall: Duration::from_secs(2),
        };
        assert_eq!(stats.total_keys(), 100);
        assert_eq!(stats.total_matches(), 80);
        assert_eq!(stats.total_scan_cursors(), 6);
        assert_eq!(stats.total_scan_entries(), 90);
        assert_eq!(stats.total_write_ops(), 20);
        assert_eq!(stats.total_write_applied(), 17);
        assert_eq!(stats.total_write_batches(), 5);
        assert!((stats.wall_throughput() - 50.0).abs() < 1e-9);
        assert!((stats.scan_throughput() - 45.0).abs() < 1e-9);

        let json = stats.to_json();
        assert_eq!(widx_obs::json::find_u64(&json, "total_keys"), Some(100));
        assert_eq!(
            widx_obs::json::find_u64(&json, "total_scan_entries"),
            Some(90)
        );
        assert_eq!(widx_obs::json::find_f64(&json, "wall_ms"), Some(2000.0));
        assert_eq!(widx_obs::json::find_f64(&json, "uptime_ms"), Some(2000.0));
        assert_eq!(widx_obs::json::find_u64(&json, "total_write_ops"), Some(20));
        assert_eq!(
            widx_obs::json::find_u64(&json, "total_write_applied"),
            Some(17)
        );
        assert!(
            widx_obs::json::find_u64(&json, "host_cpus").is_some_and(|n| n >= 1),
            "host_cpus should report at least one CPU"
        );
        assert!(json.contains(&format!("\"version\": \"{}\"", env!("CARGO_PKG_VERSION"))));
        assert!(json.contains("\"trace\": {\"capacity\": 0, \"depth\": 0,"));

        assert!(
            !json.contains("\"prof\""),
            "no prof block without profiling"
        );

        let prom = stats.render_prometheus();
        assert!(prom.contains("widx_worker_keys_total{tier=\"point\",shard=\"0\"} 60"));
        assert!(prom.contains("widx_worker_matches_total{tier=\"range\",shard=\"0\"} 90"));
        assert!(prom.contains("widx_write_ops_total{tier=\"point\",shard=\"0\"} 12"));
        assert!(prom.contains("widx_write_applied_total{tier=\"point\",shard=\"0\"} 9"));
        assert!(prom.contains("widx_write_batches_total{tier=\"range\",shard=\"0\"} 0"));
        assert!(prom.contains("widx_stage_ns_count{stage=\"write\"} 0"));
        assert!(prom.contains("# TYPE widx_request_latency_ns summary"));
        assert!(prom.contains("widx_stage_ns_count{stage=\"walk\"} 0"));
        assert!(prom.contains("widx_net_open_connections 0"));
        assert!(prom.contains("# TYPE widx_trace_depth gauge"));
        assert!(prom.contains("widx_trace_recorded_total 0"));
        assert!(
            widx_obs::lint_exposition(&prom).is_empty(),
            "exposition must pass the Prometheus lint"
        );
        assert!(
            !prom.contains("widx_net_reactor_open_connections"),
            "no per-reactor series without an attached server"
        );
        assert!(
            !prom.contains("widx_prof_"),
            "no prof series without profiling"
        );
    }

    #[test]
    fn prof_snapshot_renders_in_json_and_prometheus() {
        let mut prof = ProfSnapshot {
            backend: "linux",
            hw: true,
            workers: 2,
            ..ProfSnapshot::default()
        };
        // Index 2 is `Stage::Walk` in `Stage::ALL` order.
        prof.stages[2] = widx_obs::ProfStageSnapshot {
            windows: 4,
            cycles: 10_000,
            instructions: 5_000,
            llc_misses: 100,
            dtlb_misses: 10,
            time_ns: 7_000,
        };
        prof.walk = widx_obs::WalkCounters {
            nodes: 400,
            max_chain: 3,
            rounds: 100,
            occupancy: 380,
            prefetches: 400,
        };
        let stats = ServiceStats {
            workers: vec![],
            range_workers: vec![],
            latency: LatencySummary::default(),
            stages: StageStats::default(),
            net: NetStats::default(),
            trace: RecorderStats::default(),
            prof: Some(prof),
            wall: Duration::from_secs(1),
        };

        let json = stats.to_json();
        assert!(json.contains("\"prof\": {\"backend\":\"linux\",\"hw\":true,"));
        assert!(json.contains("\"soft_mlp\":3.8000"));

        let prom = stats.render_prometheus();
        assert!(prom.contains("widx_prof_workers 2"));
        assert!(prom.contains("widx_prof_hw 1"));
        assert!(prom.contains("widx_prof_cycles_total{stage=\"walk\"} 10000"));
        assert!(prom.contains("widx_prof_ipc{stage=\"walk\"} 0.5"));
        assert!(prom.contains("widx_prof_effective_mlp{stage=\"walk\"} 2"));
        assert!(prom.contains("widx_prof_stall_fraction{stage=\"walk\"} 1"));
        assert!(prom.contains("widx_prof_walk_prefetches_total 400"));
        assert!(prom.contains("widx_prof_soft_mlp 3.8"));
        assert!(
            widx_obs::lint_exposition(&prom).is_empty(),
            "prof series must pass the Prometheus lint"
        );

        // A soft-backend profile emits the counter series (all zero)
        // but none of the derived gauges — their denominators never
        // ticked — and still lints clean.
        let soft = ServiceStats {
            prof: Some(ProfSnapshot {
                backend: "soft",
                workers: 1,
                ..ProfSnapshot::default()
            }),
            ..stats
        };
        let prom = soft.render_prometheus();
        assert!(prom.contains("widx_prof_hw 0"));
        assert!(prom.contains("widx_prof_cycles_total{stage=\"walk\"} 0"));
        assert!(!prom.contains("widx_prof_ipc"), "no IPC without cycles");
        assert!(
            !prom.contains("widx_prof_soft_mlp"),
            "no MLP without rounds"
        );
        assert!(widx_obs::lint_exposition(&prom).is_empty());
    }

    #[test]
    fn per_reactor_gauges_render_in_json_and_prometheus() {
        let stats = ServiceStats {
            workers: vec![],
            range_workers: vec![],
            latency: LatencySummary::default(),
            stages: StageStats::default(),
            net: NetStats {
                connections: 3,
                open_connections: 3,
                write_backlog_bytes: 700,
                reactors: vec![
                    ReactorStats {
                        open_connections: 2,
                        write_backlog_bytes: 512,
                    },
                    ReactorStats {
                        open_connections: 1,
                        write_backlog_bytes: 188,
                    },
                ],
                ..NetStats::default()
            },
            trace: RecorderStats::default(),
            prof: None,
            wall: Duration::from_secs(1),
        };
        let json = stats.to_json();
        // The *total* stays the first "open_connections" occurrence, so
        // existing scrapers keep reading it.
        assert_eq!(widx_obs::json::find_u64(&json, "open_connections"), Some(3));
        assert!(
            json.contains("\"reactors\": [ {\"reactor\": 0, \"open\": 2, \"backlog_bytes\": 512}")
        );
        assert!(json.contains("{\"reactor\": 1, \"open\": 1, \"backlog_bytes\": 188}"));

        let prom = stats.render_prometheus();
        assert!(prom.contains("widx_net_open_connections 3"));
        assert!(prom.contains("widx_net_reactor_open_connections{reactor=\"0\"} 2"));
        assert!(prom.contains("widx_net_reactor_write_backlog_bytes{reactor=\"1\"} 188"));

        assert!(!stats.net.is_empty());
        let idle = NetStats {
            reactors: vec![ReactorStats::default(); 4],
            ..NetStats::default()
        };
        assert!(idle.is_empty(), "zeroed reactors still count as no traffic");
    }
}
