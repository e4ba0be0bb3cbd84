//! Per-request tracing integration tests at the serve tier: the span
//! seam (queue-wait → batch-wait → walk → gather) must cover a sampled
//! request's life, buffered and streaming, with walker MLP counters
//! attached; the stage budget — every request's stages add up to its
//! latency and its trace's spans tile its life — holds under a
//! concurrent mix; tail sampling must catch slow requests with head
//! sampling off; and an unarmed service must leave the recorder
//! untouched.

use std::sync::Barrier;
use std::time::Duration;

use widx_db::hash::HashRecipe;
use widx_serve::{ProbeService, Request, RequestTrace, Response, ServeConfig, Stage};

const ENTRIES: u64 = 8192;
const ROUNDS: u64 = 25;

fn build(config: ServeConfig) -> ProbeService {
    ProbeService::build_with_range(
        HashRecipe::robust64(),
        (0..ENTRIES).map(|k| (k, k + 1)),
        &config,
    )
}

fn span_dur(trace: &RequestTrace, stage: Stage) -> Option<u64> {
    trace
        .spans
        .iter()
        .filter(|s| s.stage == stage)
        .map(|s| s.dur_ns)
        .max()
}

/// One client's share of the stage-budget mix: every request crosses
/// both shards except the lone lookup and the fresh-key insert/delete.
fn run_client(service: &ProbeService, t: u64) {
    let half = ENTRIES / 2;
    for i in 0..ROUNDS {
        let key = (t * ROUNDS + i) * 37 % ENTRIES;
        assert_eq!(service.lookup(key).expect("lookup"), vec![key + 1]);
        let keys: Vec<u64> = (0..16).map(|j| (key + j * 509) % ENTRIES).collect();
        assert_eq!(service.multi_lookup(&keys).expect("multi").len(), 16);
        let scan = service.range_scan(half - 50, half + 50, 100).expect("scan");
        assert_eq!(scan.len(), 100);
        let mut stream = service
            .range_stream(half - 100, half + 100, usize::MAX, false)
            .expect("stream");
        assert_eq!(stream.collect_remaining().len(), 201);
        // Stationary writes: an update rewriting the same payloads on
        // both shards, and a fresh key inserted then deleted.
        let pairs = vec![(key / 2, key / 2 + 1), (half + key / 2, half + key / 2 + 1)];
        match service
            .submit(Request::Update { pairs })
            .expect("update")
            .wait()
        {
            Response::Write { acks } => assert_eq!(acks, [true, true]),
            other => panic!("update answered {other:?}"),
        }
        let fresh = 2 * ENTRIES + t * ROUNDS + i;
        assert!(service.insert(fresh, 1).expect("insert"));
        assert!(service.delete(fresh).expect("delete"));
    }
}

/// The stage budget: a request's stages are contiguous intervals read
/// off one clock, so under a concurrent mix of lookups, multi-lookups,
/// buffered and streaming scans, and writes, the stage sums equal the
/// latency sum exactly and every trace tiles its request's life.
#[test]
fn stage_budget_adds_up_and_every_trace_tiles() {
    const THREADS: u64 = 4;
    // Per round: four reads, then three writes.
    let (reads, writes) = (THREADS * ROUNDS * 4, THREADS * ROUNDS * 3);
    let service = build(
        ServeConfig::default()
            .with_shards(2)
            .with_batch_deadline(Duration::from_micros(100))
            .with_stream_chunk(64)
            .with_trace_sample(1)
            .with_trace_capacity((reads + writes) as usize),
    );
    let barrier = Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (service, barrier) = (&service, &barrier);
            scope.spawn(move || {
                barrier.wait();
                run_client(service, t);
            });
        }
    });

    // Every request recorded its stages before its caller woke; a trace
    // commits just *after* that wakeup, and `flush` waits every commit
    // out, so the counts below are exact.
    service.flight_recorder().flush();
    let stats = service.live_stats();
    let count = |stage| stats.stages.get(stage).count as u64;
    assert_eq!(stats.latency.count as u64, reads + writes);
    assert_eq!(count(Stage::QueueWait), reads + writes);
    assert_eq!(count(Stage::Gather), reads + writes);
    assert_eq!(
        (count(Stage::BatchWait), count(Stage::Walk)),
        (reads, reads)
    );
    assert_eq!(count(Stage::Write), writes);
    assert_eq!(count(Stage::NetRead) + count(Stage::ReplyWrite), 0);
    let stage_sum: u64 = Stage::ALL
        .into_iter()
        .map(|stage| stats.stages.get(stage).sum_ns)
        .sum();
    assert_eq!(
        stage_sum, stats.latency.sum_ns,
        "stages must add up exactly"
    );

    let traces = service.flight_recorder().snapshot();
    assert_eq!(traces.len() as u64, reads + writes);
    for trace in &traces {
        let stages: Vec<Stage> = trace.spans.iter().map(|s| s.stage).collect();
        assert!(trace.is_tiled(), "{trace:?}");
        assert!(!trace.shards.is_empty(), "no shard recorded");
        if matches!(trace.kind, "insert" | "delete" | "update") {
            assert_eq!(stages, [Stage::QueueWait, Stage::Write, Stage::Gather]);
            continue;
        }
        let read = [
            Stage::QueueWait,
            Stage::BatchWait,
            Stage::Walk,
            Stage::Gather,
        ];
        assert_eq!(stages, read, "{trace:?}");
        assert!(trace.walk.nodes > 0, "walker visited no nodes");
        assert!(trace.walk.rounds > 0, "walker ran no rounds");
        assert!(trace.walk.prefetches > 0, "walker issued no prefetches");
    }
    // Multi-shard requests fan their shard set out.
    for kind in ["multi_lookup", "range_stream", "update"] {
        let trace = traces.iter().find(|t| t.kind == kind).expect("traced");
        assert_eq!(trace.shards.len(), 2, "{trace:?}");
    }
    // The Trace opcode payload renders the same recorder.
    assert!(service.traces_json().contains("\"traces\":[{"));
    let _ = service.shutdown();
}

#[test]
fn head_sampled_requests_carry_the_full_span_seam() {
    let service = build(
        ServeConfig::default()
            .with_shards(2)
            .with_batch_deadline(Duration::from_micros(100))
            .with_trace_sample(1),
    );

    for key in 0..32u64 {
        assert_eq!(service.lookup(key).expect("lookup"), vec![key + 1]);
    }
    let keys: Vec<u64> = (0..64).map(|i| i * 97 % ENTRIES).collect();
    let rows = service.multi_lookup(&keys).expect("multi_lookup");
    assert_eq!(rows.len(), keys.len());
    let entries = service.range_scan(100, 4000, 500).expect("range_scan");
    assert_eq!(entries.len(), 500);

    // A trace commits just *after* the completion wakeup that releases
    // the blocked caller; `flush` waits out every armed trace's commit
    // ticket, so the counts below are exact, not racy lower bounds.
    let recorder = service.flight_recorder();
    recorder.flush();
    let stats = recorder.stats();
    assert_eq!(
        stats.recorded, 34,
        "every request is head-sampled and committed by flush time"
    );
    let traces = recorder.snapshot();
    assert!(!traces.is_empty());

    // Every completed trace must carry the serve-side seam stages and
    // a non-trivial walker counter record, and its spans must fit
    // inside the end-to-end latency.
    for trace in &traces {
        for stage in [Stage::QueueWait, Stage::BatchWait, Stage::Walk] {
            assert!(
                span_dur(trace, stage).is_some(),
                "{} trace {} missing {} span",
                trace.kind,
                trace.id,
                stage.name()
            );
        }
        assert!(!trace.shards.is_empty(), "no shard recorded");
        assert!(trace.walk.nodes > 0, "walker visited no nodes");
        assert!(trace.walk.rounds > 0, "walker ran no rounds");
        assert!(trace.walk.prefetches > 0, "walker issued no prefetches");
        for span in &trace.spans {
            assert!(
                span.start_ns <= trace.total_ns,
                "span starts after the request completed"
            );
        }
        // Queue-wait begins at (or near) the submit anchor; the walk
        // span must not start before it.
        let queue_start = trace
            .spans
            .iter()
            .find(|s| s.stage == Stage::QueueWait)
            .map(|s| s.start_ns)
            .expect("queue span");
        let walk_start = trace
            .spans
            .iter()
            .find(|s| s.stage == Stage::Walk)
            .map(|s| s.start_ns)
            .expect("walk span");
        assert!(walk_start >= queue_start, "walk began before queue-wait");
    }

    // A multi-shard request fans its shard set out.
    let multi = traces
        .iter()
        .find(|t| t.kind == "multi_lookup")
        .expect("multi_lookup trace");
    assert!(multi.shards.len() >= 2, "64-key lookup touched one shard");

    let gathered = traces
        .iter()
        .filter(|t| span_dur(t, Stage::Gather).is_some())
        .count();
    assert!(gathered >= 1, "no trace recorded a gather span");

    // The Trace opcode payload parses out of the same recorder.
    let json = service.traces_json();
    assert!(json.contains("\"traces\":["));
    assert!(json.contains("\"walk\":"));
    let _ = service.shutdown();
}

#[test]
fn tail_sampling_catches_slow_requests_without_head_sampling() {
    let service = build(
        ServeConfig::default()
            .with_shards(2)
            .with_batch_deadline(Duration::from_micros(100))
            .with_slow_threshold(Some(Duration::from_nanos(1))),
    );
    // Head sampling is off; the 1ns threshold tail-selects everything.
    let entries = service.range_scan(0, ENTRIES, 2000).expect("range_scan");
    assert_eq!(entries.len(), 2000);

    service.flight_recorder().flush();
    let stats = service.flight_recorder().stats();
    assert_eq!(stats.recorded, 1, "the slow request is tail-recorded");
    assert_eq!(stats.slow, stats.recorded, "all records are tail-selected");
    let traces = service.flight_recorder().snapshot();
    assert!(traces.iter().all(|t| t.slow));
    let _ = service.shutdown();
}

#[test]
fn unarmed_service_records_nothing() {
    let service = build(ServeConfig::default().with_shards(2));
    for key in 0..16u64 {
        let _ = service.lookup(key).expect("lookup");
    }
    let _ = service.range_scan(0, 100, 10).expect("scan");
    let stats = service.flight_recorder().stats();
    assert_eq!(stats.recorded, 0);
    assert_eq!(stats.depth, 0);
    assert!(service.flight_recorder().snapshot().is_empty());
    let final_stats = service.shutdown();
    assert_eq!(final_stats.trace.recorded, 0);
}

#[test]
fn recorder_ring_evicts_oldest_and_counts_drops() {
    let service = build(
        ServeConfig::default()
            .with_shards(2)
            .with_trace_sample(1)
            .with_trace_capacity(4),
    );
    for key in 0..32u64 {
        let _ = service.lookup(key).expect("lookup");
    }
    service.flight_recorder().flush();
    let stats = service.flight_recorder().stats();
    assert_eq!(stats.depth, 4, "ring holds exactly its capacity");
    assert_eq!(stats.recorded, 32);
    assert_eq!(stats.dropped, stats.recorded - 4);
    let _ = service.shutdown();
}

#[test]
fn streaming_scans_are_traced_too() {
    let service = build(
        ServeConfig::default()
            .with_shards(2)
            .with_stream_chunk(64)
            .with_trace_sample(1),
    );
    let mut stream = service
        .range_stream(0, ENTRIES, usize::MAX, false)
        .expect("stream");
    let mut total = 0usize;
    while let Some(chunk) = stream.next_chunk() {
        total += chunk.len();
    }
    assert_eq!(total, ENTRIES as usize);
    service.flight_recorder().flush();
    assert_eq!(service.flight_recorder().stats().recorded, 1);
    let traces = service.flight_recorder().snapshot();
    let trace = traces
        .iter()
        .find(|t| t.kind == "range_stream")
        .expect("range_stream trace");
    assert!(trace.walk.nodes > 0);
    assert!(span_dur(trace, Stage::Walk).is_some());
    let _ = service.shutdown();
}
