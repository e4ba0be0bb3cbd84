//! End-to-end tests for the per-request tracing seam over TCP: a
//! deliberately slow request must land in the flight recorder with the
//! full span seam (net-read → queue-wait → walk → gather → reply-write)
//! and non-trivial walker counters, every traced request's spans must
//! tile its life from frame decode to reply flush under a concurrent mix
//! whose `Trace` opcode scrape round-trips the recorder's JSON document,
//! and a server with tracing unarmed must record nothing. The suite runs under whatever poller
//! backend `WIDX_POLLER` selects, so CI exercises it on both epoll and
//! poll.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use widx_db::hash::HashRecipe;
use widx_net::{NetConfig, WidxClient, WidxServer};
use widx_obs::json::find_u64;
use widx_serve::{ProbeService, ServeConfig, Stage};

const ENTRIES: u64 = 8192;
const ROUNDS: u64 = 10;

fn start(serve: ServeConfig) -> (Arc<ProbeService>, WidxServer) {
    let service = Arc::new(ProbeService::build_with_range(
        HashRecipe::robust64(),
        (0..ENTRIES).map(|k| (k, k + 1)),
        &serve,
    ));
    let server = WidxServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
        .expect("bind server");
    (service, server)
}

#[test]
fn slow_request_is_tail_recorded_with_the_full_span_seam() {
    // Head sampling off; a tiny slow threshold makes the big scan below
    // tail-select itself while the warm-up lookups may or may not.
    let (service, server) = start(
        ServeConfig::default()
            .with_shards(2)
            .with_batch_deadline(Duration::from_micros(100))
            .with_slow_threshold(Some(Duration::from_micros(50))),
    );
    let mut client = WidxClient::connect(server.local_addr()).expect("connect");

    // A deliberately slow request: scan the whole table.
    let entries = client
        .range_scan(0, ENTRIES, ENTRIES as usize)
        .expect("range_scan");
    assert_eq!(entries.len(), ENTRIES as usize);

    // A net-armed trace commits on the reactor thread once the reply
    // bytes flush — an instant *after* the client can observe the
    // reply. `flush` waits out every armed trace's commit ticket, so
    // the asserts below are deterministic, not racy lower bounds.
    let recorder = service.flight_recorder();
    recorder.flush();
    let stats = recorder.stats();
    assert_eq!(stats.recorded, 1, "slow scan not tail-recorded");
    assert_eq!(stats.slow, 1, "slow counter did not move");

    let traces = recorder.snapshot();
    let trace = traces
        .iter()
        .find(|t| t.kind == "range_scan")
        .expect("the slow scan's trace is in the recorder");
    assert!(trace.slow, "the scan exceeded the threshold");
    assert_eq!(trace.reactor, Some(0), "frame decoded by reactor 0");
    assert!(!trace.shards.is_empty(), "no shard recorded");
    assert!(trace.walk.nodes > 0, "walker visited no nodes");
    assert!(trace.walk.rounds > 0, "walker ran no rounds");

    // The seam covers the request's life: the spans tile it from the
    // frame decode to the reply flush, through every serve stage.
    assert!(trace.is_tiled(), "{trace:?}");
    let stages: Vec<Stage> = trace.spans.iter().map(|s| s.stage).collect();
    assert_eq!(
        stages,
        [
            Stage::NetRead,
            Stage::QueueWait,
            Stage::BatchWait,
            Stage::Walk,
            Stage::Gather,
            Stage::ReplyWrite
        ]
    );

    drop(client);
    let _ = server.shutdown();
    let _ = Arc::try_unwrap(service)
        .ok()
        .expect("sole owner")
        .shutdown();
}

/// One connection's share of the traced mix: lookups, multi-lookups and
/// scans across both shards, streams, and fresh-key writes.
fn run_client(addr: std::net::SocketAddr, barrier: &Barrier, c: u64) {
    let mut client = WidxClient::connect(addr).expect("connect");
    barrier.wait();
    let half = ENTRIES / 2;
    for i in 0..ROUNDS {
        let key = (c * ROUNDS + i) * 41 % ENTRIES;
        assert_eq!(client.lookup(key).expect("lookup"), vec![key + 1]);
        let keys: Vec<u64> = (0..16).map(|j| (key + j * 509) % ENTRIES).collect();
        assert_eq!(client.multi_lookup(&keys).expect("multi").len(), 16);
        let scan = client.range_scan(half - 50, half + 50, 100).expect("scan");
        assert_eq!(scan.len(), 100);
        let stream = client
            .range_stream(half - 100, half + 100, usize::MAX, false)
            .expect("stream");
        assert_eq!(stream.collect_remaining().expect("chunks").len(), 201);
        let fresh = 2 * ENTRIES + c * ROUNDS + i;
        assert_eq!(client.insert(&[(fresh, 1)]).expect("insert"), [true]);
        assert_eq!(client.delete(&[fresh]).expect("delete"), [true]);
    }
}

#[test]
fn trace_opcode_round_trips_over_tcp() {
    const CLIENTS: u64 = 3;
    // Per round: lookup, multi-lookup, scan, stream and two writes.
    let requests = CLIENTS * ROUNDS * 6;
    let (service, server) = start(
        ServeConfig::default()
            .with_shards(2)
            .with_batch_deadline(Duration::from_micros(100))
            .with_stream_chunk(64)
            .with_trace_sample(1)
            .with_trace_capacity(requests as usize),
    );
    let mut client = WidxClient::connect(server.local_addr()).expect("connect");

    // A scrape before any load parses and reports an empty ring.
    let json = client.traces_json().expect("trace scrape");
    assert_eq!(find_u64(&json, "recorded"), Some(0), "idle scrape: {json}");
    assert!(json.contains("\"traces\":[]"), "idle scrape: {json}");

    let barrier = Barrier::new(CLIENTS as usize);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (addr, barrier) = (server.local_addr(), &barrier);
            scope.spawn(move || run_client(addr, barrier, c));
        }
    });
    // Each trace commits on the reactor right after its reply flushed;
    // `flush` waits every commit out.
    service.flight_recorder().flush();

    // Every request's spans tile its life from the frame decode to the
    // reply flush, and the histograms read the same instants: the worker
    // stages add up to the service latency, and both network stages
    // count every request.
    let traces = service.flight_recorder().snapshot();
    assert_eq!(traces.len() as u64, requests);
    for trace in &traces {
        assert!(trace.is_tiled(), "{trace:?}");
        assert_eq!(trace.spans[0].stage, Stage::NetRead, "{trace:?}");
        assert_eq!(trace.spans.last().map(|s| s.stage), Some(Stage::ReplyWrite));
    }
    let stats = service.live_stats();
    let sum = |stage| stats.stages.get(stage).sum_ns;
    let worker_stages = [
        Stage::QueueWait,
        Stage::BatchWait,
        Stage::Walk,
        Stage::Write,
    ];
    let worker_sum: u64 = worker_stages.into_iter().map(sum).sum::<u64>() + sum(Stage::Gather);
    assert_eq!(worker_sum, stats.latency.sum_ns);
    assert_eq!(stats.stages.get(Stage::NetRead).count as u64, requests);
    assert_eq!(stats.stages.get(Stage::ReplyWrite).count as u64, requests);

    let json = client.traces_json().expect("trace scrape");
    assert_eq!(find_u64(&json, "recorded"), Some(requests), "{json}");
    assert!(json.contains("\"kind\":\"lookup\""), "{json}");
    assert!(json.contains("\"reactor\":0"), "{json}");
    assert!(json.contains("\"stage\":\"reply_write\""), "{json}");
    assert!(json.contains("\"walk\":{\"nodes\":"), "{json}");

    // The wire document matches the in-process recorder's rendering.
    assert_eq!(json, service.traces_json());

    // Recorder gauges also surface in the Stats opcode's snapshot.
    let stats = client.stats_json().expect("stats scrape");
    let at = stats.find("\"trace\"").expect("trace block in stats");
    assert_eq!(find_u64(&stats[at..], "recorded"), Some(requests));

    drop(client);
    let _ = server.shutdown();
    let _ = Arc::try_unwrap(service)
        .ok()
        .expect("sole owner")
        .shutdown();
}

#[test]
fn unarmed_server_records_nothing() {
    // No head sampling, no slow threshold: the tracing seam must stay
    // entirely cold — the recorder sees no traces at all.
    let (service, server) = start(ServeConfig::default().with_shards(2));
    let mut client = WidxClient::connect(server.local_addr()).expect("connect");

    for key in 0..64u64 {
        assert_eq!(client.lookup(key).expect("lookup"), vec![key + 1]);
    }
    let entries = client.range_scan(0, 1000, 500).expect("range_scan");
    assert_eq!(entries.len(), 500);

    let stats = service.flight_recorder().stats();
    assert_eq!(stats.recorded, 0, "unarmed server recorded a trace");
    assert_eq!(stats.depth, 0);
    let json = client.traces_json().expect("trace scrape");
    assert!(json.contains("\"traces\":[]"), "{json}");

    drop(client);
    let _ = server.shutdown();
    let _ = Arc::try_unwrap(service)
        .ok()
        .expect("sole owner")
        .shutdown();
}
