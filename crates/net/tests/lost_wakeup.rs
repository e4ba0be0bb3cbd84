//! Regression tests for the event loop's lost-wakeup race.
//!
//! The pre-poller loop made a final reap pass, saw no progress, and
//! went to `thread::sleep(idle_backoff)` — so a `ResponseState` waker
//! that fired *between that check and the sleep* (a shard worker
//! completing a request on its own thread) was not observed until the
//! sleep expired. With the poller, the waker rings the wake handle and
//! the blocking `poller.wait` returns immediately: these tests pin an
//! `idle_backoff` far above the service's completion time and assert
//! the reply still arrives at completion speed. Against the old sleep
//! loop they fail by construction — the reply cannot beat the sleep.

use std::sync::Arc;
use std::time::{Duration, Instant};

use widx_db::hash::HashRecipe;
use widx_net::{NetConfig, WidxClient, WidxServer};
use widx_serve::{PendingResponse, ProbeService, Request, ServeConfig};

/// Probes in one gate job: enough walking to keep a shard worker busy
/// for milliseconds.
const GATE_KEYS: usize = 1 << 18;

/// A two-shard service whose queues admit a whole gate job.
fn service() -> Arc<ProbeService> {
    Arc::new(ProbeService::build_with_range(
        HashRecipe::robust64(),
        (0..1000u64).map(|k| (k, k + 1)),
        &ServeConfig::default()
            .with_shards(2)
            .with_queue_capacity(2 * GATE_KEYS),
    ))
}

/// Gates the shard worker that owns `key` with one large in-process
/// multi-lookup. Batching is work-conserving, so the gate job closes
/// its batch at once and the worker walks it; a wire request for `key`
/// arriving meanwhile queues behind it and completes — firing the
/// completion waker — only after the whole walk, a completion that
/// lands squarely inside the server's idle wait.
fn gate(service: &ProbeService, key: u64) -> PendingResponse {
    service
        .submit(Request::MultiLookup {
            keys: vec![key; GATE_KEYS],
        })
        .expect("gate")
}

/// The real-readiness backends available on this platform. The
/// `timeout` backend is deliberately absent: it notices request
/// *arrival* only at its polling cadence (that is its documented
/// degradation), so pinning a huge `idle_backoff` would measure that,
/// not the completion wake — whose delivery the poller's own unit
/// tests already pin for every backend.
fn readiness_backends() -> Vec<&'static str> {
    if cfg!(target_os = "linux") {
        vec!["epoll", "poll"]
    } else {
        vec!["poll"]
    }
}

#[test]
fn completion_landing_mid_wait_is_flushed_at_completion_speed() {
    let idle_backoff = Duration::from_millis(1500);
    for backend in readiness_backends() {
        let service = service();
        let server = WidxServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetConfig::default()
                .with_idle_backoff(idle_backoff)
                .with_poller_backend(backend),
        )
        .expect("bind");
        let mut client = WidxClient::connect(server.local_addr()).expect("connect");

        let started = Instant::now();
        let gate = gate(&service, 41);
        let id = client.send(&Request::Lookup { key: 41 }).expect("send");
        let sent_while_gated = !gate.is_ready();
        let reply = client.recv(id).expect("recv");
        let elapsed = started.elapsed();
        assert_eq!(
            reply,
            widx_net::Response::Lookup {
                key: 41,
                payloads: vec![42]
            },
            "{backend}"
        );

        // The reply really was gated on the gate job (the race window
        // this test aims at): the lookup reached the server while its
        // worker was still walking the gate, and came back after it...
        assert!(
            sent_while_gated && gate.is_ready(),
            "{backend}: reply at {elapsed:?} was not gated — \
             the completion did not land inside the idle wait"
        );
        // ...and the wake handle cut the wait short: well under the
        // idle backoff the old loop would have slept out.
        assert!(
            elapsed < idle_backoff / 2,
            "{backend}: reply took {elapsed:?} with idle_backoff {idle_backoff:?} — \
             the completion wake was lost"
        );
        drop(gate.wait());

        let _ = server.shutdown();
        drop(
            Arc::try_unwrap(service)
                .ok()
                .expect("sole owner")
                .shutdown(),
        );
    }
}

#[test]
fn pipelined_completions_mid_wait_all_flush_at_completion_speed() {
    // Same race, wider window: several requests in flight behind one
    // gate, each completing on a worker thread while the loop blocks.
    let idle_backoff = Duration::from_millis(1500);
    for backend in readiness_backends() {
        let service = service();
        let server = WidxServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetConfig::default()
                .with_idle_backoff(idle_backoff)
                .with_poller_backend(backend),
        )
        .expect("bind");
        let mut client = WidxClient::connect(server.local_addr()).expect("connect");

        let started = Instant::now();
        let gate = gate(&service, 0);
        let ids: Vec<u64> = (0..8)
            .map(|k| client.send(&Request::Lookup { key: k }).expect("send"))
            .collect();
        for (k, id) in ids.into_iter().enumerate() {
            match client.recv(id).expect("recv") {
                widx_net::Response::Lookup { payloads, .. } => {
                    assert_eq!(payloads, vec![k as u64 + 1], "{backend}");
                }
                other => panic!("{backend}: wrong variant {other:?}"),
            }
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < idle_backoff / 2,
            "{backend}: pipelined replies took {elapsed:?} — a wake was lost"
        );
        drop(gate.wait());

        let _ = server.shutdown();
        drop(
            Arc::try_unwrap(service)
                .ok()
                .expect("sole owner")
                .shutdown(),
        );
    }
}

#[test]
fn shutdown_interrupts_a_blocked_idle_wait() {
    // A fully quiet server blocks in `poller.wait` for up to its quiet
    // cap (one second). Shutdown rings the wake handle, so it must
    // return long before that — the old loop's flag check also only
    // happened once per sleep, which this inherits a guarantee against.
    for backend in readiness_backends() {
        let service = service();
        let server = WidxServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            NetConfig::default().with_poller_backend(backend),
        )
        .expect("bind");
        // Let the loop settle into its quiet blocking wait.
        std::thread::sleep(Duration::from_millis(30));
        let started = Instant::now();
        let _ = server.shutdown();
        assert!(
            started.elapsed() < Duration::from_millis(700),
            "{backend}: shutdown waited out the quiet cap ({:?})",
            started.elapsed()
        );
        drop(
            Arc::try_unwrap(service)
                .ok()
                .expect("sole owner")
                .shutdown(),
        );
    }
}

#[test]
fn bind_rejects_an_unknown_poller_backend() {
    let service = service();
    match WidxServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig::default().with_poller_backend("no-such-backend"),
    ) {
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput),
        Ok(_) => panic!("unknown backend must fail bind, not the event loop"),
    }
}
