//! Ordered range serving end to end: build both index tiers over one
//! table, stream `RangeScan` requests through the per-shard B+-tree
//! walkers, and read the telemetry — the ordered-path mirror of the
//! `probe_service` example.
//!
//! Run with: `cargo run --release --example range_scan`

use widx_repro::db::hash::HashRecipe;
use widx_repro::serve::{ProbeService, Request, Response, ServeConfig};
use widx_repro::workloads::datagen;

fn main() {
    // A primary-key build side: 64k unique keys, payload = row id.
    let entries = 1 << 16;
    let pairs: Vec<(u64, u64)> = datagen::unique_shuffled_keys(7, entries)
        .into_iter()
        .enumerate()
        .map(|(row, key)| (key, row as u64))
        .collect();

    let config = ServeConfig::default()
        .with_shards(4)
        .with_inflight(8)
        .with_batch_size(64)
        .with_fanout(16);
    let service = ProbeService::build_with_range(HashRecipe::robust64(), pairs, &config);
    let ordered = service.ordered().expect("built with a range tier");
    println!(
        "serving {} entries over {} ordered shards (boundaries: {:?})",
        ordered.len(),
        ordered.shard_count(),
        ordered.boundaries(),
    );

    // A skewed burst of bounded scans, pipelined without waiting — the
    // service batches the scans' cursors per ordered shard to fill the
    // walker rings, and scatters cross-boundary scans over neighbours.
    let ranges = datagen::range_queries(11, 10_000, entries as u64, 512, 0.99);
    let pendings: Vec<_> = ranges
        .iter()
        .map(|(lo, hi)| {
            service
                .submit(Request::RangeScan {
                    lo: *lo,
                    hi: *hi,
                    limit: 128,
                    desc: false,
                })
                .expect("running")
        })
        .collect();
    let mut returned = 0usize;
    for pending in pendings {
        returned += pending.wait().match_count();
    }
    println!("burst: 10000 pipelined scans, {returned} entries returned");

    // One typed request through the generic path: a cross-shard scan,
    // gathered back in key order with the limit applied at the seam.
    match service
        .submit(Request::RangeScan {
            lo: 1000,
            hi: 50_000,
            limit: 5,
            desc: false,
        })
        .expect("running")
        .wait()
    {
        Response::RangeScan { entries } => {
            println!("scan [1000, 50000] limit 5 -> {entries:?}");
            assert!(entries.windows(2).all(|w| w[0].0 <= w[1].0), "key-ordered");
        }
        other => panic!("unexpected response {other:?}"),
    }

    // Point and range tiers share the service: a lookup agrees with a
    // width-zero scan of the same key.
    let payloads = service.lookup(4242).expect("running");
    let scanned = service.range_scan(4242, 4242, usize::MAX).expect("running");
    assert_eq!(payloads.len(), scanned.len());
    println!("lookup(4242) == scan [4242, 4242]: {payloads:?}");

    // Drain-then-halt shutdown returns per-worker telemetry.
    let stats = service.shutdown();
    println!(
        "\nserved {} scan cursors / {} entries in {:.1} ms ({:.2} Mentries/s wall)",
        stats.total_scan_cursors(),
        stats.total_scan_entries(),
        stats.wall.as_secs_f64() * 1e3,
        stats.scan_throughput() / 1e6,
    );
    for w in &stats.workers {
        println!(
            "  shard {}: {:>6} keys, {:>6} cursors, {:>4} batches (mean {:>5.1}), occupancy {:>5.1}%",
            w.shard,
            w.keys,
            w.scan_cursors,
            w.batches,
            w.mean_batch(),
            w.occupancy() * 100.0,
        );
    }
    println!(
        "  latency: p50 {:.1} µs, p99 {:.1} µs over {} requests",
        stats.latency.p50_ns as f64 / 1e3,
        stats.latency.p99_ns as f64 / 1e3,
        stats.latency.count,
    );
}
