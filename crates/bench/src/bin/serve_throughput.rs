//! Serving-layer throughput sweep: shard count × in-flight walkers ×
//! batch size on a Zipfian key stream — the `widx-serve` walker pool
//! measured as a front-end, not a loop.
//!
//! Four client threads pipeline `MultiLookup` requests against the
//! service; per-run output reports wall-clock service throughput,
//! request-latency percentiles, and per-worker occupancy/batch shape.
//! With `--json PATH`, the full sweep (including per-worker rows) is
//! written as JSON for trend tracking (`BENCH_serve.json` keeps the
//! committed baseline).
//!
//! With `--scrape-ms N`, a telemetry thread polls
//! `ProbeService::live_stats()` every N milliseconds *while the run is
//! hot*, asserting the scraped counters are monotone — the bench
//! doubles as a concurrency test for the lock-free registry, and the
//! scrape count lands in the JSON so overhead runs are comparable.
//!
//! With `--profile`, every worker thread opens a `perf-event` counter
//! group (hardware counters where the kernel grants them, the software
//! clock otherwise — the JSON says which), the per-run output carries
//! the per-stage cycle breakdown, and a paper-style per-engine sweep
//! (scalar / group-prefetch / AMAC over the same Zipfian probes)
//! reports IPC, LLC MPKI, stall fraction, and effective MLP per
//! walker engine — Figure 2 of the paper, measured live.
//!
//! With `--write-frac F`, that fraction of requests become `Insert`
//! batches over the same Zipfian key stream (F=0.05 is the YCSB-B
//! 95/5 shape, F=0.5 the YCSB-A 50/50 shape) — the sweep then measures
//! the mutable serving tier with write barriers on the hot path, and
//! each run reports its write-op counters.
//!
//! Usage: `serve_throughput [--shards N] [--probes N] [--entries N]
//! [--theta T] [--req-size N] [--write-frac F] [--scrape-ms N]
//! [--profile] [--smoke] [--json PATH]`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use widx_bench::prof::{engines_json, host_json, profile_engines, render_engine_table};
use widx_bench::table::{f1, f2, pct, Table};
use widx_db::hash::HashRecipe;
use widx_db::index::HashIndex;
use widx_serve::{ProbeService, Request, ServeConfig, ServiceStats};
use widx_workloads::datagen;

const SEED: u64 = 0xD15C0;
const CLIENTS: usize = 4;
/// AMAC ring size / group-prefetch width for the per-engine profiled
/// sweep (matches the serving tier's default walker shape).
const PROFILE_INFLIGHT: usize = 8;
const PROFILE_GROUP: usize = 16;

struct Args {
    shards: Option<usize>,
    probes: usize,
    entries: u64,
    theta: f64,
    req_size: usize,
    write_frac: f64,
    scrape_ms: Option<u64>,
    profile: bool,
    smoke: bool,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        shards: None,
        probes: 100_000,
        entries: 1 << 18,
        theta: 0.99,
        req_size: 128,
        write_frac: 0.0,
        scrape_ms: None,
        profile: false,
        smoke: false,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--shards" => args.shards = Some(value().parse().expect("--shards")),
            "--probes" => args.probes = value().parse().expect("--probes"),
            "--entries" => args.entries = value().parse().expect("--entries"),
            "--theta" => args.theta = value().parse().expect("--theta"),
            "--req-size" => args.req_size = value().parse().expect("--req-size"),
            "--write-frac" => {
                args.write_frac = value().parse().expect("--write-frac");
                assert!(
                    (0.0..=1.0).contains(&args.write_frac),
                    "--write-frac must be in [0, 1]"
                );
            }
            "--scrape-ms" => args.scrape_ms = Some(value().parse().expect("--scrape-ms")),
            "--profile" => args.profile = true,
            "--smoke" => args.smoke = true,
            "--json" => args.json = Some(value()),
            other => panic!("unknown flag {other}"),
        }
    }
    if args.smoke {
        // A CI-sized run: one sweep point, small table, seconds not
        // minutes. Explicit flags still win.
        args.probes = 8_000;
        args.entries = 1 << 14;
        if args.shards.is_none() {
            args.shards = Some(2);
        }
    }
    args
}

/// One sweep point's results.
struct Run {
    shards: usize,
    inflight: usize,
    batch_size: usize,
    wall_ms: f64,
    keys_per_sec: f64,
    /// Live-stats scrapes taken while the run was hot (0 without
    /// `--scrape-ms`).
    scrapes: u64,
    stats: ServiceStats,
}

/// Drives `probes` through a freshly built service with `CLIENTS`
/// pipelining client threads. With `scrape_ms`, a telemetry thread
/// polls `live_stats()` concurrently, asserting monotone counters.
/// With `write_frac > 0`, each client turns that fraction of its
/// requests into `Insert` batches over the same keys (deterministic
/// error-diffusion pick, so every run at a given fraction issues the
/// identical mix).
#[allow(clippy::too_many_arguments)]
fn run_once(
    pairs: &[(u64, u64)],
    probes: &[u64],
    shards: usize,
    inflight: usize,
    batch_size: usize,
    req_size: usize,
    write_frac: f64,
    scrape_ms: Option<u64>,
    profile: bool,
) -> Run {
    let config = ServeConfig::default()
        .with_shards(shards)
        .with_inflight(inflight)
        .with_batch_size(batch_size)
        .with_profile(profile);
    let service = ProbeService::build(HashRecipe::robust64(), pairs.iter().copied(), &config);

    let started = Instant::now();
    let scrapes = AtomicU64::new(0);
    let stop_scraper = AtomicBool::new(false);
    let stop_scraper = &stop_scraper;
    std::thread::scope(|scope| {
        let per_client = probes.len().div_ceil(CLIENTS);
        let mut clients = Vec::with_capacity(CLIENTS);
        for slice in probes.chunks(per_client.max(1)) {
            let service = &service;
            clients.push(scope.spawn(move || {
                // Pipeline up to 32 requests per client before reaping.
                let mut window = Vec::with_capacity(32);
                let mut write_debt = 0.0f64;
                for req in slice.chunks(req_size) {
                    write_debt += write_frac;
                    let request = if write_debt >= 1.0 {
                        write_debt -= 1.0;
                        Request::Insert {
                            pairs: req.iter().map(|k| (*k, k ^ SEED)).collect(),
                        }
                    } else {
                        Request::MultiLookup { keys: req.to_vec() }
                    };
                    let pending = service.submit(request).expect("service running");
                    window.push(pending);
                    if window.len() == 32 {
                        for p in window.drain(..) {
                            let _ = p.wait();
                        }
                    }
                }
                for p in window {
                    let _ = p.wait();
                }
            }));
        }
        if let Some(ms) = scrape_ms {
            let service = &service;
            let scrapes = &scrapes;
            scope.spawn(move || {
                let mut last_keys = 0u64;
                let mut last_lat = 0u64;
                while !stop_scraper.load(Ordering::Relaxed) {
                    let live = service.live_stats();
                    let keys = live.total_keys();
                    let lat = live.latency.count as u64;
                    assert!(keys >= last_keys, "live total_keys went backwards");
                    assert!(lat >= last_lat, "live latency count went backwards");
                    (last_keys, last_lat) = (keys, lat);
                    scrapes.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(ms));
                }
            });
        }
        // Join the clients explicitly, then release the scraper — the
        // scope would otherwise deadlock waiting on an infinite loop.
        for client in clients {
            client.join().expect("client thread");
        }
        stop_scraper.store(true, Ordering::Relaxed);
    });
    let wall = started.elapsed();
    let stats = service.shutdown();
    Run {
        shards,
        inflight,
        batch_size,
        wall_ms: wall.as_secs_f64() * 1e3,
        keys_per_sec: probes.len() as f64 / wall.as_secs_f64(),
        scrapes: scrapes.load(Ordering::Relaxed),
        stats,
    }
}

fn render_json(args: &Args, runs: &[Run], engines: &[widx_bench::prof::EngineProfile]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"serve_throughput\",");
    let _ = writeln!(out, "  \"seed\": {SEED},");
    let _ = writeln!(out, "  \"host\": {},", host_json());
    let _ = writeln!(out, "  \"entries\": {},", args.entries);
    let _ = writeln!(out, "  \"probes\": {},", args.probes);
    let _ = writeln!(out, "  \"theta\": {},", args.theta);
    let _ = writeln!(out, "  \"req_size\": {},", args.req_size);
    let _ = writeln!(out, "  \"write_frac\": {},", args.write_frac);
    let _ = writeln!(out, "  \"clients\": {CLIENTS},");
    let _ = writeln!(out, "  \"profile\": {},", args.profile);
    if args.profile {
        let _ = writeln!(out, "  \"engine_profiles\": {},", engines_json(engines));
    }
    out.push_str("  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        let lat = &run.stats.latency;
        out.push_str("    {");
        let _ = write!(
            out,
            "\"shards\": {}, \"inflight\": {}, \"batch_size\": {}, \
             \"wall_ms\": {:.3}, \"keys_per_sec\": {:.0}, \"live_scrapes\": {}, \
             \"write_ops\": {}, \"write_batches\": {}, ",
            run.shards,
            run.inflight,
            run.batch_size,
            run.wall_ms,
            run.keys_per_sec,
            run.scrapes,
            run.stats.total_write_ops(),
            run.stats.total_write_batches(),
        );
        let _ = write!(
            out,
            "\"latency_ns\": {{\"count\": {}, \"mean\": {:.0}, \"p50\": {}, \
             \"p95\": {}, \"p99\": {}, \"max\": {}}}, ",
            lat.count, lat.mean_ns, lat.p50_ns, lat.p95_ns, lat.p99_ns, lat.max_ns
        );
        if let Some(prof) = &run.stats.prof {
            let _ = write!(out, "\"prof\": {}, ", prof.to_json());
        }
        out.push_str("\"workers\": [");
        for (j, w) in run.stats.workers.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"shard\": {}, \"keys\": {}, \"matches\": {}, \"batches\": {}, \
                 \"mean_batch\": {:.2}, \"size_flushes\": {}, \"deadline_flushes\": {}, \
                 \"occupancy\": {:.4}, \"busy_keys_per_sec\": {:.0}}}",
                w.shard,
                w.keys,
                w.matches,
                w.batches,
                w.mean_batch(),
                w.size_flushes,
                w.deadline_flushes,
                w.occupancy(),
                w.busy_throughput(),
            );
            if j + 1 < run.stats.workers.len() {
                out.push_str(", ");
            }
        }
        out.push_str("]}");
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args = parse_args();
    let shard_sweep: Vec<usize> = match args.shards {
        Some(s) => vec![s],
        None => vec![1, 2, 4],
    };
    let inflight_sweep: &[usize] = if args.smoke { &[4] } else { &[1, 4, 8] };
    let batch_sweep: &[usize] = if args.smoke { &[16] } else { &[16, 64] };

    let pairs: Vec<(u64, u64)> = datagen::unique_shuffled_keys(SEED, args.entries as usize)
        .into_iter()
        .enumerate()
        .map(|(row, key)| (key, row as u64))
        .collect();
    // Probe domain slightly exceeds the build domain: ~6% misses.
    let probes = datagen::zipf_keys(
        SEED ^ 1,
        args.probes,
        args.entries + args.entries / 16,
        args.theta,
    );

    println!(
        "== serve_throughput: {} entries, {} Zipf({}) probes, {} clients, req-size {}, \
         write-frac {} ==\n",
        args.entries, args.probes, args.theta, CLIENTS, args.req_size, args.write_frac
    );
    println!("(seed {SEED:#x}; per-worker detail in --json output)\n");

    let mut runs = Vec::new();
    let mut t = Table::new(&[
        "shards",
        "inflight",
        "batch",
        "wall ms",
        "Mkeys/s",
        "p50 µs",
        "p99 µs",
        "occupancy",
        "mean batch",
        "write ops",
    ]);
    for &shards in &shard_sweep {
        for &inflight in inflight_sweep {
            for &batch_size in batch_sweep {
                let run = run_once(
                    &pairs,
                    &probes,
                    shards,
                    inflight,
                    batch_size,
                    args.req_size,
                    args.write_frac,
                    args.scrape_ms,
                    args.profile,
                );
                let occ = run
                    .stats
                    .workers
                    .iter()
                    .map(widx_serve::WorkerStats::occupancy)
                    .sum::<f64>()
                    / run.stats.workers.len() as f64;
                let mean_batch = run
                    .stats
                    .workers
                    .iter()
                    .map(widx_serve::WorkerStats::mean_batch)
                    .sum::<f64>()
                    / run.stats.workers.len() as f64;
                t.row(&[
                    run.shards.to_string(),
                    run.inflight.to_string(),
                    run.batch_size.to_string(),
                    f2(run.wall_ms),
                    f2(run.keys_per_sec / 1e6),
                    f1(run.stats.latency.p50_ns as f64 / 1e3),
                    f1(run.stats.latency.p99_ns as f64 / 1e3),
                    pct(occ),
                    f1(mean_batch),
                    run.stats.total_write_ops().to_string(),
                ]);
                runs.push(run);
            }
        }
    }
    println!("{}", t.render());
    println!(
        "(batching across concurrent requests fills the AMAC ring per shard; \
         occupancy is busy/(busy+idle) per worker — the serving analogue of \
         the paper's walker-utilization figure)"
    );
    if args.scrape_ms.is_some() {
        let total: u64 = runs.iter().map(|r| r.scrapes).sum();
        println!("(live-stats scraper: {total} mid-run scrapes, counters monotone throughout)");
    }

    // The per-engine profiled sweep: the same Zipfian probes through
    // scalar / group-prefetch / AMAC walkers on one thread, each under
    // a counter group — the paper's cycle-breakdown figure, live.
    let mut engines = Vec::new();
    if args.profile {
        let (backend, hw, fallback) = widx_bench::prof::prof_backend();
        println!(
            "\n== per-engine profile (backend {backend}, hw counters {}) ==",
            if hw { "on" } else { "off" }
        );
        if let Some(reason) = fallback {
            println!("(hardware counters unavailable — {reason}; software clock backend)");
        }
        let index = HashIndex::build(
            HashRecipe::robust64(),
            args.entries as usize,
            pairs.iter().copied(),
        );
        engines = profile_engines(&index, &probes, PROFILE_INFLIGHT, PROFILE_GROUP);
        println!("{}", render_engine_table(&engines));
        println!(
            "(effective MLP = LLC-misses x {} cycles / walk cycles; \
             soft MLP = walker occupancy / rounds — AMAC should hold the \
             highest MLP, the paper's inter-key parallelism claim)",
            widx_obs::MISS_LATENCY_CYCLES
        );
    }

    if let Some(path) = &args.json {
        let json = render_json(&args, &runs, &engines);
        std::fs::write(path, json).expect("write json");
        println!("\nwrote {path}");
    }
}
