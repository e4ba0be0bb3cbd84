//! The serving benchmark. One command runs a workload up the ladder —
//! bare walker engine, in-process `ProbeService`, loopback
//! `WidxServer`/`WidxClient` — on identical keys, checks every answer
//! against its own oracle, and prints each metric by name with its unit.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <results-dir-a> <results-dir-b>
//! perfbench manifest            # prints BENCHMARK.json
//! ```
//!
//! The last line of a run's standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs carry
//! the end-to-end metrics (loopback rung), traced runs the per-layer ones.
//! Each run also writes `results/<workload>.s<seed>.t<trace>.tsv` (every
//! metric it measured) and, when traced, `results/spans-*.jsonl`.

mod compare;
mod gen;
mod host;
mod oracle;
mod rungs;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gen::{Keyspace, OpKind};
use oracle::Oracle;
use rungs::{Ctx, Stack, Tally};
use spec::{Load, Workload};
use stats::{median, Samples};
use trace::{self_times, SpanLog};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    spec::workload(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.unwrap_or(spec::RUN_SECONDS);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced: traced.unwrap_or(false),
    })
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", spec::manifest());
            ExitCode::SUCCESS
        }
        Some("compare") if args.len() == 3 => {
            match compare::run(Path::new(&args[1]), Path::new(&args[2])) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench compare: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            let args = match parse(&args) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    eprintln!(
                        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                    );
                    return ExitCode::from(2);
                }
            };
            match run(&args) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::from(2)
                }
            }
        }
    }
}

/// The windows an end-to-end metric is a median over.
#[derive(Clone, Copy)]
struct Windows {
    start: Instant,
    len: Duration,
    count: usize,
}

/// End-to-end metrics are medians over windows of this share of the run.
const WINDOW_SHARE: f64 = 0.05;
/// The open loop's headline rate gets this share of the run.
const HEADLINE_SHARE: f64 = 0.6;

/// Metrics of one run, in report order.
#[derive(Default)]
struct Report {
    values: Vec<(&'static str, f64, Option<usize>)>,
    notes: Vec<String>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value, None));
    }

    /// The `pcts` percentiles of `samples` as `<prefix>_p<pct>_us`.
    /// With `windows`, each value is the median over the windows of the
    /// window's exact percentile (the all-sample value goes in a note).
    fn latency(
        &mut self,
        prefix: &str,
        pcts: &[u32],
        samples: &mut Samples,
        windows: Option<Windows>,
    ) {
        let n = samples.len();
        for &p in pcts {
            let name = declared(prefix, &format!("_p{p}"), "_us");
            let all = samples.pct_us(f64::from(p));
            let value = match windows {
                Some(w) => samples.windowed_pct_us(f64::from(p), w.start, w.len, w.count),
                None => all,
            };
            match value {
                Some(v) => self.values.push((name, v, Some(n))),
                None => self.problems.push(format!("too few samples for {name}")),
            }
            if let (Some(w), Some(all)) = (windows, all) {
                self.notes.push(format!(
                    "{name}: median of {} windows of {:?}; over all {n} samples {all}",
                    w.count, w.len
                ));
            }
        }
    }

    fn tally(&mut self, tally: &Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed();
        if let Some(w) = &tally.first_wrong {
            self.problems.push(format!("wrong answer: {w}"));
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|v| v.0 == name)
            .map_or(f64::NAN, |v| v.1)
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let wl = args.workload;
    let run = Duration::from_secs(args.seconds);
    let ks = Keyspace::generate(wl.entries, wl.miss, args.seed);
    let writes = wl.mix.lookup_pct + wl.mix.scan_pct < 100;
    let oracle = Oracle::new(&ks, writes);
    let ctx = Ctx {
        wl,
        ks: &ks,
        oracle: &oracle,
        seed: args.seed,
        epoch: Instant::now(),
    };
    let config = spec::serve_config();
    let llc = host::llc_mib();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} | host: nproc={} llc_mib={} | serve: shards={} batch_size={} batch_deadline_us={} inflight={} queue_capacity={} | net: reactors={}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        host::cpus(),
        llc.map_or_else(|| "unknown".into(), |l| format!("{l:.1}")),
        config.shards,
        config.batch_size,
        config.batch_deadline.as_micros(),
        config.inflight,
        config.queue_capacity,
        spec::net_config().reactors,
    );

    let mut report = Report::default();
    let mut log = SpanLog::new(ctx.epoch, 1);

    // Set-up: build, start, first answer — several times, keep the last.
    let rounds = if args.traced { 1 } else { wl.setup_rounds };
    let mut setups = Vec::new();
    let mut index_mib = f64::NAN;
    let mut stack: Option<Stack> = None;
    let mut build_s = 0.0;
    for _ in 0..rounds {
        if let Some(old) = stack.take() {
            old.down();
        }
        let rss0 = host::rss_mib();
        let (up, setup) =
            Stack::up(&ctx, args.traced.then_some(&mut log)).map_err(|e| format!("set-up: {e}"))?;
        if setups.is_empty() {
            // Later rounds reuse heap the allocator kept from the first.
            index_mib = host::rss_mib() - rss0;
        }
        setups.push(setup.total.as_secs_f64());
        build_s = setup.build.as_secs_f64();
        stack = Some(up);
    }
    let stack = stack.expect("at least one set-up round");
    let start = rungs::shape(&ctx, &stack.service);
    let ticks = host::cpu_ticks();

    let fresh_end;
    if args.traced {
        fresh_end = traced_run(&ctx, &stack, run, &mut report, &mut log)?;
        report.put("db.build_s", build_s);
    } else {
        report.put("setup_s", median(&setups));
        report.put("index_mib", index_mib);
        // A warm-up tenth of the run: answers are checked, not timed.
        let addr = stack.server.local_addr();
        let warm = rungs::net_load(&ctx, addr, run / 10, 0, false);
        let warm = warm.map_err(|e| format!("warm-up: {e}"))?;
        report.tally(&warm);
        let warm_fresh = warm.fresh_end;
        let mut tally = match wl.load {
            Load::Closed { conns, depth } => {
                rungs::net_closed(&ctx, addr, conns, depth, run, 1, false)
                    .map_err(|e| format!("loopback rung: {e}"))?
            }
            Load::Open { first, headline } => {
                open_sweep(&ctx, &stack, first, headline, run, &mut report)?
            }
        };
        fresh_end = warm_fresh.max(tally.fresh_end);
        report.tally(&tally);
        let measured = match wl.load {
            Load::Closed { .. } => run,
            Load::Open { .. } => run.mul_f64(HEADLINE_SHARE),
        };
        let len = run.mul_f64(WINDOW_SHARE);
        let w = Windows {
            start: tally.start.expect("a timed rung"),
            len,
            count: (measured.as_nanos() / len.as_nanos()) as usize,
        };
        if let Load::Open { .. } = wl.load {
            // Offered load sets the rate; every window would read the
            // same count, so report the whole rung's completion rate.
            report.put("ops_per_s", tally.ops_per_s());
        } else {
            let mut rates = stats::window_rates(&tally.done, w.start, w.len, w.count);
            rates.sort_by(f64::total_cmp);
            report.put("ops_per_s", median(&rates));
            report.notes.push(format!(
                "ops_per_s: median of {} windows of {:?} (min {:.0}, max {:.0}); over the whole rung {:.0}",
                w.count,
                w.len,
                rates[0],
                rates[rates.len() - 1],
                tally.ops_per_s()
            ));
        }
        report.latency("lookup", &[50, 90, 99], tally.lookup(), Some(w));
        if wl.mix.scan_pct > 0 {
            report.latency(
                "scan",
                &[50, 99],
                &mut tally.lat[OpKind::Scan as usize],
                Some(w),
            );
        }
        if writes {
            report.latency(
                "write",
                &[50, 99],
                &mut tally.lat[OpKind::Write as usize],
                Some(w),
            );
        }
        report.put(
            "failed_frac",
            report.failed as f64 / report.attempted.max(1) as f64,
        );
    }

    let (steal, total) = host::cpu_ticks();
    let stolen = (steal - ticks.0) as f64 / (total - ticks.1).max(1) as f64;
    report.notes.push(format!(
        "host: {:.1}% of CPU time stolen by the hypervisor while measuring",
        stolen * 100.0
    ));

    // Residency: how much of the index the LLC can hold.
    if let Some(llc) = llc {
        let ratio = index_mib / llc;
        report
            .notes
            .push(format!("index_mib / llc_mib = {ratio:.2}"));
        if wl.name == "dram-batch" && ratio < 2.0 {
            report.notes.push(format!(
                "WARNING: dram-batch index is only {ratio:.2}x the LLC (want >= 2x)"
            ));
        }
    }

    // Stationarity and the quiescent state.
    let end = rungs::shape(&ctx, &stack.service);
    if let Err(e) = rungs::final_check(&ctx, &stack.service, fresh_end) {
        report.problems.push(e);
    }
    if args.traced {
        for (name, a, b) in [
            ("len", start.len, end.len),
            ("mean_chain", start.mean_chain, end.mean_chain),
            ("max_chain", start.max_chain, end.max_chain),
            (
                "matches_per_lookup",
                start.matches_per_lookup,
                end.matches_per_lookup,
            ),
        ] {
            report
                .values
                .push((declared("db.", name, "_start"), a, None));
            report.values.push((declared("db.", name, "_end"), b, None));
        }
    }
    report.notes.push(format!(
        "db: len {} -> {}, ordered_len {} -> {}, max_chain {} -> {}, matches_per_lookup {:.4} -> {:.4}",
        start.len, end.len, start.ordered_len, end.ordered_len, start.max_chain, end.max_chain, start.matches_per_lookup, end.matches_per_lookup
    ));
    if writes {
        if (end.len - start.len).abs() > 0.01 * start.len
            || (end.ordered_len - start.ordered_len).abs() > 0.01 * start.ordered_len
        {
            report
                .problems
                .push("stationarity: db.len drifted more than 1%".into());
        }
        if end.max_chain > start.max_chain || end.matches_per_lookup > start.matches_per_lookup {
            report
                .problems
                .push("stationarity: db.max_chain or db.matches_per_lookup grew".into());
        }
    }
    stack.down();

    if args.traced {
        let path = results_dir().join(format!("spans-{}.s{}.jsonl", wl.name, args.seed));
        log.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.notes.push(format!(
            "{} spans written to {}",
            log.spans().len(),
            path.display()
        ));
    }
    finish(args, &report)
}

/// The metric table's own name for `a + b + c`.
fn declared(a: &str, b: &str, c: &str) -> &'static str {
    spec::metric(&format!("{a}{b}{c}"))
        .expect("a declared metric")
        .name
}

/// The open-loop rate sweep over loopback. The headline rate runs
/// longest and gives the end-to-end latencies; the others double from
/// `first` until one misses the p99 limit or builds a backlog.
fn open_sweep(
    ctx: &Ctx,
    stack: &Stack,
    first: u64,
    headline: u64,
    run: Duration,
    report: &mut Report,
) -> Result<Tally, String> {
    let addr = stack.server.local_addr();
    let rung = |rate, share: f64, stream| {
        rungs::net_open(ctx, addr, rate, run.mul_f64(share), stream, false)
            .map_err(|e| format!("open loop at {rate}/s: {e}"))
    };
    let meets = |r: &mut rungs::OpenRung| {
        let limit = spec::SLO_P99.as_secs_f64() * 1e6;
        let p99 = r.tally.lookup().pct_us(99.0).unwrap_or(f64::INFINITY);
        let late = r.tally.late.pct_us(99.0).unwrap_or(0.0);
        let backlog_cap = 2.0 * r.rate as f64 * spec::SLO_P99.as_secs_f64() + 8.0;
        p99 <= limit && late <= limit && (r.backlog as f64) <= backlog_cap && r.tally.failed() == 0
    };
    let mut main = rung(headline, HEADLINE_SHARE, 1)?;
    let mut sweep = Vec::new();
    let mut slo = 0;
    let mut rate = first;
    let mut stream = 2;
    // At most three rates besides the headline, each a tenth of the run.
    for _ in 0..4 {
        let ok = if rate == headline {
            meets(&mut main)
        } else {
            let mut r = rung(rate, 0.1, stream)?;
            stream += 1;
            report.tally(&r.tally);
            let ok = meets(&mut r);
            let (p50, p99) = (
                r.tally.lookup().pct_us(50.0).unwrap_or(f64::NAN),
                r.tally.lookup().pct_us(99.0).unwrap_or(f64::NAN),
            );
            sweep.push(format!(
                "{rate}/s p50={p50:.1}us p99={p99:.1}us backlog={} {}",
                r.backlog,
                if ok { "ok" } else { "MISS" }
            ));
            ok
        };
        if !ok {
            break;
        }
        slo = rate;
        rate *= 2;
    }
    let (lp50, lp99) = (
        main.tally.late.pct_us(50.0).unwrap_or(0.0),
        main.tally.late.pct_us(99.0).unwrap_or(0.0),
    );
    report.notes.push(format!("open loop: headline {headline}/s generator lateness p50={lp50:.1}us p99={lp99:.1}us backlog={}", main.backlog));
    report
        .notes
        .push(format!("open loop sweep: {}", sweep.join("; ")));
    report.put("slo_rate", slo as f64);
    Ok(main.tally)
}

/// The traced run: every rung on the same service, spans around each
/// call. Returns the fresh-key bound for the final check.
fn traced_run(
    ctx: &Ctx,
    stack: &Stack,
    run: Duration,
    report: &mut Report,
    log: &mut SpanLog,
) -> Result<u64, String> {
    let wl = ctx.wl;
    let service = &stack.service;
    let addr = stack.server.local_addr();

    // Engine rung: five engines share a fifth of the run.
    let engines = rungs::engines(ctx, service, run.mul_f64(0.04), log);
    report.attempted += engines.attempted;
    report.failed += engines.wrong;
    if engines.wrong > 0 {
        report
            .problems
            .push(format!("{} engine calls answered wrongly", engines.wrong));
    }

    // Service rung, with a live-stats scraper alongside.
    let before = service.live_stats();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (mut serve, scrapes) = std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            let mut took = Vec::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let t0 = Instant::now();
                std::hint::black_box(service.live_stats());
                took.push(t0.elapsed().as_secs_f64() * 1e6);
                std::thread::sleep(Duration::from_millis(10));
            }
            took
        });
        let tally = rungs::serve_load(ctx, service, run.mul_f64(0.25), 2, true);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (tally, scraper.join().expect("scraper thread"))
    });
    let after = service.live_stats();
    report.tally(&serve);

    // Loopback rung, untraced then traced.
    let net = |stream, share: f64, traced| {
        rungs::net_load(ctx, addr, run.mul_f64(share), stream, traced)
            .map_err(|e| format!("loopback rung: {e}"))
    };
    let mut plain = net(3, 0.2, false)?;
    report.tally(&plain);
    let net_before = stack.server.stats();
    let mut traced = net(4, 0.25, true)?;
    let net_after = stack.server.stats();
    report.tally(&traced);

    let (req_len, reply_len) = rungs::frame_sizes(ctx);
    let mut echo =
        rungs::echo(req_len, reply_len, run.mul_f64(0.1)).map_err(|e| format!("echo rung: {e}"))?;

    for t in [&mut serve, &mut traced] {
        if let Some(spans) = t.spans.take() {
            log.absorb(spans);
        }
    }
    let selfs = self_times(log.spans());
    let mean_self_us = |name: &str| {
        selfs
            .get(name)
            .map_or(f64::NAN, |&(n, s)| s as f64 / n.max(1) as f64 / 1e3)
    };

    report.put("soft.scalar_keys_per_s", engines.scalar_keys_per_s);
    report.put("soft.group_keys_per_s", engines.group_keys_per_s);
    report.put("soft.amac_keys_per_s", engines.amac_keys_per_s);
    report.put("soft.amac_mlp", engines.amac_mlp);
    report.put("soft.nodes_per_lookup", engines.nodes_per_lookup);
    report.put(
        "soft.btree_scalar_scans_per_s",
        engines.btree_scalar_scans_per_s,
    );
    report.put(
        "soft.btree_amac_scans_per_s",
        engines.btree_amac_scans_per_s,
    );

    let serve_ops = serve.ops_per_s();
    report.put("serve.ops_per_s", serve_ops);
    report.latency("serve.lookup", &[50], serve.lookup(), None);
    if wl.mix.scan_pct > 0 {
        report.latency(
            "serve.scan",
            &[50],
            &mut serve.lat[OpKind::Scan as usize],
            None,
        );
    }
    if wl.mix.lookup_pct + wl.mix.scan_pct < 100 {
        report.latency(
            "serve.write",
            &[99],
            &mut serve.lat[OpKind::Write as usize],
            None,
        );
    }
    report.put("serve.submit_us", mean_self_us("serve.submit"));
    let delta = |f: fn(&widx_serve::WorkerStats) -> f64| -> Vec<f64> {
        after
            .workers
            .iter()
            .zip(&before.workers)
            .map(|(a, b)| f(a) - f(b))
            .collect()
    };
    let keys: f64 = delta(|w| w.keys as f64).iter().sum();
    let batches: f64 = delta(|w| w.batches as f64).iter().sum();
    let deadline: f64 = delta(|w| w.deadline_flushes as f64).iter().sum();
    let busy = delta(|w| w.busy.as_secs_f64());
    let idle = delta(|w| w.idle.as_secs_f64());
    let occupancy: Vec<f64> = busy
        .iter()
        .zip(&idle)
        .map(|(b, i)| b / (b + i).max(1e-12))
        .collect();
    report.put("serve.mean_batch", keys / batches.max(1.0));
    report.put("serve.deadline_flush_frac", deadline / batches.max(1.0));
    report.put(
        "serve.occupancy_min",
        occupancy.iter().copied().fold(f64::INFINITY, f64::min),
    );
    report.put(
        "serve.occupancy_max",
        occupancy.iter().copied().fold(0.0, f64::max),
    );

    let serve_p50 = report.get("serve.lookup_p50_us");
    let plain_ops = plain.ops_per_s();
    let loop_p50 = plain.lookup().pct_us(50.0).unwrap_or(f64::NAN);
    report.put("net.overhead_p50_us", loop_p50 - serve_p50);
    let echo_n = echo.len();
    let echo_p50 = echo.pct_us(50.0).unwrap_or(f64::NAN);
    report
        .values
        .push(("net.echo_p50_us", echo_p50, Some(echo_n)));
    report.put("net.send_us", mean_self_us("client.send"));
    report.put("net.recv_wait_us", mean_self_us("client.recv"));
    let frames = net_after.frames_in.saturating_sub(net_before.frames_in);
    let busy_rejects = net_after
        .busy_rejects
        .saturating_sub(net_before.busy_rejects);
    report.put("net.busy_frac", busy_rejects as f64 / frames.max(1) as f64);
    report.put(
        "obs.live_stats_us",
        if scrapes.is_empty() {
            f64::NAN
        } else {
            median(&scrapes)
        },
    );
    report.put(
        "ladder.serve_over_engine",
        serve_ops / engines.amac_keys_per_s,
    );
    report.put("trace.overhead_frac", 1.0 - traced.ops_per_s() / plain_ops);
    report.notes.push(format!(
        "ladder: engine amac {:.0} keys/s, serve {:.0} ops/s, loopback {:.0} ops/s (traced {:.0}); p50 serve {serve_p50:.1}us loopback {loop_p50:.1}us echo {echo_p50:.1}us",
        engines.amac_keys_per_s,
        serve_ops,
        plain_ops,
        traced.ops_per_s()
    ));
    Ok(serve.fresh_end.max(plain.fresh_end).max(traced.fresh_end))
}

/// Prints the report and the result line, writes the results file.
/// Returns whether every answer was right and every guard held.
fn finish(args: &Args, report: &Report) -> Result<bool, String> {
    let wl = args.workload;
    let mut tsv = format!(
        "# workload={} seed={} trace={}\n",
        wl.name,
        args.seed,
        u8::from(args.traced)
    );
    let mut problems = report.problems.clone();
    for metric in spec::metrics_for(wl.name, args.traced) {
        match report.values.iter().find(|v| v.0 == metric.name) {
            Some(&(_, value, _)) if value.is_finite() => {}
            _ => problems.push(format!("metric {} was not measured", metric.name)),
        }
    }
    for &(name, value, n) in &report.values {
        let unit = spec::metric(name).map_or("?", |m| m.unit);
        let count = n.map_or(String::new(), |n| format!(" (n={n})"));
        println!("{name} = {value} {unit}{count}");
        tsv += &format!("{name}\t{value}\t{unit}\n");
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for p in &problems {
        println!("# PROBLEM: {p}");
    }
    let dir = results_dir();
    let path = dir.join(format!(
        "{}.s{}.t{}.tsv",
        wl.name,
        args.seed,
        u8::from(args.traced)
    ));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tsv))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let correct = problems.is_empty();
    let metrics: Vec<String> = spec::metrics_for(wl.name, args.traced)
        .filter(|m| matches!(m.tier, spec::Tier::EndToEnd | spec::Tier::PerLayer))
        .filter_map(|m| {
            let value = report.values.iter().find(|v| v.0 == m.name)?.1;
            value.is_finite().then(|| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    Ok(correct)
}
