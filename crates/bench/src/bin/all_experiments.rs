//! Runs every experiment harness in sequence — the one-shot
//! reproduction driver behind `EXPERIMENTS.md`.
//!
//! Usage: `all_experiments [quick]` — `quick` shrinks workload sizes
//! for a fast smoke run.

use std::process::Command;

fn main() {
    let quick = std::env::args().nth(1).is_some_and(|a| a == "quick");
    let (kernel_probes, dss_probes, fig2_scale) = if quick {
        ("2048", "2048", "0.05")
    } else {
        ("16384", "12288", "1.0")
    };
    let (serve_probes, serve_entries) = if quick {
        ("20000", "65536")
    } else {
        ("100000", "262144")
    };
    let (range_scans, range_entries) = if quick {
        ("4000", "65536")
    } else {
        ("20000", "262144")
    };
    // The idle/tail phase (idle-CPU at zero load, p99/p999 with mostly
    // quiet connections) rides along on net_throughput; the idle-CPU
    // sample itself prints a SKIP line on hosts without /proc/self/stat.
    let (net_requests, net_entries, net_idle_conns) = if quick {
        ("4000", "16384", "64")
    } else {
        ("50000", "262144", "256")
    };
    let (stream_scans, stream_entries, stream_span) = if quick {
        ("16", "16384", "4096")
    } else {
        ("64", "262144", "32768")
    };

    let exe = std::env::current_exe().expect("current exe path");
    let bin_dir = exe.parent().expect("bin dir").to_path_buf();
    let run = |name: &str, args: &[&str]| {
        println!(
            "\n{}\n# {name} {}\n{}",
            "#".repeat(72),
            args.join(" "),
            "#".repeat(72)
        );
        let status = Command::new(bin_dir.join(name))
            .args(args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        assert!(status.success(), "{name} failed with {status}");
    };
    // The serving sweeps each keep a committed baseline JSON at the repo
    // root. Say so out loud either way — a silently absent baseline
    // looks identical to a sweep nobody compares against. Baselines are
    // anchored to the source tree (like the sweep binaries are anchored
    // to the build dir), not the cwd, so running from anywhere judges
    // the same files.
    let repo_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels under the workspace root")
        .to_path_buf();
    let baseline = move |name: &str, file: &str| {
        let path = repo_root.join(file);
        if path.exists() {
            println!(
                "(baseline: {} is committed — compare this run against it)",
                path.display()
            );
        } else {
            println!(
                "SKIP: no baseline {file} for {name} — from the repo root, \
                 run `cargo run --release --bin {name} -- --json {file}` to create it"
            );
        }
    };

    run("table1_isa", &[]);
    run("table2_params", &[]);
    run("fig2_breakdown", &[fig2_scale]);
    run("fig4_bottlenecks", &[]);
    run("fig5_utilization", &[]);
    run("fig8_hashjoin", &[kernel_probes]);
    run("fig9_dss", &[dss_probes]);
    run("fig10_speedup", &[dss_probes]);
    run("fig11_energy", &[dss_probes]);
    run("table3_area", &[]);
    run("ablation_dispatcher", &[kernel_probes]);
    run("ablation_queue_depth", &[kernel_probes]);
    run("ablation_llc_widx", &[kernel_probes]);
    run("ablation_touch", &[kernel_probes]);
    run("ablation_btree", &[dss_probes]);
    run("ablation_skew", &[kernel_probes]);
    run(
        "serve_throughput",
        &[
            "--probes",
            serve_probes,
            "--entries",
            serve_entries,
            "--profile",
        ],
    );
    baseline("serve_throughput", "BENCH_serve.json");
    // Mixed read/write sweeps through the mutable serving tier: the
    // YCSB-B 95/5 shape and the YCSB-A 50/50 shape, one shard point
    // each — write barriers on the hot path.
    for write_frac in ["0.05", "0.5"] {
        run(
            "serve_throughput",
            &[
                "--probes",
                serve_probes,
                "--entries",
                serve_entries,
                "--shards",
                "4",
                "--write-frac",
                write_frac,
            ],
        );
    }
    run(
        "range_throughput",
        &["--scans", range_scans, "--entries", range_entries],
    );
    baseline("range_throughput", "BENCH_range.json");
    run(
        "net_throughput",
        &[
            "--requests",
            net_requests,
            "--entries",
            net_entries,
            "--idle-conns",
            net_idle_conns,
        ],
    );
    baseline("net_throughput", "BENCH_net.json");
    // The same two mixed shapes over loopback TCP: write opcodes on the
    // wire, acks pipelined with reads.
    for write_frac in ["0.05", "0.5"] {
        run(
            "net_throughput",
            &[
                "--requests",
                net_requests,
                "--entries",
                net_entries,
                "--idle-conns",
                "0",
                "--write-frac",
                write_frac,
            ],
        );
    }
    run(
        "stream_throughput",
        &[
            "--scans",
            stream_scans,
            "--entries",
            stream_entries,
            "--span",
            stream_span,
        ],
    );
    baseline("stream_throughput", "BENCH_stream.json");
    println!("\nall experiments completed");
}
