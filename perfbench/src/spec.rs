//! The benchmark's definition: its workloads, its metrics with units,
//! directions and bounds, and the `BENCHMARK.json` rendered from them.

use std::time::Duration;

/// How probe keys are drawn over the key space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDist {
    Uniform,
    Zipf(f64),
}

/// How load is offered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// `conns` connections (one client thread each), each keeping
    /// `depth` requests in flight.
    Closed { conns: usize, depth: usize },
    /// One connection, one sender and one receiver thread; requests are
    /// due on a fixed schedule. Rates double from `first` (req/s);
    /// `headline` is the rate the end-to-end latencies are taken at.
    Open { first: u64, headline: u64 },
}

/// Request mix in percent; writes are the remainder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mix {
    pub lookup_pct: u64,
    pub scan_pct: u64,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Built entries.
    pub entries: u64,
    /// Share of uniform probe keys that miss.
    pub miss: f64,
    pub keys: KeyDist,
    /// Keys per lookup request (1 = `Lookup`, else `MultiLookup`).
    pub batch: usize,
    pub mix: Mix,
    pub load: Load,
    /// Serve the ordered tier too (`ProbeService::build_with_range`).
    pub range_tier: bool,
    /// Set-ups per run: `setup_s` is their median, `index_mib` the RSS
    /// growth across the first.
    pub setup_rounds: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "dram-batch",
        why: "2^23 keys, over 3x the LLC: 16-key batches pipelined 32 deep on 2 connections, where walk time and walker MLP dominate",
        entries: 1 << 23,
        miss: 0.06,
        keys: KeyDist::Uniform,
        batch: 16,
        mix: Mix {
            lookup_pct: 100,
            scan_pct: 0,
        },
        load: Load::Closed { conns: 2, depth: 32 },
        range_tier: false,
        setup_rounds: 3,
    },
    Workload {
        name: "lone-lookup",
        why: "2^16 cache-resident keys, single-key lookups open-loop on 1 connection: batching deadline and thread hand-offs, not the walk",
        entries: 1 << 16,
        miss: 0.06,
        keys: KeyDist::Uniform,
        batch: 1,
        mix: Mix {
            lookup_pct: 100,
            scan_pct: 0,
        },
        load: Load::Open {
            first: 1000,
            headline: 2000,
        },
        range_tier: false,
        setup_rounds: 15,
    },
    Workload {
        name: "rw-scan-mix",
        why: "2^20 keys in both tiers, Zipf 0.99: 80% 16-key lookups, 10% 64-entry scans, 10% stationary writes, 2 connections 8 deep",
        entries: 1 << 20,
        miss: 0.0,
        keys: KeyDist::Zipf(0.99),
        batch: 16,
        mix: Mix {
            lookup_pct: 80,
            scan_pct: 10,
        },
        load: Load::Closed { conns: 2, depth: 8 },
        range_tier: true,
        setup_rounds: 5,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Every workload is measured against this one service shape.
pub fn serve_config() -> widx_serve::ServeConfig {
    widx_serve::ServeConfig::default().with_shards(2)
}

pub fn net_config() -> widx_net::NetConfig {
    widx_net::NetConfig::default().with_reactors(1)
}

/// The open-loop latency limit that `slo_rate` is judged against.
pub const SLO_P99: Duration = Duration::from_micros(1000);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Untraced loopback run, on every workload: gated by its bound.
    EndToEnd,
    /// Traced run, on every workload.
    PerLayer,
    /// Reported (and compared) only on the listed workloads, in the
    /// traced (`true`) or untraced run. Outside `BENCHMARK.json`: the
    /// other workloads do not issue the operation it times; or (tail
    /// latencies, `slo_rate`) the host's scheduling jitter moves it from
    /// run to run by more than any bound; or (`failed_frac`) its usual
    /// value is 0, which no bound can scale.
    Only(&'static [&'static str], bool),
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: Option<f64>,
    pub tier: Tier,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
    tier: Tier,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        tier,
    }
}

use Better::{Higher, Lower};
use Tier::{EndToEnd, Only, PerLayer};

const MIX: &[&str] = &["rw-scan-mix"];
const LONE: &[&str] = &["lone-lookup"];
const ALL: &[&str] = &["dram-batch", "lone-lookup", "rw-scan-mix"];

pub const METRICS: &[Metric] = &[
    m("setup_s", "s", Lower, Some(0.25), EndToEnd),
    m("index_mib", "MiB", Lower, Some(0.1), EndToEnd),
    m("ops_per_s", "1/s", Higher, Some(0.25), EndToEnd),
    m("lookup_p50_us", "us", Lower, Some(0.25), EndToEnd),
    m("lookup_p90_us", "us", Lower, Some(0.25), Only(ALL, false)),
    m("lookup_p99_us", "us", Lower, Some(0.25), Only(ALL, false)),
    m("scan_p50_us", "us", Lower, Some(0.25), Only(MIX, false)),
    m("scan_p99_us", "us", Lower, Some(0.25), Only(MIX, false)),
    m("write_p50_us", "us", Lower, Some(0.25), Only(MIX, false)),
    m("write_p99_us", "us", Lower, Some(0.25), Only(MIX, false)),
    m("slo_rate", "1/s", Higher, Some(0.25), Only(LONE, false)),
    m("failed_frac", "ratio", Lower, None, Only(ALL, false)),
    m("db.build_s", "s", Lower, None, PerLayer),
    m("db.len_start", "count", Lower, None, PerLayer),
    m("db.len_end", "count", Lower, None, PerLayer),
    m("db.mean_chain_start", "count", Lower, None, PerLayer),
    m("db.mean_chain_end", "count", Lower, None, PerLayer),
    m("db.max_chain_start", "count", Lower, None, PerLayer),
    m("db.max_chain_end", "count", Lower, None, PerLayer),
    m(
        "db.matches_per_lookup_start",
        "count",
        Lower,
        None,
        PerLayer,
    ),
    m("db.matches_per_lookup_end", "count", Lower, None, PerLayer),
    m("soft.scalar_keys_per_s", "1/s", Higher, None, PerLayer),
    m("soft.group_keys_per_s", "1/s", Higher, None, PerLayer),
    m("soft.amac_keys_per_s", "1/s", Higher, None, PerLayer),
    m("soft.amac_mlp", "count", Higher, None, PerLayer),
    m("soft.nodes_per_lookup", "count", Lower, None, PerLayer),
    m(
        "soft.btree_scalar_scans_per_s",
        "1/s",
        Higher,
        None,
        PerLayer,
    ),
    m("soft.btree_amac_scans_per_s", "1/s", Higher, None, PerLayer),
    m("serve.ops_per_s", "1/s", Higher, None, PerLayer),
    m("serve.lookup_p50_us", "us", Lower, None, PerLayer),
    m("serve.scan_p50_us", "us", Lower, None, Only(MIX, true)),
    m("serve.write_p99_us", "us", Lower, None, Only(MIX, true)),
    m("serve.submit_us", "us", Lower, None, PerLayer),
    m("serve.mean_batch", "count", Higher, None, PerLayer),
    m("serve.deadline_flush_frac", "ratio", Lower, None, PerLayer),
    m("serve.occupancy_min", "ratio", Higher, None, PerLayer),
    m("serve.occupancy_max", "ratio", Higher, None, PerLayer),
    m("net.overhead_p50_us", "us", Lower, None, PerLayer),
    m("net.echo_p50_us", "us", Lower, None, PerLayer),
    m("net.send_us", "us", Lower, None, PerLayer),
    m("net.recv_wait_us", "us", Lower, None, PerLayer),
    m("net.busy_frac", "ratio", Lower, None, PerLayer),
    m("obs.live_stats_us", "us", Lower, None, PerLayer),
    m("ladder.serve_over_engine", "ratio", Higher, None, PerLayer),
    m("trace.overhead_frac", "ratio", Lower, None, PerLayer),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// The metrics a run must report: every metric of its tier, plus the
/// workload's own.
pub fn metrics_for(workload: &str, traced: bool) -> impl Iterator<Item = &'static Metric> + '_ {
    METRICS.iter().filter(move |m| match m.tier {
        EndToEnd => !traced,
        PerLayer => traced,
        Only(names, layer) => layer == traced && names.contains(&workload),
    })
}

/// Default and `BENCHMARK.json` run length (`--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n";
    out += "  \"paths\": [\"perfbench\"],\n";
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    out += "  \"workloads\": [\n";
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = METRICS
        .iter()
        .filter(|m| m.tier == EndToEnd)
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = METRICS
        .iter()
        .filter(|m| m.tier == PerLayer)
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ]\n}\n";
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            super::manifest(),
            "regenerate with `perfbench manifest > BENCHMARK.json`"
        );
    }
}
