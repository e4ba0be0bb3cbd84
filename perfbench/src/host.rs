//! What the run records about its host: CPUs, last-level cache, RSS.

use std::fs;

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Size of the largest unified cache of CPU 0, in MiB, from sysfs.
pub fn llc_mib() -> Option<f64> {
    let mut best: Option<u64> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let Ok(kind) = fs::read_to_string(format!("{dir}/type")) else {
            break;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let size = fs::read_to_string(format!("{dir}/size")).ok()?;
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok()? << 10,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().ok()? << 20,
                None => size.parse().ok()?,
            },
        };
        best = Some(best.map_or(bytes, |b| b.max(bytes)));
    }
    best.map(|b| b as f64 / f64::from(1 << 20))
}

/// Resident set size of this process, in MiB.
pub fn rss_mib() -> f64 {
    let statm = fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|p| p.parse().ok())
        .unwrap_or(0);
    (pages * 4096) as f64 / f64::from(1 << 20)
}

/// `(steal, total)` CPU ticks of the whole machine so far, from
/// `/proc/stat`: time the hypervisor ran someone else while this
/// machine's CPUs wanted to run.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}
