//! Shared profiling plumbing for the bench harnesses: host metadata
//! every JSON emitter records (CPU count, counter-shim backend, poller
//! backend), and the per-engine profiled sweep behind `--profile` —
//! the paper's Figure 2 measured live, with scalar / group-prefetch /
//! AMAC walkers each run under a profiling [`StageClock`] over the same
//! probe stream so their cycle breakdowns (IPC, LLC MPKI, stall
//! fraction, effective MLP) are directly comparable.

use std::sync::Arc;

use perf_event::CounterGroup;
use widx_db::index::{BTreeIndex, HashIndex};
use widx_obs::{ProfCell, ProfSnapshot, Stage, StageClock, WalkCounters};
use widx_soft::{
    probe_amac, probe_group_prefetch, probe_scalar, scan_btree_amac, scan_btree_group,
    scan_btree_scalar, Match, ScanRange,
};

use crate::table::{f2, Table};

/// Logical CPUs visible to this process — recorded in every bench JSON
/// so baselines from differently-sized hosts are never compared as
/// like-for-like.
#[must_use]
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The readiness-poller backend the net tier would use right now
/// (`WIDX_POLLER` override, or the platform default).
#[must_use]
pub fn poller_backend() -> String {
    std::env::var("WIDX_POLLER").unwrap_or_else(|_| poller::DEFAULT_BACKEND.to_string())
}

/// Probes the counter shim once: `(backend, hw, fallback_reason)` as a
/// fresh [`CounterGroup`] on this thread reports them.
#[must_use]
pub fn prof_backend() -> (&'static str, bool, Option<String>) {
    let group = CounterGroup::new();
    (
        group.backend(),
        group.has_hw_counters(),
        group.fallback_reason().map(str::to_owned),
    )
}

/// The host-metadata JSON object (`"host": {...}`) shared by every
/// bench emitter: CPU count plus the shim backends in use.
#[must_use]
pub fn host_json() -> String {
    let (backend, hw, _) = prof_backend();
    format!(
        "{{\"cpus\": {}, \"prof_backend\": \"{}\", \"prof_hw\": {}, \"poller_backend\": \"{}\"}}",
        host_cpus(),
        backend,
        hw,
        poller_backend()
    )
}

/// One engine's profiled run: its walk window snapshot plus wall-clock
/// throughput over the shared probe stream.
pub struct EngineProfile {
    /// Engine name: `"scalar"`, `"group_prefetch"`, or `"amac"`.
    pub engine: &'static str,
    /// Counter snapshot; the walk window is the entire probe loop.
    pub snap: ProfSnapshot,
    /// Matches produced (result-parity check across engines).
    pub matches: usize,
    /// Probe throughput over the profiled loop.
    pub keys_per_sec: f64,
}

impl EngineProfile {
    /// The walk-stage breakdown this engine recorded.
    #[must_use]
    pub fn walk(&self) -> &widx_obs::ProfStageSnapshot {
        self.snap.get(Stage::Walk)
    }

    /// One JSON object for the bench emitters.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"engine\": \"{}\", \"matches\": {}, \"keys_per_sec\": {:.0}, \"prof\": {}}}",
            self.engine,
            self.matches,
            self.keys_per_sec,
            self.snap.to_json()
        )
    }
}

/// One engine's run: its walker counters and the matches it produced.
type Runner<'a> = Box<dyn Fn() -> (WalkCounters, usize) + 'a>;

/// Runs the three walker engines over the same probe stream, each
/// under its own freshly attached [`StageClock`], and returns the
/// per-engine cycle breakdowns. `inflight` sizes the AMAC ring;
/// `group` the group-prefetch stage width.
#[must_use]
pub fn profile_engines(
    index: &HashIndex,
    probes: &[u64],
    inflight: usize,
    group: usize,
) -> Vec<EngineProfile> {
    let collected = |probe: &dyn Fn(&mut Vec<Match>) -> WalkCounters| {
        let mut out = Vec::with_capacity(probes.len());
        (probe(&mut out), out.len())
    };
    profile_runs(
        [
            (
                "scalar",
                Box::new(move || collected(&|out| probe_scalar(index, probes, out))),
            ),
            (
                "group_prefetch",
                Box::new(move || collected(&|out| probe_group_prefetch(index, probes, group, out))),
            ),
            (
                "amac",
                Box::new(move || collected(&|out| probe_amac(index, probes, inflight, out))),
            ),
        ],
        |_| probes.len(),
    )
}

/// The ordered-index analogue of [`profile_engines`]: the three
/// B+-tree scan engines over the same scan set, each under its own
/// counter group. `matches` counts emitted entries; `keys_per_sec` is
/// entries emitted per second.
#[must_use]
pub fn profile_btree_engines(
    tree: &BTreeIndex,
    scans: &[ScanRange],
    inflight: usize,
    group: usize,
) -> Vec<EngineProfile> {
    fn counted(
        scan: impl FnOnce(&mut dyn FnMut(u32, u64, u64)) -> WalkCounters,
    ) -> (WalkCounters, usize) {
        let mut emitted = 0;
        let counters = scan(&mut |_, _, _| emitted += 1);
        (counters, emitted)
    }
    profile_runs(
        [
            (
                "scalar",
                Box::new(|| counted(|mut emit| scan_btree_scalar(tree, scans, &mut emit))),
            ),
            (
                "group_prefetch",
                Box::new(|| counted(|mut emit| scan_btree_group(tree, scans, group, &mut emit))),
            ),
            (
                "amac",
                Box::new(|| counted(|mut emit| scan_btree_amac(tree, scans, inflight, &mut emit))),
            ),
        ],
        |emitted| emitted,
    )
}

/// Profiles each engine over one walk-stage window of its own
/// [`StageClock`], after one warm-up pass outside the window so every
/// engine sees a hot cache hierarchy and page tables. `items` maps an
/// engine's match count to the work items its rate counts.
fn profile_runs(
    engines: [(&'static str, Runner<'_>); 3],
    items: impl Fn(usize) -> usize,
) -> Vec<EngineProfile> {
    engines
        .into_iter()
        .map(|(engine, run)| {
            let cell = Arc::new(ProfCell::new());
            let mut clock = StageClock::new(Some(Arc::clone(&cell)));
            let _ = run();
            let started = clock.read();
            clock.close(None);
            let (counters, matches) = run();
            let wall = clock.read() - started;
            clock.close(Some(Stage::Walk));
            clock.add_walk(&counters);
            EngineProfile {
                engine,
                snap: cell.snapshot(),
                matches,
                keys_per_sec: items(matches) as f64 / wall.as_secs_f64(),
            }
        })
        .collect()
}

/// Renders the per-engine breakdown as the bench table (`-` for
/// metrics the software backend cannot derive).
#[must_use]
pub fn render_engine_table(profiles: &[EngineProfile]) -> String {
    let opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), f2);
    let mut t = Table::new(&[
        "engine",
        "Mkeys/s",
        "IPC",
        "LLC MPKI",
        "stall frac",
        "eff. MLP",
        "soft MLP",
    ]);
    for p in profiles {
        let w = p.walk();
        t.row(&[
            p.engine.to_string(),
            f2(p.keys_per_sec / 1e6),
            opt(w.ipc()),
            opt(w.llc_mpki()),
            opt(w.stall_fraction()),
            opt(w.effective_mlp()),
            opt(p.snap.soft_mlp()),
        ]);
    }
    t.render()
}

/// The `"engine_profiles"` JSON array plus its backend header, shared
/// by the emitters that run the profiled sweep.
#[must_use]
pub fn engines_json(profiles: &[EngineProfile]) -> String {
    let rows: Vec<String> = profiles.iter().map(EngineProfile::to_json).collect();
    format!("[{}]", rows.join(", "))
}
