//! Exact order statistics over client-side samples.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p`% of the samples at or below it.
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Latency samples: `(completed at, latency in ns)`.
#[derive(Default, Clone, Debug)]
pub struct Samples(Vec<(Instant, u64)>);

impl Samples {
    pub fn push(&mut self, done: Instant, ns: u64) {
        self.0.push((done, ns));
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The nearest-rank `p`th percentile in microseconds, exact over
    /// every sample.
    pub fn pct_us(&mut self, p: f64) -> Option<f64> {
        self.0.sort_unstable_by_key(|s| s.1);
        let sorted: Vec<u64> = self.0.iter().map(|s| s.1).collect();
        nearest_rank(&sorted, p).map(|ns| ns as f64 / 1e3)
    }

    /// The median, over `windows` consecutive windows of length `window`
    /// from `start`, of each window's exact nearest-rank `p`th percentile
    /// (µs). A window counts when at least ten of its samples lie beyond
    /// that percentile; `None` unless half the windows count. One host
    /// stall spoils one window, not the run.
    pub fn windowed_pct_us(
        &self,
        p: f64,
        start: Instant,
        window: Duration,
        windows: usize,
    ) -> Option<f64> {
        let need = (10.0 / (1.0 - p / 100.0)).ceil() as usize;
        let per: Vec<f64> = split(&self.0, start, window, windows, |s| s.0)
            .into_iter()
            .filter(|w| w.len() >= need)
            .filter_map(|w| {
                let mut sorted: Vec<u64> = w.iter().map(|s| s.1).collect();
                sorted.sort_unstable();
                nearest_rank(&sorted, p).map(|ns| ns as f64 / 1e3)
            })
            .collect();
        (per.len() * 2 >= windows && !per.is_empty()).then(|| median(&per))
    }
}

/// Work units completed per second in each of `windows` windows of
/// length `window` from `start`; `done` holds `(completed at, units)`.
pub fn window_rates(
    done: &[(Instant, u64)],
    start: Instant,
    window: Duration,
    windows: usize,
) -> Vec<f64> {
    split(done, start, window, windows, |d| d.0)
        .into_iter()
        .map(|w| w.iter().map(|d| d.1).sum::<u64>() as f64 / window.as_secs_f64())
        .collect()
}

/// Buckets `items` into `windows` windows by completion time; items
/// outside `[start, start + windows * window)` are dropped.
fn split<T: Copy>(
    items: &[T],
    start: Instant,
    window: Duration,
    windows: usize,
    at: impl Fn(&T) -> Instant,
) -> Vec<Vec<T>> {
    let mut out = vec![Vec::new(); windows];
    for item in items {
        let Some(offset) = at(item).checked_duration_since(start) else {
            continue;
        };
        let w = (offset.as_nanos() / window.as_nanos().max(1)) as usize;
        if w < windows {
            out[w].push(*item);
        }
    }
    out
}

/// Median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(values,
/// n=4)` (its default "exclusive" method) computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len() as i64;
    if len == 1 {
        return (v[0], v[0]);
    }
    // CPython's exclusive method, integer steps and clamping included.
    let q = |i: i64| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = i * m - j * 4;
        (v[j as usize - 1] * (4 - delta) as f64 + v[j as usize] * delta as f64) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_on_known_samples() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(50));
        assert_eq!(nearest_rank(&s, 99.0), Some(99));
        assert_eq!(nearest_rank(&s, 100.0), Some(100));
        assert_eq!(nearest_rank(&s, 0.0), Some(1));
        let s = [10, 20, 30, 40, 50];
        assert_eq!(nearest_rank(&s, 50.0), Some(30));
        assert_eq!(nearest_rank(&s, 99.0), Some(50));
        assert_eq!(nearest_rank(&s, 20.0), Some(10));
        assert_eq!(nearest_rank(&s, 21.0), Some(20));
        assert_eq!(nearest_rank(&[], 50.0), None);
        let mut samples = Samples::default();
        for ns in [5_000, 1_000, 3_000, 2_000, 4_000] {
            samples.push(Instant::now(), ns);
        }
        assert_eq!(samples.pct_us(50.0), Some(3.0));
        assert_eq!(samples.pct_us(99.0), Some(5.0));
    }

    #[test]
    fn windowed_percentiles_take_the_median_window() {
        let start = Instant::now();
        let w = Duration::from_millis(10);
        let mut samples = Samples::default();
        let mut done = Vec::new();
        for window in 0..5u32 {
            // Window 2 is a stall: every sample 100x slower.
            let ns = if window == 2 {
                100_000
            } else {
                1_000 + u64::from(window)
            };
            for i in 0..20u32 {
                let at = start + w * window + Duration::from_micros(u64::from(i));
                samples.push(at, ns);
                done.push((at, 1));
            }
        }
        assert_eq!(samples.windowed_pct_us(50.0, start, w, 5), Some(1.003));
        // p99 needs 1000 samples a window: none qualifies.
        assert_eq!(samples.windowed_pct_us(99.0, start, w, 5), None);
        assert_eq!(window_rates(&done, start, w, 5), vec![2000.0; 5]);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
