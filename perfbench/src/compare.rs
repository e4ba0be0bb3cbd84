//! Compare mode: two result sets (directories of `*.tsv` run results),
//! one verdict per (workload, metric).
//!
//! A side's runs are paired with the other's by seed. The change (`b`)
//! is `better` when it wins at least nine tenths of ten or more pairs and its
//! median differs from the parent's (`a`) by more than the parent's
//! quartile spread; `worse` when its median is worse than the parent's
//! by more than the metric's bound (for a metric without one: when the
//! parent wins nine tenths of the pairs and the medians differ by more
//! than the parent's spread); `unresolved` when either side's spread is
//! wider than the bound; otherwise `unchanged`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::spec::{self, Better};
use crate::stats::{median, quartiles};

/// (workload, trace) -> metric -> seed -> value.
type Set = BTreeMap<(String, String), BTreeMap<String, BTreeMap<u64, f64>>>;

fn load(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("tsv") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        let field = |name: &str| {
            header
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('='))
                .map(str::to_owned)
                .ok_or_else(|| format!("{}: header lacks {name}", path.display()))
        };
        let (workload, trace) = (field("workload")?, field("trace")?);
        let seed: u64 = field("seed")?
            .parse()
            .map_err(|e| format!("{}: seed: {e}", path.display()))?;
        for line in lines {
            let mut cols = line.split('\t');
            let (Some(name), Some(value)) = (cols.next(), cols.next()) else {
                continue;
            };
            let value: f64 = value
                .parse()
                .map_err(|e| format!("{}: {name}: {e}", path.display()))?;
            set.entry((workload.clone(), trace.clone()))
                .or_default()
                .entry(name.to_owned())
                .or_default()
                .insert(seed, value);
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no *.tsv results", dir.display()));
    }
    Ok(set)
}

#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

/// The verdict on one metric. `a` is the parent, `b` the change, each
/// in seed order; pairs are `zip(a, b)`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let (qa1, qa3) = quartiles(a);
    let (qb1, qb3) = quartiles(b);
    let spread_a = qa3 - qa1;
    let gain = |x: f64, y: f64| match better {
        Better::Lower => x - y,
        Better::Higher => y - x,
    };
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| gain(**x, **y) > 0.0)
        .count();
    let losses = a
        .iter()
        .zip(b)
        .filter(|(x, y)| gain(**x, **y) < 0.0)
        .count();
    let beyond_spread = (mb - ma).abs() > spread_a;
    // The nine-in-ten pair rule needs at least ten pairs.
    let enough = pairs >= 10;
    if enough && wins * 10 >= pairs * 9 && beyond_spread && gain(ma, mb) > 0.0 {
        return Verdict::Better;
    }
    let Some(bound) = bound else {
        if enough && losses * 10 >= pairs * 9 && beyond_spread {
            return Verdict::Worse;
        }
        return if beyond_spread {
            Verdict::Unresolved
        } else {
            Verdict::Unchanged
        };
    };
    if gain(ma, mb) < -bound * ma.abs() {
        return Verdict::Worse;
    }
    let all_better = match better {
        Better::Lower => {
            b.iter().copied().fold(f64::MIN, f64::max) < a.iter().copied().fold(f64::MAX, f64::min)
        }
        Better::Higher => {
            b.iter().copied().fold(f64::MAX, f64::min) > a.iter().copied().fold(f64::MIN, f64::max)
        }
    };
    let wide = |spread: f64, m: f64| spread > bound * m.abs();
    if (wide(spread_a, ma) || wide(qb3 - qb1, mb)) && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

pub fn run(a_dir: &Path, b_dir: &Path) -> Result<(), String> {
    let (a, b) = (load(a_dir)?, load(b_dir)?);
    println!(
        "{:<12} {:<3} {:<30} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>8} verdict",
        "workload",
        "tr",
        "metric",
        "a.q1",
        "a.median",
        "a.q3",
        "b.q1",
        "b.median",
        "b.q3",
        "change"
    );
    for ((workload, trace), metrics) in &a {
        let Some(other) = b.get(&(workload.clone(), trace.clone())) else {
            println!("{workload:<12} {trace:<3} (no runs in {})", b_dir.display());
            continue;
        };
        for (name, runs_a) in metrics {
            let Some(runs_b) = other.get(name) else {
                continue;
            };
            let seeds: Vec<u64> = runs_a
                .keys()
                .filter(|s| runs_b.contains_key(s))
                .copied()
                .collect();
            let (va, vb): (Vec<f64>, Vec<f64>) = if seeds.is_empty() {
                (
                    runs_a.values().copied().collect(),
                    runs_b.values().copied().collect(),
                )
            } else {
                seeds.iter().map(|s| (runs_a[s], runs_b[s])).unzip()
            };
            let meta = spec::metric(name);
            let better = meta.map_or(Better::Lower, |m| m.better);
            let bound = meta.and_then(|m| m.bound);
            let (qa1, qa3) = quartiles(&va);
            let (qb1, qb3) = quartiles(&vb);
            let (ma, mb) = (median(&va), median(&vb));
            let change = if ma == 0.0 {
                0.0
            } else {
                (mb - ma) / ma.abs() * 100.0
            };
            println!(
                "{workload:<12} {trace:<3} {name:<30} {qa1:>12.4} {ma:>12.4} {qa3:>12.4} | {qb1:>12.4} {mb:>12.4} {qb3:>12.4} | {change:>+7.1}% {:?}{}",
                verdict(&va, &vb, better, bound),
                bound.map_or(String::new(), |b| format!(" (bound {:.0}%)", b * 100.0))
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_pairs_spread_and_bound() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        // Every pair 20% faster: better.
        let fast: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            verdict(&a, &fast, Better::Lower, Some(0.1)),
            Verdict::Better
        );
        // 20% slower against a 10% bound: worse.
        let slow: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &slow, Better::Lower, Some(0.1)), Verdict::Worse);
        // Same numbers: unchanged.
        assert_eq!(
            verdict(&a, &a, Better::Lower, Some(0.1)),
            Verdict::Unchanged
        );
        // A spread wider than the bound: unresolved.
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(
            verdict(&noisy, &noisy, Better::Lower, Some(0.1)),
            Verdict::Unresolved
        );
        // Higher is better flips the sign.
        assert_eq!(
            verdict(&a, &fast, Better::Higher, Some(0.1)),
            Verdict::Worse
        );
        // No bound: the pair rule both ways.
        assert_eq!(verdict(&a, &slow, Better::Lower, None), Verdict::Worse);
        assert_eq!(verdict(&a, &a, Better::Lower, None), Verdict::Unchanged);
        // One pair decides nothing.
        assert_eq!(
            verdict(&[1.0], &[2.0], Better::Lower, None),
            Verdict::Unresolved
        );
    }
}
