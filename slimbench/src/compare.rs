//! `slimbench --compare A B`: applies the bounds in `BENCHMARK.json` to two
//! result sets — files of `#detail` lines as `--all --out` writes them, at
//! least five runs each — and prints one row per (workload, end-to-end
//! metric).

use crate::measure::{percentile, sorted};
use sg_serve::Json;
use std::collections::BTreeMap;
use std::path::Path;

const MIN_RUNS: usize = 5;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The run-to-run spread is wider than the bound (or a set has fewer
    /// than five runs), so the medians decide nothing.
    Unresolved,
}

/// Median and quartiles of one set.
struct Quartiles {
    q1: f64,
    p50: f64,
    q3: f64,
}

fn quartiles(values: &[f64]) -> Quartiles {
    let s = sorted(values.to_vec());
    Quartiles { q1: percentile(&s, 25.0), p50: percentile(&s, 50.0), q3: percentile(&s, 75.0) }
}

/// The verdict on one metric: `a` is the baseline set, `b` the candidate.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    if a.len() < MIN_RUNS || b.len() < MIN_RUNS {
        return Verdict::Unresolved;
    }
    let (qa, qb) = (quartiles(a), quartiles(b));
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let scale = qa.p50.abs().max(f64::MIN_POSITIVE);
    let worsening = sign * (qb.p50 - qa.p50) / scale;
    let spread =
        ((qa.q3 - qa.q1) / scale).max((qb.q3 - qb.q1) / qb.p50.abs().max(f64::MIN_POSITIVE));
    if spread > bound {
        // Too noisy for the medians — unless the two sets do not overlap.
        let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::MIN, f64::max);
        let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::MAX, f64::min);
        return if worst(b) < best(a) {
            Verdict::Better
        } else if best(b) > worst(a) && worsening > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `(workload, metric) -> values`, one value per run in the file.
fn read_set(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut set: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let run = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let workload = run.get("workload").and_then(Json::as_str).ok_or("run without workload")?;
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err(format!("{path}: run without metrics"));
        };
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                set.entry((workload.to_string(), name.clone())).or_default().push(value);
            }
        }
    }
    Ok(set)
}

/// Prints the table; `Ok(true)` when every row reads `same` or `better`.
pub fn run(benchmark_json: &Path, a_path: &str, b_path: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("reading {}: {e}", benchmark_json.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let declared = doc.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end list")?;
    let bound_of = |name: &str| {
        declared
            .iter()
            .find(|d| d.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|d| d.get("bound")?.as_f64())
            .ok_or_else(|| format!("{}: no bound for {name}", benchmark_json.display()))
    };
    let (a, b) = (read_set(a_path)?, read_set(b_path)?);
    println!(
        "{:<16} {:<20} {:>38} {:>38} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change"
    );
    let mut clean = true;
    for (workload, _) in crate::workloads::WORKLOADS {
        for def in crate::schema::END_TO_END {
            let bound = bound_of(def.name)?;
            let key = (workload.to_string(), def.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!("{workload:<16} {:<20} missing from a result set", def.name);
                clean = false;
                continue;
            };
            let verdict = judge(va, vb, def.better == "lower", bound);
            clean &= matches!(verdict, Verdict::Same | Verdict::Better);
            let show = |v: &[f64]| {
                let q = quartiles(v);
                format!("{:.5} [{:.5}, {:.5}] ({})", q.p50, q.q1, q.q3, v.len())
            };
            let change = (quartiles(vb).p50 / quartiles(va).p50 - 1.0) * 100.0;
            println!(
                "{workload:<16} {:<20} {:>38} {:>38} {change:>+7.2}%  {}",
                def.name,
                show(va),
                show(vb),
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shifted = |by: f64| base.map(|v| v * by);
        assert_eq!(judge(&base, &base, true, 0.10), Verdict::Same);
        assert_eq!(judge(&base, &shifted(1.05), true, 0.10), Verdict::Same);
        assert_eq!(judge(&base, &shifted(1.15), true, 0.10), Verdict::Worse);
        assert_eq!(judge(&base, &shifted(0.95), true, 0.10), Verdict::Same);
        assert_eq!(judge(&base, &shifted(0.85), true, 0.10), Verdict::Better);
        // Direction flips for higher-is-better metrics.
        assert_eq!(judge(&base, &shifted(0.85), false, 0.10), Verdict::Worse);
        assert_eq!(judge(&base, &shifted(1.15), false, 0.10), Verdict::Better);
        // A spread wider than the bound decides nothing…
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(judge(&noisy, &noisy.map(|v| v * 1.05), true, 0.10), Verdict::Unresolved);
        // …unless every run of one side beats every run of the other.
        assert_eq!(judge(&noisy, &noisy.map(|v| v * 0.4), true, 0.10), Verdict::Better);
        assert_eq!(judge(&noisy, &noisy.map(|v| v * 2.5), true, 0.10), Verdict::Worse);
        // Fewer than five runs is never enough.
        assert_eq!(judge(&base[..4], &base, true, 0.10), Verdict::Unresolved);
        // An exact metric: any change beyond its tiny bound is a regression.
        let exact = [0.5; 5];
        assert_eq!(judge(&exact, &exact, true, 0.001), Verdict::Same);
        assert_eq!(judge(&exact, &[0.502; 5], true, 0.001), Verdict::Worse);
    }
}
