//! The measurement core: sample summaries, the percentile rule, self time
//! from nested spans, and deltas of metric snapshots. Everything here is
//! pure, so the unit tests below pin it without running a workload.

use std::collections::BTreeMap;

/// Linear-interpolated percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// The tails a report may print, highest first, each with the share of
/// samples beyond it in thousandths.
const TAILS: [(f64, usize); 4] = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)];

/// The highest tail percentile that still has at least ten samples beyond
/// it; `None` when even p90 does not (fewer than 100 samples).
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|(_, beyond)| n * beyond >= 10 * 1000).map(|(p, _)| p)
}

/// What a report says about one timing: median, quartiles, the supported
/// tail and the sample count.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` of [`supported_tail`], when there is one.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples.to_vec());
    Summary {
        n: s.len(),
        p50: percentile(&s, 50.0),
        q1: percentile(&s, 25.0),
        q3: percentile(&s, 75.0),
        tail: supported_tail(s.len()).map(|p| (p, percentile(&s, p))),
    }
}

/// One recorded span on the shared trace timeline (microseconds).
#[derive(Clone, Debug)]
pub struct Interval {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
}

/// Self time of every span of one op: its duration minus the part of it
/// that its children cover. A span's parent is the shortest span that
/// contains it, whichever thread recorded it, so two children running in
/// parallel on two threads are subtracted once where they overlap.
/// Returns `(name, self_us)` in input order.
pub fn self_times(spans: &[Interval]) -> Vec<(String, u64)> {
    let contains = |outer: &Interval, inner: &Interval| {
        outer.start_us <= inner.start_us
            && inner.end_us <= outer.end_us
            && (outer.end_us - outer.start_us) > (inner.end_us - inner.start_us)
    };
    let parent_of = |i: usize| {
        (0..spans.len())
            .filter(|&j| j != i && contains(&spans[j], &spans[i]))
            .min_by_key(|&j| spans[j].end_us - spans[j].start_us)
    };
    let parents: Vec<Option<usize>> = (0..spans.len()).map(parent_of).collect();
    spans
        .iter()
        .enumerate()
        .map(|(i, span)| {
            let mut kids: Vec<(u64, u64)> = (0..spans.len())
                .filter(|&j| parents[j] == Some(i))
                .map(|j| (spans[j].start_us, spans[j].end_us))
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_us);
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.name.clone(), (span.end_us - span.start_us).saturating_sub(covered))
        })
        .collect()
}

/// `after - before` for every counter in `after` (a counter absent from
/// `before` started at zero).
pub fn counter_delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(name, &v)| (name.clone(), v.saturating_sub(before.get(name).copied().unwrap_or(0))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_follows_the_sample_count() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        let five = summarize(&ramp(5));
        assert_eq!((five.n, five.p50, five.tail), (5, 3.0, None));
        assert_eq!((five.q1, five.q3), (2.0, 4.0));
        // 200 samples: exactly ten lie beyond p95, only two beyond p99.
        let two_hundred = summarize(&ramp(200));
        assert_eq!(two_hundred.tail.map(|t| t.0), Some(95.0));
        assert!((two_hundred.tail.unwrap().1 - 190.05).abs() < 1e-9);
        // 5 000 samples: fifty beyond p99, five beyond p99.9.
        assert_eq!(summarize(&ramp(5000)).tail.map(|t| t.0), Some(99.0));
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let span = |name: &str, start_us, end_us| Interval { name: name.into(), start_us, end_us };
        // fed.run fans out to two shard threads that overlap in 30..60.
        let spans = [
            span("request", 0, 100),
            span("fed.run", 10, 90),
            span("shard.a", 20, 60),
            span("shard.b", 30, 80),
            span("shard.a.inner", 25, 35),
        ];
        let got: BTreeMap<String, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(got["request"], 20);
        assert_eq!(got["fed.run"], 20, "80 long, children cover 20..80");
        assert_eq!(got["shard.a"], 30);
        assert_eq!(got["shard.b"], 50);
        assert_eq!(got["shard.a.inner"], 10);
        assert_eq!(got.values().sum::<u64>(), 130, "overlap of 30 is paid on both threads");
    }

    #[test]
    fn counter_delta_treats_new_counters_as_zero_based() {
        let before = BTreeMap::from([("hits".to_string(), 5), ("gone".to_string(), 1)]);
        let after = BTreeMap::from([("hits".to_string(), 12), ("misses".to_string(), 3)]);
        let delta = counter_delta(&before, &after);
        assert_eq!(delta, BTreeMap::from([("hits".to_string(), 7), ("misses".to_string(), 3)]));
    }
}
