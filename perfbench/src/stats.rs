//! The statistics every reported number goes through: medians, the tail
//! percentile rule, span self time and open-loop request latency.

use std::time::{Duration, Instant};

/// Median of `samples` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `pct`% of the
/// samples at or below it.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(pct, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of the `pct` percentile among `n` samples (the
/// epsilon keeps `99.9% of 10 000` at 9 990 despite rounding).
fn rank(pct: f64, n: usize) -> usize {
    (pct * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Percentiles the tail rule may pick, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The tail percentile `n` samples support: the highest of
/// [`TAIL_PERCENTILES`] that leaves at least ten samples beyond it under
/// nearest-rank selection. `None` below 40 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&pct| n >= rank(pct, n) + 10)
}

/// The median and the rule's tail percentile of `samples`, with the
/// percentile used. The tail is `NaN` when the sample cannot support one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let tail_pct = tail_percentile(samples.len()).unwrap_or(f64::NAN);
    Summary {
        n: samples.len(),
        p50: median(samples),
        tail_pct,
        tail: if tail_pct.is_nan() {
            f64::NAN
        } else {
            percentile(samples, tail_pct)
        },
    }
}

/// Split `(time, value)` samples taken over `[start, start + length)` into
/// equal consecutive windows of about `width` (at least one), dropping
/// samples outside the interval.
pub fn windows(samples: &[(f64, f64)], start: f64, length: f64, width: f64) -> Vec<Vec<f64>> {
    let k = ((length / width).floor() as usize).max(1);
    let mut out = vec![Vec::new(); k];
    for &(t, v) in samples {
        let pos = (t - start) / length;
        if (0.0..1.0).contains(&pos) {
            out[((pos * k as f64) as usize).min(k - 1)].push(v);
        }
    }
    out
}

/// A closed interval on the benchmark's clock, in nanoseconds.
pub type Interval = (u64, u64);

/// Self time of a span: its duration minus the union of its children's
/// intervals (clipped to the span), so overlapping children are not
/// subtracted twice.
pub fn self_time(span: Interval, children: &[Interval]) -> u64 {
    let (lo, hi) = span;
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (hi - lo) - covered
}

/// Latency of one open-loop request, measured from when it was **due**, not
/// from when the generator got round to sending it: a stalled generator or
/// a slow `submit` delays every later request, and that delay is part of
/// what the request's user waits.
///
/// The response was available at the earlier of two instants: when the
/// collector's `wait` returned, and when `submit` returned plus the
/// server's own submit-to-response latency. The second bound matters when
/// the single collector was still blocked on an earlier ticket while this
/// one had already completed.
pub fn open_loop_latency(
    due: Instant,
    submitted: Instant,
    server_latency: Duration,
    wait_returned: Instant,
) -> Duration {
    let done = wait_returned.min(submitted + server_latency);
    done.saturating_duration_since(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [40, 57, 100, 250, 1000, 4321, 10_000] {
            let pct = tail_percentile(n).unwrap();
            let samples: Vec<f64> = (1..=n).map(|v| v as f64).collect();
            let value = percentile(&samples, pct);
            let beyond = samples.iter().filter(|&&v| v > value).count();
            assert!(beyond >= 10, "n={n} p{pct}: only {beyond} beyond");
        }
    }

    #[test]
    fn summary_reports_median_and_tail() {
        let samples: Vec<f64> = (1..=1000).map(|v| v as f64).collect();
        let s = summarize(&samples);
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (1000, 500.5, 99.0, 990.0));
        assert!(summarize(&[1.0, 2.0]).tail.is_nan());
    }

    #[test]
    fn windows_split_by_time_and_drop_the_outside() {
        let samples: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 / 10.0, i as f64)).collect();
        // [2, 9) in windows of about 3 s: two windows of 3.5 s.
        let w = windows(&samples, 2.0, 7.0, 3.0);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].first(), Some(&20.0));
        assert_eq!(w[0].last(), Some(&54.0));
        assert_eq!(w[1].first(), Some(&55.0));
        assert_eq!(w[1].last(), Some(&89.0));
        // Shorter than one window: one window.
        assert_eq!(windows(&samples, 0.0, 1.0, 3.0).len(), 1);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 30), (50, 60)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 50)]), 60);
        // Nested children count once.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children are clipped to the parent.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(5); // the generator ran late
        let server = Duration::from_millis(2);
        // Collector was idle: the response is seen as the server sends it.
        let lat = open_loop_latency(due, sent, server, sent + server);
        assert_eq!(lat, Duration::from_millis(7));
        // Collector was blocked on an earlier ticket until much later: the
        // response was ready at send + server latency all the same.
        let lat = open_loop_latency(due, sent, server, due + Duration::from_millis(50));
        assert_eq!(lat, Duration::from_millis(7));
        // Sent on time: latency equals the server latency.
        assert_eq!(open_loop_latency(due, due, server, due + server), server);
    }
}
