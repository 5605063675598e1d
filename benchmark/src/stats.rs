//! Order statistics: nearest-rank percentiles, medians and the quartile
//! spread the repeatability criterion is stated in.

/// Samples that must lie beyond a percentile for it to be reported: a
/// tail estimate resting on fewer is one slow op, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`pct` in `0..=100`):
/// the smallest sample with at least `pct`% of the samples at or below
/// it. Empty input yields 0.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of the `pct` percentile among `n >= 1` samples.
/// The product is formed before the division and nudged down so that an
/// exact rank (99% of 1000) never rounds up through float error.
fn rank(n: usize, pct: f64) -> usize {
    let exact = pct * n as f64 / 100.0;
    ((exact - 1e-9).ceil() as usize).clamp(1, n)
}

/// Interquartile mean of an ascending slice: the mean of its middle
/// half. Like the median it ignores both tails, but it moves smoothly
/// when the 50% mark sits on the step between two modes — half of
/// `place_hot`'s ticks carry no arrival, and its median flips between
/// "idle tick" and "busy tick" from one request stream to the next.
pub fn interquartile_mean(sorted: &[u64]) -> f64 {
    let n = sorted.len();
    let middle = &sorted[n / 4..n - n / 4];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<u64>() as f64 / middle.len() as f64
}

/// The share of the ops, counted from the slowest, whose mean is the
/// tail metric.
pub const TAIL_SHARE: f64 = 0.10;

/// How many of `n` samples make up the slowest `share` (rounded down,
/// never none of a non-empty sample).
pub fn tail_len(n: usize, share: f64) -> usize {
    ((n as f64 * share) as usize).clamp(n.min(1), n)
}

/// Mean of the slowest `share` of an ascending slice. Where a percentile
/// reads one sample — and `churn_1chip`'s 99th lies where the samples
/// are sparse, between 3.5 ms at p98 and 7 ms at p99, so it moved by
/// 11–16% from one seed to the next — this averages every sample of the
/// tail, the ones beyond p99 included, and moves by half that. A tenth,
/// not a twentieth: `fleet16_exec`'s slow ticks are its load peaks,
/// tenants live 30 ticks, and a stream of 2 000 ticks holds too few
/// independent peaks for its slowest 5% to repeat from seed to seed.
pub fn tail_mean(sorted: &[u64], share: f64) -> f64 {
    let tail = &sorted[sorted.len() - tail_len(sorted.len(), share)..];
    if tail.is_empty() {
        return 0.0;
    }
    tail.iter().sum::<u64>() as f64 / tail.len() as f64
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`
/// samples.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, pct)
}

/// The highest of 99.9 / 99 / 95 / 90 / 50 that has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` below 20 samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Median of unsorted values (mean of the middle two for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default *exclusive* method) gives them; `None` below 2 values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the benchmark's bounds are judged against. 0 when
/// it cannot be formed (fewer than 2 values, or a zero median).
pub fn quartile_spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1).abs() / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_selection() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 99.0), 0);
        // 1000 samples: p99 is the 990th, with exactly ten beyond.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(samples_beyond(1000, 99.0), 10);
    }

    #[test]
    fn interquartile_mean_averages_the_middle_half() {
        let v: Vec<u64> = (1..=8).collect();
        assert_eq!(interquartile_mean(&v), 4.5); // 3, 4, 5, 6
        assert_eq!(interquartile_mean(&[5]), 5.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
        // Tails do not move it; a 50/50 bimodal sample lands between the
        // modes instead of on either.
        assert_eq!(interquartile_mean(&[0, 0, 10, 10, 10, 10, 900, 900]), 10.0);
        assert_eq!(interquartile_mean(&[9, 9, 9, 9, 21, 21, 21, 21]), 15.0);
    }

    #[test]
    fn tail_mean_averages_the_slowest_share() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(tail_len(100, 0.05), 5);
        assert_eq!(tail_mean(&v, 0.05), 98.0); // 96..=100
        assert_eq!(tail_mean(&v, 1.0), 50.5);
        // Fewer than 1/share samples: the slowest one alone.
        assert_eq!(tail_len(7, 0.05), 1);
        assert_eq!(tail_mean(&[3, 9], 0.05), 9.0);
        assert_eq!(tail_mean(&[], 0.05), 0.0);
        // Every sample beyond the cut counts, not only the one at it.
        assert!(tail_mean(&[1, 1, 1, 1000], 0.5) > tail_mean(&[1, 1, 1, 10], 0.5));
    }

    #[test]
    fn ten_beyond_rule_picks_the_reportable_tail() {
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn median_and_python_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
