//! Order statistics and rates behind every reported number.

/// Percentiles a tail may be reported at, lowest first (in tenths of a
/// percent, so rank arithmetic stays in integers).
const TAIL_LADDER_PERMILLE: [usize; 5] = [500, 900, 950, 990, 999];

/// Samples a tail percentile needs beyond it before it is reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// 1-based nearest rank of the percentile `permille / 10` in `n` samples:
/// `ceil(permille * n / 1000)`, at least 1.
fn nearest_rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).max(1)
}

/// Samples strictly above the nearest-rank percentile `permille / 10`.
pub fn samples_beyond(n: usize, permille: usize) -> usize {
    n.saturating_sub(nearest_rank(n, permille))
}

/// The highest ladder percentile (in tenths of a percent) with at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it, or `None` if even the median
/// lacks them.
pub fn tail_permille(n: usize) -> Option<usize> {
    TAIL_LADDER_PERMILLE
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
}

/// Nearest-rank percentile `permille / 10` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    sorted[nearest_rank(sorted.len(), permille) - 1]
}

/// The median of `values` (mean of the two middle values for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `values` sorted ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Correct SELECT answers per second of client-observed SELECT time: the
/// answer rate discounted by the share of answer cells within the requested
/// error (`answer_ok_rate`), so an answer that is half wrong counts half.
/// Weighting by cells rather than by whole answers keeps the figure steady
/// when only a seeded subset of the answers is checked.
pub fn goodput_qps(answered: usize, answer_ok_rate: f64, select_secs: f64) -> f64 {
    if select_secs <= 0.0 {
        return 0.0;
    }
    answered as f64 * answer_ok_rate / select_secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 200 samples: p95 has rank 190 and exactly 10 beyond; p99 has 2.
        assert_eq!(samples_beyond(200, 950), 10);
        assert_eq!(tail_permille(200), Some(950));
        // One sample fewer and p95 loses its tenth sample beyond.
        assert_eq!(samples_beyond(199, 950), 9);
        assert_eq!(tail_permille(199), Some(900));
        // p99 needs 1000 samples, p99.9 needs 10000.
        assert_eq!(tail_permille(999), Some(950));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(9_999), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
        // Too few samples for any tail, even the median.
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 950), 190.0);
        assert_eq!(percentile(&v, 500), 100.0);
        assert_eq!(percentile(&v, 999), 200.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn goodput_discounts_the_answer_rate_by_the_ok_share() {
        // 1000 answers in 2 s with 75% of the cells right: 375 per second.
        assert_eq!(goodput_qps(1000, 0.75, 2.0), 375.0);
        // Every cell right: goodput is the answer rate.
        assert_eq!(goodput_qps(500, 1.0, 0.5), 1000.0);
        // Nothing right, or no time observed: zero.
        assert_eq!(goodput_qps(500, 0.0, 0.5), 0.0);
        assert_eq!(goodput_qps(500, 1.0, 0.0), 0.0);
    }
}
