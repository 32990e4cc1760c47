//! Order statistics for timing samples.

/// Candidate tail percentiles, in per-mille (p50 … p99.9).
const PERCENTILES_PM: [u64; 5] = [500, 900, 950, 990, 999];

/// A reported percentile needs at least this many samples beyond it.
pub const MIN_TAIL: usize = 10;

/// Median (mean of the middle pair for an even count); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// 1-based nearest rank of per-mille percentile `pm` among `n` samples.
fn rank(n: usize, pm: u64) -> usize {
    ((pm as usize * n).div_ceil(1000)).clamp(1, n)
}

/// Nearest-rank percentile `pm` (per-mille) of `xs`; `None` when empty.
pub fn percentile(xs: &[f64], pm: u64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    Some(s[rank(s.len(), pm) - 1])
}

/// The highest candidate percentile (per-mille) that has at least
/// [`MIN_TAIL`] of `n` samples ranked beyond it.
pub fn tail_percentile(n: usize) -> Option<u64> {
    PERCENTILES_PM
        .iter()
        .rev()
        .copied()
        .find(|&pm| n > 0 && n - rank(n, pm) >= MIN_TAIL)
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let s = sorted(xs);
    let m = s.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((q(1), q(2), q(3)))
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A timing's summary: median, sample count and the qualifying tail.
#[derive(Clone, Debug)]
pub struct Summary {
    pub median: f64,
    pub n: usize,
    /// `(per-mille, value)` of [`tail_percentile`], if any qualifies.
    pub tail: Option<(u64, f64)>,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Option<Summary> {
        let median = median(xs)?;
        let tail = tail_percentile(xs.len()).map(|pm| (pm, percentile(xs, pm).expect("non-empty")));
        Some(Summary {
            median,
            n: xs.len(),
            tail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        // 200 samples: p95 is rank 190, ten samples beyond it.
        assert_eq!(tail_percentile(200), Some(950));
        // 199: rank 190 leaves nine beyond, so only p90 qualifies.
        assert_eq!(tail_percentile(199), Some(900));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(500));
        assert_eq!(tail_percentile(0), None);
        assert!(Summary::of(&[1.0, 2.0, 3.0]).unwrap().tail.is_none());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 950), Some(190.0));
        assert_eq!(percentile(&xs, 500), Some(100.0));
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.tail, Some((950, 190.0)));
        assert_eq!(s.n, 200);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 3.0, 4.5)));
        assert!((spread(&xs).unwrap() - 5.5 / 5.5).abs() < 1e-12);
    }
}
