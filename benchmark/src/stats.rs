//! Sample statistics the benchmark reports: medians, means, and the
//! tail-percentile rule.

/// Median (mean of the two middle samples for an even count); 0 for an
/// empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Percentiles a tail may be reported at, ascending, in per mille (so
/// the rank arithmetic is exact).
const LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// Samples beyond a reported percentile that make it trustworthy.
const BEYOND: usize = 10;

/// The highest percentile of [`LADDER`] that still has at least
/// [`BEYOND`] samples beyond it, with its value (nearest-rank). `None`
/// below 20 samples, where not even the median has ten beyond it: a tail
/// from so few is one or two outliers, not a percentile.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    LADDER
        .iter()
        .rev()
        .map(|&pm| (pm, (pm * n).div_ceil(1000)))
        .find(|&(_, rank)| rank >= 1 && n - rank >= BEYOND)
        .map(|(pm, rank)| (pm as f64 / 10.0, v[rank - 1]))
}

/// `(a − b) / b`, the relative distance of `a` from base `b`.
pub fn rel(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        if a == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (a - b) / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: p50 is rank 10, only 9 beyond.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // 39 samples: p75 is rank 30, only 9 beyond; p50 is rank 20.
        assert_eq!(tail(&ramp(39)), Some((50.0, 20.0)));
        // 40 samples: p75 is rank 30, exactly 10 beyond.
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        // 100 samples: p90 leaves 10 beyond, p95 only 5.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 200 samples: p95 leaves 10.
        assert_eq!(tail(&ramp(200)), Some((95.0, 190.0)));
        // 1000 samples: p99 leaves 10; p99.9 leaves 1.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn rel_is_signed_and_safe_at_zero() {
        assert_eq!(rel(11.0, 10.0), 0.1);
        assert_eq!(rel(9.0, 10.0), -0.1);
        assert_eq!(rel(0.0, 0.0), 0.0);
        assert!(rel(1.0, 0.0).is_infinite());
    }
}
