//! Sample summaries: nearest-rank percentiles that ignore non-finite
//! samples, plus the few aggregates the metrics need.

/// Nearest-rank percentile `p` (0–100] over the finite samples: the
/// smallest sample with at least `p`% of the finite samples at or
/// below it. `None` when no sample is finite.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut finite: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    if finite.is_empty() {
        return None;
    }
    finite.sort_by(f64::total_cmp);
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * finite.len() as f64).ceil() as usize;
    Some(finite[rank.clamp(1, finite.len()) - 1])
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Geometric mean of the finite, positive samples.
pub fn geomean(samples: &[f64]) -> Option<f64> {
    let logs: Vec<f64> = samples
        .iter()
        .filter(|x| x.is_finite() && **x > 0.0)
        .map(|x| x.ln())
        .collect();
    if logs.is_empty() {
        return None;
    }
    Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_real_samples() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        // Nearest rank never interpolates.
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0], 51.0), Some(2.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 90.0), Some(3.0));
    }

    #[test]
    fn percentiles_are_nan_safe() {
        let xs = [f64::NAN, 5.0, f64::INFINITY, 1.0, f64::NEG_INFINITY, 3.0];
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(percentile(&xs, 99.0), Some(5.0));
        assert_eq!(percentile(&[f64::NAN], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn geomean_skips_non_positive() {
        let g = geomean(&[1.0, 4.0, 0.0, f64::NAN]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[0.0]), None);
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 6.0), 0.5);
    }
}
