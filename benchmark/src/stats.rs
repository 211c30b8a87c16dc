//! Order statistics over timing samples.

/// `samples` sorted ascending (NaN-free by construction: every sample
/// is a duration or a count).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    s
}

/// The median; the mean of the two middle samples for an even count.
/// `NaN` for no samples, so a metric that never ran cannot pass as 0.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(samples, n=4)` computes them (its default
/// "exclusive" method) — the rule the acceptance check applies, so
/// `compare` reports the same spread. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(samples);
    let len = s.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        // `delta` may exceed 4 (or go negative) when `j` was clamped:
        // the cut point then extrapolates, exactly as Python does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread the bound is compared against.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(samples)?;
    Some((q3 - q1) / median(samples))
}

/// The highest percentile that still has at least ten samples beyond
/// it, as `(percentile, value)`. With ten samples or fewer no
/// percentile qualifies and the median is returned as the 50th, which
/// the sample count printed beside it makes plain.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    if n <= 10 {
        return (50.0, median(samples));
    }
    (100.0 * (n - 10) as f64 / n as f64, s[n - 11])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let q = quartiles(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40., 10., 20.]).unwrap(), [10., 20., 40.]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1., 2.]).unwrap(), [0.75, 1.5, 2.25]);
        assert!(quartiles(&[1.]).is_none());
    }

    #[test]
    fn spread_is_interquartile_range_over_median() {
        let s = spread(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let (pct, value) = tail(&samples);
        assert_eq!(pct, 75.0);
        assert_eq!(value, 30.0);
        assert_eq!(samples.iter().filter(|&&x| x > value).count(), 10);
        // Eleven samples: the lowest one is the only qualifying point.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven).1, 1.0);
        // Too few samples: the median stands in.
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (50.0, 2.0));
    }
}
