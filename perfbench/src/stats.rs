//! Order statistics for timing samples.
//!
//! Every timing is reported as a median plus the highest percentile on a
//! fixed ladder that still has at least [`MIN_BEYOND`] samples above it,
//! together with the sample count, so a tail figure is never quoted from a
//! handful of points.

/// Percentile ladder, lowest first.
pub const LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie strictly beyond a percentile before it is quoted.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count). `NaN` for an
/// empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Smallest sample; `NaN` for an empty slice.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Mean; `NaN` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Nearest-rank percentile `q` (0 < q ≤ 100) and the number of samples
/// strictly beyond its rank. `None` for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let n = s.len();
    let rank = ((q / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some((s[rank - 1], n - rank))
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly above its rank.
    pub beyond: usize,
}

/// Picks the [`Tail`] for `samples`; `None` when even the median has fewer
/// than [`MIN_BEYOND`] samples beyond it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    LADDER.iter().rev().find_map(|&q| {
        let (value, beyond) = percentile(samples, q)?;
        (beyond >= MIN_BEYOND).then_some(Tail { q, value, beyond })
    })
}

/// One human-readable summary line: median, qualifying tail and count.
pub fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    let tail = match tail(samples) {
        Some(t) => format!("p{} {:.6} ({} beyond)", t.q, t.value, t.beyond),
        None => format!("no percentile has {MIN_BEYOND} samples beyond it"),
    };
    format!(
        "{name}: median {:.6} {unit}, {tail}, n={}",
        median(samples),
        samples.len()
    )
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so sorting is exercised.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert!(min(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentile_counts_samples_beyond() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 95.0), Some((95.0, 5)));
        assert_eq!(percentile(&s, 50.0), Some((50.0, 50)));
        assert_eq!(percentile(&s, 100.0), Some((100.0, 0)));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.q, t.value, t.beyond), (90.0, 90.0, 10));
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.q, t.beyond), (99.0, 10));
        // 99 samples: p90 leaves 9, so the median is the highest quotable.
        let t = tail(&ramp(99)).unwrap();
        assert_eq!((t.q, t.beyond), (50.0, 49));
        // Under 20 samples nothing qualifies.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&ramp(20)).unwrap().q, 50.0);
    }

    #[test]
    fn description_reports_count_and_tail() {
        let line = describe("x_ms", "ms", &ramp(200));
        assert!(line.contains("n=200"), "{line}");
        assert!(line.contains("p95 190"), "{line}");
        assert!(line.contains("(10 beyond)"), "{line}");
        let short = describe("x_ms", "ms", &ramp(3));
        assert!(
            short.contains("n=3") && short.contains("no percentile"),
            "{short}"
        );
    }
}
