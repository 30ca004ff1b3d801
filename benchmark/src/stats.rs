//! Order statistics over host measurements.

/// Nearest-rank percentile: the smallest sample with at least a `q`
/// share of the samples at or below it (`q` in `[0, 1]`). Reorders
/// `samples` in place; `None` for an empty slice.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    let (_, value, _) = samples.select_nth_unstable_by(rank - 1, f64::total_cmp);
    Some(*value)
}

/// The median of `values` (nearest rank, so always a measured value).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&mut values.to_vec(), 0.5)
}

/// Interquartile range as a percentage of the median.
pub fn iqr_pct(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    let q1 = percentile(&mut v, 0.25)?;
    let q3 = percentile(&mut v, 0.75)?;
    let mid = percentile(&mut v, 0.5)?;
    (mid > 0.0).then(|| (q3 - q1) / mid * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopp::types::SplitMix64;

    /// The definition, computed the slow way on a sorted copy.
    fn reference(values: &[f64], q: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mut i = 0;
        while (i + 1) as f64 / (n as f64) < q && i + 1 < n {
            i += 1;
        }
        sorted[i]
    }

    #[test]
    fn percentile_matches_a_sorted_vector_reference() {
        let mut rng = SplitMix64::seed_from_u64(7);
        for n in [1usize, 2, 3, 10, 99, 1_000, 4_097] {
            // Duplicates included: draw from a small range.
            let values: Vec<f64> = (0..n).map(|_| rng.gen_range(0..500) as f64).collect();
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
                let got = percentile(&mut values.clone(), q);
                assert_eq!(got, Some(reference(&values, q)), "n={n} q={q}");
            }
        }
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn median_and_iqr_of_a_known_set() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0, 8.0, 6.0, 7.0];
        assert_eq!(median(&v), Some(4.0));
        // q1 = 2, q3 = 6, median 4: (6 - 2) / 4.
        assert_eq!(iqr_pct(&v), Some(100.0));
    }
}
