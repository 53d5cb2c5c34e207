//! The benchmark's own arithmetic: order statistics and span self time.
//!
//! Kept free of any library type so the unit tests below pin exactly the
//! numbers the benchmark reports.

/// Nearest-rank percentile of an ascending-sorted slice (`q` in `[0, 100]`).
/// The nearest-rank rule always returns an observed sample, never an
/// interpolated one.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest-rank, so an observed value).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The highest percentile of the ladder {50, 90, 99, 99.9} that still has
/// at least ten samples beyond it among `n` samples — the tail percentile a
/// report may quote without it resting on a handful of outliers. `None`
/// when even the median lacks ten samples above it (fewer than 20 samples).
pub fn supported_tail(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&q| n as f64 * (1.0 - q / 100.0) >= 10.0 - 1e-9)
}

/// Self time of a parent span `[start, end)`: its duration minus the part
/// of that interval covered by the union of its children (children may
/// overlap each other or stick out of the parent; only the covered part of
/// the parent counts).
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(p0), e.min(p1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = p0;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (p1 - p0) - covered
}

/// Wall time no span accounts for: `wall` minus the sum of the layers'
/// self times. Spans are disjoint by construction in the traced run, so
/// the layers plus this residual add up to the wall time exactly.
pub fn residual(wall: f64, layer_self_times: &[f64]) -> f64 {
    wall - layer_self_times.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_return_observed_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(99), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(90.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: the whole span is self time.
        assert_eq!(self_time((0, 100), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 30)]), 3);
        // A child covering everything leaves nothing.
        assert_eq!(self_time((5, 9), &[(0, 100)]), 0);
    }

    #[test]
    fn residual_closes_the_layer_sum() {
        let layers = [0.25, 1.5, 0.125];
        let r = residual(2.0, &layers);
        assert_eq!(r, 0.125);
        assert_eq!(layers.iter().sum::<f64>() + r, 2.0);
    }
}
