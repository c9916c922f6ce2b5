//! Order statistics and the least-squares line the harness reports.

/// Sorted copy of `xs`.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; 0 on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs` (mean of the two middle samples on an even count).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 on an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The highest of p99.9 / p99 / p95 / p90 / p75 that still has at least
/// ten samples beyond it, or `None` when even p75 does not (fewer than
/// 40 samples): a tail read off fewer than ten samples is noise.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Per mille, so that 10 000 samples × 0.1 % is exactly 10.
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10 * 1000)
        .map(|pm| pm as f64 / 10.0)
}

/// Value at [`tail_percentile`], falling back to the median when the
/// sample is too small to have a tail.
pub fn tail(xs: &[f64]) -> f64 {
    match tail_percentile(xs.len()) {
        Some(p) => percentile(xs, p),
        None => median(xs),
    }
}

/// `trace.overhead_pct` of a pass that recorded every other operation:
/// the median recorded operation against the median unrecorded one.
pub fn overhead_pct(recorded_ms: &[f64], unrecorded_ms: &[f64]) -> f64 {
    100.0 * (median(recorded_ms) / median(unrecorded_ms) - 1.0)
}

/// Least-squares line `y = intercept + slope·x` with its coefficient of
/// determination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    pub intercept: f64,
    pub slope: f64,
    pub r2: f64,
}

/// Least squares over `(x, y)` points, each weighted by `1 / y²`: the
/// fit minimises *relative* error. The cost-model sweep spans three
/// decades of `x`; an unweighted fit would let the largest messages set
/// the slope and leave the intercept `C` — the number asked for — to
/// absorb their residuals (it came out negative). Needs two distinct
/// `x` and non-zero `y`; returns a zero fit otherwise.
pub fn relative_fit(points: &[(f64, f64)]) -> Fit {
    const ZERO: Fit = Fit {
        intercept: 0.0,
        slope: 0.0,
        r2: 0.0,
    };
    if points.len() < 2 || points.iter().any(|p| p.1 == 0.0) {
        return ZERO;
    }
    let w = |p: &(f64, f64)| 1.0 / (p.1 * p.1);
    let sw: f64 = points.iter().map(w).sum();
    let mx = points.iter().map(|p| w(p) * p.0).sum::<f64>() / sw;
    let my = points.iter().map(|p| w(p) * p.1).sum::<f64>() / sw;
    let sxx: f64 = points.iter().map(|p| w(p) * (p.0 - mx).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| w(p) * (p.0 - mx) * (p.1 - my)).sum();
    let syy: f64 = points.iter().map(|p| w(p) * (p.1 - my).powi(2)).sum();
    if sxx == 0.0 {
        return ZERO;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_res: f64 = points
        .iter()
        .map(|p| w(p) * (p.1 - intercept - slope * p.0).powi(2))
        .sum();
    Fit {
        intercept,
        slope,
        r2: if syy == 0.0 { 1.0 } else { 1.0 - ss_res / syy },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_pick_the_expected_ranks() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.5);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(12), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(1_200), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn fit_recovers_a_synthetic_line() {
        let pts: Vec<(f64, f64)> = [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0]
            .iter()
            .map(|&x| (x, 7.5 + 0.25 * x))
            .collect();
        let f = relative_fit(&pts);
        assert!((f.intercept - 7.5).abs() < 1e-9);
        assert!((f.slope - 0.25).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fit_keeps_the_intercept_when_the_largest_point_is_off() {
        // 1024 values cost 10 % more than the line says (cache misses):
        // the intercept must stay near 7.5, not go negative.
        let mut pts: Vec<(f64, f64)> = [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0]
            .iter()
            .map(|&x| (x, 7.5 + 0.25 * x))
            .collect();
        pts[5].1 *= 1.1;
        let f = relative_fit(&pts);
        assert!((f.intercept - 7.5).abs() < 0.5, "{f:?}");
        assert!(f.r2 > 0.9 && f.r2 < 1.0);
    }

    #[test]
    fn fit_is_zero_on_degenerate_input() {
        assert_eq!(relative_fit(&[(1.0, 5.0)]).slope, 0.0);
        assert_eq!(relative_fit(&[(1.0, 5.0), (1.0, 6.0)]).slope, 0.0);
        assert_eq!(relative_fit(&[(1.0, 0.0), (2.0, 6.0)]).slope, 0.0);
    }
}
