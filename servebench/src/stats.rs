//! Order statistics with the benchmark's reporting rule.
//!
//! A timing percentile is reported only when at least [`MIN_BEYOND`]
//! samples lie beyond it, so a p99 needs 1000 samples and a p90 needs 100.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Sort a sample vector in place (total order; NaN never occurs here).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile `p` (0–100) of `sorted`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// [`percentile`], or 0 where the sample cannot support it.
pub fn percentile_or_zero(sorted: &[f64], p: f64) -> f64 {
    percentile(sorted, p).unwrap_or(0.0)
}

/// Median of an unsorted sample (mean of the two middle values for an
/// even count); 0 for an empty sample. Used for per-layer figures and for
/// repeated set-up, where the ten-beyond rule does not apply.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
