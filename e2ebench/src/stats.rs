//! Order statistics with their support.

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise it would be set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The requested quantile in `(0, 1)`.
    pub q: f64,
    /// The sample at nearest rank `ceil(q·n)`.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// The nearest-rank `q` percentile of `samples`, refused (with the
/// reason) when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<Percentile, String> {
    let n = samples.len();
    if !(q > 0.0 && q < 1.0) {
        return Err(format!("quantile {q} outside (0, 1)"));
    }
    // The epsilon keeps q·n that lands a rounding error above an integer
    // on that integer's rank.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile { q, value: sorted[rank - 1], samples: n, beyond })
}

/// The highest percentile at or below `max_q` that [`percentile`]
/// accepts for `samples.len()` samples.
pub fn highest_supported(samples: &[f64], max_q: f64) -> Result<Percentile, String> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return Err(format!("{n} samples support no percentile"));
    }
    let q = max_q.min((n - MIN_BEYOND) as f64 / n as f64);
    percentile(samples, q)
}

/// Plain median (mean of the middle pair for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is not positive.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// SplitMix64: deterministic seeded draws without shared RNG state.
pub const fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
