//! Order statistics, seed mixing and the JSON number/string helpers the
//! report writer shares.

use pandora_metrics::Histogram;

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: a median of nothing is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Lower quartile of `values`, interpolated as Python's
/// `statistics.quantiles(values, n=4)[0]` does for three or more
/// samples; fewer give the smallest.
///
/// # Panics
///
/// Panics on an empty slice, like [`median`].
pub fn lower_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (v.len() + 1) as f64 / 4.0;
    let i = (pos.floor() as usize).clamp(1, v.len());
    let frac = (pos - i as f64).max(0.0);
    let lo = v[i - 1];
    lo + (v[i.min(v.len() - 1)] - lo) * frac
}

/// Percentiles tried, highest first, when picking a distribution's tail.
const TAIL_LADDER: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// Median and tail of a latency distribution, with the sample count the
/// tail rests on.
#[derive(Debug, Clone, Copy)]
pub struct Quantiles {
    pub samples: usize,
    pub p50: f64,
    /// The highest percentile with at least ten samples beyond it, or
    /// `None` when there are too few samples for any ladder rung.
    pub tail: Option<(f64, f64)>,
}

/// Highest ladder percentile that leaves at least ten samples above it.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0)
}

/// Median and tail of a histogram; `None` when it holds no samples.
pub fn quantiles(h: &mut Histogram) -> Option<Quantiles> {
    if h.is_empty() {
        return None;
    }
    let samples = h.count();
    let p50 = h.percentile(50.0);
    let tail = tail_percentile(samples).map(|p| (p, h.percentile(p)));
    Some(Quantiles { samples, p50, tail })
}

/// SplitMix64 finaliser: derives independent sub-seeds (star, hop,
/// churn, plan) from the one `--seed`, so nearby seeds give unrelated
/// inputs.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Xorshift64 step for the churn schedule.
pub fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// FNV-1a over `bytes`: equal inputs, equal digests.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A JSON number: full shortest round-trip digits, `null` when not finite.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn lower_quartile_matches_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8], n=4)[0] == 2.25
        assert_eq!(
            lower_quartile(&[8.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
            2.25
        );
        assert_eq!(lower_quartile(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(lower_quartile(&[5.0]), 5.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(39), None);
    }

    #[test]
    fn mixed_seeds_differ() {
        assert_ne!(mix(2, 0), mix(3, 0));
        assert_ne!(mix(2, 0), mix(2, 1));
        assert_eq!(mix(7, 1), mix(7, 1));
    }
}
