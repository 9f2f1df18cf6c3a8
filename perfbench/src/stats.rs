//! Order statistics for timing samples.

/// Median of `xs` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics when `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile by the same rule as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so figures printed here match the ones an analysis script
/// computes from the same samples. A single sample is its own quartiles.
///
/// # Panics
///
/// Panics when `xs` is empty.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n == 1 {
        return [s[0]; 3];
    }
    let m = (n + 1) as i64;
    let mut out = [0.0; 3];
    for (i, q) in (1i64..).zip(out.iter_mut()) {
        // Python clamps the rank first and then interpolates (or, at the
        // ends, extrapolates) with a signed remainder.
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - 4 * j) as f64;
        let j = j as usize;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// The highest percentile of a sample set that still has at least
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (nearest-rank); 100 when there are too few samples
    /// for any percentile to have [`TAIL_BEYOND`] beyond it.
    pub pct: u32,
    /// The sample at that percentile (the maximum when `pct` is 100).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Samples a tail percentile must have beyond it to be reported as one.
pub const TAIL_BEYOND: usize = 10;

/// The highest nearest-rank percentile `p` of `xs` whose rank leaves at
/// least [`TAIL_BEYOND`] samples beyond it: `p = ⌊100 (n − 10) / n⌋`.
/// With 10 samples or fewer no percentile qualifies, and the maximum is
/// reported with `pct = 100` and `beyond = 0`.
///
/// # Panics
///
/// Panics when `xs` is empty.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return Tail {
            pct: 100,
            value: s[n - 1],
            n,
            beyond: 0,
        };
    }
    let pct = (100 * (n - TAIL_BEYOND) / n) as u32;
    // Nearest rank: the smallest rank r with r / n >= pct / 100.
    let rank = (pct as usize * n).div_ceil(100).max(1);
    Tail {
        pct,
        value: s[rank - 1],
        n,
        beyond: n - rank,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.n, t.beyond), (90, 90.0, 100, 10));

        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.beyond), (75, 30.0, 10));

        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.beyond), (9, 1.0, 10));
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let t = tail(&[2.0, 9.0, 4.0]);
        assert_eq!((t.pct, t.value, t.n, t.beyond), (100, 9.0, 3, 0));
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs).value, 10.0);
    }
}
