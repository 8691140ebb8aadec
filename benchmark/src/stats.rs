//! Small statistics helpers shared by every workload: nearest-rank
//! percentiles, medians, geometric means and a seeded generator.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// element with at least `q` of the mass at or below it. `0.0` for an
/// empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sort a sample ascending (total order, so NaN cannot panic the sort).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample (nearest-rank, like [`percentile`]).
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Geometric mean of positive values (`0.0` for an empty sample).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// `num / den`, or `0.0` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: the benchmark's only source of seeded randomness, so the
/// same `--seed` always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// Uniform in `(0, 1]`, never zero so `ln` stays finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// A seed derived from `seed` for stream `stream`, so each input family
/// draws from its own independent sequence.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sort oracle for the nearest-rank definition: the smallest value
    /// `x` in the sample such that at least `q·n` samples are `<= x`.
    fn oracle(sample: &[f64], q: f64) -> f64 {
        let n = sample.len() as f64;
        let mut s = sample.to_vec();
        s.sort_by(f64::total_cmp);
        *s.iter()
            .find(|&&x| s.iter().filter(|&&y| y <= x).count() as f64 >= (q * n).max(1.0))
            .expect("non-empty")
    }

    #[test]
    fn percentile_matches_the_sort_oracle() {
        let mut rng = Rng::new(7);
        for len in 1..60 {
            // Coarse values force ties, the case nearest-rank must get right.
            let sample: Vec<f64> = (0..len).map(|_| rng.below(20) as f64).collect();
            let s = sorted(sample.clone());
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
                assert_eq!(percentile(&s, q), oracle(&sample, q), "len {len} q {q}");
            }
        }
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn rng_is_deterministic_and_unit_is_positive() {
        let (mut a, mut b) = (Rng::new(3), Rng::new(3));
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
            let u = a.unit();
            b.unit();
            assert!(u > 0.0 && u <= 1.0);
        }
        assert_ne!(derive(1, 1), derive(1, 2));
    }
}
