//! Order statistics over timing samples, and the seed-driven generator the
//! workloads draw their inputs from.

/// Five-number summary of a sample set, plus the count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            n: v.len(),
            min: v[0],
            q1: quantile_sorted(&v, 0.25),
            median: quantile_sorted(&v, 0.5),
            q3: quantile_sorted(&v, 0.75),
            max: v[v.len() - 1],
        })
    }
}

/// Quantile `q` in `[0, 1]` of an ascending slice, by linear interpolation
/// between closest ranks (the "inclusive" method: q = 0 is the minimum,
/// q = 1 the maximum).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(f64::NAN, |s| s.median)
}

/// Nearest-rank percentile `p` in `(0, 100]`: the smallest sample with at
/// least `p` percent of the samples at or below it. With 101 samples the
/// 90th percentile has ten samples beyond it.
pub fn percentile_nearest_rank(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// SplitMix64: the whole input stream of a run is a function of the seed.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The one number a seed contributes to a scalar input: 0 for seed 0 (the
/// nominal configuration), otherwise uniform in `[0, 1)`.
pub fn seed_unit(seed: u64) -> f64 {
    if seed == 0 {
        0.0
    } else {
        SplitMix64::new(seed).next_f64()
    }
}

/// FNV-1a over 64-bit words: the digest reps of one run must agree on.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold the bits of a float.
    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert_eq!((s.q1, s.q3), (2.0, 4.0));
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.median, 2.5);
        assert_eq!((s.q1, s.q3), (1.75, 3.25));
        assert!(Summary::of(&[]).is_none());
        let one = Summary::of(&[7.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_is_order_free() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p90_of_101_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        let p90 = percentile_nearest_rank(&v, 90.0);
        assert_eq!(p90, 91.0);
        assert_eq!(v.iter().filter(|x| **x > p90).count(), 10);
        assert_eq!(percentile_nearest_rank(&v, 50.0), 51.0);
        assert_eq!(percentile_nearest_rank(&v, 100.0), 101.0);
        assert_eq!(percentile_nearest_rank(&[3.0], 90.0), 3.0);
    }

    #[test]
    fn generator_repeats_and_seed_zero_is_nominal() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::new(42);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut g = SplitMix64::new(42);
            (0..4).map(|_| g.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_eq!(seed_unit(0), 0.0);
        let u = seed_unit(7);
        assert!((0.0..1.0).contains(&u) && u != seed_unit(8));
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.f64(1.0);
        b.f64(1.0 + f64::EPSILON);
        assert_ne!(a.finish(), b.finish());
    }
}
