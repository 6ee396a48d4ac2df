//! Seeded input derivation: every random choice a workload makes comes
//! from one of these, so the same `--seed` gives the same inputs.

/// SplitMix64: one multiply-xorshift chain per draw, any seed is fine.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` is drawn with weight `1/(k+1)^s`.
/// Inverse-CDF lookup over the precomputed cumulative weights.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            let z = Zipf::new(64, 1.0);
            (0..200).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let mut r = Rng::new(1);
        let z = Zipf::new(64, 1.0);
        let mut hist = [0u32; 64];
        for _ in 0..20_000 {
            hist[z.sample(&mut r)] += 1;
        }
        // Rank 0 carries 1/H(64) = 21 % of the mass, rank 63 carries 0.33 %.
        assert!(hist[0] > 3_500 && hist[0] < 5_000, "{}", hist[0]);
        assert!(hist[0] > hist[1] && hist[1] > hist[7] && hist[7] > hist[63]);
        assert!(hist[63] > 0);
    }
}
