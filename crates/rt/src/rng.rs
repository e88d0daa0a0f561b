//! Seedable deterministic PRNG: SplitMix64 seed expansion feeding a
//! xoshiro256++ stream.
//!
//! Both algorithms are public-domain reference designs (Vigna /
//! Blackman). They are implemented here rather than pulled from crates.io
//! so that (a) the workspace builds with zero registry access and (b) the
//! exact stream is owned by this repo and pinned by golden-value tests —
//! the metastability ablations of the paper reproduction must replay
//! bit-identically per seed on every platform and across every future PR.

/// SplitMix64 step: the standard seed-expansion generator.
///
/// Used to derive the four xoshiro256++ state words from a single `u64`
/// seed (the construction recommended by the xoshiro authors), and
/// exposed for deriving independent child seeds from a parent seed.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A xoshiro256++ generator. Deterministic per seed; `Clone` gives an
/// identical, independent continuation of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the generator by expanding `seed` through SplitMix64.
    pub fn from_seed(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.s = [s0, s1, s2, s3];
        result
    }

    /// The next `u32` (upper bits of the stream, which are the
    /// highest-quality ones).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi, "empty f64 range");
        lo + self.next_f64() * (hi - lo)
    }

    /// Uniform `u64` in `[0, n)` via the widening-multiply reduction
    /// (Lemire). One stream draw per call — the mapping is fixed and
    /// golden-pinned, so never "improve" it to a rejection loop.
    #[inline]
    pub fn u64_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "u64_below(0)");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform `u64` in `[lo, hi)`.
    #[inline]
    pub fn u64_range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi, "empty u64 range");
        lo + self.u64_below(hi - lo)
    }

    /// Uniform `usize` in `[0, n)`.
    #[inline]
    pub fn usize_below(&mut self, n: usize) -> usize {
        self.u64_below(n as u64) as usize
    }

    /// A fair coin.
    #[inline]
    pub fn bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// An exponential sample with mean `tau` (inverse-CDF method on a
    /// uniform clamped away from 0 so the tail stays finite).
    #[inline]
    pub fn exponential(&mut self, tau: f64) -> f64 {
        let u = self.f64_range(1e-12, 1.0);
        -u.ln() * tau
    }

    /// A fresh generator seeded from this one's stream (for spawning
    /// independent deterministic substreams).
    pub fn fork(&mut self) -> Rng {
        Rng::from_seed(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published SplitMix64 reference vectors (seed 0), as used by the
    /// Java `SplittableRandom` test suite.
    #[test]
    fn splitmix64_reference_vectors() {
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
        assert_eq!(splitmix64(&mut s), 0xF88B_B8A8_724C_81EC);
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::from_seed(42);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::from_seed(42);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::from_seed(43);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut r = Rng::from_seed(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn u64_below_is_in_range_and_covers() {
        let mut r = Rng::from_seed(11);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let x = r.u64_below(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "all residues reached");
    }

    #[test]
    fn exponential_has_right_mean() {
        let mut r = Rng::from_seed(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn clone_continues_identically() {
        let mut a = Rng::from_seed(99);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut b = a.clone();
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }
}
