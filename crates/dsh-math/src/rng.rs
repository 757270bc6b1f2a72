//! Seeded RNG construction helpers.
//!
//! Everything in the workspace is deterministic given a seed: constructions
//! sample hash functions from an explicit RNG, and experiments derive
//! per-repetition RNGs from a master seed so that results are reproducible
//! run-to-run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Create a deterministic RNG from a 64-bit seed.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derive a child seed from a master seed and a stream index using
/// SplitMix64 — so experiment repetitions get independent, reproducible
/// streams.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Create the `stream`-th child RNG of a master seed.
pub fn child(master: u64, stream: u64) -> StdRng {
    seeded(derive_seed(master, stream))
}

/// Sample a uniform f64 in `[0, w)`.
pub fn uniform(rng: &mut dyn Rng, w: f64) -> f64 {
    assert!(w > 0.0);
    rng.random::<f64>() * w
}

/// Draw a uniformly random index in `[0, n)` from a dynamically typed RNG.
pub fn index(rng: &mut dyn Rng, n: usize) -> usize {
    assert!(n > 0);
    rng.random_range(0..n)
}

/// A minimal SplitMix64 generator for *hot inner loops* that re-derive a
/// stream per item (e.g. the sub-stream of a Gaussian cap slot that
/// leaves the ziggurat's fast path). `StdRng`
/// (ChaCha12) costs a full key setup per instantiation; SplitMix64 is a
/// three-multiply state transition. Statistical quality is ample for
/// Monte-Carlo geometry (it passes BigCrush as a 64-bit mixer), and it is
/// NOT used where cryptographic-grade randomness could matter.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed the stream.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` (53 bits of precision).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(123);
        let mut b = seeded(123);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded(1);
        let mut b = seeded(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    // Every experiment binary and integration test keys its
    // reproducibility off `seeded`, so pin the contract down hard: same
    // seed ⇒ identical streams through every sampling surface; different
    // seeds ⇒ streams that actually diverge.
    #[test]
    fn seeded_streams_identical_across_all_sampling_surfaces() {
        let mut a = seeded(0xD5E_u64);
        let mut b = seeded(0xD5E_u64);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
            assert_eq!(a.random::<f64>(), b.random::<f64>());
            assert_eq!(a.random_range(0..1000usize), b.random_range(0..1000usize));
            assert_eq!(a.random_bool(0.3), b.random_bool(0.3));
        }
    }

    #[test]
    fn different_seeds_produce_disjoint_long_streams() {
        let stream = |seed: u64| -> Vec<u64> {
            let mut rng = seeded(seed);
            (0..64).map(|_| rng.next_u64()).collect()
        };
        let seeds = [0u64, 1, 2, u64::MAX, 0xDEAD_BEEF];
        let streams: Vec<Vec<u64>> = seeds.iter().map(|&s| stream(s)).collect();
        for i in 0..streams.len() {
            for j in (i + 1)..streams.len() {
                assert_ne!(
                    streams[i], streams[j],
                    "seeds {} and {} collide",
                    seeds[i], seeds[j]
                );
            }
        }
        // And re-derivation reproduces each stream exactly.
        for (&s, st) in seeds.iter().zip(&streams) {
            assert_eq!(&stream(s), st);
        }
    }

    #[test]
    fn child_streams_are_independent_and_reproducible() {
        // Children of the same master at different stream indices differ...
        let take =
            |mut r: rand::rngs::StdRng| -> Vec<u64> { (0..32).map(|_| r.next_u64()).collect() };
        let c0 = take(child(42, 0));
        let c1 = take(child(42, 1));
        assert_ne!(c0, c1);
        // ...none of them equals the master's own stream...
        let master = take(seeded(42));
        assert_ne!(c0, master);
        assert_ne!(c1, master);
        // ...and each child is reproducible.
        assert_eq!(take(child(42, 0)), c0);
        assert_eq!(take(child(42, 1)), c1);
    }

    #[test]
    fn derive_seed_spreads_streams() {
        let s: Vec<u64> = (0..100).map(|i| derive_seed(42, i)).collect();
        let mut uniq = s.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 100);
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = seeded(7);
        for _ in 0..1000 {
            let x = uniform(&mut rng, 3.5);
            assert!((0.0..3.5).contains(&x));
        }
    }

    #[test]
    fn splitmix_uniform_f64_in_range() {
        let mut s = SplitMix64::new(5);
        let mut sum = 0.0;
        for _ in 0..100_000 {
            let x = s.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / 100_000.0 - 0.5).abs() < 0.005);
    }

    #[test]
    fn index_in_range() {
        let mut rng = seeded(9);
        let mut seen = [false; 7];
        for _ in 0..500 {
            let i = index(&mut rng, 7);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all indices should be hit");
    }
}
