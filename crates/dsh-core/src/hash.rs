//! 64-bit hash-value plumbing.
//!
//! Every [`crate::family::PointHasher`] emits a `u64`. Composite hashers
//! (concatenation, mixtures) fold several values into one with a strong
//! 64-bit mixer; the induced spurious collision probability is `2^-64`,
//! which is negligible against the `>= 1e-7` resolution of any Monte-Carlo
//! CPF estimate and against every collision probability the paper works
//! with.

/// SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fold `value` into an accumulator (order-sensitive, like a tiny
/// Merkle–Damgård chain over mix64).
#[inline]
pub fn combine(acc: u64, value: u64) -> u64 {
    mix64(acc.rotate_left(23) ^ value.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Where [`combine_iter`] starts its chain (pi digits, arbitrary nonzero).
pub const CHAIN_IV: u64 = 0x243F_6A88_85A3_08D3;

/// Hash a slice of 64-bit hash values into one.
pub fn combine_all(values: &[u64]) -> u64 {
    combine_iter(values.iter().copied())
}

/// [`combine_all`] over an iterator: identical fold (same IV, same
/// order-sensitive chain) without materializing a slice. `Concat` and
/// `Power` hash with this chain ([`crate::family::HasherPair::chain`]
/// from [`CHAIN_IV`]), folding part by part instead of building a `Vec`
/// of `k` words per point per table.
pub fn combine_iter(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut acc = CHAIN_IV;
    for v in values {
        acc = combine(acc, v);
    }
    acc
}

/// Truncate a 64-bit hash to `bits` bits (used by the privacy protocol to
/// model `O(log t)`-bit digests).
#[inline]
pub fn truncate(h: u64, bits: u32) -> u64 {
    assert!((1..=64).contains(&bits));
    if bits == 64 {
        h
    } else {
        h & ((1u64 << bits) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_injective_on_sample() {
        let mut outs: Vec<u64> = (0..10_000u64).map(mix64).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn mix64_avalanche() {
        // Flipping one input bit flips roughly half the output bits.
        let mut total = 0u32;
        let n = 1000;
        for i in 0..n {
            let a = mix64(i);
            let b = mix64(i ^ 1);
            total += (a ^ b).count_ones();
        }
        let avg = total as f64 / n as f64;
        assert!((avg - 32.0).abs() < 2.0, "avalanche avg {avg}");
    }

    #[test]
    fn combine_is_order_sensitive() {
        let ab = combine(combine(0, 1), 2);
        let ba = combine(combine(0, 2), 1);
        assert_ne!(ab, ba);
    }

    #[test]
    fn combine_all_matches_fold() {
        let vs = [7u64, 13, 42, 0, u64::MAX];
        let mut acc = 0x243F_6A88_85A3_08D3;
        for &v in &vs {
            acc = combine(acc, v);
        }
        assert_eq!(combine_all(&vs), acc);
    }

    #[test]
    fn combine_all_distinguishes_lengths() {
        assert_ne!(combine_all(&[]), combine_all(&[0]));
        assert_ne!(combine_all(&[0]), combine_all(&[0, 0]));
    }

    #[test]
    fn truncate_masks() {
        assert_eq!(truncate(0xFFFF_FFFF_FFFF_FFFF, 8), 0xFF);
        assert_eq!(truncate(0x1234, 64), 0x1234);
        assert_eq!(truncate(0b1011, 2), 0b11);
    }

    #[test]
    #[should_panic]
    fn truncate_zero_bits_panics() {
        let _ = truncate(1, 0);
    }
}
