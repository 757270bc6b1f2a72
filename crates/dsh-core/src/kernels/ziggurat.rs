//! The filter families' cap generator: i.i.d. `N(0, 1)` coordinates
//! from a counter-based 256-layer ziggurat (Marsaglia & Tsang, "The
//! Ziggurat Method for Generating Random Variables", JSS 2000).
//!
//! **Counter.** Slot `j` of cap `key` is drawn from the `j`-th SplitMix64
//! output of `key`, `bits = mix64(key + j·γ)` — a counter-based stream
//! as in Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3"
//! (SC 2011) — so no slot waits on another's state and consecutive slots
//! overlap in the pipeline. It also means slot `j` of cap `key` *is* slot
//! 0 of cap `key + j·γ`, so a cap longer than a caller's buffer is filled
//! in pieces ([`cap_chunk_key`]) with the same values.
//!
//! **Fast path.** The low 8 bits of `bits` pick a layer `i`; the top 52
//! become a uniform `u ∈ [-1, 1)` by the exponent trick (`bits >> 12` as
//! the mantissa of a double in `[2, 4)`, minus 3). Then `x = u · X[i]` is
//! accepted when `|x| < X[i + 1]`: one mix, two table reads, one multiply
//! and one compare, taken by `mean_i(X[i + 1] / X[i])` ≈ 98.5 % of slots.
//!
//! **Slow path.** A slot the fast test rejects — a wedge, the base
//! strip's tail beyond `R = X[1] ≈ 3.654`, and every top-layer draw
//! — finishes in `slow`, on a SplitMix64 sub-stream seeded with the
//! slot's own `bits` (a function of `(key, j)`), which also supplies any
//! further attempts. Each slot is therefore one exact ziggurat draw: cap
//! coordinates are i.i.d. `N(0, 1)` up to the tables' rounding.
//!
//! The layer tables are computed from `R` and `V` once per process.

use crate::hash::mix64;
use dsh_math::rng::SplitMix64;
use std::sync::OnceLock;

/// Layers of the ziggurat (the base strip included).
const LAYERS: usize = 256;

/// SplitMix64's increment `γ`: consecutive slots of a cap are `γ` apart
/// on the counter.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// `R`, where the base strip's tail begins (Marsaglia & Tsang's value
/// for 256 layers): only the slow path's tail branch draws `|z| >= R`.
pub const R: f64 = 3.654_152_885_361_009;

/// Area of every layer under `f(x) = exp(-x² / 2)` (Marsaglia & Tsang's
/// value for 256 layers, paired with [`R`]).
const V: f64 = 0.004_928_673_233_99;

/// The layer tables, for `f(x) = exp(-x² / 2)`: bounds `x[0] = V / f(R)`
/// (the base strip's equivalent width, tail included), `x[1] = R` and
/// `x[i + 1] = f⁻¹(f(x[i]) + V / x[i])` down to `x[256] = 0`, and heights
/// `f[i] = f(x[i])` up to `f[256] = 1`.
struct Tables {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
}

/// The process's layer tables, computed on first use.
fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let f = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; LAYERS + 1];
        x[0] = V / f(R);
        x[1] = R;
        for i in 1..LAYERS - 1 {
            x[i + 1] = (-2.0 * (V / x[i] + f(x[i])).ln()).sqrt();
        }
        Tables { x, f: x.map(f) }
    })
}

/// The key whose cap is cap `key` from slot `start` on: fills a long cap
/// in pieces with the values one call would give.
#[inline]
pub fn cap_chunk_key(key: u64, start: usize) -> u64 {
    key.wrapping_add(GAMMA.wrapping_mul(start as u64))
}

/// Fill `out` with slots `0..out.len()` of Gaussian cap `key`: i.i.d.
/// `N(0, 1)` draws, slot `j` the ziggurat draw of `mix64(key + j·γ)`,
/// finished by the slow path when the fast test rejects it. The filter
/// families' caps.
pub fn gaussian_cap(key: u64, out: &mut [f64]) {
    let t = tables();
    for (j, z) in out.iter_mut().enumerate() {
        let bits = slot_bits(key, j);
        let (x, accepted) = fast(t, bits);
        *z = if accepted { x } else { slow(t, bits) };
    }
}

/// The 64 random bits of slot `j` of cap `key`.
#[inline]
fn slot_bits(key: u64, j: usize) -> u64 {
    mix64(cap_chunk_key(key, j))
}

/// The fast-path draw of `bits`: `(x, accepted)`.
#[inline(always)]
fn fast(t: &Tables, bits: u64) -> (f64, bool) {
    let i = (bits & 0xff) as usize;
    let x = uniform_pm1(bits) * t.x[i];
    (x, x.abs() < t.x[i + 1])
}

/// `u ∈ [-1, 1)` from the top 52 bits of `bits` (exponent trick).
#[inline(always)]
fn uniform_pm1(bits: u64) -> f64 {
    f64::from_bits((bits >> 12) | 0x4000_0000_0000_0000) - 3.0
}

/// Finish a slot whose first draw `bits` the fast test rejected: the
/// wedge and tail tests of the ziggurat, with uniforms and further
/// attempts from the sub-stream seeded by `bits`.
#[cold]
fn slow(t: &Tables, bits: u64) -> f64 {
    let mut sub = SplitMix64::new(bits);
    let mut bits = bits;
    loop {
        let (x, accepted) = fast(t, bits);
        if accepted {
            return x;
        }
        let i = (bits & 0xff) as usize;
        if i == 0 {
            return tail(&mut sub, x);
        }
        if t.f[i + 1] + (t.f[i] - t.f[i + 1]) * sub.next_f64() < (-0.5 * x * x).exp() {
            return x;
        }
        bits = sub.next_u64();
    }
}

/// A draw from the normal tail beyond `R` with the sign of `x`
/// (Marsaglia's tail method).
fn tail(sub: &mut SplitMix64, x: f64) -> f64 {
    loop {
        // `1 - U` lies in (0, 1], so both logarithms are finite.
        let a = -(1.0 - sub.next_f64()).ln() / R;
        let b = -(1.0 - sub.next_f64()).ln();
        if 2.0 * b > a * a {
            return (R + a).copysign(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_math::normal;

    /// The tables close the ziggurat: equal-area layers from `R` and `V`
    /// leave a top layer of area `V` to within their rounding.
    #[test]
    fn tables_close_the_ziggurat() {
        let t = tables();
        assert_eq!((t.x[1], t.x[LAYERS], t.f[LAYERS]), (R, 0.0, 1.0));
        assert!(t.x.windows(2).all(|w| w[0] > w[1]), "bounds decrease");
        let top = t.x[LAYERS - 1] * (1.0 - t.f[LAYERS - 1]);
        assert!((top - V).abs() < 1e-11, "top layer area {top}");
    }

    #[test]
    fn gaussian_cap_is_deterministic() {
        let (mut a, mut b) = ([0.0; 37], [0.0; 37]);
        gaussian_cap(3, &mut a);
        gaussian_cap(3, &mut b);
        assert_eq!(a, b);
        gaussian_cap(4, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn a_cap_filled_in_pieces_equals_one_fill() {
        let key = 0x5EED_CA95;
        let mut whole = [0.0; 300];
        gaussian_cap(key, &mut whole);
        let mut pieces = [0.0; 300];
        for start in (0..300).step_by(128) {
            let end = (start + 128).min(300);
            gaussian_cap(cap_chunk_key(key, start), &mut pieces[start..end]);
        }
        assert_eq!(whole, pieces);
    }

    /// Keys × 64 slots = 2^22 draws: the distribution checks below.
    const KEYS: u64 = 1 << 16;
    const SLOTS: usize = 64;

    fn draws() -> impl Iterator<Item = f64> {
        (0..KEYS).flat_map(|k| {
            let mut cap = [0.0; SLOTS];
            gaussian_cap(dsh_math::rng::derive_seed(0x21_66, k), &mut cap);
            cap
        })
    }

    /// `count` successes of `n` Bernoulli(`p`) trials lie within 4
    /// binomial σ of `n p`.
    fn within_4_sigma(what: &str, count: usize, n: usize, p: f64) {
        let (n, count) = (n as f64, count as f64);
        let sigma = (n * p * (1.0 - p)).sqrt();
        assert!(
            (count - n * p).abs() <= 4.0 * sigma,
            "{what}: {:.6} against {p:.6} ({:.1} σ)",
            count / n,
            (count - n * p) / sigma
        );
    }

    /// Moments and tail masses of 2^22 draws from 65 536 keys, each
    /// within 4 σ of `N(0, 1)` (a false alarm once in ~16 000 runs per
    /// check). At this size 4 σ is ±0.0020 on the mean, ±0.0028 on the
    /// variance, ±0.9 % of `P[Z ≥ 1.7]` (the gated workload's `t`),
    /// ±0.4 % of `P[Z ≥ 0.85]` and ±12 % of the two-sided mass beyond
    /// `R` (2.58e-4). So a tail branch that returned nothing beyond `R`
    /// (a 32 σ miss) or a wedge branch that dropped its layers' curved
    /// edges cannot pass; the slow-path count is the next test.
    #[test]
    fn gaussian_cap_moments_and_tails() {
        let n = KEYS as usize * SLOTS;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        let (mut ge_17, mut le_m17, mut ge_085, mut beyond_r) = (0, 0, 0, 0);
        for z in draws() {
            sum += z;
            sum_sq += z * z;
            ge_17 += usize::from(z >= 1.7);
            le_m17 += usize::from(z <= -1.7);
            ge_085 += usize::from(z >= 0.85);
            beyond_r += usize::from(z.abs() >= R);
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        let sd = (1.0 / n as f64).sqrt();
        assert!(mean.abs() <= 4.0 * sd, "mean {mean}");
        assert!(
            (var - 1.0).abs() <= 4.0 * (2.0 / n as f64).sqrt(),
            "var {var}"
        );
        within_4_sigma("P[Z >= 1.7]", ge_17, n, normal::tail(1.7));
        within_4_sigma("P[Z <= -1.7]", le_m17, n, normal::tail(1.7));
        within_4_sigma("P[Z >= 0.85]", ge_085, n, normal::tail(0.85));
        within_4_sigma("P[|Z| >= R]", beyond_r, n, 2.0 * normal::tail(R));
    }

    /// The slow path's share of the same 2^22 slots is `1 - mean_i(X[i +
    /// 1] / X[i])` ≈ 1.49 % (within 4 σ), and both of its branches
    /// are taken: base-strip rejections, which must land beyond `R`, at
    /// their expected share, and wedge draws.
    #[test]
    fn slow_path_share_and_branches() {
        let t = tables();
        let (mut slow_slots, mut tail, mut wedge) = (0, 0, 0);
        for k in 0..KEYS {
            let key = dsh_math::rng::derive_seed(0x21_66, k);
            for j in 0..SLOTS {
                let bits = slot_bits(key, j);
                if fast(t, bits).1 {
                    continue;
                }
                slow_slots += 1;
                if bits & 0xff == 0 {
                    tail += 1;
                    assert!(
                        slow(t, bits).abs() >= R,
                        "a base-strip rejection lands in the tail"
                    );
                } else {
                    wedge += 1;
                }
            }
        }
        let n = KEYS as usize * SLOTS;
        let fast_share = (0..LAYERS).map(|i| t.x[i + 1] / t.x[i]).sum::<f64>() / LAYERS as f64;
        within_4_sigma("slow-path share", slow_slots, n, 1.0 - fast_share);
        // Base-strip rejections: (1 - R / X[0]) / 256 of all slots.
        within_4_sigma("tail share", tail, n, (1.0 - R / t.x[0]) / LAYERS as f64);
        assert!(wedge > 0);
    }
}
