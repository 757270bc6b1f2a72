//! Multiprobe bit-sampling: the §6.3 "list-of-points" step-function CPF.
//!
//! §6.3 observes that any linear-space list-of-points structure (each
//! point stored in exactly **one** bucket; a query probes `L` buckets)
//! induces a DSH family: `h(x)` = the storage bucket, `g(y)` = one of the
//! `L` probe buckets chosen uniformly. If the structure finds `r`-near
//! neighbors with constant probability, the induced CPF is `Theta(1/L)`
//! flat over `[0, r]` — optimal output sensitivity for range reporting.
//!
//! The concrete instantiation here is multiprobe bit-sampling: `h(x)` is a
//! `k`-bit sampled signature; the probe sequence of `g` enumerates all
//! signatures within Hamming weight `w` of `g`'s own signature. With all
//! `L = sum_{i<=w} C(k, i)` probes included, the CPF in relative distance
//! `t` is the binomial CDF scaled by `1/L`:
//!
//! ```text
//! f(t) = (1/L) * sum_{i=0}^{w} C(k, i) t^i (1 - t)^{k-i}
//! ```
//!
//! — flat near `t = 0` (where the CDF is ~1) and collapsing once
//! `t >> w/k`: a step function realized by a *data-independent, linear
//! space* scheme.

use dsh_core::cpf::AnalyticCpf;
use dsh_core::family::{DshFamily, HasherPair};
use dsh_core::points::get_bit;
use dsh_math::special::binomial;
use rand::Rng;

/// Multiprobe bit-sampling family with signature width `k` and probe
/// radius `w`.
#[derive(Debug, Clone, Copy)]
pub struct MultiProbeBitSampling {
    d: usize,
    k: usize,
    w: usize,
}

impl MultiProbeBitSampling {
    /// Family over `{0,1}^d`; `k <= 24` signature bits, probe radius
    /// `w <= k`.
    pub fn new(d: usize, k: usize, w: usize) -> Self {
        assert!(d > 0);
        assert!((1..=24).contains(&k), "signature width must be in 1..=24");
        assert!(w <= k, "probe radius cannot exceed the signature width");
        MultiProbeBitSampling { d, k, w }
    }

    /// Number of probe buckets `L = sum_{i<=w} C(k, i)`.
    fn probe_count(&self) -> u64 {
        (0..=self.w)
            .map(|i| binomial(self.k as u64, i as u64) as u64)
            .sum()
    }

    /// The flatness ratio `f(0) / f(t)` of the step (both ends of the
    /// Theorem 6.5 overhead factor).
    pub fn flatness(&self, t: f64) -> f64 {
        self.cpf(0.0) / self.cpf(t)
    }
}

/// Unrank the `rank`-th mask among `k`-bit masks ordered by (weight,
/// lexicographic-combination) — the probe sequence.
fn unrank_mask(k: usize, mut rank: u64) -> u64 {
    let mut weight = 0usize;
    loop {
        let count = binomial(k as u64, weight as u64) as u64;
        if rank < count {
            break;
        }
        rank -= count;
        weight += 1;
        assert!(weight <= k, "rank out of range");
    }
    // Unrank the `rank`-th weight-`weight` subset of {0, ..., k-1} in
    // colexicographic order.
    let mut mask = 0u64;
    let mut remaining = weight;
    let mut r = rank;
    let mut pos = k;
    while remaining > 0 {
        pos -= 1;
        let c = binomial(pos as u64, remaining as u64) as u64;
        if r >= c {
            mask |= 1 << pos;
            r -= c;
            remaining -= 1;
        }
    }
    mask
}

impl DshFamily<[u64]> for MultiProbeBitSampling {
    fn sample(&self, rng: &mut dyn Rng) -> HasherPair<[u64]> {
        let coords: Vec<usize> = (0..self.k).map(|_| rng.random_range(0..self.d)).collect();
        let l = self.probe_count();
        let probe_rank = rng.random_range(0..l);
        let probe_mask = unrank_mask(self.k, probe_rank);
        let coords2 = coords.clone();
        let signature = move |x: &[u64], coords: &[usize]| -> u64 {
            coords
                .iter()
                .enumerate()
                .fold(0u64, |acc, (j, &c)| acc | ((get_bit(x, c) as u64) << j))
        };
        let sig1 = signature;
        HasherPair::from_fns(
            move |x: &[u64]| sig1(x, &coords),
            move |y: &[u64]| signature(y, &coords2) ^ probe_mask,
        )
    }

    fn name(&self) -> String {
        format!(
            "MultiProbeBitSampling(k={}, w={}, L={})",
            self.k,
            self.w,
            self.probe_count()
        )
    }
}

impl AnalyticCpf for MultiProbeBitSampling {
    /// `arg` is the relative Hamming distance `t in [0, 1]`.
    fn cpf(&self, t: f64) -> f64 {
        assert!((0.0..=1.0).contains(&t));
        let l = self.probe_count() as f64;
        let mut sum = 0.0;
        for i in 0..=self.w {
            sum += binomial(self.k as u64, i as u64)
                * t.powi(i as i32)
                * (1.0 - t).powi((self.k - i) as i32);
        }
        sum / l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_core::estimate::CpfEstimator;
    use dsh_core::points::BitVector;
    use dsh_math::rng::seeded;

    #[test]
    fn unrank_enumerates_all_masks_once() {
        let k = 5;
        let total: u64 = (0..=k as u64).map(|i| binomial(k as u64, i) as u64).sum();
        assert_eq!(total, 32);
        let mut seen: Vec<u64> = (0..total).map(|r| unrank_mask(k, r)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 32, "every mask exactly once");
        // Weight-ordered: first mask is 0, next k have weight 1.
        assert_eq!(unrank_mask(k, 0), 0);
        for r in 1..=k as u64 {
            assert_eq!(unrank_mask(k, r).count_ones(), 1);
        }
    }

    #[test]
    fn probe_count_formula() {
        let fam = MultiProbeBitSampling::new(64, 10, 2);
        assert_eq!(fam.probe_count(), 1 + 10 + 45);
    }

    #[test]
    fn cpf_matches_monte_carlo() {
        let d = 200;
        let fam = MultiProbeBitSampling::new(d, 8, 2);
        let mut rng = seeded(0x3B1);
        let x = BitVector::random(&mut rng, d);
        for &kdist in &[0usize, 20, 60, 120] {
            let mut y = x.clone();
            for i in 0..kdist {
                y.flip(i);
            }
            let t = kdist as f64 / d as f64;
            let est = CpfEstimator::new(60_000, 0x3B2 + kdist as u64).estimate_pair(&fam, &x, &y);
            assert!(
                est.contains(fam.cpf(t)),
                "t={t}: want {}, got {} [{}, {}]",
                fam.cpf(t),
                est.estimate,
                est.lo,
                est.hi
            );
        }
    }

    #[test]
    fn cpf_is_a_step_function() {
        // Flat (ratio < 1.6) over [0, 0.05], sharp decay by t = 0.5.
        let fam = MultiProbeBitSampling::new(256, 16, 4);
        assert!(fam.flatness(0.05) < 1.6, "flatness {}", fam.flatness(0.05));
        assert!(
            fam.cpf(0.05) / fam.cpf(0.5) > 20.0,
            "decay only {}",
            fam.cpf(0.05) / fam.cpf(0.5)
        );
        // f(0) = 1/L exactly (only the zero-mask probe matches).
        assert!((fam.cpf(0.0) - 1.0 / fam.probe_count() as f64).abs() < 1e-15);
    }

    #[test]
    fn wider_probe_radius_flattens_further() {
        let narrow = MultiProbeBitSampling::new(256, 16, 1);
        let wide = MultiProbeBitSampling::new(256, 16, 6);
        assert!(wide.flatness(0.1) < narrow.flatness(0.1));
    }

    #[test]
    fn full_radius_is_always_collide_up_to_scaling() {
        // w = k: CDF = 1 identically, so f(t) = 1/2^k for every t.
        let fam = MultiProbeBitSampling::new(64, 6, 6);
        for &t in &[0.0, 0.3, 0.7, 1.0] {
            assert!((fam.cpf(t) - 1.0 / 64.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "probe radius cannot exceed")]
    fn invalid_radius_rejected() {
        let _ = MultiProbeBitSampling::new(10, 4, 5);
    }
}

// Property-style tests over exhaustive/gridded parameter sweeps. These
// replace `proptest!` blocks: the crate is built offline and proptest is
// not in the dependency set; the parameter spaces below are small enough
// to sweep outright.
#[cfg(test)]
mod proptests {
    use super::*;

    #[test]
    fn unrank_is_injective_and_weight_ordered() {
        for k in 1usize..12 {
            let total: u64 = (0..=k as u64).map(|i| binomial(k as u64, i) as u64).sum();
            let masks: Vec<u64> = (0..total).map(|r| unrank_mask(k, r)).collect();
            // Injective.
            let mut sorted = masks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len() as u64, total, "k={k}");
            // Weight-monotone along the rank order.
            for w in masks.windows(2) {
                assert!(w[0].count_ones() <= w[1].count_ones(), "k={k}");
            }
            // All masks fit in k bits.
            assert!(masks.iter().all(|m| m >> k == 0), "k={k}");
        }
    }

    #[test]
    fn cpf_is_a_probability_and_decreasing_for_small_w() {
        for k in 2usize..16 {
            for i in 0..=100 {
                let t = i as f64 / 100.0;
                let fam = MultiProbeBitSampling::new(64, k, 1);
                let f = fam.cpf(t);
                assert!((0.0..=1.0).contains(&f), "k={k} t={t}: f={f}");
                // Binomial CDF at fixed w decreases in t.
                assert!(fam.cpf(t) <= fam.cpf(t * 0.5) + 1e-12, "k={k} t={t}");
            }
        }
    }
}
