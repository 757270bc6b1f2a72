//! The min-wise-hashing transform of filter maps into asymmetric LSH
//! (paper §1.2, citing [21, Theorem 1.4]).
//!
//! A locality-sensitive *map* sends `x` to a pair of sets
//! `(H(x), G(x))` — here the caps containing `x` and the caps containing
//! `-x` — and looks for set intersections. Min-wise hashing converts the
//! map into an ordinary DSH pair: assign every cap a random priority and
//! let `h(x)` = the minimum-priority cap of `H(x)`, `g(y)` = the
//! minimum-priority cap of `G(y)`.
//!
//! Because the priority order is uniformly random, the minimum-priority
//! element of `H(x) ∪ G(y)` is equally likely to be any member, so
//!
//! ```text
//! Pr[h = g] = (1 - (1-p_or)^m) * p_and / p_or
//! ```
//!
//! — *identical* to the first-index filter family's CPF (Appendix A.1).
//! The difference is operational: the first-index evaluation stops at the
//! first hit (expected `O(1/Pr[Z >= t])` caps), while min-wise hashing
//! must scan all `m` caps. The two families are each other's ablation:
//! the tests below confirm the CPFs coincide, and the first-index
//! family's evaluation cost is the `filter_eval_t*` rows of
//! `bench-report`.

use crate::filter::suggested_filter_count;
use crate::geometry::GaussianMatrix;
use dsh_core::cpf::AnalyticCpf;
use dsh_core::family::{DshFamily, HasherPair, PointHasher};
use dsh_core::hash::mix64;
use dsh_core::points;
use dsh_math::{bivariate, normal};
use rand::Rng;
use std::sync::Arc;

/// Anti-LSH filter family realized through min-wise hashing instead of
/// first-index selection. CPF equals [`crate::filter::FilterDshMinus`].
#[derive(Debug, Clone, Copy)]
pub struct FilterMinHashDsh {
    d: usize,
    t: f64,
    m: usize,
}

struct MinHasher {
    /// All `m` caps, materialized as one flat matrix: unlike the
    /// first-index filter hasher (which stops at the first hit and
    /// therefore generates caps lazily), min-wise hashing always scans
    /// every cap, so the contiguous rows are pure win. Row `i` is the
    /// Gaussian cap the lazy hasher generates for cap `i`.
    caps: Arc<GaussianMatrix>,
    seed: u64,
    t: f64,
    negate: bool,
    sentinel: u64,
}

impl PointHasher<[f64]> for MinHasher {
    fn hash(&self, xs: &[f64]) -> u64 {
        let m = self.caps.rows();
        let mut best: Option<(u64, u64)> = None; // (priority, index)
        for i in 0..m {
            let dot = points::dot(self.caps.row(i), xs);
            let hit = if self.negate {
                dot <= -self.t
            } else {
                dot >= self.t
            };
            if hit {
                let priority = mix64(self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
                if best.is_none_or(|(bp, _)| priority < bp) {
                    best = Some((priority, i as u64));
                }
            }
        }
        match best {
            Some((_, i)) => i,
            None => m as u64 + self.sentinel,
        }
    }
}

impl FilterMinHashDsh {
    /// Family over `S^{d-1}` with threshold `t` and the Lemma A.5 filter
    /// count. Note the `O(m d)` evaluation cost — prefer
    /// [`crate::filter::FilterDshMinus`] unless you need the set view.
    pub fn new(d: usize, t: f64) -> Self {
        Self::with_filter_count(d, t, suggested_filter_count(t))
    }

    /// Explicit filter count.
    pub fn with_filter_count(d: usize, t: f64, m: usize) -> Self {
        assert!(d > 0 && t > 0.0 && m > 0);
        FilterMinHashDsh { d, t, m }
    }

    /// Number of caps.
    pub fn filter_count(&self) -> usize {
        self.m
    }

    /// Dimension of the sphere's ambient space.
    pub fn dim(&self) -> usize {
        self.d
    }
}

impl DshFamily<[f64]> for FilterMinHashDsh {
    fn sample(&self, rng_in: &mut dyn Rng) -> HasherPair<[f64]> {
        let seed = rng_in.next_u64();
        let caps = Arc::new(GaussianMatrix::from_seeded_rows(seed, self.m, self.d));
        HasherPair::new(
            MinHasher {
                caps: Arc::clone(&caps),
                seed,
                t: self.t,
                negate: false,
                sentinel: 1,
            },
            MinHasher {
                caps,
                seed,
                t: self.t,
                negate: true,
                sentinel: 2,
            },
        )
    }

    fn name(&self) -> String {
        format!("FilterMinHash(t={:.2}, m={})", self.t, self.m)
    }
}

impl AnalyticCpf for FilterMinHashDsh {
    /// `arg` is the inner product `alpha in (-1, 1)`; same CPF as the
    /// first-index family.
    fn cpf(&self, alpha: f64) -> f64 {
        assert!(alpha > -1.0 && alpha < 1.0);
        let p_and = bivariate::opposite_orthant(self.t, alpha);
        let p_or = 2.0 * normal::tail(self.t) - p_and;
        if p_or <= 0.0 {
            return 0.0;
        }
        let some_hit = 1.0 - (1.0 - p_or).powi(self.m as i32);
        (some_hit * p_and / p_or).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterDshMinus;
    use crate::geometry::pair_with_inner_product;
    use dsh_core::estimate::CpfEstimator;
    use dsh_core::points::DenseVector;
    use dsh_math::rng::seeded;

    #[test]
    fn cpf_equals_first_index_family() {
        let mh = FilterMinHashDsh::with_filter_count(8, 1.5, 500);
        let fi = FilterDshMinus::with_filter_count(8, 1.5, 500);
        for &alpha in &[-0.7, -0.2, 0.0, 0.4, 0.8] {
            assert!((mh.cpf(alpha) - fi.cpf(alpha)).abs() < 1e-14);
        }
    }

    #[test]
    fn monte_carlo_matches_analytic() {
        let d = 10;
        let fam = FilterMinHashDsh::with_filter_count(d, 1.0, 60);
        let mut rng = seeded(0x3C1);
        let alphas = [-0.5, 0.0, 0.5];
        let pairs: Vec<_> = alphas
            .iter()
            .map(|&a| pair_with_inner_product(&mut rng, d, a))
            .collect();
        let ests = CpfEstimator::new(3000, 0x3C2).estimate_curve(&fam, &pairs);
        for (est, &alpha) in ests.iter().zip(&alphas) {
            let want = fam.cpf(alpha);
            assert!(
                est.contains(want),
                "alpha {alpha}: want {want:.4}, got {} [{}, {}]",
                est.estimate,
                est.lo,
                est.hi
            );
        }
    }

    #[test]
    fn minhash_and_first_index_agree_empirically() {
        // Same parameters, independent sampling: the two families'
        // estimates must agree within joint confidence intervals.
        let d = 8;
        let mh = FilterMinHashDsh::with_filter_count(d, 1.2, 100);
        let fi = FilterDshMinus::with_filter_count(d, 1.2, 100);
        let mut rng = seeded(0x3C3);
        let (x, y) = pair_with_inner_product(&mut rng, d, -0.3);
        let e1 = CpfEstimator::new(4000, 0x3C4).estimate_pair(&mh, &x, &y);
        let e2 = CpfEstimator::new(4000, 0x3C5).estimate_pair(&fi, &x, &y);
        assert!(
            e1.lo <= e2.hi && e2.lo <= e1.hi,
            "CIs disjoint: [{},{}] vs [{},{}]",
            e1.lo,
            e1.hi,
            e2.lo,
            e2.hi
        );
    }

    #[test]
    fn deterministic_given_sample() {
        let fam = FilterMinHashDsh::with_filter_count(6, 1.0, 40);
        let mut rng = seeded(0x3C6);
        let pair = fam.sample(&mut rng);
        let x = DenseVector::random_unit(&mut rng, 6);
        assert_eq!(pair.data.hash(x.as_slice()), pair.data.hash(x.as_slice()));
    }
}
