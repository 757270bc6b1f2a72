//! Monte-Carlo estimation of collision probability functions.
//!
//! Every quantitative claim in the paper is validated by estimating
//! `Pr[h(x) = g(y)]` over freshly sampled `(h, g)` pairs and comparing
//! against the analytic CPF. Estimates carry Wilson confidence intervals
//! (from `dsh-math`) so that tests can assert statistically rather than
//! with ad-hoc tolerances.

use crate::family::DshFamily;
use crate::points::AsRow;
use dsh_math::rng::{child, derive_seed};
use dsh_math::stats::Proportion;
use rand::Rng;

/// Configuration for Monte-Carlo CPF estimation.
#[derive(Debug, Clone, Copy)]
pub struct CpfEstimator {
    /// Number of independently sampled `(h, g)` pairs.
    pub trials: u64,
    /// Master seed; every trial derives its own RNG stream.
    pub seed: u64,
    /// Confidence level for the Wilson intervals (default 0.999).
    pub confidence: f64,
}

impl CpfEstimator {
    /// Estimator with the given number of trials and master seed, at 99.9%
    /// confidence.
    pub fn new(trials: u64, seed: u64) -> Self {
        CpfEstimator {
            trials,
            seed,
            confidence: 0.999,
        }
    }

    /// Estimate `Pr[h(x) = g(y)]` for one fixed pair of points. The
    /// family hashes rows; `x` and `y` may be owned points, row views, or
    /// raw rows (anything with [`AsRow`]).
    pub fn estimate_pair<P: ?Sized, X, Y>(
        &self,
        family: &(impl DshFamily<P> + ?Sized),
        x: &X,
        y: &Y,
    ) -> Proportion
    where
        X: AsRow<Row = P> + ?Sized,
        Y: AsRow<Row = P> + ?Sized,
    {
        let mut hits = 0u64;
        let mut rng = child(self.seed, 0);
        for _ in 0..self.trials {
            if family.sample(&mut rng).collides(x, y) {
                hits += 1;
            }
        }
        Proportion::wilson(hits, self.trials, self.confidence)
    }

    /// Estimate the CPF at several point pairs **reusing** each sampled
    /// `(h, g)` across all pairs. This is the economical way to sweep a CPF
    /// curve when sampling a function is expensive (e.g. cross-polytope
    /// rotations); estimates at different pairs share randomness but each
    /// is individually unbiased.
    pub fn estimate_curve<P: ?Sized, Q: AsRow<Row = P>>(
        &self,
        family: &(impl DshFamily<P> + ?Sized),
        pairs: &[(Q, Q)],
    ) -> Vec<Proportion> {
        let mut hits = vec![0u64; pairs.len()];
        let mut rng = child(self.seed, 0);
        for _ in 0..self.trials {
            let hp = family.sample(&mut rng);
            for (k, (x, y)) in pairs.iter().enumerate() {
                if hp.collides(x, y) {
                    hits[k] += 1;
                }
            }
        }
        hits.into_iter()
            .map(|h| Proportion::wilson(h, self.trials, self.confidence))
            .collect()
    }

    /// Estimate the *probabilistic CPF* of Definition 3.3: both the pair
    /// `(h, g)` and the point pair `(x, y)` are redrawn every trial, with
    /// `(x, y)` produced by `gen` (e.g. randomly alpha-correlated points).
    pub fn estimate_probabilistic<P: ?Sized, Q: AsRow<Row = P>, G>(
        &self,
        family: &(impl DshFamily<P> + ?Sized),
        mut gen: G,
    ) -> Proportion
    where
        G: FnMut(&mut dyn Rng) -> (Q, Q),
    {
        let mut hits = 0u64;
        for t in 0..self.trials {
            let mut rng = child(self.seed, t);
            let (x, y) = gen(&mut rng);
            if family.sample(&mut rng).collides(&x, &y) {
                hits += 1;
            }
        }
        Proportion::wilson(hits, self.trials, self.confidence)
    }
}

/// One-shot convenience wrapper around [`CpfEstimator::estimate_pair`].
pub fn estimate_collision_probability<P: ?Sized, X, Y>(
    family: &(impl DshFamily<P> + ?Sized),
    x: &X,
    y: &Y,
    trials: u64,
    seed: u64,
) -> Proportion
where
    X: AsRow<Row = P> + ?Sized,
    Y: AsRow<Row = P> + ?Sized,
{
    CpfEstimator::new(trials, seed).estimate_pair(family, x, y)
}

/// Deterministic seed for the `k`-th point of an experiment grid (helper
/// for experiment binaries and tests).
pub fn grid_seed(master: u64, k: usize) -> u64 {
    derive_seed(master, k as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{HasherPair, SymmetricFamily};
    use rand::Rng;

    /// Family over `f64` points that collides with probability exactly `p`,
    /// independent of the points: a Bernoulli CPF.
    struct Bernoulli(f64);
    impl DshFamily<f64> for Bernoulli {
        fn sample(&self, rng: &mut dyn Rng) -> HasherPair<f64> {
            let collide = rng.random_bool(self.0);
            HasherPair::from_fns(move |_x: &f64| 0, move |_y: &f64| !collide as u64)
        }
    }

    #[test]
    fn estimate_matches_known_probability() {
        let est = CpfEstimator::new(50_000, 42).estimate_pair(&Bernoulli(0.3), &0.0, &0.0);
        assert!(est.contains(0.3), "got [{}, {}]", est.lo, est.hi);
        assert!(est.half_width() < 0.01);
    }

    #[test]
    fn estimate_is_deterministic_in_seed() {
        let a = CpfEstimator::new(1000, 7).estimate_pair(&Bernoulli(0.5), &0.0, &0.0);
        let b = CpfEstimator::new(1000, 7).estimate_pair(&Bernoulli(0.5), &0.0, &0.0);
        assert_eq!(a.successes, b.successes);
        let c = CpfEstimator::new(1000, 8).estimate_pair(&Bernoulli(0.5), &0.0, &0.0);
        assert_ne!(a.successes, c.successes, "different seeds should differ");
    }

    #[test]
    fn curve_estimation_shares_samples() {
        // A symmetric family on f64 hashing sign(x + shift) with random
        // shift in [0,1): CPF depends on the pair.
        let fam = SymmetricFamily::new("step", |rng: &mut dyn Rng| {
            let shift: f64 = rng.random();
            crate::family::FnHasher(move |x: &f64| (*x + shift >= 1.0) as u64)
        });
        let pairs = vec![(0.0, 0.0), (0.0, 1.0), (0.3, 0.7)];
        let est = CpfEstimator::new(30_000, 3).estimate_curve(&fam, &pairs);
        assert_eq!(est.len(), 3);
        // (0,0): always same side => collide with prob 1.
        assert!(est[0].estimate > 0.999);
        // (0,1): x+s < 1 always (s<1), y+s >= 1 always => never collide.
        assert!(est[1].estimate < 0.001);
        // (0.3, 0.7): differ iff shift in [0.3, 0.7) => collide w.p. 0.6.
        assert!(est[2].contains(0.6), "got {}", est[2].estimate);
    }

    #[test]
    fn probabilistic_cpf_redraws_points() {
        // Points are +-1 with equal probability; family collides iff the two
        // points are equal. Pr = 1/2.
        struct EqFam;
        impl DshFamily<i64> for EqFam {
            fn sample(&self, _rng: &mut dyn Rng) -> HasherPair<i64> {
                HasherPair::from_fns(|x: &i64| *x as u64, |y: &i64| *y as u64)
            }
        }
        let est = CpfEstimator::new(40_000, 5).estimate_probabilistic(&EqFam, |rng| {
            let x: bool = rng.random_bool(0.5);
            let y: bool = rng.random_bool(0.5);
            (x as i64, y as i64)
        });
        assert!(est.contains(0.5), "got {}", est.estimate);
    }

    #[test]
    fn grid_seed_distinct() {
        let seeds: std::collections::HashSet<u64> = (0..50).map(|k| grid_seed(9, k)).collect();
        assert_eq!(seeds.len(), 50);
    }
}
