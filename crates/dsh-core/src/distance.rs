//! Distance and similarity measures, and the conversions between them.
//!
//! The paper states sphere results in terms of the inner product
//! `alpha = <x, y>` (equivalent to cosine similarity on `S^{d-1}`), Hamming
//! results in terms of absolute/relative Hamming distance or the similarity
//! `simH(x, y) = 1 - 2 ||x - y||_1 / d` (§3), and Euclidean results in
//! terms of `||x - y||_2`. These are all in 1-1 correspondence on the
//! relevant domains; this module centralizes the conversions so that each
//! construction can state its CPF in the paper's native parameterization.
//!
//! The plain point-pair measures are the owned-point methods
//! ([`DenseVector::dot`], [`DenseVector::euclidean`],
//! [`BitVector::hamming`], [`BitVector::relative_hamming`]), which call
//! the runtime-dispatched kernels in [`crate::kernels`]; this module adds
//! only the measures derived from them.

use crate::points::{BitVector, DenseVector};

/// Angular distance: the angle between unit vectors, in radians.
pub fn angular_distance(x: &DenseVector, y: &DenseVector) -> f64 {
    x.dot(y).clamp(-1.0, 1.0).acos()
}

/// The Hamming similarity of §3: `simH(x, y) = 1 - 2 ||x - y||_1 / d`,
/// ranging over `[-1, 1]`. Coincides with the inner product of the
/// hypercube-corner embeddings.
pub fn sim_h(x: &BitVector, y: &BitVector) -> f64 {
    1.0 - 2.0 * x.relative_hamming(y)
}

/// Inner product on the unit sphere -> Euclidean distance:
/// `tau = sqrt(2 (1 - alpha))` (paper footnote 1).
pub fn alpha_to_euclidean(alpha: f64) -> f64 {
    assert!((-1.0..=1.0).contains(&alpha), "alpha must be in [-1,1]");
    (2.0 * (1.0 - alpha)).sqrt()
}

/// Euclidean distance between unit vectors -> inner product:
/// `alpha = 1 - tau^2 / 2`.
pub fn euclidean_to_alpha(tau: f64) -> f64 {
    assert!(
        (0.0..=2.0).contains(&tau),
        "unit-sphere distances lie in [0,2]"
    );
    1.0 - tau * tau / 2.0
}

/// Relative Hamming distance -> simH similarity.
pub fn relative_hamming_to_sim(t: f64) -> f64 {
    assert!((0.0..=1.0).contains(&t));
    1.0 - 2.0 * t
}

/// simH similarity -> relative Hamming distance.
pub fn sim_to_relative_hamming(alpha: f64) -> f64 {
    assert!((-1.0..=1.0).contains(&alpha));
    (1.0 - alpha) / 2.0
}

/// The map `a(alpha) = (1 - alpha) / (1 + alpha)` that appears throughout
/// the paper's sphere bounds (Theorems 1.2, 1.3, 6.2). Strictly decreasing
/// on `(-1, 1]`, with `a(0) = 1`.
pub fn alpha_ratio(alpha: f64) -> f64 {
    assert!(alpha > -1.0 && alpha <= 1.0, "alpha must be in (-1, 1]");
    (1.0 - alpha) / (1.0 + alpha)
}

/// Inverse of [`alpha_ratio`]: `alpha = (1 - a) / (1 + a)` for `a >= 0`.
pub fn alpha_from_ratio(a: f64) -> f64 {
    assert!(a >= 0.0);
    (1.0 - a) / (1.0 + a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_math::rng::seeded;

    #[test]
    fn alpha_euclidean_roundtrip() {
        for &alpha in &[-1.0, -0.4, 0.0, 0.3, 0.99, 1.0] {
            let tau = alpha_to_euclidean(alpha);
            assert!((euclidean_to_alpha(tau) - alpha).abs() < 1e-12);
        }
        assert_eq!(alpha_to_euclidean(1.0), 0.0);
        assert_eq!(alpha_to_euclidean(-1.0), 2.0);
    }

    #[test]
    fn alpha_euclidean_consistent_with_vectors() {
        let mut rng = seeded(8);
        let x = DenseVector::random_unit(&mut rng, 40);
        let y = DenseVector::random_unit(&mut rng, 40);
        let alpha = x.dot(&y);
        let tau = x.euclidean(&y);
        assert!((alpha_to_euclidean(alpha) - tau).abs() < 1e-10);
    }

    #[test]
    fn sim_h_matches_embedding_inner_product() {
        let mut rng = seeded(9);
        let x = BitVector::random(&mut rng, 96);
        let y = BitVector::random(&mut rng, 96);
        let s = sim_h(&x, &y);
        let ip = x.to_unit_vector().dot(&y.to_unit_vector());
        assert!((s - ip).abs() < 1e-12);
    }

    #[test]
    fn sim_relative_roundtrip() {
        for &t in &[0.0, 0.25, 0.5, 1.0] {
            assert!((sim_to_relative_hamming(relative_hamming_to_sim(t)) - t).abs() < 1e-15);
        }
        assert_eq!(relative_hamming_to_sim(0.0), 1.0);
        assert_eq!(relative_hamming_to_sim(1.0), -1.0);
    }

    #[test]
    fn alpha_ratio_properties() {
        assert_eq!(alpha_ratio(0.0), 1.0);
        assert_eq!(alpha_ratio(1.0), 0.0);
        assert!(alpha_ratio(-0.5) > 1.0);
        // Decreasing.
        assert!(alpha_ratio(0.2) > alpha_ratio(0.5));
        for &a in &[0.0, 0.3, 1.0, 4.0] {
            assert!((alpha_ratio(alpha_from_ratio(a)) - a).abs() < 1e-12);
        }
    }

    #[test]
    fn angular_distance_basics() {
        let e1 = DenseVector::new(vec![1.0, 0.0]);
        let e2 = DenseVector::new(vec![0.0, 1.0]);
        assert!((angular_distance(&e1, &e2) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!(angular_distance(&e1, &e1).abs() < 1e-6);
        assert!((angular_distance(&e1, &e1.negated()) - std::f64::consts::PI).abs() < 1e-6);
    }

    #[test]
    fn free_function_wrappers() {
        let x = BitVector::from_bools(&[true, false, true, true]);
        let y = BitVector::from_bools(&[true, true, false, true]);
        assert_eq!(x.hamming(&y), 2);
        assert!((x.relative_hamming(&y) - 0.5).abs() < 1e-15);
        assert!((sim_h(&x, &y) - 0.0).abs() < 1e-15);
    }
}
