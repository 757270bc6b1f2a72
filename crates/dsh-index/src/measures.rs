//! Stock metrics over store rows.
//!
//! A front-end verifies candidates with the store's metric
//! ([`dsh_core::points::PointStore::Metric`]): a closed [`BitMetric`]
//! for packed bit rows, a [`DenseMetric`] for dense ones, evaluated per
//! row or over a whole candidate list by the flat stores' batch kernels.
//! These constructors name the metrics the indexes are built with; an
//! ad-hoc dense measure is a [`DenseMetric::Custom`] closure.
//!
//! ```
//! use dsh_core::points::{BitStore, BitVector, PointStore};
//! use dsh_index::measures;
//! let m = measures::relative_hamming(8);
//! let x = BitVector::zeros(8);
//! let y = BitVector::ones(8);
//! assert_eq!(BitStore::measure(&m, x.as_blocks(), y.as_blocks()), 1.0);
//! ```

use dsh_core::points::{BitMetric, DenseMetric};

/// Inner product `<x, y>` on dense rows (the sphere similarity).
pub fn inner_product() -> DenseMetric {
    DenseMetric::InnerProduct
}

/// Relative Hamming distance `||x - y||_1 / d` on packed bit rows of
/// dimension `d > 0` (see [`BitMetric::RelativeHamming`] for the
/// block-count check every evaluation makes).
pub fn relative_hamming(d: usize) -> BitMetric {
    assert!(d > 0, "relative distance undefined in dimension 0");
    BitMetric::RelativeHamming(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_core::points::{AsRow, BitStore, BitVector, DenseStore, DenseVector, PointStore};
    use dsh_math::rng::seeded;

    #[test]
    fn measures_match_owned_point_methods() {
        let mut rng = seeded(0x3EA);
        let a = DenseVector::gaussian(&mut rng, 9);
        let b = DenseVector::gaussian(&mut rng, 9);
        let dense = |m| DenseStore::measure(&m, a.as_row(), b.as_row());
        assert_eq!(dense(inner_product()), a.dot(&b));
        assert_eq!(dense(DenseMetric::Euclidean), a.euclidean(&b));
        let x = BitVector::random(&mut rng, 70);
        let y = BitVector::random(&mut rng, 70);
        let bits = |m| BitStore::measure(&m, x.as_row(), y.as_row());
        assert_eq!(bits(BitMetric::Hamming), x.hamming(&y) as f64);
        assert_eq!(bits(relative_hamming(70)), x.relative_hamming(&y));
    }

    #[test]
    #[should_panic(expected = "dimension 0")]
    fn zero_dimension_rejected() {
        let _ = relative_hamming(0);
    }

    #[test]
    #[should_panic(expected = "built for d = 16")]
    fn mismatched_dimension_rejected_at_evaluation() {
        let x = BitVector::zeros(128);
        let _ = BitStore::measure(&relative_hamming(16), x.as_row(), x.as_row());
    }
}
