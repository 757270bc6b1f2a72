//! # dsh — Distance-Sensitive Hashing
//!
//! Facade crate re-exporting the whole workspace. See the README for a tour.
//!
//! Implements "Distance-Sensitive Hashing" (Aumüller, Christiani, Pagh,
//! Silvestri; PODS 2018): distributions over *pairs* of hash functions
//! `(h, g)` such that `Pr[h(x) = g(y)] = f(dist(x, y))` for a prescribed
//! collision probability function (CPF) `f`.

#![forbid(unsafe_code)]

pub use dsh_core as core;
pub use dsh_data as data;
pub use dsh_euclidean as euclidean;
pub use dsh_hamming as hamming;
pub use dsh_index as index;
pub use dsh_math as math;
pub use dsh_privacy as privacy;
pub use dsh_sphere as sphere;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use dsh_core::combinators::{Concat, Mixture, Power};
    pub use dsh_core::distance::*;
    pub use dsh_core::estimate::{estimate_collision_probability, CpfEstimator};
    pub use dsh_core::family::{BoxedDshFamily, DshFamily, HasherPair, PointHasher};
    pub use dsh_core::points::{
        BitStore, BitVector, ChunkedStore, DenseStore, DenseVector, PointStore,
    };
}
