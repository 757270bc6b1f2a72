//! Synthetic workload generators for the experiment suite.
//!
//! The paper's theorems are distributional statements; these generators
//! produce exactly the point distributions they quantify — uniform and
//! clustered unit vectors (the recommender-system motivation of §1),
//! alpha-correlated Hamming points (Definition 3.1), and planted
//! annulus/hyperplane instances for the §6 applications.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod hamming_data;
pub mod sphere_data;
