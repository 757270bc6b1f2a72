//! Core framework for distance-sensitive hashing (DSH).
//!
//! A *distance-sensitive hashing scheme* for a space `(X, dist)` is a
//! distribution `D` over **pairs** of functions `h, g : X -> R` with
//! *collision probability function* (CPF) `f : R -> [0, 1]` if for every
//! pair of points `x, y` and `(h, g) ~ D`:
//!
//! ```text
//! Pr[h(x) = g(y)] = f(dist(x, y))          (paper Definition 1.1)
//! ```
//!
//! Classical LSH is the symmetric special case `h = g` with decreasing `f`.
//! The asymmetry is what buys increasing, unimodal, step and polynomial
//! CPFs — the subject of the paper.
//!
//! This crate provides:
//!
//! * [`family::DshFamily`] — the distribution over `(h, g)` pairs, sampled
//!   with an explicit RNG so everything is reproducible;
//! * [`points`] — packed [`points::BitVector`] for Hamming space and
//!   [`points::DenseVector`] for `R^d`, plus the flat storage layer
//!   ([`points::DenseStore`] / [`points::BitStore`] with the
//!   [`points::PointStore`] trait, its closed per-store metrics and slice
//!   distance kernels) that the index substrate hashes and verifies
//!   against;
//! * [`kernels`] — the six distance kernels (`dot`/`euclidean`/`hamming`
//!   and batch variants) behind a one-time runtime SIMD dispatch
//!   (scalar / SSE2 / AVX2 tiers, bit-identical f64 results, software
//!   prefetch hints for the index layer);
//! * [`distance`] — the derived measures (angular distance, the `simH`
//!   similarity of §3) and the conversions between the paper's
//!   parameterizations;
//! * [`combinators`] — Lemma 1.4: concatenation/powering (CPF product) and
//!   mixtures (CPF convex combination), plus constant families from which
//!   scaling and biasing are derived;
//! * [`estimate`] — Monte-Carlo CPF estimation with Wilson confidence
//!   intervals, used by every experiment;
//! * [`cpf`] — the [`cpf::AnalyticCpf`] trait and ρ-exponent helpers.

// `deny` rather than `forbid`: the one kernel module (`kernels/x86.rs`,
// the workspace's only unsafe boundary) opts back in with a module-level
// `allow(unsafe_code)`, which `forbid` would reject. Everywhere else
// unsafe stays a hard error.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod combinators;
pub mod cpf;
pub mod distance;
pub mod estimate;
pub mod family;
pub mod hash;
pub mod kernels;
pub mod minhash;
pub mod points;

pub use cpf::AnalyticCpf;
pub use family::{BoxedDshFamily, DshFamily, HasherPair, PointHasher};
pub use minhash::{MinHash, TokenSet};
pub use points::{AsRow, BitStore, BitVector, DenseStore, DenseVector, PointStore};
