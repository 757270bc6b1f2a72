//! Classic `(r1, r2)`-approximate near neighbor search — the baseline
//! application of *decreasing* CPFs (Indyk–Motwani via Har-Peled et al.,
//! paper §1.2 "ρ-values").
//!
//! Given a family with CPF `f`, `p1 = f(r1)`, `p2 = f(r2)`: concatenate
//! `k = ceil(ln n / ln(1/p2))` functions so far points collide with
//! probability `<= 1/n`, and repeat `L ~ p1^{-k...}`-ish, concretely
//! `L = ceil(factor / p1^k)`, so near points are found with constant
//! probability. The exponent is `rho_plus = ln p1 / ln p2`: `L ~ n^rho`.
//!
//! This structure exists in the library both as the standard point of
//! comparison for the DSH applications (§6) and to exercise the same
//! [`Frontend`] substrate with a symmetric family.

use crate::annulus::Measure;
use crate::frontend::{assert_non_empty, measured, Frontend, Verifier};
use crate::shard::Snapshot;
use crate::table::{HashTableIndex, QueryStats};
use dsh_core::combinators::Power;
use dsh_core::family::DshFamily;
use dsh_core::points::PointStore;
use rand::Rng;
use std::borrow::Borrow;

/// Hard ceiling on the repetition count `L` any parameter derivation in
/// this crate may request.
///
/// The repetition formulae all have the shape `L = ceil(factor / p^k)`;
/// for tiny `p` (or large `k`) the true value can exceed every realistic
/// memory budget — and the naive floating-point evaluation can even
/// underflow `p^k` to `0` and saturate the cast. Rather than let a
/// pathological parameter choice request `usize::MAX` tables, every
/// derivation clamps to this bound (2^22 ≈ 4.2M repetitions: already far
/// past anything buildable, but finite and allocation-safe).
pub const MAX_REPETITIONS: usize = 1 << 22;

/// Repetition count `ceil(factor / p^k)`, clamped to
/// [`MAX_REPETITIONS`] and computed without intermediate underflow.
///
/// `p.powi(k)` underflows to `0.0` once `k * ln(1/p)` passes ~745, which
/// used to turn the division into `inf` and the cast into a saturated,
/// nonsensical `usize::MAX`. When the direct power leaves the normal
/// range this falls back to log-space (`exp(ln factor - k ln p)`), and
/// any non-finite or over-budget result clamps to the ceiling.
pub(crate) fn repetition_count(factor: f64, p: f64, k: usize) -> usize {
    debug_assert!(0.0 < p && p <= 1.0, "collision probability p = {p}");
    debug_assert!(factor > 0.0, "repetition factor = {factor}");
    let pk = p.powi(k as i32);
    let l = if pk.is_normal() {
        (factor / pk).ceil()
    } else {
        (factor.ln() - k as f64 * p.ln()).exp().ceil()
    };
    if l.is_finite() && l < MAX_REPETITIONS as f64 {
        (l as usize).max(1)
    } else {
        MAX_REPETITIONS
    }
}

/// Parameters derived from the CPF values at the two radii.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnParams {
    /// Concatenation width `k`.
    pub k: usize,
    /// Repetition count `L`.
    pub l: usize,
    /// The exponent `rho_plus = ln p1 / ln p2`.
    pub rho: f64,
}

/// Compute `(k, L, rho)` for dataset size `n` from `p1 = f(r1)`,
/// `p2 = f(r2)` and a success factor (>= 1 boosts the success
/// probability). `L` is computed in log-space when `p1^k` underflows and
/// is clamped to [`MAX_REPETITIONS`].
pub fn ann_params(n: usize, p1: f64, p2: f64, factor: f64) -> AnnParams {
    assert!(n >= 2);
    assert!(0.0 < p2 && p2 < p1 && p1 < 1.0, "need 0 < p2 < p1 < 1");
    assert!(factor >= 1.0);
    let k = ((n as f64).ln() / (1.0 / p2).ln()).ceil().max(1.0) as usize;
    AnnParams {
        k,
        l: repetition_count(factor, p1, k),
        rho: p1.ln() / p2.ln(),
    }
}

/// The near-neighbor [`Verifier`]: keep the first retrieved candidate
/// within distance `r2`, giving up after `3L` retrieved entries (the
/// standard Markov cutoff).
pub struct FirstWithin<R: ?Sized> {
    measure: Measure<R>,
    r2: f64,
    params: AnnParams,
}

impl<R: ?Sized + 'static> Verifier<R> for FirstWithin<R> {
    type Answer = Option<usize>;

    fn retrieval_limit(&self, l: usize) -> Option<usize> {
        Some(3 * l)
    }

    fn verify<S: PointStore<Row = R>>(
        &self,
        snapshot: &Snapshot<S>,
        cands: &[usize],
        q: &R,
        stats: &mut QueryStats,
    ) -> Option<usize> {
        measured(snapshot, &self.measure, cands, q, stats)
            .find(|&(_, v)| v <= self.r2)
            .map(|(i, _)| i)
    }
}

/// `(r1, r2)`-near-neighbor index: if some point is within `r1` of the
/// query, [`Frontend::query`] returns (w.c.p.) a point within `r2`.
pub type NearNeighborIndex<S, B = HashTableIndex<S>> =
    Frontend<S, B, FirstWithin<<S as PointStore>::Row>>;

impl<S: PointStore, B: Borrow<Snapshot<S>>> NearNeighborIndex<S, B> {
    /// Derive `(k, L)` for an anticipated live set of `n` points from the
    /// CPF values `p1 >= f(r1)`, `p2 <= f(r2)` of the base (width-1)
    /// family `family` at the target radii, and verify over the backend
    /// `backend` builds from the `k`-powered family and `L` — e.g.
    /// `|g, l| DynamicIndex::build(g, store, l, rng)`. Grown-then-compacted
    /// mutable backends answer identically to [`NearNeighborIndex::build`]
    /// over the same final point set.
    #[allow(clippy::too_many_arguments)] // mirrors the theorem's parameter list
    pub fn over<F: DshFamily<S::Row> + ?Sized>(
        family: &F,
        measure: Measure<S::Row>,
        r2: f64,
        n: usize,
        p1: f64,
        p2: f64,
        factor: f64,
        backend: impl FnOnce(&Power<&F>, usize) -> B,
    ) -> Self {
        assert!(
            r2.is_finite() && r2 >= 0.0,
            "NearNeighborIndex: target radius r2 = {r2} must be finite and non-negative"
        );
        let params = ann_params(n.max(2), p1, p2, factor);
        let backend = backend(&Power::new(family, params.k), params.l);
        Frontend::new(
            backend,
            FirstWithin {
                measure,
                r2,
                params,
            },
        )
    }

    /// The derived `(k, L, rho)`.
    pub fn params(&self) -> AnnParams {
        self.verifier.params
    }
}

impl<S: PointStore> NearNeighborIndex<S> {
    /// Build a static index over the non-empty `points`:
    /// [`NearNeighborIndex::over`] with `n = points.len()`.
    #[allow(clippy::too_many_arguments)] // mirrors the theorem's parameter list
    pub fn build(
        family: &(impl DshFamily<S::Row> + ?Sized),
        measure: Measure<S::Row>,
        r2: f64,
        points: S,
        p1: f64,
        p2: f64,
        factor: f64,
        rng: &mut dyn Rng,
    ) -> Self {
        assert_non_empty(&points);
        let n = points.len();
        Self::over(family, measure, r2, n, p1, p2, factor, |g, l| {
            HashTableIndex::build(g, points, l, rng)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_core::points::{BitStore, BitVector};
    use dsh_data::hamming_data;
    use dsh_hamming::BitSampling;
    use dsh_math::rng::seeded;

    #[test]
    fn params_formulae() {
        let p = ann_params(1024, 0.9, 0.5, 1.0);
        assert_eq!(p.k, 10); // ln 1024 / ln 2
        assert_eq!(p.l, (1.0f64 / 0.9f64.powi(10)).ceil() as usize);
        assert!((p.rho - 0.9f64.ln() / 0.5f64.ln()).abs() < 1e-12);
        // rho < 1: sublinear.
        assert!(p.rho < 1.0);
    }

    #[test]
    #[should_panic(expected = "need 0 < p2 < p1 < 1")]
    fn params_reject_bad_probabilities() {
        let _ = ann_params(100, 0.5, 0.9, 1.0);
    }

    #[test]
    fn repetition_count_matches_direct_formula_in_normal_range() {
        assert_eq!(repetition_count(1.0, 0.9, 10), 3); // 1/0.9^10 ~ 2.87
        assert_eq!(repetition_count(2.0, 0.5, 4), 32); // 2 * 2^4
        assert_eq!(repetition_count(1.0, 1.0, 7), 1);
        assert_eq!(
            repetition_count(1.5, 0.25, 3),
            (1.5 / 0.25f64.powi(3)).ceil() as usize
        );
    }

    #[test]
    fn repetition_count_survives_underflowing_power() {
        // 0.05^300 underflows f64 to 0: the seed code computed
        // factor / 0 = inf and saturated the cast. Now: clamped ceiling.
        assert_eq!(repetition_count(1.0, 0.05, 300), MAX_REPETITIONS);
        // Finite but astronomically large: also clamped, never usize::MAX.
        assert_eq!(repetition_count(1.0, 0.5, 200), MAX_REPETITIONS);
        // Subnormal power (0.5^1060 ~ 1e-320): log-space fallback, clamped.
        assert_eq!(repetition_count(1.0, 0.5, 1060), MAX_REPETITIONS);
    }

    #[test]
    fn repetition_count_is_at_least_one() {
        assert_eq!(repetition_count(1.0, 0.999_999, 0), 1);
        assert!(repetition_count(1.0, 0.9, 1) >= 1);
    }

    #[test]
    fn ann_params_clamps_pathological_inputs() {
        // Tiny p1 with k = 1: L = factor / p1 is finite but ~1e200; the
        // seed code saturated `as usize`. The clamp keeps it allocatable.
        let p = ann_params(1_000_000, 1e-200, 1e-220, 1.0);
        assert_eq!(p.k, 1);
        assert_eq!(p.l, MAX_REPETITIONS);
        assert!(p.rho < 1.0);
    }

    #[test]
    fn finds_planted_near_neighbor() {
        let d = 256;
        let r1_rel = 0.05;
        let r2_rel = 0.25;
        let p1 = 1.0 - r1_rel;
        let p2 = 1.0 - r2_rel;
        let mut hits = 0;
        let runs = 20;
        for run in 0..runs {
            let mut rng = seeded(0xA221 + run);
            let inst = hamming_data::planted_hamming_instance(
                &mut rng,
                300,
                d,
                (r1_rel * d as f64) as usize,
            );
            let measure = crate::measures::relative_hamming(d);
            let idx = NearNeighborIndex::build(
                &BitSampling::new(d),
                measure,
                r2_rel,
                BitStore::from(inst.points),
                p1,
                p2,
                2.0,
                &mut rng,
            );
            if let (Some(i), _) = idx.query(&inst.query) {
                let t = dsh_core::points::hamming(idx.backend().point(i), inst.query.as_blocks())
                    as f64
                    / d as f64;
                assert!(t <= r2_rel);
                hits += 1;
            }
        }
        assert!(hits * 4 >= runs * 3, "hit rate {hits}/{runs} too low");
    }

    #[test]
    fn query_respects_early_termination() {
        let d = 32;
        // Degenerate data: all identical points far from the query.
        let mut rng = seeded(0xA229);
        let points = BitStore::from(vec![BitVector::zeros(d); 500]);
        let q = BitVector::ones(d);
        let measure = crate::measures::relative_hamming(d);
        let idx = NearNeighborIndex::build(
            &BitSampling::new(d),
            measure,
            0.1,
            points,
            0.9,
            0.5,
            1.0,
            &mut rng,
        );
        let (hit, stats) = idx.query(&q);
        assert!(hit.is_none());
        assert!(stats.candidates_retrieved <= 3 * idx.params().l);
    }

    #[test]
    fn batch_matches_sequential() {
        let d = 128;
        let mut rng = seeded(0xA230);
        let inst = hamming_data::planted_hamming_instance(&mut rng, 200, d, 6);
        let queries = BitStore::from(hamming_data::uniform_hamming(&mut rng, 12, d));
        let measure = crate::measures::relative_hamming(d);
        let idx = NearNeighborIndex::build(
            &BitSampling::new(d),
            measure,
            0.25,
            BitStore::from(inst.points),
            0.95,
            0.75,
            2.0,
            &mut rng,
        );
        let sequential: Vec<_> = queries.rows().map(|q| idx.query(q)).collect();
        for threads in [1usize, 2, 5] {
            assert_eq!(
                sequential,
                idx.query_batch_with_threads(&queries, threads),
                "threads = {threads}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty point set")]
    fn build_rejects_empty_points() {
        let measure = crate::measures::relative_hamming(8);
        let _ = NearNeighborIndex::build(
            &BitSampling::new(8),
            measure,
            0.1,
            BitStore::with_dim(8),
            0.9,
            0.5,
            1.0,
            &mut seeded(1),
        );
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn build_rejects_non_finite_radius() {
        let measure = crate::measures::relative_hamming(8);
        let _ = NearNeighborIndex::build(
            &BitSampling::new(8),
            measure,
            f64::NAN,
            BitStore::from(vec![BitVector::zeros(8)]),
            0.9,
            0.5,
            1.0,
            &mut seeded(2),
        );
    }
}
