//! Approximate spherical range reporting (Theorem 6.5).
//!
//! Report (a superset-free approximation of) all points within distance
//! `r` of the query. A plain LSH index is wasteful here: very close points
//! collide in almost every repetition and are retrieved over and over.
//! A *step-function* CPF — flat on `[0, r]`, rapidly decaying after —
//! bounds the duplication factor by `f_max / f_min` over the flat region
//! (Theorem 6.5's `O(d n^rho + d |S| f_max / f_min)` query time).

use crate::frontend::{assert_non_empty, Frontend, Select};
use crate::shard::Snapshot;
use crate::table::HashTableIndex;
use dsh_core::family::DshFamily;
use dsh_core::points::{AsRow, PointStore};
use rand::Rng;
use std::borrow::Borrow;

/// Range-reporting index: [`Frontend::query`] returns every retrieved
/// point with `dist <= r_plus`, with no retrieval limit, and each point
/// with `dist <= r` is reported with probability at least
/// `1 - (1 - f_min)^L` (>= 1/2 for `L >= 1/f_min`). The stats expose the
/// duplicate count, whose ratio to the output size is the
/// output-sensitivity overhead bounded by `f_max / f_min`.
pub type RangeReportingIndex<S, B = HashTableIndex<S>> = Frontend<S, B, Vec<usize>>;

impl<S: PointStore, B: Borrow<Snapshot<S>>> RangeReportingIndex<S, B> {
    /// Verify over an already-built `backend` — a [`crate::DynamicIndex`]
    /// or [`crate::ShardedIndex`] (which may start empty and is written
    /// through [`Frontend::backend_mut`]), or a [`crate::Snapshot`].
    /// `metric` must be the *distance* the finite, ordered, non-negative
    /// radii refer to.
    pub fn over(backend: B, metric: S::Metric, r: f64, r_plus: f64) -> Self {
        assert!(
            r.is_finite() && r_plus.is_finite() && r >= 0.0,
            "RangeReportingIndex: radii r = {r}, r_plus = {r_plus} must be finite and non-negative"
        );
        assert!(r <= r_plus, "need r <= r_plus");
        let (lo, hi, limit) = (f64::NEG_INFINITY, r_plus, None);
        Frontend::new(backend, metric, Select { lo, hi, limit })
    }

    /// Recall against a ground-truth set of indices within distance `r`
    /// (fraction of them reported).
    pub fn recall<Q>(&self, q: &Q, truth: &[usize]) -> f64
    where
        Q: AsRow<Row = S::Row> + ?Sized,
    {
        if truth.is_empty() {
            return 1.0;
        }
        let (found, _) = self.query(q);
        let hits = truth.iter().filter(|i| found.contains(i)).count();
        hits as f64 / truth.len() as f64
    }
}

impl<S: PointStore> RangeReportingIndex<S> {
    /// Build a static index with `l >= 1` repetitions of `family` over
    /// the non-empty `points`.
    pub fn build(
        family: &(impl DshFamily<S::Row> + ?Sized),
        metric: S::Metric,
        r: f64,
        r_plus: f64,
        points: S,
        l: usize,
        rng: &mut dyn Rng,
    ) -> Self {
        assert_non_empty(&points);
        let backend = HashTableIndex::build(family, points, l, rng);
        Self::over(backend, metric, r, r_plus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_core::combinators::{Concat, Power};
    use dsh_core::points::{BitStore, BitVector};
    use dsh_core::BoxedDshFamily;
    use dsh_data::hamming_data;
    use dsh_hamming::{AntiBitSampling, BitSampling};
    use dsh_math::rng::seeded;

    /// A dataset with `close` points at relative distance ~0.05 and
    /// `far` points near 0.5.
    fn instance(
        seed: u64,
        d: usize,
        close: usize,
        far: usize,
    ) -> (BitVector, Vec<BitVector>, Vec<usize>) {
        let mut rng = seeded(seed);
        let q = BitVector::random(&mut rng, d);
        let mut points = Vec::new();
        let mut truth = Vec::new();
        for i in 0..close {
            points.push(hamming_data::point_at_distance(&mut rng, &q, d / 20));
            truth.push(i);
        }
        points.extend(hamming_data::uniform_hamming(&mut rng, far, d));
        (q, points, truth)
    }

    #[test]
    fn reports_close_points_with_high_recall() {
        let d = 200;
        let (q, points, truth) = instance(331, d, 20, 200);
        // Step-ish CPF: bit-sampling powered to push far points below 1/n
        // while close points stay likely.
        let k = 12usize;
        let fam = Power::new(BitSampling::new(d), k);
        let f_close = 0.95f64.powi(k as i32);
        let l = (3.0 / f_close).ceil() as usize;
        let mut rng = seeded(332);
        let measure = crate::measures::relative_hamming(d);
        let idx = RangeReportingIndex::build(
            &fam,
            measure,
            0.05,
            0.2,
            BitStore::from(points),
            l,
            &mut rng,
        );
        let rec = idx.recall(&q, &truth);
        assert!(rec > 0.9, "recall {rec}");
        // Nothing reported beyond r_plus.
        let (found, _) = idx.query(&q);
        for i in found {
            let t =
                dsh_core::points::hamming(idx.backend().point(i), q.as_blocks()) as f64 / d as f64;
            assert!(t <= 0.2);
        }
    }

    #[test]
    fn step_cpf_reduces_duplicates() {
        // Compare duplicate ratios: plain powered bit-sampling (CPF ~ 1
        // at distance 0 -> every repetition re-finds very close points)
        // versus a flattened step-like CPF built by mixing in anti
        // bit-sampling, which caps f_max.
        let d = 200;
        let (q, points, _) = instance(333, d, 30, 100);

        let k = 10usize;
        let plain = Power::new(BitSampling::new(d), k);
        let f_r_plain = 0.95f64.powi(k as i32);
        let l_plain = (2.0 / f_r_plain).ceil() as usize;

        // Step-ish: concatenate with one anti bit-sampling; CPF
        // (1-t)^k * t has f(0) = 0 yet f(0.05) comparable — flat-ish over
        // the close range relative to its max.
        let step = Concat::new(vec![
            Box::new(Power::new(BitSampling::new(d), k)) as BoxedDshFamily<[u64]>,
            Box::new(AntiBitSampling::new(d)),
        ]);
        let f_r_step = 0.95f64.powi(k as i32) * 0.05;
        let l_step = (2.0 / f_r_step).ceil() as usize;

        let mut rng = seeded(334);
        let m1 = crate::measures::relative_hamming(d);
        let m2 = crate::measures::relative_hamming(d);
        let points = BitStore::from(points);
        let idx_plain =
            RangeReportingIndex::build(&plain, m1, 0.05, 0.2, points.clone(), l_plain, &mut rng);
        let idx_step = RangeReportingIndex::build(&step, m2, 0.05, 0.2, points, l_step, &mut rng);

        let (out_p, st_p) = idx_plain.query(&q);
        let (out_s, st_s) = idx_step.query(&q);
        assert!(!out_p.is_empty() && !out_s.is_empty());
        // Duplicates per reported point: for the plain family the closest
        // points collide in ~every one of the L_plain tables. Normalize by
        // L to compare fairly across different repetition counts.
        let dup_rate_plain =
            st_p.duplicates as f64 / (out_p.len() as f64 * idx_plain.repetitions() as f64);
        let dup_rate_step =
            st_s.duplicates as f64 / (out_s.len() as f64 * idx_step.repetitions() as f64);
        assert!(
            dup_rate_step < dup_rate_plain,
            "step {dup_rate_step} !< plain {dup_rate_plain}"
        );
    }

    #[test]
    fn batch_matches_sequential_queries() {
        let d = 128;
        let mut rng = seeded(336);
        let q = BitVector::random(&mut rng, d);
        let mut points: Vec<BitVector> = (0..15)
            .map(|_| hamming_data::point_at_distance(&mut rng, &q, 5))
            .collect();
        points.extend(hamming_data::uniform_hamming(&mut rng, 100, d));
        let queries: Vec<BitVector> = std::iter::once(q)
            .chain((0..15).map(|_| BitVector::random(&mut rng, d)))
            .collect();
        let fam = Power::new(BitSampling::new(d), 8);
        let measure = crate::measures::relative_hamming(d);
        let idx = RangeReportingIndex::build(
            &fam,
            measure,
            0.05,
            0.2,
            BitStore::from(points),
            40,
            &mut rng,
        );
        let sequential: Vec<_> = queries.iter().map(|q| idx.query(q)).collect();
        let queries = BitStore::from(queries);
        for threads in [1usize, 4, 9] {
            assert_eq!(
                sequential,
                idx.query_batch_with_threads(&queries, threads),
                "threads = {threads}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn build_rejects_zero_repetitions() {
        let measure = crate::measures::relative_hamming(16);
        let _ = RangeReportingIndex::build(
            &BitSampling::new(16),
            measure,
            0.1,
            0.2,
            BitStore::from(vec![BitVector::zeros(16)]),
            0,
            &mut seeded(1),
        );
    }

    #[test]
    #[should_panic(expected = "empty point set")]
    fn build_rejects_empty_points() {
        let measure = crate::measures::relative_hamming(16);
        let _ = RangeReportingIndex::build(
            &BitSampling::new(16),
            measure,
            0.1,
            0.2,
            BitStore::with_dim(16),
            4,
            &mut seeded(2),
        );
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn build_rejects_non_finite_radius() {
        let measure = crate::measures::relative_hamming(16);
        let _ = RangeReportingIndex::build(
            &BitSampling::new(16),
            measure,
            0.1,
            f64::INFINITY,
            BitStore::from(vec![BitVector::zeros(16)]),
            4,
            &mut seeded(3),
        );
    }

    #[test]
    fn empty_truth_recall_is_one() {
        let d = 64;
        let mut rng = seeded(335);
        let points = hamming_data::uniform_hamming(&mut rng, 20, d);
        let q = BitVector::random(&mut rng, d);
        let measure = crate::measures::relative_hamming(d);
        let idx = RangeReportingIndex::build(
            &BitSampling::new(d),
            measure,
            0.01,
            0.05,
            BitStore::from(points),
            5,
            &mut rng,
        );
        assert_eq!(idx.recall(&q, &[]), 1.0);
    }
}
