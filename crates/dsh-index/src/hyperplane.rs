//! Hyperplane queries (§6.1): find a data vector approximately orthogonal
//! to the query.
//!
//! On the unit sphere this is the annulus problem centered at inner
//! product 0: the unimodal filter family with `alpha_max = 0` peaks exactly
//! on the hyperplane `<x, q> = 0`, giving query exponent
//! `rho = (1 - alpha^2) / (1 + alpha^2)` for reporting guarantee
//! `|<x, q>| <= alpha` (§6.1's discussion of hyperplane queries).

use crate::ann::repetition_count;
use crate::annulus::AnnulusIndex;
use crate::frontend::assert_non_empty;
use crate::measures;
use crate::shard::Snapshot;
use crate::table::HashTableIndex;
use dsh_core::points::{DenseMetric, PointStore};
use dsh_core::AnalyticCpf;
use dsh_sphere::UnimodalFilterDsh;
use rand::Rng;
use std::borrow::Borrow;

/// Hyperplane-query index over unit vectors in `R^d`: an
/// [`AnnulusIndex`] reporting a point with `|<x, q>| <= alpha_report`.
/// Derives the unimodal filter family peaking at inner product 0 with
/// filter scale `t` and `L = ceil(repetition_factor / f(0))` repetitions
/// (`f` the family's CPF), and verifies over the backend `backend` builds
/// from them — e.g. `|family, l| DynamicIndex::build(family, store, l, rng)`.
pub fn over<S, B>(
    d: usize,
    t: f64,
    alpha_report: f64,
    repetition_factor: f64,
    backend: impl FnOnce(&UnimodalFilterDsh, usize) -> B,
) -> AnnulusIndex<S, B>
where
    S: PointStore<Row = [f64], Metric = DenseMetric>,
    B: Borrow<Snapshot<S>>,
{
    assert!(alpha_report > 0.0 && alpha_report < 1.0);
    assert!(repetition_factor > 0.0);
    let family = UnimodalFilterDsh::new(d, 0.0, t);
    let f0 = family.cpf(0.0);
    assert!(f0 > 0.0, "degenerate CPF at the peak");
    let l = repetition_count(repetition_factor, f0.min(1.0), 1);
    AnnulusIndex::over(
        backend(&family, l),
        measures::inner_product(),
        (-alpha_report, alpha_report),
    )
}

/// [`over`] a static index of the non-empty `points` (any dense store).
pub fn build<S: PointStore<Row = [f64], Metric = DenseMetric>>(
    points: S,
    d: usize,
    t: f64,
    alpha_report: f64,
    repetition_factor: f64,
    rng: &mut dyn Rng,
) -> AnnulusIndex<S> {
    assert_non_empty(&points);
    over(d, t, alpha_report, repetition_factor, |family, l| {
        HashTableIndex::build(family, points, l, rng)
    })
}

/// The §6.1 query exponent for guarantee `alpha`:
/// `rho = (1 - alpha^2) / (1 + alpha^2)`.
pub fn theoretical_rho(alpha: f64) -> f64 {
    assert!(alpha > 0.0 && alpha < 1.0);
    (1.0 - alpha * alpha) / (1.0 + alpha * alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_core::points::DenseStore;
    use dsh_data::sphere_data;
    use dsh_math::rng::seeded;

    #[test]
    fn finds_planted_orthogonal_vector() {
        let d = 40;
        let mut successes = 0;
        let runs = 20;
        for run in 0..runs {
            let mut rng = seeded(321 + run);
            let inst = sphere_data::planted_sphere_instance(&mut rng, 200, d, 0.0);
            let idx = build(DenseStore::from(inst.points), d, 1.4, 0.4, 1.5, &mut rng);
            if let (Some(m), _) = idx.query(&inst.query) {
                assert!(m.value.abs() <= 0.4, "reported alpha {}", m.value);
                successes += 1;
            }
        }
        assert!(
            successes * 2 >= runs,
            "success {successes}/{runs} below 1/2"
        );
    }

    #[test]
    fn theoretical_rho_shape() {
        // rho -> 1 as alpha -> 0 (hard) and -> 0 as alpha -> 1 (easy).
        assert!(theoretical_rho(0.05) > 0.99);
        assert!(theoretical_rho(0.95) < 0.1);
        let r1 = theoretical_rho(0.3);
        let r2 = theoretical_rho(0.6);
        assert!(r1 > r2, "rho must decrease with the guarantee bound");
    }

    #[test]
    fn accessors() {
        let mut rng = seeded(322);
        let pts = sphere_data::uniform_sphere(&mut rng, 30, 16);
        let idx = build(DenseStore::from(pts), 16, 1.0, 0.5, 1.0, &mut rng);
        assert!(idx.repetitions() >= 1);
        assert_eq!(idx.backend().len(), 30);
    }
}
