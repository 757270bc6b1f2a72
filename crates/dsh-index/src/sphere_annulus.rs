//! The `((alpha_-, alpha_+), (beta_-, beta_+))`-annulus search problem of
//! Definition 6.3, solved per Theorem 6.4 with the unimodal filter family.
//!
//! Given compatible intervals (both centered, in the `a(alpha)`-ratio
//! sense, on the same peak), the structure guarantees: if some data point
//! has `sim(q, y) in [alpha_-, alpha_+]`, it returns (w.c.p.) a point with
//! `sim(q, y') in [beta_-, beta_+]`, using `n^rho`-type work with
//!
//! ```text
//! rho = (c_alpha + 1/c_alpha) / (c_beta + 1/c_beta)
//! ```

use crate::ann::repetition_count;
use crate::annulus::AnnulusIndex;
use crate::frontend::assert_non_empty;
use crate::measures;
use crate::shard::Snapshot;
use crate::table::HashTableIndex;
use dsh_core::distance::{alpha_from_ratio, alpha_ratio};
use dsh_core::points::PointStore;
use dsh_core::AnalyticCpf;
use dsh_sphere::unimodal::{annulus_rho, UnimodalFilterDsh};
use rand::Rng;
use std::borrow::Borrow;

/// Specification of a Definition 6.3 instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnulusSpec {
    /// Inner (promise) interval `[alpha_-, alpha_+]`.
    pub alpha: (f64, f64),
    /// Outer (reporting) interval `[beta_-, beta_+]`.
    pub beta: (f64, f64),
}

impl AnnulusSpec {
    /// Build a spec from the promise interval, widening symmetrically (in
    /// ratio space) by factor `widen > 1` for the reporting interval —
    /// this automatically satisfies Theorem 6.4's compatibility condition
    /// `a(alpha_-) a(alpha_+) = a(beta_-) a(beta_+)`.
    pub fn widened(alpha_minus: f64, alpha_plus: f64, widen: f64) -> Self {
        assert!(alpha_minus <= alpha_plus);
        assert!(widen > 1.0);
        let beta_minus = alpha_from_ratio(alpha_ratio(alpha_minus) * widen);
        let beta_plus = alpha_from_ratio(alpha_ratio(alpha_plus) / widen);
        AnnulusSpec {
            alpha: (alpha_minus, alpha_plus),
            beta: (beta_minus, beta_plus),
        }
    }

    /// The peak inner product: the alpha with
    /// `a(alpha)^2 = a(alpha_-) a(alpha_+)`.
    pub fn peak(&self) -> f64 {
        alpha_from_ratio((alpha_ratio(self.alpha.0) * alpha_ratio(self.alpha.1)).sqrt())
    }

    /// The Theorem 6.4 query exponent.
    pub fn rho(&self) -> f64 {
        annulus_rho(self.alpha.0, self.alpha.1, self.beta.0, self.beta.1)
    }
}

/// Theorem 6.4 data structure over unit vectors in `R^d`: an
/// [`AnnulusIndex`] reporting a point with inner product in
/// `[beta_-, beta_+]` if one with inner product in `[alpha_-, alpha_+]`
/// exists (success probability >= 1/2). Derives the unimodal filter
/// family peaking at [`AnnulusSpec::peak`] with filter scale `t` (larger
/// `t` = sharper family = fewer false candidates, more repetitions) and
/// `L` from the worst promise-interval collision probability and
/// `repetition_factor >= 1`, and verifies over the backend `backend`
/// builds from them — e.g.
/// `|family, l| DynamicIndex::build(family, store, l, rng)`.
pub fn over<S, B>(
    d: usize,
    spec: AnnulusSpec,
    t: f64,
    repetition_factor: f64,
    backend: impl FnOnce(&UnimodalFilterDsh, usize) -> B,
) -> AnnulusIndex<S, B>
where
    S: PointStore<Row = [f64]>,
    B: Borrow<Snapshot<S>>,
{
    assert!(repetition_factor >= 1.0);
    let family = UnimodalFilterDsh::new(d, spec.peak(), t);
    // Worst promise-interval collision probability governs L.
    let f_promise = family.cpf(spec.alpha.0).min(family.cpf(spec.alpha.1));
    assert!(f_promise > 0.0, "degenerate CPF over the promise interval");
    let l = repetition_count(repetition_factor, f_promise.min(1.0), 1);
    AnnulusIndex::over(backend(&family, l), measures::inner_product(), spec.beta)
}

/// [`over`] a static index of the non-empty `points` (any dense store).
pub fn build<S: PointStore<Row = [f64]>>(
    points: S,
    d: usize,
    spec: AnnulusSpec,
    t: f64,
    repetition_factor: f64,
    rng: &mut dyn Rng,
) -> AnnulusIndex<S> {
    assert_non_empty(&points);
    over(d, spec, t, repetition_factor, |family, l| {
        HashTableIndex::build(family, points, l, rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_core::points::DenseStore;
    use dsh_data::sphere_data;
    use dsh_math::rng::seeded;

    #[test]
    fn spec_widening_is_compatible() {
        let spec = AnnulusSpec::widened(0.4, 0.6, 2.0);
        // Compatibility: product of ratios preserved.
        let pa = alpha_ratio(spec.alpha.0) * alpha_ratio(spec.alpha.1);
        let pb = alpha_ratio(spec.beta.0) * alpha_ratio(spec.beta.1);
        assert!((pa - pb).abs() < 1e-12);
        // Beta strictly contains alpha.
        assert!(spec.beta.0 < spec.alpha.0 && spec.beta.1 > spec.alpha.1);
        // rho < 1 and peak inside the promise interval.
        assert!(spec.rho() < 1.0);
        let peak = spec.peak();
        assert!(spec.alpha.0 <= peak && peak <= spec.alpha.1);
    }

    #[test]
    fn theorem_6_4_rho_bound() {
        // rho <= 2/(c + 1/c) with c = c_beta/c_alpha.
        let spec = AnnulusSpec::widened(0.3, 0.5, 3.0);
        let c_a = dsh_sphere::unimodal::interval_c_value(spec.alpha.0, spec.alpha.1);
        let c_b = dsh_sphere::unimodal::interval_c_value(spec.beta.0, spec.beta.1);
        let c = c_b / c_a;
        assert!(spec.rho() <= 2.0 / (c + 1.0 / c) + 1e-12);
    }

    #[test]
    fn finds_planted_point_in_beta_interval() {
        let d = 64;
        let spec = AnnulusSpec::widened(0.55, 0.65, 2.5);
        let mut hits = 0;
        let runs = 10;
        for run in 0..runs {
            let mut rng = seeded(0x5A1 + run);
            let inst = sphere_data::planted_sphere_instance(&mut rng, 250, d, 0.6);
            let idx = build(DenseStore::from(inst.points), d, spec, 1.4, 1.5, &mut rng);
            if let (Some(m), _) = idx.query(&inst.query) {
                assert!(
                    m.value >= spec.beta.0 && m.value <= spec.beta.1,
                    "reported {} outside beta interval",
                    m.value
                );
                hits += 1;
            }
        }
        assert!(hits * 2 >= runs, "success {hits}/{runs}");
    }

    #[test]
    fn degenerate_point_interval() {
        // alpha_- = alpha_+ (exact similarity search inside an annulus).
        let spec = AnnulusSpec::widened(0.5, 0.5, 2.0);
        assert!((spec.peak() - 0.5).abs() < 1e-12);
        assert!(spec.rho() < 1.0);
    }
}
