//! The unimodal filter family of Theorem 6.2 and the annulus-search
//! exponent arithmetic of Theorem 6.4.
//!
//! Concatenating one `D+` (threshold `t_+`) with one `D-` (threshold
//! `t_- = gamma t_+`) gives a family whose CPF, as a function of the inner
//! product `alpha`, satisfies (ignoring lower-order terms)
//!
//! ```text
//! ln(1/f(alpha)) ~ a(alpha) t^2/2 + (gamma^2 / a(alpha)) t^2/2,
//! a(alpha) = (1 - alpha)/(1 + alpha),
//! ```
//!
//! which is minimized (CPF maximized) at `a(alpha) = gamma`. Choosing
//! `gamma = a(alpha_max)` therefore centers the CPF's peak at any desired
//! inner product `alpha_max in (-1, 1)` — a unimodal, annulus-shaped CPF.
//! For every `s > 1` the inner products with
//! `(1/s) a_max <= a(alpha) <= s a_max` form the annulus `[alpha_-,
//! alpha_+]` of Theorem 6.2 / Figure 3.

use crate::filter::{FilterDshMinus, FilterDshPlus};
use dsh_core::cpf::AnalyticCpf;
use dsh_core::distance::{alpha_from_ratio, alpha_ratio};
use dsh_core::family::{DshFamily, HasherPair};
use rand::Rng;

/// Unimodal DSH family on `S^{d-1}` peaking at a chosen inner product
/// `alpha_max` (Theorem 6.2).
#[derive(Debug, Clone, Copy)]
pub struct UnimodalFilterDsh {
    plus: FilterDshPlus,
    minus: FilterDshMinus,
    alpha_max: f64,
    t: f64,
}

impl UnimodalFilterDsh {
    /// Build with peak at `alpha_max` and scale parameter `t > 0`
    /// (`t_+ = t`, `t_- = a(alpha_max) * t`).
    pub fn new(d: usize, alpha_max: f64, t: f64) -> Self {
        assert!(
            alpha_max > -1.0 && alpha_max < 1.0,
            "alpha_max must be in (-1, 1)"
        );
        assert!(t > 0.0);
        let gamma = alpha_ratio(alpha_max);
        let t_plus = t;
        let t_minus = gamma * t;
        UnimodalFilterDsh {
            plus: FilterDshPlus::new(d, t_plus),
            minus: FilterDshMinus::new(d, t_minus),
            alpha_max,
            t,
        }
    }

    /// The targeted peak inner product.
    pub fn alpha_max(&self) -> f64 {
        self.alpha_max
    }

    /// The scale parameter `t` (= `t_+`).
    pub fn t(&self) -> f64 {
        self.t
    }

    /// The `D+` component.
    pub fn plus(&self) -> &FilterDshPlus {
        &self.plus
    }

    /// The `D-` component.
    pub fn minus(&self) -> &FilterDshMinus {
        &self.minus
    }

    /// Leading-order prediction
    /// `ln(1/f(alpha)) ~ (a(alpha) + gamma^2/a(alpha)) t^2/2`.
    pub fn theoretical_ln_inv_cpf(&self, alpha: f64) -> f64 {
        let a = alpha_ratio(alpha);
        let gamma = alpha_ratio(self.alpha_max);
        (a + gamma * gamma / a) * self.t * self.t / 2.0
    }
}

impl DshFamily<[f64]> for UnimodalFilterDsh {
    fn sample(&self, rng: &mut dyn Rng) -> HasherPair<[f64]> {
        let p = self.plus.sample(rng);
        let m = self.minus.sample(rng);
        p.then(m)
    }

    fn name(&self) -> String {
        format!("Unimodal(alpha_max={:.2}, t={:.2})", self.alpha_max, self.t)
    }
}

impl AnalyticCpf for UnimodalFilterDsh {
    /// `arg` is the inner product `alpha in (-1, 1)`; exact product CPF
    /// `f_+(alpha) f_-(alpha)`.
    fn cpf(&self, alpha: f64) -> f64 {
        self.plus.cpf(alpha) * self.minus.cpf(alpha)
    }
}

/// The annulus `[alpha_-, alpha_+]` of Theorem 6.2 for peak `alpha_max`
/// and width parameter `s > 1`: all `alpha` with
/// `(1/s) a(alpha_max) <= a(alpha) <= s a(alpha_max)`. Figure 3 plots these
/// boundaries.
pub fn annulus_interval(alpha_max: f64, s: f64) -> (f64, f64) {
    assert!(alpha_max > -1.0 && alpha_max < 1.0);
    assert!(s > 1.0, "annulus width parameter must satisfy s > 1");
    let a_max = alpha_ratio(alpha_max);
    // a(alpha) is decreasing in alpha: the larger ratio bounds alpha from
    // below.
    let alpha_minus = alpha_from_ratio(s * a_max);
    let alpha_plus = alpha_from_ratio(a_max / s);
    (alpha_minus, alpha_plus)
}

/// The `c`-value of Theorem 6.4 for an interval `[alpha_-, alpha_+]`:
/// `c = sqrt(a(alpha_-) / a(alpha_+)) > 1`.
pub fn interval_c_value(alpha_minus: f64, alpha_plus: f64) -> f64 {
    assert!(alpha_minus <= alpha_plus);
    (alpha_ratio(alpha_minus) / alpha_ratio(alpha_plus)).sqrt()
}

/// The query exponent of Theorem 6.4 for solving the
/// `((alpha_-, alpha_+), (beta_-, beta_+))`-annulus problem:
/// `rho = (c_alpha + 1/c_alpha) / (c_beta + 1/c_beta)`.
///
/// Requires the compatibility condition
/// `a(alpha_-) a(alpha_+) = a(beta_-) a(beta_+)` (both intervals centered
/// on the same peak), asserted up to 1e-9.
pub fn annulus_rho(alpha_minus: f64, alpha_plus: f64, beta_minus: f64, beta_plus: f64) -> f64 {
    let prod_a = alpha_ratio(alpha_minus) * alpha_ratio(alpha_plus);
    let prod_b = alpha_ratio(beta_minus) * alpha_ratio(beta_plus);
    assert!(
        (prod_a - prod_b).abs() <= 1e-9 * prod_a.max(prod_b),
        "intervals not centered on the same peak: {prod_a} vs {prod_b}"
    );
    let c_alpha = interval_c_value(alpha_minus, alpha_plus);
    let c_beta = interval_c_value(beta_minus, beta_plus);
    assert!(
        c_beta >= c_alpha,
        "the beta interval must contain the alpha interval"
    );
    (c_alpha + 1.0 / c_alpha) / (c_beta + 1.0 / c_beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::pair_with_inner_product;
    use dsh_core::cpf::peak_of;
    use dsh_core::estimate::CpfEstimator;
    use dsh_math::rng::seeded;

    #[test]
    fn peak_is_at_alpha_max() {
        // alpha_max < 0 inflates t_- = a(alpha_max) t, so keep t moderate
        // for the most negative peak.
        for &alpha_max in &[-0.2, 0.0, 0.4] {
            let fam = UnimodalFilterDsh::new(8, alpha_max, 2.0);
            let (peak, _) = peak_of(&fam, -0.95, 0.95);
            assert!(
                (peak - alpha_max).abs() < 0.1,
                "alpha_max {alpha_max}: peak at {peak}"
            );
        }
    }

    #[test]
    fn cpf_is_unimodal() {
        let fam = UnimodalFilterDsh::new(8, 0.2, 2.0);
        // Increasing left of peak, decreasing right of it.
        let grid: Vec<f64> = (0..=38).map(|i| -0.95 + 0.05 * i as f64).collect();
        let vals: Vec<f64> = grid.iter().map(|&a| fam.cpf(a)).collect();
        let peak_idx = vals
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        for w in vals[..=peak_idx].windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "not increasing before peak");
        }
        for w in vals[peak_idx..].windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "not decreasing after peak");
        }
    }

    #[test]
    fn analytic_cpf_matches_monte_carlo() {
        let d = 10;
        let fam = UnimodalFilterDsh::new(d, 0.0, 1.2);
        let mut rng = seeded(121);
        let alphas = [-0.5, 0.0, 0.5];
        let pairs: Vec<_> = alphas
            .iter()
            .map(|&a| pair_with_inner_product(&mut rng, d, a))
            .collect();
        let ests = CpfEstimator::new(4000, 122).estimate_curve(&fam, &pairs);
        for (est, &alpha) in ests.iter().zip(&alphas) {
            let want = fam.cpf(alpha);
            assert!(
                est.contains(want),
                "alpha {alpha}: want {want:.5}, got {} [{}, {}]",
                est.estimate,
                est.lo,
                est.hi
            );
        }
    }

    #[test]
    fn theoretical_exponent_tracks_exact() {
        let fam = UnimodalFilterDsh::new(8, 0.3, 3.0);
        for &alpha in &[-0.2, 0.3, 0.6] {
            let exact = -fam.cpf(alpha).ln();
            let lead = fam.theoretical_ln_inv_cpf(alpha);
            assert!(
                (exact - lead).abs() <= 8.0 * 3.0f64.ln() + 8.0,
                "alpha {alpha}: exact {exact:.2} vs lead {lead:.2}"
            );
        }
    }

    #[test]
    fn annulus_interval_brackets_peak_symmetrically_in_ratio() {
        let (lo, hi) = annulus_interval(0.25, 2.0);
        assert!(lo < 0.25 && 0.25 < hi);
        let a_max = alpha_ratio(0.25);
        assert!((alpha_ratio(lo) - 2.0 * a_max).abs() < 1e-12);
        assert!((alpha_ratio(hi) - a_max / 2.0).abs() < 1e-12);
        // Wider s gives a wider annulus.
        let (lo3, hi3) = annulus_interval(0.25, 3.0);
        assert!(lo3 < lo && hi3 > hi);
    }

    #[test]
    fn annulus_cpf_contrast() {
        // Inside the annulus the CPF must be larger than outside
        // (Theorem 6.2's two bullets).
        let fam = UnimodalFilterDsh::new(8, 0.0, 2.5);
        let s = 2.0;
        let (lo, hi) = annulus_interval(0.0, s);
        let inside = fam.cpf(0.0);
        let at_lo = fam.cpf(lo);
        let at_hi = fam.cpf(hi);
        // Far outside:
        let out_lo = fam.cpf(lo - 0.25);
        let out_hi = fam.cpf(hi + 0.25);
        assert!(inside >= at_lo && inside >= at_hi);
        assert!(at_lo > out_lo * 2.0, "{at_lo} vs {out_lo}");
        assert!(at_hi > out_hi * 2.0, "{at_hi} vs {out_hi}");
    }

    #[test]
    fn rho_formula_theorem_6_4() {
        // Symmetric case centered at alpha_max = 0: a_max = 1,
        // alpha interval with ratio s, beta with ratio s' > s.
        let (am, ap) = annulus_interval(0.0, 2.0);
        let (bm, bp) = annulus_interval(0.0, 4.0);
        let c_a = interval_c_value(am, ap);
        let c_b = interval_c_value(bm, bp);
        assert!((c_a - 2.0f64.sqrt() * 2.0f64.sqrt() / 2.0f64.sqrt()).abs() < 1.0); // sanity
        let rho = annulus_rho(am, ap, bm, bp);
        assert!((rho - (c_a + 1.0 / c_a) / (c_b + 1.0 / c_b)).abs() < 1e-12);
        assert!(rho < 1.0 && rho > 0.0);
        // Bound from Theorem 6.4: rho <= 2 / (c + 1/c) with c = c_b / c_a.
        let c = c_b / c_a;
        assert!(rho <= 2.0 / (c + 1.0 / c) + 1e-9);
    }

    #[test]
    #[should_panic(expected = "not centered on the same peak")]
    fn rho_requires_compatible_intervals() {
        let _ = annulus_rho(-0.5, 0.5, -0.4, 0.9);
    }

    #[test]
    fn accessors() {
        let fam = UnimodalFilterDsh::new(8, 0.1, 1.5);
        assert_eq!(fam.alpha_max(), 0.1);
        assert_eq!(fam.t(), 1.5);
        assert!((fam.plus().threshold() - 1.5).abs() < 1e-12);
        assert!((fam.minus().threshold() - alpha_ratio(0.1) * 1.5).abs() < 1e-12);
    }
}
