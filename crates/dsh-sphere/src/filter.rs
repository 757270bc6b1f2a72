//! Gaussian filter DSH families `D+` and `D-` (paper §2.2, Appendix A.1).
//!
//! A pair `(h, g)` is defined by a sequence `z_1, ..., z_m` of i.i.d.
//! Gaussian vectors ("spherical caps"): `h(x)` is the index of the first
//! `z_i` with `<z_i, x> >= t` (and `m + 1` if none), `g` likewise with
//! sentinel `m + 2`. `D+` keeps `g` on the same caps; `D-` negates the
//! query (`<z_i, y> <= -t`), which makes the CPF *decreasing* in the inner
//! product.
//!
//! Exact CPF (first-index argument of Appendix A.1): with
//! `p_and(alpha) = Pr[<z,x> >= t, <z,y> >= t]` (an orthant probability of
//! correlated normals) and `p_or = 2 Pr[Z >= t] - p_and`,
//!
//! ```text
//! f(alpha) = (1 - (1 - p_or)^m) * p_and / p_or
//! ```
//!
//! The number of caps is `m = ceil(2 t^3 / p')` with `p'` the Szarek–Werner
//! lower bound on `Pr[Z >= t]`, making the no-cap probability at most
//! `e^{-2 t^3}` (Lemma A.5); the sampling/evaluation cost is
//! `O(d t^4 e^{t^2/2})`.
//!
//! Implementation note: the caps are never stored. Cap `i` is the
//! Gaussian cap `derive_seed(seed, i)` of [`kernels::gaussian_cap`] (a
//! counter-based ziggurat), regenerated on demand, so the function is a
//! fixed, deterministic object once sampled — exactly as the paper
//! requires — at zero resident bytes (materializing the gated annulus
//! workload's caps would be 35.6 MB against a 10.8 MB process). What that
//! costs is the regeneration: a 64-coordinate cap takes ≈ 180 ns to
//! generate (`BENCH_kernels.json`'s `gaussian_cap_fill_d64`; the polar
//! method it replaced took ≈ 1 µs) against ≈ 20 ns for the dispatched
//! dot product that consumes it, so generation is still most of a row's
//! hash. `hash` is lazy per row — it scans the expected `1/Pr[Z >= t]`
//! caps until the row's first hit, generating each as it goes.
//! `hash_many` is lazy per *block*: it generates cap `i` once, tests it
//! against every row of the block still without a hit, retires the rows
//! that hit, and stops when none are left. A cap is then generated `max`
//! over the block's first-hit indices times instead of their sum: at
//! `t = 1.7` that is 22.4 caps generated per row alone, 1.6 per row in a
//! 64-row block and 0.5 in a 256-row block. Both take every dot product
//! through one helper, `cap_dots`, so the values are bit-identical.

use dsh_core::cpf::AnalyticCpf;
use dsh_core::family::{DshFamily, HasherPair, PointHasher};
use dsh_core::kernels::{self, ziggurat};
use dsh_math::{bivariate, normal, rng};
use rand::Rng;

/// Maximum `m` we allow before refusing to construct the family (keeps
/// accidental `t = 6` experiments from running forever).
const MAX_FILTERS: usize = 200_000_000;

/// Number of caps `m = ceil(2 t^3 / p')` from Lemma A.5.
pub fn suggested_filter_count(t: f64) -> usize {
    assert!(t > 0.0, "threshold must be positive");
    let p_prime = normal::tail_lower_bound(t);
    let m = (2.0 * t.powi(3) / p_prime).ceil();
    assert!(
        m <= MAX_FILTERS as f64,
        "t = {t} needs m = {m} filters; too large"
    );
    (m as usize).max(1)
}

/// A sampled filter hash function: scans caps in order and returns the
/// index of the first hit, or `m + sentinel` on miss.
struct FilterHasher {
    seed: u64,
    t: f64,
    m: usize,
    negate: bool,
    sentinel: u64,
}

/// Cap coordinates generated per [`kernels::gaussian_cap`] call: a cap is
/// filled and consumed in pieces of this many slots, so rows of any
/// dimension hash from one fixed stack buffer (one piece at `d <= 128`).
const CAP_CHUNK: usize = 128;

/// `dots[r] = <z, rows[r]>` for every `r` in `pending`, with `z` the
/// Gaussian cap `key`: the cap is generated once, [`CAP_CHUNK`] slots at a
/// time into `cap`, and each piece's dot product (the dispatched
/// [`kernels::dot`]) is added left to right. `FilterHasher::hash` and
/// `hash_many` both take their dot products here, so a row hashes to the
/// same value alone or in a block.
fn cap_dots(
    key: u64,
    rows: &[&[f64]],
    pending: &[usize],
    cap: &mut [f64; CAP_CHUNK],
    dots: &mut [f64],
) {
    let dim = pending.iter().map(|&r| rows[r].len()).max().unwrap_or(0);
    for &r in pending {
        dots[r] = 0.0;
    }
    for start in (0..dim).step_by(CAP_CHUNK) {
        let z = &mut cap[..CAP_CHUNK.min(dim - start)];
        kernels::gaussian_cap(ziggurat::cap_chunk_key(key, start), z);
        for &r in pending {
            let x = rows[r].get(start..).unwrap_or_default();
            let n = x.len().min(z.len());
            dots[r] += kernels::dot(&x[..n], &z[..n]);
        }
    }
}

impl FilterHasher {
    /// The key of cap `i`'s Gaussian coordinates.
    fn cap_key(&self, i: usize) -> u64 {
        rng::derive_seed(self.seed, i as u64)
    }

    /// Whether a point with inner product `dot` to a cap lies in it.
    fn hits(&self, dot: f64) -> bool {
        if self.negate {
            dot <= -self.t
        } else {
            dot >= self.t
        }
    }
}

impl PointHasher<[f64]> for FilterHasher {
    // lint: hot
    fn hash(&self, xs: &[f64]) -> u64 {
        let mut cap = [0.0; CAP_CHUNK];
        let mut dot = [0.0];
        for i in 0..self.m {
            cap_dots(self.cap_key(i), &[xs], &[0], &mut cap, &mut dot);
            if self.hits(dot[0]) {
                return i as u64;
            }
        }
        self.m as u64 + self.sentinel
    }

    fn hash_many(&self, rows: &[&[f64]], out: &mut [u64]) {
        let rows = &rows[..rows.len().min(out.len())];
        let mut cap = [0.0; CAP_CHUNK];
        let mut dots = vec![0.0; rows.len()];
        let mut pending: Vec<usize> = (0..rows.len()).collect();
        for i in 0..self.m {
            if pending.is_empty() {
                break;
            }
            cap_dots(self.cap_key(i), rows, &pending, &mut cap, &mut dots);
            pending.retain(|&r| {
                let hit = self.hits(dots[r]);
                if hit {
                    out[r] = i as u64;
                }
                !hit
            });
        }
        for r in pending {
            out[r] = self.m as u64 + self.sentinel;
        }
    }
}

/// The increasing-CPF filter family `D+` (both sides use caps
/// `<z, .> >= t`).
#[derive(Debug, Clone, Copy)]
pub struct FilterDshPlus {
    d: usize,
    t: f64,
    m: usize,
}

/// The decreasing-CPF (anti-LSH) filter family `D-`: the query side uses
/// the diametrically opposite caps `<z, .> <= -t`.
#[derive(Debug, Clone, Copy)]
pub struct FilterDshMinus {
    d: usize,
    t: f64,
    m: usize,
}

impl FilterDshPlus {
    /// Family over `S^{d-1}` with threshold `t` and the Lemma A.5 filter
    /// count.
    pub fn new(d: usize, t: f64) -> Self {
        Self::with_filter_count(d, t, suggested_filter_count(t))
    }

    /// Explicit filter count (for ablations).
    pub fn with_filter_count(d: usize, t: f64, m: usize) -> Self {
        assert!(d > 0 && t > 0.0 && m > 0);
        FilterDshPlus { d, t, m }
    }

    /// Threshold parameter.
    pub fn threshold(&self) -> f64 {
        self.t
    }

    /// Dimension of the sphere's ambient space.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Number of caps `m`.
    pub fn filter_count(&self) -> usize {
        self.m
    }

    /// Leading-order prediction of Theorem A.6:
    /// `ln(1/f(alpha)) ~ ((1 - alpha)/(1 + alpha)) t^2 / 2`.
    pub fn theoretical_ln_inv_cpf(t: f64, alpha: f64) -> f64 {
        (1.0 - alpha) / (1.0 + alpha) * t * t / 2.0
    }

    /// The Lemma A.5 closed-form *upper* bound on the CPF.
    pub fn cpf_upper_bound(&self, alpha: f64) -> f64 {
        lemma_a5_upper(self.t, alpha)
    }

    /// The Lemma A.5 closed-form *lower* bound on the CPF.
    pub fn cpf_lower_bound(&self, alpha: f64) -> f64 {
        lemma_a5_lower(self.t, alpha)
    }
}

impl FilterDshMinus {
    /// Family over `S^{d-1}` with threshold `t` and the Lemma A.5 filter
    /// count.
    pub fn new(d: usize, t: f64) -> Self {
        Self::with_filter_count(d, t, suggested_filter_count(t))
    }

    /// Explicit filter count (for ablations).
    pub fn with_filter_count(d: usize, t: f64, m: usize) -> Self {
        assert!(d > 0 && t > 0.0 && m > 0);
        FilterDshMinus { d, t, m }
    }

    /// Threshold parameter.
    pub fn threshold(&self) -> f64 {
        self.t
    }

    /// Dimension of the sphere's ambient space.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Number of caps `m`.
    pub fn filter_count(&self) -> usize {
        self.m
    }

    /// Leading-order prediction of Theorem 1.2:
    /// `ln(1/f(alpha)) ~ ((1 + alpha)/(1 - alpha)) t^2 / 2`.
    pub fn theoretical_ln_inv_cpf(t: f64, alpha: f64) -> f64 {
        (1.0 + alpha) / (1.0 - alpha) * t * t / 2.0
    }

    /// Lemma A.5 upper bound transported through `f_-(alpha) = f_+(-alpha)`
    /// (Lemma A.1).
    pub fn cpf_upper_bound(&self, alpha: f64) -> f64 {
        lemma_a5_upper(self.t, -alpha)
    }

    /// Lemma A.5 lower bound transported through `f_-(alpha) = f_+(-alpha)`.
    pub fn cpf_lower_bound(&self, alpha: f64) -> f64 {
        lemma_a5_lower(self.t, -alpha)
    }
}

/// Exact CPF of the first-hit process given the per-cap hit probabilities.
fn first_hit_cpf(p_and: f64, p_single: f64, m: usize) -> f64 {
    let p_or = 2.0 * p_single - p_and;
    if p_or <= 0.0 {
        return 0.0;
    }
    let some_hit = 1.0 - (1.0 - p_or).powi(m as i32);
    (some_hit * p_and / p_or).clamp(0.0, 1.0)
}

/// Lemma A.5 upper bound `f_+(alpha) < (1/sqrt(2 pi)) ((t+1)/t^2)
/// ((1+alpha)^2 / sqrt(1-alpha^2)) exp(-((1-alpha)/(1+alpha)) t^2/2)`.
fn lemma_a5_upper(t: f64, alpha: f64) -> f64 {
    assert!(alpha > -1.0 && alpha < 1.0);
    (t + 1.0) / (t * t) / (2.0 * std::f64::consts::PI).sqrt() * (1.0 + alpha).powi(2)
        / (1.0 - alpha * alpha).sqrt()
        * (-(1.0 - alpha) / (1.0 + alpha) * t * t / 2.0).exp()
}

/// Lemma A.5 lower bound, rederived.
///
/// **Reproduction note.** The bound as printed in the paper reads
/// `f_+ > correction * (t/(t+1)) * fbar_+ - 2 e^{-t^3}`, but retracing the
/// proof (`f >= Pr[and] / (2 Pr[single]) - Pr[miss]`, lower-bounding
/// `Pr[and]` by Savage and upper-bounding `Pr[single]` by Szarek–Werner)
/// produces an extra factor 1/2 that the printed statement drops: the
/// denominator is `2 Pr[single]`, not `Pr[single]`. Numerically the exact
/// CPF violates the printed bound (e.g. `t = 2`, `alpha = 0`: exact
/// 0.0115 < printed 0.0128) and satisfies the corrected one (0.0061).
/// We implement the corrected bound; the asymptotic content of
/// Theorem 1.2 is unaffected (the factor 2 is absorbed by `Theta(log t)`).
fn lemma_a5_lower(t: f64, alpha: f64) -> f64 {
    let correction = 1.0 - (2.0 - alpha) * (1.0 + alpha) / ((1.0 - alpha) * t * t);
    (0.5 * correction * t / (t + 1.0) * lemma_a5_upper(t, alpha) - 2.0 * (-t.powi(3)).exp())
        .max(0.0)
}

impl DshFamily<[f64]> for FilterDshPlus {
    fn sample(&self, rng_in: &mut dyn Rng) -> HasherPair<[f64]> {
        let seed = rng_in.next_u64();
        HasherPair::new(
            FilterHasher {
                seed,
                t: self.t,
                m: self.m,
                negate: false,
                sentinel: 1,
            },
            FilterHasher {
                seed,
                t: self.t,
                m: self.m,
                negate: false,
                sentinel: 2,
            },
        )
    }

    fn name(&self) -> String {
        format!("FilterD+(t={:.2}, m={})", self.t, self.m)
    }
}

impl DshFamily<[f64]> for FilterDshMinus {
    fn sample(&self, rng_in: &mut dyn Rng) -> HasherPair<[f64]> {
        let seed = rng_in.next_u64();
        HasherPair::new(
            FilterHasher {
                seed,
                t: self.t,
                m: self.m,
                negate: false,
                sentinel: 1,
            },
            FilterHasher {
                seed,
                t: self.t,
                m: self.m,
                negate: true,
                sentinel: 2,
            },
        )
    }

    fn name(&self) -> String {
        format!("FilterD-(t={:.2}, m={})", self.t, self.m)
    }
}

impl AnalyticCpf for FilterDshPlus {
    /// `arg` is the inner product `alpha in (-1, 1)`; exact CPF from
    /// bivariate orthant probabilities.
    fn cpf(&self, alpha: f64) -> f64 {
        assert!(alpha > -1.0 && alpha < 1.0);
        let p_and = bivariate::same_orthant(self.t, alpha);
        first_hit_cpf(p_and, normal::tail(self.t), self.m)
    }
}

impl AnalyticCpf for FilterDshMinus {
    /// `arg` is the inner product `alpha in (-1, 1)`; exact CPF from
    /// bivariate orthant probabilities (Lemma A.1: `f_-(a) = f_+(-a)`).
    fn cpf(&self, alpha: f64) -> f64 {
        assert!(alpha > -1.0 && alpha < 1.0);
        let p_and = bivariate::opposite_orthant(self.t, alpha);
        first_hit_cpf(p_and, normal::tail(self.t), self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::pair_with_inner_product;
    use dsh_core::estimate::CpfEstimator;
    use dsh_core::points::DenseVector;
    use dsh_math::rng::seeded;

    #[test]
    fn filter_count_formula() {
        // m = ceil(2 t^3 / p') with p' the Szarek-Werner lower bound.
        let t: f64 = 1.5;
        let p_prime = normal::tail_lower_bound(t);
        assert_eq!(
            suggested_filter_count(t),
            (2.0 * t.powi(3) / p_prime).ceil() as usize
        );
        // Grows like t^4 e^{t^2/2}.
        assert!(suggested_filter_count(2.5) > suggested_filter_count(1.5));
    }

    #[test]
    fn plus_cpf_matches_monte_carlo() {
        let d = 12;
        let t = 1.2;
        let fam = FilterDshPlus::new(d, t);
        let mut rng = seeded(111);
        let alphas = [-0.5, 0.0, 0.6];
        let pairs: Vec<_> = alphas
            .iter()
            .map(|&a| pair_with_inner_product(&mut rng, d, a))
            .collect();
        let ests = CpfEstimator::new(4000, 112).estimate_curve(&fam, &pairs);
        for (est, &alpha) in ests.iter().zip(&alphas) {
            let want = fam.cpf(alpha);
            assert!(
                est.contains(want),
                "alpha {alpha}: want {want:.4}, got {} [{}, {}]",
                est.estimate,
                est.lo,
                est.hi
            );
        }
    }

    #[test]
    fn minus_cpf_matches_monte_carlo() {
        let d = 12;
        let t = 1.2;
        let fam = FilterDshMinus::new(d, t);
        let mut rng = seeded(113);
        let alphas = [-0.6, 0.0, 0.5];
        let pairs: Vec<_> = alphas
            .iter()
            .map(|&a| pair_with_inner_product(&mut rng, d, a))
            .collect();
        let ests = CpfEstimator::new(4000, 114).estimate_curve(&fam, &pairs);
        for (est, &alpha) in ests.iter().zip(&alphas) {
            let want = fam.cpf(alpha);
            assert!(
                est.contains(want),
                "alpha {alpha}: want {want:.4}, got {}",
                est.estimate
            );
        }
    }

    #[test]
    fn minus_is_mirror_of_plus() {
        let plus = FilterDshPlus::new(8, 1.5);
        let minus = FilterDshMinus::new(8, 1.5);
        for &alpha in &[-0.7, -0.2, 0.0, 0.4, 0.8] {
            assert!((plus.cpf(alpha) - minus.cpf(-alpha)).abs() < 1e-12);
        }
    }

    #[test]
    fn plus_increasing_minus_decreasing() {
        let plus = FilterDshPlus::new(8, 1.8);
        let minus = FilterDshMinus::new(8, 1.8);
        let mut prev_p = 0.0;
        let mut prev_m = 1.0;
        for i in 0..=10 {
            let alpha = -0.9 + 0.18 * i as f64;
            let p = plus.cpf(alpha);
            let m = minus.cpf(alpha);
            assert!(p >= prev_p - 1e-12, "plus not increasing at {alpha}");
            assert!(m <= prev_m + 1e-12, "minus not decreasing at {alpha}");
            prev_p = p;
            prev_m = m;
        }
    }

    #[test]
    fn lemma_a5_envelope_contains_exact_cpf() {
        for &t in &[2.0, 2.5, 3.0] {
            let m = suggested_filter_count(t);
            let fam = FilterDshPlus::with_filter_count(8, t, m);
            for &alpha in &[-0.3, 0.0, 0.3, 0.6] {
                let exact = fam.cpf(alpha);
                let hi = fam.cpf_upper_bound(alpha);
                let lo = fam.cpf_lower_bound(alpha);
                assert!(
                    exact <= hi * (1.0 + 1e-9),
                    "t={t} a={alpha}: {exact} > {hi}"
                );
                assert!(
                    exact >= lo * (1.0 - 1e-9),
                    "t={t} a={alpha}: {exact} < {lo}"
                );
            }
        }
    }

    #[test]
    fn theorem_1_2_asymptotics() {
        // ln(1/f(alpha)) = ((1+alpha)/(1-alpha)) t^2/2 + Theta(log t): the
        // deviation from the leading term should be bounded by C log t for
        // a modest constant across t.
        for &t in &[2.0f64, 3.0, 4.0] {
            let fam = FilterDshMinus::new(8, t);
            for &alpha in &[-0.4f64, 0.0, 0.4] {
                if alpha.abs() >= 1.0 - 1.0 / t {
                    continue;
                }
                let exact = -fam.cpf(alpha).ln();
                let lead = FilterDshMinus::theoretical_ln_inv_cpf(t, alpha);
                let dev = (exact - lead).abs();
                assert!(
                    dev <= 6.0 * t.ln() + 6.0,
                    "t={t} alpha={alpha}: ln(1/f)={exact:.3}, lead={lead:.3}, dev={dev:.3}"
                );
            }
        }
    }

    #[test]
    fn miss_probability_is_tiny() {
        // With the Lemma A.5 filter count the probability that a point hits
        // no cap is at most e^{-2 t^3}; check via the complement of the
        // first-hit normalization at alpha ~ 1 (where p_or ~ p_single).
        let t = 1.5f64;
        let m = suggested_filter_count(t) as f64;
        let miss = (1.0 - normal::tail(t)).powf(m);
        assert!(miss <= (-2.0 * t.powi(3)).exp() * 1.01, "miss {miss}");
    }

    #[test]
    fn hashers_are_deterministic_given_sample() {
        let fam = FilterDshMinus::new(6, 1.0);
        let mut rng = seeded(115);
        let pair = fam.sample(&mut rng);
        let x = DenseVector::random_unit(&mut rng, 6);
        assert_eq!(pair.data.hash(x.as_slice()), pair.data.hash(x.as_slice()));
        assert_eq!(pair.query.hash(x.as_slice()), pair.query.hash(x.as_slice()));
    }

    #[test]
    fn sentinels_prevent_false_collisions() {
        // With a tiny m, both sides often miss; h returns m+1, g returns
        // m+2, which must not collide.
        let fam = FilterDshPlus::with_filter_count(6, 4.0, 2);
        let mut rng = seeded(116);
        let (x, y) = pair_with_inner_product(&mut rng, 6, 0.9);
        for _ in 0..200 {
            let pair = fam.sample(&mut rng);
            let hx = pair.data.hash(x.as_slice());
            let gy = pair.query.hash(y.as_slice());
            if hx >= 2 && gy >= 2 {
                assert_ne!(hx, gy);
            }
        }
    }
}
