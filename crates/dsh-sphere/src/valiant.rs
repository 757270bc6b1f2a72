//! Polynomial CPFs on the sphere via Valiant's asymmetric embeddings
//! (Theorem 5.1).
//!
//! For a polynomial `P(t) = sum_i a_i t^i` with `sum_i |a_i| = 1`, Valiant's
//! pair of maps
//!
//! ```text
//! phi_1(x) = concat_i sqrt(|a_i|)        x^{(i)}
//! phi_2(y) = concat_i (a_i / sqrt(|a_i|)) y^{(i)}
//! ```
//!
//! (`x^{(i)}` the `i`-fold tensor power, `x^{(0)} = (1)`) satisfies
//! `<phi_1(x), phi_2(y)> = P(<x, y>)` and maps `S^{d-1}` into `S^{D-1}`,
//! `D = sum_i d^i`. Composing with any LSHable angular similarity `sim`
//! (we use SimHash) yields a DSH family with CPF `sim(P(<x, y>))`
//! (Theorem 5.1). The asymmetry of the two maps is what permits negative
//! coefficients `a_i`.

use dsh_core::cpf::AnalyticCpf;
use dsh_core::family::{DshFamily, HasherPair};
use dsh_core::points::DenseVector;
use dsh_math::Polynomial;
use rand::Rng;

use crate::simhash::SimHash;

/// Largest embedded dimension we allow (`D = sum d^i`); guards against
/// accidental `d^k` blowups. Use [`crate::tensor_sketch`] beyond this.
pub const MAX_EMBEDDED_DIM: usize = 4_000_000;

/// The `k`-fold tensor power of `x`, flattened: entry `(i_1, ..., i_k)` is
/// `prod_j x_{i_j}`. `k = 0` gives the 1-dimensional vector `(1)`.
pub fn tensor_power(x: &[f64], k: usize) -> Vec<f64> {
    let mut out = vec![1.0];
    for _ in 0..k {
        let mut next = Vec::with_capacity(out.len() * x.len());
        for &v in &out {
            for &c in x {
                next.push(v * c);
            }
        }
        out = next;
    }
    out
}

/// Valiant's asymmetric embedding pair for a normalized polynomial.
#[derive(Debug, Clone)]
pub struct ValiantEmbedding {
    poly: Polynomial,
    d: usize,
    embedded_dim: usize,
}

impl ValiantEmbedding {
    /// Build for points of dimension `d` and polynomial `p` with
    /// `sum |a_i| = 1` (asserted to 1e-9).
    pub fn new(d: usize, p: &Polynomial) -> Self {
        assert!(d > 0);
        let s = p.abs_coeff_sum();
        assert!(
            (s - 1.0).abs() < 1e-9,
            "Theorem 5.1 requires sum |a_i| = 1, got {s}"
        );
        let embedded_dim: usize = p
            .coeffs()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0.0)
            .map(|(i, _)| d.checked_pow(i as u32).expect("dimension overflow"))
            .sum();
        assert!(
            embedded_dim <= MAX_EMBEDDED_DIM,
            "embedded dimension {embedded_dim} too large; use tensor_sketch"
        );
        ValiantEmbedding {
            poly: p.clone(),
            d,
            embedded_dim,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.d
    }

    /// Embedded dimension `D = sum_{a_i != 0} d^i`.
    pub fn embedded_dim(&self) -> usize {
        self.embedded_dim
    }

    /// The polynomial.
    pub fn polynomial(&self) -> &Polynomial {
        &self.poly
    }

    /// Data-side map `phi_1`.
    pub fn phi1(&self, x: &DenseVector) -> DenseVector {
        self.embed(x.as_slice(), |a| a.abs().sqrt())
    }

    /// Query-side map `phi_2` (carries the coefficient signs).
    pub fn phi2(&self, y: &DenseVector) -> DenseVector {
        self.embed(y.as_slice(), |a| a / a.abs().sqrt())
    }

    /// [`ValiantEmbedding::phi1`] on a raw row.
    pub fn phi1_row(&self, x: &[f64]) -> DenseVector {
        self.embed(x, |a| a.abs().sqrt())
    }

    /// [`ValiantEmbedding::phi2`] on a raw row.
    pub fn phi2_row(&self, y: &[f64]) -> DenseVector {
        self.embed(y, |a| a / a.abs().sqrt())
    }

    fn embed(&self, x: &[f64], weight: impl Fn(f64) -> f64) -> DenseVector {
        assert_eq!(x.len(), self.d, "dimension mismatch");
        let mut out = Vec::with_capacity(self.embedded_dim);
        for (i, &a) in self.poly.coeffs().iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let w = weight(a);
            out.extend(tensor_power(x, i).into_iter().map(|v| v * w));
        }
        DenseVector::new(out)
    }
}

/// DSH family on `S^{d-1}` with CPF `sim(P(alpha))` where `sim` is the
/// SimHash similarity (Theorem 5.1 instantiated with Charikar's family).
#[derive(Debug, Clone)]
pub struct PolynomialSphereDsh {
    embedding: ValiantEmbedding,
    inner: SimHash,
}

impl PolynomialSphereDsh {
    /// Build for unit vectors in `R^d` and normalized polynomial `p`.
    pub fn new(d: usize, p: &Polynomial) -> Self {
        let embedding = ValiantEmbedding::new(d, p);
        let inner = SimHash::new(embedding.embedded_dim());
        PolynomialSphereDsh { embedding, inner }
    }

    /// The underlying embedding.
    pub fn embedding(&self) -> &ValiantEmbedding {
        &self.embedding
    }
}

impl DshFamily<[f64]> for PolynomialSphereDsh {
    fn sample(&self, rng: &mut dyn Rng) -> HasherPair<[f64]> {
        let pair = self.inner.sample(rng);
        let (s_data, s_query) = (pair.data, pair.query);
        let e1 = self.embedding.clone();
        let e2 = self.embedding.clone();
        HasherPair::from_fns(
            move |x: &[f64]| s_data.hash(e1.phi1_row(x).as_slice()),
            move |y: &[f64]| s_query.hash(e2.phi2_row(y).as_slice()),
        )
    }

    fn name(&self) -> String {
        format!("ValiantDsh[{}]", self.embedding.poly)
    }
}

impl AnalyticCpf for PolynomialSphereDsh {
    /// `arg` is the inner product `alpha in [-1, 1]`; CPF
    /// `sim(P(alpha)) = 1 - arccos(P(alpha)) / pi`.
    fn cpf(&self, alpha: f64) -> f64 {
        SimHash::sim(self.embedding.poly.eval(alpha))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::pair_with_inner_product;
    use dsh_core::estimate::CpfEstimator;
    use dsh_math::rng::seeded;

    /// The normalized polynomials plotted in the paper's Figure 4.
    ///
    /// Left pane: `t^2`, `-t^2`, `(-t^3 + t^2 - t)/3`; right pane:
    /// `(2t^2 - 1)/3`, `(4t^3 - 3t)/7`, `(8t^4 - 8t^2 + 1)/17`,
    /// `(16t^5 - 20t^3 + 5t)/41` (normalized Chebyshev polynomials).
    fn figure4_polynomials() -> Vec<(&'static str, Polynomial)> {
        vec![
            ("t^2", Polynomial::new(vec![0.0, 0.0, 1.0])),
            ("-t^2", Polynomial::new(vec![0.0, 0.0, -1.0])),
            (
                "(-t^3 + t^2 - t)/3",
                Polynomial::new(vec![0.0, -1.0 / 3.0, 1.0 / 3.0, -1.0 / 3.0]),
            ),
            (
                "(2t^2 - 1)/3",
                Polynomial::new(vec![-1.0 / 3.0, 0.0, 2.0 / 3.0]),
            ),
            (
                "(4t^3 - 3t)/7",
                Polynomial::new(vec![0.0, -3.0 / 7.0, 0.0, 4.0 / 7.0]),
            ),
            (
                "(8t^4 - 8t^2 + 1)/17",
                Polynomial::new(vec![1.0 / 17.0, 0.0, -8.0 / 17.0, 0.0, 8.0 / 17.0]),
            ),
            (
                "(16t^5 - 20t^3 + 5t)/41",
                Polynomial::new(vec![0.0, 5.0 / 41.0, 0.0, -20.0 / 41.0, 0.0, 16.0 / 41.0]),
            ),
        ]
    }

    #[test]
    fn tensor_power_basics() {
        assert_eq!(tensor_power(&[2.0, 3.0], 0), vec![1.0]);
        assert_eq!(tensor_power(&[2.0, 3.0], 1), vec![2.0, 3.0]);
        assert_eq!(tensor_power(&[2.0, 3.0], 2), vec![4.0, 6.0, 6.0, 9.0]);
        assert_eq!(tensor_power(&[2.0], 5), vec![32.0]);
    }

    #[test]
    fn tensor_power_inner_product_identity() {
        // <x^{(k)}, y^{(k)}> = <x, y>^k.
        let mut rng = seeded(131);
        let x = DenseVector::random_unit(&mut rng, 5);
        let y = DenseVector::random_unit(&mut rng, 5);
        for k in 0..4 {
            let xt = DenseVector::new(tensor_power(x.as_slice(), k));
            let yt = DenseVector::new(tensor_power(y.as_slice(), k));
            assert!((xt.dot(&yt) - x.dot(&y).powi(k as i32)).abs() < 1e-12);
        }
    }

    #[test]
    fn embedding_realizes_polynomial() {
        // <phi1(x), phi2(y)> = P(<x,y>) for every Figure 4 polynomial.
        let mut rng = seeded(132);
        let d = 5;
        for (name, p) in figure4_polynomials() {
            let emb = ValiantEmbedding::new(d, &p);
            for _ in 0..5 {
                let alpha = rngless_alpha(&mut rng);
                let (x, y) = pair_with_inner_product(&mut rng, d, alpha);
                let got = emb.phi1(&x).dot(&emb.phi2(&y));
                let want = p.eval(x.dot(&y));
                assert!((got - want).abs() < 1e-10, "{name}: got {got}, want {want}");
            }
        }
        fn rngless_alpha(rng: &mut dyn rand::Rng) -> f64 {
            rng.random::<f64>() * 1.8 - 0.9
        }
    }

    #[test]
    fn embeddings_are_unit_vectors() {
        let mut rng = seeded(133);
        let d = 4;
        for (_, p) in figure4_polynomials() {
            let emb = ValiantEmbedding::new(d, &p);
            let x = DenseVector::random_unit(&mut rng, d);
            assert!((emb.phi1(&x).norm() - 1.0).abs() < 1e-10);
            assert!((emb.phi2(&x).norm() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn cpf_matches_monte_carlo_for_t_squared() {
        let d = 5;
        let fam = PolynomialSphereDsh::new(d, &Polynomial::new(vec![0.0, 0.0, 1.0]));
        let mut rng = seeded(134);
        let alphas = [-0.7, 0.0, 0.7];
        let pairs: Vec<_> = alphas
            .iter()
            .map(|&a| pair_with_inner_product(&mut rng, d, a))
            .collect();
        let ests = CpfEstimator::new(40_000, 135).estimate_curve(&fam, &pairs);
        for (est, &alpha) in ests.iter().zip(&alphas) {
            let want = fam.cpf(alpha);
            assert!(
                est.contains(want),
                "alpha {alpha}: want {want:.4}, got {}",
                est.estimate
            );
        }
        // CPF is symmetric in alpha for the even polynomial t^2.
        assert!((fam.cpf(0.5) - fam.cpf(-0.5)).abs() < 1e-12);
    }

    #[test]
    fn negative_polynomial_flips_the_curve() {
        let d = 4;
        let plus = PolynomialSphereDsh::new(d, &Polynomial::new(vec![0.0, 0.0, 1.0]));
        let minus = PolynomialSphereDsh::new(d, &Polynomial::new(vec![0.0, 0.0, -1.0]));
        // sim(-v) = 1 - sim(v).
        for &alpha in &[-0.8, 0.0, 0.6] {
            assert!((plus.cpf(alpha) + minus.cpf(alpha) - 1.0).abs() < 1e-12);
        }
        // -t^2 gives a CPF maximized at alpha = 0 (orthogonal vectors!) —
        // the hyperplane-query shape of §6.1.
        assert!(minus.cpf(0.0) > minus.cpf(0.7));
        assert!(minus.cpf(0.0) > minus.cpf(-0.7));
    }

    #[test]
    fn chebyshev_cpf_estimate() {
        // (2t^2-1)/3: mixed-sign coefficients exercise both weight maps.
        let d = 4;
        let p = Polynomial::new(vec![-1.0 / 3.0, 0.0, 2.0 / 3.0]);
        let fam = PolynomialSphereDsh::new(d, &p);
        let mut rng = seeded(136);
        let (x, y) = pair_with_inner_product(&mut rng, d, 0.5);
        let est = CpfEstimator::new(40_000, 137).estimate_pair(&fam, &x, &y);
        assert!(
            est.contains(fam.cpf(0.5)),
            "want {}, got {}",
            fam.cpf(0.5),
            est.estimate
        );
    }

    #[test]
    #[should_panic(expected = "sum |a_i| = 1")]
    fn unnormalized_polynomial_rejected() {
        let _ = ValiantEmbedding::new(4, &Polynomial::new(vec![0.0, 2.0]));
    }

    #[test]
    fn embedded_dim_accounting() {
        // P = (t + t^3)/2 over d = 3: D = 3 + 27 = 30.
        let emb = ValiantEmbedding::new(3, &Polynomial::new(vec![0.0, 0.5, 0.0, 0.5]));
        assert_eq!(emb.embedded_dim(), 30);
        assert_eq!(emb.input_dim(), 3);
    }
}
