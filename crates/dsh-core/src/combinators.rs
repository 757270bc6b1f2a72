//! CPF combinators — Lemma 1.4 of the paper.
//!
//! Given families with CPFs `f_1, ..., f_n`:
//!
//! * [`Concat`] realizes the product CPF `f(x) = prod_i f_i(x)`
//!   (Lemma 1.4(a)); [`Power`] is the special case `f^k` ("powering",
//!   used by Theorem 6.1 to push collision probabilities below `1/n`);
//! * [`Mixture`] realizes the convex combination
//!   `f(x) = sum_i p_i f_i(x)` (Lemma 1.4(b)), the tool that assembles
//!   step-function CPFs out of unimodal ones (Figure 2);
//! * [`AlwaysCollide`] / [`NeverCollide`] are the constant CPFs `1` and
//!   `0`, from which [`affine`] derives arbitrary affine re-scalings
//!   `a * f + b` — the "scaled and biased" variations that Theorem 5.2's
//!   proof introduces for bit-sampling.

use crate::family::{BoxedDshFamily, DshFamily, HasherPair};
use crate::hash::CHAIN_IV;
use crate::points::AsRow;
use rand::Rng;

/// Concatenation (Lemma 1.4(a)): collides iff all parts collide, so the
/// CPF is the product of the parts' CPFs.
///
/// ```
/// use dsh_core::combinators::{AlwaysCollide, Concat, NeverCollide};
/// use dsh_core::family::DshFamily;
///
/// // 1 * 0 = 0: concatenating with NeverCollide kills every collision.
/// let fam: Concat<u64> = Concat::new(vec![
///     Box::new(AlwaysCollide),
///     Box::new(NeverCollide),
/// ]);
/// let mut rng = dsh_math::rng::seeded(7);
/// assert!(!fam.sample(&mut rng).collides(&1u64, &1u64));
/// ```
pub struct Concat<P: ?Sized> {
    parts: Vec<BoxedDshFamily<P>>,
}

impl<P: ?Sized> Concat<P> {
    /// Build from the constituent families. Panics if empty.
    pub fn new(parts: Vec<BoxedDshFamily<P>>) -> Self {
        assert!(!parts.is_empty(), "Concat requires at least one part");
        Concat { parts }
    }

    /// Number of constituent families.
    pub fn arity(&self) -> usize {
        self.parts.len()
    }
}

impl<P: ?Sized + 'static> DshFamily<P> for Concat<P> {
    fn sample(&self, rng: &mut dyn Rng) -> HasherPair<P> {
        HasherPair::chain(CHAIN_IV, self.parts.iter().map(|f| f.sample(rng)))
    }

    fn name(&self) -> String {
        format!(
            "Concat[{}]",
            self.parts
                .iter()
                .map(|p| DshFamily::name(p))
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

/// Powering (Lemma 1.4(a) with a single family): CPF `f^k`.
pub struct Power<F> {
    family: F,
    k: usize,
}

impl<F> Power<F> {
    /// `k`-fold concatenation of `family` with itself. Panics if `k == 0`.
    pub fn new(family: F, k: usize) -> Self {
        assert!(k >= 1, "Power requires k >= 1");
        Power { family, k }
    }

    /// The exponent `k`.
    pub fn exponent(&self) -> usize {
        self.k
    }
}

impl<P: ?Sized + 'static, F: DshFamily<P>> DshFamily<P> for Power<F> {
    fn sample(&self, rng: &mut dyn Rng) -> HasherPair<P> {
        HasherPair::chain(CHAIN_IV, (0..self.k).map(|_| self.family.sample(rng)))
    }

    fn name(&self) -> String {
        format!("{}^{}", self.family.name(), self.k)
    }
}

/// Mixture (Lemma 1.4(b)): sample family `i` with probability `p_i` and tag
/// hash values with `i`, so the CPF is `sum_i p_i f_i(x)`.
pub struct Mixture<P: ?Sized> {
    items: Vec<(f64, BoxedDshFamily<P>)>,
}

impl<P: ?Sized> Mixture<P> {
    /// Build from `(probability, family)` pairs. Probabilities must be
    /// nonnegative and sum to 1 (within 1e-9).
    pub fn new(items: Vec<(f64, BoxedDshFamily<P>)>) -> Self {
        assert!(!items.is_empty(), "Mixture requires at least one item");
        assert!(
            items.iter().all(|(p, _)| *p >= 0.0),
            "mixture weights must be nonnegative"
        );
        let total: f64 = items.iter().map(|(p, _)| p).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "mixture weights must sum to 1, got {total}"
        );
        Mixture { items }
    }

    /// Number of mixture components.
    pub fn arity(&self) -> usize {
        self.items.len()
    }
}

impl<P: ?Sized + 'static> DshFamily<P> for Mixture<P> {
    fn sample(&self, rng: &mut dyn Rng) -> HasherPair<P> {
        let u: f64 = rng.random();
        let mut acc = 0.0;
        let mut chosen = self.items.len() - 1;
        for (i, (p, _)) in self.items.iter().enumerate() {
            acc += p;
            if u < acc {
                chosen = i;
                break;
            }
        }
        HasherPair::chain(chosen as u64, [self.items[chosen].1.sample(rng)])
    }

    fn name(&self) -> String {
        format!(
            "Mixture[{}]",
            self.items
                .iter()
                .map(|(p, f)| format!("{:.3}*{}", p, f.name()))
                .collect::<Vec<_>>()
                .join(" + ")
        )
    }
}

/// The constant CPF `f = 1`: every pair of points collides.
pub struct AlwaysCollide;

impl<P: ?Sized + 'static> DshFamily<P> for AlwaysCollide {
    fn sample(&self, _rng: &mut dyn Rng) -> HasherPair<P> {
        HasherPair::from_fns(|_x: &P| 0, |_y: &P| 0)
    }
    fn name(&self) -> String {
        "Always".into()
    }
}

/// The constant CPF `f = 0`: no pair of points ever collides (`h` and `g`
/// have disjoint ranges, like the `m+1` / `m+2` sentinel values in the
/// paper's filter construction).
pub struct NeverCollide;

impl<P: ?Sized + 'static> DshFamily<P> for NeverCollide {
    fn sample(&self, _rng: &mut dyn Rng) -> HasherPair<P> {
        HasherPair::from_fns(|_x: &P| 0, |_y: &P| 1)
    }
    fn name(&self) -> String {
        "Never".into()
    }
}

/// Affine CPF rescaling: from a family with CPF `f`, build one with CPF
/// `a * f + b` (requires `a, b >= 0`, `a + b <= 1`). Realized as the
/// mixture `a * f + b * Always + (1 - a - b) * Never`.
pub fn affine<P: ?Sized + 'static>(family: BoxedDshFamily<P>, a: f64, b: f64) -> Mixture<P> {
    assert!(
        a >= 0.0 && b >= 0.0 && a + b <= 1.0 + 1e-12,
        "invalid affine map ({a}, {b})"
    );
    let rest = (1.0 - a - b).max(0.0);
    Mixture::new(vec![
        (a, family),
        (b, Box::new(AlwaysCollide)),
        (rest, Box::new(NeverCollide)),
    ])
}

/// CPF scaling `gamma * f` (Lemma 1.4(b) with a [`NeverCollide`] pad).
pub fn scaled<P: ?Sized + 'static>(family: BoxedDshFamily<P>, gamma: f64) -> Mixture<P> {
    affine(family, gamma, 0.0)
}

/// Precompose a family with a point transformation: if `inner` is a family
/// over `Q` with CPF `f(dist_Q)`, then `MapPoints` is a family over `P`
/// whose CPF at `(x, y)` is `f(dist_Q(map(x), map(y)))`.
///
/// This is how the paper transfers constructions between spaces: the
/// hypercube-corner embedding `{0,1}^d -> S^{d-1}` (§4.1's comparison of
/// anti bit-sampling with sphere constructions) and Valiant's polynomial
/// embeddings (Theorem 5.1) are both instances.
pub struct MapPoints<F, M> {
    inner: F,
    map: std::sync::Arc<M>,
    label: String,
}

impl<F, M> MapPoints<F, M> {
    /// Compose `inner` with `map` (applied to both data and query points).
    pub fn new(label: impl Into<String>, inner: F, map: M) -> Self {
        MapPoints {
            inner,
            map: std::sync::Arc::new(map),
            label: label.into(),
        }
    }
}

/// `MapPoints` with distinct data-side and query-side transformations —
/// the fully asymmetric version needed by Valiant's pair of embeddings
/// `phi_1, phi_2` (Theorem 5.1).
pub struct MapPointsAsym<F, M1, M2> {
    inner: F,
    map_data: std::sync::Arc<M1>,
    map_query: std::sync::Arc<M2>,
    label: String,
}

impl<F, M1, M2> MapPointsAsym<F, M1, M2> {
    /// Compose `inner` with `map_data` on the data side and `map_query` on
    /// the query side.
    pub fn new(label: impl Into<String>, inner: F, map_data: M1, map_query: M2) -> Self {
        MapPointsAsym {
            inner,
            map_data: std::sync::Arc::new(map_data),
            map_query: std::sync::Arc::new(map_query),
            label: label.into(),
        }
    }
}

impl<P, Q, F, M> DshFamily<P> for MapPoints<F, M>
where
    P: ?Sized + 'static,
    Q: AsRow + 'static,
    F: DshFamily<Q::Row>,
    M: Fn(&P) -> Q + Send + Sync + 'static,
{
    fn sample(&self, rng: &mut dyn Rng) -> HasherPair<P> {
        let pair = self.inner.sample(rng);
        let (d, q) = (pair.data, pair.query);
        let md = self.map.clone();
        let mq = self.map.clone();
        HasherPair::from_fns(
            move |x: &P| d.hash(md(x).as_row()),
            move |y: &P| q.hash(mq(y).as_row()),
        )
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

impl<P, Q, F, M1, M2> DshFamily<P> for MapPointsAsym<F, M1, M2>
where
    P: ?Sized + 'static,
    Q: AsRow + 'static,
    F: DshFamily<Q::Row>,
    M1: Fn(&P) -> Q + Send + Sync + 'static,
    M2: Fn(&P) -> Q + Send + Sync + 'static,
{
    fn sample(&self, rng: &mut dyn Rng) -> HasherPair<P> {
        let pair = self.inner.sample(rng);
        let (d, q) = (pair.data, pair.query);
        let md = self.map_data.clone();
        let mq = self.map_query.clone();
        HasherPair::from_fns(
            move |x: &P| d.hash(md(x).as_row()),
            move |y: &P| q.hash(mq(y).as_row()),
        )
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::CpfEstimator;
    use crate::family::SymmetricFamily;
    use crate::points::BitVector;

    /// Bit-sampling on `{0,1}^d` rows: CPF `1 - t` in relative Hamming
    /// distance.
    fn bit_sampling(d: usize) -> impl DshFamily<[u64]> {
        SymmetricFamily::new("bits", move |rng: &mut dyn Rng| {
            let i = rng.random_range(0..d);
            crate::family::FnHasher(move |x: &[u64]| crate::points::get_bit(x, i) as u64)
        })
    }

    fn test_points(d: usize, dist: usize) -> (BitVector, BitVector) {
        let x = BitVector::zeros(d);
        let mut y = BitVector::zeros(d);
        for i in 0..dist {
            y.set(i, true);
        }
        (x, y)
    }

    #[test]
    fn concat_multiplies_cpfs() {
        let d = 100;
        let fam = Concat::new(vec![Box::new(bit_sampling(d)), Box::new(bit_sampling(d))]);
        let (x, y) = test_points(d, 30); // f = 0.7 each, product 0.49
        let est = CpfEstimator::new(40_000, 1234).estimate_pair(&fam, &x, &y);
        assert!(
            est.contains(0.49),
            "got {} in [{},{}]",
            est.estimate,
            est.lo,
            est.hi
        );
    }

    #[test]
    fn power_exponentiates() {
        let d = 100;
        let fam = Power::new(bit_sampling(d), 3);
        let (x, y) = test_points(d, 20); // 0.8^3 = 0.512
        let est = CpfEstimator::new(40_000, 99).estimate_pair(&fam, &x, &y);
        assert!(est.contains(0.8f64.powi(3)), "got {}", est.estimate);
        assert_eq!(fam.exponent(), 3);
    }

    #[test]
    fn mixture_averages() {
        let d = 100;
        let fam = Mixture::new(vec![
            (0.5, Box::new(bit_sampling(d)) as BoxedDshFamily<[u64]>),
            (0.5, Box::new(NeverCollide)),
        ]);
        let (x, y) = test_points(d, 40); // 0.5 * 0.6 = 0.3
        let est = CpfEstimator::new(40_000, 7).estimate_pair(&fam, &x, &y);
        assert!(est.contains(0.3), "got {}", est.estimate);
    }

    #[test]
    fn always_and_never() {
        let d = 10;
        let (x, y) = test_points(d, 5);
        let mut rng = dsh_math::rng::seeded(1);
        let a = DshFamily::<[u64]>::sample(&AlwaysCollide, &mut rng);
        assert!(a.collides(&x, &y));
        assert!(a.collides(&x, &x));
        let n = DshFamily::<[u64]>::sample(&NeverCollide, &mut rng);
        assert!(!n.collides(&x, &y));
        assert!(
            !n.collides(&x, &x),
            "NeverCollide must not collide even at distance 0"
        );
    }

    #[test]
    fn affine_rescales_cpf() {
        let d = 100;
        // CPF = 0.5 * (1 - t) + 0.25.
        let fam = affine(Box::new(bit_sampling(d)), 0.5, 0.25);
        let (x, y) = test_points(d, 60); // 0.5*0.4 + 0.25 = 0.45
        let est = CpfEstimator::new(40_000, 11).estimate_pair(&fam, &x, &y);
        assert!(est.contains(0.45), "got {}", est.estimate);
    }

    #[test]
    fn scaled_shrinks_cpf() {
        let d = 50;
        let fam = scaled(Box::new(bit_sampling(d)), 0.1);
        let (x, y) = test_points(d, 0); // 0.1 * 1.0
        let est = CpfEstimator::new(40_000, 13).estimate_pair(&fam, &x, &y);
        assert!(est.contains(0.1), "got {}", est.estimate);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn mixture_rejects_bad_weights() {
        let _ = Mixture::<[u64]>::new(vec![
            (0.5, Box::new(AlwaysCollide) as BoxedDshFamily<[u64]>),
            (0.2, Box::new(NeverCollide)),
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn concat_rejects_empty() {
        let _ = Concat::<[u64]>::new(vec![]);
    }

    #[test]
    fn names_are_descriptive() {
        let d = 10;
        let c = Concat::new(vec![
            Box::new(bit_sampling(d)) as BoxedDshFamily<[u64]>,
            Box::new(AlwaysCollide),
        ]);
        assert_eq!(c.name(), "Concat[bits, Always]");
        assert_eq!(c.arity(), 2);
        let p = Power::new(bit_sampling(d), 4);
        assert_eq!(DshFamily::<[u64]>::name(&p), "bits^4");
    }
}
