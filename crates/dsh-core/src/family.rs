//! The [`DshFamily`] trait: distributions over pairs of hash functions.
//!
//! Definition 1.1 of the paper: a DSH scheme is a distribution over pairs
//! `(h, g)` of functions. Data points are hashed with `h`, query points
//! with `g`; the scheme's behaviour is entirely described by its collision
//! probability function `f(dist(x, y)) = Pr[h(x) = g(y)]`.

use crate::hash::combine;
use crate::points::AsRow;
use rand::Rng;
use std::sync::Arc;

/// A sampled hash function mapping points of type `P` to 64-bit values.
///
/// Implementations are immutable once sampled; all randomness is consumed
/// at sampling time (matching the paper's model where `(h, g)` is drawn
/// once and then evaluated deterministically).
pub trait PointHasher<P: ?Sized>: Send + Sync {
    /// Evaluate the hash function on a point.
    fn hash(&self, x: &P) -> u64;

    /// Evaluate the hash function on a block of points:
    /// `out[i] = hash(rows[i])`, bit for bit, for every `i` both slices
    /// hold. The default is that loop. A function whose evaluation
    /// derives something that does not depend on the point (the caps of
    /// a filter hasher) overrides it to derive that once per block; the
    /// index's bulk builds and batched queries evaluate through here.
    fn hash_many(&self, rows: &[&P], out: &mut [u64]) {
        for (o, x) in out.iter_mut().zip(rows) {
            *o = self.hash(x);
        }
    }
}

/// Wrap a closure as a [`PointHasher`].
pub struct FnHasher<F>(pub F);

impl<P: ?Sized, F: Fn(&P) -> u64 + Send + Sync> PointHasher<P> for FnHasher<F> {
    fn hash(&self, x: &P) -> u64 {
        (self.0)(x)
    }
}

/// Where a [`ChainHasher`] starts its fold: a constant, or the value of
/// a leading hasher.
enum ChainStart<P: ?Sized> {
    Value(u64),
    Hasher(Arc<dyn PointHasher<P>>),
}

/// Folds the values of `rest` onto `start`, left to right with
/// [`combine`] — the hasher behind every composite pair
/// ([`HasherPair::chain`], [`HasherPair::then`]). A block is folded part
/// by part, so each part is handed the whole block.
struct ChainHasher<P: ?Sized> {
    start: ChainStart<P>,
    rest: Vec<Arc<dyn PointHasher<P>>>,
}

impl<P: ?Sized> PointHasher<P> for ChainHasher<P> {
    fn hash(&self, x: &P) -> u64 {
        let start = match &self.start {
            ChainStart::Value(v) => *v,
            ChainStart::Hasher(h) => h.hash(x),
        };
        self.rest
            .iter()
            .fold(start, |acc, h| combine(acc, h.hash(x)))
    }

    fn hash_many(&self, rows: &[&P], out: &mut [u64]) {
        match &self.start {
            ChainStart::Value(v) => out.fill(*v),
            ChainStart::Hasher(h) => h.hash_many(rows, out),
        }
        let mut values = vec![0; out.len()];
        for h in &self.rest {
            h.hash_many(rows, &mut values);
            for (acc, &v) in out.iter_mut().zip(&values) {
                *acc = combine(*acc, v);
            }
        }
    }
}

/// A sampled `(h, g)` pair. `data` plays the role of `h` (applied to data
/// set points), `query` the role of `g` (applied to query points).
pub struct HasherPair<P: ?Sized> {
    /// The data-side function `h`.
    pub data: Arc<dyn PointHasher<P>>,
    /// The query-side function `g`.
    pub query: Arc<dyn PointHasher<P>>,
}

// Manual impl: `derive(Clone)` would demand `P: Clone`, but cloning only
// bumps the two `Arc`s — row types like `[u64]` are unsized and must not
// be required to be `Clone`.
impl<P: ?Sized> Clone for HasherPair<P> {
    fn clone(&self) -> Self {
        HasherPair {
            data: Arc::clone(&self.data),
            query: Arc::clone(&self.query),
        }
    }
}

impl<P: ?Sized> HasherPair<P> {
    /// Build from two hashers.
    pub fn new(data: impl PointHasher<P> + 'static, query: impl PointHasher<P> + 'static) -> Self {
        HasherPair {
            data: Arc::new(data),
            query: Arc::new(query),
        }
    }

    /// Build a symmetric pair `h = g` (the classical LSH case).
    pub fn symmetric(h: impl PointHasher<P> + 'static) -> Self {
        let h: Arc<dyn PointHasher<P>> = Arc::new(h);
        HasherPair {
            data: Arc::clone(&h),
            query: h,
        }
    }

    /// Build from two closures.
    pub fn from_fns(
        data: impl Fn(&P) -> u64 + Send + Sync + 'static,
        query: impl Fn(&P) -> u64 + Send + Sync + 'static,
    ) -> Self {
        HasherPair::new(FnHasher(data), FnHasher(query))
    }

    /// The pair whose two sides fold the values of the same side of
    /// `parts`, in order, onto `start` with [`combine`]. From
    /// [`crate::hash::CHAIN_IV`] that is [`crate::hash::combine_iter`]
    /// over the parts: the sides collide iff every part does (up to the
    /// `2^-64` mixer collisions).
    pub fn chain(start: u64, parts: impl IntoIterator<Item = HasherPair<P>>) -> Self
    where
        P: 'static,
    {
        let (data, query) = parts.into_iter().map(|p| (p.data, p.query)).unzip();
        let side = |rest| ChainHasher {
            start: ChainStart::Value(start),
            rest,
        };
        HasherPair::new(side(data), side(query))
    }

    /// The pair `x -> combine(self(x), next(x))` on either side: the
    /// two-part chain that starts from `self`'s value instead of a
    /// constant.
    pub fn then(self, next: HasherPair<P>) -> Self
    where
        P: 'static,
    {
        let side = |first, second| ChainHasher {
            start: ChainStart::Hasher(first),
            rest: vec![second],
        };
        HasherPair::new(side(self.data, next.data), side(self.query, next.query))
    }

    /// Whether data point `x` and query point `y` collide: `h(x) == g(y)`.
    ///
    /// Accepts anything whose [`AsRow`] row is `P`: owned points
    /// ([`crate::points::BitVector`] / [`crate::points::DenseVector`]),
    /// store row views, or raw rows themselves.
    pub fn collides<X, Y>(&self, x: &X, y: &Y) -> bool
    where
        X: AsRow<Row = P> + ?Sized,
        Y: AsRow<Row = P> + ?Sized,
    {
        self.data.hash(x.as_row()) == self.query.hash(y.as_row())
    }

    /// Swap the roles of `h` and `g`. If the original family has CPF
    /// `f(dist(x, y))`, the swapped family has the CPF with the roles of
    /// data and query exchanged (identical for the isometric families in
    /// this workspace, since `dist` is symmetric).
    pub fn swapped(self) -> Self {
        HasherPair {
            data: self.query,
            query: self.data,
        }
    }
}

/// A distance-sensitive family: a distribution over [`HasherPair`]s
/// (Definition 1.1). Implementors must consume randomness only from the
/// provided RNG so that experiments are reproducible.
///
/// ```
/// use dsh_core::family::{DshFamily, HasherPair};
/// use rand::Rng;
///
/// /// Collides iff the points agree modulo a random modulus in 2..=5:
/// /// a toy family whose CPF depends on the pair of points.
/// struct ModFamily;
/// impl DshFamily<u64> for ModFamily {
///     fn sample(&self, rng: &mut dyn Rng) -> HasherPair<u64> {
///         let m = 2 + rng.next_u64() % 4;
///         HasherPair::from_fns(move |x: &u64| x % m, move |y: &u64| y % m)
///     }
/// }
///
/// let mut rng = dsh_math::rng::seeded(1);
/// let pair = ModFamily.sample(&mut rng);
/// assert!(pair.collides(&12u64, &12u64));
/// ```
pub trait DshFamily<P: ?Sized>: Send + Sync {
    /// Draw one `(h, g)` pair.
    fn sample(&self, rng: &mut dyn Rng) -> HasherPair<P>;

    /// Human-readable name used in reports and benchmark tables.
    fn name(&self) -> String {
        let full = std::any::type_name::<Self>();
        full.rsplit("::").next().unwrap_or(full).to_string()
    }
}

/// A boxed, dynamically typed family.
pub type BoxedDshFamily<P> = Box<dyn DshFamily<P>>;

impl<P: ?Sized> DshFamily<P> for BoxedDshFamily<P> {
    fn sample(&self, rng: &mut dyn Rng) -> HasherPair<P> {
        (**self).sample(rng)
    }
    fn name(&self) -> String {
        (**self).name()
    }
}

impl<P: ?Sized, F: DshFamily<P> + ?Sized> DshFamily<P> for &F {
    fn sample(&self, rng: &mut dyn Rng) -> HasherPair<P> {
        (**self).sample(rng)
    }
    fn name(&self) -> String {
        (**self).name()
    }
}

impl<P: ?Sized, F: DshFamily<P> + ?Sized> DshFamily<P> for Arc<F> {
    fn sample(&self, rng: &mut dyn Rng) -> HasherPair<P> {
        (**self).sample(rng)
    }
    fn name(&self) -> String {
        (**self).name()
    }
}

/// Adapter turning a sampler of single functions into a **symmetric**
/// family (`h = g`): the classical LSH view. Used by SimHash, bit-sampling,
/// cross-polytope LSH, etc.
pub struct SymmetricFamily<S> {
    sampler: S,
    label: String,
}

impl<S> SymmetricFamily<S> {
    /// Build from a function-sampler and a display label.
    pub fn new(label: impl Into<String>, sampler: S) -> Self {
        SymmetricFamily {
            sampler,
            label: label.into(),
        }
    }
}

impl<P, S, H> DshFamily<P> for SymmetricFamily<S>
where
    P: ?Sized,
    S: Fn(&mut dyn Rng) -> H + Send + Sync,
    H: PointHasher<P> + 'static,
{
    fn sample(&self, rng: &mut dyn Rng) -> HasherPair<P> {
        HasherPair::symmetric((self.sampler)(rng))
    }
    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    struct ParityHasher;
    impl PointHasher<u64> for ParityHasher {
        fn hash(&self, x: &u64) -> u64 {
            x & 1
        }
    }

    #[test]
    fn hasher_pair_collides() {
        let pair = HasherPair::new(ParityHasher, ParityHasher);
        assert!(pair.collides(&2u64, &4u64));
        assert!(!pair.collides(&2u64, &3u64));
    }

    #[test]
    fn symmetric_shares_function() {
        let pair = HasherPair::<u64>::symmetric(ParityHasher);
        assert_eq!(pair.data.hash(&7), pair.query.hash(&7));
    }

    #[test]
    fn from_fns_and_swapped() {
        let pair = HasherPair::<u64>::from_fns(|x| *x, |x| x + 1);
        // h(x) = x, g(y) = y + 1: x collides with y iff x = y + 1.
        assert!(pair.collides(&5u64, &4u64));
        assert!(!pair.collides(&5u64, &5u64));
        let sw = pair.swapped();
        assert!(sw.collides(&4u64, &5u64));
    }

    struct RandomSignFamily;
    impl DshFamily<u64> for RandomSignFamily {
        fn sample(&self, rng: &mut dyn Rng) -> HasherPair<u64> {
            let flip: bool = rng.random_bool(0.5);
            HasherPair::from_fns(move |x| x ^ (flip as u64), |y| *y)
        }
    }

    #[test]
    fn family_sampling_uses_rng() {
        let fam = RandomSignFamily;
        let mut rng = StdRng::seed_from_u64(3);
        let mut outcomes = std::collections::HashSet::new();
        for _ in 0..32 {
            let pair = fam.sample(&mut rng);
            outcomes.insert(pair.collides(&0u64, &0u64));
        }
        // Both collide and non-collide outcomes occur.
        assert_eq!(outcomes.len(), 2);
    }

    #[test]
    fn boxed_family_delegates() {
        let boxed: BoxedDshFamily<u64> = Box::new(RandomSignFamily);
        let mut rng = StdRng::seed_from_u64(5);
        let _ = boxed.sample(&mut rng);
        assert_eq!(boxed.name(), "RandomSignFamily");
    }

    #[test]
    fn symmetric_family_adapter() {
        let fam = SymmetricFamily::new("parity", |_rng: &mut dyn Rng| ParityHasher);
        let mut rng = StdRng::seed_from_u64(1);
        let pair = fam.sample(&mut rng);
        assert!(pair.collides(&2u64, &2u64));
        assert_eq!(DshFamily::<u64>::name(&fam), "parity");
    }
}
