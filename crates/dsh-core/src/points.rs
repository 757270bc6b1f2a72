//! Point types and the flat point-storage layer.
//!
//! Two owned point types — packed [`BitVector`] for Hamming space
//! `{0,1}^d` and [`DenseVector`] for `R^d` / the unit sphere `S^{d-1}` —
//! plus the contiguous stores the index substrate is built on:
//!
//! * slice **kernels** ([`dot`], [`euclidean`], [`hamming`]) operating on
//!   raw rows (`[f64]` / `[u64]`), with blocked batch variants
//!   ([`DenseStore::dot_many`], [`BitStore::hamming_many`]) that verify a
//!   whole candidate list against contiguous rows in one pass;
//! * the [`AsRow`] bridge from owned points to their borrowed row type;
//! * the [`PointStore`] trait over row-addressable, append-only point
//!   collections, with [`DenseStore`] (row-major `Vec<f64>`) and
//!   [`BitStore`] (contiguous `Vec<u64>` blocks) as the flat
//!   implementations, each with its closed set of exact measures
//!   ([`DenseMetric`], [`BitMetric`]) evaluated per row or through its
//!   batch kernels;
//! * the snapshot-friendly [`ChunkedStore`] wrapper: frozen `Arc`-shared
//!   chunks plus a small mutable tail, so cloning a store for an
//!   immutable snapshot costs the tail, not the dataset — the storage
//!   contract of the concurrent sharded serving layer.

use rand::Rng;
use std::ops::Range;
use std::sync::Arc;

/// A point of `{0,1}^d`, bit-packed into 64-bit blocks.
///
/// ```
/// use dsh_core::points::BitVector;
/// let mut x = BitVector::zeros(100);
/// x.set(3, true);
/// x.flip(99);
/// let y = BitVector::zeros(100);
/// assert_eq!(x.hamming(&y), 2);
/// assert!((x.relative_hamming(&y) - 0.02).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVector {
    blocks: Vec<u64>,
    len: usize,
}

impl BitVector {
    /// The all-zeros vector of dimension `d`.
    pub fn zeros(d: usize) -> Self {
        BitVector {
            blocks: vec![0; d.div_ceil(64)],
            len: d,
        }
    }

    /// The all-ones vector of dimension `d`: whole blocks filled with
    /// `!0`, tail bits beyond `d` masked back to zero (the invariant
    /// `Eq`/`Hash`/[`BitVector::hamming`] rely on).
    pub fn ones(d: usize) -> Self {
        let mut v = BitVector {
            blocks: vec![!0u64; d.div_ceil(64)],
            len: d,
        };
        v.mask_tail();
        v
    }

    /// Build from a boolean slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = BitVector::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            v.set(i, b);
        }
        v
    }

    /// A uniformly random point of `{0,1}^d`.
    pub fn random(rng: &mut dyn Rng, d: usize) -> Self {
        let mut blocks = vec![0u64; d.div_ceil(64)];
        for b in &mut blocks {
            *b = rng.next_u64();
        }
        let mut v = BitVector { blocks, len: d };
        v.mask_tail();
        v
    }

    /// Dimension `d`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff `d == 0`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Get bit `i`.
    pub fn get(&self, i: usize) -> bool {
        // lint: allow(panic) — name-resolution false positive (reached by name from the walk's `HashMap::get`); callers bound the bit index by the dimension
        assert!(
            i < self.len,
            "bit index {i} out of range (d = {})",
            self.len
        );
        (self.blocks[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range (d = {})",
            self.len
        );
        let mask = 1u64 << (i % 64);
        if value {
            self.blocks[i / 64] |= mask;
        } else {
            self.blocks[i / 64] &= !mask;
        }
    }

    /// Flip bit `i`.
    pub fn flip(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit index {i} out of range (d = {})",
            self.len
        );
        self.blocks[i / 64] ^= 1u64 << (i % 64);
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> u64 {
        self.blocks.iter().map(|b| b.count_ones() as u64).sum()
    }

    /// The packed blocks (the vector's row in a [`BitStore`]-compatible
    /// layout): bit `i` is `blocks[i / 64] >> (i % 64) & 1`, tail bits
    /// beyond `len` are zero.
    pub fn as_blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Rebuild from packed blocks (the inverse of
    /// [`BitVector::as_blocks`]). Tail bits beyond `len` are masked to
    /// zero; `blocks.len()` must be exactly `len.div_ceil(64)`.
    pub fn from_blocks(blocks: Vec<u64>, len: usize) -> Self {
        assert_eq!(blocks.len(), len.div_ceil(64), "block count mismatch");
        let mut v = BitVector { blocks, len };
        v.mask_tail();
        v
    }

    /// Hamming distance `||x - y||_1` to another vector of equal dimension.
    pub fn hamming(&self, other: &BitVector) -> u64 {
        assert_eq!(self.len, other.len, "dimension mismatch");
        hamming(&self.blocks, &other.blocks)
    }

    /// Relative Hamming distance `||x - y||_1 / d` in `[0, 1]`.
    pub fn relative_hamming(&self, other: &BitVector) -> f64 {
        assert!(self.len > 0, "relative distance undefined in dimension 0");
        self.hamming(other) as f64 / self.len as f64
    }

    /// Componentwise complement.
    pub fn complement(&self) -> BitVector {
        let mut v = BitVector {
            blocks: self.blocks.iter().map(|b| !b).collect(),
            len: self.len,
        };
        v.mask_tail();
        v
    }

    /// Map to a scaled hypercube corner on the unit sphere:
    /// bit `b_i` becomes `(2 b_i - 1) / sqrt(d)`. This is the standard
    /// embedding the paper uses to transfer Hamming results to `S^{d-1}`
    /// (§1.1.1: "unit vectors up to a scaling factor sqrt(d)").
    pub fn to_unit_vector(&self) -> DenseVector {
        assert!(self.len > 0);
        let s = 1.0 / (self.len as f64).sqrt();
        DenseVector::new(
            (0..self.len)
                .map(|i| if self.get(i) { s } else { -s })
                .collect(),
        )
    }

    /// Zero out bits beyond `len` in the last block (keeps equality and
    /// popcount honest after complement/random fills).
    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// A point of `R^d`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseVector {
    components: Vec<f64>,
}

impl DenseVector {
    /// Build from components.
    pub fn new(components: Vec<f64>) -> Self {
        DenseVector { components }
    }

    /// The zero vector of dimension `d`.
    pub fn zeros(d: usize) -> Self {
        DenseVector {
            components: vec![0.0; d],
        }
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.components.len()
    }

    /// Component access.
    pub fn as_slice(&self) -> &[f64] {
        &self.components
    }

    /// Inner product with another vector of equal dimension. Delegates to
    /// the slice kernel [`dot`], so owned vectors and store rows produce
    /// bit-identical values.
    pub fn dot(&self, other: &DenseVector) -> f64 {
        dot(&self.components, &other.components)
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Euclidean distance to another vector. Delegates to the slice kernel
    /// [`euclidean`].
    pub fn euclidean(&self, other: &DenseVector) -> f64 {
        euclidean(&self.components, &other.components)
    }

    /// Scale by a constant.
    pub fn scaled(&self, s: f64) -> DenseVector {
        DenseVector::new(self.components.iter().map(|c| c * s).collect())
    }

    /// Negation (the paper's "negate the query point" trick).
    pub fn negated(&self) -> DenseVector {
        self.scaled(-1.0)
    }

    /// Vector sum.
    pub fn add(&self, other: &DenseVector) -> DenseVector {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        DenseVector::new(
            self.components
                .iter()
                .zip(&other.components)
                .map(|(a, b)| a + b)
                .collect(),
        )
    }

    /// Vector difference `self - other`.
    pub fn sub(&self, other: &DenseVector) -> DenseVector {
        self.add(&other.negated())
    }

    /// Normalize onto the unit sphere. Panics on the zero vector.
    pub fn normalized(&self) -> DenseVector {
        let n = self.norm();
        assert!(n > 0.0, "cannot normalize the zero vector");
        self.scaled(1.0 / n)
    }

    /// A vector of `d` i.i.d. standard Gaussians.
    pub fn gaussian(rng: &mut dyn Rng, d: usize) -> Self {
        DenseVector::new((0..d).map(|_| dsh_math::normal::sample(rng)).collect())
    }

    /// A uniformly random point on `S^{d-1}` (normalized Gaussian).
    pub fn random_unit(rng: &mut dyn Rng, d: usize) -> Self {
        loop {
            let v = DenseVector::gaussian(rng, d);
            if v.norm() > 1e-12 {
                return v.normalized();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Slice kernels
// ---------------------------------------------------------------------------

/// Read bit `i` of a packed `[u64]` row (a [`BitStore`] row or
/// [`BitVector::as_blocks`]).
#[inline]
pub fn get_bit(blocks: &[u64], i: usize) -> bool {
    (blocks[i / 64] >> (i % 64)) & 1 == 1
}

// The pair kernels live in `crate::kernels` (runtime-dispatched over the
// scalar/SSE2/AVX2 tiers); re-exported here because this module is their
// historical home and every measure site imports them via `points::`.
pub use crate::kernels::{dot, euclidean, hamming};

// ---------------------------------------------------------------------------
// Owned point -> borrowed row bridge
// ---------------------------------------------------------------------------

/// Types that expose a borrowed row — the bridge between owned points and
/// the slice-based hashing/verification layer.
///
/// Hash families and measures operate on the row type (`[f64]` for dense
/// points, `[u64]` for packed bit points); owned [`DenseVector`] /
/// [`BitVector`] values and rows themselves both implement `AsRow`, so
/// single-query APIs accept either.
pub trait AsRow {
    /// The borrowed row type (`[f64]`, `[u64]`, or `Self` for point types
    /// that are their own row, e.g. scalars).
    type Row: ?Sized + 'static;

    /// Borrow the row.
    fn as_row(&self) -> &Self::Row;
}

impl AsRow for DenseVector {
    type Row = [f64];
    fn as_row(&self) -> &[f64] {
        self.as_slice()
    }
}

impl AsRow for BitVector {
    type Row = [u64];
    fn as_row(&self) -> &[u64] {
        self.as_blocks()
    }
}

impl AsRow for [f64] {
    type Row = [f64];
    fn as_row(&self) -> &[f64] {
        self
    }
}

impl AsRow for [u64] {
    type Row = [u64];
    fn as_row(&self) -> &[u64] {
        self
    }
}

/// Scalar (and other self-describing) point types are their own row.
macro_rules! self_row {
    ($($t:ty),*) => {$(
        impl AsRow for $t {
            type Row = $t;
            fn as_row(&self) -> &$t {
                self
            }
        }
    )*};
}
self_row!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool);

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// The exact measures over packed bit rows ([`BitStore`]'s
/// [`PointStore::Metric`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitMetric {
    /// Absolute Hamming distance `||x - y||_1`.
    Hamming,
    /// Relative Hamming distance `||x - y||_1 / d` in dimension `d`. A
    /// row only knows its block count, so the dimension is carried here,
    /// and every evaluation asserts the rows span `d.div_ceil(64)`
    /// blocks: a metric built for the wrong dimension fails loudly
    /// instead of silently rescaling every distance.
    RelativeHamming(usize),
}

impl BitMetric {
    /// The metric's value for a Hamming distance between rows of
    /// `blocks` blocks.
    #[inline]
    fn of(&self, hamming: u64, blocks: usize) -> f64 {
        match *self {
            BitMetric::Hamming => hamming as f64,
            BitMetric::RelativeHamming(d) => {
                assert_eq!(
                    blocks,
                    d.div_ceil(64),
                    "row has {blocks} blocks but the measure was built for d = {d}"
                );
                hamming as f64 / d as f64
            }
        }
    }
}

/// A caller-supplied measure over dense rows ([`DenseMetric::Custom`]).
pub type CustomMeasure = Box<dyn Fn(&[f64], &[f64]) -> f64 + Send + Sync>;

/// The exact measures over dense rows ([`DenseStore`]'s
/// [`PointStore::Metric`]).
pub enum DenseMetric {
    /// Inner product `<x, y>` (the sphere similarity).
    InnerProduct,
    /// Euclidean distance `||x - y||_2`.
    Euclidean,
    /// Any other measure, called as `f(row, query)`; verified row by row.
    Custom(CustomMeasure),
}

/// The caller-owned output of [`PointStore::measure_many`]. A
/// verification loop keeps one across calls, so measuring allocates only
/// when a call measures more rows than any call before it.
#[derive(Debug, Clone, Default)]
pub struct Measures {
    /// The measures, in `ids` order: each call appends its own, and the
    /// caller clears what it has read.
    pub values: Vec<f64>,
    /// Integer kernel output a store converts into `values` (the
    /// Hamming distances of a [`BitStore`]).
    pub counts: Vec<u64>,
    /// The ids of one run of a [`ChunkedStore`] call, made local to the
    /// chunk (or tail) holding them.
    pub locals: Vec<usize>,
}

// ---------------------------------------------------------------------------
// Point stores
// ---------------------------------------------------------------------------

/// A row-addressable, append-only collection of points: the storage
/// abstraction the index layer builds from, verifies against and (in
/// its mutable layer) grows one row at a time.
///
/// The implementations are the flat [`DenseStore`] (row-major
/// `Vec<f64>`) and [`BitStore`] (contiguous `Vec<u64>` blocks), plus the
/// snapshot wrapper [`ChunkedStore`] over either. Owned points enter a
/// store through `From<Vec<_>>` or [`PointStore::push_row`].
///
/// ```
/// use dsh_core::points::{BitStore, BitVector, PointStore};
/// let mut store = BitStore::with_dim(70);
/// let p = BitVector::ones(70);
/// store.push_row(p.as_blocks());
/// assert_eq!(store.len(), 1);
/// assert_eq!(store.row(0), p.as_blocks());
/// ```
pub trait PointStore: Clone + Send + Sync {
    /// The borrowed row type handed to hash functions and measures.
    type Row: ?Sized + 'static;

    /// The exact measures candidates over these rows are verified with
    /// ([`BitMetric`] for packed bit rows, [`DenseMetric`] for dense
    /// ones): a closed set, so a measure that does not fit the row type
    /// does not compile.
    type Metric: Send + Sync;

    /// Number of stored points.
    fn len(&self) -> usize;

    /// True when no points are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow row `i`.
    fn row(&self, i: usize) -> &Self::Row;

    /// The measure `metric` between the rows `x` and `y`.
    fn measure(metric: &Self::Metric, x: &Self::Row, y: &Self::Row) -> f64;

    /// [`PointStore::measure`] of rows `ids` to `q`, appended to
    /// `out.values` in `ids` order and bit-identical to measuring row by
    /// row. The flat stores run their batch kernels, which prefetch the
    /// rows a few ids ahead themselves; a [`ChunkedStore`] hands each run
    /// of ids one part holds to that part's kernel.
    fn measure_many(&self, metric: &Self::Metric, ids: &[usize], q: &Self::Row, out: &mut Measures);

    /// Append one row (must match the store's row shape).
    fn push_row(&mut self, row: &Self::Row);

    /// Pre-allocate for `additional` more rows. A batched write path
    /// (the index layer's group commits) knows its append count up
    /// front; reserving once turns the per-row buffer growth into a
    /// single allocation.
    fn reserve_rows(&mut self, additional: usize);

    /// A fresh empty store of the same row shape (same dimension /
    /// block count), ready to receive rows of this store. This is what
    /// lets generic code split one store into shards, or freeze a write
    /// head and start a new one, without knowing the concrete backend.
    fn empty_like(&self) -> Self;
}

/// Row-major contiguous storage for `n` points of `R^d`: one `Vec<f64>`
/// of length `n * d` instead of `n` separately allocated vectors, so
/// hashing and candidate verification stream rows at memory bandwidth.
///
/// ```
/// use dsh_core::points::{DenseStore, PointStore};
/// let mut store = DenseStore::with_dim(3);
/// store.push(&[1.0, 0.0, 0.0]);
/// store.push(&[0.0, 1.0, 0.0]);
/// assert_eq!(store.len(), 2);
/// assert_eq!(store.row(1), &[0.0, 1.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseStore {
    data: Vec<f64>,
    dim: usize,
    n: usize,
}

impl DenseStore {
    /// An empty store for points of dimension `dim`.
    pub fn with_dim(dim: usize) -> Self {
        DenseStore {
            data: Vec::new(),
            dim,
            n: 0,
        }
    }

    /// Build from a flat row-major buffer (`data.len()` must be a multiple
    /// of `dim`).
    pub fn from_flat(data: Vec<f64>, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "flat buffer not a multiple of dim"
        );
        let n = data.len() / dim;
        DenseStore { data, dim, n }
    }

    /// Append one point.
    pub fn push(&mut self, row: &[f64]) {
        // lint: allow(panic) — name-resolution false positive (reached by name from untyped `Vec::push` receivers); row shape fixed at store construction
        assert_eq!(row.len(), self.dim, "dimension mismatch");
        self.data.extend_from_slice(row);
        self.n += 1;
    }

    /// Dimension `d` of the stored points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Borrow row `i` as a raw slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterate over all rows in storage order.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.n).map(move |i| self.row(i))
    }

    /// The underlying flat row-major buffer.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Batch kernel: inner products of rows `ids` with `q`, appended to
    /// `out` (cleared first) in `ids` order — the candidate-verification
    /// pass of the index layer as one contiguous, prefetched,
    /// runtime-dispatched sweep instead of per-pair boxed-closure calls.
    // lint: hot
    pub fn dot_many(&self, ids: &[usize], q: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(ids.len());
        crate::kernels::dot_many(&self.data, self.dim, ids, q, out);
    }

    /// Batch kernel: Euclidean distances of rows `ids` to `q` (same
    /// contract as [`DenseStore::dot_many`]).
    // lint: hot
    pub fn euclidean_many(&self, ids: &[usize], q: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(ids.len());
        crate::kernels::euclidean_many(&self.data, self.dim, ids, q, out);
    }
}

impl From<Vec<DenseVector>> for DenseStore {
    /// Thin conversion flattening owned vectors into one buffer. All
    /// points must share one dimension; an empty input yields an empty
    /// store of dimension 0.
    fn from(points: Vec<DenseVector>) -> Self {
        let dim = points.first().map_or(0, DenseVector::dim);
        let mut data = Vec::with_capacity(points.len() * dim);
        for p in &points {
            assert_eq!(p.dim(), dim, "mixed dimensions");
            data.extend_from_slice(p.as_slice());
        }
        DenseStore {
            data,
            dim,
            n: points.len(),
        }
    }
}

impl PointStore for DenseStore {
    type Row = [f64];
    type Metric = DenseMetric;
    fn len(&self) -> usize {
        self.n
    }
    fn row(&self, i: usize) -> &[f64] {
        DenseStore::row(self, i)
    }
    fn measure(metric: &DenseMetric, x: &[f64], y: &[f64]) -> f64 {
        match metric {
            DenseMetric::InnerProduct => dot(x, y),
            DenseMetric::Euclidean => euclidean(x, y),
            DenseMetric::Custom(f) => f(x, y),
        }
    }
    fn measure_many(&self, metric: &DenseMetric, ids: &[usize], q: &[f64], out: &mut Measures) {
        let (values, data, dim) = (&mut out.values, &self.data, self.dim);
        values.reserve(ids.len());
        match metric {
            DenseMetric::InnerProduct => crate::kernels::dot_many(data, dim, ids, q, values),
            DenseMetric::Euclidean => crate::kernels::euclidean_many(data, dim, ids, q, values),
            DenseMetric::Custom(f) => values.extend(ids.iter().map(|&i| f(self.row(i), q))),
        }
    }
    fn push_row(&mut self, row: &[f64]) {
        self.push(row);
    }
    fn reserve_rows(&mut self, additional: usize) {
        self.data.reserve(additional.saturating_mul(self.dim));
    }
    fn empty_like(&self) -> Self {
        DenseStore::with_dim(self.dim)
    }
}

/// Contiguous storage for `n` points of `{0,1}^d`: all rows bit-packed
/// into one `Vec<u64>`, `d.div_ceil(64)` blocks per row, tail bits zero.
///
/// ```
/// use dsh_core::points::{BitStore, BitVector, PointStore};
/// let mut store = BitStore::with_dim(70);
/// store.push(&BitVector::ones(70));
/// store.push(&BitVector::zeros(70));
/// assert_eq!(store.len(), 2);
/// assert_eq!(store.row(0), BitVector::ones(70).as_blocks());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitStore {
    blocks: Vec<u64>,
    dim: usize,
    blocks_per_row: usize,
    n: usize,
}

impl BitStore {
    /// An empty store for points of dimension `dim`.
    pub fn with_dim(dim: usize) -> Self {
        BitStore {
            blocks: Vec::new(),
            dim,
            blocks_per_row: dim.div_ceil(64),
            n: 0,
        }
    }

    /// Append one point (must match the store dimension).
    pub fn push(&mut self, v: &BitVector) {
        // lint: allow(panic) — name-resolution false positive (reached by name from untyped `Vec::push` receivers); row shape fixed at store construction
        assert_eq!(v.len(), self.dim, "dimension mismatch");
        self.blocks.extend_from_slice(v.as_blocks());
        self.n += 1;
    }

    /// Append one point given as its packed row (`d.div_ceil(64)` blocks,
    /// e.g. another store's row or [`BitVector::as_blocks`]). Tail bits
    /// beyond the dimension are masked to zero on copy, so a sloppy source
    /// row cannot corrupt the store's Hamming/equality invariant.
    pub fn push_row(&mut self, row: &[u64]) {
        // lint: allow(panic) — caller contract: row shape fixed at store construction; a mismatch is a caller bug
        assert_eq!(row.len(), self.blocks_per_row, "block count mismatch");
        self.blocks.extend_from_slice(row);
        let rem = self.dim % 64;
        if rem != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        self.n += 1;
    }

    /// Append a uniformly random point, drawing the same RNG stream as
    /// [`BitVector::random`] (so the store holds bit-identical rows to
    /// `BitStore::from` over the same draws).
    pub fn push_random(&mut self, rng: &mut dyn Rng) {
        let start = self.blocks.len();
        for _ in 0..self.blocks_per_row {
            self.blocks.push(rng.next_u64());
        }
        let rem = self.dim % 64;
        if rem != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        debug_assert_eq!(self.blocks.len(), start + self.blocks_per_row);
        self.n += 1;
    }

    /// Dimension `d` of the stored points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Packed blocks per row (`d.div_ceil(64)`).
    pub fn blocks_per_row(&self) -> usize {
        self.blocks_per_row
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Borrow row `i` as its packed blocks.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.blocks[i * self.blocks_per_row..(i + 1) * self.blocks_per_row]
    }

    /// Iterate over all rows in storage order.
    pub fn rows(&self) -> impl Iterator<Item = &[u64]> {
        (0..self.n).map(move |i| self.row(i))
    }

    /// Borrow the whole store as one flat row-major block buffer
    /// (`len() * blocks_per_row()` blocks) — the layout the batch
    /// kernels in [`crate::kernels`] operate on directly.
    pub fn as_flat(&self) -> &[u64] {
        &self.blocks
    }

    /// Batch kernel: Hamming distances of rows `ids` to `q`, appended to
    /// `out` (cleared first) in `ids` order (runtime-dispatched, with
    /// prefetch-ahead on the SIMD tiers).
    // lint: hot
    pub fn hamming_many(&self, ids: &[usize], q: &[u64], out: &mut Vec<u64>) {
        out.clear();
        out.reserve(ids.len());
        crate::kernels::hamming_many(&self.blocks, self.blocks_per_row, ids, q, out);
    }
}

impl From<Vec<BitVector>> for BitStore {
    /// Thin conversion packing owned vectors into one block buffer. All
    /// points must share one dimension; an empty input yields an empty
    /// store of dimension 0.
    fn from(points: Vec<BitVector>) -> Self {
        let dim = points.first().map_or(0, BitVector::len);
        let mut store = BitStore::with_dim(dim);
        store.blocks.reserve(points.len() * store.blocks_per_row);
        for p in &points {
            store.push(p);
        }
        store
    }
}

impl PointStore for BitStore {
    type Row = [u64];
    type Metric = BitMetric;
    fn len(&self) -> usize {
        self.n
    }
    fn row(&self, i: usize) -> &[u64] {
        BitStore::row(self, i)
    }
    fn measure(metric: &BitMetric, x: &[u64], y: &[u64]) -> f64 {
        metric.of(hamming(x, y), x.len())
    }
    fn measure_many(&self, metric: &BitMetric, ids: &[usize], q: &[u64], out: &mut Measures) {
        self.hamming_many(ids, q, &mut out.counts);
        let values = out
            .counts
            .iter()
            .map(|&h| metric.of(h, self.blocks_per_row));
        out.values.extend(values);
    }
    fn push_row(&mut self, row: &[u64]) {
        BitStore::push_row(self, row);
    }
    fn reserve_rows(&mut self, additional: usize) {
        self.blocks
            .reserve(additional.saturating_mul(self.blocks_per_row));
    }
    fn empty_like(&self) -> Self {
        BitStore::with_dim(self.dim)
    }
}

/// A snapshot-friendly append-only store: a list of **frozen** chunks
/// shared behind [`Arc`], plus one small mutable **tail** absorbing
/// appends.
///
/// Row ids and contents are identical to the flat backend `S` the rows
/// would otherwise live in — the chunking is invisible to readers. What
/// changes is the cost of [`Clone`]: frozen chunks are shared by
/// reference-count bump, so cloning the store for an immutable snapshot
/// copies only the tail. [`ChunkedStore::freeze_tail`] moves the current
/// tail behind an `Arc` (a natural fit for the segmented index's `seal`,
/// which also retires its write head), keeping every subsequent clone
/// cheap; [`ChunkedStore::consolidate`] merges all chunks back into one
/// for dense sequential reads after a compaction.
///
/// Frozen chunks are never mutated — a clone taken at any point keeps
/// reading exactly the rows it saw, while the original keeps growing.
/// This is the storage contract the concurrent sharded serving layer
/// (`dsh-index`'s `ShardedIndex`) publishes its snapshots on.
///
/// ```
/// use dsh_core::points::{BitStore, BitVector, ChunkedStore, PointStore};
/// let mut store = ChunkedStore::new(&BitStore::with_dim(70));
/// let p = BitVector::ones(70);
/// store.push_row(p.as_blocks());
/// store.freeze_tail();
/// let snapshot = store.clone(); // shares the frozen chunk
/// store.push_row(BitVector::zeros(70).as_blocks());
/// assert_eq!(store.len(), 2);
/// assert_eq!(snapshot.len(), 1);
/// assert_eq!(snapshot.row(0), p.as_blocks());
/// ```
#[derive(Debug, Clone)]
pub struct ChunkedStore<S> {
    chunks: Vec<Arc<S>>,
    /// Cumulative first-row index of each chunk (`starts[c]` is the
    /// global id of `chunks[c]`'s row 0).
    starts: Vec<usize>,
    tail: S,
    tail_start: usize,
}

impl<S: PointStore> ChunkedStore<S> {
    /// An empty store with `shape`'s row shape (dimension, block
    /// count); `shape`'s rows are not taken.
    pub fn new(shape: &S) -> Self {
        ChunkedStore {
            chunks: Vec::new(),
            starts: Vec::new(),
            tail: shape.empty_like(),
            tail_start: 0,
        }
    }

    /// Wrap an existing store as the first frozen chunk, sharing its
    /// allocation instead of copying its rows.
    pub fn from_store(store: Arc<S>) -> Self {
        let mut chunked = ChunkedStore::new(&*store);
        if store.len() > 0 {
            chunked.starts.push(0);
            chunked.tail_start = store.len();
            chunked.chunks.push(store);
        }
        chunked
    }

    /// Rows sitting in the mutable tail (copied by every clone — callers
    /// bound it by freezing periodically).
    pub fn tail_rows(&self) -> usize {
        self.tail.len()
    }

    /// A store of the **inner** backend type with this store's row
    /// shape (the tail), for shaping the staging buffer a write batch
    /// accumulates rows in before they are appended across chunked
    /// shard stores.
    pub fn shape(&self) -> &S {
        &self.tail
    }

    /// The part holding row `i` — a frozen chunk or the tail — and the
    /// ids it holds.
    fn part(&self, i: usize) -> (&S, Range<usize>) {
        if i >= self.tail_start {
            return (&self.tail, self.tail_start..usize::MAX);
        }
        // partition_point returns the first chunk starting past `i`;
        // its predecessor is the chunk holding row `i`.
        let c = self.starts.partition_point(|&s| s <= i) - 1;
        let end = self.starts.get(c + 1).map_or(self.tail_start, |&s| s);
        (&self.chunks[c], self.starts[c]..end)
    }

    /// Freeze the tail into a new shared chunk and start an empty one.
    /// No-op when the tail is empty. Row ids and contents are unchanged.
    pub fn freeze_tail(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        let fresh = self.tail.empty_like();
        let full = std::mem::replace(&mut self.tail, fresh);
        self.starts.push(self.tail_start);
        self.tail_start += full.len();
        self.chunks.push(Arc::new(full));
    }

    /// Rebuild as a single frozen chunk (plus an empty tail): one
    /// contiguous row range for dense sequential reads. Copies every row
    /// once; row ids and contents are unchanged.
    pub fn consolidate(&mut self) {
        if self.chunks.len() <= 1 && self.tail.is_empty() {
            return;
        }
        let mut merged = self.tail.empty_like();
        for i in 0..self.len() {
            merged.push_row(self.row(i));
        }
        *self = ChunkedStore::from_store(Arc::new(merged));
    }
}

impl<S: PointStore> PointStore for ChunkedStore<S> {
    type Row = S::Row;
    type Metric = S::Metric;

    fn len(&self) -> usize {
        self.tail_start + self.tail.len()
    }

    fn row(&self, i: usize) -> &S::Row {
        let (part, ids) = self.part(i);
        part.row(i - ids.start)
    }

    fn measure(metric: &S::Metric, x: &S::Row, y: &S::Row) -> f64 {
        S::measure(metric, x, y)
    }

    /// Splits `ids` into maximal runs one part holds and measures each
    /// run with that part's kernel, as part-local ids copied into
    /// `out.locals`.
    fn measure_many(&self, metric: &S::Metric, ids: &[usize], q: &S::Row, out: &mut Measures) {
        let mut rest = ids;
        while let Some(&first) = rest.first() {
            let (part, span) = self.part(first);
            let len = rest.iter().position(|i| !span.contains(i));
            let (run, after) = rest.split_at(len.unwrap_or(rest.len()));
            rest = after;
            let mut locals = std::mem::take(&mut out.locals);
            locals.clear();
            locals.extend(run.iter().map(|&i| i - span.start));
            part.measure_many(metric, &locals, q, out);
            out.locals = locals;
        }
    }

    fn push_row(&mut self, row: &S::Row) {
        self.tail.push_row(row);
    }

    fn reserve_rows(&mut self, additional: usize) {
        self.tail.reserve_rows(additional);
    }

    fn empty_like(&self) -> Self {
        ChunkedStore::new(&self.tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_math::rng::seeded;

    #[test]
    fn bitvector_get_set_flip() {
        let mut v = BitVector::zeros(130);
        assert_eq!(v.count_ones(), 0);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1));
        assert_eq!(v.count_ones(), 3);
        v.flip(129);
        assert!(!v.get(129));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn bitvector_hamming() {
        let mut a = BitVector::zeros(100);
        let mut b = BitVector::zeros(100);
        assert_eq!(a.hamming(&b), 0);
        a.set(3, true);
        b.set(99, true);
        assert_eq!(a.hamming(&b), 2);
        b.set(3, true);
        assert_eq!(a.hamming(&b), 1);
        assert!((a.relative_hamming(&b) - 0.01).abs() < 1e-15);
    }

    #[test]
    fn bitvector_complement_distance() {
        let v = BitVector::random(&mut seeded(11), 77);
        let c = v.complement();
        assert_eq!(v.hamming(&c), 77);
        assert_eq!(v.count_ones() + c.count_ones(), 77);
    }

    #[test]
    fn bitvector_ones_and_from_bools() {
        let o = BitVector::ones(70);
        assert_eq!(o.count_ones(), 70);
        let v = BitVector::from_bools(&[true, false, true]);
        assert!(v.get(0) && !v.get(1) && v.get(2));
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn constructors_keep_tail_bits_zero() {
        // Tail bits beyond `len` must stay zero in every constructor, or
        // Eq / Hash / hamming silently diverge between equal vectors.
        use std::hash::{BuildHasher, RandomState};
        let hasher = RandomState::new();
        let mut rng = seeded(77);
        for d in [1usize, 7, 63, 64, 65, 70, 127, 128, 130] {
            let rem = d % 64;
            let tail = |v: &BitVector| {
                if rem == 0 {
                    0
                } else {
                    v.blocks.last().unwrap() >> rem
                }
            };
            let o = BitVector::ones(d);
            assert_eq!(tail(&o), 0, "ones({d}) leaked tail bits");
            assert_eq!(o.count_ones(), d as u64);
            assert_eq!(tail(&BitVector::zeros(d)), 0);
            assert_eq!(tail(&BitVector::random(&mut rng, d)), 0);
            assert_eq!(tail(&o.complement()), 0);
            assert_eq!(tail(&BitVector::from_bools(&vec![true; d])), 0);
            // The Eq/Hash/hamming invariants the masking protects.
            let bitwise = BitVector::from_bools(&vec![true; d]);
            assert_eq!(o, bitwise, "d = {d}");
            assert_eq!(hasher.hash_one(&o), hasher.hash_one(&bitwise), "d = {d}");
            assert_eq!(o.hamming(&bitwise), 0);
            assert_eq!(o.complement(), BitVector::zeros(d));
        }
    }

    #[test]
    fn bitvector_random_is_balanced() {
        let mut rng = seeded(42);
        let mut total = 0u64;
        for _ in 0..100 {
            total += BitVector::random(&mut rng, 256).count_ones();
        }
        let frac = total as f64 / (100.0 * 256.0);
        assert!((frac - 0.5).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn bitvector_to_unit_vector() {
        let mut v = BitVector::zeros(4);
        v.set(0, true);
        let u = v.to_unit_vector();
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert!((u.as_slice()[0] - 0.5).abs() < 1e-12);
        assert!((u.as_slice()[1] + 0.5).abs() < 1e-12);
    }

    #[test]
    fn hamming_inner_product_correspondence() {
        // For hypercube corners, <u_x, u_y> = 1 - 2 dist_H(x,y)/d = simH.
        let mut rng = seeded(5);
        let x = BitVector::random(&mut rng, 128);
        let y = BitVector::random(&mut rng, 128);
        let alpha = x.to_unit_vector().dot(&y.to_unit_vector());
        let sim = 1.0 - 2.0 * x.relative_hamming(&y);
        assert!((alpha - sim).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn hamming_dimension_mismatch_panics() {
        let a = BitVector::zeros(3);
        let b = BitVector::zeros(4);
        let _ = a.hamming(&b);
    }

    #[test]
    fn dense_vector_ops() {
        let a = DenseVector::new(vec![1.0, 2.0, 2.0]);
        let b = DenseVector::new(vec![0.0, 1.0, 0.0]);
        assert_eq!(a.dot(&b), 2.0);
        assert_eq!(a.norm(), 3.0);
        assert_eq!(a.euclidean(&b), (1.0f64 + 1.0 + 4.0).sqrt());
        assert_eq!(a.sub(&b).as_slice(), &[1.0, 1.0, 2.0]);
        assert_eq!(a.negated().as_slice(), &[-1.0, -2.0, -2.0]);
        assert!((a.normalized().norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_unit_is_unit() {
        let mut rng = seeded(1);
        for _ in 0..10 {
            let v = DenseVector::random_unit(&mut rng, 25);
            assert!((v.norm() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn random_units_nearly_orthogonal_in_high_dim() {
        let mut rng = seeded(2);
        let a = DenseVector::random_unit(&mut rng, 2000);
        let b = DenseVector::random_unit(&mut rng, 2000);
        assert!(a.dot(&b).abs() < 0.1);
    }

    #[test]
    fn hypercube_corner_on_sphere() {
        // A random point of {0,1}^64 embeds as a corner of
        // {-1/8, +1/8}^64 on the unit sphere.
        let mut rng = seeded(3);
        let v = BitVector::random(&mut rng, 64).to_unit_vector();
        assert!((v.norm() - 1.0).abs() < 1e-12);
        assert!(v.as_slice().iter().all(|c| (c.abs() - 0.125).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "cannot normalize")]
    fn normalize_zero_panics() {
        let _ = DenseVector::zeros(3).normalized();
    }
}

#[cfg(test)]
mod store_tests {
    use super::*;
    use dsh_math::rng::seeded;

    #[test]
    fn kernels_match_owned_point_methods() {
        let mut rng = seeded(0x570);
        for d in [1usize, 3, 4, 7, 16, 33] {
            let a = DenseVector::gaussian(&mut rng, d);
            let b = DenseVector::gaussian(&mut rng, d);
            assert_eq!(dot(a.as_slice(), b.as_slice()), a.dot(&b));
            assert_eq!(euclidean(a.as_slice(), b.as_slice()), a.euclidean(&b));
        }
        for d in [1usize, 63, 64, 65, 130] {
            let x = BitVector::random(&mut rng, d);
            let y = BitVector::random(&mut rng, d);
            assert_eq!(hamming(x.as_blocks(), y.as_blocks()), x.hamming(&y));
            for i in 0..d {
                assert_eq!(get_bit(x.as_blocks(), i), x.get(i));
            }
        }
    }

    #[test]
    fn blocked_dot_agrees_with_sequential_fold() {
        // Reassociation moves the result by O(eps), never more.
        let mut rng = seeded(0x571);
        for d in [5usize, 17, 64, 101] {
            let a = DenseVector::gaussian(&mut rng, d);
            let b = DenseVector::gaussian(&mut rng, d);
            let seq: f64 = a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(x, y)| x * y)
                .sum();
            assert!((dot(a.as_slice(), b.as_slice()) - seq).abs() < 1e-12);
        }
    }

    #[test]
    fn dense_store_round_trips_vec() {
        let mut rng = seeded(0x572);
        let points: Vec<DenseVector> = (0..9).map(|_| DenseVector::gaussian(&mut rng, 5)).collect();
        let store = DenseStore::from(points.clone());
        assert_eq!(store.len(), 9);
        assert_eq!(store.dim(), 5);
        assert_eq!(store.as_flat().len(), 45);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(store.row(i), p.as_slice());
            assert_eq!(PointStore::row(&store, i), p.as_slice());
        }
    }

    #[test]
    fn bit_store_round_trips_vec() {
        let mut rng = seeded(0x573);
        for d in [1usize, 64, 65, 130] {
            let points: Vec<BitVector> = (0..7).map(|_| BitVector::random(&mut rng, d)).collect();
            let store = BitStore::from(points.clone());
            assert_eq!(store.len(), 7);
            assert_eq!(store.dim(), d);
            assert_eq!(store.blocks_per_row(), d.div_ceil(64));
            for (i, p) in points.iter().enumerate() {
                assert_eq!(store.row(i), p.as_blocks());
            }
        }
    }

    #[test]
    fn push_random_matches_bitvector_random_stream() {
        for d in [1usize, 63, 64, 65, 200] {
            let mut store = BitStore::with_dim(d);
            let mut rng = seeded(0x574);
            for _ in 0..5 {
                store.push_random(&mut rng);
            }
            let mut rng = seeded(0x574);
            let owned: Vec<BitVector> = (0..5).map(|_| BitVector::random(&mut rng, d)).collect();
            assert_eq!(store, BitStore::from(owned), "d = {d}");
        }
    }

    #[test]
    fn batch_kernels_verify_candidate_lists() {
        let mut rng = seeded(0x575);
        let dense: Vec<DenseVector> = (0..20)
            .map(|_| DenseVector::gaussian(&mut rng, 8))
            .collect();
        let q = DenseVector::gaussian(&mut rng, 8);
        let store = DenseStore::from(dense.clone());
        let ids = [3usize, 17, 0, 3, 9];
        let mut out = Vec::new();
        store.dot_many(&ids, q.as_slice(), &mut out);
        let want: Vec<f64> = ids.iter().map(|&i| dense[i].dot(&q)).collect();
        assert_eq!(out, want);
        store.euclidean_many(&ids, q.as_slice(), &mut out);
        let want: Vec<f64> = ids.iter().map(|&i| dense[i].euclidean(&q)).collect();
        assert_eq!(out, want);

        let bits: Vec<BitVector> = (0..20).map(|_| BitVector::random(&mut rng, 90)).collect();
        let bq = BitVector::random(&mut rng, 90);
        let bstore = BitStore::from(bits.clone());
        let mut bout = Vec::new();
        bstore.hamming_many(&ids, bq.as_blocks(), &mut bout);
        let want: Vec<u64> = ids.iter().map(|&i| bits[i].hamming(&bq)).collect();
        assert_eq!(bout, want);
    }

    #[test]
    fn as_row_reflexivity_and_views() {
        let v = DenseVector::new(vec![1.0, 2.0]);
        assert_eq!(v.as_row(), v.as_slice());
        assert_eq!(v.as_slice().as_row(), v.as_slice());
        assert_eq!(7u64.as_row(), &7u64);
        let b = BitVector::ones(3);
        assert_eq!(b.as_row(), b.as_blocks());
        assert_eq!(b.as_blocks().as_row(), b.as_blocks());
    }

    #[test]
    fn empty_and_flat_constructors() {
        let empty = DenseStore::from(Vec::<DenseVector>::new());
        assert!(empty.is_empty());
        assert_eq!(empty.dim(), 0);
        let flat = DenseStore::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.row(1), &[3.0, 4.0]);
        assert_eq!(flat.rows().count(), 2);
        let bempty = BitStore::from(Vec::<BitVector>::new());
        assert!(bempty.is_empty());
        assert_eq!(bempty.rows().count(), 0);
        let mut ds = DenseStore::with_dim(2);
        ds.push(&[5.0, 6.0]);
        assert_eq!(ds.row(0), &[5.0, 6.0]);
    }

    #[test]
    fn append_store_rows_round_trip() {
        let mut rng = seeded(0x576);
        // BitStore: push_row from another store's rows and from owned
        // points must be bit-identical to the push(&BitVector) path.
        for d in [1usize, 63, 64, 65, 130] {
            let points: Vec<BitVector> = (0..6).map(|_| BitVector::random(&mut rng, d)).collect();
            let whole = BitStore::from(points.clone());
            let mut grown = BitStore::with_dim(d);
            for p in &points {
                PointStore::push_row(&mut grown, p.as_blocks());
            }
            assert_eq!(grown, whole, "d = {d}");
            let mut copied = BitStore::with_dim(d);
            for i in 0..whole.len() {
                copied.push_row(whole.row(i));
            }
            assert_eq!(copied, whole, "d = {d}");
        }
        // DenseStore appends the same rows its `From` conversion packs.
        let points: Vec<DenseVector> = (0..5).map(|_| DenseVector::gaussian(&mut rng, 7)).collect();
        let mut dense = DenseStore::with_dim(7);
        for p in &points {
            PointStore::push_row(&mut dense, p.as_slice());
        }
        assert_eq!(dense, DenseStore::from(points));
    }

    #[test]
    fn bit_store_push_row_masks_tail_bits() {
        // A dirty source row (tail bits set beyond the dimension) must not
        // corrupt the store's zero-tail invariant.
        let mut store = BitStore::with_dim(70);
        store.push_row(&[!0u64, !0u64]);
        let expected = BitVector::ones(70);
        assert_eq!(store.row(0), expected.as_blocks());
    }

    #[test]
    #[should_panic(expected = "block count mismatch")]
    fn bit_store_push_row_rejects_wrong_block_count() {
        let mut store = BitStore::with_dim(70);
        store.push_row(&[0u64]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dense_store_rejects_wrong_dim_push() {
        let mut s = DenseStore::with_dim(3);
        s.push(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn bit_store_rejects_wrong_dim_push() {
        let mut s = BitStore::with_dim(65);
        s.push(&BitVector::zeros(64));
    }
}

// Property-style tests over randomized inputs (seeded, so deterministic).
// These replace `proptest!` blocks: the crate is built offline and
// proptest is not in the dependency set.
#[cfg(test)]
mod proptests {
    use super::*;
    use dsh_math::rng::seeded;
    use rand::rngs::StdRng;

    fn random_bools(rng: &mut StdRng, min_len: usize, max_len: usize) -> Vec<bool> {
        let len = rng.random_range(min_len..max_len);
        (0..len).map(|_| rng.random_bool(0.5)).collect()
    }

    fn random_coords(rng: &mut StdRng, min_len: usize, max_len: usize) -> Vec<f64> {
        let len = rng.random_range(min_len..max_len);
        (0..len).map(|_| rng.random_range(-10.0f64..10.0)).collect()
    }

    #[test]
    fn hamming_is_a_metric() {
        let mut rng = seeded(0xB17);
        for _ in 0..256 {
            let a = random_bools(&mut rng, 1, 200);
            let b = random_bools(&mut rng, 1, 200);
            let c = random_bools(&mut rng, 1, 200);
            let n = a.len().min(b.len()).min(c.len());
            let x = BitVector::from_bools(&a[..n]);
            let y = BitVector::from_bools(&b[..n]);
            let z = BitVector::from_bools(&c[..n]);
            // Symmetry, identity, triangle inequality.
            assert_eq!(x.hamming(&y), y.hamming(&x));
            assert_eq!(x.hamming(&x), 0);
            assert!(x.hamming(&z) <= x.hamming(&y) + y.hamming(&z));
        }
    }

    #[test]
    fn complement_involution() {
        let mut rng = seeded(0xB18);
        for _ in 0..256 {
            let bits = random_bools(&mut rng, 1, 200);
            let v = BitVector::from_bools(&bits);
            assert_eq!(v.complement().complement(), v);
        }
    }

    #[test]
    fn dense_cauchy_schwarz() {
        let mut rng = seeded(0xB19);
        for _ in 0..256 {
            let a = random_coords(&mut rng, 1, 20);
            let b = random_coords(&mut rng, 1, 20);
            let n = a.len().min(b.len());
            let x = DenseVector::new(a[..n].to_vec());
            let y = DenseVector::new(b[..n].to_vec());
            assert!(x.dot(&y).abs() <= x.norm() * y.norm() + 1e-9);
        }
    }

    #[test]
    fn dense_triangle_inequality() {
        let mut rng = seeded(0xB1A);
        for _ in 0..256 {
            let a = random_coords(&mut rng, 3, 10);
            let b = random_coords(&mut rng, 3, 10);
            let n = a.len().min(b.len());
            let x = DenseVector::new(a[..n].to_vec());
            let y = DenseVector::new(b[..n].to_vec());
            let z = DenseVector::zeros(n);
            assert!(x.euclidean(&y) <= x.euclidean(&z) + z.euclidean(&y) + 1e-9);
        }
    }

    #[test]
    fn empty_like_preserves_row_shape() {
        let mut rng = seeded(0xC01);
        let mut bits = BitStore::with_dim(70);
        bits.push(&BitVector::random(&mut rng, 70));
        let fresh = bits.empty_like();
        assert_eq!(fresh.dim(), 70);
        assert!(fresh.is_empty());

        let mut dense = DenseStore::with_dim(5);
        dense.push(&[1.0; 5]);
        let fresh = dense.empty_like();
        assert_eq!(fresh.dim(), 5);
        assert!(fresh.is_empty());
    }

    #[test]
    fn chunked_store_rows_match_flat_store_across_freezes() {
        let mut rng = seeded(0xC02);
        let d = 130;
        let mut flat = BitStore::with_dim(d);
        let mut chunked = ChunkedStore::new(&BitStore::with_dim(d));
        for i in 0..50 {
            let p = BitVector::random(&mut rng, d);
            flat.push(&p);
            chunked.push_row(p.as_blocks());
            if i % 7 == 6 {
                chunked.freeze_tail();
            }
        }
        assert_eq!(chunked.len(), flat.len());
        assert_eq!(chunked.chunks.len(), 7);
        assert_eq!(chunked.tail_rows(), 1);
        for i in 0..flat.len() {
            assert_eq!(chunked.row(i), flat.row(i), "row {i}");
        }
        // Consolidation changes the chunk layout, not the rows.
        chunked.consolidate();
        assert_eq!(chunked.chunks.len(), 1);
        assert_eq!(chunked.tail_rows(), 0);
        for i in 0..flat.len() {
            assert_eq!(chunked.row(i), flat.row(i), "row {i} post-consolidate");
        }
    }

    #[test]
    fn chunked_store_from_store_freezes_initial_rows() {
        let mut dense = DenseStore::with_dim(3);
        dense.push(&[1.0, 2.0, 3.0]);
        dense.push(&[4.0, 5.0, 6.0]);
        let dense = Arc::new(dense);
        let mut chunked = ChunkedStore::from_store(Arc::clone(&dense));
        assert_eq!(chunked.len(), 2);
        assert_eq!(chunked.chunks.len(), 1);
        assert_eq!(chunked.tail_rows(), 0);
        // Shared, not copied.
        assert!(std::ptr::eq(&*chunked.chunks[0], &*dense));
        chunked.push_row(&[7.0, 8.0, 9.0]);
        assert_eq!((chunked.chunks.len(), chunked.tail_rows()), (1, 1));
        assert_eq!(chunked.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(chunked.row(2), &[7.0, 8.0, 9.0]);
        // Empty initial store: no chunk at all.
        let empty = ChunkedStore::from_store(Arc::new(DenseStore::with_dim(3)));
        assert_eq!(empty.chunks.len(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn chunked_store_clone_is_a_frozen_snapshot() {
        let d = 64;
        let mut rng = seeded(0xC03);
        let rows: Vec<BitVector> = (0..12).map(|_| BitVector::random(&mut rng, d)).collect();
        let mut store = ChunkedStore::new(&BitStore::with_dim(d));
        for p in &rows[..8] {
            store.push_row(p.as_blocks());
        }
        store.freeze_tail();
        for p in &rows[8..10] {
            store.push_row(p.as_blocks());
        }
        let snapshot = store.clone();
        // The original keeps growing, freezing, consolidating...
        for p in &rows[10..] {
            store.push_row(p.as_blocks());
        }
        store.freeze_tail();
        store.consolidate();
        assert_eq!(store.len(), 12);
        // ...while the snapshot still reads exactly the rows it saw.
        assert_eq!(snapshot.len(), 10);
        for (i, p) in rows[..10].iter().enumerate() {
            assert_eq!(snapshot.row(i), p.as_blocks(), "snapshot row {i}");
        }
    }

    #[test]
    fn chunked_store_new_takes_only_the_shape() {
        let mut dense = DenseStore::with_dim(2);
        dense.push(&[1.0, 2.0]);
        let mut chunked = ChunkedStore::new(&dense);
        assert!(chunked.is_empty());
        chunked.push_row(&[3.0, 4.0]);
        assert_eq!(chunked.len(), 1);
        assert_eq!(chunked.row(0), &[3.0, 4.0]);
    }
}
