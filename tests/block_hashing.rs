//! Integration test: block hashing changes no value and no answer.
//!
//! * `PointHasher::hash_many` equals the `hash` loop, bit for bit, for
//!   every family the workspace exports, at block sizes on both sides of
//!   the index's 64- and 256-row blocks;
//! * the batched query paths, which hash their queries in blocks, answer
//!   exactly like a query-at-a-time loop over every backend and verifier,
//!   and through the two derived front-ends over `[f64]` rows;
//! * the block driver stays lazy: a table is hashed for the rows of a
//!   block from the first row that reaches it onward, and not at all when
//!   no row of the block reaches it.

mod common;

use dsh::prelude::*;
use dsh_core::combinators::{AlwaysCollide, MapPoints, MapPointsAsym, NeverCollide};
use dsh_core::points::AsRow;
use dsh_core::{MinHash, TokenSet};
use dsh_euclidean::{EuclideanLsh, KernelizedFamily, ShiftedEuclideanDsh};
use dsh_hamming::{
    AntiBitSampling, BitSampling, MultiProbeBitSampling, PaddedFamily, PolynomialHammingDsh,
    ScaledBiasedAntiBitSampling, ScaledBitSampling,
};
use dsh_index::{
    hyperplane, sphere_annulus, DynamicIndex, Frontend, HashTableIndex, QueryStats, ShardedIndex,
    Snapshot, Verifier,
};
use dsh_math::rng::seeded;
use dsh_math::Polynomial;
use dsh_sphere::tensor_sketch::SketchedPolynomialSphereDsh;
use dsh_sphere::{
    CrossPolytopeAnti, CrossPolytopeLsh, FilterDshMinus, FilterDshPlus, FilterMinHashDsh,
    PolynomialSphereDsh, SimHash, UnimodalFilterDsh,
};
use rand::Rng;
use std::borrow::Borrow;
use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// hash_many == hash
// ---------------------------------------------------------------------------

/// Block sizes around the index's 64-row query block and past its
/// 256-row build block.
const BLOCKS: [usize; 7] = [0, 1, 2, 63, 64, 65, 300];

/// Both sides of a few sampled pairs of `family`, at every block size,
/// over blocks that cycle through `points` (fewer than the larger blocks,
/// so rows repeat) and over a block of one row repeated.
fn assert_hash_many_is_the_hash_loop<P: ?Sized>(family: &dyn DshFamily<P>, points: &[&P]) {
    let name = family.name();
    let mut rng = seeded(0xB10C);
    for sample in 0..3 {
        let pair = family.sample(&mut rng);
        for (side, h) in [("data", &pair.data), ("query", &pair.query)] {
            for n in BLOCKS {
                let cycled: Vec<&P> = (0..n).map(|i| points[i * 7 % points.len()]).collect();
                let repeated: Vec<&P> = vec![points[sample]; n];
                for rows in [cycled, repeated] {
                    let want: Vec<u64> = rows.iter().map(|x| h.hash(x)).collect();
                    let mut got = vec![u64::MAX; n];
                    h.hash_many(&rows, &mut got);
                    assert_eq!(want, got, "{name}: {side} side, sample {sample}, {n} rows");
                }
            }
        }
    }
}

#[test]
fn hash_many_is_the_hash_loop_for_every_hamming_family() {
    let d = 64;
    let mut rng = seeded(0xB10D);
    let points: Vec<BitVector> = (0..40).map(|_| BitVector::random(&mut rng, d)).collect();
    let rows: Vec<&[u64]> = points.iter().map(BitVector::as_blocks).collect();
    let to_sphere = move |x: &[u64]| BitVector::from_blocks(x.to_vec(), d).to_unit_vector();
    let families: Vec<BoxedDshFamily<[u64]>> = vec![
        Box::new(BitSampling::new(d)),
        Box::new(AntiBitSampling::new(d)),
        Box::new(ScaledBitSampling::new(d, 0.5)),
        Box::new(ScaledBiasedAntiBitSampling::new(d, 0.4, 0.3)),
        Box::new(MultiProbeBitSampling::new(d, 6, 1)),
        Box::new(PaddedFamily::new(BitSampling::new(96), 96, d)),
        Box::new(
            PolynomialHammingDsh::from_polynomial(d, &Polynomial::new(vec![1.0, 0.0, -1.0]))
                .unwrap(),
        ),
        Box::new(AlwaysCollide),
        Box::new(NeverCollide),
        Box::new(Power::new(AntiBitSampling::new(d), 5)),
        Box::new(Concat::new(vec![
            Box::new(BitSampling::new(d)),
            Box::new(Power::new(AntiBitSampling::new(d), 2)),
        ])),
        Box::new(Mixture::new(vec![
            (0.5, Box::new(BitSampling::new(d)) as BoxedDshFamily<[u64]>),
            (0.5, Box::new(Power::new(AntiBitSampling::new(d), 3))),
        ])),
        Box::new(MapPoints::new(
            "filters-on-hypercube",
            Power::new(FilterDshPlus::new(d, 1.2), 2),
            to_sphere,
        )),
        Box::new(MapPointsAsym::new(
            "unimodal-on-hypercube",
            UnimodalFilterDsh::new(d, 0.3, 1.2),
            to_sphere,
            move |x: &[u64]| BitVector::from_blocks(x.to_vec(), d).to_unit_vector(),
        )),
    ];
    for family in &families {
        assert_hash_many_is_the_hash_loop(family, &rows);
    }
}

#[test]
fn hash_many_is_the_hash_loop_for_every_real_vector_family() {
    let d = 6;
    let mut rng = seeded(0xB10E);
    let points: Vec<DenseVector> = (0..40)
        .map(|_| DenseVector::random_unit(&mut rng, d))
        .collect();
    let rows: Vec<&[f64]> = points.iter().map(DenseVector::as_slice).collect();
    let p = Polynomial::new(vec![0.0, 0.0, -1.0]);
    // With m = 2 caps at t = 4 nearly every row misses every cap and gets
    // its `m + sentinel`.
    let tiny_plus = FilterDshPlus::with_filter_count(d, 4.0, 2);
    let tiny_minus = FilterDshMinus::with_filter_count(d, 4.0, 2);
    let families: Vec<BoxedDshFamily<[f64]>> = vec![
        Box::new(SimHash::new(d)),
        Box::new(CrossPolytopeLsh::new(d)),
        Box::new(CrossPolytopeAnti::new(d)),
        Box::new(FilterDshPlus::new(d, 1.5)),
        Box::new(FilterDshMinus::new(d, 1.5)),
        Box::new(tiny_plus),
        Box::new(tiny_minus),
        Box::new(UnimodalFilterDsh::new(d, 0.6, 1.7)),
        Box::new(FilterMinHashDsh::new(d, 1.2)),
        Box::new(PolynomialSphereDsh::new(d, &p)),
        Box::new(SketchedPolynomialSphereDsh::new(d, &p, 8)),
        Box::new(EuclideanLsh::new(d, 1.0)),
        Box::new(ShiftedEuclideanDsh::new(d, 2, 1.0)),
        Box::new(KernelizedFamily::new(
            FilterDshMinus::new(16, 1.0),
            d,
            16,
            2.0,
            0.7,
        )),
        Box::new(Power::new(UnimodalFilterDsh::new(d, 0.2, 1.3), 3)),
        Box::new(Concat::new(vec![
            Box::new(FilterDshPlus::new(d, 1.0)),
            Box::new(SimHash::new(d)),
            Box::new(tiny_minus),
        ])),
        Box::new(Mixture::new(vec![
            (0.3, Box::new(tiny_plus) as BoxedDshFamily<[f64]>),
            (0.3, Box::new(Power::new(FilterDshMinus::new(d, 1.1), 2))),
            (0.4, Box::new(UnimodalFilterDsh::new(d, -0.2, 1.0))),
        ])),
    ];
    for family in &families {
        assert_hash_many_is_the_hash_loop(family, &rows);
    }
}

#[test]
fn hash_many_is_the_hash_loop_for_minhash() {
    let sets: Vec<TokenSet> = (0..20u64)
        .map(|i| TokenSet::new((i..i + 5).map(|t| t * t % 23).collect()))
        .collect();
    let rows: Vec<&TokenSet> = sets.iter().collect();
    assert_hash_many_is_the_hash_loop(&MinHash::new(), &rows);
}

// ---------------------------------------------------------------------------
// Batched == row at a time
// ---------------------------------------------------------------------------

/// Batches ending before, on and after a block boundary, at thread counts
/// that put one, two and no full block on a worker.
fn assert_batches_equal_the_query_loop<S, B, V>(index: &Frontend<S, B, V>, queries: &S, ctx: &str)
where
    S: PointStore,
    S::Row: AsRow<Row = S::Row>,
    B: Borrow<Snapshot<S>>,
    V: Verifier<S::Row>,
    V::Answer: PartialEq + Debug,
{
    for size in [1usize, 63, 64, 65, 129] {
        let mut batch = queries.empty_like();
        for i in 0..size {
            batch.push_row(queries.row(i));
        }
        let each = |i| index.query(batch.row(i));
        let want: Vec<(V::Answer, QueryStats)> = (0..size).map(each).collect();
        for threads in [1usize, 2, 5] {
            assert_eq!(
                want,
                index.query_batch_with_threads(&batch, threads),
                "{ctx}: {size} queries on {threads} threads"
            );
        }
    }
}

/// The three verifiers over `make`'s backend, each grown the same way.
fn assert_verifiers_batch_like_they_loop<B: Borrow<Snapshot<BitStore>>>(
    ctx: &str,
    d: usize,
    points: &[BitVector],
    queries: &BitStore,
    make: impl Fn(&dyn DshFamily<[u64]>, usize, u64) -> B,
) {
    assert_batches_equal_the_query_loop(
        &common::near_neighbor_over(d, points.len(), |g, l| make(g, l, 1)),
        queries,
        &format!("{ctx}: FirstWithin"),
    );
    assert_batches_equal_the_query_loop(
        &common::annulus_over(d, |g, l| make(g, l, 2)),
        queries,
        &format!("{ctx}: Interval"),
    );
    assert_batches_equal_the_query_loop(
        &common::range_reporting_over(d, |g, l| make(g, l, 3)),
        queries,
        &format!("{ctx}: AllWithin"),
    );
}

#[test]
fn batched_queries_equal_the_query_loop_across_block_edges() {
    let d = 128;
    let points = common::bit_points(0xBA7C, 220, d);
    // Data points and fresh ones, so queries stop at different tables.
    let queries: Vec<BitVector> = points
        .iter()
        .step_by(3)
        .cloned()
        .chain(common::bit_points(0xBA7D, 60, d))
        .collect();
    let queries = BitStore::from(queries);
    assert!(queries.len() >= 129);
    let bulk = || BitStore::from(points[..150].to_vec());
    // A bulk segment, a sealed one, a delta and two tombstones.
    macro_rules! grown {
        ($index:expr) => {{
            let mut index = $index;
            for (i, p) in points[150..].iter().enumerate() {
                index.insert(p).unwrap();
                if i == 40 {
                    index.seal();
                }
            }
            index.remove(3).unwrap();
            index.remove(190).unwrap();
            index
        }};
    }

    assert_verifiers_batch_like_they_loop("static", d, &points, &queries, |g, l, seed| {
        HashTableIndex::build(g, BitStore::from(points.clone()), l, &mut seeded(seed))
    });
    assert_verifiers_batch_like_they_loop("dynamic", d, &points, &queries, |g, l, seed| {
        grown!(DynamicIndex::build(g, bulk(), l, &mut seeded(seed)))
    });
    for shards in [1usize, 3] {
        let ctx = format!("{shards} shards");
        assert_verifiers_batch_like_they_loop(&ctx, d, &points, &queries, |g, l, seed| {
            grown!(ShardedIndex::build(g, bulk(), l, shards, &mut seeded(seed)))
        });
    }

    // The two derived front-ends over `[f64]` rows.
    let d = 24;
    let points = || DenseStore::from(common::dense_points(0xBA7E, 150, d));
    let queries = DenseStore::from(common::dense_points(0xBA7F, 130, d));
    let spec = common::sphere_spec();
    assert_batches_equal_the_query_loop(
        &sphere_annulus::build(points(), d, spec, 1.4, 1.5, &mut seeded(4)),
        &queries,
        "sphere_annulus",
    );
    assert_batches_equal_the_query_loop(
        &hyperplane::build(points(), d, 1.4, 0.4, 1.5, &mut seeded(5)),
        &queries,
        "hyperplane",
    );
}

// ---------------------------------------------------------------------------
// Laziness
// ---------------------------------------------------------------------------

/// Wraps a family so that the query side of its `j`-th sampled pair
/// counts its evaluations into `evals[j]`.
struct Counting<F> {
    inner: F,
    evals: Arc<Vec<AtomicUsize>>,
    sampled: AtomicUsize,
}

struct CountingHasher {
    inner: Arc<dyn PointHasher<[u64]>>,
    evals: Arc<Vec<AtomicUsize>>,
    table: usize,
}

impl PointHasher<[u64]> for CountingHasher {
    fn hash(&self, x: &[u64]) -> u64 {
        self.evals[self.table].fetch_add(1, Ordering::Relaxed);
        self.inner.hash(x)
    }

    fn hash_many(&self, rows: &[&[u64]], out: &mut [u64]) {
        self.evals[self.table].fetch_add(rows.len(), Ordering::Relaxed);
        self.inner.hash_many(rows, out);
    }
}

impl<F: DshFamily<[u64]>> DshFamily<[u64]> for Counting<F> {
    fn sample(&self, rng: &mut dyn Rng) -> HasherPair<[u64]> {
        let pair = self.inner.sample(rng);
        HasherPair {
            data: pair.data,
            query: Arc::new(CountingHasher {
                inner: pair.query,
                evals: Arc::clone(&self.evals),
                table: self.sampled.fetch_add(1, Ordering::Relaxed),
            }),
        }
    }
}

/// Read and reset the per-table evaluation counts.
fn drain(evals: &[AtomicUsize]) -> Vec<usize> {
    evals.iter().map(|c| c.swap(0, Ordering::Relaxed)).collect()
}

/// One block on one worker: table `j` is evaluated for at most the rows
/// from the first that reached it onward, and never when none did.
/// `candidates_of` is the row-at-a-time path, `batch_of` the batched one.
fn assert_block_is_lazy(
    ctx: &str,
    evals: &[AtomicUsize],
    block: &[BitVector],
    candidates_of: impl Fn(&BitVector) -> (Vec<usize>, QueryStats),
    batch_of: impl Fn(&BitStore) -> Vec<(Vec<usize>, QueryStats)>,
) -> Vec<usize> {
    drain(evals);
    let mut want = Vec::new();
    // How many tables each row's own walk asks a key of.
    let mut reach = Vec::new();
    for q in block {
        want.push(candidates_of(q));
        let counts = drain(evals);
        assert!(counts.iter().all(|&c| c <= 1), "{ctx}: one row, one key");
        reach.push(counts.iter().sum::<usize>());
    }
    assert_eq!(
        want,
        batch_of(&BitStore::from(block.to_vec())),
        "{ctx}: answers"
    );
    for (j, &got) in drain(evals).iter().enumerate() {
        let first = reach.iter().position(|&tables| tables > j);
        let bound = first.map_or(0, |r| block.len() - r);
        assert!(
            got <= bound,
            "{ctx}: table {j} evaluated {got} times, first reached by row {first:?} of {}",
            block.len()
        );
        let reached = reach.iter().filter(|&&tables| tables > j).count();
        assert!(got >= reached, "{ctx}: table {j} under-evaluated");
    }
    reach
}

#[test]
fn block_driver_hashes_a_table_only_from_the_first_row_that_reaches_it() {
    let (d, l, limit) = (64, 12, Some(6));
    // A hundred copies of one point: a query equal to it fills its limit
    // in the first table; one a few bits away in whichever table first
    // samples none of those bits; a random one only after several.
    let mut rng = seeded(0x1A2E);
    let centre = BitVector::random(&mut rng, d);
    let points: Vec<BitVector> = (0..300)
        .map(|i| {
            if i % 3 == 0 {
                centre.clone()
            } else {
                BitVector::random(&mut rng, d)
            }
        })
        .collect();
    let near = |bits: usize| {
        let mut q = centre.clone();
        for i in 0..bits {
            q.flip(i * 5);
        }
        q
    };
    let mixed: Vec<BitVector> = (0..64)
        .map(|i| match i % 4 {
            0 => BitVector::random(&mut rng, d),
            1 => near(1 + i % 7),
            2 => centre.clone(),
            _ => near(9),
        })
        .collect();
    // No row of this block gets past the first table.
    let all_centre = vec![centre.clone(); 40];

    let evals: Arc<Vec<AtomicUsize>> = Arc::new((0..l).map(|_| AtomicUsize::new(0)).collect());
    let family = || Counting {
        inner: Power::new(BitSampling::new(d), 8),
        evals: Arc::clone(&evals),
        sampled: AtomicUsize::new(0),
    };
    let store = || BitStore::from(points.clone());

    let fixed = HashTableIndex::build(&family(), store(), l, &mut seeded(9));
    let sharded = ShardedIndex::build(&family(), store(), l, 3, &mut seeded(9));
    for (name, block) in [("mixed", &mixed), ("all-centre", &all_centre)] {
        let reach = assert_block_is_lazy(
            &format!("static, {name}"),
            &evals,
            block,
            |q| fixed.candidates(q, limit),
            |qs| fixed.candidates_batch_with_threads(qs, limit, 1),
        );
        let same = assert_block_is_lazy(
            &format!("sharded, {name}"),
            &evals,
            block,
            |q| sharded.candidates(q, limit),
            |qs| sharded.candidates_batch_with_threads(qs, limit, 1),
        );
        assert_eq!(reach, same, "{name}: both walks stop at the same table");
        if name == "mixed" {
            let distinct: std::collections::BTreeSet<_> = reach.iter().collect();
            assert!(distinct.len() >= 4, "rows must stop at different tables");
        } else {
            assert!(reach.iter().all(|&tables| tables == 1));
        }
    }
}
