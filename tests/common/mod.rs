//! Shared test harnesses for the integration suite: the statistical
//! recall sweep, the front-end parity script, and (in [`harness`]) the
//! model-based write-path harness.
//!
//! The recall harness runs a seeded sweep of planted-neighbor instances
//! and reports the fraction of runs in which the index under test
//! returned a point within the target radius — the average-based style
//! the repo uses for every probabilistic guarantee (a single run of a
//! constant-success-probability structure proves nothing; two dozen
//! seeded runs pin the success rate without flakiness).
//!
//! The same harness serves every build path — static, dynamic
//! (insert-then-compact), and sharded — because the closure receives the
//! run's RNG positioned right after instance generation: paths that
//! consume identical randomness (they all sample their `(h, g)` pairs
//! the same way) must reproduce each other's answers run for run, which
//! `tests/recall.rs` asserts on top of the recall bar itself.

#![allow(dead_code, unused_macros, unused_imports)] // each integration-test binary uses a subset

pub mod harness;

use dsh_core::family::DshFamily;
use dsh_core::points::{hamming, AsRow, BitStore, BitVector, DenseStore, DenseVector, PointStore};
use dsh_data::hamming_data::{self, planted_hamming_instance, PlantedHammingInstance};
use dsh_data::sphere_data;
use dsh_hamming::BitSampling;
use dsh_index::{
    hyperplane, measures, sphere_annulus, AnnulusIndex, AnnulusSpec, Answer, Frontend,
    NearNeighborIndex, QueryStats, RangeReportingIndex, Snapshot,
};
use dsh_math::rng::seeded;
use harness::{Model, Op, Style, Subject};
use rand::Rng;
use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt::Debug;

/// `n` uniform `d`-bit vectors from `seed`.
pub fn bit_points(seed: u64, n: usize, d: usize) -> Vec<BitVector> {
    hamming_data::uniform_hamming(&mut seeded(seed), n, d)
}

/// `n` uniform unit vectors in dimension `d` from `seed`.
pub fn dense_points(seed: u64, n: usize, d: usize) -> Vec<DenseVector> {
    sphere_data::uniform_sphere(&mut seeded(seed), n, d)
}

/// The `L`-table structure by its definition, straight from the hashers
/// — the reference every index walk is checked against, so the one walk
/// is never checked only against itself. Sample the `l` pairs
/// `(h_j, g_j)` from `rng` as every build does (the RNG-stream
/// contract); then per query and limit, walk tables `0..l` in order,
/// take the rows of `points` with `h_j(x) == g_j(q)` in ascending id
/// order, dedupe across tables, and stop once `limit` raw entries are
/// pulled (mid-bucket if need be). Answers are query-major: query `i`
/// at `limits[k]` is entry `i * limits.len() + k`.
pub fn by_definition<S: PointStore>(
    family: &(impl DshFamily<S::Row> + ?Sized),
    l: usize,
    rng: &mut dyn Rng,
    points: &S,
    queries: &S,
    limits: &[Option<usize>],
) -> Vec<(Vec<usize>, QueryStats)> {
    let pairs: Vec<_> = (0..l).map(|_| family.sample(rng)).collect();
    let stored: Vec<Vec<u64>> = pairs
        .iter()
        .map(|pair| {
            (0..points.len())
                .map(|i| pair.data.hash(points.row(i)))
                .collect()
        })
        .collect();
    let mut answers = Vec::new();
    for q in (0..queries.len()).map(|i| queries.row(i)) {
        let probed: Vec<u64> = pairs.iter().map(|pair| pair.query.hash(q)).collect();
        for &limit in limits {
            let budget = limit.unwrap_or(usize::MAX);
            let (mut ids, mut stats) = (Vec::new(), QueryStats::default());
            let mut seen = HashSet::new();
            for (keys, &key) in stored.iter().zip(&probed) {
                stats.tables_probed += 1;
                for i in (0..points.len()).filter(|&i| keys[i] == key) {
                    if stats.candidates_retrieved == budget {
                        break;
                    }
                    stats.candidates_retrieved += 1;
                    if seen.insert(i) {
                        ids.push(i);
                    } else {
                        stats.duplicates += 1;
                    }
                }
                if stats.candidates_retrieved >= budget {
                    break;
                }
            }
            stats.distinct_candidates = ids.len();
            answers.push((ids, stats));
        }
    }
    answers
}

/// How a snapshot lays out the ids a query walks, as far as the query's
/// answer and `QueryStats` can tell: the rows, which ids are live, and
/// the first id of each logical probe of a table (the sealed segments in
/// creation order, then the delta), ascending. A flat layout is `[0]`.
pub struct Layout<'a, S> {
    pub points: &'a S,
    pub live: &'a [bool],
    pub probe_starts: &'a [usize],
}

/// A first-match query by its definition, the classic LSH query loop
/// (Indyk & Motwani, STOC 1998): sample the `l` pairs `(h_j, g_j)` from
/// `rng` as every build does; then per query walk tables `0..l` in
/// order, take the live rows with `h_j(x) == g_j(q)` in ascending id
/// order, dedupe across tables, measure each table's new rows in order
/// under `metric`, and stop after the table holding the first one inside
/// `[lo, hi]`, or once `limit` raw entries are pulled (mid-bucket if need
/// be; the rows pulled are still measured). Returns the match as (id,
/// measure) and the query's stats. A table the walk finishes counts
/// every logical probe of `layout`; the table the limit cuts counts the
/// probes up to the one holding its last entry.
pub fn first_match_by_definition<S: PointStore>(
    family: &(impl DshFamily<S::Row> + ?Sized),
    l: usize,
    rng: &mut dyn Rng,
    layout: &Layout<S>,
    queries: &S,
    metric: &S::Metric,
    (lo, hi, limit): (f64, f64, usize),
) -> Vec<(Option<(usize, f64)>, QueryStats)> {
    let (points, probes) = (layout.points, layout.probe_starts.len());
    let pairs: Vec<_> = (0..l).map(|_| family.sample(rng)).collect();
    let stored: Vec<Vec<u64>> = pairs
        .iter()
        .map(|pair| {
            (0..points.len())
                .map(|i| pair.data.hash(points.row(i)))
                .collect()
        })
        .collect();
    let answer = |q: &S::Row| {
        let (mut hit, mut stats, mut seen) = (None, QueryStats::default(), HashSet::new());
        for (keys, pair) in stored.iter().zip(&pairs) {
            let key = pair.query.hash(q);
            let (mut new, mut last) = (Vec::new(), 0);
            let rows = (0..points.len()).filter(|&i| layout.live[i] && keys[i] == key);
            for i in rows.take(limit - stats.candidates_retrieved) {
                stats.candidates_retrieved += 1;
                last = i;
                if seen.insert(i) {
                    new.push(i);
                } else {
                    stats.duplicates += 1;
                }
            }
            let cut = stats.candidates_retrieved == limit;
            stats.tables_probed += if cut {
                layout.probe_starts.partition_point(|&start| start <= last)
            } else {
                probes
            };
            for i in new {
                stats.distance_computations += 1;
                let value = S::measure(metric, points.row(i), q);
                if lo <= value && value <= hi {
                    hit = Some((i, value));
                    break;
                }
            }
            if hit.is_some() || cut {
                break;
            }
        }
        stats.distinct_candidates = seen.len();
        (hit, stats)
    };
    (0..queries.len()).map(|i| answer(queries.row(i))).collect()
}

/// Parameters of one recall@1 sweep over planted Hamming instances.
pub struct RecallSweep {
    /// Base RNG seed; run `i` uses `seed + i`.
    pub seed: u64,
    /// Number of independent instances.
    pub runs: u64,
    /// Points per instance.
    pub n: usize,
    /// Hamming dimension.
    pub d: usize,
    /// Planted neighbor distance (absolute bits).
    pub r_planted: usize,
    /// Reporting radius `r2` (relative), the recall target.
    pub r2_rel: f64,
}

impl RecallSweep {
    /// The standard sweep: a planted neighbor at relative distance 0.05
    /// in `d = 256`, reported within `r2 = 0.25`, over 20 seeded runs.
    pub fn standard() -> Self {
        RecallSweep {
            seed: 0x4eca11,
            runs: 20,
            n: 250,
            d: 256,
            r_planted: 12,
            r2_rel: 0.25,
        }
    }

    /// CPF value at the planted distance for a bit-sampling family
    /// (`p1 = 1 - r1`), the value index builds derive `L` from.
    pub fn p1(&self) -> f64 {
        1.0 - self.r_planted as f64 / self.d as f64
    }

    /// CPF value at the reporting radius (`p2 = 1 - r2`).
    pub fn p2(&self) -> f64 {
        1.0 - self.r2_rel
    }
}

/// Run the sweep: `build_and_query` receives each planted instance plus
/// the run's RNG (positioned right after instance generation, so index
/// builds in static and dynamic harness closures consume identical
/// randomness), and returns the reported point id, if any.
///
/// Every reported point is checked against the reporting radius (a
/// violation fails the test immediately); the returned recall@1 is the
/// fraction of runs that reported a valid point.
pub fn recall_at_1<F>(sweep: &RecallSweep, mut build_and_query: F) -> f64
where
    F: FnMut(&PlantedHammingInstance, &mut dyn Rng) -> Option<usize>,
{
    assert!(sweep.runs > 0);
    let mut hits = 0u64;
    for run in 0..sweep.runs {
        let mut rng = seeded(sweep.seed + run);
        let inst = planted_hamming_instance(&mut rng, sweep.n, sweep.d, sweep.r_planted);
        if let Some(i) = build_and_query(&inst, &mut rng) {
            let rel =
                hamming(inst.points[i].as_blocks(), inst.query.as_blocks()) as f64 / sweep.d as f64;
            assert!(
                rel <= sweep.r2_rel,
                "run {run}: reported point at relative distance {rel} > r2 = {}",
                sweep.r2_rel
            );
            hits += 1;
        }
    }
    hits as f64 / sweep.runs as f64
}

// ---------------------------------------------------------------------------
// Front-end parity: the three answers and the two derived constructors
// answer identically over every backend. Each front-end under test is one
// function generic over the backend (`make` builds it from the family
// and `L` the front-end hands over, e.g.
// `|g, l| DynamicIndex::build(g, store, l, rng)`), and one script —
// `front_end_script`, in the harness's op language — drives any number
// of them through the same writes.
// ---------------------------------------------------------------------------

/// `NearNeighborIndex` over a bit-sampling family in dimension `d`,
/// sized for `n` points.
pub fn near_neighbor_over<B: Borrow<Snapshot<BitStore>>>(
    d: usize,
    n: usize,
    make: impl FnOnce(&dyn DshFamily<[u64]>, usize) -> B,
) -> NearNeighborIndex<BitStore, B> {
    let measure = measures::relative_hamming(d);
    NearNeighborIndex::over(
        &BitSampling::new(d),
        measure,
        0.25,
        n,
        0.95,
        0.75,
        2.0,
        |g, l| make(g, l),
    )
}

/// `AnnulusIndex` with 12 repetitions of bit sampling in dimension `d`.
pub fn annulus_over<B: Borrow<Snapshot<BitStore>>>(
    d: usize,
    make: impl FnOnce(&dyn DshFamily<[u64]>, usize) -> B,
) -> AnnulusIndex<BitStore, B> {
    let backend = make(&BitSampling::new(d), 12);
    AnnulusIndex::over(backend, measures::relative_hamming(d), (0.0, 0.2))
}

/// `RangeReportingIndex` with 20 repetitions of bit sampling in
/// dimension `d`.
pub fn range_reporting_over<B: Borrow<Snapshot<BitStore>>>(
    d: usize,
    make: impl FnOnce(&dyn DshFamily<[u64]>, usize) -> B,
) -> RangeReportingIndex<BitStore, B> {
    let backend = make(&BitSampling::new(d), 20);
    RangeReportingIndex::over(backend, measures::relative_hamming(d), 0.05, 0.2)
}

/// The hyperplane-query derivation (§6.1) in dimension `d`.
pub fn hyperplane_over<B: Borrow<Snapshot<DenseStore>>>(
    d: usize,
    make: impl FnOnce(&dyn DshFamily<[f64]>, usize) -> B,
) -> AnnulusIndex<DenseStore, B> {
    hyperplane::over(d, 1.4, 0.4, 1.5, |family, l| make(family, l))
}

/// The spec every sphere-annulus parity check uses.
pub fn sphere_spec() -> AnnulusSpec {
    AnnulusSpec::widened(0.35, 0.5, 2.5)
}

/// The sphere-annulus derivation (Theorem 6.4) in dimension `d`.
pub fn sphere_annulus_over<B: Borrow<Snapshot<DenseStore>>>(
    d: usize,
    make: impl FnOnce(&dyn DshFamily<[f64]>, usize) -> B,
) -> AnnulusIndex<DenseStore, B> {
    sphere_annulus::over(d, sphere_spec(), 1.4, 1.5, |family, l| make(family, l))
}

/// Query-at-a-time answers of `index`, after checking that every batched
/// path (`query_batch`, `query_batch_with_threads` at 1 and 4 threads)
/// reproduces them.
pub fn answers<S, B, A>(index: &Frontend<S, B, A>, queries: &S, ctx: &str) -> Vec<(A, QueryStats)>
where
    S: PointStore,
    S::Row: AsRow<Row = S::Row>,
    B: Borrow<Snapshot<S>>,
    A: Answer + PartialEq + Debug,
{
    let each = |i| index.query(queries.row(i));
    let sequential: Vec<_> = (0..queries.len()).map(each).collect();
    for threads in [1usize, 4] {
        assert_eq!(
            sequential,
            index.query_batch_with_threads(queries, threads),
            "{ctx}: batched (threads {threads})"
        );
    }
    assert_eq!(sequential, index.query_batch(queries), "{ctx}: batched");
    sequential
}

/// The front-end parity script as four stages of harness ops over a
/// pool whose first `n` points are the ones the reference was built
/// over: grow by per-op inserts, sealing every 41; compact; churn — a
/// remove, then one group commit inserting the rest of the pool and
/// removing an id it just assigned, a live one and an already dead one;
/// compact again.
fn front_end_script(n: usize, pool: usize) -> [Vec<Op>; 4] {
    let seal_after = |i| (i % 41 == 40).then_some(Op::Seal);
    let grow = (0..n).flat_map(|i| [Some(Op::Insert(i)), seal_after(i)]);
    let staged = (n..pool).map(Op::Insert);
    let staged = staged.chain([n, n + 2, 7].map(Op::Remove)).collect();
    let churn = vec![Op::Remove(7), Op::Batch(staged)];
    let compact = vec![Op::Compact];
    [grow.flatten().collect(), compact.clone(), churn, compact]
}

/// Drive the mutable backend under `subject` through
/// [`front_end_script`] — every write outcome checked against the
/// harness model — and return its [`answers`] after each stage.
pub fn front_end_stages<S, B, A, Q>(
    mut subject: Frontend<S, B, A>,
    pool: &[Q],
    n: usize,
    queries: &S,
    name: &str,
) -> Vec<Vec<(A, QueryStats)>>
where
    S: PointStore,
    S::Row: AsRow<Row = S::Row>,
    B: Borrow<Snapshot<S>> + Subject<S>,
    A: Answer + PartialEq + Debug,
    Q: AsRow<Row = S::Row>,
{
    let mut model = Model::default();
    let mut stage = |ops: &Vec<Op>| {
        for op in ops {
            let outcome = harness::apply(subject.backend_mut(), op, pool, Style::Group);
            assert_eq!(outcome, model.apply(op).outcome, "{name}: {op:?}");
        }
        answers(&subject, queries, name)
    };
    front_end_script(n, pool.len())
        .iter()
        .map(&mut stage)
        .collect()
}

/// Front-end parity over `$case = (empty store, pool, n, queries)`.
/// `$reference` is a static build over the first `n` points of the pool;
/// `$over` is the same front-end over the backend `$make` builds, and is
/// instantiated over an **empty** `DynamicIndex` and `ShardedIndex`es of
/// 1, 2 and 8 shards, all sampled from `$seed` like the reference and
/// driven through [`front_end_stages`]. Every subject must agree with
/// the reference on the derived repetition count `L` and, once grown and
/// compacted, on every answer (ids, order,
/// full `QueryStats`); with the first subject on every answer at every
/// stage; and at each stage the batched query paths must reproduce
/// query-at-a-time (see [`answers`]).
macro_rules! front_end_parity {
    (
        $name:expr,
        seed: $seed:expr,
        reference: $reference:expr,
        over: |$make:ident| $over:expr,
        case: $case:expr $(,)?
    ) => {{
        use dsh_core::family::DshFamily;
        use dsh_index::{DynamicIndex, ShardedIndex};
        let (name, seed) = ($name, $seed);
        let &(ref empty, pool, n, queries) = $case;
        let reference = $reference;
        let want = $crate::common::answers(&reference, queries, name);
        let rng = || dsh_math::rng::seeded(seed);
        let dynamic = {
            let $make =
                |g: &dyn DshFamily<_>, l| DynamicIndex::build(g, empty.clone(), l, &mut rng());
            $over
        };
        assert_eq!(
            reference.repetitions(),
            dynamic.repetitions(),
            "{name}: repetitions"
        );
        let first = $crate::common::front_end_stages(dynamic, pool, n, queries, name);
        assert_eq!(
            want, first[1],
            "{name}: grown + compacted vs the static build"
        );
        for shards in $crate::common::harness::SHARD_COUNTS {
            let sharded = {
                let $make = |g: &dyn DshFamily<_>, l| {
                    ShardedIndex::build(g, empty.clone(), l, shards, &mut rng())
                };
                $over
            };
            assert_eq!(
                reference.repetitions(),
                sharded.repetitions(),
                "{name}: repetitions"
            );
            let run = $crate::common::front_end_stages(sharded, pool, n, queries, name);
            assert_eq!(
                first, run,
                "{name}: {shards} shards vs unsharded, every stage"
            );
        }
    }};
}
pub(crate) use front_end_parity;
