//! The one query surface of the §6 data structures.
//!
//! Every structure in the paper's §6 is the same algorithm: probe the `L`
//! tables under `g`, then keep the candidates whose exact measure to the
//! query lies in an interval. A `Select` is that rule — the interval
//! and how many bucket entries to retrieve as a multiple of `L` — and the
//! [`Answer`] type decides whether a query keeps the first candidate it
//! accepts or all of them. [`Frontend`] runs it over the one walk of a
//! [`Snapshot`], measuring candidates with the store's
//! [`PointStore::Metric`]. The named indexes are aliases over the three
//! answers:
//!
//! | alias | answer | keeps |
//! |---|---|---|
//! | [`crate::NearNeighborIndex`] | `Option<usize>` | first within `r2`, after at most `3L` entries |
//! | [`crate::AnnulusIndex`] | `Option<`[`crate::annulus::AnnulusMatch`]`>` | first inside `[lo, hi]`, after at most `8L` entries (Thm 6.1) |
//! | [`crate::RangeReportingIndex`] | `Vec<usize>` | all within `r_plus` (Thm 6.5) |
//!
//! A first-match query stops after the table holding its match, or at
//! its entry limit, whichever comes first: it verifies each table's new
//! candidates as the walk finishes that table. So its answer and
//! distance computations are those of verifying the whole retrieved
//! list, while its walk counters in [`QueryStats`] stop with it. A
//! range-reporting query walks to its limit.
//!
//! Hyperplane queries (§6.1) and sphere-annulus search (Theorem 6.4) are
//! parameter derivations that return an [`crate::AnnulusIndex`]; see
//! [`crate::hyperplane`] and [`crate::sphere_annulus`].
//!
//! The backend `B` is the *owner* of that snapshot: the build-once
//! [`crate::HashTableIndex`] the `build` constructors make, a
//! [`crate::DynamicIndex`], a [`crate::ShardedIndex`], or a bare
//! [`Snapshot`] — anything that [`Borrow`]s one. A front-end only reads.
//! Writes go to the backend through [`Frontend::backend_mut`] —
//! `idx.backend_mut().insert(&p)` on a dynamic or sharded backend — and
//! the next query sees them.

use crate::annulus::AnnulusMatch;
use crate::parallel;
use crate::shard::Snapshot;
use crate::table::{QueryScratch, QueryStats};
use dsh_core::points::{AsRow, Measures, PointStore};
use std::borrow::Borrow;
use std::marker::PhantomData;

/// What a query keeps: the candidates whose measure lies in `[lo, hi]`,
/// retrieving at most `limit · L` bucket entries (`None`: no limit).
#[derive(Clone, Copy)]
pub(crate) struct Select {
    pub(crate) lo: f64,
    pub(crate) hi: f64,
    pub(crate) limit: Option<usize>,
}

/// The answer of one query: the first accepted candidate, or all of
/// them.
pub trait Answer: Default + Send {
    /// Whether the answer is complete at the first accepted candidate.
    const FIRST: bool;

    /// Record the accepted candidate `id` and its measure `value`.
    fn keep(&mut self, id: usize, value: f64);
}

impl Answer for Option<usize> {
    const FIRST: bool = true;
    fn keep(&mut self, id: usize, _value: f64) {
        *self = Some(id);
    }
}

impl Answer for Option<AnnulusMatch> {
    const FIRST: bool = true;
    fn keep(&mut self, index: usize, value: f64) {
        *self = Some(AnnulusMatch { index, value });
    }
}

impl Answer for Vec<usize> {
    const FIRST: bool = false;
    fn keep(&mut self, id: usize, _value: f64) {
        self.push(id);
    }
}

/// The one verification loop: measure the candidates `ids` (in
/// retrieval order) that `snapshot` retrieved for query row `q` under
/// `metric`, and keep the ones `select` accepts into `answer` — the
/// first, or all, as `A` says. Every candidate looked at counts one
/// distance computation in `computed`, so a first-match answer pays only
/// for what it looked at. Returns whether the answer is complete (a
/// first-match answer has its match).
///
/// A one-shard snapshot measures `ids` into the caller's `measures` in
/// one [`PointStore::measure_many`] call of its [`ChunkedStore`], which
/// runs the batch kernels whatever the chunk layout; a multi-shard one
/// measures row by row.
///
/// [`ChunkedStore`]: dsh_core::points::ChunkedStore
#[allow(clippy::too_many_arguments)] // the query, its rule, and two outputs
fn verify<S: PointStore, A: Answer>(
    snapshot: &Snapshot<S>,
    metric: &S::Metric,
    select: Select,
    ids: &[usize],
    q: &S::Row,
    measures: &mut Measures,
    answer: &mut A,
    computed: &mut usize,
) -> bool {
    measures.values.clear();
    match snapshot.num_shards() {
        1 => snapshot
            .shard_rows(0)
            .measure_many(metric, ids, q, measures),
        _ => measures.values.extend(
            ids.iter()
                .map(|&id| S::measure(metric, snapshot.point(id), q)),
        ),
    }
    for (&id, &value) in ids.iter().zip(&measures.values) {
        *computed += 1;
        if value >= select.lo && value <= select.hi {
            answer.keep(id, value);
            if A::FIRST {
                return true;
            }
        }
    }
    false
}

/// Answer query row `q`, whose probe key in table `j` is `key_of(j)`:
/// the one row function of every front-end query, one-row or batched.
///
/// A first-match answer verifies each table's new candidates as the walk
/// finishes the table, and ends the walk after the table holding its
/// match (candidates past the match in that table are measured but not
/// counted); if the retrieval limit ends the walk first, it verifies
/// the candidates the last table left. An all-match answer walks to the
/// limit and verifies everything afterwards. Either way the answer and
/// its distance computations are those of verifying the whole
/// retrieved list in order.
fn answer_row<S: PointStore, A: Answer>(
    snapshot: &Snapshot<S>,
    metric: &S::Metric,
    select: Select,
    limit: Option<usize>,
    q: &S::Row,
    key_of: &mut dyn FnMut(usize) -> u64,
    scratch: &mut QueryScratch,
) -> (A, QueryStats) {
    let QueryScratch { visited, measures } = scratch;
    let (mut answer, mut computed, mut verified) = (A::default(), 0, 0);
    let mut check = |ids: &[usize]| {
        verify(
            snapshot,
            metric,
            select,
            ids,
            q,
            measures,
            &mut answer,
            &mut computed,
        )
    };
    let mut each_table = |cands: &[usize]| {
        let new = &cands[verified..];
        verified = cands.len();
        check(new)
    };
    let mut no_op = |_: &[usize]| false;
    let stop: &mut dyn FnMut(&[usize]) -> bool = if A::FIRST {
        &mut each_table
    } else {
        &mut no_op
    };
    let (cands, mut stats) = snapshot.candidates_row(key_of, limit, visited, stop);
    check(&cands[verified..]);
    stats.distance_computations = computed;
    (answer, stats)
}

/// The contract of every static `build` constructor: the point set is
/// fixed and non-empty. (The mutable backends of the `over` constructors
/// may start empty; a static index over nothing can never answer
/// anything.)
pub(crate) fn assert_non_empty(points: &impl PointStore) {
    assert!(
        !points.is_empty(),
        "cannot build a static index over an empty point set"
    );
}

/// A query front-end: candidates from the [`Snapshot`] backend `B`
/// owns, measured under the store's metric and kept by the `Select` of
/// its constructor into the answer `A`.
///
/// `S` is the point store the rows live in; it fixes the row type and
/// the metric, and makes [`crate::HashTableIndex<S>`] the default
/// backend of the named aliases.
pub struct Frontend<S: PointStore, B: Borrow<Snapshot<S>>, A: Answer> {
    backend: B,
    metric: S::Metric,
    select: Select,
    answer: PhantomData<fn() -> A>,
}

impl<S: PointStore, B: Borrow<Snapshot<S>>, A: Answer> Frontend<S, B, A> {
    pub(crate) fn new(backend: B, metric: S::Metric, select: Select) -> Self {
        Frontend {
            backend,
            metric,
            select,
            answer: PhantomData,
        }
    }

    /// The backend (e.g. to take a [`Snapshot`] of a sharded one,
    /// inspect a dynamic one's segment layout, or read a static one's
    /// store).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the backend: the write path (`insert` /
    /// `remove` / `apply_batch` / `seal` / `compact` of a mutable
    /// backend).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// The snapshot every read goes through.
    fn snapshot(&self) -> &Snapshot<S> {
        self.backend.borrow()
    }

    /// Number of repetitions `L`.
    pub fn repetitions(&self) -> usize {
        self.snapshot().repetitions()
    }

    /// The retrieval budget of one query.
    fn limit(&self) -> Option<usize> {
        self.select.limit.map(|k| k * self.repetitions())
    }

    /// Answer one query.
    pub fn query<Q>(&self, q: &Q) -> (A, QueryStats)
    where
        Q: AsRow<Row = S::Row> + ?Sized,
    {
        let (snapshot, q) = (self.snapshot(), q.as_row());
        let mut key_of = snapshot.query_keys(q);
        let scratch = &mut snapshot.new_scratch();
        answer_row(
            snapshot,
            &self.metric,
            self.select,
            self.limit(),
            q,
            &mut key_of,
            scratch,
        )
    }

    /// Run [`Frontend::query`] for a batch of queries, fanned out across
    /// worker threads with one reusable scratch buffer per worker.
    /// Results line up with `queries` and are identical to a
    /// query-at-a-time loop.
    pub fn query_batch<QS>(&self, queries: &QS) -> Vec<(A, QueryStats)>
    where
        QS: PointStore<Row = S::Row>,
    {
        self.query_batch_with_threads(queries, parallel::available_threads())
    }

    /// [`Frontend::query_batch`] with an explicit worker-thread count
    /// (the output does not depend on it). Workers hash their queries in
    /// blocks ([`dsh_core::family::PointHasher::hash_many`]) and answer
    /// each row as [`Frontend::query`] does, with one scratch per worker.
    pub fn query_batch_with_threads<QS>(&self, queries: &QS, threads: usize) -> Vec<(A, QueryStats)>
    where
        QS: PointStore<Row = S::Row>,
    {
        let (snapshot, metric, select, limit) =
            (self.snapshot(), &self.metric, self.select, self.limit());
        snapshot.map_rows_blocked(queries, threads, |q, key_of, scratch| {
            answer_row(snapshot, metric, select, limit, q, key_of, scratch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicIndex, HashTableIndex};
    use dsh_core::points::{BitMetric, BitStore, BitVector};
    use dsh_hamming::BitSampling;
    use dsh_math::rng::seeded;

    /// [`verify`]'s answer and its distance computations.
    fn verified<A: Answer>(snapshot: &Snapshot<BitStore>, cands: &[usize]) -> (A, usize) {
        let (lo, hi, limit) = (0.0, 0.05, None);
        let (select, metric) = (Select { lo, hi, limit }, BitMetric::RelativeHamming(64));
        let q = BitVector::zeros(64);
        let (mut answer, mut computed) = (A::default(), 0);
        let measures = &mut Measures::default();
        let done = verify(
            snapshot,
            &metric,
            select,
            cands,
            q.as_blocks(),
            measures,
            &mut answer,
            &mut computed,
        );
        assert_eq!(done, A::FIRST && cands.contains(&0));
        (answer, computed)
    }

    /// The one accepted candidate (id 0, at relative distance 3/64 from
    /// the query; every other id is at 10/64) sits first, on both sides
    /// of the kernels' 8-row prefetch distance, last, or nowhere in the
    /// list. A first-match answer counts the candidates up to and
    /// including it, an all-match answer the whole list, over a flat
    /// snapshot (one kernel run) and one whose last five rows sit in the
    /// tail (a run per part, the last one back in chunk 0) alike.
    #[test]
    fn first_match_accounting_across_block_edges() {
        let (n, d) = (20, 64);
        let points: Vec<BitVector> = (0..n)
            .map(|i| {
                BitVector::from_bools(
                    &(0..d)
                        .map(|b| b < 3 || (i > 0 && b < 10))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let family = BitSampling::new(d);
        let flat =
            HashTableIndex::build(&family, BitStore::from(points.clone()), 2, &mut seeded(1));
        let mut grown = DynamicIndex::build(
            &family,
            BitStore::from(points[..15].to_vec()),
            2,
            &mut seeded(1),
        );
        for p in &points[15..] {
            grown.insert(p).unwrap();
        }
        let tails = [&*flat, &*grown].map(|s| (s.num_shards(), s.shard_rows(0).tail_rows()));
        assert_eq!(tails, [(1, 0), (1, 5)]);
        for (shape, snapshot) in [("flat", &*flat), ("grown", &*grown)] {
            let row = snapshot.point(0);
            let value = BitStore::measure(
                &BitMetric::RelativeHamming(d),
                row,
                BitVector::zeros(d).as_blocks(),
            );
            for at in [Some(0), Some(7), Some(8), Some(n - 1), None] {
                let mut cands: Vec<usize> = (1..n).collect();
                if let Some(at) = at {
                    cands.insert(at, 0);
                }
                let ctx = format!("{shape}, match at {at:?}");
                let counted = at.map_or(cands.len(), |at| at + 1);
                let (hit, evals) = verified::<Option<AnnulusMatch>>(snapshot, &cands);
                assert_eq!(
                    hit.map(|h| (h.index, h.value.to_bits())),
                    at.map(|_| (0, value.to_bits())),
                    "{ctx}"
                );
                assert_eq!(evals, counted, "{ctx}");
                let id = verified::<Option<usize>>(snapshot, &cands);
                assert_eq!(id, (at.map(|_| 0), counted), "{ctx}");
                let all = verified::<Vec<usize>>(snapshot, &cands);
                assert_eq!(all, (at.map_or(vec![], |_| vec![0]), cands.len()), "{ctx}");
            }
        }
    }
}
