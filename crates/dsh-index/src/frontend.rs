//! The one query surface of the §6 data structures.
//!
//! Every structure in the paper's §6 is the same algorithm: probe the `L`
//! tables under `g`, then keep the candidates a predicate accepts. A
//! [`Verifier`] is that predicate — how many bucket entries to retrieve
//! as a function of `L`, what an answer looks like, and which candidates
//! make it in — and [`Frontend`] runs it over any
//! [`CandidateBackend`]. The named indexes are aliases over the three
//! verifiers:
//!
//! | alias | verifier | keeps |
//! |---|---|---|
//! | [`crate::NearNeighborIndex`] | [`crate::ann::FirstWithin`] | first within `r2`, after at most `3L` entries |
//! | [`crate::AnnulusIndex`] | [`crate::annulus::Interval`] | first inside `[lo, hi]`, after at most `8L` entries (Thm 6.1) |
//! | [`crate::RangeReportingIndex`] | [`crate::range_reporting::AllWithin`] | all within `r_plus` (Thm 6.5) |
//!
//! Hyperplane queries (§6.1) and sphere-annulus search (Theorem 6.4) are
//! parameter derivations that return an [`crate::AnnulusIndex`]; see
//! [`crate::hyperplane`] and [`crate::sphere_annulus`].
//!
//! A front-end only reads. Writes go to the backend through
//! [`Frontend::backend_mut`] — `idx.backend_mut().insert(&p)` on a
//! [`crate::DynamicIndex`] or [`crate::ShardedIndex`] backend — and the
//! next query sees them.

use crate::annulus::Measure;
use crate::parallel;
use crate::table::{map_rows_blocked, CandidateBackend, HashTableIndex, QueryStats, ROW_AHEAD};
use dsh_core::family::DshFamily;
use dsh_core::points::{AsRow, PointStore};
use rand::Rng;
use std::marker::PhantomData;

/// The verification policy of a [`Frontend`] over rows of type `R`.
pub trait Verifier<R: ?Sized>: Send + Sync {
    /// What one query returns next to its [`QueryStats`].
    type Answer: Send;

    /// How many raw bucket entries a query may retrieve from a backend
    /// with `l` repetitions before giving up (`None`: no limit).
    fn retrieval_limit(&self, l: usize) -> Option<usize>;

    /// Turn the retrieved candidates `cands` (in retrieval order) into
    /// the answer for query row `q`, counting every exact measure
    /// evaluation into `stats.distance_computations`.
    fn verify<B: CandidateBackend<Row = R>>(
        &self,
        backend: &B,
        cands: &[usize],
        q: &R,
        stats: &mut QueryStats,
    ) -> Self::Answer;
}

/// The exact measure of each candidate to `q`, lazily and in retrieval
/// order — the one verification loop every [`Verifier`] consumes. Each
/// item pulled counts one distance computation, so a verifier that stops
/// at the first acceptable candidate pays only for what it looked at.
pub(crate) fn measured<'a, B: CandidateBackend>(
    backend: &'a B,
    measure: &'a Measure<B::Row>,
    cands: &'a [usize],
    q: &'a B::Row,
    stats: &'a mut QueryStats,
) -> impl Iterator<Item = (usize, f64)> + 'a {
    cands.iter().enumerate().map(move |(j, &i)| {
        // Gather the row a few candidates ahead so its cache misses
        // overlap this candidate's distance computation.
        if let Some(&ahead) = cands.get(j + ROW_AHEAD) {
            backend.prefetch_point(ahead);
        }
        stats.distance_computations += 1;
        (i, measure(backend.point(i), q))
    })
}

/// The static backend of every `build` constructor: `l` repetitions of
/// `family` over a fixed, non-empty point set. (The mutable backends may
/// start empty; a static index over nothing can never answer anything.)
pub(crate) fn static_backend<S: PointStore>(
    family: &(impl DshFamily<S::Row> + ?Sized),
    points: S,
    l: usize,
    rng: &mut dyn Rng,
) -> HashTableIndex<S> {
    assert!(
        !points.is_empty(),
        "cannot build a static index over an empty point set"
    );
    HashTableIndex::build(family, points, l, rng)
}

/// A query front-end: candidates from backend `B`, verified by `V`.
///
/// `S` is the point store the rows live in; it fixes the row type and
/// makes [`HashTableIndex<S>`] the default backend of the named aliases.
pub struct Frontend<S: PointStore, B: CandidateBackend<Row = S::Row>, V: Verifier<S::Row>> {
    backend: B,
    pub(crate) verifier: V,
    store: PhantomData<fn() -> S>,
}

impl<S: PointStore, B: CandidateBackend<Row = S::Row>, V: Verifier<S::Row>> Frontend<S, B, V> {
    pub(crate) fn new(backend: B, verifier: V) -> Self {
        Frontend {
            backend,
            verifier,
            store: PhantomData,
        }
    }

    /// The candidate backend (e.g. to take a [`crate::Snapshot`] of a
    /// sharded one, or inspect a dynamic one's segment layout).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the candidate backend: the write path
    /// (`insert` / `remove` / `apply_batch` / `seal` / `compact` of a
    /// mutable backend).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Number of repetitions `L`.
    pub fn repetitions(&self) -> usize {
        self.backend.repetitions()
    }

    /// The retrieval budget of one query.
    fn limit(&self) -> Option<usize> {
        self.verifier.retrieval_limit(self.backend.repetitions())
    }

    /// Verify one query's retrieved candidates.
    fn verified(
        &self,
        q: &S::Row,
        cands: &[usize],
        mut stats: QueryStats,
    ) -> (V::Answer, QueryStats) {
        let answer = self.verifier.verify(&self.backend, cands, q, &mut stats);
        (answer, stats)
    }

    /// Answer one query.
    pub fn query<Q>(&self, q: &Q) -> (V::Answer, QueryStats)
    where
        Q: AsRow<Row = S::Row> + ?Sized,
    {
        let (q, backend) = (q.as_row(), &self.backend);
        let mut key_of = |j| backend.query_hasher(j).hash(q);
        let (cands, stats) =
            backend.candidates_row(&mut key_of, self.limit(), &mut backend.new_scratch());
        self.verified(q, &cands, stats)
    }

    /// Run [`Frontend::query`] for a batch of queries, fanned out across
    /// worker threads with one reusable scratch buffer per worker.
    /// Results line up with `queries` and are identical to a
    /// query-at-a-time loop.
    pub fn query_batch<QS>(&self, queries: &QS) -> Vec<(V::Answer, QueryStats)>
    where
        QS: PointStore<Row = S::Row>,
    {
        self.query_batch_with_threads(queries, parallel::available_threads())
    }

    /// [`Frontend::query_batch`] with an explicit worker-thread count
    /// (the output does not depend on it). Workers hash their queries in
    /// blocks ([`dsh_core::family::PointHasher::hash_many`]) and verify
    /// each row as soon as it is walked.
    pub fn query_batch_with_threads<QS>(
        &self,
        queries: &QS,
        threads: usize,
    ) -> Vec<(V::Answer, QueryStats)>
    where
        QS: PointStore<Row = S::Row>,
    {
        map_rows_blocked(
            &self.backend,
            queries,
            self.limit(),
            threads,
            |q, cands, stats| self.verified(q, &cands, stats),
        )
    }
}
