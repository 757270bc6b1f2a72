//! Sharded concurrent serving layer: snapshot reads under live writes.
//!
//! Every index in this crate so far is owned by one thread. A serving
//! system needs the opposite: queries answered *while* inserts, removals,
//! and compactions happen. [`ShardedIndex`] provides that on top of the
//! existing substrate:
//!
//! * points are partitioned across `N` **shards** by the stable mapping
//!   `shard = id % N` (ids are assigned in insertion order, exactly like
//!   the unsharded [`DynamicIndex`]); each shard is a `DynamicIndex` over
//!   a snapshot-friendly [`ChunkedStore`];
//! * the whole index state is an **immutable value** behind an [`Arc`].
//!   Every write (`&mut self`) is one transaction: it forks the state by
//!   copy-on-write — only the written shard's small mutable parts (delta
//!   segment, store tail, tombstones) are copied; sealed segments and
//!   frozen store chunks are shared by reference count — and, iff it
//!   changed anything, publishes the fork with one `Arc` swap into an
//!   epoch-stamped cell;
//! * readers never block: [`ShardedIndex::reader`] (or a cloneable
//!   [`ReaderHandle`], for reader threads that outlive the writer borrow)
//!   hands out an immutable [`Snapshot`] that keeps answering from its
//!   frozen state no matter what writers do afterwards. [`Snapshot`]
//!   acquisition is a reference-count bump behind a briefly-held lock —
//!   it stays O(1) even while a compaction is running, because
//!   [`ShardedIndex::compact`] builds the new segment set on scoped
//!   worker threads *off* the publication path and swaps it in atomically
//!   at the end.
//!
//! # Exactness
//!
//! A sharded index is not an approximation of the unsharded one — it is
//! bit-identical to it (ids, order, full [`QueryStats`]), for every shard
//! count and at *any* insert/remove/seal/compact interleaving point.
//! Three properties make that work:
//!
//! 1. all shards share one `L`-tuple of `(h, g)` pairs, sampled
//!    sequentially from the caller's RNG exactly like
//!    [`DynamicIndex::build`] samples its own;
//! 2. the query path merges each logical bucket's per-shard entries in
//!    ascending **global id** order. Per-shard buckets hold ascending
//!    local ids, and `global = local * N + shard` is monotone per shard,
//!    so the k-way merge reproduces the unsharded CSR bucket exactly —
//!    including where a retrieval limit truncates;
//! 3. a **logical segment map** aligns shard segments with the segments
//!    an unsharded index driven through the same schedule would hold
//!    (a shard whose delta had no live rows at `seal` time contributes no
//!    physical segment, but the logical segment still exists if any shard
//!    sealed one), so `tables_probed` counts logical probes and matches
//!    the unsharded accounting.
//!
//! `distinct_candidates` is computed once per query from the deduplicated
//! output, per the [`QueryStats::merge`] rule. The parity sweep in
//! `tests/shard_parity.rs` pins all of this; `tests/shard_concurrency.rs`
//! is the concurrency soak (snapshots held across concurrent writes keep
//! answering from their frozen state).

use crate::batch::{
    ensure_capacity, ensure_known, BatchError, BatchOp, WriteBatch, WriteError, WriteOutcome,
    MAX_POINTS,
};
use crate::dynamic::DynamicIndex;
use crate::parallel;
use crate::table::{CandidateBackend, QueryScratch, QueryStats, MIN_QUERIES_PER_WORKER};
use dsh_core::family::{DshFamily, HasherPair};
use dsh_core::points::{AppendStore, AsRow, ChunkedStore, PointStore};
use rand::Rng;
use std::sync::{Arc, RwLock};

pub use txn::ReaderHandle;

/// The plain data one epoch of a [`ShardedIndex`] publishes: the shard
/// indexes plus the logical-segment alignment map. Writers fork (clone)
/// it; every read goes through the [`Snapshot`] that owns it.
#[derive(Clone)]
struct ShardedState<S: AppendStore + Clone> {
    shards: Vec<Arc<DynamicIndex<ChunkedStore<S>>>>,
    /// One entry per **logical** sealed segment (the segment an unsharded
    /// index driven through the same schedule would hold), mapping each
    /// shard to its physical segment index — `None` when that shard
    /// contributed no live rows at the corresponding seal.
    segments: Vec<Vec<Option<usize>>>,
    /// One past the largest global id ever assigned.
    total_rows: usize,
    /// Number of state publications since the build (each write bumps it).
    epoch: u64,
}

/// An immutable view of a [`ShardedIndex`] at one publication epoch, and
/// the one owner of the read path: the index itself answers every read
/// through its current snapshot.
///
/// Holding a snapshot never blocks writers, and no writer activity —
/// inserts, removals, seals, compactions — changes what it answers: its
/// candidate lists, stats, live-id set, and rows are frozen at
/// acquisition time. Cloning is a reference-count bump.
#[derive(Clone)]
pub struct Snapshot<S: AppendStore + Clone> {
    state: Arc<ShardedState<S>>,
}

impl<S: AppendStore + Clone> Snapshot<S> {
    /// The publication epoch this snapshot was taken at (the number of
    /// state-changing writes applied before it).
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.state.shards.len()
    }

    /// Number of repetitions `L`.
    pub fn repetitions(&self) -> usize {
        self.state.shards[0].repetitions()
    }

    /// Number of live points across all shards at this epoch.
    pub fn len(&self) -> usize {
        self.state.shards.iter().map(|sh| sh.len()).sum()
    }

    /// True when no live points are indexed at this epoch.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One past the largest global id assigned at this epoch.
    pub fn id_bound(&self) -> usize {
        self.state.total_rows
    }

    /// Number of removed (tombstoned) ids not yet reclaimed.
    pub fn removed(&self) -> usize {
        self.state.shards.iter().map(|sh| sh.removed()).sum()
    }

    /// Total points sitting in the shards' delta segments.
    pub fn delta_rows(&self) -> usize {
        self.state.shards.iter().map(|sh| sh.delta_rows()).sum()
    }

    /// Number of **logical** sealed segments (what an unsharded index
    /// driven through the same schedule would report).
    pub fn sealed_segments(&self) -> usize {
        self.state.segments.len()
    }

    /// Whether global id `id` was inserted and not removed at this epoch.
    pub fn is_live(&self, id: usize) -> bool {
        let n = self.num_shards();
        id < self.state.total_rows && self.state.shards[id % n].is_live(id / n)
    }

    /// Iterate over the ids live at this epoch, in increasing order.
    pub fn live_ids(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.state.total_rows).filter(|&id| self.is_live(id))
    }

    /// Borrow the row of point `id` as stored at this epoch (rows remain
    /// addressable after removal; stores are append-only).
    pub fn point(&self, id: usize) -> &S::Row {
        let n = self.num_shards();
        self.state.shards[id % n].point(id / n)
    }

    /// This epoch's plain data, cloned for a writer to build the next on.
    fn fork(&self) -> ShardedState<S> {
        (*self.state).clone()
    }

    /// A query scratch buffer sized for this epoch's id space (see
    /// [`DynamicIndex::new_scratch`] for the staleness contract).
    pub fn new_scratch(&self) -> QueryScratch {
        QueryScratch::new(self.state.total_rows)
    }

    /// The sharded mirror of `DynamicIndex::candidates_row`: identical
    /// probe order (tables outermost, then logical segments in creation
    /// order, then the delta), identical per-entry accounting, with each
    /// logical bucket's entries drawn from the shard buckets in ascending
    /// global-id order.
    fn candidates_row(
        &self,
        q: &S::Row,
        retrieval_limit: Option<usize>,
        scratch: &mut QueryScratch,
    ) -> (Vec<usize>, QueryStats) {
        let state = &*self.state;
        // lint: allow(panic) — contract: scratch must come from this index's new_scratch
        assert_eq!(
            scratch.len(),
            state.total_rows,
            "scratch buffer sized for a different index"
        );
        let generation = scratch.begin();
        let limit = retrieval_limit.unwrap_or(usize::MAX);
        let mut stats = QueryStats::default();
        let mut out = Vec::new();
        // (shard, bucket, cursor) triples of the logical bucket currently
        // being merged; reused across probes to avoid per-probe allocation.
        let mut probe: Vec<(usize, &[u32], usize)> = Vec::with_capacity(state.shards.len());
        let probe_delta = state.shards.iter().any(|sh| sh.delta_rows() > 0);
        'tables: for (j, pair) in state.shards[0].pairs().iter().enumerate() {
            let key = pair.query.hash(q);
            for seg_map in &state.segments {
                probe.clear();
                for (s, phys) in seg_map.iter().enumerate() {
                    if let Some(p) = phys {
                        probe.push((s, state.shards[s].sealed_bucket(*p, j, key), 0));
                    }
                }
                let part = self.consume_merged(
                    &mut probe,
                    limit - stats.candidates_retrieved,
                    scratch,
                    generation,
                    &mut out,
                );
                stats.merge(&part);
                if stats.candidates_retrieved >= limit {
                    break 'tables;
                }
            }
            if probe_delta {
                probe.clear();
                for (s, sh) in state.shards.iter().enumerate() {
                    if sh.delta_rows() > 0 {
                        probe.push((s, sh.delta_bucket(j, key), 0));
                    }
                }
                let part = self.consume_merged(
                    &mut probe,
                    limit - stats.candidates_retrieved,
                    scratch,
                    generation,
                    &mut out,
                );
                stats.merge(&part);
                if stats.candidates_retrieved >= limit {
                    break 'tables;
                }
            }
        }
        stats.distinct_candidates = out.len();
        (out, stats)
    }

    /// Pull up to `remaining` live entries from one logical bucket by
    /// k-way-merging the shard buckets in ascending global-id order —
    /// the exact entry sequence the unsharded bucket holds. Tombstoned
    /// entries are skipped without counting, like the unsharded path.
    // lint: hot
    fn consume_merged(
        &self,
        probe: &mut [(usize, &[u32], usize)],
        remaining: usize,
        scratch: &mut QueryScratch,
        generation: u8,
        out: &mut Vec<usize>,
    ) -> QueryStats {
        let shards = &self.state.shards[..];
        let n = shards.len();
        let mut part = QueryStats {
            tables_probed: 1,
            ..QueryStats::default()
        };
        #[cfg(debug_assertions)]
        let mut prev_global: Option<usize> = None;
        loop {
            if part.candidates_retrieved >= remaining {
                break;
            }
            let mut best: Option<(usize, usize)> = None; // (global id, slot)
            for (slot, &(shard, bucket, cursor)) in probe.iter().enumerate() {
                if let Some(&local) = bucket.get(cursor) {
                    let global = local as usize * n + shard;
                    if best.is_none_or(|(g, _)| global < g) {
                        best = Some((global, slot));
                    }
                }
            }
            let Some((global, slot)) = best else { break };
            // Dynamic complement to dsh-lint: the merge must emit globals
            // in strictly ascending order (each shard bucket is ascending
            // and shards partition ids by residue), or parity with the
            // unsharded entry sequence is silently lost.
            #[cfg(debug_assertions)]
            {
                debug_assert!(
                    prev_global.is_none_or(|p| p < global),
                    "k-way merge emitted global {global} after {prev_global:?}"
                );
                prev_global = Some(global);
            }
            probe[slot].2 += 1;
            {
                // Hint the visited stamp of the entry this slot will offer
                // a few merge steps from now (the stamp probe is the one
                // random access per emitted entry).
                let (shard, bucket, cursor) = probe[slot];
                if let Some(&local) = bucket.get(cursor + crate::table::STAMP_AHEAD) {
                    scratch.prefetch(local as usize * n + shard);
                }
            }
            if !shards[probe[slot].0].is_live(global / n) {
                continue;
            }
            if scratch.visit(global, generation) {
                out.push(global);
            } else {
                part.duplicates += 1;
            }
            part.candidates_retrieved += 1;
        }
        part
    }

    /// Retrieve distinct live candidate ids for `q` in retrieval order,
    /// exactly as the index answered at this epoch — bit-identically to
    /// the equivalent unsharded [`DynamicIndex::candidates`].
    pub fn candidates<Q>(&self, q: &Q, retrieval_limit: Option<usize>) -> (Vec<usize>, QueryStats)
    where
        Q: AsRow<Row = S::Row> + ?Sized,
    {
        self.candidates_row(q.as_row(), retrieval_limit, &mut self.new_scratch())
    }

    /// [`Snapshot::candidates`] against a caller-provided scratch.
    pub fn candidates_with<Q>(
        &self,
        q: &Q,
        retrieval_limit: Option<usize>,
        scratch: &mut QueryScratch,
    ) -> (Vec<usize>, QueryStats)
    where
        Q: AsRow<Row = S::Row> + ?Sized,
    {
        self.candidates_row(q.as_row(), retrieval_limit, scratch)
    }

    /// Batched [`Snapshot::candidates`], fanned out across worker
    /// threads with one scratch per worker; identical to a
    /// query-at-a-time loop.
    pub fn candidates_batch<QS>(
        &self,
        queries: &QS,
        retrieval_limit: Option<usize>,
    ) -> Vec<(Vec<usize>, QueryStats)>
    where
        QS: PointStore<Row = S::Row> + ?Sized,
    {
        self.candidates_batch_with_threads(queries, retrieval_limit, parallel::available_threads())
    }

    /// [`Snapshot::candidates_batch`] with an explicit worker-thread
    /// count (the output does not depend on it).
    pub fn candidates_batch_with_threads<QS>(
        &self,
        queries: &QS,
        retrieval_limit: Option<usize>,
        threads: usize,
    ) -> Vec<(Vec<usize>, QueryStats)>
    where
        QS: PointStore<Row = S::Row> + ?Sized,
    {
        let threads = parallel::capped_threads(queries.len(), threads, MIN_QUERIES_PER_WORKER);
        parallel::map_index_chunks(queries.len(), threads, |range| {
            let mut scratch = self.new_scratch();
            range
                .map(|i| self.candidates_row(queries.row(i), retrieval_limit, &mut scratch))
                .collect()
        })
    }
}

impl<S: AppendStore + Clone> CandidateBackend for Snapshot<S> {
    type Row = S::Row;

    fn repetitions(&self) -> usize {
        Snapshot::repetitions(self)
    }

    fn point(&self, i: usize) -> &S::Row {
        Snapshot::point(self, i)
    }

    #[inline]
    fn prefetch_point(&self, i: usize) {
        if i < self.state.total_rows {
            let n = self.num_shards();
            CandidateBackend::prefetch_point(&*self.state.shards[i % n], i / n);
        }
    }

    fn new_scratch(&self) -> QueryScratch {
        Snapshot::new_scratch(self)
    }

    fn candidates_row(
        &self,
        q: &S::Row,
        retrieval_limit: Option<usize>,
        scratch: &mut QueryScratch,
    ) -> (Vec<usize>, QueryStats) {
        Snapshot::candidates_row(self, q, retrieval_limit, scratch)
    }
}

/// A mutable index partitioned across `N` shards, publishing an immutable
/// epoch-stamped snapshot of itself after every write.
///
/// The writer side is `&mut self` ([`ShardedIndex::insert`] /
/// [`ShardedIndex::remove`] / [`ShardedIndex::apply_batch`] /
/// [`ShardedIndex::seal`] / [`ShardedIndex::compact`]), each one write
/// transaction: fork the state, mutate the fork, publish it as **one**
/// new epoch iff something changed — a rejected, no-op or panicked write
/// leaves the index exactly as it was. The reader side is wait-free
/// snapshots — take one directly with [`ShardedIndex::reader`], or hand
/// reader threads a [`ReaderHandle`] so they can keep taking fresh
/// snapshots while the writer holds the index mutably.
///
/// The index dereferences to its current [`Snapshot`], so every read —
/// [`Snapshot::candidates`], [`Snapshot::len`], a front-end over the index
/// as its backend — is answered from the writer's current state by the
/// same code that answers a held snapshot from its frozen one. Both are
/// bit-identical to an unsharded [`DynamicIndex`] at the same schedule
/// point (see the module docs).
///
/// ```
/// use dsh_core::points::{BitStore, BitVector};
/// use dsh_hamming::BitSampling;
/// use dsh_index::ShardedIndex;
/// use dsh_math::rng::seeded;
///
/// let d = 64;
/// let mut rng = seeded(7);
/// let mut idx = ShardedIndex::build(&BitSampling::new(d), BitStore::with_dim(d), 8, 4, &mut rng);
/// let p = BitVector::random(&mut rng, d);
/// let id = idx.insert(&p).unwrap();
///
/// let snapshot = idx.reader(); // frozen at 1 point
/// idx.remove(id).unwrap();
/// assert!(!idx.candidates(&p, None).0.contains(&id));
/// assert!(snapshot.candidates(&p, None).0.contains(&id)); // still pre-remove
/// ```
pub struct ShardedIndex<S: AppendStore + Clone> {
    /// The writer's current snapshot and the cell readers load it from,
    /// both private to `txn`: write verbs reach them only by committing.
    published: txn::Published<S>,
}

impl<S: AppendStore + Clone> ShardedIndex<S> {
    /// Build with `l` sampled `(h, g)` pairs over `num_shards` shards and
    /// an initial point set (which may be empty). The RNG stream consumed
    /// is identical to [`DynamicIndex::build`], and all shards share the
    /// sampled pairs — the root of sharded/unsharded bit-parity.
    // `points` is taken by value to match every other build front-end,
    // even though sharding copies rows out instead of consuming the store.
    #[allow(clippy::needless_pass_by_value)]
    pub fn build(
        family: &(impl DshFamily<S::Row> + ?Sized),
        points: S,
        l: usize,
        num_shards: usize,
        rng: &mut dyn Rng,
    ) -> Self {
        // lint: allow(panic) — build-time parameter validation, not on the query path
        assert!(num_shards >= 1, "need at least one shard");
        // lint: allow(panic) — build-time parameter validation, not on the query path
        assert!(l >= 1, "need at least one repetition");
        // lint: allow(panic) — build-time capacity check, not on the query path
        assert!(
            points.len() <= MAX_POINTS,
            "point count exceeds the u32 point-id capacity"
        );
        let threads = parallel::available_threads();
        let pairs: Vec<HasherPair<S::Row>> = (0..l).map(|_| family.sample(rng)).collect();
        let mut shard_rows: Vec<S> = (0..num_shards).map(|_| points.empty_like()).collect();
        for i in 0..points.len() {
            shard_rows[i % num_shards].push_row(points.row(i));
        }
        let shards: Vec<Arc<DynamicIndex<ChunkedStore<S>>>> = shard_rows
            .into_iter()
            .map(|rows| {
                Arc::new(DynamicIndex::with_pairs(
                    pairs.clone(),
                    ChunkedStore::from_store(rows),
                    threads,
                ))
            })
            .collect();
        ShardedIndex {
            published: txn::Published::new(ShardedState {
                segments: single_segment_map(&shards),
                shards,
                total_rows: points.len(),
                epoch: 0,
            }),
        }
    }

    /// Insert a point, returning its global id. The point lands in shard
    /// `id % num_shards()`; the new state is published before returning.
    /// A full id space ([`MAX_POINTS`]) rejects the insert with
    /// [`WriteError::CapacityExceeded`] before anything is forked — no
    /// state change, no publication.
    pub fn insert<Q>(&mut self, p: &Q) -> Result<usize, WriteError>
    where
        Q: AsRow<Row = S::Row> + ?Sized,
    {
        ensure_capacity(self.id_bound(), 1)?;
        let mut txn = self.published.begin();
        let id = txn.insert_row(p.as_row());
        txn.commit();
        Ok(id)
    }

    /// Remove global id `id` (tombstone; reclaimed at the next
    /// compaction). Returns `Ok(false)` when already removed — nothing
    /// changed, so no shard is forked and **no new epoch is published**:
    /// readers never observe epoch churn for a no-op write. A never
    /// assigned id rejects with [`WriteError::UnknownId`] before any fork.
    pub fn remove(&mut self, id: usize) -> Result<bool, WriteError> {
        ensure_known(id, self.id_bound())?;
        let mut txn = self.published.begin();
        let removed = txn.remove(id);
        txn.commit();
        Ok(removed)
    }

    /// An empty [`WriteBatch`] staging rows of this index's shape, for
    /// [`ShardedIndex::apply_batch`].
    pub fn new_batch(&self) -> WriteBatch<S> {
        WriteBatch::new(self.state.shards[0].store().empty_inner())
    }

    /// Apply a staged batch of inserts and removes in order as **one
    /// group commit**: the whole batch is validated up front (an
    /// out-of-range remove anywhere in it rejects the batch with a
    /// descriptive [`BatchError`] *before* any fork — no partial
    /// application, no serving-path panic), each touched shard is forked
    /// exactly once, and **one** epoch is published for the entire batch
    /// — or none at all when it changed nothing (empty, or pure
    /// double-removes).
    ///
    /// The resulting index answers bit-identically to the per-op replay
    /// of the same operations (ids, order, full
    /// [`crate::QueryStats`]); only the epoch count differs.
    pub fn apply_batch<BS>(
        &mut self,
        batch: &WriteBatch<BS>,
    ) -> Result<Vec<WriteOutcome>, BatchError>
    where
        BS: AppendStore<Row = S::Row>,
    {
        batch.validate(self.id_bound())?;
        let mut txn = self.published.begin();
        let outcomes = batch
            .ops()
            .iter()
            .map(|op| match *op {
                BatchOp::Insert(slot) => WriteOutcome::Inserted(txn.insert_row(batch.row(slot))),
                BatchOp::Remove(id) => WriteOutcome::Removed(txn.remove(id as usize)),
            })
            .collect();
        txn.commit();
        Ok(outcomes)
    }

    /// Freeze every shard's delta segment into a sealed CSR segment and
    /// publish once (nothing when every delta was empty). A new logical
    /// segment is recorded iff any shard's delta held a live row — exactly
    /// when an unsharded [`DynamicIndex::seal`] would have sealed one.
    pub fn seal(&mut self) {
        let mut txn = self.published.begin();
        txn.seal();
        txn.commit();
    }

    /// Compact every shard down to one sealed segment, dropping
    /// tombstones. The per-shard merges fan out across scoped worker
    /// threads **off the publication path** — readers keep taking
    /// snapshots of the old state throughout — and the new segment set is
    /// published with one atomic swap (nothing when nothing was merged).
    pub fn compact(&mut self) {
        let mut txn = self.published.begin();
        txn.compact();
        txn.commit();
    }
}

/// The logical segment map of a layout with at most one sealed segment
/// per shard (initial bulk build, or right after a compaction).
fn single_segment_map<S: AppendStore>(
    shards: &[Arc<DynamicIndex<ChunkedStore<S>>>],
) -> Vec<Vec<Option<usize>>> {
    let map: Vec<_> = shards
        .iter()
        .map(|sh| (sh.sealed_segments() > 0).then_some(0))
        .collect();
    if map.iter().any(Option::is_some) {
        vec![map]
    } else {
        Vec::new()
    }
}

/// The one write transaction, and the two things only it may touch: the
/// writer's current snapshot and the publication cell. Both are private
/// here, so the write verbs above change the index only by committing a
/// `WriteTxn` — an effectual write publishes exactly one epoch; a
/// rejected, no-op or abandoned one none — and the cell's lock is taken
/// in two statements (`ReaderHandle`'s load and store), so no guard can
/// outlive a statement.
mod txn {
    use super::{
        parallel, single_segment_map, AppendStore, Arc, ChunkedStore, DynamicIndex, RwLock,
        ShardedIndex, ShardedState, Snapshot,
    };
    use std::sync::PoisonError;

    /// Rows a shard's store tail may hold before a commit freezes it into
    /// a shared chunk (`seal` freezes it regardless): the next fork's tail
    /// copy stays bounded without creating a chunk per tiny write.
    const FREEZE_TAIL_ROWS: usize = 64;

    /// The writer's current snapshot plus the handle on the cell readers
    /// load it from; the two always hold the same epoch.
    pub(super) struct Published<S: AppendStore + Clone> {
        current: Snapshot<S>,
        handle: ReaderHandle<S>,
    }

    impl<S: AppendStore + Clone> Published<S> {
        pub(super) fn new(state: ShardedState<S>) -> Self {
            let current = Snapshot {
                state: Arc::new(state),
            };
            let cell = Arc::new(RwLock::new(current.clone()));
            Published {
                handle: ReaderHandle { cell },
                current,
            }
        }

        /// Begin a write: fork the current state (`Arc` bumps; a shard's
        /// mutable parts are copied when a mutator first touches it).
        pub(super) fn begin(&mut self) -> WriteTxn<'_, S> {
            WriteTxn {
                next: self.current.fork(),
                changed: false,
                published: self,
            }
        }

        /// The raw publication cell, for the test that poisons it.
        #[cfg(test)]
        pub(super) fn cell(&self) -> Arc<RwLock<Snapshot<S>>> {
            Arc::clone(&self.handle.cell)
        }
    }

    impl<S: AppendStore + Clone> ShardedIndex<S> {
        /// An immutable snapshot of the current state. Stays valid — and
        /// keeps answering identically — no matter what writers do next.
        pub fn reader(&self) -> Snapshot<S> {
            self.published.current.clone()
        }

        /// A cloneable, `Send` handle other threads use to take fresh
        /// snapshots while this index is being written through `&mut self`.
        pub fn reader_handle(&self) -> ReaderHandle<S> {
            self.published.handle.clone()
        }
    }

    /// Every read of the index — `candidates*`, `len`, `is_live`, `point`,
    /// `epoch`, the shape accessors — is the same call on its current
    /// [`Snapshot`]; there is no second read path to keep in step.
    impl<S: AppendStore + Clone> std::ops::Deref for ShardedIndex<S> {
        type Target = Snapshot<S>;

        fn deref(&self) -> &Snapshot<S> {
            &self.published.current
        }
    }

    /// One write in flight: the forked next state, mutable only through
    /// the mutators below, each recording whether it changed anything.
    /// Dropped uncommitted (`?`, a panic unwinding) it changes nothing.
    pub(super) struct WriteTxn<'a, S: AppendStore + Clone> {
        published: &'a mut Published<S>,
        next: ShardedState<S>,
        changed: bool,
    }

    impl<S: AppendStore + Clone> WriteTxn<'_, S> {
        /// The shard holding global id `id`, forked on first touch, and
        /// the id's local index within it.
        fn shard_mut(&mut self, id: usize) -> (&mut DynamicIndex<ChunkedStore<S>>, usize) {
            let n = self.next.shards.len();
            (Arc::make_mut(&mut self.next.shards[id % n]), id / n)
        }

        /// Append `row` under the next global id (the caller has checked
        /// capacity) and return that id.
        pub(super) fn insert_row(&mut self, row: &S::Row) -> usize {
            let id = self.next.total_rows;
            let (shard, local) = self.shard_mut(id);
            let assigned = shard.insert_row(row);
            debug_assert_eq!(assigned, local);
            self.next.total_rows += 1;
            self.changed = true;
            id
        }

        /// Tombstone global id `id` (the caller has checked it was ever
        /// assigned); `false`, forking nothing, when already removed.
        pub(super) fn remove(&mut self, id: usize) -> bool {
            let n = self.next.shards.len();
            if !self.next.shards[id % n].is_live(id / n) {
                return false;
            }
            self.changed = true;
            let (shard, local) = self.shard_mut(id);
            shard.remove_unchecked(local)
        }

        /// Seal every non-empty shard delta, retiring the store's write
        /// head with it so future forks share those rows, not copy them.
        pub(super) fn seal(&mut self) {
            let mut map = Vec::with_capacity(self.next.shards.len());
            for shard in &mut self.next.shards {
                let before = shard.sealed_segments();
                if shard.delta_rows() > 0 {
                    let sh = Arc::make_mut(shard);
                    sh.seal();
                    sh.store_mut().freeze_tail();
                    self.changed = true;
                }
                // A delta of only tombstoned rows seals no segment.
                map.push((shard.sealed_segments() > before).then_some(before));
            }
            if map.iter().any(Option::is_some) {
                self.next.segments.push(map);
            }
        }

        /// Merge every shard down to one segment on worker threads —
        /// unless there is no segment and no delta row: the merge would
        /// rebuild the empty layout it started from (compaction never
        /// clears tombstone bits), so that case changes nothing.
        pub(super) fn compact(&mut self) {
            let next = &mut self.next;
            if next.segments.is_empty() && next.shards.iter().all(|sh| sh.delta_rows() == 0) {
                return;
            }
            let threads = parallel::available_threads();
            let per_shard = (threads / next.shards.len()).max(1);
            next.shards = parallel::map_items(&next.shards, threads, |_, shard| {
                let mut sh = (**shard).clone();
                sh.compact_with_threads(per_shard);
                sh.store_mut().consolidate();
                Arc::new(sh)
            });
            next.segments = single_segment_map(&next.shards);
            self.changed = true;
        }

        /// Publish the fork as the next epoch — iff a mutator changed it.
        pub(super) fn commit(mut self) {
            if !self.changed {
                return;
            }
            for shard in &mut self.next.shards {
                // Exactly the shards this transaction wrote are uniquely
                // owned. (Chunk layout is not query-observable.)
                if let Some(sh) = Arc::get_mut(shard) {
                    if sh.store().tail_rows() >= FREEZE_TAIL_ROWS {
                        sh.store_mut().freeze_tail();
                    }
                }
            }
            self.next.epoch += 1;
            let snapshot = Snapshot {
                state: Arc::new(self.next),
            };
            self.published.handle.store(snapshot.clone());
            self.published.current = snapshot;
        }
    }

    /// A cloneable, thread-safe source of fresh [`Snapshot`]s.
    ///
    /// Reader threads hold one of these while the writer thread holds the
    /// [`ShardedIndex`] itself (`&mut`); each [`ReaderHandle::snapshot`]
    /// call observes the latest published epoch. Acquisition cost is one
    /// briefly-held read lock plus an `Arc` clone — constant even while a
    /// compaction is rebuilding segments on other threads.
    ///
    /// Poisoning policy: the cell only ever holds a fully-formed
    /// `Snapshot` and each critical section is one pointer operation, so
    /// a panic while the lock is held cannot leave a torn value. Load and
    /// store recover the guard instead of propagating the poison, which
    /// would take down every wait-free reader forever after one panic.
    #[derive(Clone)]
    pub struct ReaderHandle<S: AppendStore + Clone> {
        cell: Arc<RwLock<Snapshot<S>>>,
    }

    impl<S: AppendStore + Clone> ReaderHandle<S> {
        /// The latest published snapshot. Survives a poisoned cell:
        /// readers must never be taken down by a writer-side panic.
        pub fn snapshot(&self) -> Snapshot<S> {
            self.cell
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
        }

        /// The one store into the cell (`WriteTxn::commit`).
        fn store(&self, next: Snapshot<S>) {
            *self.cell.write().unwrap_or_else(PoisonError::into_inner) = next;
        }
    }
}

impl<S: AppendStore + Clone> CandidateBackend for ShardedIndex<S> {
    type Row = S::Row;

    fn repetitions(&self) -> usize {
        Snapshot::repetitions(self)
    }

    fn point(&self, i: usize) -> &S::Row {
        Snapshot::point(self, i)
    }

    #[inline]
    fn prefetch_point(&self, i: usize) {
        CandidateBackend::prefetch_point(&**self, i);
    }

    fn new_scratch(&self) -> QueryScratch {
        Snapshot::new_scratch(self)
    }

    fn candidates_row(
        &self,
        q: &S::Row,
        retrieval_limit: Option<usize>,
        scratch: &mut QueryScratch,
    ) -> (Vec<usize>, QueryStats) {
        Snapshot::candidates_row(self, q, retrieval_limit, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_core::points::{BitStore, BitVector};
    use dsh_hamming::BitSampling;
    use dsh_math::rng::seeded;

    fn dataset(seed: u64, d: usize, n: usize) -> Vec<BitVector> {
        let mut rng = seeded(seed);
        (0..n).map(|_| BitVector::random(&mut rng, d)).collect()
    }

    fn store_of(points: &[BitVector], d: usize) -> BitStore {
        let mut s = BitStore::with_dim(d);
        for p in points {
            s.push(p);
        }
        s
    }

    /// Stage `inserts` then `removes` as one batch and group-commit it.
    fn apply(
        idx: &mut ShardedIndex<BitStore>,
        inserts: &[BitVector],
        removes: &[usize],
    ) -> Result<Vec<WriteOutcome>, BatchError> {
        let mut batch = idx.new_batch();
        for p in inserts {
            batch.insert(p);
        }
        for &id in removes {
            batch.remove(id);
        }
        idx.apply_batch(&batch)
    }

    /// Pretend the id space already holds `total` ids — the only
    /// practical way to park an index at the [`MAX_POINTS`] boundary and
    /// exercise the rejection paths without 4B real inserts. Writes must
    /// reject *before* forking, so the (now inconsistent) shard contents
    /// are never touched.
    fn park(idx: &mut ShardedIndex<BitStore>, total: usize) {
        idx.published = txn::Published::new(ShardedState {
            total_rows: total,
            ..idx.fork()
        });
    }

    /// Sharded and unsharded indexes driven through the same schedule
    /// must agree bit-for-bit, at every checkpoint, for every shard
    /// count. (The full sweep lives in `tests/shard_parity.rs`; this is
    /// the module-level smoke version.)
    #[test]
    fn matches_unsharded_dynamic_index_through_a_schedule() {
        let d = 64;
        let points = dataset(0x5A01, d, 120);
        let queries = dataset(0x5A02, d, 8);
        let l = 8;
        for shards in [1usize, 2, 8] {
            let mut dynamic = DynamicIndex::build(
                &BitSampling::new(d),
                BitStore::with_dim(d),
                l,
                &mut seeded(0x5A03),
            );
            let mut sharded = ShardedIndex::build(
                &BitSampling::new(d),
                BitStore::with_dim(d),
                l,
                shards,
                &mut seeded(0x5A03),
            );
            for (i, p) in points.iter().enumerate() {
                assert_eq!(dynamic.insert(p), sharded.insert(p));
                if i % 9 == 4 {
                    assert_eq!(dynamic.remove(i), sharded.remove(i));
                }
                if i % 31 == 30 {
                    dynamic.seal();
                    sharded.seal();
                }
                if i % 67 == 66 {
                    dynamic.compact();
                    sharded.compact();
                }
                if i % 17 == 0 {
                    for q in &queries {
                        for limit in [None, Some(3 * l)] {
                            assert_eq!(
                                dynamic.candidates(q, limit),
                                sharded.candidates(q, limit),
                                "shards {shards}, step {i}, limit {limit:?}"
                            );
                        }
                    }
                }
            }
            assert_eq!(dynamic.sealed_segments(), sharded.sealed_segments());
            assert_eq!(dynamic.delta_rows(), sharded.delta_rows());
            assert_eq!(dynamic.len(), sharded.len());
        }
    }

    #[test]
    fn initial_bulk_build_matches_unsharded() {
        let d = 64;
        let points = dataset(0x5A10, d, 90);
        let queries = dataset(0x5A11, d, 6);
        let dynamic = DynamicIndex::build(
            &BitSampling::new(d),
            store_of(&points, d),
            6,
            &mut seeded(0x5A12),
        );
        for shards in [1usize, 2, 8] {
            let sharded = ShardedIndex::build(
                &BitSampling::new(d),
                store_of(&points, d),
                6,
                shards,
                &mut seeded(0x5A12),
            );
            assert_eq!(sharded.sealed_segments(), 1);
            for q in &queries {
                assert_eq!(
                    dynamic.candidates(q, None),
                    sharded.candidates(q, None),
                    "shards {shards}"
                );
            }
        }
    }

    #[test]
    fn snapshots_freeze_their_state_across_every_write_kind() {
        let d = 64;
        let points = dataset(0x5A20, d, 60);
        let queries = dataset(0x5A21, d, 5);
        let mut idx = ShardedIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            6,
            4,
            &mut seeded(0x5A22),
        );
        for p in &points[..40] {
            idx.insert(p).unwrap();
        }
        let snapshot = idx.reader();
        let frozen: Vec<_> = queries
            .iter()
            .map(|q| snapshot.candidates(q, None))
            .collect();
        let frozen_live: Vec<usize> = snapshot.live_ids().collect();
        assert_eq!(snapshot.epoch(), 40);

        // Every kind of write, including segment-layout changes.
        for p in &points[40..] {
            idx.insert(p).unwrap();
        }
        idx.remove(3).unwrap();
        idx.remove(17).unwrap();
        idx.seal();
        idx.compact();
        assert!(idx.epoch() > snapshot.epoch());

        let after: Vec<_> = queries
            .iter()
            .map(|q| snapshot.candidates(q, None))
            .collect();
        assert_eq!(frozen, after, "snapshot answers changed under writes");
        assert_eq!(frozen_live, snapshot.live_ids().collect::<Vec<_>>());
        assert_eq!(snapshot.id_bound(), 40);
        // The writer's view did move on.
        assert_eq!(idx.id_bound(), 60);
        assert!(!idx.is_live(3));
        assert!(snapshot.is_live(3));
    }

    /// The single read path: after every kind of write, each read on the
    /// index is the same call on the snapshot it hands out directly and
    /// on the one reader handles get from the publication cell.
    #[test]
    fn index_and_its_snapshots_read_identically_after_every_write_kind() {
        let d = 64;
        let points = dataset(0x5A28, d, 48);
        let queries = dataset(0x5A29, d, 6);
        let mut idx = ShardedIndex::build(
            &BitSampling::new(d),
            store_of(&points[..20], d),
            6,
            3,
            &mut seeded(0x5A2A),
        );
        let handle = idx.reader_handle();
        let check = |idx: &ShardedIndex<BitStore>, after: &str| {
            for (view, snap) in [("reader", idx.reader()), ("handle", handle.snapshot())] {
                let ctx = format!("after {after}, via {view}");
                let (mut own, mut theirs) = (idx.new_scratch(), snap.new_scratch());
                for q in &queries {
                    for limit in [None, Some(5)] {
                        let got = idx.candidates(q, limit);
                        assert_eq!(got, snap.candidates(q, limit), "{ctx}");
                        assert_eq!(got, idx.candidates_with(q, limit, &mut own), "{ctx}");
                        assert_eq!(got, snap.candidates_with(q, limit, &mut theirs), "{ctx}");
                    }
                }
                assert_eq!(
                    idx.candidates_batch(&queries, None),
                    snap.candidates_batch(&queries, None),
                    "{ctx}"
                );
                assert_eq!(
                    idx.candidates_batch_with_threads(&queries, Some(7), 2),
                    snap.candidates_batch_with_threads(&queries, Some(7), 2),
                    "{ctx}"
                );
                assert_eq!(
                    (idx.len(), idx.id_bound(), idx.epoch()),
                    (snap.len(), snap.id_bound(), snap.epoch()),
                    "{ctx}"
                );
                assert_eq!(
                    (idx.removed(), idx.delta_rows(), idx.sealed_segments()),
                    (snap.removed(), snap.delta_rows(), snap.sealed_segments()),
                    "{ctx}"
                );
            }
        };
        check(&idx, "build");
        idx.insert(&points[20]).unwrap();
        check(&idx, "insert");
        idx.remove(4).unwrap();
        check(&idx, "remove");
        apply(&mut idx, &points[21..30], &[]).unwrap();
        check(&idx, "insert-only batch");
        apply(&mut idx, &[], &[5, 22, 4]).unwrap();
        check(&idx, "remove-only batch");
        apply(&mut idx, &points[30..40], &[31]).unwrap();
        check(&idx, "mixed batch");
        idx.seal();
        check(&idx, "seal");
        apply(&mut idx, &points[40..], &[]).unwrap();
        idx.compact();
        check(&idx, "compact");
        assert_eq!(idx.epoch(), 8, "every write above changed the state");
    }

    #[test]
    fn reader_handle_sees_each_published_epoch() {
        let d = 32;
        let mut idx = ShardedIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            4,
            2,
            &mut seeded(0x5A30),
        );
        let handle = idx.reader_handle();
        assert_eq!(handle.snapshot().epoch(), 0);
        let p = BitVector::random(&mut seeded(0x5A31), d);
        idx.insert(&p).unwrap();
        assert_eq!(handle.snapshot().epoch(), 1);
        assert_eq!(handle.snapshot().len(), 1);
        idx.remove(0).unwrap();
        let snap = handle.snapshot();
        assert_eq!(snap.epoch(), 2);
        assert_eq!(snap.len(), 0);
        // The delta still holds the (tombstoned) row, so sealing clears
        // it — a real state change, published as epoch 3...
        idx.seal();
        assert_eq!(handle.snapshot().epoch(), 3);
        // ...but it created no segment, so the follow-up compact has
        // zero segments and an empty delta: a no-op, and no-op writes
        // publish no epoch.
        idx.compact();
        assert_eq!(handle.snapshot().epoch(), 3);
    }

    /// Satellite regression: a double-remove returns `false` and leaves
    /// the reader-visible epoch untouched — no fork, no publication.
    #[test]
    fn double_remove_publishes_no_epoch() {
        let d = 32;
        let mut idx = ShardedIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            4,
            2,
            &mut seeded(0x5A70),
        );
        let handle = idx.reader_handle();
        let p = BitVector::random(&mut seeded(0x5A71), d);
        idx.insert(&p).unwrap();
        idx.insert(&p).unwrap();
        assert_eq!(idx.remove(1), Ok(true));
        assert_eq!(handle.snapshot().epoch(), 3);
        assert_eq!(
            idx.remove(1),
            Ok(false),
            "second remove must report Ok(false)"
        );
        assert_eq!(
            handle.snapshot().epoch(),
            3,
            "double-remove must not publish a new epoch"
        );
        assert_eq!(idx.epoch(), 3);
        // The no-op also didn't perturb the state: the next real write
        // publishes the very next epoch.
        assert_eq!(idx.remove(0), Ok(true));
        assert_eq!(handle.snapshot().epoch(), 4);
    }

    /// Satellite regression: sealing with every delta empty, and
    /// compacting with zero segments and an empty delta, are no-ops
    /// without publication — and stay in lockstep with the unsharded
    /// `DynamicIndex` driven through the same schedule.
    #[test]
    fn empty_seal_and_segmentless_compact_publish_no_epoch() {
        let d = 32;
        let mut idx = ShardedIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            4,
            2,
            &mut seeded(0x5A75),
        );
        let mut unsharded = DynamicIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            4,
            &mut seeded(0x5A75),
        );
        let handle = idx.reader_handle();
        let q = BitVector::random(&mut seeded(0x5A76), d);

        // Fresh index: nothing to seal, nothing to compact.
        idx.seal();
        idx.compact();
        unsharded.seal();
        unsharded.compact();
        assert_eq!(handle.snapshot().epoch(), 0, "no-op writes published");
        assert_eq!(idx.sealed_segments(), unsharded.sealed_segments());

        // A real seal publishes exactly one epoch...
        idx.insert(&q).unwrap();
        unsharded.insert(&q).unwrap();
        idx.seal();
        unsharded.seal();
        assert_eq!(handle.snapshot().epoch(), 2);
        assert_eq!(idx.sealed_segments(), 1);
        // ...and re-sealing the now-empty delta publishes nothing.
        idx.seal();
        unsharded.seal();
        assert_eq!(handle.snapshot().epoch(), 2, "empty seal published");
        assert_eq!(idx.delta_rows(), unsharded.delta_rows());
        assert_eq!(idx.sealed_segments(), unsharded.sealed_segments());

        // Compact with a segment present is a real write (epoch 3);
        // compacting the already-empty layout after removing everything
        // is exercised in `empty_index_answers_and_compacts`.
        idx.compact();
        unsharded.compact();
        assert_eq!(handle.snapshot().epoch(), 3);
        assert_eq!(
            idx.candidates(&q, None),
            unsharded.candidates(&q, None),
            "no-op suppression broke sharded/unsharded parity"
        );
    }

    #[test]
    fn readers_and_writers_survive_a_poisoned_publication_cell() {
        let d = 32;
        let mut idx = ShardedIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            4,
            2,
            &mut seeded(0x5A35),
        );
        let p = BitVector::random(&mut seeded(0x5A36), d);
        idx.insert(&p).unwrap();
        let handle = idx.reader_handle();
        assert_eq!(handle.snapshot().epoch(), 1);

        // Poison the publication cell: a thread panics while holding the
        // write guard, exactly what a panicking writer mid-publish does.
        let cell = idx.published.cell();
        let t = std::thread::spawn(move || {
            let _guard = cell.write().unwrap();
            panic!("writer dies while holding the publication lock");
        });
        assert!(t.join().is_err(), "thread must have panicked");

        // Readers still observe the last published epoch (the cell always
        // holds a fully-formed Arc; see the poisoning policy on `ReaderHandle`)...
        let snap = handle.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.len(), 1);
        // ...and the writer can keep publishing through the poisoned cell.
        let q = BitVector::random(&mut seeded(0x5A37), d);
        idx.insert(&q).unwrap();
        assert_eq!(handle.snapshot().epoch(), 2);
        assert_eq!(handle.snapshot().len(), 2);
    }

    #[test]
    fn batch_matches_sequential_queries() {
        let d = 64;
        let points = dataset(0x5A40, d, 100);
        let queries = dataset(0x5A41, d, 21);
        let mut idx = ShardedIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            7,
            3,
            &mut seeded(0x5A42),
        );
        for (i, p) in points.iter().enumerate() {
            idx.insert(p).unwrap();
            if i == 49 {
                idx.seal();
            }
            if i % 7 == 3 {
                idx.remove(i).unwrap();
            }
        }
        for limit in [None, Some(13)] {
            let sequential: Vec<_> = queries.iter().map(|q| idx.candidates(q, limit)).collect();
            for threads in [1usize, 3, 8] {
                assert_eq!(
                    sequential,
                    idx.candidates_batch_with_threads(&queries, limit, threads),
                    "threads {threads}, limit {limit:?}"
                );
            }
            assert_eq!(
                sequential,
                idx.reader().candidates_batch(&queries, limit),
                "snapshot batch, limit {limit:?}"
            );
        }
    }

    #[test]
    fn empty_index_answers_and_compacts() {
        let d = 32;
        let mut idx = ShardedIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            4,
            8,
            &mut seeded(0x5A50),
        );
        assert!(idx.is_empty());
        assert_eq!(idx.sealed_segments(), 0);
        let q = BitVector::random(&mut seeded(0x5A51), d);
        let (cands, stats) = idx.candidates(&q, None);
        assert!(cands.is_empty());
        assert_eq!(stats, QueryStats::default());
        idx.seal();
        idx.compact();
        assert!(idx.is_empty());
        // Insert into a single shard, remove it, compact: all segments drop.
        let id = idx.insert(&q).unwrap();
        idx.seal();
        assert_eq!(idx.sealed_segments(), 1);
        idx.remove(id).unwrap();
        idx.compact();
        assert_eq!(idx.sealed_segments(), 0);
        assert_eq!(idx.id_bound(), 1);
    }

    /// A transaction that is not committed — dropped, or unwound through
    /// by a panic — leaves no trace: the writer's view and the published
    /// cell are exactly what they were. (This is what `lock_writer`'s
    /// poison recovery in `dsh-server` relies on.) The same ops followed
    /// by `commit` publish exactly one epoch.
    #[test]
    fn abandoned_transactions_leave_the_index_untouched() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let d = 64;
        let points = dataset(0x5AC0, d, 12);
        let mut idx = ShardedIndex::build(
            &BitSampling::new(d),
            store_of(&points[..8], d),
            6,
            3,
            &mut seeded(0x5AC1),
        );
        idx.insert(&points[8]).unwrap();
        let handle = idx.reader_handle();
        let q = &points[9];
        let view = |idx: &ShardedIndex<BitStore>| {
            let snap = handle.snapshot();
            assert_eq!(
                (snap.epoch(), snap.len(), snap.id_bound()),
                (idx.epoch(), idx.len(), idx.id_bound())
            );
            assert_eq!(snap.candidates(q, None), idx.candidates(q, None));
            (
                idx.epoch(),
                idx.len(),
                idx.id_bound(),
                idx.candidates(q, None),
            )
        };
        let before = view(&idx);
        let write = |txn: &mut txn::WriteTxn<'_, BitStore>| {
            assert_eq!(txn.insert_row(q.as_row()), 9);
            assert!(txn.remove(2));
            assert!(txn.remove(9));
            assert!(!txn.remove(2), "double remove inside one transaction");
        };

        let mut txn = idx.published.begin();
        write(&mut txn);
        drop(txn);
        assert_eq!(view(&idx), before, "a dropped transaction published");

        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let mut txn = idx.published.begin();
            write(&mut txn);
            txn.seal();
            panic!("writer dies mid-transaction");
        }));
        assert!(unwound.is_err());
        assert_eq!(view(&idx), before, "an unwound transaction published");

        let mut txn = idx.published.begin();
        write(&mut txn);
        txn.commit();
        let after = view(&idx);
        assert_eq!(after.0, before.0 + 1, "one commit, one epoch");
        assert_eq!((after.1, after.2), (before.1 - 1, before.2 + 1));
        assert!(!idx.is_live(2) && !idx.is_live(9));
    }

    /// Tentpole smoke: one `apply_batch` call equals the per-op replay
    /// bit-for-bit (outcomes, candidates, stats, live set) while
    /// publishing exactly one epoch for the whole batch.
    #[test]
    fn apply_batch_matches_per_op_replay_and_publishes_once() {
        let d = 64;
        let points = dataset(0x5A80, d, 40);
        let queries = dataset(0x5A81, d, 6);
        let l = 6;
        for shards in [1usize, 2, 8] {
            let mut batched = ShardedIndex::build(
                &BitSampling::new(d),
                BitStore::with_dim(d),
                l,
                shards,
                &mut seeded(0x5A82),
            );
            let mut per_op = ShardedIndex::build(
                &BitSampling::new(d),
                BitStore::with_dim(d),
                l,
                shards,
                &mut seeded(0x5A82),
            );
            // Mixed batch: inserts interleaved with removes, including a
            // remove of an id inserted earlier in the same batch and a
            // double-remove (outcome false, but the batch still changes
            // state through its other ops).
            let mut batch = batched.new_batch();
            for p in &points[..10] {
                batch.insert(p);
            }
            batch.remove(3);
            batch.remove(3);
            for p in &points[10..20] {
                batch.insert(p);
            }
            batch.remove(15);
            let outcomes = batched.apply_batch(&batch).expect("valid batch");
            assert_eq!(batched.epoch(), 1, "one epoch per batch (shards {shards})");

            let mut want = Vec::new();
            for p in &points[..10] {
                want.push(WriteOutcome::Inserted(per_op.insert(p).unwrap()));
            }
            want.push(WriteOutcome::Removed(per_op.remove(3).unwrap()));
            want.push(WriteOutcome::Removed(per_op.remove(3).unwrap()));
            for p in &points[10..20] {
                want.push(WriteOutcome::Inserted(per_op.insert(p).unwrap()));
            }
            want.push(WriteOutcome::Removed(per_op.remove(15).unwrap()));
            assert_eq!(outcomes, want, "shards {shards}");

            assert_eq!(batched.len(), per_op.len());
            assert_eq!(
                batched.live_ids().collect::<Vec<_>>(),
                per_op.live_ids().collect::<Vec<_>>()
            );
            for q in &queries {
                for limit in [None, Some(2 * l)] {
                    assert_eq!(
                        per_op.candidates(q, limit),
                        batched.candidates(q, limit),
                        "shards {shards}, limit {limit:?}"
                    );
                }
            }
        }
    }

    /// Satellite regression: an out-of-range id anywhere in a batch
    /// rejects the whole batch with a descriptive `Err` before any fork
    /// — no partial application, no publication, no panic.
    #[test]
    fn invalid_batch_is_rejected_wholly_before_any_fork() {
        let d = 64;
        let points = dataset(0x5A90, d, 8);
        let q = &points[0];
        let mut idx = ShardedIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            4,
            2,
            &mut seeded(0x5A91),
        );
        for p in &points[..4] {
            idx.insert(p).unwrap();
        }
        let handle = idx.reader_handle();
        let before_epoch = idx.epoch();
        let before = idx.candidates(q, None);

        // Ops before the bad remove must NOT be applied.
        let mut batch = idx.new_batch();
        batch.insert(&points[4]);
        batch.insert(&points[5]);
        batch.remove(6); // bound is 4 + 2 staged inserts = 6: out of range
        let err = idx.apply_batch(&batch).unwrap_err();
        assert_eq!(
            err,
            BatchError::UnknownId {
                op_index: 2,
                id: 6,
                bound: 6
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("op 2") && msg.contains("id 6"), "{msg}");

        assert_eq!(idx.id_bound(), 4, "partial application leaked");
        assert_eq!(idx.epoch(), before_epoch, "rejected batch published");
        assert_eq!(handle.snapshot().epoch(), before_epoch);
        assert_eq!(idx.candidates(q, None), before);

        // The same ops without the stray remove apply cleanly.
        let mut batch = idx.new_batch();
        batch.insert(&points[4]);
        batch.insert(&points[5]);
        batch.remove(5);
        assert!(idx.apply_batch(&batch).is_ok());
        assert_eq!(idx.id_bound(), 6);
        assert_eq!(idx.epoch(), before_epoch + 1);
    }

    /// No-op batches — empty, or made entirely of double-removes —
    /// publish no epoch.
    #[test]
    fn noop_batches_publish_no_epoch() {
        let d = 32;
        let points = dataset(0x5AA0, d, 4);
        let mut idx = ShardedIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            4,
            2,
            &mut seeded(0x5AA1),
        );
        for p in &points {
            idx.insert(p).unwrap();
        }
        idx.remove(1).unwrap();
        idx.remove(2).unwrap();
        let epoch = idx.epoch();

        let empty = idx.new_batch();
        assert_eq!(idx.apply_batch(&empty), Ok(Vec::new()));
        assert_eq!(idx.epoch(), epoch, "empty batch published");

        let mut dead = idx.new_batch();
        dead.remove(1);
        dead.remove(2);
        dead.remove(1);
        assert_eq!(
            idx.apply_batch(&dead),
            Ok(vec![
                WriteOutcome::Removed(false),
                WriteOutcome::Removed(false),
                WriteOutcome::Removed(false)
            ])
        );
        assert_eq!(idx.epoch(), epoch, "all-double-remove batch published");
    }

    /// Serving-path regression: a remove of a never-assigned id is a
    /// recoverable error (not a panic), publishes nothing, and leaves
    /// the index fully usable — the contract a long-lived server needs.
    #[test]
    fn remove_of_unknown_id_is_a_recoverable_error() {
        let d = 32;
        let mut idx = ShardedIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            2,
            2,
            &mut seeded(0x5A60),
        );
        let handle = idx.reader_handle();
        assert_eq!(
            idx.remove(0),
            Err(WriteError::UnknownId { id: 0, bound: 0 })
        );
        assert_eq!(
            apply(&mut idx, &[], &[0, 1]),
            Err(BatchError::UnknownId {
                op_index: 0,
                id: 0,
                bound: 0
            })
        );
        assert_eq!(handle.snapshot().epoch(), 0, "rejected remove published");

        let p = BitVector::random(&mut seeded(0x5A64), d);
        let id = idx.insert(&p).unwrap();
        assert_eq!(
            idx.remove(id + 1),
            Err(WriteError::UnknownId { id: 1, bound: 1 })
        );
        // A batch mixing a live id with an unknown one is rejected whole.
        assert_eq!(
            apply(&mut idx, &[], &[id, id + 1]),
            Err(BatchError::UnknownId {
                op_index: 1,
                id: 1,
                bound: 1
            })
        );
        assert!(idx.is_live(id), "partial application leaked");
        assert_eq!(idx.remove(id), Ok(true));
    }

    /// Satellite regression: both insert entry points share one
    /// capacity bound — the id space may fill to exactly `MAX_POINTS`,
    /// and the first write past it is rejected without fork,
    /// publication, or panic. (The index is parked at the boundary via
    /// a test seam; real inserts would need 4B rows.)
    #[test]
    fn capacity_boundary_is_shared_by_both_insert_entry_points() {
        let d = 32;
        let mut idx = ShardedIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            2,
            2,
            &mut seeded(0x5A65),
        );
        let p = BitVector::random(&mut seeded(0x5A66), d);
        park(&mut idx, MAX_POINTS);
        let epoch = idx.epoch();
        assert_eq!(
            idx.insert(&p),
            Err(WriteError::CapacityExceeded {
                id_bound: MAX_POINTS,
                additional: 1
            })
        );
        assert_eq!(
            apply(&mut idx, &[p.clone(), p.clone()], &[]),
            Err(BatchError::CapacityExceeded { op_index: 0 })
        );
        assert_eq!(idx.epoch(), epoch, "rejected writes published");
        // One id below the cap, every entry point admits one more id.
        park(&mut idx, MAX_POINTS - 1);
        let mut batch = idx.new_batch();
        batch.remove(MAX_POINTS - 2); // known id: validates against the forced bound
        assert!(batch.validate(idx.id_bound()).is_ok());
        assert_eq!(
            apply(&mut idx, &[p.clone(), p.clone()], &[]),
            Err(BatchError::CapacityExceeded { op_index: 1 }),
            "a batch overflowing at its second insert is rejected whole"
        );
        assert_eq!(idx.epoch(), epoch);
        assert_eq!(
            apply(&mut idx, &[], &[]),
            Ok(Vec::new()),
            "empty batch must pass the capacity check at the boundary"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let d = 32;
        let _ = ShardedIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            2,
            0,
            &mut seeded(0x5A61),
        );
    }

    #[test]
    #[should_panic(expected = "sized for a different index")]
    fn stale_scratch_after_insert_rejected() {
        let d = 32;
        let mut idx = ShardedIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            2,
            2,
            &mut seeded(0x5A62),
        );
        let q = BitVector::random(&mut seeded(0x5A63), d);
        let mut scratch = idx.new_scratch();
        idx.insert(&q).unwrap();
        let _ = idx.candidates_with(&q, None, &mut scratch);
    }
}
