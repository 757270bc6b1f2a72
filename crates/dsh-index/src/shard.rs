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
//!   Writers (`&mut self`) build the next state by copy-on-write — only
//!   the written shard's small mutable parts (delta segment, store tail,
//!   tombstones) are copied; sealed segments and frozen store chunks are
//!   shared by reference count — and publish it with one `Arc` swap into
//!   an epoch-stamped cell;
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
        // lint: allow(panic) — contract: scratch must come from this index's make_scratch
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
/// [`ShardedIndex::remove`] / [`ShardedIndex::seal`] /
/// [`ShardedIndex::compact`]); the reader side is wait-free snapshots —
/// take one directly with [`ShardedIndex::reader`], or hand reader
/// threads a [`ReaderHandle`] so they can keep taking fresh snapshots
/// while the writer holds the index mutably.
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
    /// The writer's current snapshot (always equal to the published cell).
    current: Snapshot<S>,
    /// The shared publication cell reader handles clone snapshots from.
    published: Arc<RwLock<Snapshot<S>>>,
}

impl<S: AppendStore + Clone> ShardedIndex<S> {
    /// Build with `l` sampled `(h, g)` pairs over `num_shards` shards and
    /// an initial point set (which may be empty). The RNG stream consumed
    /// is identical to [`DynamicIndex::build`], and all shards share the
    /// sampled pairs — the root of sharded/unsharded bit-parity.
    pub fn build(
        family: &(impl DshFamily<S::Row> + ?Sized),
        points: S,
        l: usize,
        num_shards: usize,
        rng: &mut dyn Rng,
    ) -> Self {
        Self::build_with_threads(
            family,
            points,
            l,
            num_shards,
            rng,
            parallel::available_threads(),
        )
    }

    /// [`ShardedIndex::build`] with an explicit worker-thread count (the
    /// built index does not depend on it).
    // `points` is taken by value to match every other build front-end,
    // even though sharding copies rows out instead of consuming the store.
    #[allow(clippy::needless_pass_by_value)]
    pub fn build_with_threads(
        family: &(impl DshFamily<S::Row> + ?Sized),
        points: S,
        l: usize,
        num_shards: usize,
        rng: &mut dyn Rng,
        threads: usize,
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
        let segments = if points.is_empty() {
            Vec::new()
        } else {
            vec![Self::single_segment_map(&shards)]
        };
        let current = Snapshot {
            state: Arc::new(ShardedState {
                shards,
                segments,
                total_rows: points.len(),
                epoch: 0,
            }),
        };
        ShardedIndex {
            published: Arc::new(RwLock::new(current.clone())),
            current,
        }
    }

    /// The logical map of a one-segment-per-shard layout (initial bulk
    /// build, or right after a compaction).
    fn single_segment_map(shards: &[Arc<DynamicIndex<ChunkedStore<S>>>]) -> Vec<Option<usize>> {
        shards
            .iter()
            .map(|sh| (sh.sealed_segments() > 0).then_some(0))
            .collect()
    }

    fn fork(&self) -> ShardedState<S> {
        (*self.current.state).clone()
    }

    /// Pretend the id space already holds `total` ids — the only
    /// practical way to park the index at the [`MAX_POINTS`] boundary
    /// and exercise the rejection paths without 4B real inserts. Writes
    /// must reject *before* forking, so the (now inconsistent) shard
    /// contents are never touched.
    #[cfg(test)]
    fn force_total_rows(&mut self, total: usize) {
        Arc::make_mut(&mut self.current.state).total_rows = total;
    }

    fn publish(&mut self, mut next: ShardedState<S>) {
        next.epoch = self.epoch() + 1;
        self.current = Snapshot {
            state: Arc::new(next),
        };
        // Poisoning policy: the cell only ever holds a fully-formed
        // `Snapshot` and the critical section is a single pointer
        // swap, so a panic while the lock is held cannot leave a torn
        // value — the last published epoch stays consistent. Recover the
        // guard instead of propagating the poison, which would otherwise
        // take down every wait-free reader forever after one writer panic.
        *self
            .published
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = self.current.clone();
    }

    /// An immutable snapshot of the current state. Stays valid — and
    /// keeps answering identically — no matter what writers do next.
    pub fn reader(&self) -> Snapshot<S> {
        self.current.clone()
    }

    /// A cloneable, `Send` handle other threads use to take fresh
    /// snapshots while this index is being written through `&mut self`.
    pub fn reader_handle(&self) -> ReaderHandle<S> {
        ReaderHandle {
            cell: Arc::clone(&self.published),
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
        // lint: allow(publish) — a rejected insert must leave the index untouched: no fork, no publication
        ensure_capacity(self.id_bound(), 1)?;
        let mut next = self.fork();
        let id = next.total_rows;
        let n = next.shards.len();
        let local = Arc::make_mut(&mut next.shards[id % n]).insert_row(p.as_row());
        debug_assert_eq!(local, id / n);
        next.total_rows += 1;
        self.publish(next);
        Ok(id)
    }

    /// Remove global id `id` (tombstone; reclaimed at the next
    /// compaction). Returns `Ok(false)` when already removed — in that
    /// case nothing changed, so nothing is forked and **no new epoch is
    /// published**: readers never observe epoch churn for a no-op write.
    /// An id that was never assigned rejects with
    /// [`WriteError::UnknownId`], also without fork or publication.
    pub fn remove(&mut self, id: usize) -> Result<bool, WriteError> {
        // lint: allow(publish) — a rejected remove must leave the index untouched: no fork, no publication
        ensure_known(id, self.id_bound())?;
        if !self.is_live(id) {
            // lint: allow(publish) — double-remove changes nothing; publishing would be reader-visible epoch churn for a no-op
            return Ok(false);
        }
        let mut next = self.fork();
        let n = next.shards.len();
        let removed = Arc::make_mut(&mut next.shards[id % n]).remove_unchecked(id / n);
        debug_assert!(removed, "liveness was checked before forking");
        self.publish(next);
        Ok(removed)
    }

    /// An empty [`WriteBatch`] staging rows of this index's shape, for
    /// [`ShardedIndex::apply_batch`].
    pub fn new_batch(&self) -> WriteBatch<S> {
        WriteBatch::new(self.current.state.shards[0].store().empty_inner())
    }

    /// Apply a staged batch of inserts and removes in order as **one
    /// group commit**: the whole batch is validated up front (an
    /// out-of-range remove anywhere in it rejects the batch with a
    /// descriptive [`BatchError`] *before* any fork — no partial
    /// application, no serving-path panic), each touched shard is forked
    /// exactly once, every operation is applied to that shard's
    /// delta/tail, grown write-head tails are frozen once at the end,
    /// and **one** epoch is published for the entire batch — or none at
    /// all when the batch changed nothing (empty, or pure
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
        // lint: allow(publish) — a rejected batch must leave the index untouched: no fork, no publication
        batch.validate(self.id_bound())?;
        if batch.is_empty() {
            // lint: allow(publish) — an empty batch changes nothing; keep the epoch
            return Ok(Vec::new());
        }
        let mut next = self.fork();
        let n = next.shards.len();
        let mut touched = vec![false; n];
        let mut outcomes = Vec::with_capacity(batch.len());
        let mut changed = false;
        for op in batch.ops() {
            match *op {
                BatchOp::Insert(slot) => {
                    let id = next.total_rows;
                    let local = Arc::make_mut(&mut next.shards[id % n]).insert_row(batch.row(slot));
                    debug_assert_eq!(local, id / n);
                    next.total_rows += 1;
                    touched[id % n] = true;
                    changed = true;
                    outcomes.push(WriteOutcome::Inserted(id));
                }
                BatchOp::Remove(id) => {
                    let id = id as usize;
                    let removed = Arc::make_mut(&mut next.shards[id % n]).remove_unchecked(id / n);
                    touched[id % n] = true;
                    changed |= removed;
                    outcomes.push(WriteOutcome::Removed(removed));
                }
            }
        }
        if !changed {
            // lint: allow(publish) — every op was a double-remove: the fork equals the current state, drop it and keep the epoch
            return Ok(outcomes);
        }
        Self::freeze_grown_tails(&mut next, &touched);
        self.publish(next);
        Ok(outcomes)
    }

    /// Insert every row of `points` in order as one group commit,
    /// returning the assigned global ids. Equivalent to a
    /// [`WriteBatch`] of pure inserts: each touched shard is forked
    /// once and **one** epoch is published for the whole batch (none
    /// for an empty `points`). A batch that would overflow
    /// [`MAX_POINTS`] is rejected whole with
    /// [`WriteError::CapacityExceeded`] — no fork, no publication.
    pub fn insert_batch<QS>(&mut self, points: &QS) -> Result<Vec<usize>, WriteError>
    where
        QS: PointStore<Row = S::Row> + ?Sized,
    {
        // lint: allow(publish) — a rejected batch must leave the index untouched: no fork, no publication
        ensure_capacity(self.id_bound(), points.len())?;
        if points.is_empty() {
            // lint: allow(publish) — nothing to insert; keep the epoch
            return Ok(Vec::new());
        }
        let mut next = self.fork();
        let n = next.shards.len();
        let mut touched = vec![false; n];
        for j in 0..points.len().min(n) {
            touched[(next.total_rows + j) % n] = true;
        }
        // Reserve each touched shard's tail in one pass before appending.
        let per_shard = points.len().div_ceil(n);
        for (shard, &t) in touched.iter().enumerate() {
            if t {
                Arc::make_mut(&mut next.shards[shard])
                    .store_mut()
                    .reserve_rows(per_shard);
            }
        }
        let mut ids = Vec::with_capacity(points.len());
        for i in 0..points.len() {
            let id = next.total_rows;
            let local = Arc::make_mut(&mut next.shards[id % n]).insert_row(points.row(i));
            debug_assert_eq!(local, id / n);
            next.total_rows += 1;
            ids.push(id);
        }
        Self::freeze_grown_tails(&mut next, &touched);
        self.publish(next);
        Ok(ids)
    }

    /// Remove every id in `ids` in order as one group commit, returning
    /// the per-id results ([`ShardedIndex::remove`] semantics). The
    /// whole batch is validated first: any never-assigned id rejects it
    /// with [`WriteError::UnknownId`] — no fork, no publication, no
    /// partial application. One epoch is published iff at least one id
    /// was actually live; a batch of pure double-removes publishes
    /// nothing.
    pub fn remove_batch(&mut self, ids: &[usize]) -> Result<Vec<bool>, WriteError> {
        for &id in ids {
            // lint: allow(publish) — a rejected batch must leave the index untouched: no fork, no publication
            ensure_known(id, self.id_bound())?;
        }
        if !ids.iter().any(|&id| self.is_live(id)) {
            // lint: allow(publish) — every id is already removed: nothing changes, keep the epoch
            return Ok(vec![false; ids.len()]);
        }
        let mut next = self.fork();
        let n = next.shards.len();
        let out = ids
            .iter()
            .map(|&id| Arc::make_mut(&mut next.shards[id % n]).remove_unchecked(id / n))
            .collect();
        self.publish(next);
        Ok(out)
    }

    /// Rows a shard's mutable store tail may accumulate before a batched
    /// write freezes it into a shared chunk. Per-op writes only freeze at
    /// [`ShardedIndex::seal`]; batched writes amortize the freeze here so
    /// the next fork's tail copy stays bounded without creating a chunk
    /// per tiny batch.
    const FREEZE_TAIL_ROWS: usize = 64;

    /// Freeze the write-head tail of every shard this batch touched once
    /// it has grown past [`Self::FREEZE_TAIL_ROWS`]. Chunk layout is not
    /// query-observable, so this cannot perturb per-op parity.
    fn freeze_grown_tails(next: &mut ShardedState<S>, touched: &[bool]) {
        for (shard, &t) in next.shards.iter_mut().zip(touched) {
            if t && shard.store().tail_rows() >= Self::FREEZE_TAIL_ROWS {
                // The shard was forked by this batch, so make_mut is free.
                Arc::make_mut(shard).store_mut().freeze_tail();
            }
        }
    }

    /// Freeze every shard's delta segment into a sealed CSR segment and
    /// publish once. A new logical segment is recorded iff any shard's
    /// delta held a live row — exactly when an unsharded
    /// [`DynamicIndex::seal`] over the union delta would have sealed one.
    pub fn seal(&mut self) {
        self.seal_with_threads(parallel::available_threads());
    }

    /// [`ShardedIndex::seal`] with an explicit worker-thread count.
    pub fn seal_with_threads(&mut self, threads: usize) {
        // Every shard's delta is empty: sealing would change nothing
        // (no delta to clear, no segment to create — exactly when the
        // unsharded seal is a no-op), so publishing would be pure
        // reader-visible epoch churn.
        if self.delta_rows() == 0 {
            // lint: allow(publish) — empty-delta seal is a no-op; keep the epoch
            return;
        }
        let mut next = self.fork();
        let will_seal: Vec<bool> = next
            .shards
            .iter()
            .map(|sh| sh.delta_rows() > 0 && sh.delta_has_live_rows())
            .collect();
        for shard in &mut next.shards {
            if shard.delta_rows() == 0 {
                continue;
            }
            let sh = Arc::make_mut(shard);
            sh.seal_with_threads(threads);
            // Retire the store's write head alongside the delta, so every
            // future snapshot clone shares these rows instead of copying.
            sh.store_mut().freeze_tail();
        }
        if will_seal.iter().any(|&w| w) {
            let map = next
                .shards
                .iter()
                .zip(&will_seal)
                .map(|(sh, &w)| w.then(|| sh.sealed_segments() - 1))
                .collect();
            next.segments.push(map);
        }
        self.publish(next);
    }

    /// Compact every shard down to one sealed segment, dropping
    /// tombstones. The per-shard merges fan out across scoped worker
    /// threads **off the publication path** — readers keep taking
    /// snapshots of the old state throughout — and the new segment set is
    /// published with one atomic swap at the end.
    pub fn compact(&mut self) {
        self.compact_with_threads(parallel::available_threads());
    }

    /// [`ShardedIndex::compact`] with an explicit worker-thread count
    /// (the resulting layout does not depend on it).
    pub fn compact_with_threads(&mut self, threads: usize) {
        // Zero sealed segments and an empty delta: the merge would
        // rebuild the empty layout it started from (tombstone bits are
        // never cleared by compaction), so skip the fork and keep the
        // epoch instead of publishing a bit-identical state.
        if self.sealed_segments() == 0 && self.delta_rows() == 0 {
            // lint: allow(publish) — segmentless + empty-delta compact is a no-op; keep the epoch
            return;
        }
        let mut next = self.fork();
        let per_shard = (threads / next.shards.len()).max(1);
        next.shards = parallel::map_items(&next.shards, threads, |_, shard| {
            let mut sh = (**shard).clone();
            sh.compact_with_threads(per_shard);
            sh.store_mut().consolidate();
            Arc::new(sh)
        });
        next.segments = if next.shards.iter().any(|sh| sh.sealed_segments() > 0) {
            vec![Self::single_segment_map(&next.shards)]
        } else {
            Vec::new()
        };
        self.publish(next);
    }
}

/// Every read of the index — `candidates*`, `len`, `is_live`, `point`,
/// `epoch`, the shape accessors — is the same call on its current
/// [`Snapshot`]; there is no second read path to keep in step.
impl<S: AppendStore + Clone> std::ops::Deref for ShardedIndex<S> {
    type Target = Snapshot<S>;

    fn deref(&self) -> &Snapshot<S> {
        &self.current
    }
}

impl<S: AppendStore + Clone> CandidateBackend for ShardedIndex<S> {
    type Row = S::Row;

    fn repetitions(&self) -> usize {
        self.current.repetitions()
    }

    fn point(&self, i: usize) -> &S::Row {
        self.current.point(i)
    }

    #[inline]
    fn prefetch_point(&self, i: usize) {
        CandidateBackend::prefetch_point(&self.current, i);
    }

    fn new_scratch(&self) -> QueryScratch {
        self.current.new_scratch()
    }

    fn candidates_row(
        &self,
        q: &S::Row,
        retrieval_limit: Option<usize>,
        scratch: &mut QueryScratch,
    ) -> (Vec<usize>, QueryStats) {
        self.current.candidates_row(q, retrieval_limit, scratch)
    }
}

/// A cloneable, thread-safe source of fresh [`Snapshot`]s.
///
/// Reader threads hold one of these while the writer thread holds the
/// [`ShardedIndex`] itself (`&mut`); each [`ReaderHandle::snapshot`] call
/// observes the latest published epoch. Acquisition cost is one
/// briefly-held read lock plus an `Arc` clone — constant even while a
/// compaction is rebuilding segments on other threads.
#[derive(Clone)]
pub struct ReaderHandle<S: AppendStore + Clone> {
    cell: Arc<RwLock<Snapshot<S>>>,
}

impl<S: AppendStore + Clone> ReaderHandle<S> {
    /// The latest published snapshot.
    ///
    /// Survives a poisoned cell: publication is a single pointer swap of a
    /// fully-formed `Arc`, so even if a writer panicked mid-publish the
    /// cell still holds a consistent epoch (see the poisoning policy on
    /// `ShardedIndex::publish`). Readers must never be taken down by a
    /// writer-side panic.
    pub fn snapshot(&self) -> Snapshot<S> {
        self.cell
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
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
        idx.insert_batch(&store_of(&points[21..30], d)).unwrap();
        check(&idx, "insert_batch");
        idx.remove_batch(&[5, 22, 4]).unwrap();
        check(&idx, "remove_batch");
        let mut batch = idx.new_batch();
        for p in &points[30..40] {
            batch.insert(p);
        }
        batch.remove(31);
        idx.apply_batch(&batch).unwrap();
        check(&idx, "apply_batch");
        idx.seal();
        check(&idx, "seal");
        idx.insert_batch(&store_of(&points[40..], d)).unwrap();
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
        let cell = Arc::clone(&idx.published);
        let t = std::thread::spawn(move || {
            let _guard = cell.write().unwrap();
            panic!("writer dies while holding the publication lock");
        });
        assert!(t.join().is_err(), "thread must have panicked");

        // Readers still observe the last published epoch (the cell always
        // holds a fully-formed Arc; see the poisoning policy on publish)...
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

        assert_eq!(idx.remove_batch(&[1, 2]), Ok(vec![false, false]));
        assert_eq!(idx.epoch(), epoch, "no-op remove_batch published");
        assert_eq!(idx.insert_batch(&Vec::<BitVector>::new()), Ok(Vec::new()));
        assert_eq!(idx.epoch(), epoch, "empty insert_batch published");
    }

    /// `insert_batch`/`remove_batch` equal their per-op loops and
    /// publish one epoch each.
    #[test]
    fn insert_and_remove_batch_match_per_op_loops() {
        let d = 64;
        let points = dataset(0x5AB0, d, 30);
        let queries = dataset(0x5AB1, d, 5);
        let l = 6;
        for shards in [1usize, 3] {
            let mut batched = ShardedIndex::build(
                &BitSampling::new(d),
                BitStore::with_dim(d),
                l,
                shards,
                &mut seeded(0x5AB2),
            );
            let mut per_op = ShardedIndex::build(
                &BitSampling::new(d),
                BitStore::with_dim(d),
                l,
                shards,
                &mut seeded(0x5AB2),
            );
            let ids = batched.insert_batch(&points).unwrap();
            assert_eq!(batched.epoch(), 1);
            let want: Vec<usize> = points.iter().map(|p| per_op.insert(p).unwrap()).collect();
            assert_eq!(ids, want);

            let victims = [0usize, 7, 8, 7, 29];
            let removed = batched.remove_batch(&victims).unwrap();
            assert_eq!(batched.epoch(), 2);
            let want: Vec<bool> = victims
                .iter()
                .map(|&id| per_op.remove(id).unwrap())
                .collect();
            assert_eq!(removed, want);
            assert_eq!(removed, vec![true, true, true, false, true]);

            for q in &queries {
                assert_eq!(
                    per_op.candidates(q, None),
                    batched.candidates(q, None),
                    "shards {shards}"
                );
            }
        }
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
            idx.remove_batch(&[0, 1]),
            Err(WriteError::UnknownId { id: 0, bound: 0 })
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
            idx.remove_batch(&[id, id + 1]),
            Err(WriteError::UnknownId { id: 1, bound: 1 })
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
        idx.force_total_rows(MAX_POINTS);
        let epoch = idx.epoch();
        assert_eq!(
            idx.insert(&p),
            Err(WriteError::CapacityExceeded {
                id_bound: MAX_POINTS,
                additional: 1
            })
        );
        assert_eq!(
            idx.insert_batch(&vec![p.clone(), p.clone()]),
            Err(WriteError::CapacityExceeded {
                id_bound: MAX_POINTS,
                additional: 2
            })
        );
        let mut batch = idx.new_batch();
        batch.insert(&p);
        assert_eq!(
            idx.apply_batch(&batch),
            Err(BatchError::CapacityExceeded { op_index: 0 })
        );
        assert_eq!(idx.epoch(), epoch, "rejected writes published");
        // One id below the cap, every entry point admits one more id.
        idx.force_total_rows(MAX_POINTS - 1);
        let mut batch = idx.new_batch();
        batch.remove(MAX_POINTS - 2); // known id: validates against the forced bound
        assert!(batch.validate(idx.id_bound()).is_ok());
        assert_eq!(
            idx.insert_batch(&Vec::<BitVector>::new()),
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
