//! Mutable segmented index: online insert/delete over the CSR substrate.
//!
//! Every structure in [`crate::table`] is build-once: serving a live
//! workload means ingesting and retiring points without paying a full
//! `O(n · L · k)` re-hash per change. [`DynamicIndex`] is the standard
//! production answer — an LSM-style segmented layout over the existing
//! flat storage:
//!
//! * a list of **sealed segments**, each holding one immutable flat CSR
//!   bucket table per repetition (the same layout, builder, and probe
//!   path as the static [`crate::HashTableIndex`]);
//! * one mutable **delta segment**: per-table `HashMap<u64, Vec<u32>>`
//!   buckets that absorb inserts at `L` hash evaluations per point;
//! * a **tombstone** bitset marking removed ids, consulted during
//!   candidate collection and dropped at compaction.
//!
//! All segments share one `L`-tuple of sampled `(h, g)` pairs and one
//! appendable [`AppendStore`] of rows; point ids are global, stable
//! handles (`insert` returns the id, `remove` takes it) that survive
//! every [`DynamicIndex::seal`] and [`DynamicIndex::compact`].
//!
//! # Compaction without re-hashing
//!
//! [`DynamicIndex::compact`] merges all sealed segments and the delta
//! into one fresh sealed segment, dropping tombstoned ids. The key trick:
//! a segment's CSR directory already stores every id's hash key, so the
//! merge recovers `(key, id)` pairs by walking directories (and the delta
//! maps) instead of re-evaluating `L` width-`k` hash functions per row —
//! compaction is a sort-and-sweep over existing keys, parallelized across
//! the `L` tables like the static build.
//!
//! # Parity with the static build
//!
//! Sampling consumes the caller's RNG exactly like
//! [`crate::HashTableIndex::build`], the initial bulk build fans out over
//! the same parallel per-table builder, and compaction's sorted
//! `(key, id)` sweep produces the same grouped-bucket layout the static
//! sort produces. Consequence (pinned by `tests/dynamic_parity.rs`): an
//! index grown by inserts and then compacted answers every query — ids,
//! order, and [`QueryStats`] — bit-identically to a static index built
//! from the same final point set, on every store backend and thread
//! count.

use crate::batch::{
    ensure_capacity, ensure_known, BatchError, BatchOp, WriteBatch, WriteError, WriteOutcome,
    MAX_POINTS,
};
use crate::parallel;
use crate::table::{
    CandidateBackend, CsrBuckets, QueryScratch, QueryStats, MIN_QUERIES_PER_WORKER,
};
use dsh_core::family::{DshFamily, HasherPair};
use dsh_core::points::{AppendStore, AsRow, PointStore};
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// One immutable segment: a CSR bucket table per repetition, all covering
/// the same id set. Shared behind [`Arc`] so that cloning an index for an
/// immutable snapshot (the sharded serving layer's publication step)
/// bumps a reference count instead of copying bucket arrays.
struct SealedSegment {
    tables: Vec<CsrBuckets>,
}

/// The mutable write head: `HashMap` buckets per repetition, absorbing
/// inserts until the segment is sealed or compacted away.
#[derive(Clone)]
struct DeltaSegment {
    tables: Vec<HashMap<u64, Vec<u32>>>,
    rows: usize,
}

impl DeltaSegment {
    fn new(l: usize) -> Self {
        DeltaSegment {
            tables: (0..l).map(|_| HashMap::new()).collect(),
            rows: 0,
        }
    }

    fn clear(&mut self) {
        for t in &mut self.tables {
            t.clear();
        }
        self.rows = 0;
    }
}

/// Bitset over global point ids marking removed points (shared with the
/// dynamic [`crate::LinearScan`] baseline).
#[derive(Clone)]
pub(crate) struct Tombstones {
    bits: Vec<u64>,
    dead: usize,
}

impl Tombstones {
    pub(crate) fn new() -> Self {
        Tombstones {
            bits: Vec::new(),
            dead: 0,
        }
    }

    #[inline]
    pub(crate) fn is_dead(&self, id: usize) -> bool {
        self.bits
            .get(id / 64)
            .is_some_and(|b| (b >> (id % 64)) & 1 == 1)
    }

    /// Number of dead ids.
    pub(crate) fn dead(&self) -> usize {
        self.dead
    }

    /// Mark `id` dead; returns `false` when it already was.
    pub(crate) fn kill(&mut self, id: usize) -> bool {
        if self.is_dead(id) {
            return false;
        }
        let block = id / 64;
        if self.bits.len() <= block {
            self.bits.resize(block + 1, 0);
        }
        self.bits[block] |= 1u64 << (id % 64);
        self.dead += 1;
        true
    }
}

/// A mutable `L`-repetition DSH index: sealed CSR segments + a `HashMap`
/// delta segment + tombstones, over one appendable point store.
///
/// Supports [`DynamicIndex::insert`] (append a row, `L` hash
/// evaluations), [`DynamicIndex::remove`] (tombstone a global id),
/// [`DynamicIndex::seal`] (freeze the delta into a sealed CSR segment)
/// and [`DynamicIndex::compact`] (merge everything live into one fresh
/// segment without re-hashing). Queries fan out across all segments per
/// table, deduplicate through the generation-stamped [`QueryScratch`],
/// and skip tombstoned ids.
///
/// ```
/// use dsh_core::points::{BitStore, BitVector};
/// use dsh_hamming::BitSampling;
/// use dsh_index::DynamicIndex;
/// use dsh_math::rng::seeded;
///
/// let d = 64;
/// let mut rng = seeded(7);
/// // Start empty and grow online (a non-empty store bulk-builds the
/// // first sealed segment in parallel, exactly like the static index).
/// let mut idx = DynamicIndex::build(&BitSampling::new(d), BitStore::with_dim(d), 8, &mut rng);
/// let q = BitVector::random(&mut rng, d);
/// let id = idx.insert(&q).unwrap();
/// assert!(idx.candidates(&q, None).0.contains(&id));
///
/// idx.remove(id).unwrap();
/// assert!(!idx.candidates(&q, None).0.contains(&id));
///
/// idx.compact(); // drop tombstoned ids from the bucket layout
/// assert_eq!(idx.len(), 0);
/// ```
pub struct DynamicIndex<S: AppendStore> {
    pairs: Vec<HasherPair<S::Row>>,
    sealed: Vec<Arc<SealedSegment>>,
    delta: DeltaSegment,
    store: S,
    tombstones: Tombstones,
}

// Manual impl: the builtin derive would also demand `S::Row: Clone`,
// which unsized rows like `[u64]` cannot satisfy; cloning the pairs only
// bumps `Arc`s.
impl<S: AppendStore + Clone> Clone for DynamicIndex<S> {
    fn clone(&self) -> Self {
        DynamicIndex {
            pairs: self.pairs.clone(),
            sealed: self.sealed.clone(),
            delta: self.delta.clone(),
            store: self.store.clone(),
            tombstones: self.tombstones.clone(),
        }
    }
}

impl<S: AppendStore> DynamicIndex<S> {
    /// Build with `l` independently sampled `(h, g)` pairs over an initial
    /// point set (which may be empty — the "start from nothing" case).
    /// Non-empty initial points become the first sealed segment, built in
    /// parallel exactly like [`crate::HashTableIndex::build`]; the RNG
    /// stream consumed is identical, so a dynamic and a static index built
    /// from the same seed share their hash functions.
    pub fn build(
        family: &(impl DshFamily<S::Row> + ?Sized),
        points: S,
        l: usize,
        rng: &mut dyn Rng,
    ) -> Self {
        Self::build_with_threads(family, points, l, rng, parallel::available_threads())
    }

    /// [`DynamicIndex::build`] with an explicit worker-thread count (the
    /// built index does not depend on it).
    pub fn build_with_threads(
        family: &(impl DshFamily<S::Row> + ?Sized),
        points: S,
        l: usize,
        rng: &mut dyn Rng,
        threads: usize,
    ) -> Self {
        // lint: allow(panic) — build-time parameter validation, not on the query path
        assert!(l >= 1, "need at least one repetition");
        let pairs: Vec<HasherPair<S::Row>> = (0..l).map(|_| family.sample(rng)).collect();
        Self::with_pairs(pairs, points, threads)
    }

    /// Build over already-sampled `(h, g)` pairs — the seam the sharded
    /// serving layer uses to give every shard the *same* hash functions
    /// (one sequential sampling pass, `N` shard indexes), which is what
    /// makes a sharded index bit-compatible with an unsharded one.
    pub(crate) fn with_pairs(pairs: Vec<HasherPair<S::Row>>, points: S, threads: usize) -> Self {
        // lint: allow(panic) — build-time parameter validation, not on the query path
        assert!(!pairs.is_empty(), "need at least one repetition");
        // lint: allow(panic) — build-time capacity check, not on the query path
        assert!(
            points.len() <= MAX_POINTS,
            "point count exceeds the u32 point-id capacity"
        );
        let sealed = if points.is_empty() {
            Vec::new()
        } else {
            let points_ref = &points;
            let tables = parallel::map_items(&pairs, threads, |_, pair| {
                let hashes: Vec<u64> = (0..points_ref.len())
                    .map(|i| pair.data.hash(points_ref.row(i)))
                    .collect();
                CsrBuckets::build(&hashes)
            });
            vec![Arc::new(SealedSegment { tables })]
        };
        DynamicIndex {
            delta: DeltaSegment::new(pairs.len()),
            pairs,
            sealed,
            store: points,
            tombstones: Tombstones::new(),
        }
    }

    /// Number of repetitions `L`.
    pub fn repetitions(&self) -> usize {
        self.pairs.len()
    }

    /// Number of **live** points (inserted and not removed).
    pub fn len(&self) -> usize {
        self.store.len() - self.tombstones.dead()
    }

    /// True when no live points are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One past the largest id ever assigned (the id-space size; removed
    /// ids keep their slot, so this only grows).
    pub fn id_bound(&self) -> usize {
        self.store.len()
    }

    /// Whether `id` has been inserted and not removed.
    pub fn is_live(&self, id: usize) -> bool {
        id < self.store.len() && !self.tombstones.is_dead(id)
    }

    /// Iterate over the live ids in increasing order.
    pub fn live_ids(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.store.len()).filter(|&i| !self.tombstones.is_dead(i))
    }

    /// Number of sealed segments currently probed per table.
    pub fn sealed_segments(&self) -> usize {
        self.sealed.len()
    }

    /// Number of points sitting in the mutable delta segment.
    pub fn delta_rows(&self) -> usize {
        self.delta.rows
    }

    /// Number of removed (tombstoned) ids not yet dropped by compaction
    /// of every segment that referenced them.
    pub fn removed(&self) -> usize {
        self.tombstones.dead()
    }

    /// Borrow the row of point `id` (rows remain addressable after
    /// removal; the store is append-only).
    pub fn point(&self, id: usize) -> &S::Row {
        self.store.row(id)
    }

    /// The underlying point store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// A query scratch buffer sized for this index's **current** id
    /// space. Inserting grows the id space, so a scratch taken before an
    /// insert is rejected (loudly) by the query paths afterwards.
    pub fn new_scratch(&self) -> QueryScratch {
        QueryScratch::new(self.store.len())
    }

    /// Insert a point (an owned point, a store row view, or a raw row),
    /// returning its global id. Costs one row append plus `L` hash
    /// evaluations into the delta segment's `HashMap` buckets. Rejects
    /// with [`WriteError::CapacityExceeded`] when the id space is full
    /// (`id_bound == MAX_POINTS`), leaving the index untouched.
    pub fn insert<Q>(&mut self, p: &Q) -> Result<usize, WriteError>
    where
        Q: AsRow<Row = S::Row> + ?Sized,
    {
        ensure_capacity(self.store.len(), 1)?;
        Ok(self.insert_row(p.as_row()))
    }

    /// Row-level [`DynamicIndex::insert`] — the seam the batched write
    /// paths (and the sharded layer) use to insert pre-validated rows
    /// borrowed from another store without an `AsRow` detour. Callers
    /// must have checked capacity (see `ensure_capacity`).
    pub(crate) fn insert_row(&mut self, row: &S::Row) -> usize {
        let id = self.store.len();
        debug_assert!(id < MAX_POINTS, "caller skipped the capacity check");
        self.store.push_row(row);
        let row = self.store.row(id);
        for (pair, table) in self.pairs.iter().zip(&mut self.delta.tables) {
            table
                .entry(pair.data.hash(row))
                .or_default()
                .push(id as u32);
        }
        self.delta.rows += 1;
        id
    }

    /// Remove point `id`: sets its tombstone bit, so candidate collection
    /// skips it immediately; the bucket entries (and the stored row) are
    /// reclaimed by the next [`DynamicIndex::compact`]. Returns
    /// `Ok(false)` when `id` was already removed, and rejects an id that
    /// was never assigned with [`WriteError::UnknownId`] — the same
    /// surface the group-commit path reports per batch.
    pub fn remove(&mut self, id: usize) -> Result<bool, WriteError> {
        ensure_known(id, self.store.len())?;
        Ok(self.tombstones.kill(id))
    }

    /// [`DynamicIndex::remove`] for ids the caller has already bounds
    /// checked — the seam the sharded layer uses after validating whole
    /// batches against its global id space.
    pub(crate) fn remove_unchecked(&mut self, id: usize) -> bool {
        debug_assert!(id < self.store.len(), "caller skipped the id check");
        self.tombstones.kill(id)
    }

    /// An empty [`WriteBatch`] staging rows of this index's shape, for
    /// [`DynamicIndex::apply_batch`].
    pub fn new_batch(&self) -> WriteBatch<S> {
        WriteBatch::new(self.store.empty_like())
    }

    /// Apply a staged batch of inserts and removes in order. The whole
    /// batch is validated first: an out-of-range remove anywhere in it
    /// (against the id bound as it would stand at that op) rejects the
    /// batch with a descriptive [`BatchError`] and leaves the index
    /// untouched — no partial application. On success the outcomes line
    /// up with the batch's ops and equal what per-op calls would have
    /// returned; the resulting index is bit-identical to the per-op
    /// replay.
    pub fn apply_batch<BS>(
        &mut self,
        batch: &WriteBatch<BS>,
    ) -> Result<Vec<WriteOutcome>, BatchError>
    where
        BS: AppendStore<Row = S::Row>,
    {
        batch.validate(self.store.len())?;
        self.store.reserve_rows(batch.inserts());
        let mut outcomes = Vec::with_capacity(batch.len());
        for op in batch.ops() {
            match *op {
                BatchOp::Insert(slot) => {
                    outcomes.push(WriteOutcome::Inserted(self.insert_row(batch.row(slot))));
                }
                BatchOp::Remove(id) => {
                    outcomes.push(WriteOutcome::Removed(self.tombstones.kill(id as usize)));
                }
            }
        }
        Ok(outcomes)
    }

    /// Freeze the delta segment into a new sealed CSR segment (tombstoned
    /// ids are dropped on the way). Sealing bounds the `HashMap` probe
    /// cost of a hot write head without paying a full merge; a no-op when
    /// the delta holds no live ids. The per-table sort-and-sweeps fan out
    /// across [`parallel::available_threads`] workers, like
    /// [`DynamicIndex::compact`].
    pub fn seal(&mut self) {
        if self.delta.rows == 0 {
            return;
        }
        let threads = parallel::available_threads();
        let tombstones = &self.tombstones;
        let tables: Vec<CsrBuckets> = parallel::map_items(&self.delta.tables, threads, |_, m| {
            let pairs: Vec<(u64, u32)> = m
                .iter()
                .flat_map(|(&key, ids)| {
                    ids.iter()
                        .filter(|&&i| !tombstones.is_dead(i as usize))
                        .map(move |&i| (key, i))
                })
                .collect();
            CsrBuckets::build_from_pairs(pairs)
        });
        if tables.first().map_or(0, CsrBuckets::num_ids) > 0 {
            self.sealed.push(Arc::new(SealedSegment { tables }));
        }
        self.delta.clear();
    }

    /// Merge every sealed segment and the delta into one fresh sealed
    /// segment, dropping tombstoned ids from the bucket layout.
    ///
    /// No hash function is re-evaluated: each table's `(key, id)` pairs
    /// are recovered from the existing segment directories and delta maps,
    /// then rebuilt with the same sort-and-sweep the static builder uses,
    /// fanned out across [`parallel::available_threads`] workers (one
    /// table per work item). Afterwards the index probes one segment per
    /// table — the exact layout a static build over the live point set
    /// would produce.
    pub fn compact(&mut self) {
        self.compact_with_threads(parallel::available_threads());
    }

    /// [`DynamicIndex::compact`] with an explicit worker-thread count
    /// (the resulting layout does not depend on it).
    pub fn compact_with_threads(&mut self, threads: usize) {
        // Nothing sealed and nothing buffered: the merge would rebuild
        // the empty layout it started from. Skip the worker fan-out (and
        // let the sharded layer skip its publication) instead.
        if self.sealed.is_empty() && self.delta.rows == 0 {
            return;
        }
        let table_ids: Vec<usize> = (0..self.pairs.len()).collect();
        let sealed = &self.sealed;
        let delta = &self.delta;
        let tombstones = &self.tombstones;
        let tables: Vec<CsrBuckets> = parallel::map_items(&table_ids, threads, |_, &j| {
            let mut pairs: Vec<(u64, u32)> = Vec::new();
            for seg in sealed {
                for (key, ids) in seg.tables[j].entries() {
                    pairs.extend(
                        ids.iter()
                            .filter(|&&i| !tombstones.is_dead(i as usize))
                            .map(|&i| (key, i)),
                    );
                }
            }
            for (&key, ids) in &delta.tables[j] {
                pairs.extend(
                    ids.iter()
                        .filter(|&&i| !tombstones.is_dead(i as usize))
                        .map(|&i| (key, i)),
                );
            }
            CsrBuckets::build_from_pairs(pairs)
        });
        self.sealed = if tables.first().map_or(0, CsrBuckets::num_ids) == 0 {
            Vec::new()
        } else {
            vec![Arc::new(SealedSegment { tables })]
        };
        self.delta.clear();
    }

    // -----------------------------------------------------------------
    // Crate-internal seams for the sharded serving layer (`crate::shard`):
    // the sharded query path probes each shard's physical buckets itself
    // so it can merge entries across shards in ascending-global-id order
    // (reproducing the unsharded bucket exactly).
    // -----------------------------------------------------------------

    /// The sampled `(h, g)` pairs, in repetition order.
    pub(crate) fn pairs(&self) -> &[HasherPair<S::Row>] {
        &self.pairs
    }

    /// The bucket of sealed segment `seg`, table `j`, under `key`.
    pub(crate) fn sealed_bucket(&self, seg: usize, j: usize, key: u64) -> &[u32] {
        self.sealed[seg].tables[j].bucket(key)
    }

    /// The delta-segment bucket of table `j` under `key`.
    pub(crate) fn delta_bucket(&self, j: usize, key: u64) -> &[u32] {
        self.delta.tables[j].get(&key).map_or(&[], Vec::as_slice)
    }

    /// Mutable access to the backing store (the sharded layer freezes a
    /// `ChunkedStore` tail after sealing, so snapshots stay cheap).
    pub(crate) fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Retrieve query candidates, fanning each of the `L` tables out
    /// across every segment (sealed in creation order, then the delta),
    /// stopping once `retrieval_limit` raw entries have been pulled.
    /// Returns distinct live candidate ids in retrieval order; tombstoned
    /// entries are skipped without counting against the limit.
    pub fn candidates<Q>(&self, q: &Q, retrieval_limit: Option<usize>) -> (Vec<usize>, QueryStats)
    where
        Q: AsRow<Row = S::Row> + ?Sized,
    {
        self.candidates_with(q, retrieval_limit, &mut self.new_scratch())
    }

    /// [`DynamicIndex::candidates`] against a caller-provided scratch
    /// buffer (from [`DynamicIndex::new_scratch`], taken after the last
    /// insert).
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

    pub(crate) fn candidates_row(
        &self,
        q: &S::Row,
        retrieval_limit: Option<usize>,
        scratch: &mut QueryScratch,
    ) -> (Vec<usize>, QueryStats) {
        // lint: allow(panic) — contract: scratch must come from this index's new_scratch
        assert_eq!(
            scratch.len(),
            self.store.len(),
            "scratch buffer sized for a different index"
        );
        let generation = scratch.begin();
        let limit = retrieval_limit.unwrap_or(usize::MAX);
        let mut stats = QueryStats::default();
        let mut out = Vec::new();
        'tables: for (j, pair) in self.pairs.iter().enumerate() {
            let key = pair.query.hash(q);
            for seg in &self.sealed {
                let part = self.consume_bucket(
                    seg.tables[j].bucket(key),
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
            if self.delta.rows > 0 {
                let part = self.consume_bucket(
                    self.delta_bucket(j, key),
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

    /// Pull up to `remaining` live entries from one physical bucket,
    /// returning the per-probe partial stats (merged by the caller — see
    /// [`QueryStats::merge`] for why `distinct_candidates` is left to the
    /// end of the whole query).
    // lint: hot
    fn consume_bucket(
        &self,
        bucket: &[u32],
        remaining: usize,
        scratch: &mut QueryScratch,
        generation: u8,
        out: &mut Vec<usize>,
    ) -> QueryStats {
        let mut part = QueryStats {
            tables_probed: 1,
            ..QueryStats::default()
        };
        for (j, &i) in bucket.iter().enumerate() {
            if part.candidates_retrieved >= remaining {
                break;
            }
            if let Some(&ahead) = bucket.get(j + crate::table::STAMP_AHEAD) {
                scratch.prefetch(ahead as usize);
            }
            let i = i as usize;
            if self.tombstones.is_dead(i) {
                continue;
            }
            if scratch.visit(i, generation) {
                out.push(i);
            } else {
                part.duplicates += 1;
            }
            part.candidates_retrieved += 1;
        }
        part
    }

    /// Run [`DynamicIndex::candidates`] for a batch of queries, fanned
    /// out across [`parallel::available_threads`] workers with one scratch
    /// buffer per worker. Results line up with `queries` and are identical
    /// to a query-at-a-time loop.
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

    /// [`DynamicIndex::candidates_batch`] with an explicit worker-thread
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

impl<S: AppendStore> CandidateBackend for DynamicIndex<S> {
    type Row = S::Row;

    fn repetitions(&self) -> usize {
        DynamicIndex::repetitions(self)
    }

    fn point(&self, i: usize) -> &S::Row {
        DynamicIndex::point(self, i)
    }

    #[inline]
    fn prefetch_point(&self, i: usize) {
        self.store.prefetch_row(i);
    }

    fn new_scratch(&self) -> QueryScratch {
        DynamicIndex::new_scratch(self)
    }

    fn candidates_row(
        &self,
        q: &S::Row,
        retrieval_limit: Option<usize>,
        scratch: &mut QueryScratch,
    ) -> (Vec<usize>, QueryStats) {
        DynamicIndex::candidates_row(self, q, retrieval_limit, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::HashTableIndex;
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

    #[test]
    fn insert_then_compact_matches_static_build() {
        let d = 64;
        let points = dataset(0xD1, d, 150);
        let queries = dataset(0xD2, d, 12);
        let l = 10;
        let static_idx = HashTableIndex::build(
            &BitSampling::new(d),
            store_of(&points, d),
            l,
            &mut seeded(0xD3),
        );
        let mut dyn_idx = DynamicIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            l,
            &mut seeded(0xD3),
        );
        for p in &points {
            dyn_idx.insert(p).unwrap();
        }
        dyn_idx.compact();
        assert_eq!(dyn_idx.sealed_segments(), 1);
        assert_eq!(dyn_idx.delta_rows(), 0);
        for q in &queries {
            for limit in [None, Some(7)] {
                assert_eq!(
                    static_idx.candidates(q, limit),
                    dyn_idx.candidates(q, limit),
                    "limit {limit:?}"
                );
            }
        }
    }

    #[test]
    fn initial_bulk_build_matches_static_build() {
        let d = 64;
        let points = dataset(0xD4, d, 120);
        let queries = dataset(0xD5, d, 8);
        let static_idx = HashTableIndex::build(
            &BitSampling::new(d),
            store_of(&points, d),
            6,
            &mut seeded(0xD6),
        );
        let dyn_idx = DynamicIndex::build(
            &BitSampling::new(d),
            store_of(&points, d),
            6,
            &mut seeded(0xD6),
        );
        assert_eq!(dyn_idx.sealed_segments(), 1);
        for q in &queries {
            assert_eq!(static_idx.candidates(q, None), dyn_idx.candidates(q, None));
        }
    }

    #[test]
    fn removed_points_disappear_immediately_and_stay_gone() {
        let d = 32;
        let points = dataset(0xD7, d, 40);
        let mut idx = DynamicIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            8,
            &mut seeded(0xD8),
        );
        let ids: Vec<usize> = points.iter().map(|p| idx.insert(p).unwrap()).collect();
        assert_eq!(idx.len(), 40);
        // Identical point always collides under a symmetric family.
        let victim = ids[13];
        assert!(idx.candidates(&points[13], None).0.contains(&victim));
        assert!(idx.remove(victim).unwrap());
        assert!(
            !idx.remove(victim).unwrap(),
            "double remove must report Ok(false)"
        );
        assert_eq!(idx.len(), 39);
        assert!(!idx.is_live(victim));
        assert!(!idx.candidates(&points[13], None).0.contains(&victim));
        // Still gone after seal and compact, and live count is stable.
        idx.seal();
        assert!(!idx.candidates(&points[13], None).0.contains(&victim));
        idx.compact();
        assert!(!idx.candidates(&points[13], None).0.contains(&victim));
        assert_eq!(idx.len(), 39);
        assert_eq!(idx.live_ids().count(), 39);
        assert_eq!(idx.removed(), 1);
    }

    #[test]
    fn seal_creates_segments_and_queries_span_them() {
        let d = 64;
        let points = dataset(0xD9, d, 90);
        let mut idx = DynamicIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            6,
            &mut seeded(0xDA),
        );
        for (i, p) in points.iter().enumerate() {
            idx.insert(p).unwrap();
            if i % 30 == 29 {
                idx.seal();
            }
        }
        assert_eq!(idx.sealed_segments(), 3);
        assert_eq!(idx.delta_rows(), 0);
        // Every identical point is found regardless of its segment.
        for (i, p) in points.iter().enumerate() {
            assert!(idx.candidates(p, None).0.contains(&i), "point {i}");
        }
    }

    #[test]
    fn candidate_set_is_segment_layout_invariant() {
        // The same live point set must yield the same distinct-candidate
        // *set* whatever the segment layout (order may differ).
        let d = 64;
        let points = dataset(0xDB, d, 80);
        let queries = dataset(0xDC, d, 10);
        let mut layouts = Vec::new();
        for seal_every in [usize::MAX, 11, 25] {
            let mut idx = DynamicIndex::build(
                &BitSampling::new(d),
                BitStore::with_dim(d),
                7,
                &mut seeded(0xDD),
            );
            for (i, p) in points.iter().enumerate() {
                idx.insert(p).unwrap();
                if (i + 1) % seal_every == 0 {
                    idx.seal();
                }
            }
            let sets: Vec<Vec<usize>> = queries
                .iter()
                .map(|q| {
                    let mut c = idx.candidates(q, None).0;
                    c.sort_unstable();
                    c
                })
                .collect();
            layouts.push(sets);
        }
        for other in &layouts[1..] {
            assert_eq!(&layouts[0], other);
        }
    }

    #[test]
    fn batch_matches_sequential_queries() {
        let d = 64;
        let points = dataset(0xDE, d, 100);
        let queries = dataset(0xDF, d, 21);
        let mut idx = DynamicIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            9,
            &mut seeded(0xE0),
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
        }
    }

    #[test]
    fn compact_is_deterministic_in_thread_count() {
        let d = 64;
        let points = dataset(0xE1, d, 70);
        let queries = dataset(0xE2, d, 9);
        let mut answers = Vec::new();
        for threads in [1usize, 2, 4, 16] {
            let mut idx = DynamicIndex::build_with_threads(
                &BitSampling::new(d),
                BitStore::with_dim(d),
                8,
                &mut seeded(0xE3),
                threads,
            );
            for (i, p) in points.iter().enumerate() {
                idx.insert(p).unwrap();
                if i == 30 {
                    idx.seal();
                }
            }
            idx.remove(5).unwrap();
            idx.compact_with_threads(threads);
            answers.push(
                queries
                    .iter()
                    .map(|q| idx.candidates(q, None))
                    .collect::<Vec<_>>(),
            );
        }
        for other in &answers[1..] {
            assert_eq!(&answers[0], other, "thread count changed the layout");
        }
    }

    #[test]
    fn empty_index_answers_and_compacts() {
        let d = 32;
        let mut idx = DynamicIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            4,
            &mut seeded(0xE4),
        );
        assert!(idx.is_empty());
        assert_eq!(idx.sealed_segments(), 0);
        let q = BitVector::random(&mut seeded(0xE5), d);
        let (cands, stats) = idx.candidates(&q, None);
        assert!(cands.is_empty());
        assert_eq!(stats, QueryStats::default());
        idx.seal();
        idx.compact();
        assert!(idx.is_empty());
        // Remove everything ever inserted: compaction drops the segment.
        let id = idx.insert(&q).unwrap();
        idx.seal();
        idx.remove(id).unwrap();
        idx.compact();
        assert_eq!(idx.sealed_segments(), 0);
        assert_eq!(idx.id_bound(), 1);
    }

    #[test]
    #[should_panic(expected = "sized for a different index")]
    fn stale_scratch_after_insert_rejected() {
        let d = 32;
        let mut idx = DynamicIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            2,
            &mut seeded(0xE6),
        );
        let q = BitVector::random(&mut seeded(0xE7), d);
        let mut scratch = idx.new_scratch();
        idx.insert(&q).unwrap();
        let _ = idx.candidates_with(&q, None, &mut scratch);
    }

    #[test]
    fn remove_of_unknown_id_is_a_recoverable_error() {
        let d = 32;
        let mut idx = DynamicIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            2,
            &mut seeded(0xE8),
        );
        assert_eq!(
            idx.remove(0),
            Err(WriteError::UnknownId { id: 0, bound: 0 })
        );
        // The rejected write leaves the index fully usable.
        let q = BitVector::random(&mut seeded(0xE8), d);
        let id = idx.insert(&q).unwrap();
        assert_eq!(idx.remove(id), Ok(true));
        assert_eq!(
            idx.remove(id + 1),
            Err(WriteError::UnknownId { id: 1, bound: 1 })
        );
    }

    /// A test-only store that reports an inflated length without holding
    /// rows — the only practical way to park an index at the u32 id-space
    /// boundary without materializing 4B rows. It claims emptiness so the
    /// bulk build doesn't hash its phantom rows; every row reads as one
    /// zero block (enough for a `d <= 64` bit family).
    #[derive(Clone)]
    struct FakeHugeStore {
        claimed: usize,
    }

    impl dsh_core::points::PointStore for FakeHugeStore {
        type Row = [u64];

        fn len(&self) -> usize {
            self.claimed
        }

        fn is_empty(&self) -> bool {
            true // skip the bulk build over phantom rows
        }

        fn row(&self, _i: usize) -> &[u64] {
            &[0]
        }
    }

    impl AppendStore for FakeHugeStore {
        fn push_row(&mut self, _row: &[u64]) {
            self.claimed += 1;
        }

        fn empty_like(&self) -> Self {
            FakeHugeStore { claimed: 0 }
        }
    }

    /// The unified capacity bound at the exact boundary: an index may
    /// fill the id space to `MAX_POINTS`, and the first write past it is
    /// rejected — identically for `insert` and `apply_batch`.
    #[test]
    fn capacity_boundary_is_shared_by_both_insert_entry_points() {
        let pairs = vec![BitSampling::new(64).sample(&mut seeded(0xEF))];
        let row: &[u64] = &[];
        let staged = |idx: &DynamicIndex<FakeHugeStore>, inserts: usize| {
            let mut batch = idx.new_batch();
            for _ in 0..inserts {
                batch.insert(row);
            }
            batch
        };
        // One shy of the cap: exactly one more insert fits.
        let mut idx = DynamicIndex::with_pairs(
            pairs.clone(),
            FakeHugeStore {
                claimed: MAX_POINTS - 1,
            },
            1,
        );
        assert_eq!(idx.insert(row), Ok(MAX_POINTS - 1));
        assert_eq!(
            idx.insert(row),
            Err(WriteError::CapacityExceeded {
                id_bound: MAX_POINTS,
                additional: 1
            })
        );
        assert_eq!(
            idx.apply_batch(&staged(&idx, 2)),
            Err(BatchError::CapacityExceeded { op_index: 0 })
        );
        assert_eq!(idx.apply_batch(&staged(&idx, 0)), Ok(Vec::new()));
        // apply_batch admits a batch landing exactly on the bound …
        let mut idx = DynamicIndex::with_pairs(
            pairs.clone(),
            FakeHugeStore {
                claimed: MAX_POINTS - 2,
            },
            1,
        );
        assert_eq!(
            idx.apply_batch(&staged(&idx, 2)),
            Ok(vec![
                WriteOutcome::Inserted(MAX_POINTS - 2),
                WriteOutcome::Inserted(MAX_POINTS - 1)
            ])
        );
        // … and the bulk build accepts the same count apply_batch does.
        let idx = DynamicIndex::with_pairs(
            pairs,
            FakeHugeStore {
                claimed: MAX_POINTS,
            },
            1,
        );
        assert_eq!(idx.id_bound(), MAX_POINTS);
    }

    /// `apply_batch` equals the per-op replay bit-for-bit; an invalid
    /// batch is rejected wholly, leaving the index untouched.
    #[test]
    fn apply_batch_matches_per_op_replay() {
        let d = 64;
        let points = dataset(0xE9, d, 30);
        let queries = dataset(0xEA, d, 6);
        let mut batched = DynamicIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            6,
            &mut seeded(0xEB),
        );
        let mut per_op = DynamicIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            6,
            &mut seeded(0xEB),
        );
        let mut batch = batched.new_batch();
        for p in &points[..12] {
            batch.insert(p);
        }
        batch.remove(4); // id assigned within this very batch
        batch.remove(4); // double-remove: outcome false
        for p in &points[12..] {
            batch.insert(p);
        }
        let outcomes = batched.apply_batch(&batch).expect("valid batch");

        let mut want = Vec::new();
        for p in &points[..12] {
            want.push(crate::WriteOutcome::Inserted(per_op.insert(p).unwrap()));
        }
        want.push(crate::WriteOutcome::Removed(per_op.remove(4).unwrap()));
        want.push(crate::WriteOutcome::Removed(per_op.remove(4).unwrap()));
        for p in &points[12..] {
            want.push(crate::WriteOutcome::Inserted(per_op.insert(p).unwrap()));
        }
        assert_eq!(outcomes, want);
        for q in &queries {
            assert_eq!(per_op.candidates(q, None), batched.candidates(q, None));
        }

        // Rejection path: nothing — not even the leading inserts — lands.
        let bound = batched.id_bound();
        let mut bad = batched.new_batch();
        bad.insert(&points[0]);
        bad.remove(bound + 1); // one past the running bound
        let err = batched.apply_batch(&bad).unwrap_err();
        assert_eq!(
            err,
            crate::BatchError::UnknownId {
                op_index: 1,
                id: bound + 1,
                bound: bound + 1
            }
        );
        assert_eq!(batched.id_bound(), bound, "partial application leaked");
        for q in &queries {
            assert_eq!(per_op.candidates(q, None), batched.candidates(q, None));
        }
    }
}
