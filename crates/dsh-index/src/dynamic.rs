//! Mutable segmented index: online insert/delete over the CSR substrate,
//! owned by one thread.
//!
//! [`DynamicIndex`] is the **one-shard, unpublished** case of the
//! segmented state in [`crate::shard`]: sealed CSR segments, a `HashMap`
//! delta segment and tombstones over one appendable store, read through
//! the one [`Snapshot`] walk a [`crate::ShardedIndex`] serves from and a
//! [`crate::HashTableIndex`] freezes (the
//! layout, the re-hash-free compaction and the exactness argument are in
//! that module's docs). What this type adds is ownership: it holds a
//! snapshot nobody else does, so the copy-on-write mutators behind every
//! write find the state unshared and change it **in place** — one row
//! append plus `L` hash evaluations per insert, nothing copied, nothing
//! published.
//!
//! Point ids are global, stable handles (`insert` returns the id,
//! `remove` takes it) that survive every [`DynamicIndex::seal`] and
//! [`DynamicIndex::compact`]. An index grown by inserts and then
//! compacted holds the one-segment state a static
//! [`crate::HashTableIndex`] built from the same seed over the same
//! final point set freezes, so it answers every query — ids, order, and
//! [`crate::QueryStats`] — bit-identically, on every store backend and
//! thread count (pinned by the write-path harness,
//! `tests/common/harness.rs`, which `tests/dynamic_parity.rs` runs,
//! against the structure's definition as well as the rebuild).

use crate::batch::{
    ensure_capacity, ensure_known, BatchError, WriteBatch, WriteError, WriteOutcome,
};
use crate::parallel;
use crate::shard::Snapshot;
use dsh_core::family::DshFamily;
use dsh_core::points::{AsRow, PointStore};
use rand::Rng;
use std::borrow::Borrow;
use std::ops::Deref;
use std::sync::Arc;

/// Bitset over point ids marking removed points (one per shard of the
/// segmented state, and one in the dynamic [`crate::LinearScan`]
/// baseline).
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
/// segment without re-hashing). It dereferences to its [`Snapshot`], so
/// every read — [`Snapshot::candidates`], [`Snapshot::len`], a front-end
/// over the index as its backend — is the sharded serving layer's one
/// walk at one shard: queries fan out across all segments per table,
/// deduplicate through the generation-stamped [`crate::QueryScratch`],
/// and skip tombstoned ids. Through the deref, [`Snapshot::num_shards`]
/// is 1 and [`Snapshot::epoch`] stays 0 (nothing is ever published).
///
/// `idx.clone()` — and `(*idx).clone()`, the same state as a bare
/// [`Snapshot`] — is a reference-count bump that keeps answering from the
/// state it was taken at; the first write to either side afterwards
/// forks what it touches instead of writing in place.
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
#[derive(Clone)]
pub struct DynamicIndex<S: PointStore> {
    current: Snapshot<S>,
}

impl<S: PointStore> DynamicIndex<S> {
    /// Build with `l` independently sampled `(h, g)` pairs over an initial
    /// point set (which may be empty — the "start from nothing" case).
    /// Non-empty initial points become the first sealed segment, built in
    /// parallel by the one builder [`crate::HashTableIndex::build`] also
    /// runs; the RNG stream consumed is identical, so a dynamic and a
    /// static index built from the same seed share their hash functions.
    /// The store is wrapped, not copied.
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
        DynamicIndex {
            current: Snapshot::build(family, vec![Arc::new(points)], l, rng, threads),
        }
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
        ensure_capacity(self.id_bound(), 1)?;
        Ok(self.current.insert_row(p.as_row()))
    }

    /// Remove point `id`: sets its tombstone bit, so candidate collection
    /// skips it immediately; the bucket entries (and the stored row) are
    /// reclaimed by the next [`DynamicIndex::compact`]. Returns
    /// `Ok(false)` when `id` was already removed, and rejects an id that
    /// was never assigned with [`WriteError::UnknownId`] — the same
    /// surface the group-commit path reports per batch.
    pub fn remove(&mut self, id: usize) -> Result<bool, WriteError> {
        ensure_known(id, self.id_bound())?;
        Ok(self.current.remove(id))
    }

    /// An empty [`WriteBatch`] staging rows of this index's shape, for
    /// [`DynamicIndex::apply_batch`].
    pub fn new_batch(&self) -> WriteBatch<S> {
        self.current.new_batch()
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
        BS: PointStore<Row = S::Row>,
    {
        batch.validate(self.id_bound())?;
        Ok(self.current.apply_validated(batch))
    }

    /// Freeze the delta segment into a new sealed CSR segment (tombstoned
    /// ids are dropped on the way). Sealing bounds the `HashMap` probe
    /// cost of a hot write head without paying a full merge; a no-op when
    /// the delta holds no rows. The per-table sort-and-sweeps fan out
    /// across [`parallel::available_threads`] workers, like
    /// [`DynamicIndex::compact`].
    pub fn seal(&mut self) {
        self.current.seal();
    }

    /// Merge every sealed segment and the delta into one fresh sealed
    /// segment, dropping tombstoned ids from the bucket layout, with no
    /// hash function re-evaluated (see the [`crate::shard`] module docs).
    /// Afterwards the index probes one segment per table — the exact
    /// layout a static build over the live point set would produce.
    pub fn compact(&mut self) {
        self.compact_with_threads(parallel::available_threads());
    }

    /// [`DynamicIndex::compact`] with an explicit worker-thread count
    /// (the resulting layout does not depend on it).
    pub fn compact_with_threads(&mut self, threads: usize) {
        self.current.compact(threads);
    }
}

/// Every read of the index is the same call on its [`Snapshot`].
impl<S: PointStore> Deref for DynamicIndex<S> {
    type Target = Snapshot<S>;

    fn deref(&self) -> &Snapshot<S> {
        &self.current
    }
}

impl<S: PointStore> Borrow<Snapshot<S>> for DynamicIndex<S> {
    fn borrow(&self) -> &Snapshot<S> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::MAX_POINTS;
    use crate::table::{HashTableIndex, QueryStats};
    use dsh_core::points::{BitMetric, BitStore, BitVector, Measures};
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
        let queries = BitStore::from(dataset(0xDF, d, 21));
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
            let sequential: Vec<_> = queries.rows().map(|q| idx.candidates(q, limit)).collect();
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
    fn scratch_taken_before_inserts_answers_like_a_fresh_one() {
        // One scratch, taken before any insert, alternates between a
        // growing index and a larger static one for more queries than
        // the u8 generation space, answering exactly as a fresh scratch.
        let d = 32;
        let points = dataset(0xE7, d, 150);
        let mut idx = DynamicIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            2,
            &mut seeded(0xE6),
        );
        let other = HashTableIndex::build(
            &BitSampling::new(d),
            store_of(&points, d),
            3,
            &mut seeded(0xE9),
        );
        let mut scratch = idx.new_scratch();
        for (i, p) in points.iter().enumerate() {
            idx.insert(p).unwrap();
            let q = &points[i * 7 % points.len()];
            let reused = idx.candidates_with(q, None, &mut scratch);
            assert_eq!(reused, idx.candidates(q, None), "after insert {i}");
            let reused = other.candidates_with(q, None, &mut scratch);
            assert_eq!(
                reused,
                other.candidates(q, None),
                "static, after insert {i}"
            );
        }
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

    impl PointStore for FakeHugeStore {
        type Row = [u64];
        type Metric = BitMetric;

        fn len(&self) -> usize {
            self.claimed
        }

        fn is_empty(&self) -> bool {
            true // skip the bulk build over phantom rows
        }

        fn row(&self, _i: usize) -> &[u64] {
            &[0]
        }

        fn measure(metric: &BitMetric, x: &[u64], y: &[u64]) -> f64 {
            BitStore::measure(metric, x, y)
        }

        fn measure_many(&self, metric: &BitMetric, ids: &[usize], q: &[u64], out: &mut Measures) {
            out.values
                .extend(ids.iter().map(|&i| Self::measure(metric, self.row(i), q)));
        }

        fn push_row(&mut self, _row: &[u64]) {
            self.claimed += 1;
        }

        fn reserve_rows(&mut self, _additional: usize) {}

        fn empty_like(&self) -> Self {
            FakeHugeStore { claimed: 0 }
        }
    }

    /// The unified capacity bound at the exact boundary: an index may
    /// fill the id space to `MAX_POINTS`, and the first write past it is
    /// rejected — identically for `insert` and `apply_batch`.
    #[test]
    fn capacity_boundary_is_shared_by_both_insert_entry_points() {
        let parked = |claimed: usize| {
            let store = FakeHugeStore { claimed };
            DynamicIndex::build_with_threads(&BitSampling::new(64), store, 1, &mut seeded(0xEF), 1)
        };
        let row: &[u64] = &[];
        let staged = |idx: &DynamicIndex<FakeHugeStore>, inserts: usize| {
            let mut batch = idx.new_batch();
            for _ in 0..inserts {
                batch.insert(row);
            }
            batch
        };
        // One shy of the cap: exactly one more insert fits.
        let mut idx = parked(MAX_POINTS - 1);
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
        let mut idx = parked(MAX_POINTS - 2);
        assert_eq!(
            idx.apply_batch(&staged(&idx, 2)),
            Ok(vec![
                WriteOutcome::Inserted(MAX_POINTS - 2),
                WriteOutcome::Inserted(MAX_POINTS - 1)
            ])
        );
        // … and the bulk build accepts the same count apply_batch does.
        let idx = parked(MAX_POINTS);
        assert_eq!(idx.id_bound(), MAX_POINTS);
    }

    /// A clone and a bare `Snapshot` of a `DynamicIndex` are `Arc` bumps
    /// that stay frozen at the state they were taken at, while the
    /// original moves on exactly like an index that was never cloned. A
    /// write to an unshared index lands in place; the first write after
    /// a clone forks what it touches (copy-on-write).
    #[test]
    fn clones_and_snapshots_stay_frozen_while_the_original_writes_in_place() {
        let d = 64;
        let points = dataset(0xF0, d, 60);
        let queries = dataset(0xF1, d, 6);
        let build = || {
            let mut idx = DynamicIndex::build(
                &BitSampling::new(d),
                store_of(&points[..20], d),
                6,
                &mut seeded(0xF2),
            );
            for p in &points[20..30] {
                idx.insert(p).unwrap();
            }
            idx
        };
        let view = |s: &Snapshot<BitStore>| {
            (
                queries
                    .iter()
                    .map(|q| s.candidates(q, None))
                    .collect::<Vec<_>>(),
                s.len(),
                s.live_ids().collect::<Vec<_>>(),
                s.delta_rows(),
                s.sealed_segments(),
            )
        };
        let (mut idx, mut never_cloned) = (build(), build());
        let mut batch = idx.new_batch();
        for p in &points[40..50] {
            batch.insert(p);
        }
        batch.remove(33); // an id this batch assigns
        let write = |verb: &str, i: &mut DynamicIndex<BitStore>| match verb {
            "insert" => drop(i.insert(&points[30]).unwrap()),
            "remove" => assert!(i.remove(3).unwrap()),
            "apply_batch" => drop(i.apply_batch(&batch).unwrap()),
            "seal" => i.seal(),
            "compact" => i.compact(),
            _ => unreachable!(),
        };
        for name in ["insert", "remove", "apply_batch", "seal", "compact"] {
            // Shared: both copies are the original's allocation …
            let (clone, snapshot) = (idx.clone(), (*idx).clone());
            let before = idx.allocations();
            assert_eq!(clone.allocations(), before, "{name}: clone copied");
            assert_eq!(snapshot.allocations(), before, "{name}: snapshot copied");
            let frozen = view(&idx);
            // … so the write forks the state and the shard it touches …
            write(name, &mut idx);
            write(name, &mut never_cloned);
            let forked = idx.allocations();
            assert!(
                forked[0] != before[0] && forked[1] != before[1],
                "{name}: wrote through a shared state"
            );
            // … leaving both copies where, and what, they were.
            assert_eq!(clone.allocations(), before, "{name}");
            assert_eq!(view(&clone), frozen, "{name}: clone moved");
            assert_eq!(view(&snapshot), frozen, "{name}: snapshot moved");
            assert_ne!(view(&idx), frozen, "{name}: write changed nothing");
            assert_eq!(view(&idx), view(&never_cloned), "{name}");
        }
        // Unshared again: insert, remove, batch and seal write in place.
        // (Compaction rebuilds the shard off to the side either way; the
        // state stays put.)
        let unshared = idx.allocations();
        idx.insert(&points[31]).unwrap();
        assert!(idx.remove(5).unwrap());
        let mut batch = idx.new_batch();
        batch.insert(&points[32]);
        batch.remove(6);
        idx.apply_batch(&batch).unwrap();
        idx.seal();
        assert_eq!(idx.allocations(), unshared, "an unshared write copied");
        idx.compact();
        assert_eq!(idx.allocations()[0], unshared[0]);
        // No-op writes touch nothing, shared or not.
        let clone = idx.clone();
        assert!(!idx.remove(5).unwrap());
        idx.seal();
        assert_eq!(idx.apply_batch(&idx.new_batch()), Ok(Vec::new()));
        assert_eq!(idx.allocations(), clone.allocations());
        assert_eq!((idx.epoch(), idx.num_shards()), (0, 1));
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
