//! The segmented index state, its one read path, and the sharded
//! concurrent serving layer that publishes it: snapshot reads under live
//! writes.
//!
//! Serving a live workload means ingesting and retiring points without a
//! full `O(n · L · k)` re-hash per change, and answering queries *while*
//! that happens. One state type does both and also serves the build-once
//! case, and three owners wrap it:
//!
//! * points are partitioned across `N` **shards** by the stable mapping
//!   `shard = id % N` (ids are assigned in insertion order). Each shard is
//!   an LSM-style segmented layout over the flat CSR storage: a list of
//!   **sealed segments** (one immutable CSR bucket table per
//!   repetition), one mutable **delta segment** (per-table
//!   `HashMap<u64, Vec<u32>>` buckets absorbing inserts at `L` hash
//!   evaluations per point), a **tombstone** bitset of removed ids, and
//!   its rows in a snapshot-friendly [`ChunkedStore`]. The `L` sampled
//!   `(h, g)` pairs live once on the state, shared by every shard;
//! * the whole state is a **value** behind an [`Arc`] — a [`Snapshot`] —
//!   written copy-on-write through [`Arc::make_mut`]: in place when the
//!   writer is the only holder, and otherwise forking only what the
//!   write touches (the written shard's delta, store tail and
//!   tombstones; sealed segments and frozen store chunks are shared by
//!   reference count);
//! * [`crate::HashTableIndex`] owns a **frozen** one-shard snapshot —
//!   one sealed segment, no delta, no tombstones — that nothing writes;
//!   [`crate::DynamicIndex`] owns a **one-shard** snapshot nobody else
//!   holds, so its writes land in place; [`ShardedIndex`] owns an
//!   `N`-shard one that readers share, so each of its writes (`&mut
//!   self`) is one transaction that forks the state and, iff it changed
//!   anything, publishes the fork with one `Arc` swap into an
//!   epoch-stamped cell;
//! * readers never block: [`ShardedIndex::reader`] (or a cloneable
//!   [`ReaderHandle`], for reader threads that outlive the writer borrow)
//!   hands out an immutable [`Snapshot`] that keeps answering from its
//!   frozen state no matter what writers do afterwards. Acquisition is a
//!   reference-count bump behind a briefly-held lock — it stays O(1)
//!   even while a compaction is running, because
//!   [`ShardedIndex::compact`] builds the new segment set on scoped
//!   worker threads *off* the publication path and swaps it in atomically
//!   at the end.
//!
//! # Compaction without re-hashing
//!
//! Compaction merges a shard's sealed segments and delta into one fresh
//! sealed segment, dropping tombstoned ids. A segment's CSR directory
//! already stores every id's hash key, so the merge recovers `(key, id)`
//! pairs by walking directories (and the delta maps) instead of
//! re-evaluating `L` width-`k` hash functions per row — a sort-and-sweep
//! over existing keys, parallelized across the `L` tables like the static
//! build. Sealing is the same sweep over the delta alone.
//!
//! # Exactness
//!
//! There is one walk ([`Snapshot`]'s), so every shard count answers
//! bit-identically (ids, order, full [`QueryStats`]) at *any*
//! insert/remove/seal/compact interleaving point, and — after a
//! compaction — bit-identically to a fresh one-segment build (a static
//! [`crate::HashTableIndex`]) from the same seed over the live rows.
//! Three properties make that work:
//!
//! 1. every build samples the `L` pairs sequentially from the caller's
//!    RNG through the one `Snapshot::build`, the bulk build and
//!    compaction end in the same per-table builder, and the sorted
//!    `(key, id)` sweep produces the layout a fresh build's sort produces;
//! 2. the walk merges each logical bucket's per-shard entries in
//!    ascending **global id** order. Per-shard buckets hold ascending
//!    local ids, and `global = local * N + shard` is monotone per shard,
//!    so the k-way merge reproduces the one-shard CSR bucket exactly —
//!    including where a retrieval limit truncates;
//! 3. a **logical segment map** aligns shard segments with the segments
//!    a one-shard index driven through the same schedule would hold
//!    (a shard whose delta had no live rows at `seal` time contributes no
//!    physical segment, but the logical segment still exists if any shard
//!    sealed one), so `tables_probed` counts logical probes.
//!
//! `distinct_candidates` is computed once per query from the deduplicated
//! output, per the [`QueryStats::merge`] rule. The write-path harness
//! (`tests/common/harness.rs`, run by `tests/dynamic_parity.rs` and
//! `tests/shard_parity.rs`) pins all of this — generated schedules, a
//! model of every op's outcome and epoch, 1, 2 and 8 shards against each
//! other and against the static rebuild, which itself faces the
//! structure's definition computed straight from the hashers — and
//! `tests/shard_concurrency.rs` is the concurrency soak (snapshots held
//! across concurrent writes keep answering from their frozen state).

use crate::batch::{
    ensure_capacity, ensure_known, BatchError, BatchOp, WriteBatch, WriteError, WriteOutcome,
    MAX_POINTS,
};
use crate::dynamic::Tombstones;
use crate::parallel;
use crate::table::{hash_store, CsrBuckets, QueryScratch, QueryStats, Visited, STAMP_AHEAD};
use dsh_core::family::{DshFamily, HasherPair};
use dsh_core::points::{AsRow, ChunkedStore, PointStore};
use rand::Rng;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::{Arc, RwLock};

pub use txn::ReaderHandle;

/// Minimum queries per worker in the batched query paths: a worker costs
/// a thread spawn plus one O(n) scratch allocation, which a single cheap
/// query does not amortize.
const MIN_QUERIES_PER_WORKER: usize = 8;

/// Rows a batched-query worker hashes together.
const QUERY_BLOCK: usize = 64;

/// Tables whose bucket lookups the walk overlaps (group prefetching
/// across the `L` independent probes): enough misses in flight to hide
/// most of one lookup's dependent chain, few enough that a limited
/// query stopping in the first table wastes little hashing.
const PROBE_WINDOW: usize = 8;

/// One batched-query worker's state in [`Snapshot::map_rows_blocked`]:
/// its scratch and its current block of query rows, whose probe keys are
/// filled lazily a table at a time.
struct BlockState<'q, R: ?Sized> {
    scratch: QueryScratch,
    /// `L x QUERY_BLOCK` keys, table-major, so the rows `r..` of one
    /// table are one slice.
    keys: Vec<u64>,
    /// Per table: are the block's keys hashed yet?
    hashed: Vec<bool>,
    rows: Vec<&'q R>,
    /// The index of `rows[0]`, and one past the worker's last index.
    start: usize,
    end: usize,
}

/// One immutable segment: a CSR bucket table per repetition, all covering
/// the same id set. Shared behind [`Arc`] so that forking a shard bumps a
/// reference count instead of copying bucket arrays.
struct SealedSegment {
    tables: Vec<CsrBuckets>,
}

impl SealedSegment {
    /// The segment over `tables`, unless they index no id at all.
    fn non_empty(tables: Vec<CsrBuckets>) -> Option<Arc<Self>> {
        (tables.first().map_or(0, CsrBuckets::num_ids) > 0)
            .then(|| Arc::new(SealedSegment { tables }))
    }
}

/// The hasher of the delta's bucket maps. Their keys are already 64-bit
/// hash values, so one folded multiply (both halves of the 128-bit
/// product, so high and low key bits reach the bits the map reads)
/// replaces SipHash on every delta probe and insert. Only
/// [`Shard::merged_tables`] iterates the maps, and it sorts, so the
/// iteration order this changes reaches no layout.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write_u64(&mut self, key: u64) {
        let p = u128::from(self.0 ^ key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = p as u64 ^ (p >> 64) as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One delta table: bucket key to the ids filed under it.
type DeltaTable = HashMap<u64, Vec<u32>, BuildHasherDefault<KeyHasher>>;

/// The mutable write head: `HashMap` buckets per repetition, absorbing
/// inserts until the segment is sealed or compacted away.
#[derive(Clone)]
struct DeltaSegment {
    tables: Vec<DeltaTable>,
    rows: usize,
}

impl DeltaSegment {
    fn new(l: usize) -> Self {
        DeltaSegment {
            tables: (0..l).map(|_| DeltaTable::default()).collect(),
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

/// One shard's partition of the index — the points with `id % N ==
/// shard`, under local ids `id / N`: sealed segments, delta, rows and
/// tombstones. It holds no hash functions and has no read path of its
/// own; the state that owns it hashes and walks.
#[derive(Clone)]
struct Shard<S> {
    sealed: Vec<Arc<SealedSegment>>,
    delta: DeltaSegment,
    store: ChunkedStore<S>,
    tombstones: Tombstones,
}

impl<S: PointStore> Shard<S> {
    /// Index `points` as the first sealed segment (none when empty), one
    /// table per worker item. The store is shared, not copied.
    fn build(pairs: &[HasherPair<S::Row>], points: Arc<S>, threads: usize) -> Self {
        let sealed = if points.is_empty() {
            Vec::new()
        } else {
            let tables = parallel::map_items(pairs, threads, |_, pair| {
                CsrBuckets::build(&hash_store(&*pair.data, &*points))
            });
            vec![Arc::new(SealedSegment { tables })]
        };
        Shard {
            sealed,
            delta: DeltaSegment::new(pairs.len()),
            store: ChunkedStore::from_store(points),
            tombstones: Tombstones::new(),
        }
    }

    /// Append `row` and file it in the delta under each table's `h`;
    /// returns its local id. One row append plus `L` hash evaluations.
    fn insert_row(&mut self, pairs: &[HasherPair<S::Row>], row: &S::Row) -> usize {
        let local = self.store.len();
        self.store.push_row(row);
        let row = self.store.row(local);
        for (pair, table) in pairs.iter().zip(&mut self.delta.tables) {
            table
                .entry(pair.data.hash(row))
                .or_default()
                .push(local as u32);
        }
        self.delta.rows += 1;
        local
    }

    /// One CSR table per repetition over the live entries of `sealed`
    /// and the delta. No hash function is re-evaluated: `(key, id)` pairs
    /// come from the segment directories and delta maps, rebuilt with the
    /// static builder's sort-and-sweep, one table per work item.
    fn merged_tables(&self, sealed: &[Arc<SealedSegment>], threads: usize) -> Vec<CsrBuckets> {
        let table_ids: Vec<usize> = (0..self.delta.tables.len()).collect();
        parallel::map_items(&table_ids, threads, |_, &j| {
            let mut pairs: Vec<(u64, u32)> = Vec::new();
            let mut keep = |key: u64, ids: &[u32]| {
                pairs.extend(
                    ids.iter()
                        .filter(|&&i| !self.tombstones.is_dead(i as usize))
                        .map(|&i| (key, i)),
                );
            };
            for seg in sealed {
                for (key, ids) in seg.tables[j].entries() {
                    keep(key, ids);
                }
            }
            for (&key, ids) in &self.delta.tables[j] {
                keep(key, ids);
            }
            CsrBuckets::build_from_pairs(pairs)
        })
    }

    /// Freeze the delta into a new sealed segment (none when every row
    /// in it is tombstoned), retiring the store's write head with it so
    /// later forks share those rows instead of copying them.
    fn seal(&mut self) {
        let tables = self.merged_tables(&[], parallel::available_threads());
        self.sealed.extend(SealedSegment::non_empty(tables));
        self.delta.clear();
        self.store.freeze_tail();
    }

    /// This shard merged down to at most one sealed segment, tombstoned
    /// ids dropped from the bucket layout and the rows consolidated into
    /// one chunk — the layout a static build over the live points has.
    fn compacted(&self, threads: usize) -> Self {
        let tables = self.merged_tables(&self.sealed, threads);
        let mut store = self.store.clone();
        store.consolidate();
        Shard {
            sealed: SealedSegment::non_empty(tables).into_iter().collect(),
            delta: DeltaSegment::new(self.delta.tables.len()),
            store,
            tombstones: self.tombstones.clone(),
        }
    }
}

/// The plain data of a segmented index at one epoch: the shared hash
/// functions, the shards, and the logical-segment alignment map. Writers
/// reach it through [`Arc::make_mut`]; every read goes through the
/// [`Snapshot`] that owns it.
struct ShardedState<S: PointStore> {
    /// The `L` sampled `(h, g)` pairs, in repetition order.
    pairs: Arc<[HasherPair<S::Row>]>,
    shards: Vec<Arc<Shard<S>>>,
    /// One entry per **logical** sealed segment (the segment a one-shard
    /// index driven through the same schedule would hold), mapping each
    /// shard to its physical segment index — `None` when that shard
    /// contributed no live rows at the corresponding seal.
    segments: Vec<Vec<Option<usize>>>,
    /// One past the largest global id ever assigned.
    total_rows: usize,
    /// Number of publications since the build (see [`Snapshot::epoch`]).
    epoch: u64,
}

// Manual impl: the builtin derive would also demand `S::Row: Clone`,
// which unsized rows like `[u64]` cannot satisfy.
impl<S: PointStore> Clone for ShardedState<S> {
    fn clone(&self) -> Self {
        ShardedState {
            pairs: Arc::clone(&self.pairs),
            shards: self.shards.clone(),
            segments: self.segments.clone(),
            total_rows: self.total_rows,
            epoch: self.epoch,
        }
    }
}

/// The logical segment map of a layout with at most one sealed segment
/// per shard (initial bulk build, or right after a compaction).
fn single_segment_map<S>(shards: &[Arc<Shard<S>>]) -> Vec<Vec<Option<usize>>> {
    let map: Vec<_> = shards
        .iter()
        .map(|sh| (!sh.sealed.is_empty()).then_some(0))
        .collect();
    if map.iter().any(Option::is_some) {
        vec![map]
    } else {
        Vec::new()
    }
}

/// A segmented index at one point in time, and the one owner of the read
/// path: [`crate::DynamicIndex`] and [`ShardedIndex`] both answer every
/// read through the snapshot they currently hold.
///
/// Holding a snapshot never blocks writers, and no writer activity —
/// inserts, removals, seals, compactions — changes what it answers: its
/// candidate lists, stats, live-id set, and rows are frozen at
/// acquisition time. Cloning is a reference-count bump.
#[derive(Clone)]
pub struct Snapshot<S: PointStore> {
    state: Arc<ShardedState<S>>,
}

impl<S: PointStore> Snapshot<S> {
    /// The one constructor: sample `l` `(h, g)` pairs sequentially from
    /// `rng` and bulk-build one shard over each store of `rows` (shard `s`
    /// holding the points with global id `local * rows.len() + s`), each
    /// store becoming its shard's first frozen chunk without a copy.
    pub(crate) fn build(
        family: &(impl DshFamily<S::Row> + ?Sized),
        rows: Vec<Arc<S>>,
        l: usize,
        rng: &mut dyn Rng,
        threads: usize,
    ) -> Self {
        // lint: allow(panic) — build-time parameter validation, not on the query path
        assert!(l >= 1, "need at least one repetition");
        let total_rows = rows.iter().map(|points| points.len()).sum();
        // lint: allow(panic) — build-time capacity check, not on the query path
        assert!(
            total_rows <= MAX_POINTS,
            "point count exceeds the u32 point-id capacity"
        );
        let pairs: Arc<[HasherPair<S::Row>]> = (0..l).map(|_| family.sample(rng)).collect();
        let shards: Vec<_> = rows
            .into_iter()
            .map(|points| Arc::new(Shard::build(&pairs, points, threads)))
            .collect();
        Snapshot {
            state: Arc::new(ShardedState {
                segments: single_segment_map(&shards),
                pairs,
                shards,
                total_rows,
                epoch: 0,
            }),
        }
    }

    /// The publication epoch this snapshot was taken at: the number of
    /// state-changing writes a [`ShardedIndex`] published before it.
    /// Always 0 on a [`crate::DynamicIndex`], which publishes nothing.
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// Number of shards (1 on a [`crate::DynamicIndex`]).
    pub fn num_shards(&self) -> usize {
        self.state.shards.len()
    }

    /// Number of repetitions `L`.
    pub fn repetitions(&self) -> usize {
        self.state.pairs.len()
    }

    /// Number of **live** points (inserted and not removed).
    pub fn len(&self) -> usize {
        self.id_bound() - self.removed()
    }

    /// True when no live points are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One past the largest id ever assigned (the id-space size; removed
    /// ids keep their slot, so this only grows).
    pub fn id_bound(&self) -> usize {
        self.state.total_rows
    }

    /// Number of removed (tombstoned) ids.
    pub fn removed(&self) -> usize {
        self.shards().map(|sh| sh.tombstones.dead()).sum()
    }

    /// Number of points sitting in the mutable delta segments.
    pub fn delta_rows(&self) -> usize {
        self.shards().map(|sh| sh.delta.rows).sum()
    }

    /// Number of **logical** sealed segments probed per table (what a
    /// one-shard index driven through the same schedule holds).
    pub fn sealed_segments(&self) -> usize {
        self.state.segments.len()
    }

    /// Whether `id` has been inserted and not removed.
    pub fn is_live(&self, id: usize) -> bool {
        let n = self.num_shards();
        id < self.state.total_rows && !self.state.shards[id % n].tombstones.is_dead(id / n)
    }

    /// Iterate over the live ids in increasing order.
    pub fn live_ids(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.state.total_rows).filter(|&id| self.is_live(id))
    }

    /// Borrow the row of point `id` (rows remain addressable after
    /// removal; stores are append-only).
    pub fn point(&self, id: usize) -> &S::Row {
        let n = self.num_shards();
        self.state.shards[id % n].store.row(id / n)
    }

    /// The rows of shard `s`, by shard-local id.
    pub(crate) fn shard_rows(&self, s: usize) -> &ChunkedStore<S> {
        &self.state.shards[s].store
    }

    fn shards(&self) -> impl Iterator<Item = &Shard<S>> {
        self.state.shards.iter().map(|sh| &**sh)
    }

    /// An empty [`WriteBatch`] staging rows of this index's shape.
    pub(crate) fn new_batch(&self) -> WriteBatch<S> {
        WriteBatch::new(self.state.shards[0].store.shape())
    }

    /// A query scratch buffer sized for the **current** id space. Any
    /// scratch serves any snapshot — one taken before inserts, or from
    /// another index, is grown to the id space by the query that uses
    /// it — so this only saves that first query the growth.
    pub fn new_scratch(&self) -> QueryScratch {
        QueryScratch::new(self.state.total_rows)
    }

    /// The one walk: tables outermost, then the logical segments in
    /// creation order, then the delta, stopping once `retrieval_limit`
    /// entries have been pulled or `stop` says so. After each table whose
    /// probes all ran, `stop` sees the distinct candidates found so far
    /// (the previous call's list is a prefix); `true` ends the walk there,
    /// so the stats count the work up to the end of that table.
    ///
    /// Tables are probed in windows of [`PROBE_WINDOW`]: the window's
    /// keys are taken, then each stage of every sealed bucket lookup in
    /// the window runs before the next stage of any (see
    /// [`CsrBuckets::prefetch_slot`]), and only then is the window
    /// consumed table by table. Table `j`'s probe key is `key_of(j)`,
    /// asked for only once the walk reaches the window holding table
    /// `j`, so a query that stops early, at the limit or at `stop`,
    /// never pays for later windows' keys (it does pay for the rest of
    /// its last window). The closures are `dyn` so that the walk is
    /// compiled once, whoever feeds it keys: generic over the key
    /// closure, it read ~1 us slower on the gate's single-row wire path.
    pub(crate) fn candidates_row(
        &self,
        key_of: &mut dyn FnMut(usize) -> u64,
        retrieval_limit: Option<usize>,
        visited: &mut Visited,
        stop: &mut dyn FnMut(&[usize]) -> bool,
    ) -> (Vec<usize>, QueryStats) {
        let state = &*self.state;
        let generation = visited.begin(state.total_rows);
        let limit = retrieval_limit.unwrap_or(usize::MAX);
        let mut stats = QueryStats::default();
        let mut out = Vec::new();
        // One table's sealed probes in walk order, as (shard, segment);
        // logical segment `i`'s probes end at `seg_ends[i]`.
        let mut sealed: Vec<(usize, &SealedSegment)> = Vec::new();
        let mut seg_ends = Vec::with_capacity(state.segments.len());
        for map in &state.segments {
            for (s, (shard, phys)) in self.shards().zip(map).enumerate() {
                if let Some(p) = *phys {
                    sealed.push((s, &*shard.sealed[p]));
                }
            }
            seg_ends.push(sealed.len());
        }
        // A window's lookups, table-major: stage-2 ranges, then buckets.
        let mut ranges = Vec::with_capacity(PROBE_WINDOW * sealed.len());
        let mut buckets: Vec<&[u32]> = Vec::with_capacity(PROBE_WINDOW * sealed.len());
        // `staged` holds one table's non-empty shard buckets as (shard,
        // unread entries), `ends[i]` where the ones of logical probe `i`
        // stop.
        let mut staged: Vec<(usize, &[u32])> = Vec::new();
        let probe_delta = self.shards().any(|sh| sh.delta.rows > 0);
        let mut ends = Vec::with_capacity(state.segments.len() + usize::from(probe_delta));
        let mut keys = [0; PROBE_WINDOW];
        let l = state.pairs.len();
        'windows: for first in (0..l).step_by(PROBE_WINDOW) {
            let keys = &mut keys[..PROBE_WINDOW.min(l - first)];
            for (j, key) in (first..).zip(keys.iter_mut()) {
                *key = key_of(j);
            }
            for (j, &key) in (first..).zip(keys.iter()) {
                for &(_, seg) in &sealed {
                    seg.tables[j].prefetch_slot(key);
                }
            }
            ranges.clear();
            for (j, &key) in (first..).zip(keys.iter()) {
                ranges.extend(sealed.iter().map(|&(_, seg)| seg.tables[j].dir_range(key)));
            }
            buckets.clear();
            for (j, &key) in (first..).zip(keys.iter()) {
                let table = sealed.iter().zip(&ranges[buckets.len()..]);
                buckets.extend(table.map(|(&(_, seg), &r)| seg.tables[j].search(key, r)));
            }
            for (i, (j, &key)) in (first..).zip(keys.iter()).enumerate() {
                let table = &buckets[i * sealed.len()..][..sealed.len()];
                staged.clear();
                ends.clear();
                let mut from = 0;
                for &to in &seg_ends {
                    let probes = sealed[from..to].iter().zip(&table[from..to]);
                    staged.extend(
                        probes
                            .filter(|(_, bucket)| !bucket.is_empty())
                            .map(|(&(s, _), &bucket)| (s, bucket)),
                    );
                    ends.push(staged.len());
                    from = to;
                }
                if probe_delta {
                    for (s, shard) in self.shards().enumerate() {
                        if let Some(bucket) = shard.delta.tables[j].get(&key) {
                            staged.push((s, bucket));
                        }
                    }
                    ends.push(staged.len());
                }
                let mut start = 0;
                for &end in &ends {
                    stats.tables_probed += 1;
                    match &mut staged[start..end] {
                        &mut [(s, bucket)] if state.shards[s].tombstones.dead() == 0 => {
                            let at = (state.shards.len(), s);
                            consume_bucket(
                                bucket, at, limit, &mut stats, visited, generation, &mut out,
                            );
                        }
                        probe => {
                            self.consume_merged(
                                probe, limit, &mut stats, visited, generation, &mut out,
                            );
                        }
                    }
                    if stats.candidates_retrieved >= limit {
                        break 'windows;
                    }
                    start = end;
                }
                if stop(&out) {
                    break 'windows;
                }
            }
        }
        stats.distinct_candidates = out.len();
        (out, stats)
    }

    /// Pull live entries from one logical bucket until it is exhausted or
    /// `limit` entries have been retrieved in all, k-way-merging the
    /// shard buckets in ascending global-id order — the exact entry
    /// sequence the one-shard bucket holds. Tombstoned entries are
    /// skipped without counting against the limit. A probe with one
    /// bucket and no dead ids takes [`consume_bucket`] instead.
    // lint: hot
    fn consume_merged(
        &self,
        probe: &mut [(usize, &[u32])],
        limit: usize,
        stats: &mut QueryStats,
        visited: &mut Visited,
        generation: u8,
        out: &mut Vec<usize>,
    ) {
        let shards = &self.state.shards[..];
        let n = shards.len();
        #[cfg(debug_assertions)]
        let mut prev_global: Option<usize> = None;
        while stats.candidates_retrieved < limit {
            let mut best: Option<(usize, usize)> = None; // (global id, slot)
            for (slot, &(shard, bucket)) in probe.iter().enumerate() {
                if let Some(&local) = bucket.first() {
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
            // one-shard entry sequence is silently lost.
            #[cfg(debug_assertions)]
            {
                debug_assert!(
                    prev_global.is_none_or(|p| p < global),
                    "k-way merge emitted global {global} after {prev_global:?}"
                );
                prev_global = Some(global);
            }
            let (shard, bucket) = probe[slot];
            probe[slot].1 = &bucket[1..];
            // Hint the visited stamp of the entry this slot will offer a
            // few merge steps from now (the stamp probe is the one random
            // access per emitted entry).
            if let Some(&ahead) = bucket.get(STAMP_AHEAD) {
                visited.prefetch(ahead as usize * n + shard);
            }
            if shards[shard].tombstones.is_dead(bucket[0] as usize) {
                continue;
            }
            if visited.visit(global, generation) {
                out.push(global);
            } else {
                stats.duplicates += 1;
            }
            stats.candidates_retrieved += 1;
        }
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

    /// [`Snapshot::candidates`] against a caller-provided scratch buffer
    /// (any [`QueryScratch`]: reusing one across queries, snapshots and
    /// writes saves each query allocating and zeroing its own).
    pub fn candidates_with<Q>(
        &self,
        q: &Q,
        retrieval_limit: Option<usize>,
        scratch: &mut QueryScratch,
    ) -> (Vec<usize>, QueryStats)
    where
        Q: AsRow<Row = S::Row> + ?Sized,
    {
        let mut key_of = self.query_keys(q.as_row());
        let visited = &mut scratch.visited;
        self.candidates_row(&mut key_of, retrieval_limit, visited, &mut |_| false)
    }

    /// Row `q`'s probe key in table `j`, hashed when asked: the key
    /// source of a one-row walk.
    pub(crate) fn query_keys<'a>(&'a self, q: &'a S::Row) -> impl FnMut(usize) -> u64 + 'a {
        let pairs = &self.state.pairs;
        move |j| pairs[j].query.hash(q)
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
        QS: PointStore<Row = S::Row>,
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
        QS: PointStore<Row = S::Row>,
    {
        self.map_rows_blocked(queries, threads, |_, key_of, scratch| {
            let visited = &mut scratch.visited;
            self.candidates_row(key_of, retrieval_limit, visited, &mut |_| false)
        })
    }

    /// The one batched-query driver: `walk(q, key_of, scratch)` of every
    /// row `q` of `queries`, in order, fanned out over up to `threads`
    /// workers (capped so each serves several queries per scratch buffer)
    /// and, per worker, hashed in blocks of [`QUERY_BLOCK`] rows.
    ///
    /// A block's probe keys live in a `QUERY_BLOCK x L` matrix that is
    /// filled lazily, a table at a time: the first row of the block whose
    /// walk reaches the window holding table `j` (the walk asks its keys
    /// a [`PROBE_WINDOW`] of tables at a time) triggers one
    /// [`dsh_core::family::PointHasher::hash_many`] of `g_j` over that row
    /// and the rows after it. Rows before it stopped short of that
    /// window, and a window no row reaches is never hashed, so a query
    /// that stops early costs at most its block-mates' windows. `walk`
    /// runs [`Snapshot::candidates_row`] with `key_of` reading its keys
    /// from the matrix, against the worker's one scratch — the same walk
    /// a one-row query runs with keys hashed as asked, so a batch answers
    /// exactly as the row loop does.
    ///
    /// Each row is walked *and finished* before the next is walked.
    /// Walking the block first and finishing afterwards holds up to
    /// `limit` ids for each of 64 rows per worker — on the gate's
    /// `lib-annulus-sphere` that alone was +12–15 % `peak_rss_mb`. Both
    /// block sizes are constants for the same reason: nothing outside
    /// this file can size them better.
    pub(crate) fn map_rows_blocked<QS, U>(
        &self,
        queries: &QS,
        threads: usize,
        walk: impl Fn(&S::Row, &mut dyn FnMut(usize) -> u64, &mut QueryScratch) -> U + Sync,
    ) -> Vec<U>
    where
        QS: PointStore<Row = S::Row>,
        U: Send,
    {
        let threads = parallel::capped_threads(queries.len(), threads, MIN_QUERIES_PER_WORKER);
        let init = |range: std::ops::Range<usize>| BlockState {
            scratch: self.new_scratch(),
            keys: vec![0; self.repetitions() * QUERY_BLOCK],
            hashed: vec![false; self.repetitions()],
            rows: Vec::with_capacity(QUERY_BLOCK),
            start: range.start,
            end: range.end,
        };
        parallel::map_indices(queries.len(), threads, init, |st, i| {
            if i == st.start + st.rows.len() {
                // The next block: its rows, and no table hashed yet.
                st.start = i;
                st.rows.clear();
                st.rows
                    .extend((i..st.end.min(i + QUERY_BLOCK)).map(|k| queries.row(k)));
                st.hashed.fill(false);
            }
            let r = i - st.start;
            let (rows, keys, hashed) = (&st.rows, &mut st.keys, &mut st.hashed);
            let mut key_of = |j: usize| {
                let table = &mut keys[j * QUERY_BLOCK..][..rows.len()];
                if !hashed[j] {
                    hashed[j] = true;
                    let g = &self.state.pairs[j].query;
                    g.hash_many(&rows[r..], &mut table[r..]);
                }
                table[r]
            };
            walk(rows[r], &mut key_of, &mut st.scratch)
        })
    }

    // -----------------------------------------------------------------
    // The write side, crate-private and copy-on-write: a mutator that
    // changes something takes the state through `Arc::make_mut` — in
    // place when this snapshot is its only holder, a fork otherwise — so
    // no other holder ever sees the write, and one that changes nothing
    // leaves the allocation where it was. Callers validate first.
    // -----------------------------------------------------------------

    /// Append `row` under the next global id (the caller has checked
    /// capacity) and return that id.
    pub(crate) fn insert_row(&mut self, row: &S::Row) -> usize {
        let state = Arc::make_mut(&mut self.state);
        let (id, n) = (state.total_rows, state.shards.len());
        debug_assert!(id < MAX_POINTS, "caller skipped the capacity check");
        let local = Arc::make_mut(&mut state.shards[id % n]).insert_row(&state.pairs, row);
        debug_assert_eq!(local, id / n);
        state.total_rows += 1;
        id
    }

    /// Tombstone global id `id` (the caller has checked it was ever
    /// assigned), so candidate collection skips it immediately; `false`,
    /// forking nothing, when it already was.
    pub(crate) fn remove(&mut self, id: usize) -> bool {
        if !self.is_live(id) {
            return false;
        }
        let state = Arc::make_mut(&mut self.state);
        let n = state.shards.len();
        Arc::make_mut(&mut state.shards[id % n])
            .tombstones
            .kill(id / n)
    }

    /// Apply a validated batch in order; the outcomes line up with its
    /// ops. Each shard the inserts will reach reserves its share of them
    /// once, up front.
    pub(crate) fn apply_validated<BS>(&mut self, batch: &WriteBatch<BS>) -> Vec<WriteOutcome>
    where
        BS: PointStore<Row = S::Row>,
    {
        let inserts = batch.inserts();
        if inserts > 0 {
            let state = Arc::make_mut(&mut self.state);
            let n = state.shards.len();
            for id in state.total_rows..state.total_rows + inserts.min(n) {
                Arc::make_mut(&mut state.shards[id % n])
                    .store
                    .reserve_rows(inserts.div_ceil(n));
            }
        }
        batch
            .ops()
            .iter()
            .map(|op| match *op {
                BatchOp::Insert(slot) => WriteOutcome::Inserted(self.insert_row(batch.row(slot))),
                BatchOp::Remove(id) => WriteOutcome::Removed(self.remove(id as usize)),
            })
            .collect()
    }

    /// Freeze every non-empty shard delta into a sealed CSR segment
    /// (nothing when every delta is empty). A new logical segment is
    /// recorded iff any shard's delta held a live row.
    pub(crate) fn seal(&mut self) {
        if self.delta_rows() == 0 {
            return;
        }
        let state = Arc::make_mut(&mut self.state);
        let mut map = Vec::with_capacity(state.shards.len());
        for shard in &mut state.shards {
            let before = shard.sealed.len();
            if shard.delta.rows > 0 {
                Arc::make_mut(shard).seal();
            }
            // A delta of only tombstoned rows seals no segment.
            map.push((shard.sealed.len() > before).then_some(before));
        }
        if map.iter().any(Option::is_some) {
            state.segments.push(map);
        }
    }

    /// Merge every shard down to one segment, `threads` workers in all —
    /// unless there is no segment and no delta row: the merge would
    /// rebuild the empty layout it started from (compaction never clears
    /// tombstone bits), so that case changes nothing.
    pub(crate) fn compact(&mut self, threads: usize) {
        if self.state.segments.is_empty() && self.delta_rows() == 0 {
            return;
        }
        let state = Arc::make_mut(&mut self.state);
        let per_shard = (threads / state.shards.len()).max(1);
        state.shards = parallel::map_items(&state.shards, threads, |_, shard| {
            Arc::new(shard.compacted(per_shard))
        });
        state.segments = single_segment_map(&state.shards);
    }

    /// Addresses of the state and shard allocations, for the tests that
    /// pin what a write copies.
    #[cfg(test)]
    pub(crate) fn allocations(&self) -> Vec<*const ()> {
        let shards = self.state.shards.iter().map(|sh| Arc::as_ptr(sh).cast());
        std::iter::once(Arc::as_ptr(&self.state).cast())
            .chain(shards)
            .collect()
    }
}

/// The walk's loop over one logical probe that staged a single bucket,
/// from shard `shard` of `n` with no dead ids: nothing to merge and
/// nothing to skip, so it costs what a build-once table's loop costs
/// (`consume_merged` pays a merge step and a tombstone check per entry).
/// Truncated to the budget up front, so it carries no per-entry limit
/// branch.
// lint: hot
fn consume_bucket(
    bucket: &[u32],
    (n, shard): (usize, usize),
    limit: usize,
    stats: &mut QueryStats,
    visited: &mut Visited,
    generation: u8,
    out: &mut Vec<usize>,
) {
    let take = bucket.len().min(limit - stats.candidates_retrieved);
    for (k, &local) in bucket[..take].iter().enumerate() {
        if let Some(&ahead) = bucket.get(k + STAMP_AHEAD) {
            visited.prefetch(ahead as usize * n + shard);
        }
        let global = local as usize * n + shard;
        if visited.visit(global, generation) {
            out.push(global);
        } else {
            stats.duplicates += 1;
        }
    }
    stats.candidates_retrieved += take;
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
/// same code that answers a held snapshot from its frozen one, and that
/// answers the one-shard [`crate::DynamicIndex`]: bit-identically at the
/// same schedule point (see the module docs).
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
pub struct ShardedIndex<S: PointStore> {
    /// The writer's current snapshot and the cell readers load it from,
    /// both private to `txn`: write verbs reach them only by committing.
    published: txn::Published<S>,
}

impl<S: PointStore> ShardedIndex<S> {
    /// Build with `l` sampled `(h, g)` pairs over `num_shards` shards and
    /// an initial point set (which may be empty). The RNG stream consumed
    /// is identical to [`crate::DynamicIndex::build`] — the root of
    /// bit-parity across shard counts.
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
        let mut rows: Vec<S> = (0..num_shards).map(|_| points.empty_like()).collect();
        for i in 0..points.len() {
            rows[i % num_shards].push_row(points.row(i));
        }
        let rows = rows.into_iter().map(Arc::new).collect();
        let threads = parallel::available_threads();
        ShardedIndex {
            published: txn::Published::new(Snapshot::build(family, rows, l, rng, threads)),
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
        let id = txn.next.insert_row(p.as_row());
        txn.commit();
        Ok(id)
    }

    /// Remove global id `id` (tombstone; reclaimed at the next
    /// compaction). Returns `Ok(false)` when already removed — nothing
    /// changed, so nothing is forked and **no new epoch is published**:
    /// readers never observe epoch churn for a no-op write. A never
    /// assigned id rejects with [`WriteError::UnknownId`] before any fork.
    pub fn remove(&mut self, id: usize) -> Result<bool, WriteError> {
        ensure_known(id, self.id_bound())?;
        let mut txn = self.published.begin();
        let removed = txn.next.remove(id);
        txn.commit();
        Ok(removed)
    }

    /// An empty [`WriteBatch`] staging rows of this index's shape, for
    /// [`ShardedIndex::apply_batch`].
    pub fn new_batch(&self) -> WriteBatch<S> {
        Snapshot::new_batch(self)
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
        BS: PointStore<Row = S::Row>,
    {
        batch.validate(self.id_bound())?;
        let mut txn = self.published.begin();
        let outcomes = txn.next.apply_validated(batch);
        txn.commit();
        Ok(outcomes)
    }

    /// Freeze every shard's delta segment into a sealed CSR segment and
    /// publish once (nothing when every delta was empty). A new logical
    /// segment is recorded iff any shard's delta held a live row —
    /// exactly when a one-shard index would have sealed one.
    pub fn seal(&mut self) {
        let mut txn = self.published.begin();
        txn.next.seal();
        txn.commit();
    }

    /// Compact every shard down to one sealed segment, dropping
    /// tombstones. The per-shard merges fan out across scoped worker
    /// threads **off the publication path** — readers keep taking
    /// snapshots of the old state throughout — and the new segment set is
    /// published with one atomic swap (nothing when nothing was merged).
    pub fn compact(&mut self) {
        let mut txn = self.published.begin();
        txn.next.compact(parallel::available_threads());
        txn.commit();
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
    use super::{Arc, Borrow, Deref, PointStore, RwLock, ShardedIndex, Snapshot};
    use std::sync::PoisonError;

    /// Rows a shard's store tail may hold before a commit freezes it into
    /// a shared chunk (`seal` freezes it regardless): the next fork's tail
    /// copy stays bounded without creating a chunk per tiny write.
    const FREEZE_TAIL_ROWS: usize = 64;

    /// The writer's current snapshot plus the handle on the cell readers
    /// load it from; the two always hold the same epoch.
    pub(super) struct Published<S: PointStore> {
        current: Snapshot<S>,
        handle: ReaderHandle<S>,
    }

    impl<S: PointStore> Published<S> {
        pub(super) fn new(current: Snapshot<S>) -> Self {
            let cell = Arc::new(RwLock::new(current.clone()));
            Published {
                handle: ReaderHandle { cell },
                current,
            }
        }

        /// Begin a write on a second handle to the current state: the
        /// first mutator that changes something forks it (`Arc` bumps; a
        /// shard's mutable parts are copied when first written).
        pub(super) fn begin(&mut self) -> WriteTxn<'_, S> {
            WriteTxn {
                next: self.current.clone(),
                published: self,
            }
        }

        /// The raw publication cell, for the test that poisons it.
        #[cfg(test)]
        pub(super) fn cell(&self) -> Arc<RwLock<Snapshot<S>>> {
            Arc::clone(&self.handle.cell)
        }
    }

    impl<S: PointStore> ShardedIndex<S> {
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
    impl<S: PointStore> Deref for ShardedIndex<S> {
        type Target = Snapshot<S>;

        fn deref(&self) -> &Snapshot<S> {
            &self.published.current
        }
    }

    impl<S: PointStore> Borrow<Snapshot<S>> for ShardedIndex<S> {
        fn borrow(&self) -> &Snapshot<S> {
            self
        }
    }

    /// One write in flight: `next` starts as the current state and is
    /// written through [`Snapshot`]'s copy-on-write mutators. Dropped
    /// uncommitted (`?`, a panic unwinding) it changes nothing.
    pub(super) struct WriteTxn<'a, S: PointStore> {
        published: &'a mut Published<S>,
        pub(super) next: Snapshot<S>,
    }

    impl<S: PointStore> WriteTxn<'_, S> {
        /// Publish `next` as the next epoch — iff a mutator forked it.
        pub(super) fn commit(mut self) {
            if Arc::ptr_eq(&self.next.state, &self.published.current.state) {
                return;
            }
            let state = Arc::make_mut(&mut self.next.state);
            for shard in &mut state.shards {
                // Exactly the shards this transaction wrote are uniquely
                // owned. (Chunk layout is not query-observable.)
                if let Some(sh) = Arc::get_mut(shard) {
                    if sh.store.tail_rows() >= FREEZE_TAIL_ROWS {
                        sh.store.freeze_tail();
                    }
                }
            }
            state.epoch += 1;
            self.published.handle.store(self.next.clone());
            self.published.current = self.next;
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
    pub struct ReaderHandle<S: PointStore> {
        cell: Arc<RwLock<Snapshot<S>>>,
    }

    impl<S: PointStore> ReaderHandle<S> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DynamicIndex;
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
        let mut parked = idx.reader();
        Arc::make_mut(&mut parked.state).total_rows = total;
        idx.published = txn::Published::new(parked);
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
        let queries = BitStore::from(dataset(0x5A29, d, 6));
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
                for q in queries.rows() {
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
        let queries = BitStore::from(dataset(0x5A41, d, 21));
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
            let sequential: Vec<_> = queries.rows().map(|q| idx.candidates(q, limit)).collect();
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
            assert_eq!(txn.next.insert_row(q.as_row()), 9);
            assert!(txn.next.remove(2));
            assert!(txn.next.remove(9));
            assert!(!txn.next.remove(2), "double remove inside one transaction");
        };

        let mut txn = idx.published.begin();
        write(&mut txn);
        drop(txn);
        assert_eq!(view(&idx), before, "a dropped transaction published");

        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let mut txn = idx.published.begin();
            write(&mut txn);
            txn.next.seal();
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
    fn scratch_taken_before_inserts_answers_like_a_fresh_one() {
        // One scratch, taken before any insert, answers the live index
        // and every snapshot held along the way (smaller id spaces than
        // the scratch has grown to) exactly as a fresh scratch does,
        // across seals and past the u8 generation wrap.
        let d = 32;
        let mut idx = ShardedIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            4,
            2,
            &mut seeded(0x5A62),
        );
        let points = dataset(0x5A63, d, 120);
        let mut scratch = idx.new_scratch();
        let mut held = Vec::new();
        for (i, p) in points.iter().enumerate() {
            idx.insert(p).unwrap();
            if i % 40 == 39 {
                idx.seal();
                held.push(idx.reader());
            }
            let q = &points[i * 7 % points.len()];
            for snap in std::iter::once(&*idx).chain(&held) {
                for limit in [None, Some(50)] {
                    let reused = snap.candidates_with(q, limit, &mut scratch);
                    assert_eq!(reused, snap.candidates(q, limit), "after insert {i}");
                }
            }
        }
    }
}
