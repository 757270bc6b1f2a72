//! The `L`-repetition asymmetric hash table (the "straightforward
//! adaptation of the near neighbor data structure using LSH" from the
//! proof of Theorem 6.1).
//!
//! `L` pairs `(h_j, g_j)` are sampled from a distance-sensitive family.
//! Every data point `x` is stored in table `j` under key `h_j(x)`; a query
//! `q` probes table `j` under `g_j(q)`. With a symmetric family this is the
//! classical LSH index; with an asymmetric family the probed bucket differs
//! from the stored one — which is the entire point.
//!
//! # Storage layout
//!
//! Each table stores its buckets in a flat CSR-style layout instead of a
//! `HashMap<u64, Vec<u32>>`: a sorted directory of the distinct keys, an
//! offsets array, and one contiguous `Vec<u32>` of point ids grouped by
//! key (increasing id within each bucket — the same order the seed's
//! per-bucket `Vec` push produced). Three dense arrays per table instead
//! of one heap allocation per non-empty bucket: builds touch memory
//! sequentially and probes read one contiguous id range.
//!
//! # Concurrency
//!
//! Table construction fans the `L` repetitions out across
//! [`crate::parallel`] worker threads. All `L` `(h, g)` pairs are sampled
//! *sequentially* from the caller's RNG before any worker starts, so the
//! randomness stream — and therefore the built index — is identical for
//! every thread count. Queries come in two flavors: the classic one-shot
//! [`HashTableIndex::candidates`], and the batched
//! [`HashTableIndex::candidates_batch`] that fans queries out across
//! threads while reusing one generation-stamped [`QueryScratch`] per
//! worker instead of allocating an O(n) `seen` vector per query.

use crate::parallel;
use dsh_core::family::{DshFamily, HasherPair, PointHasher};
use dsh_core::points::{AsRow, PointStore};
use rand::Rng;
use std::sync::Arc;

/// Counters describing the work a query performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Number of hash tables probed.
    pub tables_probed: usize,
    /// Total bucket entries retrieved (including duplicates across tables).
    pub candidates_retrieved: usize,
    /// Distinct points retrieved.
    pub distinct_candidates: usize,
    /// Retrieved entries that were duplicates of already-seen points — the
    /// quantity Theorem 6.5's output-sensitivity analysis controls.
    pub duplicates: usize,
    /// Number of exact distance/similarity evaluations performed.
    pub distance_computations: usize,
}

impl QueryStats {
    /// Sum the additive counters of `other` into `self`: probes, retrieved
    /// entries, duplicates, and distance computations.
    ///
    /// `distinct_candidates` is deliberately **not** summed. Distinctness
    /// is a property of the whole query, not of one probe: a point
    /// retrieved from two segments (or two tables) is one distinct
    /// candidate, so partial stats each reporting it as distinct would
    /// double-count it. The segmented walk ([`crate::shard::Snapshot`],
    /// which [`crate::dynamic::DynamicIndex`] and
    /// [`crate::shard::ShardedIndex`] both read through) follows the same
    /// rule: it accumulates the additive counters probe by probe and sets
    /// `distinct_candidates` from the deduplicated output once, at the
    /// end. The regression tests in `tests/dynamic_parity.rs` and
    /// `tests/shard_parity.rs` pin the summed totals.
    pub fn merge(&mut self, other: &QueryStats) {
        self.tables_probed += other.tables_probed;
        self.candidates_retrieved += other.candidates_retrieved;
        self.duplicates += other.duplicates;
        self.distance_computations += other.distance_computations;
    }
}

/// Flat CSR bucket storage for one table: a sorted `(key, offset)`
/// directory plus one contiguous `Vec<u32>` of point ids grouped by key
/// (increasing within a bucket). Bucket `b` spans
/// `ids[dir[b].1 .. dir[b + 1].1]`; the directory ends with a
/// `(u64::MAX, ids.len())` sentinel so every bucket's end is its
/// successor's start. Fusing key and offset into one entry means a probe
/// that finds its key already holds the bucket bounds — no second array
/// to miss on.
///
/// Lookups are accelerated by a radix prefix table over the top
/// `prefix_bits` bits of the (well-mixed) keys: `prefix_starts[p]` is the
/// number of directory keys with prefix `< p`, so a probe binary-searches
/// only the handful of directory entries sharing the query key's prefix
/// instead of the whole directory.
#[derive(Clone)]
pub(crate) struct CsrBuckets {
    /// Sorted `(key, ids-offset)` pairs, terminated by the sentinel.
    dir: Vec<(u64, u32)>,
    ids: Vec<u32>,
    /// `2^prefix_bits + 1` running counts into the real (non-sentinel)
    /// directory entries.
    prefix_starts: Vec<u32>,
    prefix_bits: u32,
}

/// Cap on the prefix-table size (2^16 entries = 256 KiB of `u32` per
/// table at most, and only when the directory itself is that large).
const MAX_PREFIX_BITS: u32 = 16;

/// Minimum queries per worker in the batched query paths: a worker costs
/// a thread spawn plus one O(n) scratch allocation, which a single cheap
/// query does not amortize.
pub(crate) const MIN_QUERIES_PER_WORKER: usize = 8;

impl CsrBuckets {
    /// Construction from per-point hash keys in one sort-and-sweep pass:
    /// sort `(key, id)` pairs (ids ascending within equal keys — the same
    /// per-bucket order the seed's `HashMap` push produced), then sweep
    /// once to emit the directory, grouped ids, and the prefix counts.
    pub(crate) fn build(hashes: &[u64]) -> Self {
        debug_assert!(hashes.len() < u32::MAX as usize);
        let order: Vec<(u64, u32)> = hashes
            .iter()
            .enumerate()
            .map(|(i, &h)| (h, i as u32))
            .collect();
        Self::build_from_pairs(order)
    }

    /// Construction from explicit `(key, id)` pairs — the compaction path
    /// of the segmented index, where keys are recovered from existing
    /// segment directories instead of re-hashing every row and ids are
    /// global (not positional). Pairs are sorted, so the result is
    /// independent of the input order; ids must be distinct.
    pub(crate) fn build_from_pairs(mut order: Vec<(u64, u32)>) -> Self {
        order.sort_unstable();

        let mut dir: Vec<(u64, u32)> = Vec::new();
        let mut ids = Vec::with_capacity(order.len());
        for &(h, i) in &order {
            if dir.last().map(|e| e.0) != Some(h) {
                dir.push((h, ids.len() as u32));
            }
            ids.push(i);
        }
        let distinct = dir.len();
        dir.push((u64::MAX, ids.len() as u32)); // sentinel

        // Size the prefix table to roughly one directory entry per slot.
        let prefix_bits = (usize::BITS - distinct.leading_zeros()).min(MAX_PREFIX_BITS);
        let mut prefix_starts = vec![0u32; (1usize << prefix_bits) + 1];
        for (b, &(k, _)) in dir[..distinct].iter().enumerate() {
            // Keys are sorted, so the last key of each prefix run wins:
            // prefix_starts[p + 1] = count of directory keys with prefix <= p.
            let p = (Self::prefix_of(k, prefix_bits) + 1) as usize;
            prefix_starts[p] = (b + 1) as u32;
        }
        // Fill prefixes with no keys: running maximum turns the per-run
        // end positions into a complete monotone count array.
        for p in 1..prefix_starts.len() {
            prefix_starts[p] = prefix_starts[p].max(prefix_starts[p - 1]);
        }

        // Dynamic complement to dsh-lint: `bucket`'s binary search and the
        // prefix table are only correct over a strictly ascending directory
        // with monotone offsets. The sentinel entry is excluded — a real
        // u64::MAX key may legitimately share its key value.
        debug_assert!(
            dir[..distinct].windows(2).all(|w| w[0].0 < w[1].0),
            "CSR directory keys must be strictly increasing"
        );
        debug_assert!(
            dir.windows(2).all(|w| w[0].1 <= w[1].1),
            "CSR directory offsets must be non-decreasing"
        );

        CsrBuckets {
            dir,
            ids,
            prefix_starts,
            prefix_bits,
        }
    }

    #[inline]
    fn prefix_of(key: u64, bits: u32) -> u64 {
        if bits == 0 {
            0
        } else {
            key >> (64 - bits)
        }
    }

    /// Total bucket entries (one per indexed id).
    pub(crate) fn num_ids(&self) -> usize {
        self.ids.len()
    }

    /// Iterate over the non-empty buckets in key order, yielding each
    /// distinct key with its grouped ids — the scan the segmented index's
    /// compaction uses to recover `(key, id)` pairs without re-hashing.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u64, &[u32])> {
        let distinct = self.dir.len() - 1; // drop the sentinel
        self.dir[..distinct]
            .iter()
            .enumerate()
            .map(move |(b, e)| (e.0, &self.ids[e.1 as usize..self.dir[b + 1].1 as usize]))
    }

    /// The bucket for `key` (empty slice when no data point hashed to it).
    // lint: hot
    #[inline]
    pub(crate) fn bucket(&self, key: u64) -> &[u32] {
        let p = Self::prefix_of(key, self.prefix_bits) as usize;
        let lo = self.prefix_starts[p] as usize;
        let hi = self.prefix_starts[p + 1] as usize;
        // The sentinel is never inside [lo, hi): prefix counts cover only
        // real entries, so dir[b + 1] is always a valid end marker.
        match self.dir[lo..hi].binary_search_by(|e| e.0.cmp(&key)) {
            Ok(b) => {
                let b = lo + b;
                &self.ids[self.dir[b].1 as usize..self.dir[b + 1].1 as usize]
            }
            Err(_) => &[],
        }
    }
}

/// One hash table: the sampled data/query hashers and the CSR buckets.
struct Table<P: ?Sized> {
    data_fn: Arc<dyn PointHasher<P>>,
    query_fn: Arc<dyn PointHasher<P>>,
    buckets: CsrBuckets,
}

/// Reusable per-worker query state: a generation-stamped `seen` array.
///
/// Marking a point visited writes the current generation into its stamp
/// slot; starting a new query just bumps the generation, so the O(n)
/// clearing cost of a fresh `vec![false; n]` per query is paid once per
/// 255 queries instead of once per query. Stamps are a single byte so
/// the array is no larger (hence no colder) than the seed's `Vec<bool>`.
pub struct QueryScratch {
    stamps: Vec<u8>,
    generation: u8,
}

impl QueryScratch {
    pub(crate) fn new(n: usize) -> Self {
        QueryScratch {
            stamps: vec![0; n],
            generation: 0,
        }
    }

    /// Start a new query: bump the generation, resetting the stamps on the
    /// (once per 255 queries) wrap-around.
    // lint: hot
    pub(crate) fn begin(&mut self) -> u8 {
        if self.generation == u8::MAX {
            self.stamps.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.generation
    }

    /// Mark point `i` visited in the query of `generation`; returns `true`
    /// on the first visit, `false` for a duplicate.
    #[inline]
    pub(crate) fn visit(&mut self, i: usize, generation: u8) -> bool {
        if self.stamps[i] == generation {
            false
        } else {
            self.stamps[i] = generation;
            true
        }
    }

    /// Number of id slots (the indexed id-space size this scratch serves).
    pub(crate) fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Best-effort prefetch of id `i`'s visited stamp. The bucket walks
    /// hint [`STAMP_AHEAD`] entries ahead so the random-access stamp
    /// probe is already in cache when the walk reaches it. Out-of-range
    /// ids are silently ignored (it is a hint, not a bounds check).
    #[inline]
    pub(crate) fn prefetch(&self, i: usize) {
        dsh_core::kernels::prefetch_read(&self.stamps, i);
    }
}

/// How many id-array entries ahead of the current one the bucket walks
/// prefetch their visited stamp. The stamp probe is the one random
/// access per entry (the id array itself streams sequentially), so this
/// is the distance that hides its latency behind the walk.
pub(crate) const STAMP_AHEAD: usize = 16;

/// How many candidates ahead of the current one the verification loops
/// prefetch the point row. One row is several cache lines, so the
/// distance is shorter than [`STAMP_AHEAD`]: a deeper pipeline of row
/// prefetches would evict its own oldest lines on wide rows.
pub(crate) const ROW_AHEAD: usize = 4;

/// An `L`-repetition DSH hash table over a [`PointStore`].
///
/// `S` is the storage backend, a flat [`dsh_core::points::BitStore`] /
/// [`dsh_core::points::DenseStore`] of contiguous rows (or a
/// [`dsh_core::points::ChunkedStore`] over one). Hash functions and
/// queries operate on the store's row type.
pub struct HashTableIndex<S: PointStore> {
    tables: Vec<Table<S::Row>>,
    points: S,
}

impl<S: PointStore> HashTableIndex<S> {
    /// Number of repetitions `L`.
    pub fn repetitions(&self) -> usize {
        self.tables.len()
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Borrow the row of indexed point `i`.
    pub fn point(&self, i: usize) -> &S::Row {
        self.points.row(i)
    }

    /// The underlying point store.
    pub fn store(&self) -> &S {
        &self.points
    }

    /// A query scratch buffer sized for this index, for use with
    /// [`HashTableIndex::candidates_with`].
    pub fn new_scratch(&self) -> QueryScratch {
        QueryScratch::new(self.points.len())
    }

    /// Build with `l` independently sampled `(h, g)` pairs, fanning table
    /// construction out over [`parallel::available_threads`] workers.
    pub fn build(
        family: &(impl DshFamily<S::Row> + ?Sized),
        points: S,
        l: usize,
        rng: &mut dyn Rng,
    ) -> Self {
        Self::build_with_threads(family, points, l, rng, parallel::available_threads())
    }

    /// Build with an explicit worker-thread count.
    ///
    /// Deterministic in `threads`: all `l` pairs are sampled sequentially
    /// from `rng` before any worker starts, and workers only evaluate the
    /// already-sampled hash functions, so the same `rng` stream yields the
    /// same index on every machine — and the same index for every storage
    /// backend, since hashing reads rows either way.
    pub fn build_with_threads(
        family: &(impl DshFamily<S::Row> + ?Sized),
        points: S,
        l: usize,
        rng: &mut dyn Rng,
        threads: usize,
    ) -> Self {
        // lint: allow(panic) — build-time parameter validation, not on the query path
        assert!(l >= 1, "need at least one repetition");
        // lint: allow(panic) — build-time capacity check, not on the query path
        assert!(
            points.len() < u32::MAX as usize,
            "point count exceeds index capacity"
        );
        let pairs: Vec<HasherPair<S::Row>> = (0..l).map(|_| family.sample(rng)).collect();
        let points_ref = &points;
        let tables = parallel::map_items(&pairs, threads, |_, pair| Table {
            data_fn: Arc::clone(&pair.data),
            query_fn: Arc::clone(&pair.query),
            buckets: CsrBuckets::build(&hash_store(&*pair.data, points_ref)),
        });
        HashTableIndex { tables, points }
    }

    /// Retrieve query candidates table-by-table, stopping once
    /// `retrieval_limit` raw entries have been pulled (the `8L`
    /// early-termination device from the proof of Theorem 6.1).
    /// Returns distinct candidate indices in retrieval order. The query
    /// may be an owned point, a store row view, or a raw row.
    pub fn candidates<Q>(&self, q: &Q, retrieval_limit: Option<usize>) -> (Vec<usize>, QueryStats)
    where
        Q: AsRow<Row = S::Row> + ?Sized,
    {
        self.candidates_with(q, retrieval_limit, &mut self.new_scratch())
    }

    /// [`HashTableIndex::candidates`] against a caller-provided scratch
    /// buffer, letting tight query loops skip the per-query O(n)
    /// allocation. The scratch must come from this index's
    /// [`HashTableIndex::new_scratch`] (or one of identical size).
    pub fn candidates_with<Q>(
        &self,
        q: &Q,
        retrieval_limit: Option<usize>,
        scratch: &mut QueryScratch,
    ) -> (Vec<usize>, QueryStats)
    where
        Q: AsRow<Row = S::Row> + ?Sized,
    {
        let q = q.as_row();
        self.candidates_row(
            &mut |j| self.tables[j].query_fn.hash(q),
            retrieval_limit,
            scratch,
        )
    }

    /// The walk, with table `j`'s probe key coming from `key_of(j)` —
    /// asked for only once the walk reaches table `j`, so a limited query
    /// that stops early never pays for the later tables' keys.
    pub(crate) fn candidates_row(
        &self,
        key_of: &mut dyn FnMut(usize) -> u64,
        retrieval_limit: Option<usize>,
        scratch: &mut QueryScratch,
    ) -> (Vec<usize>, QueryStats) {
        // lint: allow(panic) — contract: scratch must come from this index's new_scratch
        assert_eq!(
            scratch.len(),
            self.points.len(),
            "scratch buffer sized for a different index"
        );
        let generation = scratch.begin();
        let limit = retrieval_limit.unwrap_or(usize::MAX);
        let mut stats = QueryStats::default();
        let mut out = Vec::new();
        for (j, table) in self.tables.iter().enumerate() {
            stats.tables_probed += 1;
            let bucket = table.buckets.bucket(key_of(j));
            // Truncate to the retrieval budget up front so the hot loop
            // carries no per-entry limit branch.
            let take = bucket.len().min(limit - stats.candidates_retrieved);
            for (j, &i) in bucket[..take].iter().enumerate() {
                if let Some(&ahead) = bucket.get(j + STAMP_AHEAD) {
                    scratch.prefetch(ahead as usize);
                }
                let i = i as usize;
                if scratch.visit(i, generation) {
                    out.push(i);
                } else {
                    stats.duplicates += 1;
                }
            }
            stats.candidates_retrieved += take;
            if stats.candidates_retrieved >= limit {
                break;
            }
        }
        stats.distinct_candidates = out.len();
        (out, stats)
    }

    /// Run [`HashTableIndex::candidates`] for a batch of queries, fanned
    /// out across [`parallel::available_threads`] workers with one scratch
    /// buffer per worker. The batch may be any store over the same row
    /// type. Results line up with `queries` and are identical to a
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

    /// [`HashTableIndex::candidates_batch`] with an explicit worker-thread
    /// count (the output does not depend on it). The count is capped so
    /// every worker serves at least a handful of queries — one worker per
    /// query would pay a thread spawn and an O(n) scratch allocation per
    /// single query.
    pub fn candidates_batch_with_threads<QS>(
        &self,
        queries: &QS,
        retrieval_limit: Option<usize>,
        threads: usize,
    ) -> Vec<(Vec<usize>, QueryStats)>
    where
        QS: PointStore<Row = S::Row>,
    {
        map_rows_blocked(
            self,
            queries,
            retrieval_limit,
            threads,
            |_, cands, stats| (cands, stats),
        )
    }

    /// Whether data point `i` and the query collide in table `j`
    /// (diagnostic helper for tests).
    pub fn collides_in_table<Q>(&self, j: usize, i: usize, q: &Q) -> bool
    where
        Q: AsRow<Row = S::Row> + ?Sized,
    {
        let t = &self.tables[j];
        t.data_fn.hash(self.points.row(i)) == t.query_fn.hash(q.as_row())
    }
}

/// A bucket-candidate backend a [`crate::Frontend`] can verify against:
/// the static [`HashTableIndex`], or a segmented
/// [`crate::shard::Snapshot`] — held directly, or through one of its two
/// owners, the single-threaded [`crate::dynamic::DynamicIndex`] and the
/// concurrent sharded [`crate::shard::ShardedIndex`], which forward here
/// to the snapshot they dereference to.
///
/// The trait is the read side only — what one verification loop needs to
/// serve a build-once index, one grown online, and one sharded for
/// concurrent serving. There are two walks behind it, the static table's
/// and the snapshot's, and they answer queries exactly alike over the
/// same live point set (pinned by the write-path harness that
/// `tests/dynamic_parity.rs` and `tests/shard_parity.rs` run); the
/// mutable owners are written through
/// their own inherent methods, reached via
/// [`crate::Frontend::backend_mut`].
pub trait CandidateBackend: Send + Sync {
    /// The borrowed row type stored points and queries share.
    type Row: ?Sized + 'static;

    /// Number of repetitions `L` (each query probes `L` logical tables).
    fn repetitions(&self) -> usize;

    /// Borrow the row of indexed point `i`.
    fn point(&self, i: usize) -> &Self::Row;

    /// Hint that the row of point `i` will be read soon: best-effort
    /// software prefetch of the row, used by the verification loops to
    /// gather candidate rows a few entries ahead of the distance
    /// computations. Default is a no-op; out-of-range ids are ignored.
    #[inline]
    fn prefetch_point(&self, i: usize) {
        let _ = i;
    }

    /// A query scratch buffer sized for this backend.
    fn new_scratch(&self) -> QueryScratch;

    /// The query-side function `g_j` of repetition `j < L`.
    fn query_hasher(&self, j: usize) -> &dyn PointHasher<Self::Row>;

    /// Retrieve distinct candidate ids for the query whose probe key in
    /// table `j` is `key_of(j)`, stopping once `retrieval_limit` raw
    /// bucket entries have been pulled. `key_of` is called at most once
    /// per table, in table order, and only for the tables the walk
    /// reaches. One row alone passes `&mut |j| self.query_hasher(j).hash(q)`.
    /// The closure is `dyn` so that a backend's walk is compiled once,
    /// whoever feeds it keys: generic over the closure, the segmented
    /// walk read ~1 us slower on the gate's single-row wire path.
    fn candidates_row(
        &self,
        key_of: &mut dyn FnMut(usize) -> u64,
        retrieval_limit: Option<usize>,
        scratch: &mut QueryScratch,
    ) -> (Vec<usize>, QueryStats);
}

/// Rows per [`PointHasher::hash_many`] call of the bulk builds.
const BUILD_BLOCK: usize = 256;

/// Rows a batched-query worker hashes together.
const QUERY_BLOCK: usize = 64;

/// `h` of every row of `points`, in [`BUILD_BLOCK`]-row blocks. The block
/// is a constant, not the whole store: a `Vec<&Row>` over all `n` rows
/// is 8 bytes a row for the length of the build (it put the gate's
/// `lib-range-hamming` `peak_rss_mb` at 56.7 from 52.8), and a filter
/// hasher already generates only 0.5 caps per row at 256.
pub(crate) fn hash_store<S: PointStore>(h: &dyn PointHasher<S::Row>, points: &S) -> Vec<u64> {
    let mut hashes = vec![0; points.len()];
    let mut rows = Vec::with_capacity(BUILD_BLOCK);
    for (b, out) in hashes.chunks_mut(BUILD_BLOCK).enumerate() {
        rows.clear();
        rows.extend((0..out.len()).map(|i| points.row(b * BUILD_BLOCK + i)));
        h.hash_many(&rows, out);
    }
    hashes
}

/// The one batched-query driver: `finish(q, candidates, stats)` of every
/// row of `queries`, in order, fanned out over up to `threads` workers
/// (capped so each serves several queries per scratch buffer) and, per
/// worker, hashed in blocks of [`QUERY_BLOCK`] rows.
///
/// A block's probe keys live in a `QUERY_BLOCK x L` matrix that is
/// filled lazily, a table at a time: the first row of the block whose
/// walk reaches table `j` triggers one [`PointHasher::hash_many`] of
/// `g_j` over that row and the rows after it. Rows before it stopped
/// short of table `j`, and a table no row reaches is never hashed, so a
/// limited query costs at most its block-mates' tables. The walk is the
/// backend's own `candidates_row`, reading its keys from the matrix.
///
/// Each row is walked *and finished* before the next is walked. Walking
/// the block first and finishing afterwards holds up to `limit` ids for
/// each of 64 rows per worker — on the gate's `lib-annulus-sphere` that
/// alone was +12–15 % `peak_rss_mb`. Both block sizes are constants for
/// the same reason: nothing outside this file can size them better.
pub(crate) fn map_rows_blocked<B, QS, U>(
    backend: &B,
    queries: &QS,
    retrieval_limit: Option<usize>,
    threads: usize,
    finish: impl Fn(&B::Row, Vec<usize>, QueryStats) -> U + Sync,
) -> Vec<U>
where
    B: CandidateBackend,
    QS: PointStore<Row = B::Row>,
    U: Send,
{
    let threads = parallel::capped_threads(queries.len(), threads, MIN_QUERIES_PER_WORKER);
    parallel::map_index_chunks(queries.len(), threads, |range| {
        let l = backend.repetitions();
        let mut scratch = backend.new_scratch();
        // Table-major, so the rows `r..` of one table are one slice.
        let mut keys = vec![0; l * QUERY_BLOCK];
        let mut hashed = vec![false; l];
        let mut rows = Vec::with_capacity(QUERY_BLOCK);
        let mut out = Vec::with_capacity(range.len());
        for start in range.clone().step_by(QUERY_BLOCK) {
            rows.clear();
            rows.extend((start..range.end.min(start + QUERY_BLOCK)).map(|i| queries.row(i)));
            hashed.fill(false);
            for (r, &q) in rows.iter().enumerate() {
                let mut key_of = |j: usize| {
                    let table = &mut keys[j * QUERY_BLOCK..][..rows.len()];
                    if !hashed[j] {
                        hashed[j] = true;
                        backend
                            .query_hasher(j)
                            .hash_many(&rows[r..], &mut table[r..]);
                    }
                    table[r]
                };
                let (cands, stats) =
                    backend.candidates_row(&mut key_of, retrieval_limit, &mut scratch);
                out.push(finish(q, cands, stats));
            }
        }
        out
    })
}

impl<S: PointStore> CandidateBackend for HashTableIndex<S> {
    type Row = S::Row;

    fn repetitions(&self) -> usize {
        HashTableIndex::repetitions(self)
    }

    fn point(&self, i: usize) -> &S::Row {
        HashTableIndex::point(self, i)
    }

    #[inline]
    fn prefetch_point(&self, i: usize) {
        self.points.prefetch_row(i);
    }

    fn new_scratch(&self) -> QueryScratch {
        HashTableIndex::new_scratch(self)
    }

    fn query_hasher(&self, j: usize) -> &dyn PointHasher<S::Row> {
        &*self.tables[j].query_fn
    }

    fn candidates_row(
        &self,
        key_of: &mut dyn FnMut(usize) -> u64,
        retrieval_limit: Option<usize>,
        scratch: &mut QueryScratch,
    ) -> (Vec<usize>, QueryStats) {
        HashTableIndex::candidates_row(self, key_of, retrieval_limit, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_core::points::{BitStore, BitVector};
    use dsh_hamming::{AntiBitSampling, BitSampling};
    use dsh_math::rng::seeded;

    fn dataset(d: usize, n: usize) -> BitStore {
        let mut rng = seeded(301);
        BitStore::from(
            (0..n)
                .map(|_| BitVector::random(&mut rng, d))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn symmetric_family_finds_identical_point() {
        let d = 64;
        let points = dataset(d, 50);
        let q = points.row(17).to_vec();
        let mut rng = seeded(302);
        let idx = HashTableIndex::build(&BitSampling::new(d), points, 8, &mut rng);
        let (cands, stats) = idx.candidates(q.as_slice(), None);
        assert!(
            cands.contains(&17),
            "identical point must collide somewhere"
        );
        assert_eq!(stats.tables_probed, 8);
        assert_eq!(
            stats.distinct_candidates + stats.duplicates,
            stats.candidates_retrieved
        );
    }

    #[test]
    fn asymmetric_family_excludes_identical_point() {
        // With anti bit-sampling, h(x) != g(x) always: the identical point
        // can never be retrieved.
        let d = 64;
        let points = dataset(d, 50);
        let q = points.row(3).to_vec();
        let mut rng = seeded(303);
        let idx = HashTableIndex::build(&AntiBitSampling::new(d), points, 16, &mut rng);
        let (cands, _) = idx.candidates(q.as_slice(), None);
        assert!(
            !cands.contains(&3),
            "anti family must not retrieve the query itself"
        );
    }

    #[test]
    fn retrieval_limit_stops_early() {
        let d = 16;
        // All points identical => every bucket contains everything.
        let points = BitStore::from(vec![BitVector::zeros(d); 100]);
        let q = BitVector::zeros(d);
        let mut rng = seeded(304);
        let idx = HashTableIndex::build(&BitSampling::new(d), points, 10, &mut rng);
        let (_, stats) = idx.candidates(&q, Some(42));
        assert_eq!(stats.candidates_retrieved, 42);
        let (_, unlimited) = idx.candidates(&q, None);
        assert_eq!(unlimited.candidates_retrieved, 1000);
        assert_eq!(unlimited.distinct_candidates, 100);
        assert_eq!(unlimited.duplicates, 900);
    }

    #[test]
    fn accessors() {
        let d = 8;
        let points = dataset(d, 5);
        let p0 = points.row(0).to_vec();
        let mut rng = seeded(305);
        let idx = HashTableIndex::build(&BitSampling::new(d), points, 3, &mut rng);
        assert_eq!(idx.repetitions(), 3);
        assert_eq!(idx.len(), 5);
        assert!(!idx.is_empty());
        assert_eq!(idx.point(0), p0);
    }

    #[test]
    fn csr_buckets_group_ids_by_key_in_insertion_order() {
        let hashes = [7u64, 3, 7, 7, 3, 11, 3];
        let csr = CsrBuckets::build(&hashes);
        assert_eq!(csr.dir, vec![(3, 0), (7, 3), (11, 6), (u64::MAX, 7)]);
        assert_eq!(csr.bucket(3), &[1, 4, 6]);
        assert_eq!(csr.bucket(7), &[0, 2, 3]);
        assert_eq!(csr.bucket(11), &[5]);
        assert_eq!(csr.bucket(5), &[] as &[u32]);
        assert_eq!(csr.ids.len(), hashes.len());
    }

    #[test]
    fn csr_buckets_empty_input() {
        let csr = CsrBuckets::build(&[]);
        assert_eq!(csr.dir, vec![(u64::MAX, 0)]);
        assert_eq!(csr.bucket(0), &[] as &[u32]);
        assert_eq!(csr.bucket(u64::MAX), &[] as &[u32]);
    }

    #[test]
    fn csr_buckets_max_key_is_not_shadowed_by_sentinel() {
        // A real u64::MAX key must stay distinguishable from the sentinel.
        let hashes = [u64::MAX, 0, u64::MAX];
        let csr = CsrBuckets::build(&hashes);
        assert_eq!(csr.bucket(u64::MAX), &[0, 2]);
        assert_eq!(csr.bucket(0), &[1]);
        assert_eq!(csr.bucket(1), &[] as &[u32]);
    }

    #[test]
    fn build_is_deterministic_in_thread_count() {
        let d = 64;
        let points = dataset(d, 120);
        let queries = dataset(d, 10);
        let mut built = Vec::new();
        for threads in [1usize, 2, 4, 16] {
            let mut rng = seeded(306);
            let idx = HashTableIndex::build_with_threads(
                &BitSampling::new(d),
                points.clone(),
                12,
                &mut rng,
                threads,
            );
            let answers: Vec<_> = queries.rows().map(|q| idx.candidates(q, None)).collect();
            built.push(answers);
        }
        for other in &built[1..] {
            assert_eq!(&built[0], other, "thread count changed the built index");
        }
    }

    #[test]
    fn batch_matches_sequential_queries() {
        let d = 64;
        let points = dataset(d, 150);
        let queries = dataset(d, 23);
        let mut rng = seeded(307);
        let idx = HashTableIndex::build(&BitSampling::new(d), points, 10, &mut rng);
        for limit in [None, Some(17)] {
            let sequential: Vec<_> = queries.rows().map(|q| idx.candidates(q, limit)).collect();
            for threads in [1usize, 3, 8] {
                let batched = idx.candidates_batch_with_threads(&queries, limit, threads);
                assert_eq!(
                    sequential, batched,
                    "threads = {threads}, limit = {limit:?}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_preserves_stats_accounting() {
        let d = 32;
        let points = dataset(d, 80);
        let queries = dataset(d, 40);
        let mut rng = seeded(308);
        let idx = HashTableIndex::build(&BitSampling::new(d), points, 6, &mut rng);
        let mut scratch = idx.new_scratch();
        for q in queries.rows() {
            let (cands, stats) = idx.candidates_with(q, None, &mut scratch);
            assert_eq!(stats.distinct_candidates, cands.len());
            assert_eq!(
                stats.distinct_candidates + stats.duplicates,
                stats.candidates_retrieved
            );
        }
    }

    #[test]
    fn scratch_generation_wraparound_resets() {
        let mut scratch = QueryScratch::new(4);
        scratch.generation = u8::MAX - 1;
        scratch.stamps = vec![u8::MAX - 1; 4];
        let g = scratch.begin(); // reaches u8::MAX
        assert_eq!(g, u8::MAX);
        let g = scratch.begin(); // wraps: stamps reset, generation restarts
        assert_eq!(g, 1);
        assert!(scratch.stamps.iter().all(|&s| s == 0));
    }

    #[test]
    fn scratch_reuse_correct_across_generation_wrap() {
        // Run far more queries than the u8 generation space on one scratch
        // and check answers stay identical to fresh-scratch queries.
        let d = 32;
        let points = dataset(d, 60);
        let queries = dataset(d, 16);
        let mut rng = seeded(310);
        let idx = HashTableIndex::build(&BitSampling::new(d), points, 4, &mut rng);
        let mut scratch = idx.new_scratch();
        for round in 0..40 {
            for q in queries.rows() {
                let with_reuse = idx.candidates_with(q, None, &mut scratch);
                let fresh = idx.candidates(q, None);
                assert_eq!(with_reuse, fresh, "round {round} diverged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sized for a different index")]
    fn mismatched_scratch_rejected() {
        let d = 16;
        let points = dataset(d, 10);
        let q = points.row(0).to_vec();
        let mut rng = seeded(309);
        let idx = HashTableIndex::build(&BitSampling::new(d), points, 2, &mut rng);
        let mut wrong = QueryScratch::new(3);
        let _ = idx.candidates_with(q.as_slice(), None, &mut wrong);
    }
}
