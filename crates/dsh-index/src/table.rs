//! The `L`-repetition asymmetric hash table (the "straightforward
//! adaptation of the near neighbor data structure using LSH" from the
//! proof of Theorem 6.1): its bucket layout, its query scratch, and
//! [`HashTableIndex`], the build-once index over them.
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
//! every thread count.
//!
//! # Queries
//!
//! A [`HashTableIndex`] has no walk of its own: it is a frozen
//! [`Snapshot`] with one shard, one sealed segment, no delta and no
//! tombstones, and every query is that snapshot's — the one walk the
//! mutable indexes run, one-shot ([`Snapshot::candidates`]) or batched
//! ([`Snapshot::candidates_batch`], reusing one generation-stamped
//! [`QueryScratch`] per worker instead of allocating an O(n) `seen`
//! vector per query).

use crate::parallel;
use crate::shard::Snapshot;
use dsh_core::family::{DshFamily, PointHasher};
use dsh_core::points::{Measures, PointStore};
use rand::Rng;
use std::borrow::Borrow;
use std::ops::Deref;
use std::sync::Arc;

/// Counters describing the work a query performed.
///
/// A raw candidate walk ([`Snapshot::candidates`]) and a range-reporting
/// query count every table up to the retrieval limit. A first-match
/// front-end query ([`crate::NearNeighborIndex`],
/// [`crate::AnnulusIndex`]) stops after the table holding its match, so
/// its `tables_probed`, `candidates_retrieved`, `distinct_candidates`
/// and `duplicates` count the walk up to the end of that table (or up to
/// the limit, if the limit came first). Its `distance_computations` stop
/// at the match itself.
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

        // Dynamic complement to dsh-lint: `search`'s binary search and the
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

    /// Lookup stage 1 of 3: hint the prefix-table slot of `key`.
    ///
    /// A lookup is three dependent reads — prefix slot, directory
    /// entries, ids — so the walk runs each stage over a window of
    /// tables before the next: every stage's misses then overlap across
    /// the window instead of queueing behind each other.
    // lint: hot
    #[inline]
    pub(crate) fn prefetch_slot(&self, key: u64) {
        let p = Self::prefix_of(key, self.prefix_bits) as usize;
        dsh_core::kernels::prefetch_read(&self.prefix_starts, p);
    }

    /// Lookup stage 2 of 3: the directory range `[lo, hi)` of the keys
    /// sharing `key`'s prefix, hinting its first entry.
    // lint: hot
    #[inline]
    pub(crate) fn dir_range(&self, key: u64) -> (u32, u32) {
        let p = Self::prefix_of(key, self.prefix_bits) as usize;
        let (lo, hi) = (self.prefix_starts[p], self.prefix_starts[p + 1]);
        dsh_core::kernels::prefetch_read(&self.dir, lo as usize);
        (lo, hi)
    }

    /// Lookup stage 3 of 3: the bucket for `key` (empty slice when no
    /// data point hashed to it), binary-searched within its stage-2
    /// `range`, hinting the bucket's first id.
    // lint: hot
    #[inline]
    pub(crate) fn search(&self, key: u64, (lo, hi): (u32, u32)) -> &[u32] {
        let lo = lo as usize;
        // The sentinel is never inside [lo, hi): prefix counts cover only
        // real entries, so dir[b + 1] is always a valid end marker.
        match self.dir[lo..hi as usize].binary_search_by(|e| e.0.cmp(&key)) {
            Ok(b) => {
                let b = lo + b;
                let start = self.dir[b].1 as usize;
                dsh_core::kernels::prefetch_read(&self.ids, start);
                &self.ids[start..self.dir[b + 1].1 as usize]
            }
            Err(_) => &[],
        }
    }

    /// The three stages back to back: the bucket for `key`.
    #[cfg(test)]
    fn bucket(&self, key: u64) -> &[u32] {
        self.prefetch_slot(key);
        self.search(key, self.dir_range(key))
    }
}

/// Reusable per-worker query state, kept across the queries a worker
/// answers: the walk's visited stamps and the verifier's [`Measures`]
/// buffers.
///
/// A scratch serves any index: each query grows it to that index's id
/// space first, so one taken before inserts, from another index, or
/// from [`Default`] answers exactly as a fresh one does.
#[derive(Default)]
pub struct QueryScratch {
    pub(crate) visited: Visited,
    pub(crate) measures: Measures,
}

impl QueryScratch {
    pub(crate) fn new(n: usize) -> Self {
        QueryScratch {
            visited: Visited {
                stamps: vec![0; n],
                generation: 0,
            },
            measures: Measures::default(),
        }
    }
}

/// The walk's dedupe state: a generation-stamped `seen` array.
///
/// Marking a point visited writes the current generation into its stamp
/// slot; starting a new query just bumps the generation, so the O(n)
/// clearing cost of a fresh `vec![false; n]` per query is paid once per
/// 255 queries instead of once per query. Stamps are a single byte so
/// the array is no larger (hence no colder) than the seed's `Vec<bool>`.
#[derive(Default)]
pub(crate) struct Visited {
    stamps: Vec<u8>,
    generation: u8,
}

impl Visited {
    /// Start a new query over ids `0..n`: grow the stamps to `n` (new
    /// slots are 0, never a generation), then bump the generation,
    /// resetting the stamps on the (once per 255 queries) wrap-around.
    /// Every stamp is then below the returned generation, so no id reads
    /// as visited, whatever queries the scratch served before. The growth
    /// allocates only when the id space has grown since the last query.
    // lint: hot
    pub(crate) fn begin(&mut self, n: usize) -> u8 {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
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

/// An `L`-repetition DSH hash table over a [`PointStore`], built once.
///
/// `S` is the storage backend, a flat [`dsh_core::points::BitStore`] /
/// [`dsh_core::points::DenseStore`] of contiguous rows. The index is the
/// frozen case of the segmented state: a [`Snapshot`] with one shard, one
/// sealed segment, no delta and no tombstones, which nothing can write.
/// It dereferences to that snapshot for every read —
/// [`Snapshot::candidates`], [`Snapshot::candidates_batch`],
/// [`Snapshot::point`], a front-end over the index as its backend — so a
/// static query runs the one walk [`crate::DynamicIndex`] and
/// [`crate::ShardedIndex`] run.
pub struct HashTableIndex<S: PointStore> {
    snapshot: Snapshot<S>,
    /// The store the snapshot's one frozen chunk shares.
    points: Arc<S>,
}

impl<S: PointStore> HashTableIndex<S> {
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
        let points = Arc::new(points);
        let rows = vec![Arc::clone(&points)];
        HashTableIndex {
            snapshot: Snapshot::build(family, rows, l, rng, threads),
            points,
        }
    }

    /// The underlying point store.
    pub fn store(&self) -> &S {
        &self.points
    }
}

/// Every read of the index is the same call on its [`Snapshot`].
impl<S: PointStore> Deref for HashTableIndex<S> {
    type Target = Snapshot<S>;

    fn deref(&self) -> &Snapshot<S> {
        &self.snapshot
    }
}

impl<S: PointStore> Borrow<Snapshot<S>> for HashTableIndex<S> {
    fn borrow(&self) -> &Snapshot<S> {
        self
    }
}

/// Rows per [`PointHasher::hash_many`] call of the bulk builds.
const BUILD_BLOCK: usize = 256;

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
        // The store is the snapshot's one frozen chunk, not a copy of it.
        assert_eq!((idx.num_shards(), idx.shard_rows(0).tail_rows()), (1, 0));
        assert!((0..5).all(|i| std::ptr::eq(idx.store().row(i), idx.point(i))));
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
        let mut visited = QueryScratch::new(4).visited;
        visited.generation = u8::MAX - 1;
        visited.stamps = vec![u8::MAX - 1; 4];
        let g = visited.begin(4); // reaches u8::MAX
        assert_eq!(g, u8::MAX);
        let g = visited.begin(4); // wraps: stamps reset, generation restarts
        assert_eq!(g, 1);
        assert!(visited.stamps.iter().all(|&s| s == 0));
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
    fn scratch_from_another_index_answers_like_a_fresh_one() {
        // One scratch alternating between two differently sized indexes,
        // for more queries than the u8 generation space, answers every
        // query exactly as a fresh scratch does — whatever it was sized
        // for when taken.
        let d = 16;
        let queries = dataset(d, 20);
        let small =
            HashTableIndex::build(&BitSampling::new(d), dataset(d, 10), 2, &mut seeded(309));
        let large =
            HashTableIndex::build(&BitSampling::new(d), dataset(d, 90), 3, &mut seeded(311));
        let taken = [
            QueryScratch::new(3),
            QueryScratch::default(),
            large.new_scratch(),
        ];
        for (s, mut scratch) in taken.into_iter().enumerate() {
            for round in 0..7 {
                for q in queries.rows() {
                    for idx in [&small, &large] {
                        let reused = idx.candidates_with(q, None, &mut scratch);
                        assert_eq!(
                            reused,
                            idx.candidates(q, None),
                            "scratch {s}, round {round}"
                        );
                    }
                }
            }
        }
    }
}
