//! Integration parity suite for the mutable segmented index: an index
//! grown online (insert / remove / seal / compact in any order) must
//! answer queries exactly like a static index built from the same final
//! live point set — on both flat store backends, for multiple build,
//! compaction, and batch-query thread counts, unsharded and sharded.
//!
//! The static rebuild is the oracle because it shares no walk with its
//! subjects (`DynamicIndex` and `ShardedIndex` read through one
//! `Snapshot`, so comparing them with each other checks sharding, not the
//! walk). Identity is checked at two strengths, with and without a
//! retrieval limit, at every seal and compact point of the schedule:
//!
//! * **on a freshly compacted layout** the index probes one CSR segment
//!   per table, so candidates *and the full `QueryStats`* must be
//!   bit-identical to the static build (ids mapped through the live-rank
//!   order, which is monotone, hence order-preserving);
//! * **anywhere else** (multiple sealed segments + delta + tombstones)
//!   candidate lists are still identical modulo the id mapping — per
//!   table, segment buckets partition the live ids in ascending order —
//!   but `tables_probed` legitimately counts one probe per segment
//!   table, so only the other counters are compared.
//!
//! The pinned-totals tests at the bottom are the regression suite for
//! per-segment `QueryStats` accounting (distinctness is computed once
//! per query from the deduplicated output).

mod common;

use common::front_end_parity;
use dsh_core::family::DshFamily;
use dsh_core::points::{AppendStore, AsRow, BitStore, BitVector, DenseStore, DenseVector};
use dsh_data::{hamming_data, sphere_data};
use dsh_hamming::BitSampling;
use dsh_index::{
    hyperplane, measures, sphere_annulus, DynamicIndex, HashTableIndex, NearNeighborIndex,
    QueryStats, ShardedIndex, Snapshot, WriteError,
};
use dsh_math::rng::seeded;
use dsh_sphere::UnimodalFilterDsh;
use std::ops::Deref;

const BUILD_THREADS: [usize; 3] = [1, 2, 8];
const BATCH_THREADS: [usize; 3] = [1, 3, 8];

fn bit_points(seed: u64, n: usize, d: usize) -> Vec<BitVector> {
    hamming_data::uniform_hamming(&mut seeded(seed), n, d)
}

fn dense_points(seed: u64, n: usize, d: usize) -> Vec<DenseVector> {
    sphere_data::uniform_sphere(&mut seeded(seed), n, d)
}

/// Rank of each dynamic id in the ascending live-id order — the id an
/// equivalent static build over the live rows assigns to the same point.
fn rank_of(live: &[usize], id: usize) -> usize {
    live.binary_search(&id).expect("candidate id must be live")
}

/// Map a dynamic candidate list onto static ids.
fn mapped(cands: &[usize], live: &[usize]) -> Vec<usize> {
    cands.iter().map(|&i| rank_of(live, i)).collect()
}

/// The write verbs of the two owners of a [`Snapshot`], so that one
/// schedule drives either (reads go through the deref).
trait Subject<S: AppendStore + Clone>: Deref<Target = Snapshot<S>> {
    fn insert<P: AsRow<Row = S::Row>>(&mut self, p: &P) -> Result<usize, WriteError>;
    fn remove(&mut self, id: usize) -> Result<bool, WriteError>;
    fn seal(&mut self);
    fn compact(&mut self);
}

macro_rules! subject {
    ($owner:ident) => {
        impl<S: AppendStore + Clone> Subject<S> for $owner<S> {
            fn insert<P: AsRow<Row = S::Row>>(&mut self, p: &P) -> Result<usize, WriteError> {
                $owner::insert(self, p)
            }
            fn remove(&mut self, id: usize) -> Result<bool, WriteError> {
                $owner::remove(self, id)
            }
            fn seal(&mut self) {
                $owner::seal(self);
            }
            fn compact(&mut self) {
                $owner::compact(self);
            }
        }
    };
}
subject!(DynamicIndex);
subject!(ShardedIndex);

/// Grow an index through a seeded interleaved schedule of insert /
/// remove / seal / compact, calling `checkpoint` after every seal and
/// every compact and at the end of the schedule.
fn drive_schedule<S, P>(
    idx: &mut impl Subject<S>,
    points: &[P],
    schedule_seed: u64,
    mut checkpoint: impl FnMut(&Snapshot<S>, &str),
) where
    S: AppendStore + Clone,
    P: AsRow<Row = S::Row>,
{
    let mut rng = seeded(schedule_seed);
    for (i, p) in points.iter().enumerate() {
        idx.insert(p).unwrap();
        if rng.random_bool(0.15) {
            let live: Vec<usize> = idx.live_ids().collect();
            let victim = live[dsh_math::rng::index(&mut rng, live.len())];
            idx.remove(victim).unwrap();
        }
        if (i + 1) % 23 == 0 {
            idx.seal();
            checkpoint(idx, &format!("seal at step {i}"));
        }
        if (i + 1) % 57 == 0 {
            idx.compact();
            checkpoint(idx, &format!("compact at step {i}"));
        }
    }
    checkpoint(idx, "end of schedule");
}

/// Assert every counter except `tables_probed` matches (the comparison
/// away from a freshly compacted layout: physical probe counts differ
/// across segment layouts, the retrieved/dedup accounting must not).
fn assert_stats_match_modulo_probes(a: &QueryStats, b: &QueryStats, ctx: &str) {
    assert_eq!(a.candidates_retrieved, b.candidates_retrieved, "{ctx}");
    assert_eq!(a.distinct_candidates, b.distinct_candidates, "{ctx}");
    assert_eq!(a.duplicates, b.duplicates, "{ctx}");
    assert_eq!(a.distance_computations, b.distance_computations, "{ctx}");
}

/// The oracle: `subject` must answer like a static index rebuilt from the
/// same seed over its live rows, with and without a retrieval limit —
/// same candidates modulo the id mapping and same retrieval accounting
/// (segments hold ascending id ranges and dead entries are skipped
/// uncounted, so order and truncation agree). On a freshly compacted
/// layout (one segment, empty delta) the full `QueryStats` are
/// bit-identical; elsewhere `tables_probed` counts segment probes.
fn assert_matches_static_rebuild<S, P>(
    family: &(impl DshFamily<S::Row> + ?Sized),
    mut live_store: S,
    subject: &Snapshot<S>,
    queries: &[P],
    seed: u64,
    ctx: &str,
) where
    S: AppendStore + Clone,
    P: AsRow<Row = S::Row>,
{
    let l = subject.repetitions();
    let live: Vec<usize> = subject.live_ids().collect();
    for &id in &live {
        live_store.push_row(subject.point(id));
    }
    let static_idx = HashTableIndex::build(family, live_store, l, &mut seeded(seed));
    let compacted = subject.sealed_segments() == 1 && subject.delta_rows() == 0;
    for limit in [None, Some(3 * l)] {
        for (qi, q) in queries.iter().enumerate() {
            let ctx = format!("{ctx}, limit {limit:?}, query {qi}");
            let (want, want_stats) = static_idx.candidates(q, limit);
            let (got, got_stats) = subject.candidates(q, limit);
            assert_eq!(want, mapped(&got, &live), "{ctx}");
            if compacted {
                assert_eq!(want_stats, got_stats, "{ctx}");
            } else {
                assert_stats_match_modulo_probes(&want_stats, &got_stats, &ctx);
            }
        }
    }
}

/// The core sweep, generic over the store backend and family: insert all
/// points (no removals), compact, and demand bit-identical candidates and
/// stats against the static build — across build threads, batch threads,
/// and retrieval limits.
fn insert_then_compact_sweep<S, P>(
    family: &(impl DshFamily<S::Row> + ?Sized),
    empty: impl Fn() -> S,
    points: &[P],
    queries: &[P],
    l: usize,
    seed: u64,
) where
    S: AppendStore + Clone,
    P: AsRow<Row = S::Row> + Clone + Send + Sync,
{
    for &build_threads in &BUILD_THREADS {
        let mut full = empty();
        for p in points {
            full.push_row(p.as_row());
        }
        let static_idx =
            HashTableIndex::build_with_threads(family, full, l, &mut seeded(seed), build_threads);
        let mut dyn_idx =
            DynamicIndex::build_with_threads(family, empty(), l, &mut seeded(seed), build_threads);
        for p in points {
            dyn_idx.insert(p).unwrap();
        }
        dyn_idx.compact_with_threads(build_threads);
        assert_eq!(dyn_idx.sealed_segments(), 1);

        for limit in [None, Some(2 * l)] {
            let want: Vec<_> = queries
                .iter()
                .map(|q| static_idx.candidates(q, limit))
                .collect();
            let got: Vec<_> = queries
                .iter()
                .map(|q| dyn_idx.candidates(q, limit))
                .collect();
            assert_eq!(
                want, got,
                "post-compact parity (build_threads {build_threads}, limit {limit:?})"
            );
            let query_store: Vec<P> = queries.to_vec();
            for &batch_threads in &BATCH_THREADS {
                let batched =
                    dyn_idx.candidates_batch_with_threads(&query_store, limit, batch_threads);
                assert_eq!(
                    want, batched,
                    "batched parity (batch_threads {batch_threads}, limit {limit:?})"
                );
            }
        }
    }
}

/// The interleaved sweep: a schedule of insert/remove/seal/compact and a
/// final compact, compared against a static rebuild over the live rows at
/// every seal and compact point — unsharded, and sharded 1 / 2 / 8 ways.
fn interleaved_schedule_sweep<S, P>(
    family: &(impl DshFamily<S::Row> + ?Sized),
    empty: impl Fn() -> S,
    points: &[P],
    queries: &[P],
    l: usize,
    seed: u64,
) where
    S: AppendStore + Clone,
    P: AsRow<Row = S::Row> + Clone + Send + Sync,
{
    let schedule = seed ^ 0x5EED;
    let check = |subject: &Snapshot<S>, ctx: &str| {
        assert_matches_static_rebuild(family, empty(), subject, queries, seed, ctx);
    };

    let mut dyn_idx = DynamicIndex::build(family, empty(), l, &mut seeded(seed));
    drive_schedule(&mut dyn_idx, points, schedule, |s, at| {
        check(s, &format!("unsharded, {at}"));
    });
    assert!(dyn_idx.removed() > 0, "schedule must exercise removals");
    assert!(dyn_idx.sealed_segments() > 1 && dyn_idx.delta_rows() > 0);

    // The final compaction, for every thread count.
    for &threads in &BUILD_THREADS {
        let mut compacted = DynamicIndex::build(family, empty(), l, &mut seeded(seed));
        drive_schedule(&mut compacted, points, schedule, |_, _| {});
        compacted.compact_with_threads(threads);
        assert_eq!(compacted.sealed_segments(), 1);
        assert_eq!(compacted.delta_rows(), 0);
        check(&compacted, &format!("post-compact, threads {threads}"));
    }

    for shards in [1usize, 2, 8] {
        let mut sharded = ShardedIndex::build(family, empty(), l, shards, &mut seeded(seed));
        drive_schedule(&mut sharded, points, schedule, |s, at| {
            check(s, &format!("{shards} shards, {at}"));
        });
        ShardedIndex::compact(&mut sharded);
        assert_eq!(sharded.sealed_segments(), 1);
        check(&sharded, &format!("{shards} shards, post-compact"));
    }
}

#[test]
fn bit_store_insert_then_compact_is_bit_identical_to_static_build() {
    let d = 128;
    let points = bit_points(0xB17A, 260, d);
    let queries = bit_points(0xB17B, 18, d);
    insert_then_compact_sweep(
        &BitSampling::new(d),
        || BitStore::with_dim(d),
        &points,
        &queries,
        12,
        0xB17C,
    );
}

#[test]
fn dense_store_insert_then_compact_is_bit_identical_to_static_build() {
    let d = 24;
    let points = dense_points(0xDE5A, 220, d);
    let queries = dense_points(0xDE5B, 16, d);
    insert_then_compact_sweep(
        &UnimodalFilterDsh::new(d, 0.4, 1.3),
        || DenseStore::with_dim(d),
        &points,
        &queries,
        10,
        0xDE5C,
    );
}

#[test]
fn bit_store_interleaved_schedule_matches_static_rebuild() {
    let d = 128;
    let points = bit_points(0x11A0, 240, d);
    let queries = bit_points(0x11A1, 14, d);
    interleaved_schedule_sweep(
        &BitSampling::new(d),
        || BitStore::with_dim(d),
        &points,
        &queries,
        10,
        0x11A2,
    );
}

#[test]
fn dense_store_interleaved_schedule_matches_static_rebuild() {
    let d = 24;
    let points = dense_points(0x11B0, 200, d);
    let queries = dense_points(0x11B1, 12, d);
    interleaved_schedule_sweep(
        &UnimodalFilterDsh::new(d, 0.4, 1.3),
        || DenseStore::with_dim(d),
        &points,
        &queries,
        8,
        0x11B2,
    );
}

// ---------------------------------------------------------------------------
// Front-end parity: every front-end answers identically over the dynamic
// backend, grown online through `backend_mut()`, and over a static build
// (the script is `common::front_end_parity!`; `tests/shard_parity.rs`
// runs it with sharded subjects next to the dynamic one).
// ---------------------------------------------------------------------------

#[test]
fn hamming_front_ends_dynamic_equals_static_after_compact() {
    let d = 128;
    let seed = 0xF0A1;
    let points = bit_points(seed, 200, d);
    let extra = BitStore::from(bit_points(seed + 9, 6, d));
    let queries: Vec<BitVector> = points[..10]
        .iter()
        .cloned()
        .chain(bit_points(seed + 1, 10, d))
        .collect();
    let all = || BitStore::from(points.clone());
    let dynamic = |seed: u64| {
        move |g: &dyn DshFamily<[u64]>, l| {
            DynamicIndex::build(g, BitStore::with_dim(d), l, &mut seeded(seed))
        }
    };

    front_end_parity!(
        "NearNeighborIndex",
        params,
        reference: NearNeighborIndex::build(
            &BitSampling::new(d),
            measures::relative_hamming(d),
            0.25,
            all(),
            0.95,
            0.75,
            2.0,
            &mut seeded(seed + 2),
        ),
        subjects: [common::near_neighbor_over(d, points.len(), dynamic(seed + 2))],
        points: &points,
        extra: &extra,
        queries: &queries,
    );
    front_end_parity!(
        "AnnulusIndex",
        repetitions,
        reference: common::annulus_over(d, |g, l| {
            HashTableIndex::build(g, all(), l, &mut seeded(seed + 3))
        }),
        subjects: [common::annulus_over(d, dynamic(seed + 3))],
        points: &points,
        extra: &extra,
        queries: &queries,
    );
    front_end_parity!(
        "RangeReportingIndex",
        repetitions,
        reference: common::range_reporting_over(d, |g, l| {
            HashTableIndex::build(g, all(), l, &mut seeded(seed + 4))
        }),
        subjects: [common::range_reporting_over(d, dynamic(seed + 4))],
        points: &points,
        extra: &extra,
        queries: &queries,
    );
}

#[test]
fn sphere_front_ends_dynamic_equals_static_after_compact() {
    let d = 24;
    let seed = 0xF0B1;
    let points = dense_points(seed, 180, d);
    let extra = DenseStore::from(dense_points(seed + 9, 5, d));
    let queries = dense_points(seed + 1, 12, d);
    let all = || DenseStore::from(points.clone());
    let dynamic = |seed: u64| {
        move |g: &dyn DshFamily<[f64]>, l| {
            DynamicIndex::build(g, DenseStore::with_dim(d), l, &mut seeded(seed))
        }
    };

    front_end_parity!(
        "hyperplane",
        repetitions,
        reference: hyperplane::build(all(), d, 1.4, 0.4, 1.5, &mut seeded(seed + 2)),
        subjects: [common::hyperplane_over(d, dynamic(seed + 2))],
        points: &points,
        extra: &extra,
        queries: &queries,
    );
    front_end_parity!(
        "sphere_annulus",
        repetitions,
        reference: sphere_annulus::build(
            all(),
            d,
            common::sphere_spec(),
            1.4,
            1.5,
            &mut seeded(seed + 3),
        ),
        subjects: [common::sphere_annulus_over(d, dynamic(seed + 3))],
        points: &points,
        extra: &extra,
        queries: &queries,
    );
}

// ---------------------------------------------------------------------------
// QueryStats accounting regression: per-segment probes/candidates must
// sum correctly, sequentially and batched. Identical points make every
// count exactly predictable.
// ---------------------------------------------------------------------------

#[test]
fn query_stats_merge_sums_additive_counters_only() {
    let mut a = QueryStats {
        tables_probed: 2,
        candidates_retrieved: 5,
        distinct_candidates: 4,
        duplicates: 1,
        distance_computations: 3,
    };
    let b = QueryStats {
        tables_probed: 1,
        candidates_retrieved: 2,
        distinct_candidates: 2,
        duplicates: 0,
        distance_computations: 7,
    };
    a.merge(&b);
    // distinct_candidates is a whole-query property: merging per-segment
    // partials must not sum it (a point seen from two segments is one
    // candidate) — callers recompute it from the deduplicated output.
    assert_eq!(
        a,
        QueryStats {
            tables_probed: 3,
            candidates_retrieved: 7,
            distinct_candidates: 4,
            duplicates: 1,
            distance_computations: 10,
        }
    );
}

#[test]
fn per_segment_query_stats_totals_are_pinned() {
    let d = 32;
    let l = 6;
    let zero = BitVector::zeros(d);
    // Segment layout: 10 ids in the initial sealed segment, 7 in a second
    // sealed segment, 5 in the delta — all identical points, so every
    // table has exactly one bucket holding everything.
    let mut initial = BitStore::with_dim(d);
    for _ in 0..10 {
        initial.push(&zero);
    }
    let mut idx = DynamicIndex::build(&BitSampling::new(d), initial, l, &mut seeded(0x57A7));
    for _ in 0..7 {
        idx.insert(&zero).unwrap();
    }
    idx.seal();
    for _ in 0..5 {
        idx.insert(&zero).unwrap();
    }
    assert_eq!(idx.sealed_segments(), 2);
    assert_eq!(idx.delta_rows(), 5);

    let (cands, stats) = idx.candidates(&zero, None);
    assert_eq!(stats.tables_probed, 3 * l, "2 sealed + 1 delta per table");
    assert_eq!(stats.candidates_retrieved, 22 * l);
    assert_eq!(stats.distinct_candidates, 22);
    assert_eq!(cands.len(), 22);
    assert_eq!(stats.duplicates, 22 * l - 22);
    assert_eq!(
        stats.distinct_candidates + stats.duplicates,
        stats.candidates_retrieved,
        "dedup accounting must balance across segments"
    );

    // Tombstoned ids — one per region — are skipped without counting.
    for id in [0usize, 12, 18] {
        assert!(idx.remove(id).unwrap());
    }
    let (cands, stats) = idx.candidates(&zero, None);
    assert_eq!(stats.tables_probed, 3 * l);
    assert_eq!(stats.candidates_retrieved, 19 * l);
    assert_eq!(stats.distinct_candidates, 19);
    assert_eq!(cands.len(), 19);
    assert_eq!(stats.duplicates, 19 * l - 19);

    // Batched queries must report the same per-query stats, so the batch
    // totals are exact multiples.
    let queries: Vec<BitVector> = (0..9).map(|_| zero.clone()).collect();
    for threads in [1usize, 4] {
        let batch = idx.candidates_batch_with_threads(&queries, None, threads);
        assert_eq!(batch.len(), 9);
        for (got_cands, got_stats) in &batch {
            assert_eq!(got_cands, &cands, "threads {threads}");
            assert_eq!(got_stats, &stats, "threads {threads}");
        }
        let total: usize = batch.iter().map(|(_, s)| s.candidates_retrieved).sum();
        assert_eq!(total, 9 * 19 * l, "threads {threads}");
        let probes: usize = batch.iter().map(|(_, s)| s.tables_probed).sum();
        assert_eq!(probes, 9 * 3 * l, "threads {threads}");
    }

    // A retrieval limit truncates exactly, wherever it lands.
    let (_, limited) = idx.candidates(&zero, Some(25));
    assert_eq!(limited.candidates_retrieved, 25);
    assert_eq!(
        limited.distinct_candidates + limited.duplicates,
        limited.candidates_retrieved
    );

    // After compaction the layout is one segment per table: the exact
    // accounting of a static build over the 19 live points.
    idx.compact();
    let (_, stats) = idx.candidates(&zero, None);
    assert_eq!(stats.tables_probed, l);
    assert_eq!(stats.candidates_retrieved, 19 * l);
    assert_eq!(stats.distinct_candidates, 19);
    assert_eq!(stats.duplicates, 19 * l - 19);
}

// ---------------------------------------------------------------------------
// Edge-case regressions: the exact behaviors the sharded serving layer
// builds on (a shard routinely sees empty deltas, all-tombstoned deltas,
// and all-tombstoned segments that the sibling shards do not).
// ---------------------------------------------------------------------------

fn small_index(seed: u64, d: usize) -> DynamicIndex<BitStore> {
    DynamicIndex::build(
        &BitSampling::new(d),
        BitStore::with_dim(d),
        5,
        &mut seeded(seed),
    )
}

#[test]
fn remove_of_never_inserted_id_reports_the_id_and_bound() {
    let d = 32;
    let mut idx = small_index(0xE501, d);
    for p in &bit_points(0xE502, 4, d) {
        idx.insert(p).unwrap();
    }
    let err = idx.remove(4).unwrap_err();
    assert_eq!(err, WriteError::UnknownId { id: 4, bound: 4 });
    let msg = err.to_string();
    assert!(msg.contains("id 4") && msg.contains("bound: 4"), "{msg}");
    // The rejected remove left the index untouched and usable.
    assert_eq!(idx.len(), 4);
    assert!(idx.remove(3).unwrap());
}

#[test]
fn remove_of_already_tombstoned_id_reports_false_at_every_layout() {
    let d = 32;
    let mut idx = small_index(0xE503, d);
    for p in &bit_points(0xE504, 10, d) {
        idx.insert(p).unwrap();
    }
    assert!(idx.remove(3).unwrap());
    assert!(!idx.remove(3).unwrap(), "double remove in the delta");
    idx.seal();
    assert!(!idx.remove(3).unwrap(), "double remove after seal");
    idx.compact();
    // The tombstone outlives compaction (the row slot is retired, not
    // recycled), so a third remove still reports false rather than
    // resurrecting the id.
    assert!(!idx.remove(3).unwrap(), "double remove after compact");
    assert_eq!(idx.len(), 9);
    assert_eq!(idx.removed(), 1);
}

#[test]
fn seal_on_empty_delta_is_a_no_op() {
    let d = 32;
    let points = bit_points(0xE505, 12, d);
    let queries = bit_points(0xE506, 4, d);
    let mut idx = small_index(0xE507, d);
    idx.seal(); // nothing inserted yet
    assert_eq!(idx.sealed_segments(), 0);
    for p in &points {
        idx.insert(p).unwrap();
    }
    idx.seal();
    assert_eq!(idx.sealed_segments(), 1);
    let want: Vec<_> = queries.iter().map(|q| idx.candidates(q, None)).collect();
    // Sealing again with an empty delta changes neither the layout nor
    // any answer or stat.
    idx.seal();
    idx.seal();
    assert_eq!(idx.sealed_segments(), 1);
    assert_eq!(idx.delta_rows(), 0);
    let got: Vec<_> = queries.iter().map(|q| idx.candidates(q, None)).collect();
    assert_eq!(want, got);
}

#[test]
fn seal_of_all_tombstoned_delta_clears_it_without_a_segment() {
    let d = 32;
    let mut idx = small_index(0xE508, d);
    let ids: Vec<usize> = bit_points(0xE509, 6, d)
        .iter()
        .map(|p| idx.insert(p).unwrap())
        .collect();
    for &id in &ids {
        idx.remove(id).unwrap();
    }
    assert_eq!(idx.delta_rows(), 6);
    idx.seal();
    // All six rows were dead: no segment may be published, but the delta
    // must still be retired (its HashMap buckets would otherwise keep
    // resurfacing the dead ids to every probe).
    assert_eq!(idx.sealed_segments(), 0);
    assert_eq!(idx.delta_rows(), 0);
    assert!(idx.is_empty());
    assert_eq!(idx.id_bound(), 6);
    // The index keeps working afterwards.
    let p = BitVector::random(&mut seeded(0xE50A), d);
    let id = idx.insert(&p).unwrap();
    assert_eq!(id, 6);
    assert!(idx.candidates(&p, None).0.contains(&id));
}

#[test]
fn compact_of_all_tombstoned_segments_drops_every_segment() {
    let d = 32;
    let points = bit_points(0xE50B, 15, d);
    let mut idx = small_index(0xE50C, d);
    let ids: Vec<usize> = points.iter().map(|p| idx.insert(p).unwrap()).collect();
    idx.seal();
    for &id in &ids[..10] {
        idx.insert(&points[id]).unwrap(); // fresh copies, landing in the delta
    }
    for &id in &ids {
        idx.remove(id).unwrap();
    }
    for id in 15..25 {
        idx.remove(id).unwrap();
    }
    assert!(idx.is_empty());
    idx.compact();
    assert_eq!(idx.sealed_segments(), 0);
    assert_eq!(idx.delta_rows(), 0);
    assert_eq!(idx.id_bound(), 25, "dead ids keep their slots");
    let q = &points[0];
    let (cands, stats) = idx.candidates(q, None);
    assert!(cands.is_empty());
    assert_eq!(stats, QueryStats::default());
    // Growing again after a to-zero compaction assigns fresh ids and
    // matches a static build over just the new rows (modulo the id
    // offset of the retired slots).
    let fresh = bit_points(0xE50D, 8, d);
    for p in &fresh {
        idx.insert(p).unwrap();
    }
    for (i, p) in fresh.iter().enumerate() {
        assert!(
            idx.candidates(p, None).0.contains(&(25 + i)),
            "re-grown point {i} must be retrievable"
        );
    }
}
