//! Integration parity suite for the mutable segmented index: an index
//! grown online (insert / remove / group commit / seal / compact in any
//! order) must answer queries exactly like a static index built from
//! the same final live point set — on both flat store backends, for
//! multiple build, compaction, and batch-query thread counts, unsharded
//! and sharded.
//!
//! Every schedule here — generated or literal — runs on the write-path
//! harness (`tests/common/harness.rs`: what is compared where, and how
//! to read a failure). The static rebuild is the oracle because it
//! shares no walk with its subjects (`DynamicIndex` and `ShardedIndex`
//! read through one `Snapshot`, so comparing them with each other checks
//! sharding, not the walk). The pinned-totals tests in the middle are
//! the regression suite for per-segment `QueryStats` accounting
//! (distinctness is computed once per query from the deduplicated
//! output).

mod common;

use common::harness::{Fixture, Op};
use dsh_core::points::{BitStore, BitVector};
use dsh_hamming::BitSampling;
use dsh_index::{DynamicIndex, QueryStats};
use dsh_math::rng::seeded;
#[allow(unused_imports)] // a pasted schedule may name any op
use Op::{Batch, Compact, Hold, Insert, Remove, Seal};

fn inserts(pool: std::ops::Range<usize>) -> Vec<Op> {
    pool.map(Insert).collect()
}

/// Insert all points (no removals), then compact with every thread
/// count: the shortest schedule whose final layout is the static one.
#[test]
fn bit_store_insert_then_compact_is_bit_identical_to_static_build() {
    Fixture::bits(0xB17A, 260, 18, 12).check(&inserts(0..260));
}

#[test]
fn dense_store_insert_then_compact_is_bit_identical_to_static_build() {
    Fixture::dense(0xDE5A, 220, 16, 10).check(&inserts(0..220));
}

#[test]
fn bit_store_interleaved_schedule_matches_static_rebuild() {
    Fixture::bits(0x11A0, 240, 14, 10).sweep(0x5EED);
}

#[test]
fn dense_store_interleaved_schedule_matches_static_rebuild() {
    Fixture::dense(0x11B0, 200, 12, 8).sweep(0x5EED);
}

/// Where a `replay:` line from a failing sweep goes (see "Reading a
/// failure" in `tests/common/harness.rs`); the empty schedule passes.
#[test]
fn pasted_schedule() {
    Fixture::bits(0x11A0, 240, 14, 10).check(&[]);
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
    let queries = BitStore::from(vec![zero.clone(); 9]);
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
// Edge-case regressions, as literal schedules: the exact behaviors the
// sharded serving layer builds on (a shard routinely sees empty deltas,
// all-tombstoned deltas, and all-tombstoned segments that the sibling
// shards do not). The harness checks every op's outcome, epoch and
// shape on both stores and every shard count.
// ---------------------------------------------------------------------------

/// Check `ops` on a small fixture of each store; the schedule must end
/// at `[id bound, live, removed, delta rows, sealed segments]`.
fn literal(ops: &[Op], shape: [usize; 5]) {
    assert_eq!(Fixture::bits(0xE500, 32, 4, 5).check(ops), shape);
    assert_eq!(Fixture::dense(0xE510, 32, 4, 5).check(ops), shape);
}

#[test]
fn remove_of_never_inserted_id_reports_the_id_and_bound() {
    // The model expects `UnknownId { id: 4, bound: 4 }` from every
    // subject; the rejected remove leaves the index untouched and usable.
    let ops = [inserts(0..4), vec![Remove(4), Remove(3)]].concat();
    literal(&ops, [4, 3, 1, 4, 0]);
}

#[test]
fn remove_of_already_tombstoned_id_reports_false_at_every_layout() {
    // In the delta, after seal, and after compact: the tombstone outlives
    // compaction (the row slot is retired, not recycled), so the last
    // remove still reports false rather than resurrecting the id.
    let tail = [Remove(3), Remove(3), Seal, Remove(3), Compact, Remove(3)];
    literal(&[inserts(0..10), tail.to_vec()].concat(), [10, 9, 1, 0, 1]);
}

#[test]
fn seal_on_empty_delta_is_a_no_op() {
    // Before anything is inserted, and twice more after a real seal:
    // neither the layout nor any answer or stat may change.
    let ops = [vec![Seal], inserts(0..12), vec![Seal, Seal, Seal]].concat();
    literal(&ops, [12, 12, 0, 0, 1]);
}

#[test]
fn seal_of_all_tombstoned_delta_clears_it_without_a_segment() {
    // All six rows are dead: no segment may be published, but the delta
    // must still be retired (its HashMap buckets would otherwise keep
    // resurfacing the dead ids to every probe) — and the index keeps
    // working afterwards.
    let removes = (0..6).map(Remove).collect();
    let ops = [inserts(0..6), removes, vec![Seal, Insert(6)]].concat();
    literal(&ops, [7, 1, 6, 1, 0]);
}

#[test]
fn compact_of_all_tombstoned_segments_drops_every_segment() {
    // Fifteen sealed rows and ten delta rows, all removed: compaction
    // leaves no segment, dead ids keep their slots, and the index grows
    // again from fresh ids.
    let removes = (0..25).map(Remove).collect();
    let ops = [
        inserts(0..15),
        vec![Seal],
        inserts(0..10),
        removes,
        vec![Compact],
        inserts(15..23),
    ];
    literal(&ops.concat(), [33, 8, 25, 8, 0]);
}
