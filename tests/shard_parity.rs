//! Parity sweep for the sharded serving layer: a `ShardedIndex` driven
//! through any insert/remove/seal/compact schedule must answer queries
//! **bit-identically** — ids, order, full `QueryStats` — to an unsharded
//! `DynamicIndex` driven through the same schedule, for shard counts
//! 1/2/8, on both flat store backends, at every interleaving checkpoint;
//! and, after a final compaction, to a static `HashTableIndex` rebuild
//! over the live rows (ids mapped through live-rank order, like
//! `tests/dynamic_parity.rs`).
//!
//! The pinned-totals test at the bottom is the per-logical-segment
//! `QueryStats` accounting regression for the cross-shard merge (the
//! sharded mirror of the dynamic-index pins in `tests/dynamic_parity.rs`).

mod common;

use common::front_end_parity;
use dsh_core::family::DshFamily;
use dsh_core::points::{AppendStore, AsRow, BitStore, BitVector, DenseStore, DenseVector};
use dsh_data::{hamming_data, sphere_data};
use dsh_hamming::BitSampling;
use dsh_index::{
    hyperplane, measures, sphere_annulus, BatchError, DynamicIndex, HashTableIndex,
    NearNeighborIndex, ShardedIndex, WriteOutcome,
};
use dsh_math::rng::seeded;
use dsh_sphere::UnimodalFilterDsh;

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

fn bit_points(seed: u64, n: usize, d: usize) -> Vec<BitVector> {
    hamming_data::uniform_hamming(&mut seeded(seed), n, d)
}

fn dense_points(seed: u64, n: usize, d: usize) -> Vec<DenseVector> {
    sphere_data::uniform_sphere(&mut seeded(seed), n, d)
}

/// Map a sharded candidate list (global ids) onto the ids a static
/// rebuild over the live rows assigns (live-rank order).
fn mapped(cands: &[usize], live: &[usize]) -> Vec<usize> {
    cands
        .iter()
        .map(|&i| live.binary_search(&i).expect("candidate id must be live"))
        .collect()
}

/// Drive the same seeded interleaved schedule against both indexes,
/// checking full bit-parity (ids, order, stats) at every step boundary
/// where the schedule performed a structural operation.
fn interleaved_parity_sweep<S, P>(
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
    for &shards in &SHARD_COUNTS {
        let mut dynamic = DynamicIndex::build(family, empty(), l, &mut seeded(seed));
        let mut sharded = ShardedIndex::build(family, empty(), l, shards, &mut seeded(seed));
        let mut schedule = seeded(seed ^ 0x5AD);
        let mut removed_any = false;
        let check = |dynamic: &DynamicIndex<S>, sharded: &ShardedIndex<S>, ctx: &str| {
            for (qi, q) in queries.iter().enumerate() {
                for limit in [None, Some(2 * l)] {
                    assert_eq!(
                        dynamic.candidates(q, limit),
                        sharded.candidates(q, limit),
                        "{ctx}, shards {shards}, query {qi}, limit {limit:?}"
                    );
                }
            }
        };
        for (i, p) in points.iter().enumerate() {
            assert_eq!(dynamic.insert(p), sharded.insert(p));
            if schedule.random_bool(0.15) {
                let live: Vec<usize> = dynamic.live_ids().collect();
                let victim = live[dsh_math::rng::index(&mut schedule, live.len())];
                assert_eq!(dynamic.remove(victim), sharded.remove(victim));
                removed_any = true;
                check(&dynamic, &sharded, "post-remove");
            }
            if (i + 1) % 23 == 0 {
                dynamic.seal();
                sharded.seal();
                assert_eq!(dynamic.sealed_segments(), sharded.sealed_segments());
                check(&dynamic, &sharded, "post-seal");
            }
            if (i + 1) % 57 == 0 {
                dynamic.compact();
                sharded.compact();
                assert_eq!(sharded.sealed_segments(), 1);
                check(&dynamic, &sharded, "post-compact");
            }
        }
        assert!(removed_any, "schedule must exercise removals");
        check(&dynamic, &sharded, "end of schedule");
        assert_eq!(dynamic.len(), sharded.len());
        assert_eq!(dynamic.delta_rows(), sharded.delta_rows());
        assert_eq!(dynamic.removed(), sharded.removed());
        assert_eq!(
            dynamic.live_ids().collect::<Vec<_>>(),
            sharded.live_ids().collect::<Vec<_>>()
        );

        // Batched queries agree with the unsharded sequential loop for
        // every thread count.
        let query_store: Vec<P> = queries.to_vec();
        let want: Vec<_> = queries
            .iter()
            .map(|q| dynamic.candidates(q, None))
            .collect();
        for threads in [1usize, 3, 8] {
            assert_eq!(
                want,
                sharded.candidates_batch_with_threads(&query_store, None, threads),
                "batched parity, shards {shards}, threads {threads}"
            );
        }

        // Final compaction: parity against a static rebuild over the live
        // rows (ids mapped through live-rank order), stats included.
        let live: Vec<usize> = sharded.live_ids().collect();
        let mut live_store = empty();
        for &id in &live {
            live_store.push_row(sharded.point(id));
        }
        let static_idx = HashTableIndex::build(family, live_store, l, &mut seeded(seed));
        sharded.compact();
        dynamic.compact();
        check(&dynamic, &sharded, "after final compact");
        for (qi, q) in queries.iter().enumerate() {
            let (want, want_stats) = static_idx.candidates(q, None);
            let (got, got_stats) = sharded.candidates(q, None);
            assert_eq!(
                want,
                mapped(&got, &live),
                "static parity, shards {shards}, query {qi}"
            );
            assert_eq!(
                want_stats, got_stats,
                "static stats parity, shards {shards}, query {qi}"
            );
        }
    }
}

/// One scheduled group-commit item: an insert of `points[.0]` or a
/// remove of global id `.0`.
enum BatchItem {
    Insert(usize),
    Remove(usize),
}

/// Drive a batched writer (`WriteBatch` + `apply_batch`) and a per-op
/// replay of the same operations in lockstep: outcomes, candidates,
/// stats, and live sets must be bit-identical at every batch boundary,
/// while the batched side publishes exactly **one** epoch per effectual
/// batch. Batch sizes cycle 1/7/256 (spanning every shard at the larger
/// sizes), every fourth batch is remove-heavy, and removes may target
/// ids assigned earlier in the same batch.
fn batched_parity_sweep<S, P>(
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
    for &shards in &SHARD_COUNTS {
        let mut batched = ShardedIndex::build(family, empty(), l, shards, &mut seeded(seed));
        let mut per_op = ShardedIndex::build(family, empty(), l, shards, &mut seeded(seed));
        let mut dynamic = DynamicIndex::build(family, empty(), l, &mut seeded(seed));
        let mut schedule = seeded(seed ^ 0xBA7C ^ shards as u64);
        let check = |dynamic: &DynamicIndex<S>, batched: &ShardedIndex<S>, ctx: &str| {
            for (qi, q) in queries.iter().enumerate() {
                for limit in [None, Some(2 * l)] {
                    assert_eq!(
                        dynamic.candidates(q, limit),
                        batched.candidates(q, limit),
                        "{ctx}, shards {shards}, query {qi}, limit {limit:?}"
                    );
                }
            }
        };

        let sizes = [1usize, 7, 256];
        let mut sim_live: Vec<usize> = Vec::new();
        let mut dead: Vec<usize> = Vec::new();
        let mut next_point = 0usize;
        let mut batch_no = 0usize;
        while next_point < points.len() {
            let target = sizes[batch_no % sizes.len()];
            let remove_prob = if batch_no % 4 == 3 { 0.6 } else { 0.2 };
            let mut items = Vec::new();
            for _ in 0..target {
                if !sim_live.is_empty()
                    && (next_point >= points.len() || schedule.random_bool(remove_prob))
                {
                    let k = dsh_math::rng::index(&mut schedule, sim_live.len());
                    let id = sim_live.swap_remove(k);
                    dead.push(id);
                    items.push(BatchItem::Remove(id));
                } else if next_point < points.len() {
                    sim_live.push(next_point);
                    items.push(BatchItem::Insert(next_point));
                    next_point += 1;
                } else {
                    break;
                }
            }

            let mut batch = batched.new_batch();
            for item in &items {
                match *item {
                    BatchItem::Insert(pi) => batch.insert(&points[pi]),
                    BatchItem::Remove(id) => batch.remove(id),
                }
            }
            let before = batched.epoch();
            let outcomes = batched
                .apply_batch(&batch)
                .expect("scheduled batches are valid");
            assert_eq!(
                batched.epoch(),
                before + 1,
                "one epoch per effectual batch (shards {shards}, batch {batch_no})"
            );

            let mut want = Vec::with_capacity(items.len());
            for item in &items {
                match *item {
                    BatchItem::Insert(pi) => {
                        let id = dynamic.insert(&points[pi]).unwrap();
                        assert_eq!(id, per_op.insert(&points[pi]).unwrap());
                        want.push(WriteOutcome::Inserted(id));
                    }
                    BatchItem::Remove(id) => {
                        let removed = dynamic.remove(id).unwrap();
                        assert_eq!(removed, per_op.remove(id).unwrap());
                        want.push(WriteOutcome::Removed(removed));
                    }
                }
            }
            assert_eq!(outcomes, want, "shards {shards}, batch {batch_no}");
            check(&dynamic, &batched, "post-batch");

            if batch_no % 3 == 2 {
                dynamic.seal();
                batched.seal();
                per_op.seal();
                assert_eq!(dynamic.sealed_segments(), batched.sealed_segments());
                check(&dynamic, &batched, "post-seal");
            }
            if batch_no % 7 == 6 {
                dynamic.compact();
                batched.compact();
                per_op.compact();
                check(&dynamic, &batched, "post-compact");
            }
            batch_no += 1;
        }

        // The point of group commits: far fewer publications than the
        // per-op writer for the same final state.
        assert!(
            batched.epoch() < per_op.epoch(),
            "shards {shards}: batched epoch {} vs per-op {}",
            batched.epoch(),
            per_op.epoch()
        );
        assert_eq!(
            dynamic.live_ids().collect::<Vec<_>>(),
            batched.live_ids().collect::<Vec<_>>()
        );
        assert_eq!(
            per_op.live_ids().collect::<Vec<_>>(),
            batched.live_ids().collect::<Vec<_>>()
        );
        assert_eq!(dynamic.len(), batched.len());
        assert_eq!(dynamic.delta_rows(), batched.delta_rows());
        assert_eq!(dynamic.removed(), batched.removed());
        for (qi, q) in queries.iter().enumerate() {
            assert_eq!(
                per_op.candidates(q, None),
                batched.candidates(q, None),
                "per-op sharded parity, shards {shards}, query {qi}"
            );
        }

        // A batch holding only already-dead removes changes nothing and
        // publishes nothing.
        assert!(dead.len() >= 2, "schedule must produce dead ids");
        let before = batched.epoch();
        let mut noop = batched.new_batch();
        noop.remove(dead[0]);
        noop.remove(dead[1]);
        assert_eq!(
            batched.apply_batch(&noop).unwrap(),
            vec![WriteOutcome::Removed(false); 2]
        );
        assert_eq!(
            batched.epoch(),
            before,
            "all-dead batch must keep the epoch"
        );

        // An out-of-range remove anywhere rejects the whole batch with
        // nothing applied — the index keeps serving its prior state.
        let bound = batched.id_bound() + 1; // one staged insert advances the bound by one
        let mut bad = batched.new_batch();
        bad.insert(&points[0]);
        bad.remove(bound);
        assert_eq!(
            batched.apply_batch(&bad).unwrap_err(),
            BatchError::UnknownId {
                op_index: 1,
                id: bound,
                bound,
            }
        );
        assert_eq!(
            batched.epoch(),
            before,
            "rejected batch must keep the epoch"
        );
        check(&dynamic, &batched, "post-rejection");
    }
}

#[test]
fn bit_store_batched_writes_match_per_op_replay() {
    let d = 128;
    let points = bit_points(0x5DB1, 420, d);
    let queries = bit_points(0x5DB2, 10, d);
    batched_parity_sweep(
        &BitSampling::new(d),
        || BitStore::with_dim(d),
        &points,
        &queries,
        10,
        0x5DB3,
    );
}

#[test]
fn dense_store_batched_writes_match_per_op_replay() {
    let d = 24;
    let points = dense_points(0x5DB5, 300, d);
    let queries = dense_points(0x5DB6, 8, d);
    batched_parity_sweep(
        &UnimodalFilterDsh::new(d, 0.4, 1.3),
        || DenseStore::with_dim(d),
        &points,
        &queries,
        8,
        0x5DB7,
    );
}

#[test]
fn bit_store_sharded_matches_unsharded_at_every_interleaving() {
    let d = 128;
    let points = bit_points(0x5D01, 240, d);
    let queries = bit_points(0x5D02, 12, d);
    interleaved_parity_sweep(
        &BitSampling::new(d),
        || BitStore::with_dim(d),
        &points,
        &queries,
        10,
        0x5D03,
    );
}

#[test]
fn dense_store_sharded_matches_unsharded_at_every_interleaving() {
    let d = 24;
    let points = dense_points(0x5D11, 200, d);
    let queries = dense_points(0x5D12, 10, d);
    interleaved_parity_sweep(
        &UnimodalFilterDsh::new(d, 0.4, 1.3),
        || DenseStore::with_dim(d),
        &points,
        &queries,
        8,
        0x5D13,
    );
}

/// A snapshot taken mid-schedule answers from its frozen state forever:
/// identical to a pristine clone of the unsharded index kept at the same
/// point, no matter how far the writer advances.
#[test]
fn snapshots_keep_answering_from_their_frozen_state() {
    let d = 128;
    let points = bit_points(0x5D21, 180, d);
    let queries = bit_points(0x5D22, 10, d);
    let l = 10;
    for &shards in &SHARD_COUNTS {
        let mut dynamic = DynamicIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            l,
            &mut seeded(0x5D23),
        );
        let mut sharded = ShardedIndex::build(
            &BitSampling::new(d),
            BitStore::with_dim(d),
            l,
            shards,
            &mut seeded(0x5D23),
        );
        let mut frozen = Vec::new(); // (snapshot, pinned unsharded clone)
        for (i, p) in points.iter().enumerate() {
            dynamic.insert(p).unwrap();
            sharded.insert(p).unwrap();
            if i % 11 == 5 {
                dynamic.remove(i).unwrap();
                sharded.remove(i).unwrap();
            }
            if i % 31 == 30 {
                dynamic.seal();
                sharded.seal();
            }
            if i % 59 == 58 {
                dynamic.compact();
                sharded.compact();
            }
            if i % 37 == 36 {
                frozen.push((sharded.reader(), dynamic.clone()));
            }
        }
        assert!(frozen.len() >= 4);
        for (si, (snapshot, pinned)) in frozen.iter().enumerate() {
            for (qi, q) in queries.iter().enumerate() {
                assert_eq!(
                    pinned.candidates(q, None),
                    snapshot.candidates(q, None),
                    "shards {shards}, snapshot {si}, query {qi}"
                );
            }
            assert_eq!(
                pinned.live_ids().collect::<Vec<_>>(),
                snapshot.live_ids().collect::<Vec<_>>(),
                "shards {shards}, snapshot {si} live set"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Front-end parity: every front-end over a sharded backend answers
// identically to the same front-end over a dynamic backend driven
// through the same schedule — same RNG stream, same `backend_mut()`
// writes, same compactions — for shard counts 1/2/8, and to the static
// build once compacted (the script is `common::front_end_parity!`).
// ---------------------------------------------------------------------------

#[test]
fn hamming_front_ends_sharded_equals_dynamic() {
    let d = 128;
    let seed = 0x5DF1;
    let points = bit_points(seed, 160, d);
    let extra = BitStore::from(bit_points(seed + 9, 6, d));
    let queries: Vec<BitVector> = points[..8]
        .iter()
        .cloned()
        .chain(bit_points(seed + 1, 8, d))
        .collect();
    let all = || BitStore::from(points.clone());
    let dynamic = |seed: u64| {
        move |g: &dyn DshFamily<[u64]>, l| {
            DynamicIndex::build(g, BitStore::with_dim(d), l, &mut seeded(seed))
        }
    };
    let sharded = |shards: usize, seed: u64| {
        move |g: &dyn DshFamily<[u64]>, l| {
            ShardedIndex::build(g, BitStore::with_dim(d), l, shards, &mut seeded(seed))
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
        subjects: [
            common::near_neighbor_over(d, points.len(), dynamic(seed + 2)),
            common::near_neighbor_over(d, points.len(), sharded(1, seed + 2)),
            common::near_neighbor_over(d, points.len(), sharded(2, seed + 2)),
            common::near_neighbor_over(d, points.len(), sharded(8, seed + 2)),
        ],
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
        subjects: [
            common::annulus_over(d, dynamic(seed + 3)),
            common::annulus_over(d, sharded(1, seed + 3)),
            common::annulus_over(d, sharded(2, seed + 3)),
            common::annulus_over(d, sharded(8, seed + 3)),
        ],
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
        subjects: [
            common::range_reporting_over(d, dynamic(seed + 4)),
            common::range_reporting_over(d, sharded(1, seed + 4)),
            common::range_reporting_over(d, sharded(2, seed + 4)),
            common::range_reporting_over(d, sharded(8, seed + 4)),
        ],
        points: &points,
        extra: &extra,
        queries: &queries,
    );
}

#[test]
fn sphere_front_ends_sharded_equals_dynamic() {
    let d = 24;
    let seed = 0x5DF9;
    let points = dense_points(seed, 150, d);
    let extra = DenseStore::from(dense_points(seed + 9, 5, d));
    let queries = dense_points(seed + 1, 10, d);
    let all = || DenseStore::from(points.clone());
    let dynamic = |seed: u64| {
        move |g: &dyn DshFamily<[f64]>, l| {
            DynamicIndex::build(g, DenseStore::with_dim(d), l, &mut seeded(seed))
        }
    };
    let sharded = |shards: usize, seed: u64| {
        move |g: &dyn DshFamily<[f64]>, l| {
            ShardedIndex::build(g, DenseStore::with_dim(d), l, shards, &mut seeded(seed))
        }
    };

    front_end_parity!(
        "hyperplane",
        repetitions,
        reference: hyperplane::build(all(), d, 1.4, 0.4, 1.5, &mut seeded(seed + 2)),
        subjects: [
            common::hyperplane_over(d, dynamic(seed + 2)),
            common::hyperplane_over(d, sharded(1, seed + 2)),
            common::hyperplane_over(d, sharded(2, seed + 2)),
            common::hyperplane_over(d, sharded(8, seed + 2)),
        ],
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
        subjects: [
            common::sphere_annulus_over(d, dynamic(seed + 3)),
            common::sphere_annulus_over(d, sharded(1, seed + 3)),
            common::sphere_annulus_over(d, sharded(2, seed + 3)),
            common::sphere_annulus_over(d, sharded(8, seed + 3)),
        ],
        points: &points,
        extra: &extra,
        queries: &queries,
    );
}

// ---------------------------------------------------------------------------
// Pinned QueryStats totals through the cross-shard merge: identical
// points make every counter exactly predictable, and the totals must
// match the unsharded pins in tests/dynamic_parity.rs verbatim.
// ---------------------------------------------------------------------------

#[test]
fn per_logical_segment_query_stats_totals_are_pinned() {
    let d = 32;
    let l = 6;
    let zero = BitVector::zeros(d);
    for &shards in &SHARD_COUNTS {
        // Layout: 10 ids in the initial bulk segment, 7 in a second
        // sealed segment, 5 in the deltas — identical points, so every
        // logical table has exactly one bucket holding everything.
        let mut initial = BitStore::with_dim(d);
        for _ in 0..10 {
            initial.push(&zero);
        }
        let mut idx = ShardedIndex::build(
            &BitSampling::new(d),
            initial,
            l,
            shards,
            &mut seeded(0x57A8),
        );
        for _ in 0..7 {
            idx.insert(&zero).unwrap();
        }
        idx.seal();
        for _ in 0..5 {
            idx.insert(&zero).unwrap();
        }
        assert_eq!(idx.sealed_segments(), 2, "shards {shards}");
        assert_eq!(idx.delta_rows(), 5, "shards {shards}");

        let (cands, stats) = idx.candidates(&zero, None);
        assert_eq!(stats.tables_probed, 3 * l, "2 sealed + 1 delta per table");
        assert_eq!(stats.candidates_retrieved, 22 * l);
        assert_eq!(stats.distinct_candidates, 22);
        assert_eq!(cands.len(), 22);
        assert_eq!(stats.duplicates, 22 * l - 22);
        // Retrieval order: ascending id within each logical bucket.
        assert_eq!(cands[..10], (0..10).collect::<Vec<_>>()[..]);

        // Tombstoned ids — one per region — skipped without counting.
        for id in [0usize, 12, 18] {
            assert_eq!(idx.remove(id), Ok(true));
        }
        let (cands, stats) = idx.candidates(&zero, None);
        assert_eq!(stats.tables_probed, 3 * l);
        assert_eq!(stats.candidates_retrieved, 19 * l);
        assert_eq!(stats.distinct_candidates, 19);
        assert_eq!(cands.len(), 19);
        assert_eq!(stats.duplicates, 19 * l - 19);

        // A retrieval limit truncates exactly, wherever it lands.
        let (_, limited) = idx.candidates(&zero, Some(25));
        assert_eq!(limited.candidates_retrieved, 25);
        assert_eq!(
            limited.distinct_candidates + limited.duplicates,
            limited.candidates_retrieved
        );

        // Post-compaction: one logical segment — static-build accounting.
        idx.compact();
        let (_, stats) = idx.candidates(&zero, None);
        assert_eq!(stats.tables_probed, l);
        assert_eq!(stats.candidates_retrieved, 19 * l);
        assert_eq!(stats.distinct_candidates, 19);
        assert_eq!(stats.duplicates, 19 * l - 19);
    }
}
