//! Parity sweep for the sharded serving layer: a `ShardedIndex` driven
//! through any insert / remove / group-commit / seal / compact schedule
//! must answer queries **bit-identically** — ids, order, full
//! `QueryStats` — to an unsharded `DynamicIndex` driven through the same
//! schedule, for shard counts 1/2/8, on both flat store backends, at
//! every interleaving checkpoint; a group commit must leave exactly what
//! the item-by-item replay of its ops leaves, for one epoch instead of
//! many; and a held snapshot must keep answering from its frozen state.
//! The schedules run on the write-path harness
//! (`tests/common/harness.rs`), like those of `tests/dynamic_parity.rs`,
//! which also checks all of it against the static rebuild.
//!
//! The front-end tests run the three answers and the two derived
//! constructors over every backend; the pinned-totals test at the bottom
//! is the per-logical-segment `QueryStats` accounting regression for the
//! cross-shard merge (the sharded mirror of the dynamic-index pins in
//! `tests/dynamic_parity.rs`).

mod common;

use common::harness::{Fixture, Op, SHARD_COUNTS};
use common::{bit_points, dense_points, front_end_parity};
use dsh_core::points::{BitStore, BitVector, DenseStore};
use dsh_hamming::BitSampling;
use dsh_index::{
    hyperplane, measures, sphere_annulus, HashTableIndex, NearNeighborIndex, ShardedIndex,
};
use dsh_math::rng::seeded;

// A pool this size takes the generator through both a 7-item and a
// 256-item group commit.
#[test]
fn bit_store_batched_writes_match_per_op_replay() {
    Fixture::bits(0x5DB1, 420, 10, 10).sweep(0xBA7C);
}

#[test]
fn dense_store_batched_writes_match_per_op_replay() {
    Fixture::dense(0x5DB5, 300, 8, 8).sweep(0xBA7C);
}

#[test]
fn bit_store_sharded_matches_unsharded_at_every_interleaving() {
    Fixture::bits(0x5D01, 240, 12, 10).sweep(0x5AD);
}

#[test]
fn dense_store_sharded_matches_unsharded_at_every_interleaving() {
    Fixture::dense(0x5D11, 200, 10, 8).sweep(0x5AD);
}

/// A snapshot (or clone) taken mid-schedule answers from its frozen
/// state forever, no matter how far the writer advances: the harness
/// re-checks every `Hold` against the model of its moment once the
/// schedule is over.
#[test]
fn snapshots_keep_answering_from_their_frozen_state() {
    let step = |i: usize| {
        let due = [
            (true, Op::Insert(i)),
            (i % 11 == 5, Op::Remove(i)),
            (i % 31 == 30, Op::Seal),
            (i % 59 == 58, Op::Compact),
            (i % 37 == 36, Op::Hold),
        ];
        due.into_iter().filter_map(|(due, op)| due.then_some(op))
    };
    let ops: Vec<Op> = (0..180).flat_map(step).collect();
    assert!(ops.iter().filter(|op| **op == Op::Hold).count() >= 4);
    Fixture::bits(0x5D21, 180, 10, 10).check(&ops);
    Fixture::dense(0x5D31, 180, 8, 8).check(&ops);
}

// ---------------------------------------------------------------------------
// Front-end parity: every front-end over a sharded backend answers
// identically to the same front-end over a dynamic backend driven
// through the same schedule — same RNG stream, same `backend_mut()`
// writes, same compactions — for shard counts 1/2/8, and to the static
// build once compacted (the script is `common::front_end_script`).
// ---------------------------------------------------------------------------

#[test]
fn hamming_front_ends_sharded_equals_dynamic() {
    let d = 128;
    let seed = 0x5DF1;
    let points = bit_points(seed, 160, d);
    let pool = [points.clone(), bit_points(seed + 9, 6, d)].concat();
    let queries = BitStore::from([points[..8].to_vec(), bit_points(seed + 1, 8, d)].concat());
    let all = || BitStore::from(points.clone());
    let case = (BitStore::with_dim(d), &pool, points.len(), &queries);

    front_end_parity!(
        "NearNeighborIndex",
        seed: seed + 2,
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
        over: |make| common::near_neighbor_over(d, points.len(), make),
        case: &case,
    );
    front_end_parity!(
        "AnnulusIndex",
        seed: seed + 3,
        reference: common::annulus_over(d, |g, l| {
            HashTableIndex::build(g, all(), l, &mut seeded(seed + 3))
        }),
        over: |make| common::annulus_over(d, make),
        case: &case,
    );
    front_end_parity!(
        "RangeReportingIndex",
        seed: seed + 4,
        reference: common::range_reporting_over(d, |g, l| {
            HashTableIndex::build(g, all(), l, &mut seeded(seed + 4))
        }),
        over: |make| common::range_reporting_over(d, make),
        case: &case,
    );
}

#[test]
fn sphere_front_ends_sharded_equals_dynamic() {
    let d = 24;
    let seed = 0x5DF9;
    let points = dense_points(seed, 150, d);
    let pool = [points.clone(), dense_points(seed + 9, 5, d)].concat();
    let queries = DenseStore::from(dense_points(seed + 1, 10, d));
    let all = || DenseStore::from(points.clone());
    let case = (DenseStore::with_dim(d), &pool, points.len(), &queries);

    front_end_parity!(
        "hyperplane",
        seed: seed + 2,
        reference: hyperplane::build(all(), d, 1.4, 0.4, 1.5, &mut seeded(seed + 2)),
        over: |make| common::hyperplane_over(d, make),
        case: &case,
    );
    let spec = common::sphere_spec();
    front_end_parity!(
        "sphere_annulus",
        seed: seed + 3,
        reference: sphere_annulus::build(all(), d, spec, 1.4, 1.5, &mut seeded(seed + 3)),
        over: |make| common::sphere_annulus_over(d, make),
        case: &case,
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
