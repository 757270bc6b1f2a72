//! Statistical recall@1 checks for [`NearNeighborIndex`] on
//! planted-neighbor data, run through the shared `tests/common` harness
//! against the static, dynamic (insert-then-compact), and sharded build
//! paths.
//!
//! All paths consume identical randomness, so beyond clearing the recall
//! bar the dynamic and sharded paths must reproduce the static path's
//! answers run for run — for the sharded path, at every shard count.

mod common;

use common::{recall_at_1, RecallSweep};
use dsh_core::points::BitStore;
use dsh_hamming::BitSampling;
use dsh_index::{measures, DynamicIndex, NearNeighborIndex, ShardedIndex};

const FACTOR: f64 = 2.0;

/// Minimum acceptable recall@1: each run succeeds with constant
/// probability well above 1/2 (factor 2.0 boosts the standard guarantee),
/// so 60% over 20 runs leaves a wide flake margin while still catching a
/// broken index, which lands near zero.
const MIN_RECALL: f64 = 0.6;

#[test]
fn static_near_neighbor_recall_clears_the_bar() {
    let sweep = RecallSweep::standard();
    let recall = recall_at_1(&sweep, |inst, rng| {
        let idx = NearNeighborIndex::build(
            &BitSampling::new(sweep.d),
            measures::relative_hamming(sweep.d),
            sweep.r2_rel,
            BitStore::from(inst.points.clone()),
            sweep.p1(),
            sweep.p2(),
            FACTOR,
            rng,
        );
        idx.query(&inst.query).0
    });
    assert!(recall >= MIN_RECALL, "static recall@1 = {recall}");
}

#[test]
fn dynamic_near_neighbor_recall_matches_static_run_for_run() {
    let sweep = RecallSweep::standard();
    let mut static_answers = Vec::new();
    let static_recall = recall_at_1(&sweep, |inst, rng| {
        let idx = NearNeighborIndex::build(
            &BitSampling::new(sweep.d),
            measures::relative_hamming(sweep.d),
            sweep.r2_rel,
            BitStore::from(inst.points.clone()),
            sweep.p1(),
            sweep.p2(),
            FACTOR,
            rng,
        );
        let hit = idx.query(&inst.query).0;
        static_answers.push(hit);
        hit
    });

    let mut run = 0;
    let dynamic_recall = recall_at_1(&sweep, |inst, rng| {
        let mut idx: NearNeighborIndex<BitStore, _> = NearNeighborIndex::over(
            &BitSampling::new(sweep.d),
            measures::relative_hamming(sweep.d),
            sweep.r2_rel,
            inst.points.len(),
            sweep.p1(),
            sweep.p2(),
            FACTOR,
            |g, l| DynamicIndex::build(g, BitStore::with_dim(sweep.d), l, rng),
        );
        for p in &inst.points {
            idx.backend_mut().insert(p).unwrap();
        }
        idx.backend_mut().compact();
        let hit = idx.query(&inst.query).0;
        assert_eq!(
            hit, static_answers[run],
            "run {run}: dynamic path diverged from the static build"
        );
        run += 1;
        hit
    });

    assert!(
        dynamic_recall >= MIN_RECALL,
        "dynamic recall@1 = {dynamic_recall}"
    );
    assert_eq!(
        dynamic_recall, static_recall,
        "identical randomness must give identical recall"
    );
}

#[test]
fn sharded_near_neighbor_recall_matches_static_run_for_run() {
    let sweep = RecallSweep::standard();
    let mut static_answers = Vec::new();
    let static_recall = recall_at_1(&sweep, |inst, rng| {
        let idx = NearNeighborIndex::build(
            &BitSampling::new(sweep.d),
            measures::relative_hamming(sweep.d),
            sweep.r2_rel,
            BitStore::from(inst.points.clone()),
            sweep.p1(),
            sweep.p2(),
            FACTOR,
            rng,
        );
        let hit = idx.query(&inst.query).0;
        static_answers.push(hit);
        hit
    });
    assert!(
        static_recall >= MIN_RECALL,
        "static recall@1 = {static_recall}"
    );

    // The sharded path is grown online (insert + seal + compact) across
    // 1/2/8 shards; every run must report the same point as the static
    // build, so the recall is run-for-run identical — not merely equal in
    // aggregate.
    for shards in [1usize, 2, 8] {
        let mut run = 0;
        let sharded_recall = recall_at_1(&sweep, |inst, rng| {
            let mut idx: NearNeighborIndex<BitStore, _> = NearNeighborIndex::over(
                &BitSampling::new(sweep.d),
                measures::relative_hamming(sweep.d),
                sweep.r2_rel,
                inst.points.len(),
                sweep.p1(),
                sweep.p2(),
                FACTOR,
                |g, l| ShardedIndex::build(g, BitStore::with_dim(sweep.d), l, shards, rng),
            );
            for (i, p) in inst.points.iter().enumerate() {
                idx.backend_mut().insert(p).unwrap();
                if (i + 1) % 100 == 0 {
                    idx.backend_mut().seal();
                }
            }
            idx.backend_mut().compact();
            let hit = idx.query(&inst.query).0;
            assert_eq!(
                hit, static_answers[run],
                "run {run}: sharded path ({shards} shards) diverged from the static build"
            );
            run += 1;
            hit
        });
        assert_eq!(
            sharded_recall, static_recall,
            "identical randomness must give identical recall ({shards} shards)"
        );
    }
}
