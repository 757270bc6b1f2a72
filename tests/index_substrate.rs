//! Integration tests for the CSR + batched index substrate: batched
//! queries must be bit-identical to query-at-a-time loops, builds and
//! batches must be deterministic in the worker-thread count, and the
//! `QueryStats` accounting invariant must hold across the whole surface.

use dsh_core::combinators::{Concat, Power};
use dsh_core::family::{BoxedDshFamily, DshFamily};
use dsh_core::points::{BitStore, BitVector, DenseStore, DenseVector};
use dsh_data::{hamming_data, sphere_data};
use dsh_hamming::{AntiBitSampling, BitSampling};
use dsh_index::{sphere_annulus, AnnulusSpec};
use dsh_index::{AnnulusIndex, HashTableIndex, NearNeighborIndex, RangeReportingIndex};
use dsh_math::rng::seeded;

mod common;

fn hamming_workload(seed: u64, n: usize, nq: usize, d: usize) -> (BitStore, BitStore) {
    let mut rng = seeded(seed);
    let points = hamming_data::uniform_hamming(&mut rng, n, d);
    // Mix of in-dataset queries (duplicate-heavy) and fresh queries.
    let queries: Vec<BitVector> = points[..nq / 2]
        .iter()
        .cloned()
        .chain((0..nq - nq / 2).map(|_| BitVector::random(&mut rng, d)))
        .collect();
    (BitStore::from(points), BitStore::from(queries))
}

#[test]
fn substrate_batch_parity_and_thread_determinism() {
    let d = 128;
    let (points, queries) = hamming_workload(0x5B57, 400, 32, d);
    // Two identically seeded builds with different thread counts must be
    // indistinguishable through every query.
    let reference = {
        let mut rng = seeded(0x5B58);
        HashTableIndex::build_with_threads(&BitSampling::new(d), points.clone(), 16, &mut rng, 1)
    };
    let sequential: Vec<_> = queries
        .rows()
        .map(|q| reference.candidates(q, None))
        .collect();
    for threads in [2usize, 4, 32] {
        let mut rng = seeded(0x5B58);
        let idx = HashTableIndex::build_with_threads(
            &BitSampling::new(d),
            points.clone(),
            16,
            &mut rng,
            threads,
        );
        let answers: Vec<_> = queries.rows().map(|q| idx.candidates(q, None)).collect();
        assert_eq!(sequential, answers, "build with {threads} threads diverged");
        // Batched queries equal the sequential loop, per thread count.
        for qthreads in [1usize, 3, 8] {
            assert_eq!(
                sequential,
                idx.candidates_batch_with_threads(&queries, None, qthreads),
                "batch with {qthreads} threads diverged"
            );
        }
    }
}

#[test]
fn substrate_stats_accounting_invariant() {
    let d = 96;
    let (points, queries) = hamming_workload(0x5B59, 300, 48, d);
    let mut rng = seeded(0x5B5A);
    let idx = HashTableIndex::build(&BitSampling::new(d), points, 12, &mut rng);
    for limit in [None, Some(5), Some(64)] {
        for (cands, stats) in idx.candidates_batch(&queries, limit) {
            assert_eq!(stats.distinct_candidates, cands.len());
            assert_eq!(
                stats.distinct_candidates + stats.duplicates,
                stats.candidates_retrieved,
                "accounting broken at limit {limit:?}"
            );
            assert!(stats.tables_probed <= idx.repetitions());
            if let Some(limit) = limit {
                assert!(stats.candidates_retrieved <= limit);
            }
        }
    }
}

/// Every parity sweep is relative to the static rebuild; this is the
/// static index against the definition of the structure itself
/// ([`common::by_definition`]), with a limit that cuts mid-bucket.
#[test]
fn static_index_matches_the_definition_of_the_structure() {
    let d = 64;
    let l = 10;
    let (points, queries) = hamming_workload(0x5B61, 300, 16, d);
    let symmetric: BoxedDshFamily<[u64]> = Box::new(Power::new(BitSampling::new(d), 4));
    let asymmetric: BoxedDshFamily<[u64]> = Box::new(Concat::new(vec![
        Box::new(Power::new(BitSampling::new(d), 3)) as BoxedDshFamily<[u64]>,
        Box::new(AntiBitSampling::new(d)),
    ]));
    let limits = [None, Some(60)];
    for fam in [symmetric, asymmetric] {
        let idx = HashTableIndex::build(&fam, points.clone(), l, &mut seeded(0x5B62));
        let rng = &mut seeded(0x5B62);
        let want = common::by_definition(&fam, l, rng, &points, &queries, &limits);
        let got: Vec<_> = queries
            .rows()
            .flat_map(|q| limits.map(|limit| idx.candidates(q, limit)))
            .collect();
        assert_eq!(got, want, "{}", fam.name());
        // Duplicates count against the limit; a limit that only ever cut
        // inside the first bucket would leave that unexercised.
        let mut limited = want.iter().skip(1).step_by(2);
        let saw_duplicates = limited.any(|(_, stats)| stats.duplicates > 0);
        assert!(saw_duplicates, "{}", fam.name());
    }
}

#[test]
fn annulus_front_end_batch_parity() {
    let d = 128;
    let (points, queries) = hamming_workload(0x5B5B, 250, 20, d);
    let mut rng = seeded(0x5B5C);
    let measure = dsh_index::measures::relative_hamming(d);
    let idx = AnnulusIndex::build(
        &BitSampling::new(d),
        measure,
        (0.0, 0.3),
        points,
        10,
        &mut rng,
    );
    let sequential: Vec<_> = queries.rows().map(|q| idx.query(q)).collect();
    for threads in [1usize, 2, 6] {
        assert_eq!(sequential, idx.query_batch_with_threads(&queries, threads));
    }
}

#[test]
fn near_neighbor_front_end_batch_parity() {
    let d = 256;
    let mut rng = seeded(0x5B5D);
    let inst = hamming_data::planted_hamming_instance(&mut rng, 300, d, 12);
    let queries: Vec<BitVector> = std::iter::once(inst.query.clone())
        .chain((0..15).map(|_| BitVector::random(&mut rng, d)))
        .collect();
    let queries = BitStore::from(queries);
    let measure = dsh_index::measures::relative_hamming(d);
    let idx = NearNeighborIndex::build(
        &BitSampling::new(d),
        measure,
        0.25,
        BitStore::from(inst.points),
        0.95,
        0.75,
        2.0,
        &mut rng,
    );
    let sequential: Vec<_> = queries.rows().map(|q| idx.query(q)).collect();
    for threads in [1usize, 4] {
        assert_eq!(sequential, idx.query_batch_with_threads(&queries, threads));
    }
}

#[test]
fn range_reporting_front_end_batch_parity() {
    let d = 128;
    let mut rng = seeded(0x5B5E);
    let q = BitVector::random(&mut rng, d);
    let mut points: Vec<BitVector> = (0..20)
        .map(|_| hamming_data::point_at_distance(&mut rng, &q, 6))
        .collect();
    points.extend(hamming_data::uniform_hamming(&mut rng, 150, d));
    let queries: Vec<BitVector> = std::iter::once(q)
        .chain((0..11).map(|_| BitVector::random(&mut rng, d)))
        .collect();
    let queries = BitStore::from(queries);
    let fam = dsh_core::combinators::Power::new(BitSampling::new(d), 8);
    let measure = dsh_index::measures::relative_hamming(d);
    let points = BitStore::from(points);
    let idx = RangeReportingIndex::build(&fam, measure, 0.05, 0.2, points, 30, &mut rng);
    let sequential: Vec<_> = queries.rows().map(|q| idx.query(q)).collect();
    for threads in [1usize, 3, 5] {
        assert_eq!(sequential, idx.query_batch_with_threads(&queries, threads));
    }
    // Accounting invariant survives the front-end verification pass.
    for (out, stats) in sequential {
        assert!(out.len() <= stats.distinct_candidates);
        assert_eq!(
            stats.distinct_candidates + stats.duplicates,
            stats.candidates_retrieved
        );
        assert_eq!(stats.distance_computations, stats.distinct_candidates);
    }
}

#[test]
fn sphere_front_end_batch_parity() {
    let d = 48;
    let spec = AnnulusSpec::widened(0.55, 0.65, 2.5);
    let mut rng = seeded(0x5B5F);
    let inst = sphere_data::planted_sphere_instance(&mut rng, 200, d, 0.6);
    let queries: Vec<DenseVector> = std::iter::once(inst.query.clone())
        .chain((0..7).map(|_| DenseVector::random_unit(&mut rng, d)))
        .collect();
    let idx = sphere_annulus::build(DenseStore::from(inst.points), d, spec, 1.4, 1.5, &mut rng);
    let sequential: Vec<_> = queries.iter().map(|q| idx.query(q)).collect();
    assert_eq!(sequential, idx.query_batch(&DenseStore::from(queries)));
}
