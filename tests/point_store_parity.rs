//! Integration test for the flat point-storage layer: every index
//! front-end built from a flat store ([`BitStore`] / [`DenseStore`]) must
//! return bit-identical candidate ids and `QueryStats` to the same build
//! from `Vec<P>` — for every build and batch worker-thread count. Hashing
//! and verification read rows either way, so parity holds by
//! construction; these tests pin it against regressions.

use dsh_core::points::{BitStore, BitVector, DenseStore, DenseVector};
use dsh_data::{hamming_data, sphere_data};
use dsh_hamming::BitSampling;
use dsh_index::{
    hyperplane, measures, sphere_annulus, AnnulusIndex, AnnulusSpec, HashTableIndex,
    NearNeighborIndex, RangeReportingIndex,
};
use dsh_math::rng::seeded;

fn hamming_workload(seed: u64, n: usize, nq: usize, d: usize) -> (Vec<BitVector>, Vec<BitVector>) {
    let mut rng = seeded(seed);
    let points = hamming_data::uniform_hamming(&mut rng, n, d);
    let queries: Vec<BitVector> = points[..nq / 2]
        .iter()
        .cloned()
        .chain((0..nq - nq / 2).map(|_| BitVector::random(&mut rng, d)))
        .collect();
    (points, queries)
}

#[test]
fn hash_table_store_and_vec_builds_are_query_identical() {
    let d = 128;
    let (points, queries) = hamming_workload(0x570A, 350, 24, d);
    for build_threads in [1usize, 2, 8] {
        let vec_idx = HashTableIndex::build_with_threads(
            &BitSampling::new(d),
            points.clone(),
            14,
            &mut seeded(0x570B),
            build_threads,
        );
        let store_idx = HashTableIndex::build_with_threads(
            &BitSampling::new(d),
            BitStore::from(points.clone()),
            14,
            &mut seeded(0x570B),
            build_threads,
        );
        for limit in [None, Some(9)] {
            let from_vec: Vec<_> = queries
                .iter()
                .map(|q| vec_idx.candidates(q, limit))
                .collect();
            let from_store: Vec<_> = queries
                .iter()
                .map(|q| store_idx.candidates(q, limit))
                .collect();
            assert_eq!(
                from_vec, from_store,
                "store/vec divergence (build_threads {build_threads}, limit {limit:?})"
            );
            // Batched path, with the queries themselves held either as
            // owned vectors or as a flat store, across batch thread counts.
            let query_store = BitStore::from(queries.clone());
            for qthreads in [1usize, 3, 8] {
                assert_eq!(
                    from_vec,
                    store_idx.candidates_batch_with_threads(&queries, limit, qthreads),
                    "owned-query batch diverged (qthreads {qthreads})"
                );
                assert_eq!(
                    from_vec,
                    store_idx.candidates_batch_with_threads(&query_store, limit, qthreads),
                    "store-query batch diverged (qthreads {qthreads})"
                );
            }
        }
        // Rows of the store must be the packed blocks of the owned points.
        for (i, p) in points.iter().enumerate() {
            assert_eq!(store_idx.point(i), p.as_blocks());
        }
    }
}

#[test]
fn generator_store_and_vec_paths_index_identically() {
    // The same RNG stream drives both generators, so a store-generated
    // dataset indexes exactly like the Vec-generated one.
    let d = 96;
    let vec_points = hamming_data::uniform_hamming(&mut seeded(0x570C), 200, d);
    let store_points = hamming_data::uniform_hamming_store(&mut seeded(0x570C), 200, d);
    let queries = hamming_data::uniform_hamming(&mut seeded(0x570D), 16, d);
    let vec_idx = HashTableIndex::build(&BitSampling::new(d), vec_points, 8, &mut seeded(0x570E));
    let store_idx =
        HashTableIndex::build(&BitSampling::new(d), store_points, 8, &mut seeded(0x570E));
    for q in &queries {
        assert_eq!(vec_idx.candidates(q, None), store_idx.candidates(q, None));
    }
}

#[test]
fn near_neighbor_front_end_parity() {
    let d = 256;
    let mut rng = seeded(0x570F);
    let inst = hamming_data::planted_hamming_instance(&mut rng, 250, d, 12);
    let queries: Vec<BitVector> = std::iter::once(inst.query.clone())
        .chain((0..11).map(|_| BitVector::random(&mut rng, d)))
        .collect();
    let vec_idx = NearNeighborIndex::build(
        &BitSampling::new(d),
        measures::relative_hamming(d),
        0.25,
        inst.points.clone(),
        0.95,
        0.75,
        2.0,
        &mut seeded(0x5710),
    );
    let store_idx = NearNeighborIndex::build(
        &BitSampling::new(d),
        measures::relative_hamming(d),
        0.25,
        BitStore::from(inst.points),
        0.95,
        0.75,
        2.0,
        &mut seeded(0x5710),
    );
    let sequential: Vec<_> = queries.iter().map(|q| vec_idx.query(q)).collect();
    assert_eq!(
        sequential,
        queries
            .iter()
            .map(|q| store_idx.query(q))
            .collect::<Vec<_>>()
    );
    for threads in [1usize, 4] {
        assert_eq!(
            sequential,
            store_idx.query_batch_with_threads(&queries, threads)
        );
    }
}

#[test]
fn annulus_and_range_reporting_front_end_parity() {
    let d = 128;
    let (points, queries) = hamming_workload(0x5711, 220, 18, d);
    let annulus_vec = AnnulusIndex::build(
        &BitSampling::new(d),
        measures::relative_hamming(d),
        (0.0, 0.3),
        points.clone(),
        10,
        &mut seeded(0x5712),
    );
    let annulus_store = AnnulusIndex::build(
        &BitSampling::new(d),
        measures::relative_hamming(d),
        (0.0, 0.3),
        BitStore::from(points.clone()),
        10,
        &mut seeded(0x5712),
    );
    let sequential: Vec<_> = queries.iter().map(|q| annulus_vec.query(q)).collect();
    for threads in [1usize, 3] {
        assert_eq!(
            sequential,
            annulus_store.query_batch_with_threads(&queries, threads)
        );
    }

    let fam = dsh_core::combinators::Power::new(BitSampling::new(d), 8);
    let rr_vec = RangeReportingIndex::build(
        &fam,
        measures::relative_hamming(d),
        0.05,
        0.2,
        points.clone(),
        25,
        &mut seeded(0x5713),
    );
    let rr_store = RangeReportingIndex::build(
        &fam,
        measures::relative_hamming(d),
        0.05,
        0.2,
        BitStore::from(points),
        25,
        &mut seeded(0x5713),
    );
    let sequential: Vec<_> = queries.iter().map(|q| rr_vec.query(q)).collect();
    assert_eq!(
        sequential,
        queries
            .iter()
            .map(|q| rr_store.query(q))
            .collect::<Vec<_>>()
    );
    for threads in [1usize, 5] {
        assert_eq!(
            sequential,
            rr_store.query_batch_with_threads(&queries, threads)
        );
    }
}

#[test]
fn sphere_front_ends_parity() {
    let d = 48;
    let spec = AnnulusSpec::widened(0.55, 0.65, 2.5);
    let mut rng = seeded(0x5714);
    let inst = sphere_data::planted_sphere_instance(&mut rng, 180, d, 0.6);
    let queries: Vec<DenseVector> = std::iter::once(inst.query.clone())
        .chain((0..7).map(|_| DenseVector::random_unit(&mut rng, d)))
        .collect();

    let sa_vec = sphere_annulus::build(inst.points.clone(), d, spec, 1.4, 1.5, &mut seeded(0x5715));
    let sa_store = sphere_annulus::build(
        DenseStore::from(inst.points.clone()),
        d,
        spec,
        1.4,
        1.5,
        &mut seeded(0x5715),
    );
    let sequential: Vec<_> = queries.iter().map(|q| sa_vec.query(q)).collect();
    assert_eq!(
        sequential,
        queries
            .iter()
            .map(|q| sa_store.query(q))
            .collect::<Vec<_>>()
    );
    assert_eq!(sequential, sa_store.query_batch(&queries));
    assert_eq!(
        sequential,
        sa_store.query_batch(&DenseStore::from(queries.clone()))
    );

    let hp_vec = hyperplane::build(inst.points.clone(), d, 1.4, 0.4, 1.5, &mut seeded(0x5716));
    let hp_store = hyperplane::build(
        DenseStore::from(inst.points),
        d,
        1.4,
        0.4,
        1.5,
        &mut seeded(0x5716),
    );
    let sequential: Vec<_> = queries.iter().map(|q| hp_vec.query(q)).collect();
    assert_eq!(
        sequential,
        queries
            .iter()
            .map(|q| hp_store.query(q))
            .collect::<Vec<_>>()
    );
    assert_eq!(sequential, hp_store.query_batch(&queries));
}
