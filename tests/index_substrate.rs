//! Integration tests for the CSR + batched index substrate: batched
//! queries must be bit-identical to query-at-a-time loops, builds and
//! batches must be deterministic in the worker-thread count, and the
//! `QueryStats` accounting invariant must hold across the whole surface.

use dsh_core::combinators::{Concat, Power};
use dsh_core::family::{BoxedDshFamily, DshFamily};
use dsh_core::points::{BitMetric, BitStore, BitVector, DenseStore, DenseVector, PointStore};
use dsh_data::{hamming_data, sphere_data};
use dsh_hamming::{AntiBitSampling, BitSampling};
use dsh_index::annulus::AnnulusMatch;
use dsh_index::{sphere_annulus, AnnulusSpec};
use dsh_index::{AnnulusIndex, HashTableIndex, NearNeighborIndex, RangeReportingIndex};
use dsh_index::{DynamicIndex, QueryStats, ShardedIndex, Snapshot};
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

/// One first-match case: a snapshot shape and what
/// [`common::first_match_by_definition`] answers on it.
type FirstMatchCase = (
    &'static str,
    Snapshot<BitStore>,
    Vec<(Option<(usize, f64)>, QueryStats)>,
);

/// The five snapshot shapes a first-match front-end faces, each sampled
/// from `seed` with `l` tables of `g` over `points`, with the oracle's
/// answers for `queries` under `(lo, hi, limit)` on each. Each oracle
/// answer's match and distance computations are first checked against
/// retrieving every candidate up to the limit and verifying them in
/// order afterwards.
fn first_match_cases(
    g: &dyn DshFamily<[u64]>,
    l: usize,
    seed: u64,
    points: &[BitVector],
    queries: &BitStore,
    select: (f64, f64, usize),
) -> Vec<FirstMatchCase> {
    let (n, store) = (points.len(), BitStore::from(points.to_vec()));
    let grown = |delta: usize| {
        let head = BitStore::from(points[..n / 2].to_vec());
        let mut idx = DynamicIndex::build(g, head, l, &mut seeded(seed));
        for p in &points[n / 2..n - delta] {
            idx.insert(p).unwrap();
        }
        idx.seal();
        for p in &points[n - delta..] {
            idx.insert(p).unwrap();
        }
        idx
    };
    let (chunked, delta) = (grown(0), grown(n / 5));
    assert_eq!((chunked.sealed_segments(), chunked.delta_rows()), (2, 0));
    assert_eq!((delta.sealed_segments(), delta.delta_rows()), (2, n / 5));
    let mut tombstoned = DynamicIndex::build(g, store.clone(), l, &mut seeded(seed));
    let mut live = vec![true; n];
    for id in (0..n).step_by(7) {
        assert_eq!(tombstoned.remove(id), Ok(true));
        live[id] = false;
    }
    let all_live = vec![true; n];
    let shapes = [
        (
            "flat",
            (*HashTableIndex::build(g, store.clone(), l, &mut seeded(seed))).clone(),
            &all_live,
            vec![0],
        ),
        ("multi-chunk", (*chunked).clone(), &all_live, vec![0, n / 2]),
        (
            "multi-chunk + delta",
            (*delta).clone(),
            &all_live,
            vec![0, n / 2, n - n / 5],
        ),
        ("tombstoned", (*tombstoned).clone(), &live, vec![0]),
        (
            "2-shard",
            ShardedIndex::build(g, store.clone(), l, 2, &mut seeded(seed)).reader(),
            &all_live,
            vec![0],
        ),
    ];
    let metric = BitMetric::RelativeHamming(points[0].len());
    let (lo, hi, limit) = select;
    let mut cases = Vec::new();
    for (shape, snapshot, live, probe_starts) in shapes {
        let layout = common::Layout {
            points: &store,
            live,
            probe_starts: &probe_starts,
        };
        let rng = &mut seeded(seed);
        let want = common::first_match_by_definition(g, l, rng, &layout, queries, &metric, select);
        for (q, (hit, stats)) in want.iter().enumerate() {
            let (cands, all) = snapshot.candidates(queries.row(q), Some(limit));
            let first = cands.iter().position(|&i| {
                let value = BitStore::measure(&metric, store.row(i), queries.row(q));
                lo <= value && value <= hi
            });
            let verified_after = (
                first.map(|at| cands[at]),
                first.map_or(cands.len(), |at| at + 1),
            );
            let at = format!("{shape}, query {q}");
            assert_eq!(
                (hit.map(|h| h.0), stats.distance_computations),
                verified_after,
                "{at}"
            );
            assert!(
                stats.candidates_retrieved <= all.candidates_retrieved,
                "{at}"
            );
        }
        cases.push((shape, snapshot, want));
    }
    cases
}

/// A first-match front-end (`NearNeighborIndex`, `AnnulusIndex`) answers
/// with the answer and full `QueryStats` of
/// [`common::first_match_by_definition`] on every snapshot shape, row by
/// row and batched at 1 and 4 threads: it stops after the table holding
/// its match. The queries (checked on the flat shape) reach a match
/// before the last table, are cut by the retrieval limit, and walk every
/// table without a match.
#[test]
fn first_match_front_ends_stop_where_the_definition_does() {
    let (d, seed) = (64, 0x5B60);
    let mut rng = seeded(0x5B61);
    let mut points = hamming_data::uniform_hamming(&mut rng, 200, d);
    let mut queries = Vec::new();
    for i in 0..24 {
        let q = BitVector::random(&mut rng, d);
        // A third of the queries sit in a cluster of 40 points too close
        // for the annulus; two thirds have one point inside it.
        if i % 3 == 0 {
            points.extend((0..40).map(|_| hamming_data::point_at_distance(&mut rng, &q, 2)));
        }
        if i % 3 != 2 {
            points.push(hamming_data::point_at_distance(&mut rng, &q, 9));
        }
        queries.push(q);
    }
    let queries = BitStore::from(queries);
    let metric = || BitMetric::RelativeHamming(d);

    let outcomes = |cases: &[FirstMatchCase], l: usize, limit: usize| {
        let mut seen = [0; 3]; // stopped early at a match, cut by the limit, neither
        for (hit, stats) in &cases[0].2 {
            let early = hit.is_some() && stats.tables_probed < l;
            seen[if early {
                0
            } else if stats.candidates_retrieved == limit {
                1
            } else {
                2
            }] += 1;
        }
        seen
    };

    let annulus = (0.1, 0.2);
    let (g, l) = (Power::new(BitSampling::new(d), 6), 12);
    let cases = first_match_cases(
        &g,
        l,
        seed,
        &points,
        &queries,
        (annulus.0, annulus.1, 8 * l),
    );
    let seen = outcomes(&cases, l, 8 * l);
    assert!(seen.iter().all(|&k| k > 0), "annulus outcomes {seen:?}");
    for (shape, snapshot, want) in cases {
        let index = AnnulusIndex::over(snapshot, metric(), annulus);
        let got = common::answers(&index, &queries, shape);
        let want = want.into_iter().map(|(hit, stats)| {
            (
                hit.map(|(index, value)| AnnulusMatch { index, value }),
                stats,
            )
        });
        assert_eq!(got, want.collect::<Vec<_>>(), "annulus, {shape}");
    }

    let r2 = 0.05;
    let mut cases = Vec::new();
    let mut index = NearNeighborIndex::over(
        &BitSampling::new(d),
        metric(),
        r2,
        points.len(),
        0.97,
        0.9,
        1.0,
        |g, l| {
            let select = (f64::NEG_INFINITY, r2, 3 * l);
            cases = first_match_cases(g, l, seed, &points, &queries, select);
            cases[0].1.clone()
        },
    );
    let l = index.repetitions();
    let seen = outcomes(&cases, l, 3 * l);
    assert!(
        seen[0] > 0 && seen[2] > 0,
        "near-neighbour outcomes {seen:?}"
    );
    for (shape, snapshot, want) in cases {
        *index.backend_mut() = snapshot;
        let got = common::answers(&index, &queries, shape);
        let want = want
            .into_iter()
            .map(|(hit, stats)| (hit.map(|h| h.0), stats));
        assert_eq!(got, want.collect::<Vec<_>>(), "near neighbour, {shape}");
    }
}
