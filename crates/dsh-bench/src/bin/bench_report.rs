//! `bench-report`: the machine-readable kernel perf trajectory.
//!
//! Times the runtime-dispatched kernel layer (`dsh_core::kernels`) on
//! the workloads the serving path actually runs — dense `dot_many` /
//! `euclidean_many` verification, packed Hamming verification, and the
//! batched CSR candidate-collection walk, plus the filter families' cap
//! generator (`gaussian_cap`) — the hash-evaluation prices the paper
//! states: the filter family's cost in the threshold
//! `t` (Theorem 1.2), exact Valiant against TensorSketch (the remark
//! after Theorem 5.1), and one evaluation of each family — and range
//! reporting (Theorem 6.5) over a dynamic index before and after one
//! insert moves a row out of its frozen chunk. It then
//! re-executes itself in a child process with `DSH_FORCE_SCALAR=1` to
//! time the identical workloads on the scalar tier with prefetch
//! disabled. Dispatch is resolved once per process, so the subprocess is
//! the only honest way to compare both paths end to end (facades,
//! prefetch gating and all).
//!
//! Parity is asserted, not assumed: every bench folds its outputs into
//! an FNV checksum, and the parent fails if any child checksum differs —
//! the kernels' bit-identity contract, enforced inside the bench run.
//!
//! After the kernel trajectory, the report times the **write path**: the
//! publishing sharded ingest (`ShardedIndex` + `WriteBatch` group
//! commits) against the in-place unsharded ingest (`DynamicIndex`,
//! per-op) over the identical point stream and seal cadence, for a range
//! of group-commit sizes. Query parity (candidates + `QueryStats`,
//! FNV-folded) between both indexes is asserted for every batch size, and
//! the epoch count must equal one per batch plus one per seal — the
//! group-commit publication contract, enforced inside the bench run.
//!
//! Modes:
//! - default: full-size workloads; writes `BENCH_kernels.json` (schema
//!   `bench name -> {scalar_ns, simd_ns, speedup, n, dim}`) and
//!   `BENCH_ingest.json` (schema `ingest_batch_B -> {publishing_ns,
//!   inplace_ns, ratio, n, shards, epochs}`) at the repo root
//!   (nanoseconds are best-of-reps for the whole workload).
//! - `--smoke`: small workloads, no files written — a fast CI tripwire
//!   for dispatch-path divergence and write-path parity.

use dsh_core::combinators::{Concat, Power};
use dsh_core::family::{DshFamily, PointHasher};
use dsh_core::kernels;
use dsh_core::points::{BitStore, BitVector, DenseStore, DenseVector, PointStore};
use dsh_core::BoxedDshFamily;
use dsh_data::hamming_data::{point_at_distance, uniform_hamming};
use dsh_data::sphere_data::uniform_sphere;
use dsh_euclidean::ShiftedEuclideanDsh;
use dsh_hamming::{AntiBitSampling, BitSampling, PolynomialHammingDsh};
use dsh_index::{
    measures, DynamicIndex, HashTableIndex, QueryStats, RangeReportingIndex, ShardedIndex,
};
use dsh_math::rng::{derive_seed, seeded};
use dsh_math::Polynomial;
use dsh_sphere::tensor_sketch::SketchedPolynomialSphereDsh;
use dsh_sphere::{CrossPolytopeAnti, FilterDshMinus, PolynomialSphereDsh, SimHash};
use std::time::Instant;

/// Marker the parent sets (alongside `DSH_FORCE_SCALAR=1`) so the child
/// invocation reports raw measurements instead of recursing.
const CHILD_MARKER: &str = "DSH_BENCH_REPORT_CHILD";

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(acc: u64, x: u64) -> u64 {
    x.to_le_bytes().iter().fold(acc, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Every row of `BENCH_kernels.json`, in emission order. `run_benches`
/// names its samples from this list by position, and the test at the
/// bottom pins the checked-in file to it.
const KERNEL_ROWS: [&str; 30] = [
    "dense_dot_many_verify",
    "dense_euclidean_many_verify",
    "bit_hamming_many_verify",
    "csr_candidate_collect_batch",
    "csr_bucket_walk_batch",
    "gaussian_cap_fill_d64",
    "filter_eval_t1.0",
    "filter_eval_block_t1.0",
    "filter_eval_t1.5",
    "filter_eval_block_t1.5",
    "filter_eval_t2.0",
    "filter_eval_block_t2.0",
    "filter_eval_t2.5",
    "filter_eval_block_t2.5",
    "t3_exact_valiant_d8",
    "t3_tensorsketch_m1024_d8",
    "t3_exact_valiant_d16",
    "t3_tensorsketch_m1024_d16",
    "t3_exact_valiant_d32",
    "t3_tensorsketch_m1024_d32",
    "hash_eval_bit_sampling",
    "hash_eval_anti_bit_sampling",
    "hash_eval_poly_hamming",
    "hash_eval_simhash",
    "hash_eval_cross_polytope_anti",
    "hash_eval_filter_minus_t1.5",
    "hash_eval_filter_minus_t1.5_block",
    "hash_eval_shifted_euclidean",
    "range_query_flat",
    "range_query_one_insert",
];

/// One measured workload: best-of-reps wall time plus the output
/// checksum that pins bit-parity across dispatch paths.
struct Sample {
    name: &'static str,
    ns: u128,
    checksum: u64,
    n: usize,
    dim: usize,
}

/// Workload sizes; `--smoke` shrinks everything so the whole report runs
/// in seconds while still crossing every kernel path.
struct Sizes {
    verify_n: usize,
    candidates: usize,
    dense_d: usize,
    bit_d: usize,
    csr_n: usize,
    csr_queries: usize,
    hash_points: usize,
    range_centres: usize,
    range_uniform: usize,
    reps: usize,
}

const FULL: Sizes = Sizes {
    verify_n: 200_000,
    candidates: 50_000,
    dense_d: 64,
    bit_d: 256,
    csr_n: 500_000,
    csr_queries: 256,
    hash_points: 1024,
    range_centres: 1000,
    range_uniform: 28_000,
    reps: 15,
};

const SMOKE: Sizes = Sizes {
    verify_n: 20_000,
    candidates: 5_000,
    dense_d: 64,
    bit_d: 256,
    csr_n: 10_000,
    csr_queries: 32,
    hash_points: 16,
    range_centres: 50,
    range_uniform: 1_400,
    reps: 5,
};

/// Best-of-`reps` wall time of `f`, with one untimed warmup call.
fn time<R>(reps: usize, mut f: impl FnMut() -> R) -> (u128, R) {
    let mut result = f();
    let mut best = u128::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        result = f();
        best = best.min(t.elapsed().as_nanos());
    }
    (best, result)
}

/// Append a sample, named by its position in [`KERNEL_ROWS`].
fn record(samples: &mut Vec<Sample>, ns: u128, checksum: u64, n: usize, dim: usize) {
    let name = KERNEL_ROWS[samples.len()];
    samples.push(Sample {
        name,
        ns,
        checksum,
        n,
        dim,
    });
}

/// Time `h` over every row of `points` and record the sample; the
/// checksum folds every hash value.
fn record_hashing<S: PointStore>(
    samples: &mut Vec<Sample>,
    reps: usize,
    h: &dyn PointHasher<S::Row>,
    points: &S,
    dim: usize,
) {
    let mut out = Vec::with_capacity(points.len());
    let (ns, ()) = time(reps, || {
        out.clear();
        out.extend((0..points.len()).map(|i| h.hash(points.row(i))));
    });
    let checksum = out.iter().fold(FNV_SEED, |acc, &x| fnv(acc, x));
    record(samples, ns, checksum, points.len(), dim);
}

/// Rows per `hash_many` call of the `*_block` rows: the index's
/// bulk-build block.
const HASH_BLOCK: usize = 256;

/// The `*_block` twin of the [`record_hashing`] sample just recorded: the
/// same hasher over the same points through `hash_many`, which must fold
/// to the same checksum. What the per-row row prices is one query; this
/// one prices a bulk build or a query batch.
fn record_block_hashing<S: PointStore>(
    samples: &mut Vec<Sample>,
    reps: usize,
    h: &dyn PointHasher<S::Row>,
    points: &S,
    dim: usize,
) {
    let rows: Vec<&S::Row> = (0..points.len()).map(|i| points.row(i)).collect();
    let mut out = vec![0; rows.len()];
    let (ns, ()) = time(reps, || {
        for (rows, out) in rows.chunks(HASH_BLOCK).zip(out.chunks_mut(HASH_BLOCK)) {
            h.hash_many(rows, out);
        }
    });
    let checksum = out.iter().fold(FNV_SEED, |acc, &x| fnv(acc, x));
    let per_row = samples.last().expect("recorded after its per-row twin");
    assert_eq!(
        checksum, per_row.checksum,
        "hash_many diverged from the hash loop of {}",
        per_row.name
    );
    record(samples, ns, checksum, points.len(), dim);
}

fn run_benches(s: &Sizes) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut rng = seeded(0xB37C);

    // Dense verification: the candidate-row gather the ANN verify loop
    // performs, through the DenseStore facade (dispatch + prefetch).
    let mut store = DenseStore::with_dim(s.dense_d);
    for _ in 0..s.verify_n {
        let p = DenseVector::random_unit(&mut rng, s.dense_d);
        store.push(p.as_slice());
    }
    let q = DenseVector::random_unit(&mut rng, s.dense_d);
    let ids: Vec<usize> = (0..s.candidates)
        .map(|_| rng.random_range(0..s.verify_n))
        .collect();
    let mut out = Vec::with_capacity(ids.len());
    let (ns, ()) = time(s.reps, || {
        store.dot_many(&ids, q.as_slice(), &mut out);
    });
    let checksum = out.iter().fold(FNV_SEED, |h, x| fnv(h, x.to_bits()));
    record(&mut samples, ns, checksum, s.candidates, s.dense_d);
    let (ns, ()) = time(s.reps, || {
        store.euclidean_many(&ids, q.as_slice(), &mut out);
    });
    let checksum = out.iter().fold(FNV_SEED, |h, x| fnv(h, x.to_bits()));
    record(&mut samples, ns, checksum, s.candidates, s.dense_d);

    // Packed Hamming verification through the BitStore facade.
    let mut bits = BitStore::with_dim(s.bit_d);
    for _ in 0..s.verify_n {
        bits.push_random(&mut rng);
    }
    let bq = BitVector::random(&mut rng, s.bit_d);
    let mut bout = Vec::with_capacity(ids.len());
    let (ns, ()) = time(s.reps, || {
        bits.hamming_many(&ids, bq.as_blocks(), &mut bout);
    });
    let checksum = bout.iter().fold(FNV_SEED, |h, &x| fnv(h, x));
    record(&mut samples, ns, checksum, s.candidates, s.bit_d);

    // Batched CSR candidate collection: for each query, the bucket /
    // id-array walk with visited-stamp dedup (stamp prefetch on the
    // SIMD tiers) feeding the dense candidate-row verification gather
    // (`euclidean_many`, row prefetch) — the per-query candidate pass
    // the ANN serving path runs. The walk-only phase is also reported
    // separately so the trajectory separates dedup-walk gains from
    // verification gains.
    let mut build_rng = seeded(0xB37D);
    let mut csr_store = DenseStore::with_dim(s.dense_d);
    for _ in 0..s.csr_n {
        let p = DenseVector::random_unit(&mut build_rng, s.dense_d);
        csr_store.push(p.as_slice());
    }
    let fam = Power::new(SimHash::new(s.dense_d), 12);
    let idx = HashTableIndex::build(&fam, csr_store, 8, &mut build_rng);
    let queries: Vec<DenseVector> = (0..s.csr_queries)
        .map(|_| DenseVector::random_unit(&mut build_rng, s.dense_d))
        .collect();
    let mut scratch = idx.new_scratch();
    let mut dists = Vec::new();
    let (ns, checksum) = time(s.reps, || {
        let mut h = FNV_SEED;
        for q in &queries {
            let (cands, _) = idx.candidates_with(q, None, &mut scratch);
            idx.store().euclidean_many(&cands, q.as_slice(), &mut dists);
            h = cands.iter().fold(h, |h, &i| fnv(h, i as u64));
            h = dists.iter().fold(h, |h, x| fnv(h, x.to_bits()));
        }
        h
    });
    record(&mut samples, ns, checksum, s.csr_n, s.dense_d);
    let (ns, checksum) = time(s.reps, || {
        let mut h = FNV_SEED;
        for q in &queries {
            let (cands, stats) = idx.candidates_with(q, None, &mut scratch);
            h = cands.iter().fold(h, |h, &i| fnv(h, i as u64));
            h = fnv(h, stats.candidates_retrieved as u64);
        }
        h
    });
    record(&mut samples, ns, checksum, s.csr_n, s.dense_d);

    // The filter families' cap generator alone: `64 * hash_points` caps
    // of 64 coordinates. The timed loop folds each cap with a plain xor
    // so the generator, not the checksum, is what is timed; the FNV
    // checksum is taken over the same caps afterwards.
    let caps = 64 * s.hash_points as u64;
    let mut cap = [0.0; 64];
    let mut fill = |key: u64| {
        kernels::gaussian_cap(derive_seed(0xCA9, key), &mut cap);
        cap
    };
    let (ns, _) = time(s.reps, || {
        (0..caps).fold(0u64, |acc, key| {
            fill(key).iter().fold(acc, |a, x| a ^ x.to_bits())
        })
    });
    let checksum = (0..caps).fold(FNV_SEED, |h, key| {
        fill(key).iter().fold(h, |h, x| fnv(h, x.to_bits()))
    });
    record(&mut samples, ns, checksum, caps as usize, cap.len());

    // Theorem 1.2's `O(d t^4 e^{t^2/2})` evaluation cost: a filter hash
    // scans ~`1/Pr[Z >= t]` caps, so time should track `t e^{t^2/2}` —
    // and, a row at a time, is mostly the generation of those caps, which
    // a block shares.
    let d = 32;
    let mut rng = seeded(0xBE2);
    let points = DenseStore::from(uniform_sphere(&mut rng, s.hash_points, d));
    for t in [1.0, 1.5, 2.0, 2.5] {
        let pair = FilterDshMinus::new(d, t).sample(&mut rng);
        record_hashing(&mut samples, s.reps, &*pair.data, &points, d);
        record_block_hashing(&mut samples, s.reps, &*pair.data, &points, d);
    }

    // The remark after Theorem 5.1: hashing `t^3` through the exact
    // `O(d^k)` Valiant embedding (D = d^3) against the
    // `O(k(d + m log m))` TensorSketch, as the input dimension grows.
    let cube = Polynomial::new(vec![0.0, 0.0, 0.0, 1.0]);
    for d in [8, 16, 32] {
        let mut rng = seeded(0xBE7);
        let points = DenseStore::from(uniform_sphere(&mut rng, s.hash_points, d));
        let exact = PolynomialSphereDsh::new(d, &cube).sample(&mut rng);
        record_hashing(&mut samples, s.reps, &*exact.data, &points, d);
        let sketched = SketchedPolynomialSphereDsh::new(d, &cube, 1024).sample(&mut rng);
        record_hashing(&mut samples, s.reps, &*sketched.data, &points, d);
    }

    // The per-point price of one `(h, g)` evaluation of each family.
    let d = 64;
    let mut rng = seeded(0xBE1);
    let bit_points = BitStore::from(uniform_hamming(&mut rng, s.hash_points, d));
    let points = DenseStore::from(uniform_sphere(&mut rng, s.hash_points, d));
    let poly = PolynomialHammingDsh::from_polynomial(d, &Polynomial::new(vec![0.0, 1.0, -1.0]))
        .expect("t(1 - t) is a valid Hamming CPF");
    for h in [
        BitSampling::new(d).sample(&mut rng).data,
        AntiBitSampling::new(d).sample(&mut rng).query,
        poly.sample(&mut rng).data,
    ] {
        record_hashing(&mut samples, s.reps, &*h, &bit_points, d);
    }
    for (h, shares_work_across_a_block) in [
        (SimHash::new(d).sample(&mut rng).data, false),
        (CrossPolytopeAnti::new(d).sample(&mut rng).query, false),
        (FilterDshMinus::new(d, 1.5).sample(&mut rng).data, true),
        (
            ShiftedEuclideanDsh::new(d, 3, 1.0).sample(&mut rng).data,
            false,
        ),
    ] {
        record_hashing(&mut samples, s.reps, &*h, &points, d);
        if shares_work_across_a_block {
            record_block_hashing(&mut samples, s.reps, &*h, &points, d);
        }
    }

    record_range_queries(&mut samples, s);

    assert_eq!(samples.len(), KERNEL_ROWS.len(), "KERNEL_ROWS is stale");
    samples
}

/// The two `range_query_*` rows: range reporting (Theorem 6.5) at the
/// `lib-range-hamming` shape — `d = 256`, every centre with 100 points
/// at 8–12 bits, uniform points besides, `(1 - t)^10 t` at `L = 67`,
/// `r = 0.05`, `r_plus = 0.2` — over a `DynamicIndex`, each centre
/// queried once in a one-thread batch. The first row reads a store that
/// is one frozen chunk; the second reads it after one uniform insert
/// has put a row in the tail, so candidate lists span two parts. The
/// insert is far from every centre, so both rows must fold the same
/// answers.
fn record_range_queries(samples: &mut Vec<Sample>, s: &Sizes) {
    let d = 256;
    let mut rng = seeded(0xB3A6);
    let centres: Vec<BitVector> = (0..s.range_centres)
        .map(|_| BitVector::random(&mut rng, d))
        .collect();
    let mut points = uniform_hamming(&mut rng, s.range_uniform, d);
    for c in &centres {
        for _ in 0..100 {
            let bits = rng.random_range(8..13);
            points.push(point_at_distance(&mut rng, c, bits));
        }
    }
    for i in (1..points.len()).rev() {
        points.swap(i, rng.random_range(0..i + 1));
    }
    let n = points.len();
    let family = Concat::new(vec![
        Box::new(Power::new(BitSampling::new(d), 10)) as BoxedDshFamily<[u64]>,
        Box::new(AntiBitSampling::new(d)),
    ]);
    let index = DynamicIndex::build(&family, BitStore::from(points), 67, &mut rng);
    let mut range = RangeReportingIndex::over(index, measures::relative_hamming(d), 0.05, 0.2);
    let queries = BitStore::from(centres);
    let timed = |range: &RangeReportingIndex<BitStore, DynamicIndex<BitStore>>| {
        time(s.reps, || {
            let answers = range.query_batch_with_threads(&queries, 1);
            answers.iter().fold(FNV_SEED, |h, (ids, _)| {
                ids.iter()
                    .fold(fnv(h, ids.len() as u64), |h, &i| fnv(h, i as u64))
            })
        })
    };
    let (ns, checksum) = timed(&range);
    record(samples, ns, checksum, n, d);
    range
        .backend_mut()
        .insert(&BitVector::random(&mut rng, d))
        .expect("one insert fits the id space");
    let (ns, after) = timed(&range);
    assert_eq!(after, checksum, "one far insert changed the range answers");
    record(samples, ns, after, n, d);
}

/// Group-commit sizes the ingest benchmark sweeps. Every size divides
/// the seal cadence, so seal boundaries land identically for all of them
/// (and for the per-op in-place baseline) — a precondition for the
/// bit-parity assertion.
const INGEST_BATCHES: [usize; 4] = [1, 8, 64, 256];

/// The `BENCH_ingest.json` row of one group-commit size.
fn ingest_row_name(batch: usize) -> String {
    format!("ingest_batch_{batch}")
}

/// Workload knobs for the write-path (ingest) benchmark.
struct IngestSizes {
    n: usize,
    d: usize,
    k: usize,
    l: usize,
    seal_every: usize,
    shards: usize,
    queries: usize,
    reps: usize,
}

const INGEST_FULL: IngestSizes = IngestSizes {
    n: 20_000,
    d: 128,
    k: 16,
    l: 12,
    seal_every: 256,
    shards: 4,
    queries: 64,
    reps: 3,
};

const INGEST_SMOKE: IngestSizes = IngestSizes {
    n: 1_024,
    d: 128,
    k: 16,
    l: 12,
    seal_every: 256,
    shards: 4,
    queries: 16,
    reps: 2,
};

/// Fold every query's candidates and full `QueryStats` into one FNV
/// checksum — the bit-parity fingerprint of an ingested index.
fn ingest_checksum(
    queries: &[BitVector],
    mut candidates: impl FnMut(&BitVector) -> (Vec<usize>, QueryStats),
) -> u64 {
    queries.iter().fold(FNV_SEED, |mut h, q| {
        let (cands, stats) = candidates(q);
        h = cands.iter().fold(h, |h, &i| fnv(h, i as u64));
        h = fnv(h, stats.tables_probed as u64);
        h = fnv(h, stats.candidates_retrieved as u64);
        h = fnv(h, stats.distinct_candidates as u64);
        fnv(h, stats.duplicates as u64)
    })
}

/// Time the publishing sharded ingest at each group-commit size against
/// the in-place unsharded baseline, assert query parity and the
/// one-epoch-per-batch publication contract, and return the JSON rows.
fn ingest_report(s: &IngestSizes) -> Vec<String> {
    let mut rng = seeded(0x16E5);
    let mut points = BitStore::with_dim(s.d);
    for _ in 0..s.n {
        points.push_random(&mut rng);
    }
    let queries: Vec<BitVector> = (0..s.queries)
        .map(|_| BitVector::random(&mut rng, s.d))
        .collect();
    let fam = Power::new(BitSampling::new(s.d), s.k);

    // In-place baseline: per-op inserts into the unsharded index, sealed
    // every `seal_every` rows — the write path without publication.
    let (inplace_ns, inplace) = time(s.reps, || {
        let mut idx = DynamicIndex::build(&fam, BitStore::with_dim(s.d), s.l, &mut seeded(0x16E6));
        for i in 0..s.n {
            idx.insert(points.row(i)).unwrap();
            if (i + 1) % s.seal_every == 0 {
                idx.seal();
            }
        }
        idx
    });
    let want = ingest_checksum(&queries, |q| inplace.candidates(q, None));

    let mut rows = Vec::new();
    for &batch in &INGEST_BATCHES {
        let (ns, idx) = time(s.reps, || {
            let mut idx = ShardedIndex::build(
                &fam,
                BitStore::with_dim(s.d),
                s.l,
                s.shards,
                &mut seeded(0x16E6),
            );
            let mut done = 0usize;
            while done < s.n {
                let hi = (done + batch).min(s.n);
                let mut wb = idx.new_batch();
                for i in done..hi {
                    wb.insert(points.row(i));
                }
                idx.apply_batch(&wb).expect("in-range inserts");
                done = hi;
                if done.is_multiple_of(s.seal_every) {
                    idx.seal();
                }
            }
            idx
        });
        let got = ingest_checksum(&queries, |q| idx.candidates(q, None));
        assert_eq!(
            got, want,
            "publishing ingest (batch {batch}) broke query parity with in-place"
        );
        let epochs = idx.epoch() as usize;
        assert_eq!(
            epochs,
            s.n.div_ceil(batch) + s.n / s.seal_every,
            "batch {batch}: expected one epoch per group commit plus one per seal"
        );
        let ratio = ns as f64 / inplace_ns as f64;
        println!(
            "ingest batch {batch:>4}   publishing {ns:>12} ns   in-place {inplace_ns:>12} ns   ratio {ratio:.2}x   epochs {epochs}"
        );
        rows.push(format!(
            "  \"{}\": {{ \"publishing_ns\": {}, \"inplace_ns\": {}, \"ratio\": {:.2}, \"n\": {}, \"shards\": {}, \"epochs\": {} }}",
            ingest_row_name(batch), ns, inplace_ns, ratio, s.n, s.shards, epochs
        ));
    }
    println!(
        "ingest parity: all {} batch sizes answer bit-identically to the in-place index",
        INGEST_BATCHES.len()
    );
    rows
}

/// Child mode: print raw measurements for the parent to merge.
fn report_child(s: &Sizes) {
    println!("KERNEL={}", kernels::active().name);
    for b in run_benches(s) {
        println!(
            "BENCH name={} ns={} checksum={:016x} n={} dim={}",
            b.name, b.ns, b.checksum, b.n, b.dim
        );
    }
}

/// A child `BENCH` line, parsed.
fn parse_child_line(line: &str) -> Option<(String, u128, u64)> {
    let mut name = None;
    let mut ns = None;
    let mut checksum = None;
    for field in line.strip_prefix("BENCH ")?.split_whitespace() {
        let (k, v) = field.split_once('=')?;
        match k {
            "name" => name = Some(v.to_string()),
            "ns" => ns = v.parse::<u128>().ok(),
            "checksum" => checksum = u64::from_str_radix(v, 16).ok(),
            _ => {}
        }
    }
    Some((name?, ns?, checksum?))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes = if smoke { &SMOKE } else { &FULL };

    if std::env::var_os(CHILD_MARKER).is_some() {
        report_child(sizes);
        return;
    }

    let tier = kernels::active().name;
    eprintln!("bench-report: active dispatch tier = {tier}");
    if tier == "scalar" {
        // `DSH_FORCE_SCALAR` left set in the shell, or a CPU with no SIMD
        // tier: both sides would time the same kernels.
        if !smoke {
            eprintln!(
                "bench-report: parent already dispatches scalar; refusing to overwrite \
                 BENCH_kernels.json with ~1.0x speedups"
            );
            std::process::exit(1);
        }
        eprintln!("bench-report: warning: parent already dispatches scalar; speedups will be ~1.0");
    }

    let native = run_benches(sizes);

    // Scalar side: same binary, same workloads, dispatch pinned.
    let exe = std::env::current_exe().expect("own binary path");
    let mut cmd = std::process::Command::new(exe);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .env(CHILD_MARKER, "1")
        .env("DSH_FORCE_SCALAR", "1")
        .output()
        .expect("spawning forced-scalar child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "scalar child failed:\n{stdout}");
    assert!(
        stdout.lines().any(|l| l == "KERNEL=scalar"),
        "child did not dispatch to the scalar tier:\n{stdout}"
    );
    let scalar: Vec<(String, u128, u64)> = stdout.lines().filter_map(parse_child_line).collect();
    assert_eq!(
        scalar.len(),
        native.len(),
        "child reported {} benches, expected {}:\n{stdout}",
        scalar.len(),
        native.len()
    );

    let mut rows = Vec::new();
    let mut parity_failures = 0;
    for (b, (sname, sns, schecksum)) in native.iter().zip(&scalar) {
        assert_eq!(b.name, sname, "bench order mismatch");
        if b.checksum != *schecksum {
            eprintln!(
                "PARITY FAILURE: {}: {} ({:016x}) != scalar ({:016x})",
                b.name, tier, b.checksum, schecksum
            );
            parity_failures += 1;
        }
        let speedup = *sns as f64 / b.ns as f64;
        println!(
            "{:<30} scalar {:>12} ns   {} {:>12} ns   speedup {:.2}x",
            b.name, sns, tier, b.ns, speedup
        );
        rows.push(format!(
            "  \"{}\": {{ \"scalar_ns\": {}, \"simd_ns\": {}, \"speedup\": {:.2}, \"n\": {}, \"dim\": {} }}",
            b.name, sns, b.ns, speedup, b.n, b.dim
        ));
    }
    assert_eq!(
        parity_failures, 0,
        "{parity_failures} bench(es) broke scalar/SIMD bit-parity"
    );
    println!(
        "parity: all {} bench checksums identical under both dispatch paths",
        rows.len()
    );

    // Write path: publishing (group-commit) vs in-place ingest.
    let ingest_rows = ingest_report(if smoke { &INGEST_SMOKE } else { &INGEST_FULL });

    if smoke {
        println!("smoke mode: BENCH_kernels.json / BENCH_ingest.json not written");
        return;
    }

    // The workspace root is two levels above this crate's manifest.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let path = root.join("BENCH_kernels.json");
    let json = format!("{{\n{}\n}}\n", rows.join(",\n"));
    std::fs::write(&path, json).expect("writing BENCH_kernels.json");
    println!("wrote {}", path.display());
    let path = root.join("BENCH_ingest.json");
    let json = format!("{{\n{}\n}}\n", ingest_rows.join(",\n"));
    std::fs::write(&path, json).expect("writing BENCH_ingest.json");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The keys of a checked-in `BENCH_*.json`, in file order (one
    /// `"name": { .. }` row per line, as `main` writes them).
    fn keys(json: &str) -> Vec<&str> {
        json.lines()
            .filter_map(|l| l.trim_start().strip_prefix('"')?.split('"').next())
            .collect()
    }

    #[test]
    fn checked_in_rows_are_exactly_the_rows_the_tool_emits() {
        let kernels = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_kernels.json"
        ));
        assert_eq!(keys(kernels), KERNEL_ROWS);
        let ingest = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_ingest.json"
        ));
        assert_eq!(keys(ingest), INGEST_BATCHES.map(ingest_row_name));
    }
}
