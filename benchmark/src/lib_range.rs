//! `lib-range-hamming`: output-sensitive range reporting with a step CPF
//! (Theorem 6.5), in process.
//!
//! Every query centre has a cluster of ~100 points inside radius `r`, so
//! a query's time goes to walking buckets, de-duplicating, and verifying
//! candidates — `table`, `kernels`, `frontend` — and only a small share
//! to the 67 cheap bit-sampling hashers. No `dynamic`, `shard` or
//! `server` layer runs: a kernel or dedupe change must move this
//! workload and leave `lib-annulus-sphere` flat.

use std::time::Instant;

use dsh_core::combinators::{Concat, Power};
use dsh_core::family::{DshFamily, HasherPair};
use dsh_core::points::{BitStore, BitVector};
use dsh_core::BoxedDshFamily;
use dsh_data::hamming_data::point_at_distance;
use dsh_hamming::{AntiBitSampling, BitSampling};
use dsh_index::{measures, LinearScan, QueryStats, RangeReportingIndex};
use dsh_math::rng::child;
use rand::rngs::StdRng;

use crate::report::{median, median_us, peak_rss_mb, quantile_us, Report};
use crate::{shuffled_ids, threads, Opts, MIN_WINDOWS, RSS_WINDOWS};

pub const D: usize = 256;
/// Recall target radius and reporting slack, as relative distances.
pub const R: f64 = 0.05;
pub const R_PLUS: f64 = 0.2;
/// `Power(BitSampling, K)` concatenated with one `AntiBitSampling`:
/// CPF `(1 - t)^K t`.
pub const K: usize = 10;
/// Cluster points sit at a distance uniform in this range of bits. The
/// step CPF is within a quarter of its peak only on the upper part of
/// `[0, r]` (at 1 bit it is an eighth of `f(r)`), so a cluster spread over
/// all of `[1, 12]` bits would be reported with recall 0.66 at `L = 67`.
const CLUSTER_BITS: std::ops::RangeInclusive<usize> = 8..=12;
const CLUSTER: usize = 100;
/// `query_batch_with_threads` calls (each over the whole query set) per
/// window.
const PASSES_PER_WINDOW: usize = 2;
/// Rows re-asked one at a time after each window.
const ROW_SAMPLE: usize = 8;
const MIN_RECALL: f64 = 0.8;

const STREAM_DATA: u64 = 1;
const STREAM_FAMILY: u64 = 2;

pub struct Params {
    pub queries: usize,
    pub uniform: usize,
    pub l: usize,
}

impl Params {
    pub fn new(scale: usize) -> Self {
        Params {
            queries: 1000 / scale,
            uniform: 28_000 / scale,
            l: (2.0 / ((1.0 - R).powi(K as i32) * R)).ceil() as usize,
        }
    }

    pub fn n(&self) -> usize {
        self.queries * CLUSTER + self.uniform
    }
}

pub fn family() -> Concat<[u64]> {
    Concat::new(vec![
        Box::new(Power::new(BitSampling::new(D), K)) as BoxedDshFamily<[u64]>,
        Box::new(AntiBitSampling::new(D)),
    ])
}

pub fn family_rng(seed: u64) -> StdRng {
    child(seed, STREAM_FAMILY)
}

/// The `L` hasher pairs an index built from `seed` holds.
pub fn pairs(seed: u64, l: usize) -> Vec<HasherPair<[u64]>> {
    let family = family();
    let mut rng = family_rng(seed);
    (0..l).map(|_| family.sample(&mut rng)).collect()
}

pub struct Instance {
    pub points: BitStore,
    pub queries: BitStore,
}

impl Instance {
    /// `queries` centres, each with [`CLUSTER`] points at a distance drawn
    /// from [`CLUSTER_BITS`], plus uniform points; seeded random positions.
    pub fn generate(seed: u64, p: &Params) -> Self {
        let mut rng = child(seed, STREAM_DATA);
        let n = p.n();
        let slot = shuffled_ids(&mut rng, n);
        let blocks = D / 64;
        let mut rows = vec![0u64; n * blocks];
        let mut put = |id: usize, v: &BitVector| {
            rows[id * blocks..(id + 1) * blocks].copy_from_slice(v.as_blocks());
        };
        let mut queries = BitStore::with_dim(D);
        let mut next = 0;
        for _ in 0..p.queries {
            let q = BitVector::random(&mut rng, D);
            for _ in 0..CLUSTER {
                let bits = rng.random_range(CLUSTER_BITS);
                put(slot[next], &point_at_distance(&mut rng, &q, bits));
                next += 1;
            }
            queries.push(&q);
        }
        for &id in &slot[next..] {
            put(id, &BitVector::random(&mut rng, D));
        }
        let mut points = BitStore::with_dim(D);
        for row in rows.chunks(blocks) {
            points.push_row(row);
        }
        Instance { points, queries }
    }
}

pub fn build(seed: u64, p: &Params, points: BitStore) -> RangeReportingIndex<BitStore> {
    RangeReportingIndex::build(
        &family(),
        measures::relative_hamming(D),
        R,
        R_PLUS,
        points,
        p.l,
        &mut family_rng(seed),
    )
}

/// One complete set-up, timed: `(set-up seconds, of which the index
/// build, instance, index)`.
fn timed_setup(seed: u64, p: &Params) -> (f64, f64, Instance, RangeReportingIndex<BitStore>) {
    let started = Instant::now();
    let inst = Instance::generate(seed, p);
    let build_started = Instant::now();
    let index = build(seed, p, inst.points.clone());
    let build_s = build_started.elapsed().as_secs_f64();
    (started.elapsed().as_secs_f64(), build_s, inst, index)
}

type Answer = (Vec<usize>, QueryStats);

pub fn run(opts: &Opts) -> Result<Report, String> {
    let p = Params::new(opts.scale);
    let mut report = Report::new();
    let threads = threads();

    let (setup_s, build_s, inst, index) = timed_setup(opts.seed, &p);
    let (mut setups, mut builds) = (vec![setup_s], vec![build_s]);

    // Timed phase: one window = PASSES_PER_WINDOW threaded batches over
    // the whole query set, then a few rows again through `query`.
    let mut window_qps = Vec::new();
    let mut row_ns = Vec::new();
    let mut answers: Vec<Answer> = Vec::new();
    let (mut attempted, mut loop_mismatches) = (0u64, 0u64);
    let mut checkpoint_rss_mb = 0.0;
    let timed = Instant::now();
    loop {
        let t0 = Instant::now();
        for _ in 0..PASSES_PER_WINDOW {
            answers = index.query_batch_with_threads(&inst.queries, threads);
        }
        let batch_queries = PASSES_PER_WINDOW * p.queries;
        window_qps.push(batch_queries as f64 / t0.elapsed().as_secs_f64());
        attempted += batch_queries as u64;

        let w = window_qps.len();
        for j in 0..ROW_SAMPLE {
            let row = (j * (p.queries / ROW_SAMPLE) + w) % p.queries;
            let t0 = Instant::now();
            let single = index.query(inst.queries.row(row));
            row_ns.push(t0.elapsed().as_nanos() as u64);
            attempted += 1;
            loop_mismatches += u64::from(single != answers[row]);
        }
        if w == RSS_WINDOWS {
            checkpoint_rss_mb = peak_rss_mb();
        }
        if w >= MIN_WINDOWS && timed.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let timed_s = timed.elapsed().as_secs_f64();
    drop(index);

    // Every pass gives the same answers; check the last one. Ground truth
    // by linear scan; every reported id re-measured with the batch kernel.
    let scan = LinearScan::new(inst.points.clone(), measures::relative_hamming(D));
    let (mut recall_sum, mut too_far, mut reported) = (0.0, 0u64, 0u64);
    let (mut ids, mut dists) = (Vec::new(), Vec::new());
    for (i, (out, _)) in answers.iter().enumerate() {
        let q = inst.queries.row(i);
        let (truth, _) = scan.all_in_interval(q, 0.0, R);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        let found = truth
            .iter()
            .filter(|id| sorted.binary_search(id).is_ok())
            .count();
        recall_sum += if truth.is_empty() {
            1.0
        } else {
            found as f64 / truth.len() as f64
        };
        ids.clear();
        ids.extend_from_slice(out);
        inst.points.hamming_many(&ids, q, &mut dists);
        too_far += dists
            .iter()
            .filter(|&&bits| bits as f64 / D as f64 > R_PLUS)
            .count() as u64;
        reported += out.len() as u64;
    }
    let recall = recall_sum / p.queries as f64;

    for _ in 1..opts.setup_reps {
        let (setup_s, build_s, ..) = timed_setup(opts.seed, &p);
        setups.push(setup_s);
        builds.push(build_s);
    }

    report.attempted = attempted;
    report.failed = too_far + loop_mismatches;
    report.check(too_far == 0, || {
        format!("{too_far} reported ids are farther than r_plus")
    });
    report.check(loop_mismatches == 0, || {
        format!("{loop_mismatches} batch answers differ from the row-at-a-time loop")
    });
    report.check(recall >= MIN_RECALL, || {
        format!("recall {recall} against the linear scan is below {MIN_RECALL}")
    });
    report.metric("setup_s", median(&mut setups));
    report.metric("queries_per_s", median(&mut window_qps));
    report.metric("query_p50_us", median_us(&row_ns));
    report.metric("ingest_points_per_s", p.n() as f64 / median(&mut builds));
    report.metric("recall", recall);
    report.metric("peak_rss_mb", checkpoint_rss_mb);

    report.info("n", p.n());
    report.info("l", p.l);
    report.info("threads", threads);
    report.info("timed_s", timed_s);
    report.info("windows", window_qps.len());
    report.info("row_samples", row_ns.len());
    report.info("row_p99_us", quantile_us(&row_ns, 0.99));
    report.info("reported_per_query", reported as f64 / p.queries as f64);
    report.info("answers_checksum", format!("{:#018x}", checksum(&answers)));
    Ok(report)
}

/// Fold every answer of one pass (ids in order, full stats).
pub fn checksum(answers: &[Answer]) -> u64 {
    use dsh_core::hash::combine;
    answers.iter().fold(0, |acc, (ids, stats)| {
        let acc = ids.iter().fold(acc, |a, &id| combine(a, id as u64));
        [
            ids.len() as u64,
            stats.tables_probed as u64,
            stats.candidates_retrieved as u64,
            stats.distinct_candidates as u64,
            stats.duplicates as u64,
            stats.distance_computations as u64,
        ]
        .into_iter()
        .fold(acc, combine)
    })
}
