//! `lib-annulus-sphere`: the paper's headline DSH application
//! (Theorem 6.2), in process.
//!
//! Unit vectors, each query with a planted point at the CPF's peak inner
//! product; a static [`AnnulusIndex`] over the unimodal filter family,
//! queried in threaded batches. Evaluating the `L` filter hashers is
//! nearly all of a query, so this is the workload where hash-evaluation
//! and build-parallelism changes show and bucket-walk or kernel changes
//! do not.

use std::time::Instant;

use dsh_core::cpf::AnalyticCpf;
use dsh_core::family::{DshFamily, HasherPair};
use dsh_core::points::{DenseStore, DenseVector};
use dsh_data::sphere_data::plant_at_alpha;
use dsh_index::annulus::AnnulusMatch;
use dsh_index::{measures, AnnulusIndex, QueryStats};
use dsh_math::rng::child;
use dsh_sphere::unimodal::annulus_interval;
use dsh_sphere::UnimodalFilterDsh;
use rand::rngs::StdRng;

use crate::report::{median, median_us, peak_rss_mb, quantile_us, Report};
use crate::{shuffled_ids, threads, Opts, MIN_WINDOWS, RSS_WINDOWS};

pub const D: usize = 64;
pub const ALPHA_MAX: f64 = 0.6;
const FILTER_T: f64 = 1.7;
/// Report interval: `annulus_interval(ALPHA_MAX, INTERVAL_S)`.
const INTERVAL_S: f64 = 1.25;
const SUCCESS_FACTOR: f64 = 1.5;
/// Queries per `query_batch_with_threads` call (= per window).
pub const BATCH: usize = 128;
/// Rows of each batch re-asked one at a time: the latency sample and the
/// batch-equals-loop check.
const ROW_SAMPLE: usize = 4;
/// Theorem 6.1's guarantee.
const MIN_SUCCESS: f64 = 0.5;

const STREAM_DATA: u64 = 1;
const STREAM_FAMILY: u64 = 2;

pub struct Params {
    pub n: usize,
    pub queries: usize,
    pub l: usize,
    pub interval: (f64, f64),
}

impl Params {
    pub fn new(scale: usize) -> Self {
        let family = family();
        Params {
            n: 2_560 / scale,
            queries: (2048 / scale).div_ceil(BATCH) * BATCH,
            l: (SUCCESS_FACTOR / family.cpf(ALPHA_MAX)).ceil() as usize,
            interval: annulus_interval(ALPHA_MAX, INTERVAL_S),
        }
    }
}

pub fn family() -> UnimodalFilterDsh {
    UnimodalFilterDsh::new(D, ALPHA_MAX, FILTER_T)
}

pub fn family_rng(seed: u64) -> StdRng {
    child(seed, STREAM_FAMILY)
}

/// The `L` hasher pairs an index built from `seed` holds (builds sample
/// their pairs first thing from this stream).
pub fn pairs(seed: u64, l: usize) -> Vec<HasherPair<[f64]>> {
    let family = family();
    let mut rng = family_rng(seed);
    (0..l).map(|_| family.sample(&mut rng)).collect()
}

pub struct Instance {
    pub points: DenseStore,
    /// The query set, in [`BATCH`]-row stores.
    pub batches: Vec<DenseStore>,
}

impl Instance {
    /// `queries` unit vectors, each with one planted point at inner
    /// product [`ALPHA_MAX`]; the other points uniform on the sphere; all
    /// at seeded random positions.
    pub fn generate(seed: u64, p: &Params) -> Self {
        let mut rng = child(seed, STREAM_DATA);
        let slot = shuffled_ids(&mut rng, p.n);
        let mut rows = vec![0.0f64; p.n * D];
        let mut put = |id: usize, v: &DenseVector| {
            rows[id * D..(id + 1) * D].copy_from_slice(v.as_slice());
        };
        let mut batches: Vec<DenseStore> = Vec::new();
        for i in 0..p.queries {
            let q = DenseVector::random_unit(&mut rng, D);
            put(slot[i], &plant_at_alpha(&mut rng, &q, ALPHA_MAX));
            if i % BATCH == 0 {
                batches.push(DenseStore::with_dim(D));
            }
            batches[i / BATCH].push(q.as_slice());
        }
        for &id in &slot[p.queries..] {
            put(id, &DenseVector::random_unit(&mut rng, D));
        }
        Instance {
            points: DenseStore::from_flat(rows, D),
            batches,
        }
    }
}

pub fn build(seed: u64, p: &Params, points: DenseStore) -> AnnulusIndex<DenseStore> {
    AnnulusIndex::build(
        &family(),
        measures::inner_product(),
        p.interval,
        points,
        p.l,
        &mut family_rng(seed),
    )
}

/// One complete set-up, timed: `(set-up seconds, of which the index
/// build, instance, index)`.
fn timed_setup(seed: u64, p: &Params) -> (f64, f64, Instance, AnnulusIndex<DenseStore>) {
    let started = Instant::now();
    let inst = Instance::generate(seed, p);
    let build_started = Instant::now();
    let index = build(seed, p, inst.points.clone());
    let build_s = build_started.elapsed().as_secs_f64();
    (started.elapsed().as_secs_f64(), build_s, inst, index)
}

type Answer = (Option<AnnulusMatch>, QueryStats);

pub fn run(opts: &Opts) -> Result<Report, String> {
    let p = Params::new(opts.scale);
    let mut report = Report::new();
    let threads = threads();

    let (setup_s, build_s, inst, index) = timed_setup(opts.seed, &p);
    let (mut setups, mut builds) = (vec![setup_s], vec![build_s]);

    // Timed phase: one window = one threaded batch, then a few of its
    // rows again through `query`. Every batch of the query set is visited
    // at least once, so recall covers all queries whatever `--seconds`.
    let min_windows = MIN_WINDOWS.max(inst.batches.len());
    let mut window_qps = Vec::new();
    let mut row_ns = Vec::new();
    let mut first_pass: Vec<Vec<Answer>> = Vec::new();
    let (mut failed, mut attempted, mut loop_mismatches) = (0u64, 0u64, 0u64);
    let mut checkpoint_rss_mb = 0.0;
    let timed = Instant::now();
    loop {
        let w = window_qps.len();
        let batch = &inst.batches[w % inst.batches.len()];
        let t0 = Instant::now();
        let answers = index.query_batch_with_threads(batch, threads);
        window_qps.push(BATCH as f64 / t0.elapsed().as_secs_f64());
        attempted += BATCH as u64;
        failed += answers
            .iter()
            .filter(|(hit, _)| {
                hit.is_some_and(|m| m.value < p.interval.0 || m.value > p.interval.1)
            })
            .count() as u64;

        for j in 0..ROW_SAMPLE {
            // A different residue each pass, so the sample walks the batch.
            let row = (j * (BATCH / ROW_SAMPLE) + w / inst.batches.len()) % BATCH;
            let t0 = Instant::now();
            let single = index.query(batch.row(row));
            row_ns.push(t0.elapsed().as_nanos() as u64);
            attempted += 1;
            loop_mismatches += u64::from(single != answers[row]);
            // The reported value is the exact measure of the reported point.
            let consistent = single.0.is_none_or(|m| {
                m.index < p.n
                    && dsh_core::points::dot(inst.points.row(m.index), batch.row(row)) == m.value
            });
            failed += u64::from(!consistent);
        }
        if first_pass.len() < inst.batches.len() {
            first_pass.push(answers);
        }
        if window_qps.len() == RSS_WINDOWS {
            checkpoint_rss_mb = peak_rss_mb();
        }
        if window_qps.len() >= min_windows && timed.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let timed_s = timed.elapsed().as_secs_f64();
    drop(index);

    for _ in 1..opts.setup_reps {
        let (setup_s, build_s, ..) = timed_setup(opts.seed, &p);
        setups.push(setup_s);
        builds.push(build_s);
    }

    let hits = first_pass
        .iter()
        .flatten()
        .filter(|a| a.0.is_some())
        .count();
    let success = hits as f64 / p.queries as f64;
    report.attempted = attempted;
    report.failed = failed + loop_mismatches;
    report.check(failed == 0, || {
        format!("{failed} answers outside the report interval or inconsistent")
    });
    report.check(loop_mismatches == 0, || {
        format!("{loop_mismatches} batch answers differ from the row-at-a-time loop")
    });
    report.check(success >= MIN_SUCCESS, || {
        format!("success rate {success} is below Theorem 6.1's {MIN_SUCCESS}")
    });
    report.metric("setup_s", median(&mut setups));
    report.metric("queries_per_s", median(&mut window_qps));
    report.metric("query_p50_us", median_us(&row_ns));
    report.metric("ingest_points_per_s", p.n as f64 / median(&mut builds));
    report.metric("recall", success);
    report.metric("peak_rss_mb", checkpoint_rss_mb);

    report.info("n", p.n);
    report.info("l", p.l);
    report.info("threads", threads);
    report.info("timed_s", timed_s);
    report.info("windows", window_qps.len());
    report.info("row_samples", row_ns.len());
    report.info("row_p99_us", quantile_us(&row_ns, 0.99));
    report.info(
        "answers_checksum",
        format!("{:#018x}", checksum(first_pass.iter().flatten())),
    );
    Ok(report)
}

/// Fold every answer of one pass over the query set (match, value bits,
/// full stats) into a checksum.
pub fn checksum<'a>(answers: impl Iterator<Item = &'a Answer>) -> u64 {
    use dsh_core::hash::combine;
    answers.fold(0, |acc, (hit, stats)| {
        let (index, value) = hit.map_or((u64::MAX, 0), |m| (m.index as u64, m.value.to_bits()));
        [
            index,
            value,
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
