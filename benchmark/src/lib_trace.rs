//! The traced pass of the two `lib-*` workloads.
//!
//! No server, so the ledger has four rows, each a public function timed
//! from outside on the same query rows: the `L` query hashers (`family`),
//! `HashTableIndex::candidates_with` (`table`), the store's batch kernel
//! over the candidates the table returned (`kernels`), and the
//! front-end's `query` (`frontend`). The layers a `lib-*` workload
//! bypasses — `dynamic`, `shard`, `batch`, `protocol`, `server`, and the
//! wire-side `client` rows — report 0.

use std::hint::black_box;
use std::time::Instant;

use dsh_core::family::HasherPair;
use dsh_index::QueryStats;

use crate::report::{mean, median_us, quantile_us, Report, PER_LAYER};
use crate::trace::Spans;
use crate::{lib_annulus, lib_range, Opts};

/// Share of `--seconds` given to each of the loops below.
const LOOP_SHARE: f64 = 0.2;
/// Query rows the per-query counts are averaged over.
const COUNT_ROWS: usize = 256;
/// Rows per block of the overhead loop.
const OVERHEAD_BLOCK: usize = 8;
/// Requests whose spans are written to the span file.
const SPAN_FILE_REQUESTS: u64 = 2048;

/// One workload's layers as closures over its index, so the measuring
/// loop is written once for both front-ends.
struct Layers<'a, R: ?Sized, Q, C, V> {
    name: &'static str,
    /// Query rows, cycled through by every loop.
    rows: Vec<&'a R>,
    /// Indexed rows, for the data-side hashers.
    data_rows: Vec<&'a R>,
    pairs: Vec<HasherPair<R>>,
    /// The front-end's `query` on one row: results returned and stats.
    query: Q,
    /// `HashTableIndex::candidates_with` at the front-end's retrieval
    /// limit, with a reused scratch.
    candidates: C,
    /// The store's batch kernel over a candidate list.
    verify: V,
    retrieval_limit: f64,
    build_s: f64,
    k: f64,
}

fn ledger<R, Q, C, V>(opts: &Opts, mut layers: Layers<'_, R, Q, C, V>) -> Result<Report, String>
where
    R: ?Sized,
    Q: Fn(&R) -> (usize, QueryStats),
    C: FnMut(&R) -> (Vec<usize>, QueryStats),
    V: FnMut(&[usize], &R),
{
    let mut report = Report::new();
    let mut spans = Spans::new();
    let budget = opts.seconds * LOOP_SHARE;
    let rows = layers.rows.len();

    // Counts, over a fixed set of rows so that they repeat exactly for a
    // seed however many rows the timed loops below get through.
    let counted = rows.min(COUNT_ROWS);
    let (mut results, mut totals) = (0u64, QueryStats::default());
    for row in &layers.rows[..counted] {
        let (found, stats) = (layers.query)(row);
        results += found as u64;
        totals.merge(&stats);
        totals.distinct_candidates += stats.distinct_candidates;
    }
    let distance_computations = totals.distance_computations as u64;

    // The front-end without spans and with, on the same rows in blocks
    // that alternate which goes first: the tracing overhead, free of
    // drift and of the differences between rows.
    let started = Instant::now();
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    let mut traced = 0usize;
    for block in 0.. {
        if started.elapsed().as_secs_f64() >= 2.0 * budget {
            break;
        }
        let block_rows =
            (0..OVERHEAD_BLOCK).map(|j| layers.rows[(block * OVERHEAD_BLOCK + j) % rows]);
        for with_spans in [block % 2 == 1, block % 2 == 0] {
            let t0 = Instant::now();
            for row in block_rows.clone() {
                if !with_spans {
                    black_box((layers.query)(row));
                    continue;
                }
                let t0 = spans.now();
                black_box((layers.query)(row));
                spans.push("frontend.query", t0, spans.now(), None, traced as u64);
                traced += 1;
            }
            let ns = t0.elapsed().as_nanos() as u64;
            if with_spans {
                traced_ns += ns;
            } else {
                untraced_ns += ns;
            }
        }
    }
    let untraced_qps = traced as f64 / (untraced_ns as f64 / 1e9);
    let traced_qps = traced as f64 / (traced_ns as f64 / 1e9);

    // The same rows through the layers under the front-end.
    let started = Instant::now();
    let mut staged = 0usize;
    let (mut verified, mut verify_ns) = (0u64, 0u64);
    while started.elapsed().as_secs_f64() < budget {
        let row = layers.rows[staged % rows];
        let id = staged as u64;
        let t0 = spans.now();
        for pair in &layers.pairs {
            black_box(pair.query.hash(row));
        }
        let t1 = spans.now();
        let (cands, _) = (layers.candidates)(row);
        let t2 = spans.now();
        (layers.verify)(&cands, row);
        let t3 = spans.now();
        let parent = Some(spans.push("replay.query", t0, t3, None, id));
        spans.push("family.query_hash", t0, t1, parent, id);
        spans.push("table.candidates", t1, t2, parent, id);
        spans.push("kernels.verify", t2, t3, parent, id);
        verified += cands.len() as u64;
        verify_ns += t3 - t2;
        staged += 1;
    }

    let started = Instant::now();
    let mut data_hash_ns = Vec::new();
    while started.elapsed().as_secs_f64() < budget / 2.0 {
        let row = layers.data_rows[data_hash_ns.len() % layers.data_rows.len()];
        let t0 = Instant::now();
        for pair in &layers.pairs {
            black_box(pair.data.hash(row));
        }
        data_hash_ns.push(t0.elapsed().as_nanos() as u64);
    }

    let file = opts.out_dir.join(format!("{}.trace.jsonl", layers.name));
    let written = spans
        .write_jsonl(&file, SPAN_FILE_REQUESTS)
        .map_err(|e| format!("write {}: {e}", file.display()))?;

    let durations = spans.durations_by_name();
    let of = |name: &str| durations.get(name).map_or(&[][..], Vec::as_slice);
    let us = |name: &str| median_us(of(name));
    let query_us = us("frontend.query");
    let hash_us = us("family.query_hash");
    let candidates_us = us("table.candidates");
    let verify_ns_per_candidate = verify_ns as f64 / verified.max(1) as f64;
    let kernel_us = verify_ns_per_candidate * mean(distance_computations, counted) / 1e3;
    let query_ns = of("frontend.query");

    report.attempted = (2 * traced + staged) as u64;
    // Every metric starts at 0: a layer this workload bypasses stays there.
    let mut values: Vec<(&'static str, f64)> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    let mut set = |name: &str, value: f64| {
        if let Some(slot) = values.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        }
    };
    set("family.query_hash_us", hash_us);
    set("family.data_hash_us", median_us(&data_hash_ns));
    set("family.k", layers.k);
    set("family.l", layers.pairs.len() as f64);
    set("table.build_s", layers.build_s);
    set("table.candidates_us", candidates_us);
    set("table.walk_self_us", candidates_us - hash_us);
    set(
        "table.tables_probed",
        mean(totals.tables_probed as u64, counted),
    );
    set(
        "table.candidates_retrieved",
        mean(totals.candidates_retrieved as u64, counted),
    );
    set(
        "table.distinct_candidates",
        mean(totals.distinct_candidates as u64, counted),
    );
    set("table.duplicates", mean(totals.duplicates as u64, counted));
    set(
        "table.dup_ratio",
        totals.duplicates as f64 / totals.candidates_retrieved.max(1) as f64,
    );
    set("kernels.verify_ns_per_candidate", verify_ns_per_candidate);
    set(
        "kernels.candidates_per_call",
        mean(totals.distinct_candidates as u64, counted),
    );
    set("frontend.query_us", query_us);
    set("frontend.verify_self_us", query_us - candidates_us);
    set(
        "frontend.distance_computations",
        mean(distance_computations, counted),
    );
    set(
        "frontend.useful_ratio",
        results as f64 / distance_computations.max(1) as f64,
    );
    set("frontend.retrieval_limit", layers.retrieval_limit);
    set("client.query_p50_us", query_us);
    set("client.query_p99_us", quantile_us(query_ns, 0.99));
    set("client.query_p999_us", quantile_us(query_ns, 0.999));
    set("trace.overhead_share", 1.0 - traced_qps / untraced_qps);
    // Does the front-end cost what its parts cost? Candidates plus the
    // batch kernel's price for the distance computations it made.
    set(
        "trace.ledger_gap_share",
        (query_us - candidates_us - kernel_us).abs() / query_us,
    );
    report.metrics = values;

    report.info("query_samples", traced);
    report.info("replay_samples", staged);
    report.info("data_hash_samples", data_hash_ns.len());
    report.info("untraced_queries_per_s", untraced_qps);
    report.info("traced_queries_per_s", traced_qps);
    report.info("family_share_of_query", hash_us / query_us);
    report.info("span_file", file.display());
    report.info("span_file_lines", written);
    Ok(report)
}

pub fn run_annulus(opts: &Opts) -> Result<Report, String> {
    let p = lib_annulus::Params::new(opts.scale);
    let inst = lib_annulus::Instance::generate(opts.seed, &p);
    let t0 = Instant::now();
    let index = lib_annulus::build(opts.seed, &p, inst.points.clone());
    let build_s = t0.elapsed().as_secs_f64();
    let table = index.backend();
    let limit = 8 * p.l;
    let mut scratch = table.new_scratch();
    let mut dots = Vec::new();
    ledger(
        opts,
        Layers {
            name: "lib-annulus-sphere",
            rows: inst
                .batches
                .iter()
                .flat_map(|b| (0..b.len()).map(move |i| b.row(i)))
                .collect(),
            data_rows: (0..inst.points.len()).map(|i| inst.points.row(i)).collect(),
            pairs: lib_annulus::pairs(opts.seed, p.l),
            query: |row: &[f64]| {
                let (hit, stats) = index.query(row);
                (usize::from(hit.is_some()), stats)
            },
            candidates: move |row: &[f64]| table.candidates_with(row, Some(limit), &mut scratch),
            verify: move |ids: &[usize], row: &[f64]| {
                table.store().dot_many(ids, row, &mut dots);
                black_box(&dots);
            },
            retrieval_limit: limit as f64,
            build_s,
            // The unimodal family is used unpowered.
            k: 1.0,
        },
    )
}

pub fn run_range(opts: &Opts) -> Result<Report, String> {
    let p = lib_range::Params::new(opts.scale);
    let inst = lib_range::Instance::generate(opts.seed, &p);
    let t0 = Instant::now();
    let index = lib_range::build(opts.seed, &p, inst.points.clone());
    let build_s = t0.elapsed().as_secs_f64();
    let table = index.backend();
    let mut scratch = table.new_scratch();
    let mut dists = Vec::new();
    ledger(
        opts,
        Layers {
            name: "lib-range-hamming",
            rows: (0..inst.queries.len())
                .map(|i| inst.queries.row(i))
                .collect(),
            data_rows: (0..inst.points.len()).map(|i| inst.points.row(i)).collect(),
            pairs: lib_range::pairs(opts.seed, p.l),
            query: |row: &[u64]| {
                let (out, stats) = index.query(row);
                (out.len(), stats)
            },
            candidates: move |row: &[u64]| table.candidates_with(row, None, &mut scratch),
            verify: move |ids: &[usize], row: &[u64]| {
                table.store().hamming_many(ids, row, &mut dists);
                black_box(&dists);
            },
            // Range reporting retrieves without a limit.
            retrieval_limit: 0.0,
            build_s,
            k: lib_range::K as f64,
        },
    )
}
