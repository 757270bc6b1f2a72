//! `wire-churn-hamming`: writes beside reads, the only workload with
//! true reader/writer parallelism.
//!
//! Same data, family and server as `wire-ann-hamming`, unpinned, two
//! driver threads: a closed-loop writer runs [`CYCLE`] flat out while a
//! closed-loop reader issues the same verified `(r, cr)` query until the
//! writer finishes. Reader answers depend on the interleaving, so they
//! are checked against the query contract one by one; the final state is
//! checked against a replica that replayed the writer's log.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::report::{median, median_us, peak_rss_mb, quantile_us, Report};
use crate::wire::{
    answer_is_well_formed, check_shapes, replica_shape, sweep_mismatches, timed_setup, wire_sweep,
    Cycle, HammingInstance, QueryOrder, Schedule, Served, Verifier, WireParams, WriteTarget,
    STREAM_READER,
};
use crate::{Opts, MIN_WINDOWS, RSS_WINDOWS};

/// 16 rounds of (256 inserts, 256 removes), sealed every 4 rounds,
/// compacted at the end: the live set stays at its loaded size while
/// delta rows (up to 1024), sealed segments (up to five per shard) and
/// tombstones (up to 4096) build up and are cleared once per cycle.
pub const CYCLE: Cycle = Cycle {
    rounds: 16,
    seal_every: 4,
    inserts: 256,
    removes: 256,
};

/// Reader queries per throughput window.
const READER_WINDOW: usize = 1024;

/// The correctness floor on planted-neighbour recall.
const MIN_RECALL: f64 = 0.7;

pub fn run(opts: &Opts) -> Result<Report, String> {
    let p = WireParams::new(opts.scale);
    let mut report = Report::new();

    let (setup_s, inst, served) = timed_setup(&p, opts.seed)?;
    let mut setups = vec![setup_s];

    let mut phase = timed_phase(opts, &p, &inst, &served)?;
    let swept = wire_sweep(&mut served.connect()?, &inst, p.limit)?;
    let loaded_epoch = served.loaded_epoch;
    let mut served_index = served.stop()?;

    // Replay the writer's log in process and compare the final states:
    // shape, and every query of the instance answered identically.
    let mut replica = p.bulk_index(opts.seed, &inst);
    let mut schedule = Schedule::new(opts.seed, &inst);
    for round in 0..phase.rounds {
        CYCLE.write_round(&mut replica, &mut schedule, round)?;
    }
    check_shapes(
        &mut report,
        replica_shape(&replica, loaded_epoch),
        &[
            ("wire Info", phase.final_shape),
            ("served index", served_index.shape()?),
        ],
    );
    let mismatches = sweep_mismatches(&swept, &replica, &inst, p.limit, loaded_epoch);
    report.check(mismatches == 0, || {
        format!("{mismatches} final-state sweep answers differ from the replica's")
    });
    drop((served_index, replica));

    for _ in 1..opts.setup_reps {
        let (setup_s, _, served) = timed_setup(&p, opts.seed)?;
        setups.push(setup_s);
        served.stop()?;
    }

    let queries = phase.query_ns.len() as u64;
    let recall = phase.answered as f64 / queries.max(1) as f64;
    report.attempted = queries + 2 * phase.rounds + swept.len() as u64;
    report.failed = phase.failed + mismatches as u64;
    report.check(phase.failed == 0, || {
        format!("{} operations failed", phase.failed)
    });
    report.check(recall >= MIN_RECALL, || {
        format!("recall {recall} is below {MIN_RECALL}")
    });
    report.check(phase.reader_qps.len() >= MIN_WINDOWS, || {
        format!("the reader closed only {} windows", phase.reader_qps.len())
    });
    report.metric("setup_s", median(&mut setups));
    report.metric("queries_per_s", median(&mut phase.reader_qps));
    report.metric("query_p50_us", median_us(&phase.query_ns));
    report.metric("ingest_points_per_s", median(&mut phase.writer_ingest));
    report.metric("recall", recall);
    report.metric("peak_rss_mb", phase.checkpoint_rss_mb);

    report.info("k", p.k);
    report.info("l", p.l);
    report.info("timed_s", phase.timed_s);
    report.info("writer_windows", phase.writer_ingest.len());
    report.info("reader_windows", phase.reader_qps.len());
    report.info("query_samples", queries);
    report.info("query_p99_us", quantile_us(&phase.query_ns, 0.99));
    report.info("write_step_samples", phase.write_ns.len());
    report.info("write_step_p50_us", median_us(&phase.write_ns));
    report.info("write_step_p99_us", quantile_us(&phase.write_ns, 0.99));
    report.info("maintenance_p50_us", median_us(&phase.maintenance_ns));
    // After a fixed number of writer rounds: repeats exactly for a seed.
    report.info("checkpoint_len", phase.checkpoint_shape.0);
    report.info("checkpoint_epoch", phase.checkpoint_shape.2);
    report.info("final_len", phase.final_shape.0);
    report.info("final_epoch", phase.final_shape.2);
    Ok(report)
}

#[derive(Default)]
struct Phase {
    rounds: u64,
    failed: u64,
    answered: u64,
    /// Reader: verified queries per second, per [`READER_WINDOW`].
    reader_qps: Vec<f64>,
    query_ns: Vec<u64>,
    /// Writer: acknowledged inserts + removes per second of writer wall
    /// time, per cycle — seal and compact stalls included.
    writer_ingest: Vec<f64>,
    write_ns: Vec<u64>,
    maintenance_ns: Vec<u64>,
    checkpoint_shape: (u64, u64, u64),
    checkpoint_rss_mb: f64,
    final_shape: (u64, u64, u64),
    timed_s: f64,
}

struct ReaderOutcome {
    qps: Vec<f64>,
    query_ns: Vec<u64>,
    answered: u64,
    failed: u64,
}

fn timed_phase(
    opts: &Opts,
    p: &WireParams,
    inst: &HammingInstance,
    served: &Served,
) -> Result<Phase, String> {
    let mut write_conn = served.connect()?;
    let mut schedule = Schedule::new(opts.seed, inst);
    let stop = AtomicBool::new(false);
    // Upper bound on the ids an answer may hold: raised by the writer
    // before it sends the rows, read by the reader after the answer.
    let id_bound = AtomicU64::new(schedule.id_bound() + CYCLE.inserts as u64);
    let mut phase = Phase::default();

    let reader = std::thread::scope(|scope| -> Result<ReaderOutcome, String> {
        let reader = scope.spawn(|| reader_loop(opts, p, inst, served, &stop, &id_bound));

        let started = Instant::now();
        let mut window_started = started;
        let writer = (|| -> Result<(), String> {
            loop {
                let outcome = CYCLE.write_round(&mut write_conn, &mut schedule, phase.rounds)?;
                id_bound.store(schedule.id_bound() + CYCLE.inserts as u64, Ordering::SeqCst);
                phase.write_ns.push(outcome.step_ns);
                if outcome.maintenance_ns > 0 {
                    phase.maintenance_ns.push(outcome.maintenance_ns);
                }
                phase.failed += u64::from(!outcome.acknowledged);
                phase.rounds += 1;
                if phase.rounds.is_multiple_of(CYCLE.rounds) {
                    let wall = window_started.elapsed().as_secs_f64();
                    let ops = CYCLE.rounds as usize * CYCLE.ops_per_round();
                    phase.writer_ingest.push(ops as f64 / wall);
                    let windows = phase.writer_ingest.len();
                    if windows == RSS_WINDOWS {
                        phase.checkpoint_rss_mb = peak_rss_mb();
                    }
                    if windows == MIN_WINDOWS {
                        phase.checkpoint_shape = write_conn.shape()?;
                    }
                    if windows >= MIN_WINDOWS && started.elapsed().as_secs_f64() >= opts.seconds {
                        return Ok(());
                    }
                    window_started = Instant::now();
                }
            }
        })();
        phase.timed_s = started.elapsed().as_secs_f64();
        // Stop the reader whether or not the writer failed, so the scope
        // can end.
        stop.store(true, Ordering::SeqCst);
        let reader = reader
            .join()
            .map_err(|_| "reader thread panicked".to_string())?;
        writer?;
        reader
    })?;
    phase.final_shape = write_conn.shape()?;
    phase.reader_qps = reader.qps;
    phase.query_ns = reader.query_ns;
    phase.answered = reader.answered;
    phase.failed += reader.failed;
    Ok(phase)
}

/// The reader: closed loop over the query set in its own seeded order,
/// each answer verified and checked against the query contract, until
/// `stop`. Its connection is dropped on return.
fn reader_loop(
    opts: &Opts,
    p: &WireParams,
    inst: &HammingInstance,
    served: &Served,
    stop: &AtomicBool,
    id_bound: &AtomicU64,
) -> Result<ReaderOutcome, String> {
    let mut conn = served.connect()?;
    let mut order = QueryOrder::new(opts.seed, STREAM_READER, inst.queries.len());
    let mut verifier = Verifier::new(&inst.base, opts.seed, p.cr_bits);
    let mut out = ReaderOutcome {
        qps: Vec::new(),
        query_ns: Vec::new(),
        answered: 0,
        failed: 0,
    };
    let mut window_started = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        let row = inst.queries.row(order.next());
        let t0 = Instant::now();
        let answer = conn
            .query(row, Some(p.limit))
            .map_err(|e| format!("reader query: {e}"))?;
        let hit = verifier.first_within(row, &answer.ids);
        out.query_ns.push(t0.elapsed().as_nanos() as u64);
        out.answered += u64::from(hit.is_some());
        let bound = id_bound.load(Ordering::SeqCst);
        out.failed += u64::from(!answer_is_well_formed(&answer, p.limit, bound));
        if out.query_ns.len().is_multiple_of(READER_WINDOW) {
            out.qps
                .push(READER_WINDOW as f64 / window_started.elapsed().as_secs_f64());
            window_started = Instant::now();
        }
    }
    Ok(out)
}
