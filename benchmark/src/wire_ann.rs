//! `wire-ann-hamming`: the paper's baseline `(r, cr)` near-neighbour
//! query through every layer, read-mostly.
//!
//! One driver thread owns a query connection and a write connection and
//! interleaves them from the seed: [`ROUND_QUERIES`] verified queries,
//! then one small write step ([`CYCLE`]). A single closed-loop driver
//! means every answer and counter repeats exactly for a seed, so the
//! whole run is replayed on an in-process replica and must produce the
//! same checksum.

use std::time::Instant;

use dsh_core::points::BitStore;
use dsh_index::ShardedIndex;

use crate::report::{median, median_us, peak_rss_mb, quantile_us, Report};
use crate::wire::{
    answer_is_well_formed, check_shapes, fold_answer, replica_shape, timed_setup, wire_result,
    Cycle, HammingInstance, Pinned, Schedule, Served, Verifier, WireParams, WriteTarget, D,
    ROUND_QUERIES,
};
use crate::{Opts, MIN_WINDOWS, RSS_WINDOWS};

/// 64 rounds of 256 queries + (16 inserts, 16 removes), sealed every 16
/// rounds, compacted at the end: the delta never holds more than 256
/// rows (commits stay near 1 ms) and a query walks one to four sealed
/// segments per shard. About a fifth of a window is write work.
pub const CYCLE: Cycle = Cycle {
    rounds: 64,
    seal_every: 16,
    inserts: 16,
    removes: 16,
};

pub fn run(opts: &Opts) -> Result<Report, String> {
    let p = WireParams::new(opts.scale);
    let mut report = Report::new();

    let (setup_s, inst, served) = timed_setup(&p, opts.seed)?;
    let mut setups = vec![setup_s];

    let mut phase = timed_phase(opts, &p, &inst, &served)?;
    let loaded_epoch = served.loaded_epoch;
    let mut served_index = served.stop()?;

    // The same schedule, in process: the check that every wire answer
    // (ids, order, stats, epoch) was the right one.
    let (replica, replica_checksum) = replay(opts.seed, &p, &inst, loaded_epoch, phase.rounds)?;
    report.check(replica_checksum == phase.checksum, || {
        format!(
            "answers_checksum {:#x} over the wire, {replica_checksum:#x} on the replica",
            phase.checksum
        )
    });
    check_shapes(
        &mut report,
        replica_shape(&replica, loaded_epoch),
        &[
            ("wire Info", phase.final_shape),
            ("served index", served_index.shape()?),
        ],
    );
    drop((served_index, replica));

    for _ in 1..opts.setup_reps {
        let (setup_s, _, served) = timed_setup(&p, opts.seed)?;
        setups.push(setup_s);
        served.stop()?;
    }

    let queries = phase.query_ns.len() as u64;
    report.attempted = queries + 2 * phase.rounds;
    report.failed = phase.failed;
    report.check(phase.failed == 0, || {
        format!("{} operations failed", phase.failed)
    });
    report.metric("setup_s", median(&mut setups));
    report.metric("queries_per_s", median(&mut phase.window_qps));
    report.metric("query_p50_us", median_us(&phase.query_ns));
    report.metric("ingest_points_per_s", median(&mut phase.window_ingest));
    report.metric("recall", phase.answered as f64 / queries as f64);
    report.metric("peak_rss_mb", phase.checkpoint_rss_mb);

    report.info("k", p.k);
    report.info("l", p.l);
    report.info("pinned", u8::from(phase.pinned));
    report.info("timed_s", phase.timed_s);
    report.info("windows", phase.window_qps.len());
    report.info("query_samples", queries);
    report.info("query_p99_us", quantile_us(&phase.query_ns, 0.99));
    report.info("write_step_samples", phase.write_ns.len());
    report.info("write_step_p50_us", median_us(&phase.write_ns));
    // Taken after a fixed op count, so they repeat exactly for a seed
    // however many windows the run then fits into `--seconds`.
    report.info(
        "checkpoint_checksum",
        format!("{:#018x}", phase.checkpoint_checksum),
    );
    report.info("checkpoint_len", phase.checkpoint_shape.0);
    report.info("checkpoint_epoch", phase.checkpoint_shape.2);
    report.info("answers_checksum", format!("{:#018x}", phase.checksum));
    report.info("final_len", phase.final_shape.0);
    report.info("final_epoch", phase.final_shape.2);
    Ok(report)
}

#[derive(Default)]
struct Phase {
    rounds: u64,
    checksum: u64,
    answered: u64,
    failed: u64,
    window_qps: Vec<f64>,
    window_ingest: Vec<f64>,
    query_ns: Vec<u64>,
    write_ns: Vec<u64>,
    checkpoint_checksum: u64,
    checkpoint_shape: (u64, u64, u64),
    checkpoint_rss_mb: f64,
    final_shape: (u64, u64, u64),
    timed_s: f64,
    pinned: bool,
}

/// The closed loop. A window is one [`CYCLE`]; the loop ends at the
/// first window boundary past `--seconds`, and never before
/// [`MIN_WINDOWS`].
fn timed_phase(
    opts: &Opts,
    p: &WireParams,
    inst: &HammingInstance,
    served: &Served,
) -> Result<Phase, String> {
    let pin = Pinned::to_one_cpu();
    // Connected after pinning: the handler threads inherit the affinity.
    let mut query_conn = served.connect()?;
    let mut write_conn = served.connect()?;
    let mut schedule = Schedule::new(opts.seed, inst);
    let mut verifier = Verifier::new(&inst.base, opts.seed, p.cr_bits);
    let mut dead = vec![false; p.n0];

    let mut phase = Phase {
        pinned: pin.is_pinned(),
        ..Phase::default()
    };
    let started = Instant::now();
    let mut window_started = started;
    let mut window_write_ns = 0u64;
    loop {
        for qi in schedule.next_queries() {
            let row = inst.queries.row(qi);
            let t0 = Instant::now();
            let answer = query_conn
                .query(row, Some(p.limit))
                .map_err(|e| format!("query: {e}"))?;
            let hit = verifier.first_within(row, &answer.ids);
            phase.query_ns.push(t0.elapsed().as_nanos() as u64);
            phase.answered += u64::from(hit.is_some());
            let ok = answer_is_well_formed(&answer, p.limit, schedule.id_bound())
                && !answer.ids.iter().any(|&id| dead[id as usize]);
            phase.failed += u64::from(!ok);
            phase.checksum = fold_answer(phase.checksum, &answer);
        }

        let outcome = CYCLE.write_round(&mut write_conn, &mut schedule, phase.rounds)?;
        phase.write_ns.push(outcome.step_ns);
        window_write_ns += outcome.step_ns + outcome.maintenance_ns;
        phase.failed += u64::from(!outcome.acknowledged);
        dead.resize(schedule.id_bound() as usize, false);
        for &id in &outcome.removed {
            dead[id as usize] = true;
        }
        phase.rounds += 1;

        if phase.rounds.is_multiple_of(CYCLE.rounds) {
            let wall = window_started.elapsed().as_secs_f64();
            phase
                .window_qps
                .push((CYCLE.rounds as usize * ROUND_QUERIES) as f64 / wall);
            let write_ops = CYCLE.rounds as usize * CYCLE.ops_per_round();
            phase
                .window_ingest
                .push(write_ops as f64 / (window_write_ns as f64 / 1e9));
            let windows = phase.window_qps.len();
            if windows == RSS_WINDOWS {
                phase.checkpoint_rss_mb = peak_rss_mb();
            }
            if windows == MIN_WINDOWS {
                phase.checkpoint_checksum = phase.checksum;
                phase.checkpoint_shape = write_conn.shape()?;
            }
            if windows >= MIN_WINDOWS && started.elapsed().as_secs_f64() >= opts.seconds {
                break;
            }
            window_started = Instant::now();
            window_write_ns = 0;
        }
    }
    phase.timed_s = started.elapsed().as_secs_f64();
    phase.final_shape = write_conn.shape()?;
    Ok(phase)
}

/// Replay `rounds` rounds of the schedule on an in-process replica;
/// returns it and the checksum of its answers. A round's queries see one
/// state, so they are answered as one threaded batch.
fn replay(
    seed: u64,
    p: &WireParams,
    inst: &HammingInstance,
    loaded_epoch: u64,
    rounds: u64,
) -> Result<(ShardedIndex<BitStore>, u64), String> {
    let mut index = p.bulk_index(seed, inst);
    let mut schedule = Schedule::new(seed, inst);
    let mut checksum = 0u64;
    for round in 0..rounds {
        let mut batch = BitStore::with_dim(D);
        for qi in schedule.next_queries() {
            batch.push_row(inst.queries.row(qi));
        }
        let epoch = index.epoch() + loaded_epoch;
        for (ids, stats) in index.candidates_batch(&batch, Some(p.limit)) {
            checksum = fold_answer(checksum, &wire_result(epoch, &ids, &stats));
        }
        CYCLE.write_round(&mut index, &mut schedule, round)?;
    }
    Ok((index, checksum))
}
