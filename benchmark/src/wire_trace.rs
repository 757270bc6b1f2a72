//! The traced pass of the two `wire-*` workloads: the per-layer ledger.
//!
//! Three parts, all timing calls into public functions from outside:
//!
//! 1. the workload's own closed loop over the wire, first without and
//!    then with a span around every step of a request (`client.query` ⊃
//!    `protocol.encode_request`, `server.rtt`, `protocol.decode_response`,
//!    `client.verify`), stopped mid-cycle so the index is in a typical
//!    state rather than freshly compacted;
//! 2. in-process replicas brought to that same state — a sharded one
//!    (timing each `apply_batch`), an unsharded `DynamicIndex` (timing
//!    `seal` / `compact`), and a static table over the loaded points;
//! 3. the staged replay of every query row on the sharded replica
//!    (`protocol.decode_request` → `shard.snapshot` → `shard.new_scratch`
//!    → `family.query_hash` → `shard.candidates` → `kernels.verify` →
//!    `protocol.encode_response`), plus the same rows through the
//!    `dynamic` and `table` layers.
//!
//! End-to-end metrics never come from here.

use std::hint::black_box;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use dsh_core::family::HasherPair;
use dsh_core::points::BitStore;
use dsh_index::{DynamicIndex, HashTableIndex, QueryStats, ShardedIndex, WriteOutcome};
use dsh_server::protocol::{
    decode_request, decode_response, encode_info, encode_query, encode_query_response, read_frame,
    write_frame, FrameIn, Response,
};
use dsh_server::WireQueryResult;

use crate::report::{mean, median, median_us, quantile_us, Report};
use crate::trace::Spans;
use crate::wire::{
    answer_is_well_formed, check_shapes, family_rng, replica_shape, sweep_mismatches, wire_result,
    wire_sweep, Cycle, HammingInstance, Pinned, QueryOrder, Schedule, Served, Verifier, WireParams,
    WriteTarget, BLOCKS, ROUND_QUERIES, STREAM_READER,
};
use crate::{wire_ann, wire_churn, Opts};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ann,
    Churn,
}

/// Share of `--seconds` the loop over the wire runs for; the rest goes to
/// the replicas and the staged replay.
const WIRE_SHARE: f64 = 0.6;
/// `Info` round trips timed after every traced round of 256 queries, so
/// `server.info_rtt_us` is taken under the same load as the queries.
const INFO_PROBES_PER_ROUND: usize = 16;
/// Passes of the staged replay and the layer loops over the query set.
const REPLAY_PASSES: usize = 2;
/// Base rows hashed for `family.data_hash_us`.
const DATA_HASH_ROWS: usize = 512;
/// Requests whose spans are written to the span file.
const SPAN_FILE_REQUESTS: u64 = 2048;

/// The wire phases stop after this many rounds of a cycle: past two of
/// its seals, delta half full — the state a typical query meets.
fn mid_cycle(cycle: &Cycle) -> u64 {
    cycle.rounds * 5 / 8
}

pub fn run(opts: &Opts, which: Workload) -> Result<Report, String> {
    let p = WireParams::new(opts.scale);
    let (name, cycle) = match which {
        Workload::Ann => ("wire-ann-hamming", &wire_ann::CYCLE),
        Workload::Churn => ("wire-churn-hamming", &wire_churn::CYCLE),
    };
    let mut report = Report::new();
    let mut spans = Spans::new();
    let inst = HammingInstance::generate(opts.seed, &p);
    let served = Served::start(&p, opts.seed, &inst)?;
    let loaded_epoch = served.loaded_epoch;

    // Part 1: the workload's loop over the wire.
    let wire = match which {
        Workload::Ann => ann_phases(opts, &p, &inst, &served, &mut spans)?,
        Workload::Churn => churn_phases(opts, &p, &inst, &served, &mut spans)?,
    };
    let swept = wire_sweep(&mut served.connect()?, &inst, p.limit)?;
    let mut served_index = served.stop()?;

    // Part 2: replicas at the same state.
    let mut sharded = Timed::new(p.bulk_index(opts.seed, &inst));
    let mut schedule = Schedule::new(opts.seed, &inst);
    for round in 0..wire.rounds {
        cycle.write_round(&mut sharded, &mut schedule, round)?;
    }
    check_shapes(
        &mut report,
        replica_shape(&sharded.inner, loaded_epoch),
        &[("served index", served_index.shape()?)],
    );
    let mismatches = sweep_mismatches(&swept, &sharded.inner, &inst, p.limit, loaded_epoch);
    report.check(mismatches == 0, || {
        format!("{mismatches} sweep answers differ between the wire and the replica")
    });
    drop(served_index);

    let mut dynamic = Timed::new(DynamicIndex::build(
        &p.family(),
        inst.base.clone(),
        p.l,
        &mut family_rng(opts.seed),
    ));
    let mut schedule = Schedule::new(opts.seed, &inst);
    for round in 0..wire.rounds {
        cycle.write_round(&mut dynamic, &mut schedule, round)?;
    }

    let t0 = Instant::now();
    let table = HashTableIndex::build(
        &p.family(),
        inst.base.clone(),
        p.l,
        &mut family_rng(opts.seed),
    );
    let table_build_s = t0.elapsed().as_secs_f64();

    // Part 3: the same rows through each layer, in process.
    let pairs = p.pairs(opts.seed);
    let staged = staged_replay(&p, &inst, &sharded.inner, &pairs, &mut spans);
    let dynamic_ns = time_rows(
        &inst.queries,
        |row, scratch| dynamic.inner.candidates_with(row, Some(p.limit), scratch),
        dynamic.inner.new_scratch(),
    );
    let table_ns = time_rows(
        &inst.queries,
        |row, scratch| table.candidates_with(row, Some(p.limit), scratch),
        table.new_scratch(),
    );
    // Counts come from the static table over the loaded points, so they
    // repeat exactly for a seed wherever the wire loop happened to stop.
    let mut verifier = Verifier::new(&inst.base, opts.seed, p.cr_bits);
    let mut scratch = table.new_scratch();
    let mut answered = 0u64;
    let table_stats: Vec<QueryStats> = (0..inst.queries.len())
        .map(|i| {
            let row = inst.queries.row(i);
            let (cands, stats) = table.candidates_with(row, Some(p.limit), &mut scratch);
            let ids: Vec<u64> = cands.iter().map(|&c| c as u64).collect();
            answered += u64::from(verifier.first_within(row, &ids).is_some());
            stats
        })
        .collect();
    let data_hash_ns: Vec<u64> = (0..DATA_HASH_ROWS.min(inst.base.len()))
        .map(|i| {
            let t0 = Instant::now();
            for pair in &pairs {
                black_box(pair.data.hash(inst.base.row(i)));
            }
            t0.elapsed().as_nanos() as u64
        })
        .collect();

    let file = opts.out_dir.join(format!("{name}.trace.jsonl"));
    let written = spans
        .write_jsonl(&file, SPAN_FILE_REQUESTS)
        .map_err(|e| format!("write {}: {e}", file.display()))?;

    // The ledger.
    let durations = spans.durations_by_name();
    let of = |name: &str| durations.get(name).map_or(&[][..], Vec::as_slice);
    let us = |name: &str| median_us(of(name));
    let ns = |name: &str| us(name) * 1e3;
    let query_hash_us = us("family.query_hash");
    let table_candidates_us = median_us(&table_ns);
    let shard_candidates_us = us("shard.candidates");
    let verify_us = us("client.verify");
    let query_p50_us = us("client.query");
    let query_rtt_us = us("server.rtt");
    let info_rtt_us = us("server.info_rtt");
    let protocol_server_us = us("protocol.decode_request") + us("protocol.encode_response");
    let protocol_client_us = us("protocol.encode_request") + us("protocol.decode_response");
    // What the server spends that no row below measures directly: the
    // per-request allocations (among them `new_scratch`) and the unknown.
    let residual_us = query_rtt_us
        - info_rtt_us
        - protocol_server_us
        - us("shard.snapshot")
        - shard_candidates_us;
    // Rows measured independently of the round trip they should explain.
    let explained_us = info_rtt_us
        + protocol_server_us
        + protocol_client_us
        + us("shard.snapshot")
        + us("shard.new_scratch")
        + shard_candidates_us
        + verify_us;
    let queries = inst.queries.len();
    let total =
        |f: fn(&QueryStats) -> usize| -> u64 { table_stats.iter().map(|s| f(s) as u64).sum() };
    let retrieved = total(|s| s.candidates_retrieved);
    let duplicates = total(|s| s.duplicates);
    let distinct = total(|s| s.distinct_candidates);

    report.attempted = wire.requests + swept.len() as u64;
    report.failed = wire.failed + mismatches as u64;
    report.check(wire.failed == 0, || {
        format!("{} wire operations failed", wire.failed)
    });

    report.metric("family.query_hash_us", query_hash_us);
    report.metric("family.data_hash_us", median_us(&data_hash_ns));
    report.metric("family.k", p.k as f64);
    report.metric("family.l", p.l as f64);
    report.metric("table.build_s", table_build_s);
    report.metric("table.candidates_us", table_candidates_us);
    report.metric("table.walk_self_us", table_candidates_us - query_hash_us);
    report.metric(
        "table.tables_probed",
        mean(total(|s| s.tables_probed), queries),
    );
    report.metric("table.candidates_retrieved", mean(retrieved, queries));
    report.metric("table.distinct_candidates", mean(distinct, queries));
    report.metric("table.duplicates", mean(duplicates, queries));
    report.metric(
        "table.dup_ratio",
        duplicates as f64 / retrieved.max(1) as f64,
    );
    report.metric(
        "kernels.verify_ns_per_candidate",
        staged.verify_ns_per_candidate,
    );
    report.metric("kernels.candidates_per_call", mean(distinct, queries));
    // On the wire the front-end's job — retrieve with a limit, verify,
    // pick — is split between the server and the client.
    report.metric("frontend.query_us", shard_candidates_us + verify_us);
    report.metric("frontend.verify_self_us", verify_us);
    report.metric("frontend.distance_computations", mean(distinct, queries));
    report.metric(
        "frontend.useful_ratio",
        answered as f64 / distinct.max(1) as f64,
    );
    report.metric("frontend.retrieval_limit", p.limit as f64);
    report.metric("dynamic.candidates_us", median_us(&dynamic_ns));
    report.metric(
        "dynamic.sealed_segments",
        dynamic.inner.sealed_segments() as f64,
    );
    report.metric("dynamic.delta_rows", dynamic.inner.delta_rows() as f64);
    report.metric("dynamic.tombstones", dynamic.inner.removed() as f64);
    report.metric("dynamic.seal_ms", median_us(&dynamic.seal_ns) / 1e3);
    report.metric("dynamic.compact_ms", median_us(&dynamic.compact_ns) / 1e3);
    report.metric("shard.snapshot_ns", ns("shard.snapshot"));
    report.metric("shard.candidates_us", shard_candidates_us);
    report.metric("shard.new_scratch_us", us("shard.new_scratch"));
    report.metric("shard.epochs_published", sharded.inner.epoch() as f64);
    let applies = sharded.apply_ns.len();
    report.metric(
        "batch.apply_us",
        mean(sharded.apply_ns.iter().sum(), applies) / 1e3,
    );
    report.metric("batch.ops_per_commit", mean(sharded.ops, applies));
    report.metric("batch.noop_commits", sharded.noop_commits as f64);
    report.metric("protocol.encode_request_ns", ns("protocol.encode_request"));
    report.metric("protocol.decode_request_ns", ns("protocol.decode_request"));
    report.metric(
        "protocol.encode_response_ns",
        ns("protocol.encode_response"),
    );
    report.metric(
        "protocol.decode_response_ns",
        ns("protocol.decode_response"),
    );
    report.metric("protocol.request_bytes", staged.request_bytes);
    report.metric("protocol.response_bytes", staged.response_bytes);
    report.metric("server.info_rtt_us", info_rtt_us);
    report.metric("server.query_rtt_us", query_rtt_us);
    report.metric("server.residual_us", residual_us);
    report.metric("server.error_responses", wire.error_responses as f64);
    report.metric("client.verify_us", verify_us);
    let query_ns = of("client.query");
    report.metric("client.query_p50_us", query_p50_us);
    report.metric("client.query_p99_us", quantile_us(query_ns, 0.99));
    report.metric("client.query_p999_us", quantile_us(query_ns, 0.999));
    report.metric("client.write_batch_p50_us", median_us(&wire.write_ns));
    report.metric(
        "client.write_batch_p99_us",
        quantile_us(&wire.write_ns, 0.99),
    );
    report.metric("client.pinned", f64::from(u8::from(wire.pinned)));
    report.metric(
        "trace.overhead_share",
        1.0 - wire.traced_qps / wire.untraced_qps,
    );
    report.metric(
        "trace.ledger_gap_share",
        (query_p50_us - explained_us).abs() / query_p50_us,
    );

    report.info("rounds", wire.rounds);
    report.info("query_samples", query_ns.len());
    report.info("write_step_samples", wire.write_ns.len());
    report.info("untraced_queries_per_s", wire.untraced_qps);
    report.info("traced_queries_per_s", wire.traced_qps);
    report.info("ledger_explained_us", explained_us);
    report.info("replica_sealed_segments", sharded.inner.sealed_segments());
    report.info("replica_delta_rows", sharded.inner.delta_rows());
    report.info("spans", spans.len());
    report.info("span_file", file.display());
    report.info("span_file_lines", written);
    Ok(report)
}

/// What the wire part of a traced pass hands on.
#[derive(Default)]
struct WirePhases {
    /// Write rounds the server applied (ends mid-cycle).
    rounds: u64,
    requests: u64,
    failed: u64,
    error_responses: u64,
    untraced_qps: f64,
    traced_qps: f64,
    write_ns: Vec<u64>,
    pinned: bool,
}

/// One raw connection, driven through the protocol module's public
/// functions so each step of a request can carry its own span. Without a
/// span recorder the same calls run back to back — which is all
/// `Client::query` does.
struct Probe {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Traced requests so far (the span `request_id`).
    traced: u64,
    error_responses: u64,
}

impl Probe {
    fn connect(served: &Served) -> Result<Self, String> {
        let stream = TcpStream::connect(served.addr()).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).ok();
        Ok(Probe {
            stream,
            buf: Vec::new(),
            traced: 0,
            error_responses: 0,
        })
    }

    fn round_trip(&mut self, payload: &[u8]) -> Result<(), String> {
        write_frame(&mut self.stream, payload).map_err(|e| format!("write frame: {e}"))?;
        match read_frame(&mut self.stream, &mut self.buf) {
            Ok(Some(FrameIn::Payload)) => Ok(()),
            Ok(_) => Err("server closed the connection or sent an oversized frame".to_string()),
            Err(e) => Err(format!("read frame: {e}")),
        }
    }

    /// One verified query; with `spans`, every step is recorded.
    fn query(
        &mut self,
        row: &[u64],
        limit: usize,
        verifier: &mut Verifier<'_>,
        spans: Option<&mut Spans>,
    ) -> Result<(WireQueryResult, bool), String> {
        let Some(spans) = spans else {
            let payload = encode_query(row, Some(limit));
            self.round_trip(&payload)?;
            let answer = self.decode()?;
            let hit = verifier.first_within(row, &answer.ids).is_some();
            return Ok((answer, hit));
        };
        let t0 = spans.now();
        let payload = encode_query(row, Some(limit));
        let t1 = spans.now();
        self.round_trip(&payload)?;
        let t2 = spans.now();
        let answer = self.decode()?;
        let t3 = spans.now();
        let hit = verifier.first_within(row, &answer.ids).is_some();
        let t4 = spans.now();
        let id = self.traced;
        self.traced += 1;
        let parent = Some(spans.push("client.query", t0, t4, None, id));
        spans.push("protocol.encode_request", t0, t1, parent, id);
        spans.push("server.rtt", t1, t2, parent, id);
        spans.push("protocol.decode_response", t2, t3, parent, id);
        spans.push("client.verify", t3, t4, parent, id);
        Ok((answer, hit))
    }

    fn decode(&mut self) -> Result<WireQueryResult, String> {
        match decode_response(&self.buf) {
            Some(Response::Query(answer)) => Ok(answer),
            Some(Response::Error { message, .. }) => {
                self.error_responses += 1;
                Err(format!("server rejected a query: {message}"))
            }
            _ => Err("response did not decode as a query result".to_string()),
        }
    }

    /// `n` `Info` round trips — a frame through socket and handler with
    /// no index work — each a `server.info_rtt` span.
    fn info_rtts(&mut self, n: usize, spans: &mut Spans) -> Result<(), String> {
        let payload = encode_info();
        for _ in 0..n {
            let t0 = spans.now();
            self.round_trip(&payload)?;
            spans.push("server.info_rtt", t0, spans.now(), None, self.traced);
        }
        Ok(())
    }
}

/// `wire-ann-hamming`'s loop — one pinned driver, 256 queries then a
/// write step — with rounds alternately untraced and traced (so drift
/// over a cycle and over the run cancels out of the overhead figure),
/// stopped in the middle of a cycle.
fn ann_phases(
    opts: &Opts,
    p: &WireParams,
    inst: &HammingInstance,
    served: &Served,
    spans: &mut Spans,
) -> Result<WirePhases, String> {
    let cycle = &wire_ann::CYCLE;
    let pin = Pinned::to_one_cpu();
    let mut probe = Probe::connect(served)?;
    let mut write_conn = served.connect()?;
    let mut schedule = Schedule::new(opts.seed, inst);
    let mut verifier = Verifier::new(&inst.base, opts.seed, p.cr_bits);
    let mut out = WirePhases {
        pinned: pin.is_pinned(),
        ..WirePhases::default()
    };
    // [untraced, traced] queries per second, one entry per round.
    let mut round_qps = [Vec::new(), Vec::new()];
    let started = Instant::now();
    loop {
        let traced = out.rounds % 2 == 1;
        let round_started = Instant::now();
        for qi in schedule.next_queries() {
            let spans = traced.then_some(&mut *spans);
            let (answer, _) = probe.query(inst.queries.row(qi), p.limit, &mut verifier, spans)?;
            let ok = answer_is_well_formed(&answer, p.limit, schedule.id_bound());
            out.failed += u64::from(!ok);
        }
        round_qps[usize::from(traced)]
            .push(ROUND_QUERIES as f64 / round_started.elapsed().as_secs_f64());
        if traced {
            probe.info_rtts(INFO_PROBES_PER_ROUND, spans)?;
        }
        let outcome = cycle.write_round(&mut write_conn, &mut schedule, out.rounds)?;
        out.write_ns.push(outcome.step_ns);
        out.failed += u64::from(!outcome.acknowledged);
        out.rounds += 1;
        out.requests += ROUND_QUERIES as u64 + 2;
        if started.elapsed().as_secs_f64() >= opts.seconds * WIRE_SHARE
            && out.rounds % cycle.rounds == mid_cycle(cycle)
        {
            break;
        }
    }
    let [untraced, traced] = &mut round_qps;
    out.untraced_qps = median(untraced);
    out.traced_qps = median(traced);
    out.error_responses = probe.error_responses;
    Ok(out)
}

/// `wire-churn-hamming`'s loop — the writer running its cycle flat out
/// on its own thread — while the reader's windows are alternately
/// untraced and traced. The writer then runs on to the middle of a cycle.
fn churn_phases(
    opts: &Opts,
    p: &WireParams,
    inst: &HammingInstance,
    served: &Served,
    spans: &mut Spans,
) -> Result<WirePhases, String> {
    let cycle = &wire_churn::CYCLE;
    let mut out = WirePhases::default();
    let reader_done = AtomicBool::new(false);

    struct WriterOutcome {
        rounds: u64,
        failed: u64,
        write_ns: Vec<u64>,
    }
    let (writer, reader) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> Result<WriterOutcome, String> {
            let mut conn = served.connect()?;
            let mut schedule = Schedule::new(opts.seed, inst);
            let mut w = WriterOutcome {
                rounds: 0,
                failed: 0,
                write_ns: Vec::new(),
            };
            loop {
                let outcome = cycle.write_round(&mut conn, &mut schedule, w.rounds)?;
                w.write_ns.push(outcome.step_ns);
                w.failed += u64::from(!outcome.acknowledged);
                w.rounds += 1;
                if reader_done.load(Ordering::SeqCst) && w.rounds % cycle.rounds == mid_cycle(cycle)
                {
                    return Ok(w);
                }
            }
        });

        let reader = (|| -> Result<Probe, String> {
            let mut probe = Probe::connect(served)?;
            let mut order = QueryOrder::new(opts.seed, STREAM_READER, inst.queries.len());
            let mut verifier = Verifier::new(&inst.base, opts.seed, p.cr_bits);
            // [untraced, traced] queries per second, one entry per window.
            let mut window_qps = [Vec::new(), Vec::new()];
            let started = Instant::now();
            for window in 0.. {
                if window >= 2 && started.elapsed().as_secs_f64() >= opts.seconds * WIRE_SHARE {
                    break;
                }
                let traced = window % 2 == 1;
                let window_started = Instant::now();
                for _ in 0..ROUND_QUERIES {
                    let spans = traced.then_some(&mut *spans);
                    let row = inst.queries.row(order.next());
                    let (answer, _) = probe.query(row, p.limit, &mut verifier, spans)?;
                    // The id bound moves under the reader; the final sweep
                    // checks ids against the replica instead.
                    let ok = answer_is_well_formed(&answer, p.limit, u64::MAX);
                    out.failed += u64::from(!ok);
                }
                window_qps[usize::from(traced)]
                    .push(ROUND_QUERIES as f64 / window_started.elapsed().as_secs_f64());
                out.requests += ROUND_QUERIES as u64;
                if traced {
                    // Beside the writer, like the queries they explain.
                    probe.info_rtts(INFO_PROBES_PER_ROUND, spans)?;
                }
            }
            let [untraced, traced] = &mut window_qps;
            out.untraced_qps = median(untraced);
            out.traced_qps = median(traced);
            Ok(probe)
        })();
        // Release the writer whether or not the reader failed.
        reader_done.store(true, Ordering::SeqCst);
        let writer = writer
            .join()
            .unwrap_or_else(|_| Err("writer thread panicked".to_string()));
        (writer, reader)
    });
    let writer = writer?;
    let probe = reader?;
    out.rounds = writer.rounds;
    out.requests += 2 * writer.rounds;
    out.failed += writer.failed;
    out.write_ns = writer.write_ns;
    out.error_responses = probe.error_responses;
    Ok(out)
}

/// Times every call a [`WriteTarget`] receives: the replica-side cost of
/// the run's write log.
struct Timed<T> {
    inner: T,
    /// One entry per `apply_batch` (insert batches and remove batches).
    apply_ns: Vec<u64>,
    /// Ops staged over all applies.
    ops: u64,
    /// Applies that published nothing.
    noop_commits: u64,
    seal_ns: Vec<u64>,
    compact_ns: Vec<u64>,
}

impl<T> Timed<T> {
    fn new(inner: T) -> Self {
        Timed {
            inner,
            apply_ns: Vec::new(),
            ops: 0,
            noop_commits: 0,
            seal_ns: Vec::new(),
            compact_ns: Vec::new(),
        }
    }
}

impl<T: WriteTarget> WriteTarget for Timed<T> {
    fn insert_rows(&mut self, rows: &[u64]) -> Result<(u64, Vec<u64>), String> {
        let before = self.inner.shape()?.2;
        let t0 = Instant::now();
        let out = self.inner.insert_rows(rows)?;
        self.apply_ns.push(t0.elapsed().as_nanos() as u64);
        self.ops += (rows.len() / BLOCKS) as u64;
        self.noop_commits += u64::from(out.0 == before);
        Ok(out)
    }
    fn remove_ids(&mut self, ids: &[u64]) -> Result<(u64, Vec<bool>), String> {
        let before = self.inner.shape()?.2;
        let t0 = Instant::now();
        let out = self.inner.remove_ids(ids)?;
        self.apply_ns.push(t0.elapsed().as_nanos() as u64);
        self.ops += ids.len() as u64;
        self.noop_commits += u64::from(out.0 == before);
        Ok(out)
    }
    fn do_seal(&mut self) -> Result<u64, String> {
        let t0 = Instant::now();
        let out = self.inner.do_seal()?;
        self.seal_ns.push(t0.elapsed().as_nanos() as u64);
        Ok(out)
    }
    fn do_compact(&mut self) -> Result<u64, String> {
        let t0 = Instant::now();
        let out = self.inner.do_compact()?;
        self.compact_ns.push(t0.elapsed().as_nanos() as u64);
        Ok(out)
    }
    fn shape(&mut self) -> Result<(u64, u64, u64), String> {
        self.inner.shape()
    }
}

/// The unsharded layer under the same write log. It has no epochs: its
/// "epoch" counts applies that changed something, which is all
/// [`Timed`] asks of it.
impl WriteTarget for DynamicIndex<BitStore> {
    fn insert_rows(&mut self, rows: &[u64]) -> Result<(u64, Vec<u64>), String> {
        let first = self.id_bound() as u64;
        let mut batch = self.new_batch();
        for row in rows.chunks(BLOCKS) {
            batch.insert(row);
        }
        let outcomes = self.apply_batch(&batch).map_err(|e| e.to_string())?;
        Ok((0, (first..first + outcomes.len() as u64).collect()))
    }
    fn remove_ids(&mut self, ids: &[u64]) -> Result<(u64, Vec<bool>), String> {
        let mut batch = self.new_batch();
        for &id in ids {
            batch.remove(id as usize);
        }
        let outcomes = self.apply_batch(&batch).map_err(|e| e.to_string())?;
        let removed = outcomes
            .iter()
            .map(|o| matches!(o, WriteOutcome::Removed(true)))
            .collect();
        Ok((0, removed))
    }
    fn do_seal(&mut self) -> Result<u64, String> {
        self.seal();
        Ok(0)
    }
    fn do_compact(&mut self) -> Result<u64, String> {
        self.compact();
        Ok(0)
    }
    fn shape(&mut self) -> Result<(u64, u64, u64), String> {
        Ok((self.len() as u64, self.id_bound() as u64, 0))
    }
}

/// Time `f` on every query row, [`REPLAY_PASSES`] times over, with one
/// reused scratch; returns the per-call nanoseconds.
fn time_rows<S, R>(
    queries: &BitStore,
    mut f: impl FnMut(&[u64], &mut S) -> R,
    mut scratch: S,
) -> Vec<u64> {
    let mut ns = Vec::with_capacity(REPLAY_PASSES * queries.len());
    for _ in 0..REPLAY_PASSES {
        for i in 0..queries.len() {
            let t0 = Instant::now();
            black_box(f(queries.row(i), &mut scratch));
            ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    ns
}

struct Staged {
    verify_ns_per_candidate: f64,
    request_bytes: f64,
    response_bytes: f64,
}

/// The server's handling of a `Query`, stage by stage, on the replica:
/// every stage is a public function called from here with a span around
/// it. `request_id` is the query row, so a span file lines a replayed
/// request up with the wire requests for the same row.
fn staged_replay(
    p: &WireParams,
    inst: &HammingInstance,
    replica: &ShardedIndex<BitStore>,
    pairs: &[HasherPair<[u64]>],
    spans: &mut Spans,
) -> Staged {
    let reader = replica.reader_handle();
    let mut scratch = replica.new_scratch();
    let (mut ids, mut dists) = (Vec::new(), Vec::new());
    let (mut verify_ns, mut candidates) = (0u64, 0u64);
    let (mut request_bytes, mut response_bytes) = (0u64, 0u64);
    let n0 = inst.base.len();
    for pass in 0..REPLAY_PASSES {
        for i in 0..inst.queries.len() {
            let row = inst.queries.row(i);
            let id = i as u64;
            let payload = encode_query(row, Some(p.limit));
            let t0 = spans.now();
            let request = black_box(decode_request::<u64>(&payload, BLOCKS));
            let t1 = spans.now();
            let snap = reader.snapshot();
            let t2 = spans.now();
            // What the server's `Query` arm pays per request; the replay
            // itself reuses one scratch, like `QueryBatch` does.
            black_box(snap.new_scratch());
            let t3 = spans.now();
            for pair in pairs {
                black_box(pair.query.hash(row));
            }
            let t4 = spans.now();
            let (cands, stats) = snap.candidates_with(row, Some(p.limit), &mut scratch);
            let t5 = spans.now();
            ids.clear();
            ids.extend(cands.iter().copied().filter(|&c| c < n0));
            inst.base.hamming_many(&ids, row, &mut dists);
            black_box(&dists);
            let t6 = spans.now();
            let result = wire_result(snap.epoch(), &cands, &stats);
            let t7 = spans.now();
            let response = encode_query_response(&result);
            let t8 = spans.now();
            drop(request);

            let parent = Some(spans.push("replay.query", t0, t8, None, id));
            spans.push("protocol.decode_request", t0, t1, parent, id);
            spans.push("shard.snapshot", t1, t2, parent, id);
            spans.push("shard.new_scratch", t2, t3, parent, id);
            spans.push("family.query_hash", t3, t4, parent, id);
            spans.push("shard.candidates", t4, t5, parent, id);
            spans.push("kernels.verify", t5, t6, parent, id);
            spans.push("protocol.encode_response", t7, t8, parent, id);
            if pass == 0 {
                verify_ns += t6 - t5;
                candidates += ids.len() as u64;
                request_bytes += payload.len() as u64;
                response_bytes += response.len() as u64;
            }
        }
    }
    let queries = inst.queries.len();
    Staged {
        verify_ns_per_candidate: verify_ns as f64 / candidates.max(1) as f64,
        request_bytes: mean(request_bytes, queries),
        response_bytes: mean(response_bytes, queries),
    }
}
