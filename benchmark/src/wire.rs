//! What the two `wire-*` workloads share: the planted Hamming instance,
//! the seeded op schedule, the server harness, client-side verification,
//! and the in-process replica every wire answer is checked against.
//!
//! Everything the library sees is generated here from `--seed`; the
//! server receives rows and ids over the wire and nothing else.

use std::process::Command;
use std::time::Instant;

use dsh_core::combinators::Power;
use dsh_core::family::{DshFamily, HasherPair};
use dsh_core::hash::combine;
use dsh_core::points::{BitStore, BitVector};
use dsh_data::hamming_data::point_at_distance;
use dsh_hamming::BitSampling;
use dsh_index::{ann_params, ShardedIndex, WriteOutcome};
use dsh_math::rng::{child, derive_seed, SplitMix64};
use dsh_server::{spawn, Client, ServerConfig, ServerHandle, ServerInfo, WireQueryResult};
use rand::rngs::StdRng;

use crate::shuffled_ids;

pub const D: usize = 256;
/// `u64` blocks per row.
pub const BLOCKS: usize = D / 64;
/// Planted neighbour distance `r`, in bits.
const NEAR_BITS: usize = 26;
/// Decoys sit just outside `cr`.
const DECOY_BITS: usize = 80;
const DECOYS: usize = 4;
/// CPF value at the far radius: `cr = (1 - P_FAR) * D` = 76.8 bits.
const P_FAR: f64 = 0.7;
const SUCCESS_FACTOR: f64 = 1.5;
pub const SHARDS: usize = 2;
/// Queries between two write steps of `wire-ann-hamming`, and the unit
/// the query order is dealt out in.
pub const ROUND_QUERIES: usize = 256;

// RNG streams derived from `--seed`.
const STREAM_DATA: u64 = 1;
const STREAM_FAMILY: u64 = 2;
const STREAM_SCHEDULE: u64 = 3;
const STREAM_ROWS: u64 = 4;
const STREAM_QUERY_ORDER: u64 = 5;
/// Query order of `wire-churn-hamming`'s reader thread.
pub const STREAM_READER: u64 = 6;

/// Sizes and derived LSH parameters of a wire workload.
#[derive(Debug, Clone, Copy)]
pub struct WireParams {
    /// Points loaded before the timed phase.
    pub n0: usize,
    /// Query points (a multiple of [`ROUND_QUERIES`]).
    pub queries: usize,
    pub k: usize,
    pub l: usize,
    /// `Query{limit}`: `3L` retrieved entries.
    pub limit: usize,
    /// An answer is a point within this many bits (`cr`).
    pub cr_bits: u64,
}

impl WireParams {
    /// `scale` divides the data and query counts (`--smoke` uses 20).
    pub fn new(scale: usize) -> Self {
        let n0 = 100_000 / scale;
        let queries = (4096 / scale).div_ceil(ROUND_QUERIES) * ROUND_QUERIES;
        let p_near = 1.0 - NEAR_BITS as f64 / D as f64;
        let ann = ann_params(n0, p_near, P_FAR, SUCCESS_FACTOR);
        WireParams {
            n0,
            queries,
            k: ann.k,
            l: ann.l,
            limit: 3 * ann.l,
            cr_bits: ((1.0 - P_FAR) * D as f64).floor() as u64,
        }
    }

    pub fn family(&self) -> Power<BitSampling> {
        Power::new(BitSampling::new(D), self.k)
    }

    /// The `L` hasher pairs every index built from `seed` holds: builds
    /// sample their pairs first thing from this stream, so re-sampling
    /// it gives the same functions without reaching into the index.
    pub fn pairs(&self, seed: u64) -> Vec<HasherPair<[u64]>> {
        let family = self.family();
        let mut rng = family_rng(seed);
        (0..self.l).map(|_| family.sample(&mut rng)).collect()
    }

    /// An empty sharded index with the workload's family and `seed`.
    pub fn empty_index(&self, seed: u64) -> ShardedIndex<BitStore> {
        ShardedIndex::build(
            &self.family(),
            BitStore::with_dim(D),
            self.l,
            SHARDS,
            &mut family_rng(seed),
        )
    }

    /// The replica's starting point: the base points bulk-built into the
    /// layout the wire load ends in (one sealed segment per shard). The
    /// library guarantees a loaded-then-compacted index answers like a
    /// static build; replaying a run on this and getting the server's
    /// checksum checks that guarantee too, and saves re-loading 100k
    /// points through the write path in every run. Its epoch starts at
    /// 0, so replica epochs are compared after adding the server's
    /// post-load epoch.
    pub fn bulk_index(&self, seed: u64, inst: &HammingInstance) -> ShardedIndex<BitStore> {
        ShardedIndex::build(
            &self.family(),
            inst.base.clone(),
            self.l,
            SHARDS,
            &mut family_rng(seed),
        )
    }
}

pub fn family_rng(seed: u64) -> StdRng {
    child(seed, STREAM_FAMILY)
}

/// `queries` query points, each with one planted point at distance
/// [`NEAR_BITS`] and [`DECOYS`] decoys at [`DECOY_BITS`]; the rest of
/// the `n0` points uniform; all at seeded random positions (= ids).
pub struct HammingInstance {
    pub base: BitStore,
    pub queries: BitStore,
    /// Ids the schedule may remove: everything but the planted points.
    pub removable: Vec<u64>,
}

impl HammingInstance {
    pub fn generate(seed: u64, p: &WireParams) -> Self {
        let mut rng = child(seed, STREAM_DATA);
        let special = p.queries * (1 + DECOYS);
        assert!(special <= p.n0, "more planted rows than points");
        let slot = shuffled_ids(&mut rng, p.n0);
        let mut rows = vec![0u64; p.n0 * BLOCKS];
        let mut put = |id: usize, v: &BitVector| {
            rows[id * BLOCKS..(id + 1) * BLOCKS].copy_from_slice(v.as_blocks());
        };
        let mut queries = BitStore::with_dim(D);
        let mut is_planted = vec![false; p.n0];
        let mut next = 0;
        for _ in 0..p.queries {
            let q = BitVector::random(&mut rng, D);
            put(slot[next], &point_at_distance(&mut rng, &q, NEAR_BITS));
            is_planted[slot[next]] = true;
            next += 1;
            for _ in 0..DECOYS {
                put(slot[next], &point_at_distance(&mut rng, &q, DECOY_BITS));
                next += 1;
            }
            queries.push(&q);
        }
        for &id in &slot[next..] {
            put(id, &BitVector::random(&mut rng, D));
        }
        let mut base = BitStore::with_dim(D);
        for row in rows.chunks(BLOCKS) {
            base.push_row(row);
        }
        let removable = (0..p.n0 as u64)
            .filter(|&id| !is_planted[id as usize])
            .collect();
        HammingInstance {
            base,
            queries,
            removable,
        }
    }
}

/// The row of a point inserted during the run, as a function of its id:
/// driver threads and the replica derive it without sharing state.
pub fn inserted_row(seed: u64, id: u64) -> [u64; BLOCKS] {
    let mut g = SplitMix64::new(derive_seed(derive_seed(seed, STREAM_ROWS), id));
    std::array::from_fn(|_| g.next_u64())
}

/// A seeded order over the query set: every pass is a fresh permutation.
pub struct QueryOrder {
    rng: StdRng,
    order: Vec<u32>,
    cursor: usize,
}

impl QueryOrder {
    pub fn new(seed: u64, stream: u64, queries: usize) -> Self {
        QueryOrder {
            rng: child(seed, stream),
            order: (0..queries as u32).collect(),
            // Forces a shuffle on first use.
            cursor: queries,
        }
    }

    /// Index of the next query.
    pub fn next(&mut self) -> usize {
        if self.cursor == self.order.len() {
            for i in (1..self.order.len()).rev() {
                self.order.swap(i, self.rng.random_range(0..=i));
            }
            self.cursor = 0;
        }
        self.cursor += 1;
        self.order[self.cursor - 1] as usize
    }
}

/// The seeded op schedule: which queries come next, which rows are
/// inserted, which ids removed. The wire driver and the replica replay
/// each step one of these through the same calls.
pub struct Schedule {
    seed: u64,
    rng: StdRng,
    order: QueryOrder,
    removable: Vec<u64>,
    next_id: u64,
}

impl Schedule {
    pub fn new(seed: u64, inst: &HammingInstance) -> Self {
        Schedule {
            seed,
            rng: child(seed, STREAM_SCHEDULE),
            order: QueryOrder::new(seed, STREAM_QUERY_ORDER, inst.queries.len()),
            removable: inst.removable.clone(),
            next_id: inst.base.len() as u64,
        }
    }

    /// Indices of the next [`ROUND_QUERIES`] queries.
    pub fn next_queries(&mut self) -> Vec<usize> {
        (0..ROUND_QUERIES).map(|_| self.order.next()).collect()
    }

    /// Rows (flat) of the next `n` inserts; their ids are
    /// `id_bound..id_bound + n` and become removable.
    pub fn next_inserts(&mut self, n: usize) -> Vec<u64> {
        let mut rows = Vec::with_capacity(n * BLOCKS);
        for _ in 0..n {
            rows.extend_from_slice(&inserted_row(self.seed, self.next_id));
            self.removable.push(self.next_id);
            self.next_id += 1;
        }
        rows
    }

    /// `n` distinct live non-planted ids to remove.
    pub fn next_removes(&mut self, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| {
                let at = self.rng.random_range(0..self.removable.len());
                self.removable.swap_remove(at)
            })
            .collect()
    }

    /// Next id an insert will be assigned.
    pub fn id_bound(&self) -> u64 {
        self.next_id
    }
}

/// The write verbs of the wire protocol, implemented by the wire client
/// and by the in-process replica, so a load or a schedule is written
/// once and driven through either.
pub trait WriteTarget {
    /// Insert flat rows; returns the epoch and the assigned ids.
    fn insert_rows(&mut self, rows: &[u64]) -> Result<(u64, Vec<u64>), String>;
    /// Remove ids; returns the epoch and which were live.
    fn remove_ids(&mut self, ids: &[u64]) -> Result<(u64, Vec<bool>), String>;
    fn do_seal(&mut self) -> Result<u64, String>;
    fn do_compact(&mut self) -> Result<u64, String>;
    /// `(len, id_bound, epoch)`.
    fn shape(&mut self) -> Result<(u64, u64, u64), String>;
}

impl WriteTarget for Client {
    fn insert_rows(&mut self, rows: &[u64]) -> Result<(u64, Vec<u64>), String> {
        self.insert_batch(BLOCKS, rows).map_err(|e| e.to_string())
    }
    fn remove_ids(&mut self, ids: &[u64]) -> Result<(u64, Vec<bool>), String> {
        self.remove_batch(ids).map_err(|e| e.to_string())
    }
    fn do_seal(&mut self) -> Result<u64, String> {
        Client::seal(self).map_err(|e| e.to_string())
    }
    fn do_compact(&mut self) -> Result<u64, String> {
        Client::compact(self).map_err(|e| e.to_string())
    }
    fn shape(&mut self) -> Result<(u64, u64, u64), String> {
        let ServerInfo {
            len,
            id_bound,
            epoch,
            ..
        } = self.info().map_err(|e| e.to_string())?;
        Ok((len, id_bound, epoch))
    }
}

/// The replica applies each wire batch the way the server's handler
/// does: one staged [`dsh_index::WriteBatch`], one `apply_batch`.
impl WriteTarget for ShardedIndex<BitStore> {
    fn insert_rows(&mut self, rows: &[u64]) -> Result<(u64, Vec<u64>), String> {
        let first = self.id_bound() as u64;
        let mut batch = self.new_batch();
        for row in rows.chunks(BLOCKS) {
            batch.insert(row);
        }
        let outcomes = self.apply_batch(&batch).map_err(|e| e.to_string())?;
        let ids = (first..first + outcomes.len() as u64).collect();
        Ok((self.epoch(), ids))
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
        Ok((self.epoch(), removed))
    }
    fn do_seal(&mut self) -> Result<u64, String> {
        ShardedIndex::seal(self);
        Ok(self.epoch())
    }
    fn do_compact(&mut self) -> Result<u64, String> {
        ShardedIndex::compact(self);
        Ok(self.epoch())
    }
    fn shape(&mut self) -> Result<(u64, u64, u64), String> {
        Ok((self.len() as u64, self.id_bound() as u64, self.epoch()))
    }
}

/// Rows per `InsertBatch` while loading. Each batch is followed by a
/// `Seal`: a commit copies the shard's delta segment (cost linear in its
/// rows, measured at 8-10 us per row), so loading into an ever-growing
/// delta would be quadratic. Smaller batches also keep the transient
/// delta maps, which set the process's peak RSS, small.
const LOAD_CHUNK: usize = 4_096;

/// Load the instance's base points through `target`'s write verbs, then
/// `Compact` to one sealed segment per shard.
pub fn load(target: &mut impl WriteTarget, inst: &HammingInstance) -> Result<(), String> {
    let mut expect = 0u64;
    for chunk in inst.base.as_flat().chunks(LOAD_CHUNK * BLOCKS) {
        let (_, ids) = target.insert_rows(chunk)?;
        let rows = (chunk.len() / BLOCKS) as u64;
        if !ids.iter().copied().eq(expect..expect + rows) {
            return Err(format!("load: assigned ids do not continue at {expect}"));
        }
        expect += rows;
        target.do_seal()?;
    }
    target.do_compact()?;
    Ok(())
}

/// The write side of a workload, as a repeating cycle that ends where
/// it began (one sealed segment per shard, empty delta), so every window
/// of a timed phase is one cycle and does the same work.
///
/// Why cycles seal and compact at all: a commit's cost grows with the
/// delta segment, and every sealed segment adds ~9 us of bucket probes
/// to a query, so a schedule that only inserted would slow down for as
/// long as it ran and no two windows would be comparable.
pub struct Cycle {
    /// Rounds (write steps) per cycle; the last one is followed by
    /// `Compact`.
    pub rounds: u64,
    /// `Seal` after every this many rounds.
    pub seal_every: u64,
    /// Rows per round's `InsertBatch`.
    pub inserts: usize,
    /// Non-planted ids per round's `RemoveBatch`.
    pub removes: usize,
}

/// What one round's writes cost and whether the target acknowledged
/// them as scheduled.
pub struct RoundOutcome {
    /// `InsertBatch` + `RemoveBatch` round trips.
    pub step_ns: u64,
    /// `Seal` / `Compact` due after this round (0 when none was).
    pub maintenance_ns: u64,
    /// Assigned ids continued the id space and every removed id was live.
    pub acknowledged: bool,
    pub removed: Vec<u64>,
}

impl Cycle {
    pub fn ops_per_round(&self) -> usize {
        self.inserts + self.removes
    }

    /// Apply round number `round` (counted from 0 over the whole run) to
    /// `target`: the write step, then the maintenance due after it.
    pub fn write_round(
        &self,
        target: &mut impl WriteTarget,
        schedule: &mut Schedule,
        round: u64,
    ) -> Result<RoundOutcome, String> {
        let first_id = schedule.id_bound();
        let rows = schedule.next_inserts(self.inserts);
        let removed = schedule.next_removes(self.removes);
        let t0 = Instant::now();
        let (_, ids) = target.insert_rows(&rows)?;
        let (_, was_live) = target.remove_ids(&removed)?;
        let step_ns = t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        let maintained = if (round + 1).is_multiple_of(self.rounds) {
            target.do_compact().map(|_| true)?
        } else if (round + 1).is_multiple_of(self.seal_every) {
            target.do_seal().map(|_| true)?
        } else {
            false
        };
        Ok(RoundOutcome {
            step_ns,
            maintenance_ns: if maintained {
                t1.elapsed().as_nanos() as u64
            } else {
                0
            },
            acknowledged: ids.iter().copied().eq(first_id..schedule.id_bound())
                && was_live.len() == removed.len()
                && was_live.iter().all(|&live| live),
            removed,
        })
    }
}

/// One complete set-up, timed: generate the instance from the seed,
/// start a server, load it over the wire. Returns the seconds it took.
pub fn timed_setup(p: &WireParams, seed: u64) -> Result<(f64, HammingInstance, Served), String> {
    let started = Instant::now();
    let inst = HammingInstance::generate(seed, p);
    let served = Served::start(p, seed, &inst)?;
    Ok((started.elapsed().as_secs_f64(), inst, served))
}

/// A running server plus the connection set-up used to load it.
pub struct Served {
    handle: ServerHandle<BitStore>,
    /// The server's epoch once the load was compacted.
    pub loaded_epoch: u64,
}

impl Served {
    /// Start a server over an empty index and load `inst` over the wire.
    pub fn start(p: &WireParams, seed: u64, inst: &HammingInstance) -> Result<Self, String> {
        let handle = spawn::<u64, BitStore>(
            "127.0.0.1:0",
            p.empty_index(seed),
            ServerConfig::new(BLOCKS),
        )
        .map_err(|e| format!("spawn server: {e}"))?;
        let mut served = Served {
            handle,
            loaded_epoch: 0,
        };
        // The loading connection is dropped before returning: see `stop`.
        let mut conn = served.connect()?;
        load(&mut conn, inst)?;
        served.loaded_epoch = conn.shape()?.2;
        Ok(served)
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.handle.addr()).map_err(|e| format!("connect: {e}"))
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.handle.addr()
    }

    /// Stop the server and take its index. Every `Client` must have been
    /// dropped: `ServerHandle::stop` only wakes the accept loop, while
    /// connection handlers poll the flag a wire `Shutdown` sets, so a
    /// live connection keeps `stop` waiting forever (a known server
    /// defect, recorded in the README). Taking `self` by value after the
    /// clients went out of scope is how the workloads keep that order.
    pub fn stop(self) -> Result<ShardedIndex<BitStore>, String> {
        self.handle.stop().map_err(|e| format!("stop server: {e}"))
    }
}

/// Client-side verification: the first candidate, in retrieval order,
/// within `cr` of the query.
pub struct Verifier<'a> {
    base: &'a BitStore,
    seed: u64,
    cr_bits: u64,
    ids: Vec<usize>,
    dists: Vec<u64>,
}

impl<'a> Verifier<'a> {
    pub fn new(base: &'a BitStore, seed: u64, cr_bits: u64) -> Self {
        Verifier {
            base,
            seed,
            cr_bits,
            ids: Vec::new(),
            dists: Vec::new(),
        }
    }

    /// Candidates loaded before the run are verified with one
    /// `BitStore::hamming_many` call; the (rare) ones inserted during
    /// the run have their row re-derived from the id.
    pub fn first_within(&mut self, q: &[u64], candidates: &[u64]) -> Option<u64> {
        let n0 = self.base.len() as u64;
        self.ids.clear();
        self.ids.extend(
            candidates
                .iter()
                .filter(|&&id| id < n0)
                .map(|&id| id as usize),
        );
        self.base.hamming_many(&self.ids, q, &mut self.dists);
        let mut base_dists = self.dists.iter();
        candidates.iter().copied().find(|&id| {
            let dist = if id < n0 {
                base_dists.next().copied().unwrap_or(u64::MAX)
            } else {
                dsh_core::points::hamming(&inserted_row(self.seed, id), q)
            };
            dist <= self.cr_bits
        })
    }
}

/// Does `r` honour the `Query{limit}` contract? Distinct ids, counters
/// that add up, nothing past the retrieval limit or the id bound, no
/// distance computations (the server returns raw candidates).
pub fn answer_is_well_formed(r: &WireQueryResult, limit: usize, id_bound: u64) -> bool {
    let [_, retrieved, distinct, duplicates, distance_computations] = r.stats;
    let mut sorted = r.ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len() == r.ids.len()
        && distinct == r.ids.len() as u64
        && retrieved == distinct + duplicates
        && retrieved <= limit as u64
        && distance_computations == 0
        && r.ids.iter().all(|&id| id < id_bound)
}

/// Fold one answer (epoch, full stats, ids in order) into a checksum.
pub fn fold_answer(acc: u64, r: &WireQueryResult) -> u64 {
    let mut h = combine(acc, r.epoch);
    for s in r.stats {
        h = combine(h, s);
    }
    for &id in &r.ids {
        h = combine(h, id);
    }
    combine(h, r.ids.len() as u64)
}

/// An in-process answer in the wire's shape.
pub fn wire_result(epoch: u64, ids: &[usize], stats: &dsh_index::QueryStats) -> WireQueryResult {
    WireQueryResult {
        epoch,
        stats: [
            stats.tables_probed as u64,
            stats.candidates_retrieved as u64,
            stats.distinct_candidates as u64,
            stats.duplicates as u64,
            stats.distance_computations as u64,
        ],
        ids: ids.iter().map(|&id| id as u64).collect(),
    }
}

/// Answer every query of the instance over the wire, in order.
pub fn wire_sweep(
    client: &mut Client,
    inst: &HammingInstance,
    limit: usize,
) -> Result<Vec<WireQueryResult>, String> {
    (0..inst.queries.len())
        .map(|i| {
            client
                .query(inst.queries.row(i), Some(limit))
                .map_err(|e| format!("sweep query {i}: {e}"))
        })
        .collect()
}

/// How many answers of a wire sweep differ (ids, stats or epoch) from
/// the same sweep answered in-process by `replica`, whose epochs trail
/// the server's by `loaded_epoch` (see [`WireParams::bulk_index`]).
pub fn sweep_mismatches(
    swept: &[WireQueryResult],
    replica: &ShardedIndex<BitStore>,
    inst: &HammingInstance,
    limit: usize,
    loaded_epoch: u64,
) -> usize {
    let epoch = replica.epoch() + loaded_epoch;
    let expected = replica.candidates_batch(&inst.queries, Some(limit));
    let differing = swept
        .iter()
        .zip(&expected)
        .filter(|(wire, (ids, stats))| **wire != wire_result(epoch, ids, stats))
        .count();
    differing + swept.len().abs_diff(expected.len())
}

/// Fail the run for every `(source, shape)` that is not the replica's
/// `(len, id_bound, epoch)`.
pub fn check_shapes(
    report: &mut crate::report::Report,
    replica: (u64, u64, u64),
    observed: &[(&str, (u64, u64, u64))],
) {
    for &(source, shape) in observed {
        report.check(shape == replica, || {
            format!("(len, id_bound, epoch) = {shape:?} from {source}, {replica:?} on the replica")
        });
    }
}

/// `(len, id_bound, epoch)` of the replica, on the server's epoch scale.
pub fn replica_shape(replica: &ShardedIndex<BitStore>, loaded_epoch: u64) -> (u64, u64, u64) {
    (
        replica.len() as u64,
        replica.id_bound() as u64,
        replica.epoch() + loaded_epoch,
    )
}

/// Keeps the whole process on one CPU while alive (`taskset -a -cp`),
/// and puts it back on drop. On this class of VM a closed loop over one
/// loopback connection otherwise measures the hypervisor's idle-to-wake
/// latency, not `dsh` (see the README's hazards).
pub struct Pinned {
    restore: Option<String>,
}

impl Pinned {
    /// Pin to the last allowed CPU; a no-op (`is_pinned() == false`) when
    /// `taskset` is not on `PATH` or the affinity cannot be read.
    pub fn to_one_cpu() -> Self {
        let allowed = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                    .map(|l| l.trim().to_string())
            });
        let restore = allowed.filter(|list| {
            let last = list.rsplit([',', '-']).next().unwrap_or("");
            !last.is_empty() && taskset(last)
        });
        Pinned { restore }
    }

    pub fn is_pinned(&self) -> bool {
        self.restore.is_some()
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(list) = &self.restore {
            taskset(list);
        }
    }
}

/// Set the affinity of every thread of this process; the child is waited
/// for before returning.
fn taskset(cpus: &str) -> bool {
    Command::new("taskset")
        .args(["-a", "-cp", cpus, &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}
