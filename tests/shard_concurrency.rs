//! Concurrency soak for the sharded serving layer: one writer thread
//! streams insert/remove/seal/compact against a `ShardedIndex` while
//! reader threads keep taking snapshots — and every snapshot must answer
//! from its frozen state, **exactly**.
//!
//! Exactness is checked two ways per snapshot:
//!
//! * **bit-parity**: the snapshot's epoch says how many writes it has
//!   seen; replaying exactly that schedule prefix into an unsharded
//!   `DynamicIndex` (same seed, hence same hash functions) must reproduce
//!   the snapshot's candidates and `QueryStats` bit-for-bit;
//! * **`LinearScan` ground truth**: a `LinearScan` replayed to the same
//!   prefix pins the exact live set — every snapshot candidate must be
//!   live in the scan, the snapshot's stored rows must equal the inserted
//!   points, and (for a symmetric family) the scan's measure-zero answer
//!   to a live probe point must appear among the snapshot's candidates.
//!
//! The first snapshot each reader takes is held until the writer is done
//! and re-verified at the end: no amount of concurrent writing may change
//! what it answers.
//!
//! Runs across shard counts 1/2/8 and both flat store backends, for two
//! writer styles: per-op writes (one epoch per operation) and group
//! commits (`WriteBatch` + `apply_batch`, one epoch per batch — readers
//! replay each batch per-op, pinning the batched/per-op bit-parity under
//! concurrency). The `DSH_SOAK_ITERS` env knob scales the schedule
//! length (CI's release job sets it; the default keeps debug-mode tier-1
//! fast).

use dsh_core::family::DshFamily;
use dsh_core::points::{AppendStore, AsRow, BitStore, BitVector, DenseStore, DenseVector};
use dsh_data::{hamming_data, sphere_data};
use dsh_hamming::BitSampling;
use dsh_index::annulus::Measure;
use dsh_index::{measures, DynamicIndex, LinearScan, ShardedIndex, Snapshot};
use dsh_math::rng::seeded;
use dsh_sphere::UnimodalFilterDsh;
use std::sync::atomic::{AtomicBool, Ordering};

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const READERS: usize = 3;

/// Schedule-length multiplier: 1 in the debug tier-1 run, raised via
/// `DSH_SOAK_ITERS` in the release CI job.
fn soak_iters() -> usize {
    std::env::var("DSH_SOAK_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// One write operation of the soak schedule.
enum Op<P> {
    Insert(P),
    Remove(usize),
    Seal,
    Compact,
}

/// Precompute a deterministic interleaved schedule (remove victims are
/// chosen against the simulated live set, so replay never double-removes).
fn schedule<P: Clone>(points: &[P], seed: u64) -> Vec<Op<P>> {
    let mut rng = seeded(seed);
    let mut live: Vec<usize> = Vec::new();
    let mut ops = Vec::new();
    for (next_id, p) in points.iter().enumerate() {
        ops.push(Op::Insert(p.clone()));
        live.push(next_id);
        if rng.random_bool(0.12) {
            let k = dsh_math::rng::index(&mut rng, live.len());
            ops.push(Op::Remove(live.swap_remove(k)));
        }
        if (next_id + 1) % 19 == 0 {
            ops.push(Op::Seal);
        }
        if (next_id + 1) % 53 == 0 {
            ops.push(Op::Compact);
        }
    }
    ops
}

/// One item of a scheduled group commit.
enum BatchItem<P> {
    Insert(P),
    Remove(usize),
}

/// One write *event* of the batched soak schedule — each publishes
/// exactly one epoch (the schedule guarantees every event is effectual:
/// batches lead with an insert, seals and compacts fire only with a
/// non-empty delta).
enum BatchedOp<P> {
    Batch(Vec<BatchItem<P>>),
    Seal,
    Compact,
}

/// Precompute a deterministic group-commit schedule: batch sizes cycle
/// 1/7/256 (spanning every shard at the larger sizes), every fourth
/// batch is remove-heavy, and in-batch removes may target ids assigned
/// by the same batch's earlier inserts.
fn batched_schedule<P: Clone>(points: &[P], seed: u64) -> Vec<BatchedOp<P>> {
    let mut rng = seeded(seed);
    let mut live: Vec<usize> = Vec::new();
    let mut delta = 0usize; // unsealed rows in the simulated index
    let mut ops = Vec::new();
    let sizes = [1usize, 7, 256];
    let mut next = 0usize;
    let mut batch_no = 0usize;
    while next < points.len() {
        let target = sizes[batch_no % sizes.len()];
        let remove_prob = if batch_no % 4 == 3 { 0.5 } else { 0.15 };
        // Lead with an insert so every batch moves the delta.
        let mut items = vec![BatchItem::Insert(points[next].clone())];
        live.push(next);
        next += 1;
        delta += 1;
        for _ in 1..target {
            if !live.is_empty() && rng.random_bool(remove_prob) {
                let k = dsh_math::rng::index(&mut rng, live.len());
                items.push(BatchItem::Remove(live.swap_remove(k)));
            } else if next < points.len() {
                items.push(BatchItem::Insert(points[next].clone()));
                live.push(next);
                next += 1;
                delta += 1;
            } else {
                break;
            }
        }
        ops.push(BatchedOp::Batch(items));
        if (batch_no + 1).is_multiple_of(7) && delta > 0 {
            ops.push(BatchedOp::Compact);
            delta = 0;
        } else if (batch_no + 1).is_multiple_of(3) && delta > 0 {
            ops.push(BatchedOp::Seal);
            delta = 0;
        }
        batch_no += 1;
    }
    ops
}

/// A reader's private ground truth, replayed event-by-event to each
/// snapshot's epoch: the unsharded index (bit-parity), the linear scan
/// (exact live set), and the row log.
struct Replica<S: AppendStore + Clone, P> {
    index: DynamicIndex<S>,
    scan: LinearScan<S>,
    rows: Vec<P>,
}

impl<S: AppendStore + Clone, P: AsRow<Row = S::Row> + Clone> Replica<S, P> {
    fn advance<O: SoakOp<S, P>>(&mut self, ops: &[O]) {
        for op in ops {
            op.replay(self);
        }
    }

    fn apply_item(&mut self, item: &BatchItem<P>) {
        match item {
            BatchItem::Insert(p) => {
                self.index.insert(p).unwrap();
                self.scan.insert(p);
                self.rows.push(p.clone());
            }
            BatchItem::Remove(id) => {
                assert!(self.index.remove(*id).unwrap());
                assert!(self.scan.remove(*id).unwrap());
            }
        }
    }
}

/// One write event of a soak schedule: how a reader replays it into its
/// per-op replica, and how the writer applies it to the sharded index.
/// Each applied event must publish exactly one epoch — the readers'
/// prefix replay (`ops[..epoch]`) silently depends on it.
trait SoakOp<S: AppendStore + Clone, P: AsRow<Row = S::Row> + Clone> {
    fn replay(&self, replica: &mut Replica<S, P>);
    fn apply(&self, idx: &mut ShardedIndex<S>);
}

impl<S, P> SoakOp<S, P> for Op<P>
where
    S: AppendStore + Clone,
    P: AsRow<Row = S::Row> + Clone,
{
    fn replay(&self, replica: &mut Replica<S, P>) {
        match self {
            Op::Insert(p) => replica.apply_item(&BatchItem::Insert(p.clone())),
            Op::Remove(id) => replica.apply_item(&BatchItem::Remove(*id)),
            Op::Seal => replica.index.seal(),
            Op::Compact => replica.index.compact(),
        }
    }

    fn apply(&self, idx: &mut ShardedIndex<S>) {
        match self {
            Op::Insert(p) => {
                idx.insert(p).unwrap();
            }
            Op::Remove(id) => {
                assert!(idx.remove(*id).unwrap());
            }
            Op::Seal => idx.seal(),
            Op::Compact => idx.compact(),
        }
    }
}

impl<S, P> SoakOp<S, P> for BatchedOp<P>
where
    S: AppendStore + Clone,
    P: AsRow<Row = S::Row> + Clone,
{
    fn replay(&self, replica: &mut Replica<S, P>) {
        match self {
            BatchedOp::Batch(items) => {
                for item in items {
                    replica.apply_item(item);
                }
            }
            BatchedOp::Seal => replica.index.seal(),
            BatchedOp::Compact => replica.index.compact(),
        }
    }

    fn apply(&self, idx: &mut ShardedIndex<S>) {
        match self {
            BatchedOp::Batch(items) => {
                let mut batch = idx.new_batch();
                for item in items {
                    match item {
                        BatchItem::Insert(p) => batch.insert(p),
                        BatchItem::Remove(id) => batch.remove(*id),
                    }
                }
                let outcomes = idx
                    .apply_batch(&batch)
                    .expect("scheduled batches are valid");
                assert_eq!(outcomes.len(), items.len());
            }
            BatchedOp::Seal => idx.seal(),
            BatchedOp::Compact => idx.compact(),
        }
    }
}

/// All the exactness assertions one snapshot must satisfy against a
/// replica at the same epoch.
fn verify_snapshot<S, P>(
    snapshot: &Snapshot<S>,
    replica: &Replica<S, P>,
    queries: &[P],
    l: usize,
    symmetric: bool,
    ctx: &str,
) where
    S: AppendStore + Clone,
    S::Row: std::fmt::Debug + PartialEq,
    P: AsRow<Row = S::Row> + Clone,
{
    // Bit-parity with the unsharded replay.
    assert_eq!(snapshot.id_bound(), replica.index.id_bound(), "{ctx}");
    assert_eq!(snapshot.len(), replica.index.len(), "{ctx}");
    let live: Vec<usize> = replica.index.live_ids().collect();
    assert_eq!(snapshot.live_ids().collect::<Vec<_>>(), live, "{ctx}");
    for (qi, q) in queries.iter().enumerate() {
        for limit in [None, Some(2 * l)] {
            assert_eq!(
                replica.index.candidates(q, limit),
                snapshot.candidates(q, limit),
                "{ctx}, query {qi}, limit {limit:?}"
            );
        }
    }

    // LinearScan ground truth over the frozen point set.
    for &id in live.iter().take(5) {
        assert!(
            replica.scan.is_live(id),
            "{ctx}: snapshot live id {id} dead in the scan"
        );
        assert_eq!(
            snapshot.point(id),
            replica.rows[id].as_row(),
            "{ctx}: row {id} diverged from the inserted point"
        );
    }
    if let Some(&probe_id) = live.first() {
        let probe = &replica.rows[probe_id];
        let (cands, _) = snapshot.candidates(probe, None);
        for &c in &cands {
            assert!(
                replica.scan.is_live(c),
                "{ctx}: candidate {c} is not live in the scan"
            );
        }
        if symmetric {
            // The scan's measure-zero hit has a row identical to the
            // probe, so a symmetric family must retrieve it in every
            // table — it cannot be missing from the candidates.
            let (hit, _) = replica.scan.find_in_interval(probe, 0.0, 0.0);
            let hit = hit.expect("a live probe point must find itself");
            assert!(
                cands.contains(&hit),
                "{ctx}: scan's exact hit {hit} missing from snapshot candidates"
            );
        }
    }
}

/// The soak driver: writer thread streams the schedule, `READERS` reader
/// threads snapshot-and-verify until it finishes, each re-verifying its
/// first-held snapshot at the end.
#[allow(clippy::too_many_arguments)] // one knob per soak dimension
#[allow(clippy::needless_pass_by_value)] // owned datasets keep call sites one-liners
fn soak<S, P, F, M, O>(
    family: &F,
    empty: impl Fn() -> S + Sync,
    make_measure: M,
    ops: Vec<O>,
    queries: Vec<P>,
    l: usize,
    seed: u64,
    symmetric: bool,
) where
    S: AppendStore + Clone,
    S::Row: std::fmt::Debug + PartialEq,
    P: AsRow<Row = S::Row> + Clone + Send + Sync,
    F: DshFamily<S::Row> + ?Sized + Sync,
    M: Fn() -> Measure<S::Row> + Sync,
    O: SoakOp<S, P> + Sync,
{
    for &shards in &SHARD_COUNTS {
        let mut idx = ShardedIndex::build(family, empty(), l, shards, &mut seeded(seed));
        let handle = idx.reader_handle();
        let done = AtomicBool::new(false);
        // The writer waits here until every reader has taken and verified
        // its first (pre-write) snapshot, so each reader provably verifies
        // at least two snapshots: one at epoch 0 and the final one.
        let start = std::sync::Barrier::new(READERS + 1);
        std::thread::scope(|scope| {
            let (ops, done, queries, start) = (&ops, &done, &queries, &start);
            let empty = &empty;
            let make_measure = &make_measure;
            for reader in 0..READERS {
                let handle = handle.clone();
                scope.spawn(move || {
                    let mut replica = Replica {
                        index: DynamicIndex::build(family, empty(), l, &mut seeded(seed)),
                        scan: LinearScan::new(empty(), make_measure()),
                        rows: Vec::new(),
                    };
                    let mut cursor = 0usize;
                    let mut first: Option<(Snapshot<S>, DynamicIndex<S>)> = None;
                    let mut verified = 0usize;
                    loop {
                        let writer_done = done.load(Ordering::Acquire);
                        let snapshot = handle.snapshot();
                        let epoch = snapshot.epoch() as usize;
                        assert!(epoch >= cursor, "snapshot epochs must be monotone");
                        replica.advance(&ops[cursor..epoch]);
                        cursor = epoch;
                        let ctx = format!("shards {shards}, reader {reader}, epoch {epoch}");
                        verify_snapshot(&snapshot, &replica, queries, l, symmetric, &ctx);
                        verified += 1;
                        if first.is_none() {
                            first = Some((snapshot, replica.index.clone()));
                            start.wait(); // release the writer
                        }
                        if writer_done {
                            break;
                        }
                    }
                    assert_eq!(cursor, ops.len(), "final snapshot must be the last epoch");
                    assert!(verified >= 2, "reader {reader} verified too few snapshots");
                    // The snapshot held since the start still answers from
                    // its frozen state after every write has landed.
                    let (first_snapshot, pinned) = first.expect("at least one snapshot");
                    for q in queries {
                        assert_eq!(
                            pinned.candidates(q, None),
                            first_snapshot.candidates(q, None),
                            "shards {shards}, reader {reader}: held snapshot drifted"
                        );
                    }
                });
            }
            scope.spawn(move || {
                start.wait(); // all readers hold their pre-write snapshot
                for op in ops {
                    op.apply(&mut idx);
                    // Give readers a chance to interleave mid-schedule.
                    std::thread::yield_now();
                }
                done.store(true, Ordering::Release);
            });
        });
    }
}

#[test]
fn bit_store_snapshots_stay_exact_under_concurrent_writes() {
    let d = 128;
    let n = 130 * soak_iters();
    let points = hamming_data::uniform_hamming(&mut seeded(0x50AC), n, d);
    let queries: Vec<BitVector> = hamming_data::uniform_hamming(&mut seeded(0x50AD), 6, d);
    soak(
        &BitSampling::new(d),
        || BitStore::with_dim(d),
        || measures::relative_hamming(d),
        schedule(&points, 0x50AE ^ 0x0C0DE),
        queries,
        8,
        0x50AE,
        true,
    );
}

#[test]
fn dense_store_snapshots_stay_exact_under_concurrent_writes() {
    let d = 24;
    let n = 110 * soak_iters();
    let points = sphere_data::uniform_sphere(&mut seeded(0x50B0), n, d);
    let queries: Vec<DenseVector> = sphere_data::uniform_sphere(&mut seeded(0x50B1), 5, d);
    soak(
        &UnimodalFilterDsh::new(d, 0.4, 1.3),
        || DenseStore::with_dim(d),
        measures::inner_product,
        schedule(&points, 0x50B2 ^ 0x0C0DE),
        queries,
        7,
        0x50B2,
        false,
    );
}

#[test]
fn bit_store_snapshots_stay_exact_under_concurrent_group_commits() {
    let d = 128;
    let n = 420 * soak_iters();
    let points = hamming_data::uniform_hamming(&mut seeded(0x50C0), n, d);
    let queries: Vec<BitVector> = hamming_data::uniform_hamming(&mut seeded(0x50C1), 6, d);
    soak(
        &BitSampling::new(d),
        || BitStore::with_dim(d),
        || measures::relative_hamming(d),
        batched_schedule(&points, 0x50C2 ^ 0x0C0DE),
        queries,
        8,
        0x50C2,
        true,
    );
}

#[test]
fn dense_store_snapshots_stay_exact_under_concurrent_group_commits() {
    let d = 24;
    let n = 330 * soak_iters();
    let points = sphere_data::uniform_sphere(&mut seeded(0x50C4), n, d);
    let queries: Vec<DenseVector> = sphere_data::uniform_sphere(&mut seeded(0x50C5), 5, d);
    soak(
        &UnimodalFilterDsh::new(d, 0.4, 1.3),
        || DenseStore::with_dim(d),
        measures::inner_product,
        batched_schedule(&points, 0x50C6 ^ 0x0C0DE),
        queries,
        7,
        0x50C6,
        false,
    );
}
