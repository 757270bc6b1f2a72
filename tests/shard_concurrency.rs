//! Concurrency soak for the sharded serving layer: one writer thread
//! streams a generated schedule against a `ShardedIndex` while reader
//! threads keep taking snapshots — and every snapshot must answer from
//! its frozen state, **exactly**.
//!
//! Schedule, model and comparisons are the write-path harness's
//! (`tests/common/harness.rs`). The model says which ops publish an
//! epoch, so a snapshot's epoch says how far into the schedule it was
//! taken: each reader advances a private per-op `DynamicIndex` replica
//! and a model to that point and runs the harness checkpoint on the pair
//! — bit-parity (ids, order, full `QueryStats`) with the replica, shape
//! with the model, and the oracle (`LinearScan` live set and rows,
//! static rebuild) on top. The first snapshot each reader takes is held
//! until the writer is done and re-verified against the model of its
//! moment: no amount of concurrent writing may change what it answers.
//!
//! Runs across shard counts 1/2/8 and both flat store backends, for two
//! writer styles: per-op writes (the schedule's batches flattened) and
//! group commits (one epoch per effectual batch, replayed per-op by the
//! readers, pinning the batched/per-op bit-parity under concurrency).
//! The `DSH_SOAK_ITERS` env knob scales the schedule length (CI's
//! release job sets it; the default keeps debug-mode tier-1 fast).

mod common;

use common::harness::{generate, Driven, Fixture, Model, Op, Style, SHARD_COUNTS};
use dsh_core::points::{AsRow, PointStore};
use std::sync::atomic::{AtomicBool, Ordering};

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

/// The generated schedule with every batch replaced by its items.
fn flattened(ops: Vec<Op>) -> Vec<Op> {
    let items = |op| match op {
        Op::Batch(items) => items,
        op => vec![op],
    };
    ops.into_iter().flat_map(items).collect()
}

/// The soak driver: writer thread streams the schedule, `READERS` reader
/// threads snapshot-and-verify until it finishes, each re-verifying its
/// first-held snapshot at the end.
fn soak<S, P>(fx: &Fixture<S, P>, ops: &[Op])
where
    S: PointStore + 'static,
    S::Row: AsRow<Row = S::Row> + std::fmt::Debug + PartialEq,
    P: AsRow<Row = S::Row> + Sync,
{
    let mut model = Model::default();
    let last_epoch: u64 = (ops.iter())
        .map(|op| u64::from(model.apply(op).publishes()))
        .sum();
    for shards in SHARD_COUNTS {
        let idx = fx.sharded(shards);
        let handle = idx.reader_handle();
        let mut writer = Driven::new(Style::Group, idx);
        let done = AtomicBool::new(false);
        // The writer waits here until every reader has taken and verified
        // its first (pre-write) snapshot, so each reader provably verifies
        // at least two snapshots: one at epoch 0 and the final one.
        let start = std::sync::Barrier::new(READERS + 1);
        std::thread::scope(|scope| {
            let (done, start) = (&done, &start);
            for reader in 0..READERS {
                let handle = handle.clone();
                scope.spawn(move || {
                    let mut replica = Driven::new(Style::PerOp, fx.dynamic());
                    let mut model = Model::default();
                    let (mut cursor, mut published) = (0, 0);
                    let mut first = None;
                    let mut verified = 0;
                    loop {
                        let writer_done = done.load(Ordering::Acquire);
                        let snapshot = handle.snapshot();
                        let epoch = snapshot.epoch();
                        assert!(epoch >= published, "snapshot epochs must be monotone");
                        // Ops past the one that published `epoch` change
                        // nothing until the next one that publishes.
                        while published < epoch {
                            let expected = model.apply(&ops[cursor]);
                            replica.step(&ops[cursor], &expected, fx, "replica");
                            published += u64::from(expected.publishes());
                            cursor += 1;
                        }
                        let at = format!("shards {shards}, reader {reader}, epoch {epoch}");
                        let views = [("replica", &**replica.subject), ("snapshot", &snapshot)];
                        fx.checkpoint(&views, &model, Some(1), &at);
                        verified += 1;
                        if first.is_none() {
                            first = Some((snapshot, model.clone()));
                            start.wait(); // release the writer
                        }
                        if writer_done {
                            break;
                        }
                    }
                    assert_eq!(
                        published, last_epoch,
                        "final snapshot must be the last epoch"
                    );
                    assert!(verified >= 2, "reader {reader} verified too few snapshots");
                    // The snapshot held since the start still answers from
                    // its frozen state after every write has landed.
                    let (snapshot, frozen) = first.expect("at least one snapshot");
                    let at = format!("shards {shards}, reader {reader}: held snapshot");
                    fx.checkpoint(&[("held", &snapshot)], &frozen, Some(1), &at);
                });
            }
            scope.spawn(move || {
                let mut model = Model::default();
                start.wait(); // all readers hold their pre-write snapshot
                for (i, op) in ops.iter().enumerate() {
                    let expected = model.apply(op);
                    writer.step(op, &expected, fx, &format!("writer, op {i} {op:?}"));
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
    let fx = Fixture::bits(0x50AC, 60 * soak_iters(), 6, 8);
    soak(&fx, &flattened(generate(0xC0DE, fx.pool.len())));
}

#[test]
fn dense_store_snapshots_stay_exact_under_concurrent_writes() {
    let fx = Fixture::dense(0x50B0, 50 * soak_iters(), 5, 7);
    soak(&fx, &flattened(generate(0xC0DE, fx.pool.len())));
}

#[test]
fn bit_store_snapshots_stay_exact_under_concurrent_group_commits() {
    let fx = Fixture::bits(0x50C0, 150 * soak_iters(), 6, 8);
    soak(&fx, &generate(0xC0DE, fx.pool.len()));
}

#[test]
fn dense_store_snapshots_stay_exact_under_concurrent_group_commits() {
    let fx = Fixture::dense(0x50C4, 120 * soak_iters(), 5, 7);
    soak(&fx, &generate(0xC0DE, fx.pool.len()));
}
