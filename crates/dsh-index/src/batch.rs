//! Group-commit write batches: ordered inserts and removes applied —
//! and published — as one unit.
//!
//! The sharded serving layer pays a fixed tax per write transaction:
//! fork the state, copy the touched shard's mutable parts, publish a
//! fresh epoch. Per-op ingest pays it once per point. A [`WriteBatch`]
//! amortizes it, and `apply_batch` (on `DynamicIndex` or `ShardedIndex`)
//! is the write path every serving caller uses: the caller stages any
//! interleaving of inserts and removes, then `apply_batch` validates the
//! **whole** batch up front, applies every operation in order inside one
//! transaction, and publishes **one** epoch. Results are bit-identical to
//! replaying the same operations one at a time — same assigned ids,
//! same candidate lists, same [`crate::QueryStats`] — only the epoch
//! arithmetic (and the write cost) differs.
//!
//! Validation happens before any state is forked or mutated: an
//! out-of-range remove anywhere in the batch rejects the whole batch
//! with a descriptive [`BatchError`], never a partial application and
//! never a serving-path panic. Removes may target ids assigned by
//! earlier inserts *of the same batch* — the running id bound advances
//! through the ops exactly as a per-op replay would advance it.
//!
//! ```
//! use dsh_core::points::{BitStore, BitVector};
//! use dsh_hamming::BitSampling;
//! use dsh_index::{ShardedIndex, WriteOutcome};
//! use dsh_math::rng::seeded;
//!
//! let d = 64;
//! let mut rng = seeded(7);
//! let mut idx = ShardedIndex::build(&BitSampling::new(d), BitStore::with_dim(d), 8, 4, &mut rng);
//! let p = BitVector::random(&mut rng, d);
//!
//! let mut batch = idx.new_batch();
//! batch.insert(&p);
//! batch.remove(0); // the id the insert above will be assigned
//! let outcomes = idx.apply_batch(&batch).unwrap();
//! assert_eq!(outcomes, vec![WriteOutcome::Inserted(0), WriteOutcome::Removed(true)]);
//! assert_eq!(idx.epoch(), 1); // one publication for the whole batch
//! ```

use dsh_core::points::{AsRow, PointStore};

/// Hard cap on the id space every bucket layout shares: slot ids are
/// `u32`, so an index (or shard family) holds at most `u32::MAX`
/// points over its lifetime — assigned ids range over
/// `0..MAX_POINTS`. One bound, used by every write entry point: a
/// write is accepted iff the id bound after it is `<= MAX_POINTS`.
pub const MAX_POINTS: usize = u32::MAX as usize;

/// Why a single write operation was rejected — the recoverable
/// counterpart of what used to be a serving-path panic. Returned by
/// the per-op `insert`/`remove` on [`crate::DynamicIndex`] and
/// [`crate::ShardedIndex`]; group commits report the same conditions
/// per batch as [`BatchError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteError {
    /// A remove targeted an id that was never assigned. (A remove of a
    /// *known* id that was already removed is not an error: it returns
    /// `Ok(false)`, matching the group-commit surface.)
    UnknownId {
        /// The id the remove targeted.
        id: usize,
        /// One past the largest assigned id.
        bound: usize,
    },
    /// An insert would push the id space past [`MAX_POINTS`].
    CapacityExceeded {
        /// The id bound before the rejected write.
        id_bound: usize,
        /// How many ids the rejected write would have assigned.
        additional: usize,
    },
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WriteError::UnknownId { id, bound } => {
                write!(f, "remove of id {id} out of range (id bound: {bound})")
            }
            WriteError::CapacityExceeded {
                id_bound,
                additional,
            } => write!(
                f,
                "insert of {additional} point(s) at id bound {id_bound} exceeds \
                 the u32 point-id capacity ({MAX_POINTS})"
            ),
        }
    }
}

impl std::error::Error for WriteError {}

/// Accept a write assigning `additional` fresh ids on top of
/// `id_bound` iff the resulting bound stays within [`MAX_POINTS`].
pub(crate) fn ensure_capacity(id_bound: usize, additional: usize) -> Result<(), WriteError> {
    match id_bound.checked_add(additional) {
        Some(total) if total <= MAX_POINTS => Ok(()),
        _ => Err(WriteError::CapacityExceeded {
            id_bound,
            additional,
        }),
    }
}

/// Accept a remove of `id` iff it was ever assigned (`id < bound`).
pub(crate) fn ensure_known(id: usize, bound: usize) -> Result<(), WriteError> {
    if id < bound {
        Ok(())
    } else {
        Err(WriteError::UnknownId { id, bound })
    }
}

/// One staged operation of a [`WriteBatch`]: an insert (indexing the
/// batch's staged row buffer) or a remove of a global id.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BatchOp {
    /// Insert staged row `.0` (an index into the batch's row store).
    Insert(u32),
    /// Remove global id `.0`.
    Remove(u64),
}

/// What one batched operation did, in op order — exactly what the
/// corresponding per-op call would have returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// An insert, with the global id it was assigned.
    Inserted(usize),
    /// A remove; `false` when the id was already removed (matching the
    /// per-op `remove` return).
    Removed(bool),
}

/// Why a whole [`WriteBatch`] was rejected — before anything was
/// forked, mutated, or published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchError {
    /// A remove targeted an id outside the id space as it would stand
    /// at that point of the batch (the per-op path returns
    /// [`WriteError::UnknownId`]; the batch path must also reject
    /// without partial application).
    UnknownId {
        /// Position of the offending operation within the batch.
        op_index: usize,
        /// The id the remove targeted.
        id: usize,
        /// The id bound in force at that operation (one past the
        /// largest assigned id, counting the batch's earlier inserts).
        bound: usize,
    },
    /// An insert would push the id space past the `u32` slot-id
    /// capacity every bucket layout shares.
    CapacityExceeded {
        /// Position of the offending insert within the batch.
        op_index: usize,
    },
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BatchError::UnknownId {
                op_index,
                id,
                bound,
            } => write!(
                f,
                "batch op {op_index}: remove of id {id} out of range (id bound at that op: {bound})"
            ),
            BatchError::CapacityExceeded { op_index } => write!(
                f,
                "batch op {op_index}: insert exceeds the u32 point-id capacity"
            ),
        }
    }
}

impl std::error::Error for BatchError {}

/// An ordered sequence of inserts and removes, staged for one group
/// commit. Inserted rows are buffered in a [`PointStore`] of the
/// target index's row shape (obtain an empty batch from the index's
/// `new_batch`); apply with `apply_batch` on [`crate::DynamicIndex`]
/// or [`crate::ShardedIndex`]. See the module docs for semantics.
pub struct WriteBatch<BS: PointStore> {
    rows: BS,
    ops: Vec<BatchOp>,
    /// Op index of the first insert staged past [`MAX_POINTS`], if any.
    /// Staging must stay panic-free (it runs on the serving path), so an
    /// over-capacity insert poisons the batch here instead of asserting;
    /// `validate` rejects the whole batch with the recorded index.
    overflowed: Option<usize>,
}

impl<BS: PointStore> WriteBatch<BS> {
    /// An empty batch staging rows of `shape`'s row shape; `shape`'s
    /// rows are not taken.
    pub fn new(shape: &BS) -> Self {
        WriteBatch {
            rows: shape.empty_like(),
            ops: Vec::new(),
            overflowed: None,
        }
    }

    /// Stage an insert. The global id it will receive depends on the
    /// index the batch is applied to (and on the batch's earlier
    /// inserts); it is reported by the corresponding
    /// [`WriteOutcome::Inserted`].
    ///
    /// Staging more than [`MAX_POINTS`] inserts poisons the batch: the
    /// over-capacity insert (and everything staged after it) is dropped,
    /// and applying the batch reports
    /// [`BatchError::CapacityExceeded`] at that op index. Such a batch
    /// could never be applied anyway — the id space itself is capped at
    /// [`MAX_POINTS`] — so the failure is deferred to `validate` rather
    /// than panicking mid-staging on the serving path.
    pub fn insert<Q>(&mut self, p: &Q)
    where
        Q: AsRow<Row = BS::Row> + ?Sized,
    {
        if self.overflowed.is_some() {
            return;
        }
        let slot = self.rows.len();
        if slot >= MAX_POINTS {
            self.overflowed = Some(self.ops.len());
            return;
        }
        self.rows.push_row(p.as_row());
        self.ops.push(BatchOp::Insert(slot as u32));
    }

    /// Stage a remove of global id `id`. The id must be in range when
    /// the batch is applied (earlier inserts of this batch count);
    /// otherwise the whole batch is rejected with
    /// [`BatchError::UnknownId`].
    pub fn remove(&mut self, id: usize) {
        if self.overflowed.is_some() {
            return;
        }
        self.ops.push(BatchOp::Remove(id as u64));
    }

    /// Number of staged operations (inserts plus removes).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of staged inserts.
    pub fn inserts(&self) -> usize {
        self.rows.len()
    }

    /// The staged operations, in order.
    pub(crate) fn ops(&self) -> &[BatchOp] {
        &self.ops
    }

    /// Borrow staged row `slot`.
    pub(crate) fn row(&self, slot: u32) -> &BS::Row {
        self.rows.row(slot as usize)
    }

    /// Check every operation against the id space of an index whose
    /// current id bound is `id_bound`, advancing the bound through the
    /// batch's inserts exactly as application would. `Err` means the
    /// batch must not be applied at all.
    pub(crate) fn validate(&self, id_bound: usize) -> Result<(), BatchError> {
        if let Some(op_index) = self.overflowed {
            return Err(BatchError::CapacityExceeded { op_index });
        }
        let mut bound = id_bound;
        for (op_index, op) in self.ops.iter().enumerate() {
            match *op {
                BatchOp::Insert(_) => {
                    if ensure_capacity(bound, 1).is_err() {
                        return Err(BatchError::CapacityExceeded { op_index });
                    }
                    bound += 1;
                }
                BatchOp::Remove(id) => {
                    let id = id as usize;
                    if id >= bound {
                        return Err(BatchError::UnknownId {
                            op_index,
                            id,
                            bound,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_core::points::{BitStore, BitVector};
    use dsh_math::rng::seeded;

    #[test]
    fn staging_tracks_ops_and_rows() {
        let d = 64;
        let mut batch = WriteBatch::new(&BitStore::with_dim(d));
        assert!(batch.is_empty());
        let p = BitVector::random(&mut seeded(1), d);
        batch.insert(&p);
        batch.remove(0);
        batch.insert(&p);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.inserts(), 2);
        assert_eq!(batch.row(0), p.as_blocks());
    }

    #[test]
    fn validate_advances_the_bound_through_inserts() {
        let d = 32;
        let mut batch = WriteBatch::new(&BitStore::with_dim(d));
        let p = BitVector::zeros(d);
        batch.insert(&p); // would get id 5 on a bound-5 index
        batch.remove(5); // valid: removes the id just inserted
        assert_eq!(batch.validate(5), Ok(()));
        // On an empty index the same batch's remove targets id 5 with
        // only id 0 assigned: rejected, with the running bound reported.
        assert_eq!(
            batch.validate(0),
            Err(BatchError::UnknownId {
                op_index: 1,
                id: 5,
                bound: 1
            })
        );
    }

    #[test]
    fn validate_rejects_before_bound_not_after() {
        let d = 32;
        let mut batch = WriteBatch::new(&BitStore::with_dim(d));
        batch.remove(9);
        assert!(matches!(
            batch.validate(9),
            Err(BatchError::UnknownId {
                op_index: 0,
                id: 9,
                bound: 9
            })
        ));
        assert_eq!(batch.validate(10), Ok(()));
    }

    #[test]
    fn errors_render_descriptively() {
        let e = BatchError::UnknownId {
            op_index: 3,
            id: 41,
            bound: 40,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("op 3") && msg.contains("41") && msg.contains("40"),
            "{msg}"
        );
        let msg = BatchError::CapacityExceeded { op_index: 7 }.to_string();
        assert!(msg.contains("op 7") && msg.contains("capacity"), "{msg}");
    }

    #[test]
    fn capacity_bound_is_inclusive_of_max_points() {
        // The one bound every entry point shares: a write is fine iff
        // the id bound after it is <= MAX_POINTS. Filling the id space
        // exactly is allowed; one past it is not.
        assert_eq!(ensure_capacity(0, MAX_POINTS), Ok(()));
        assert_eq!(ensure_capacity(MAX_POINTS - 1, 1), Ok(()));
        assert_eq!(ensure_capacity(MAX_POINTS, 0), Ok(()));
        assert_eq!(
            ensure_capacity(MAX_POINTS, 1),
            Err(WriteError::CapacityExceeded {
                id_bound: MAX_POINTS,
                additional: 1
            })
        );
        assert_eq!(
            ensure_capacity(1, MAX_POINTS),
            Err(WriteError::CapacityExceeded {
                id_bound: 1,
                additional: MAX_POINTS
            })
        );
        // Overflowing usize arithmetic must reject, not wrap.
        assert!(ensure_capacity(usize::MAX, 2).is_err());
    }

    #[test]
    fn batch_validate_agrees_with_ensure_capacity_at_the_boundary() {
        let d = 32;
        let mut batch = WriteBatch::new(&BitStore::with_dim(d));
        batch.insert(&BitVector::zeros(d));
        // One insert on a bound one shy of the cap lands exactly on it.
        assert_eq!(batch.validate(MAX_POINTS - 1), Ok(()));
        // On a full index the same insert is rejected.
        assert_eq!(
            batch.validate(MAX_POINTS),
            Err(BatchError::CapacityExceeded { op_index: 0 })
        );
    }

    #[test]
    fn unknown_id_check_is_strict() {
        assert_eq!(ensure_known(4, 5), Ok(()));
        assert_eq!(
            ensure_known(5, 5),
            Err(WriteError::UnknownId { id: 5, bound: 5 })
        );
    }

    #[test]
    fn write_errors_render_descriptively() {
        let msg = WriteError::UnknownId { id: 41, bound: 40 }.to_string();
        assert!(msg.contains("41") && msg.contains("40"), "{msg}");
        let msg = WriteError::CapacityExceeded {
            id_bound: 7,
            additional: 2,
        }
        .to_string();
        assert!(
            msg.contains("7") && msg.contains("2") && msg.contains("capacity"),
            "{msg}"
        );
    }

    #[test]
    fn new_takes_only_the_shape() {
        let d = 32;
        let mut rows = BitStore::with_dim(d);
        rows.push(&BitVector::zeros(d));
        let mut batch = WriteBatch::new(&rows);
        assert!(batch.is_empty());
        assert_eq!(batch.inserts(), 0);
        let p = BitVector::ones(d);
        batch.insert(&p);
        assert_eq!(batch.row(0), p.as_blocks());
    }
}
