//! Search data structures built on distance-sensitive hash families
//! (paper §6.1–§6.3).
//!
//! * [`table`] — the `L`-repetition asymmetric hash table underlying
//!   every structure: points inserted under `h`, queries probed under
//!   `g`; the CSR buckets, the query scratch, and the build-once
//!   [`HashTableIndex`] (a frozen one-segment [`Snapshot`]);
//! * [`frontend`] — the one query surface: a [`Frontend`] retrieves
//!   candidates from a backend and keeps the ones its [`Verifier`]
//!   accepts; the named indexes are aliases over three verifiers;
//! * [`ann`] — `(r1, r2)`-near-neighbor search: the first candidate
//!   within `r2`, after at most `3L` entries;
//! * [`annulus`] — approximate annulus search with any unimodal CPF
//!   (Theorem 6.1): the first candidate inside the reporting interval,
//!   after at most `8L` entries;
//! * [`range_reporting`] — approximate spherical range reporting with
//!   step-function CPFs (Theorem 6.5): all candidates within `r_plus`,
//!   with output-sensitivity accounting;
//! * [`hyperplane`], [`sphere_annulus`] — hyperplane queries (§6.1) and
//!   the Definition 6.3 / Theorem 6.4 problem on the sphere: parameter
//!   derivations that return an [`AnnulusIndex`];
//! * [`linear_scan`] — the exact baseline every experiment compares
//!   against (including the dynamic path: it supports insert/remove);
//! * [`dynamic`] — the mutable segmented index for one thread: a
//!   [`DynamicIndex`] owns a one-shard, unpublished [`Snapshot`] and
//!   writes it in place — online insert/remove, seal, and re-hash-free
//!   compaction;
//! * [`batch`] — group-commit write batches, the write path: ordered
//!   inserts and removes staged in a [`WriteBatch`], validated up front
//!   and applied (and published) as one unit by `apply_batch`, closing
//!   the per-write publication tax of the sharded serving layer;
//! * [`shard`] — the segmented state itself (per shard: sealed CSR
//!   segments, a `HashMap` delta segment, tombstones), the one
//!   [`Snapshot`] walk that reads it, and the concurrent serving layer:
//!   a [`ShardedIndex`] partitions points across `N` shards behind
//!   epoch-stamped `Arc`-swap snapshots, so readers answer —
//!   bit-identically for every shard count — while writers insert,
//!   remove, seal, and compact, each write one fork-mutate-commit
//!   transaction;
//! * [`parallel`] — the scoped-thread fan-out used for parallel table
//!   builds and batched queries.
//!
//! Every structure stores its buckets in a flat CSR layout (see [`table`]),
//! builds its `L` repetitions across worker threads, and offers a
//! `query_batch` variant that amortizes scratch buffers and fans queries
//! out across threads. Batched results are always identical to a
//! query-at-a-time loop, for every thread count.
//!
//! There is one walk, [`Snapshot`]'s, and a [`Frontend`] reads through
//! it whoever owns the snapshot (`B: Borrow<Snapshot<S>>`): the static
//! [`HashTableIndex`] its `build` constructor makes, or — through the
//! `over` constructors — the segmented [`DynamicIndex`], the concurrent
//! [`ShardedIndex`], or a bare [`Snapshot`] of one. It only reads; points
//! are inserted and retired online through [`Frontend::backend_mut`]. A
//! dynamic index grown by inserts and then compacted answers queries
//! bit-identically to a static build over the same final point set.
//!
//! Points live in a [`dsh_core::points::PointStore`]: the flat
//! [`dsh_core::points::BitStore`] / [`dsh_core::points::DenseStore`]
//! (contiguous rows — hashing and candidate verification at memory
//! bandwidth); owned points convert with `From<Vec<_>>`. Candidate
//! verification goes through row-based [`annulus::Measure`]s (see
//! [`measures`] for the stock kernels).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ann;
pub mod annulus;
pub mod batch;
pub mod dynamic;
pub mod frontend;
pub mod hyperplane;
pub mod linear_scan;
pub mod measures;
pub mod parallel;
pub mod range_reporting;
pub mod shard;
pub mod sphere_annulus;
pub mod table;

pub use ann::{ann_params, AnnParams, NearNeighborIndex, MAX_REPETITIONS};
pub use annulus::AnnulusIndex;
pub use batch::{BatchError, WriteBatch, WriteError, WriteOutcome, MAX_POINTS};
pub use dynamic::DynamicIndex;
pub use frontend::{Frontend, Verifier};
pub use linear_scan::LinearScan;
pub use range_reporting::RangeReportingIndex;
pub use shard::{ReaderHandle, ShardedIndex, Snapshot};
pub use sphere_annulus::AnnulusSpec;
pub use table::{HashTableIndex, QueryScratch, QueryStats};
