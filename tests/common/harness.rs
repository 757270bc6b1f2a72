//! The write-path harness: one schedule language ([`Op`]), one seeded
//! generator ([`generate`]), one [`Model`] that says what any op must
//! do, one [`Subject`] trait over the two index owners, one oracle
//! (`LinearScan` for the live set and rows, the static `HashTableIndex`
//! rebuild for ids, order and `QueryStats`, itself checked against the
//! structure's definition, [`super::by_definition`]) and one shrinker.
//!
//! A [`Fixture`] owns a point pool, queries and a family. Its
//! [`Fixture::check`] drives `DynamicIndex` and `ShardedIndex` at 1, 2
//! and 8 shards through one op list twice over — batches as group
//! commits, and the same batches replayed item by item — and after
//! every op that is not a plain insert compares every subject with
//! subject 0 on ids, order and full `QueryStats`, and every subject's
//! outcome, shape and publication epoch with the model. After every
//! seal and compact and at the end of the list subject 0 also faces the
//! oracle. The model answers for *any* op list, so every list is a
//! valid schedule; that is what lets [`Fixture::sweep`] shrink a
//! generated schedule that fails.
//!
//! # Reading a failure
//!
//! A failing sweep panics with the fixture, the schedule seed, the first
//! failed assertion, and a shrunk schedule, e.g.
//!
//! ```text
//! Fixture::bits(0x11a0, 240, 14, 10): schedule seed 0x4f4f failed: ..
//! shrunk to 3 ops: sharded/2 group commits, op 2 Remove(0): epoch ..
//! replay: Fixture::bits(0x11a0, 240, 14, 10).check(&[Insert(0), Remove(0), Remove(0)])
//! ```
//!
//! `Insert(i)` inserts pool point `i`; `Remove(id)` takes the global id.
//! Paste the `replay:` expression into `pasted_schedule` in
//! `tests/dynamic_parity.rs` and run
//! `cargo test --test dynamic_parity pasted_schedule` to step through it.

use super::{bit_points, by_definition, dense_points};
use dsh_core::family::DshFamily;
use dsh_core::points::{AsRow, BitStore, BitVector, DenseStore, DenseVector, PointStore};
use dsh_hamming::BitSampling;
use dsh_index::annulus::Measure;
use dsh_index::{
    measures, parallel, BatchError, DynamicIndex, HashTableIndex, LinearScan, ShardedIndex,
    Snapshot, WriteBatch, WriteError, WriteOutcome,
};
use dsh_math::rng::{index, seeded};
use dsh_sphere::UnimodalFilterDsh;
use rand::Rng;
use std::cell::Cell;
use std::fmt::Debug;
use std::ops::Deref;
use std::panic::{self, AssertUnwindSafe};

pub const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const BUILD_THREADS: [usize; 3] = [1, 2, 8];
const BATCH_THREADS: [usize; 3] = [1, 3, 8];

/// One write operation of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Insert pool point `.0`; it is assigned the next global id.
    Insert(usize),
    /// Remove global id `.0` (live, already dead, or never assigned).
    Remove(usize),
    /// One group commit of `Insert` / `Remove` items.
    Batch(Vec<Op>),
    Seal,
    Compact,
    /// Take a clone (`DynamicIndex`) or reader snapshot (`ShardedIndex`)
    /// of every subject and hold it to the end of the schedule, where
    /// it must still answer from the state it was taken at.
    Hold,
}
use Op::{Batch, Compact, Hold, Insert, Remove, Seal};

/// What a write returns, in one shape for every op: the per-item
/// outcomes, or the rejection (a single remove's
/// `WriteError::UnknownId` reads as batch op 0).
pub type Outcome = Result<Vec<WriteOutcome>, BatchError>;

/// What the model says an op must do.
pub struct Expected {
    pub outcome: Outcome,
    /// How many of the op's items change the state: the epochs an
    /// item-by-item replay publishes.
    pub effectual: u64,
}

impl Expected {
    /// A `ShardedIndex` taking the op whole must publish exactly one
    /// epoch if it changes the state and none otherwise.
    pub fn publishes(&self) -> bool {
        self.effectual > 0
    }
}

/// The reference semantics of the write path: the live set, the id
/// bound, and the segment layout as far as `Snapshot`'s accessors show
/// it.
#[derive(Clone, Default)]
pub struct Model {
    /// Pool index of each assigned id.
    rows: Vec<usize>,
    live: Vec<bool>,
    /// Ids from here up sit in the delta.
    delta_start: usize,
    segments: usize,
}

impl Model {
    pub fn bound(&self) -> usize {
        self.rows.len()
    }

    pub fn live_ids(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.bound()).filter(|&id| self.live[id])
    }

    /// The pool index of the point inserted under `id`.
    pub fn pool_index(&self, id: usize) -> usize {
        self.rows[id]
    }

    fn delta_rows(&self) -> usize {
        self.bound() - self.delta_start
    }

    /// `[id bound, live, removed, delta rows, sealed segments]`, as the
    /// accessors of a `Snapshot` in this state report them.
    pub fn shape(&self) -> [usize; 5] {
        let live = self.live_ids().count();
        let dead = self.bound() - live;
        [self.bound(), live, dead, self.delta_rows(), self.segments]
    }

    /// Advance through `op` and say what it must have done.
    pub fn apply(&mut self, op: &Op) -> Expected {
        let done = |outcome: Vec<WriteOutcome>, effectual: bool| Expected {
            outcome: Ok(outcome),
            effectual: u64::from(effectual),
        };
        let rejected = |op_index, id, bound| Expected {
            outcome: Err(BatchError::UnknownId {
                op_index,
                id,
                bound,
            }),
            effectual: 0,
        };
        match op {
            Insert(i) => {
                self.rows.push(*i);
                self.live.push(true);
                done(vec![WriteOutcome::Inserted(self.bound() - 1)], true)
            }
            Remove(id) if *id >= self.bound() => rejected(0, *id, self.bound()),
            Remove(id) => {
                let was_live = std::mem::replace(&mut self.live[*id], false);
                done(vec![WriteOutcome::Removed(was_live)], was_live)
            }
            Batch(items) => {
                // All or nothing: the first remove past the bound as it
                // stands at that item rejects the whole batch.
                let mut bound = self.bound();
                for (op_index, item) in items.iter().enumerate() {
                    match item {
                        Insert(_) => bound += 1,
                        Remove(id) if *id >= bound => return rejected(op_index, *id, bound),
                        Remove(_) => {}
                        other => panic!("{other:?} is not a batch item"),
                    }
                }
                let (mut outcome, mut effectual) = (Vec::new(), 0);
                for item in items {
                    let expected = self.apply(item);
                    outcome.extend(expected.outcome.expect("validated above"));
                    effectual += expected.effectual;
                }
                let outcome = Ok(outcome);
                Expected { outcome, effectual }
            }
            Seal => {
                // A delta of only dead rows is retired without a segment.
                let publishes = self.delta_rows() > 0;
                self.segments += usize::from(self.live[self.delta_start..].contains(&true));
                self.delta_start = self.bound();
                done(Vec::new(), publishes)
            }
            Compact => {
                let publishes = self.segments > 0 || self.delta_rows() > 0;
                if publishes {
                    self.segments = usize::from(self.live.contains(&true));
                    self.delta_start = self.bound();
                }
                done(Vec::new(), publishes)
            }
            Hold => done(Vec::new(), false),
        }
    }
}

/// A remove target: usually a live id, one time in six an already dead
/// one (double remove), and with odds `at_bound` the id bound itself —
/// never assigned, so the write must be rejected.
fn victim(rng: &mut dyn Rng, model: &Model, at_bound: f64) -> usize {
    let live: Vec<usize> = model.live_ids().collect();
    let dead: Vec<usize> = (0..model.bound()).filter(|&id| !model.live[id]).collect();
    let pick = |rng: &mut dyn Rng, ids: &[usize]| ids[index(rng, ids.len())];
    if rng.random_bool(at_bound) || (live.is_empty() && dead.is_empty()) {
        model.bound()
    } else if live.is_empty() || (!dead.is_empty() && rng.random_bool(1.0 / 6.0)) {
        pick(rng, &dead)
    } else {
        pick(rng, &live)
    }
}

/// The one generator: a seeded schedule of `pool` ops over a pool of as
/// many points, every op drawn against a model of the state so far.
/// Inserts take the pool in order and start over when they outrun it
/// (equal rows under different ids share every bucket). About one remove
/// per four inserts, so the live set grows while every layout region
/// collects tombstones; group commits cycle through 7, 1 and 256 items
/// (the last spans every shard many times over), every fourth one
/// remove-heavy. The edges that have bitten are drawn on purpose: double
/// remove, remove at the id bound, empty and all-dead batches, in-batch
/// removes of same-batch inserts, a batch rejected by its last item,
/// seal on an empty or all-tombstoned delta, compact with no segments,
/// and writes against a held snapshot.
pub fn generate(seed: u64, pool: usize) -> Vec<Op> {
    let rng = &mut seeded(seed);
    let mut model = Model::default();
    // On the empty index neither may change anything.
    let mut ops = vec![Compact, Seal];
    let (mut next, mut batches) = (0, 0);
    while ops.len() < pool {
        let drawn = ops.len();
        match rng.random_range(0..100) {
            0..=13 => ops.push(Remove(victim(rng, &model, 0.05))),
            14..=17 => {
                let size = [7, 1, 256][batches % 3];
                let items = batch_items(rng, &model, (next, pool), size, batches % 4 == 3);
                batches += 1;
                if model.clone().apply(&Batch(items.clone())).outcome.is_ok() {
                    next += items.iter().filter(|op| matches!(op, Insert(_))).count();
                }
                ops.push(Batch(items));
            }
            18..=25 => {
                ops.push(Seal);
                if rng.random_bool(0.25) {
                    ops.push(Seal); // on the delta the first one emptied
                }
            }
            26..=27 => {
                // Tombstone what is left of a small delta, then seal it.
                let delta: Vec<usize> = model
                    .live_ids()
                    .filter(|&id| id >= model.delta_start)
                    .collect();
                if delta.len() <= 8 {
                    ops.extend(delta.into_iter().map(Remove));
                }
                ops.push(Seal);
            }
            28..=32 => ops.push(Compact),
            33..=34 => ops.push(Hold),
            _ => {
                ops.push(Insert(next % pool));
                next += 1;
            }
        }
        for op in &ops[drawn..] {
            model.apply(op);
        }
    }
    ops
}

/// The items of one generated group commit of up to `size` ops, its
/// inserts taking the pool from `next` on.
fn batch_items(
    rng: &mut dyn Rng,
    model: &Model,
    (mut next, pool): (usize, usize),
    size: usize,
    remove_heavy: bool,
) -> Vec<Op> {
    let mut running = model.clone();
    let mut items = Vec::new();
    let dead: Vec<usize> = (0..model.bound()).filter(|&id| !model.live[id]).collect();
    match rng.random_range(0..10) {
        0 => {} // the empty batch
        1 if !dead.is_empty() => {
            // Only double removes: changes nothing, publishes nothing.
            let pick = |_| Remove(dead[index(rng, dead.len())]);
            items.extend((0..size.min(3)).map(pick));
        }
        roll => {
            let remove_odds = if remove_heavy { 0.6 } else { 0.2 };
            for _ in 0..size {
                let item = if running.live.contains(&true) && rng.random_bool(remove_odds) {
                    Remove(victim(rng, &running, 0.0)) // may target this batch's inserts
                } else {
                    next += 1;
                    Insert((next - 1) % pool)
                };
                running.apply(&item);
                items.push(item);
            }
            if roll == 2 {
                items.push(Remove(running.bound())); // rejects the whole batch
            }
        }
    }
    items
}

/// The write verbs of the two owners of a [`Snapshot`], so that one
/// schedule drives either; reads go through the deref.
pub trait Subject<S: PointStore>: Deref<Target = Snapshot<S>> + Send {
    /// Whether effectual writes publish epochs (`ShardedIndex`) or land
    /// in place with the epoch left at 0 (`DynamicIndex`).
    fn publishes(&self) -> bool;
    fn insert_point(&mut self, p: &dyn AsRow<Row = S::Row>) -> Result<usize, WriteError>;
    fn remove_id(&mut self, id: usize) -> Result<bool, WriteError>;
    /// One group commit of whatever `stage` puts in the batch.
    fn commit(&mut self, stage: &mut dyn FnMut(&mut WriteBatch<S>)) -> Outcome;
    fn seal_delta(&mut self);
    fn compact_all(&mut self);
    /// A handle on the current state that later writes must not move.
    fn hold(&self) -> Snapshot<S>;
}

macro_rules! writes_through {
    ($owner:ident, publishes: $publishes:expr, hold: $hold:expr) => {
        impl<S: PointStore> Subject<S> for $owner<S> {
            fn publishes(&self) -> bool {
                $publishes
            }
            fn insert_point(&mut self, p: &dyn AsRow<Row = S::Row>) -> Result<usize, WriteError> {
                $owner::insert(self, p)
            }
            fn remove_id(&mut self, id: usize) -> Result<bool, WriteError> {
                $owner::remove(self, id)
            }
            fn commit(&mut self, stage: &mut dyn FnMut(&mut WriteBatch<S>)) -> Outcome {
                let mut batch = $owner::new_batch(self);
                stage(&mut batch);
                $owner::apply_batch(self, &batch)
            }
            fn seal_delta(&mut self) {
                $owner::seal(self);
            }
            fn compact_all(&mut self) {
                $owner::compact(self);
            }
            fn hold(&self) -> Snapshot<S> {
                $hold(self)
            }
        }
    };
}
writes_through!(DynamicIndex, publishes: false, hold: |idx: &Self| Snapshot::clone(idx));
writes_through!(ShardedIndex, publishes: true, hold: ShardedIndex::reader);

/// How a subject takes a [`Batch`]: as one `apply_batch`, or replayed
/// item by item through `insert` / `remove`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Style {
    Group,
    PerOp,
}

/// Apply `op` to `subject` and report what it returned.
pub fn apply<S, P>(subject: &mut dyn Subject<S>, op: &Op, pool: &[P], style: Style) -> Outcome
where
    S: PointStore,
    P: AsRow<Row = S::Row>,
{
    let single = |err| match err {
        WriteError::UnknownId { id, bound } => BatchError::UnknownId {
            op_index: 0,
            id,
            bound,
        },
        other => panic!("no schedule fills the id space: {other}"),
    };
    match op {
        Insert(i) => subject
            .insert_point(&pool[*i])
            .map(|id| vec![WriteOutcome::Inserted(id)])
            .map_err(single),
        Remove(id) => subject
            .remove_id(*id)
            .map(|removed| vec![WriteOutcome::Removed(removed)])
            .map_err(single),
        Batch(items) if style == Style::Group => subject.commit(&mut |batch| {
            for item in items {
                match item {
                    Insert(i) => batch.insert(&pool[*i]),
                    Remove(id) => batch.remove(*id),
                    other => panic!("{other:?} is not a batch item"),
                }
            }
        }),
        Batch(items) => {
            let mut outcome = Vec::new();
            for item in items {
                outcome.extend(apply(subject, item, pool, style)?);
            }
            Ok(outcome)
        }
        Seal => {
            subject.seal_delta();
            Ok(Vec::new())
        }
        Compact => {
            subject.compact_all();
            Ok(Vec::new())
        }
        Hold => Ok(Vec::new()),
    }
}

/// A subject being driven through a schedule, with the epoch the model
/// says it must be at.
pub struct Driven<S: PointStore> {
    pub name: String,
    style: Style,
    pub subject: Box<dyn Subject<S>>,
    epoch: u64,
}

impl<S: PointStore + 'static> Driven<S> {
    pub fn new(style: Style, subject: impl Subject<S> + 'static) -> Self {
        let kind = ["dynamic", "sharded"][usize::from(subject.publishes())];
        Driven {
            name: format!("{kind}/{} {style:?}", subject.num_shards()),
            style,
            subject: Box::new(subject),
            epoch: 0,
        }
    }

    /// Apply `op` — `expected` is the model's word on it — and check
    /// what it returned and whether it published.
    pub fn step<P>(&mut self, op: &Op, expected: &Expected, fx: &Fixture<S, P>, at: &str)
    where
        P: AsRow<Row = S::Row>,
    {
        // Replaying a rejected batch item by item would apply the items
        // before the bad one; all-or-nothing has no per-op counterpart.
        if self.style == Style::PerOp && matches!(op, Batch(_)) && expected.outcome.is_err() {
            return;
        }
        let outcome = apply(&mut *self.subject, op, &fx.pool, self.style);
        assert_eq!(outcome, expected.outcome, "{at}: {}: outcome", self.name);
        if self.subject.publishes() {
            self.epoch += match self.style {
                Style::Group => u64::from(expected.publishes()),
                Style::PerOp => expected.effectual,
            };
        }
        assert_eq!(
            self.subject.epoch(),
            self.epoch,
            "{at}: {}: epoch",
            self.name
        );
    }
}

/// A point pool, queries, a family and the seed every index is built
/// from: everything a schedule needs to run.
pub struct Fixture<S: PointStore, P> {
    /// The constructor call, for failure reports.
    call: String,
    family: Box<dyn DshFamily<S::Row>>,
    empty: S,
    measure: fn() -> Measure<S::Row>,
    /// Whether a point always collides with itself (`h = g`).
    symmetric: bool,
    pub pool: Vec<P>,
    queries: S,
    l: usize,
    seed: u64,
}

impl Fixture<BitStore, BitVector> {
    /// `points` uniform 128-bit vectors under bit sampling.
    pub fn bits(seed: u64, points: usize, queries: usize, l: usize) -> Self {
        let d = 128;
        Fixture {
            call: format!("Fixture::bits({seed:#x}, {points}, {queries}, {l})"),
            family: Box::new(BitSampling::new(d)),
            empty: BitStore::with_dim(d),
            measure: measures::hamming,
            symmetric: true,
            pool: bit_points(seed, points, d),
            queries: BitStore::from(bit_points(seed + 1, queries, d)),
            l,
            seed: seed + 2,
        }
    }
}

impl Fixture<DenseStore, DenseVector> {
    /// `points` uniform unit vectors in 24 dimensions under the
    /// asymmetric unimodal filter family.
    pub fn dense(seed: u64, points: usize, queries: usize, l: usize) -> Self {
        let d = 24;
        Fixture {
            call: format!("Fixture::dense({seed:#x}, {points}, {queries}, {l})"),
            family: Box::new(UnimodalFilterDsh::new(d, 0.4, 1.3)),
            empty: DenseStore::with_dim(d),
            measure: measures::euclidean,
            symmetric: false,
            pool: dense_points(seed, points, d),
            queries: DenseStore::from(dense_points(seed + 1, queries, d)),
            l,
            seed: seed + 2,
        }
    }
}

impl<S, P> Fixture<S, P>
where
    S: PointStore + 'static,
    S::Row: AsRow<Row = S::Row> + Debug + PartialEq,
    P: AsRow<Row = S::Row>,
{
    pub fn dynamic(&self) -> DynamicIndex<S> {
        let rng = &mut seeded(self.seed);
        DynamicIndex::build(&*self.family, self.empty.clone(), self.l, rng)
    }

    pub fn sharded(&self, shards: usize) -> ShardedIndex<S> {
        let rng = &mut seeded(self.seed);
        ShardedIndex::build(&*self.family, self.empty.clone(), self.l, shards, rng)
    }

    /// Every subject of the lock-step sweep; subject 0 is the group
    /// commit `DynamicIndex`.
    fn subjects(&self) -> Vec<Driven<S>> {
        let mut subjects = Vec::new();
        for style in [Style::Group, Style::PerOp] {
            subjects.push(Driven::new(style, self.dynamic()));
            subjects.extend(SHARD_COUNTS.map(|n| Driven::new(style, self.sharded(n))));
        }
        subjects
    }

    fn limits(&self) -> [Option<usize>; 2] {
        [None, Some(2 * self.l)]
    }

    /// Every query's candidates and `QueryStats`, with and without a
    /// retrieval limit.
    fn answers(&self, view: &Snapshot<S>) -> Vec<(Vec<usize>, dsh_index::QueryStats)> {
        let limits = self.limits();
        let each = |q| limits.map(|limit| view.candidates(self.queries.row(q), limit));
        (0..self.queries.len()).flat_map(each).collect()
    }

    /// The comparison every schedule point gets: each view has the
    /// model's shape and returns only ids the model holds live, and all
    /// views answer alike on ids, order and full `QueryStats`. With
    /// `oracle: Some(threads)` view 0 also faces the oracle, rebuilt on
    /// that many threads.
    pub fn checkpoint(
        &self,
        views: &[(&str, &Snapshot<S>)],
        model: &Model,
        oracle: Option<usize>,
        at: &str,
    ) {
        let (want, model_shape) = (self.answers(views[0].1), model.shape());
        for (name, view) in views {
            let shape = [
                view.id_bound(),
                view.len(),
                view.removed(),
                view.delta_rows(),
                view.sealed_segments(),
            ];
            assert_eq!(shape, model_shape, "{at}: {name}: shape vs the model");
        }
        for (name, view) in &views[1..] {
            for (k, got) in self.answers(view).iter().enumerate() {
                let (first, query, limit) = (views[0].0, k / 2, self.limits()[k % 2]);
                let at = format_args!("{at}: {name} vs {first}, query {query}, limit {limit:?}");
                assert_eq!(*got, want[k], "{at}");
            }
        }
        for id in want.iter().flat_map(|(ids, _)| ids) {
            assert!(model.live[*id], "{at}: candidate {id} is dead in the model");
        }
        if let Some(threads) = oracle {
            self.oracle(views[0].1, model, threads, at);
        }
    }

    /// The oracle. A `LinearScan` replayed from the model pins the live
    /// set and the rows; a static `HashTableIndex` built with `threads`
    /// workers from the same seed over the live pool points pins ids
    /// (through the live-rank order, which is monotone), order and
    /// `QueryStats`. The rebuild runs the subjects' walk, so it first
    /// faces [`by_definition`] over the same points and seed: that is
    /// what pins the walk itself. Segments hold ascending id ranges and
    /// dead entries are skipped uncounted, so order and truncation agree
    /// on every layout; `tables_probed` counts one probe per segment, so
    /// it is compared on a freshly compacted layout only.
    fn oracle(&self, subject: &Snapshot<S>, model: &Model, threads: usize, at: &str) {
        let mut scan = LinearScan::new(self.empty.clone(), (self.measure)());
        let mut live_store = self.empty.clone();
        for (id, &i) in model.rows.iter().enumerate() {
            let row = self.pool[i].as_row();
            assert_eq!(scan.insert(&self.pool[i]), id);
            assert_eq!(subject.point(id), row, "{at}: row {id} is not pool[{i}]");
            if model.live[id] {
                live_store.push_row(row);
            } else {
                assert_eq!(scan.remove(id), Ok(true));
            }
        }
        let live: Vec<usize> = subject.live_ids().collect();
        let scanned = (0..model.bound()).filter(|&id| scan.is_live(id));
        assert_eq!(
            live,
            scanned.collect::<Vec<_>>(),
            "{at}: live set vs the scan"
        );

        let (family, limits) = (&*self.family, self.limits());
        let rng = &mut seeded(self.seed);
        let defined = by_definition(family, self.l, rng, &live_store, &self.queries, &limits);
        let rng = &mut seeded(self.seed);
        let rebuilt = HashTableIndex::build_with_threads(family, live_store, self.l, rng, threads);
        let compacted = subject.sealed_segments() == 1 && subject.delta_rows() == 0;
        for qi in 0..self.queries.len() {
            let q = self.queries.row(qi);
            for (li, limit) in limits.into_iter().enumerate() {
                let at = format!("{at}: static rebuild, query {qi}, limit {limit:?}");
                let (want, want_stats) = rebuilt.candidates(q, limit);
                let mut defined = defined[qi * limits.len() + li].clone();
                if rebuilt.sealed_segments() == 0 {
                    defined.1.tables_probed = 0; // an empty build has no segment to probe
                }
                assert_eq!(
                    (&want, &want_stats),
                    (&defined.0, &defined.1),
                    "{at}: by definition"
                );
                let (got, mut got_stats) = subject.candidates(q, limit);
                let rank = |id: &usize| live.binary_search(id).expect("candidates are live");
                assert_eq!(got.iter().map(rank).collect::<Vec<_>>(), want, "{at}");
                if !compacted {
                    got_stats.tables_probed = want_stats.tables_probed;
                }
                assert_eq!(got_stats, want_stats, "{at}");
            }
        }

        if let (true, Some(&id)) = (self.symmetric, live.first()) {
            // The scan's distance-zero hit has the probe's own row, which
            // a symmetric family files under the probe's key in every table.
            let probe = &self.pool[model.rows[id]];
            let hit = scan.find_in_interval(probe, 0.0, 0.0).0;
            let hit = hit.expect("a live point is at distance zero from itself");
            let found = subject.candidates(probe, None).0;
            assert!(found.contains(&hit), "{at}: scan hit {hit} not retrieved");
        }
    }

    /// Batched queries reproduce the query-at-a-time loop for every
    /// thread count.
    fn batched_agree(&self, view: &Snapshot<S>, at: &str) {
        for limit in self.limits() {
            let each = |q| view.candidates(self.queries.row(q), limit);
            let want: Vec<_> = (0..self.queries.len()).map(each).collect();
            for threads in BATCH_THREADS {
                let got = view.candidates_batch_with_threads(&self.queries, limit, threads);
                assert_eq!(
                    got, want,
                    "{at}: batched, {threads} threads, limit {limit:?}"
                );
            }
        }
    }

    /// Drive every subject through `ops` (see the module docs), then
    /// compact clones of a replayed `DynamicIndex` with 1, 2 and 8
    /// threads against rebuilds with as many. Panics on the first
    /// divergence; returns the [`Model::shape`] the schedule ends at.
    pub fn check(&self, ops: &[Op]) -> [usize; 5] {
        let oracle = Some(parallel::available_threads());
        let mut model = Model::default();
        let mut subjects = self.subjects();
        let mut held = Vec::new(); // (op index, the model then, each subject's state then)
        for (i, op) in ops.iter().enumerate() {
            let at = match op {
                Batch(items) => format!("op {i} Batch of {}", items.len()),
                op => format!("op {i} {op:?}"),
            };
            let expected = model.apply(op);
            for driven in &mut subjects {
                driven.step(op, &expected, self, &at);
            }
            match op {
                Insert(_) => {}
                Hold => {
                    let states: Vec<_> = subjects.iter().map(|d| d.subject.hold()).collect();
                    held.push((i, model.clone(), states));
                }
                Seal | Compact => self.checkpoint(&views(&subjects), &model, oracle, &at),
                Remove(_) | Batch(_) => self.checkpoint(&views(&subjects), &model, None, &at),
            }
        }
        self.checkpoint(&views(&subjects), &model, oracle, "end of schedule");
        for (name, view) in views(&subjects) {
            self.batched_agree(view, name);
        }
        for (i, frozen, states) in &held {
            let names = subjects.iter().map(|d| d.name.as_str());
            let views: Vec<_> = names.zip(states).collect();
            self.checkpoint(&views, frozen, oracle, &format!("held since op {i}"));
        }

        let shape = model.shape();
        let mut replayed = self.dynamic();
        for op in ops {
            let _ = apply(&mut replayed, op, &self.pool, Style::Group);
        }
        model.apply(&Compact);
        for threads in BUILD_THREADS {
            let mut compacted = replayed.clone();
            compacted.compact_with_threads(threads);
            let at = format!("final compact, {threads} threads");
            self.checkpoint(&[("dynamic", &compacted)], &model, Some(threads), &at);
            self.batched_agree(&compacted, &at);
        }
        shape
    }

    /// Generate the schedule of `schedule_seed`, as many ops as the pool
    /// has points, and [`Fixture::check`] it; a failure is shrunk and
    /// reported as in the module docs.
    pub fn sweep(&self, schedule_seed: u64) {
        let ops = generate(schedule_seed, self.pool.len());
        let mut model = Model::default();
        let expected: Vec<Expected> = ops.iter().map(|op| model.apply(op)).collect();
        let group: u64 = expected.iter().map(|e| u64::from(e.publishes())).sum();
        let per_op: u64 = expected.iter().map(|e| e.effectual).sum();
        assert!(group < per_op, "schedule has no multi-item commit");
        assert!(model.shape()[2] > 0, "schedule removes nothing");
        let Some(first) = failure_of(|| self.check(&ops)) else {
            return;
        };
        let minimal = shrink(ops, &mut |ops| failure_of(|| self.check(ops)).is_some());
        let why = failure_of(|| self.check(&minimal)).expect("the shrunk schedule fails");
        panic!(
            "{call}: schedule seed {schedule_seed:#x} failed: {first}\n\
             shrunk to {n} ops: {why}\nreplay: {call}.check(&{minimal:?})",
            call = self.call,
            n = minimal.len(),
        );
    }
}

/// Every driven subject's current state, by name.
fn views<S: PointStore>(subjects: &[Driven<S>]) -> Vec<(&str, &Snapshot<S>)> {
    let mut views = Vec::new();
    for driven in subjects {
        views.push((driven.name.as_str(), &**driven.subject));
    }
    views
}

/// Run `f` and return its panic message if it panicked. The panic
/// hook stays silent on this thread meanwhile, so the hundreds of
/// failing runs of a shrink do not bury the report.
fn failure_of<T>(f: impl FnOnce() -> T) -> Option<String> {
    thread_local!(static QUIET: Cell<bool> = const { Cell::new(false) });
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                default(info);
            }
        }));
    });
    QUIET.with(|quiet| quiet.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|quiet| quiet.set(false));
    result
        .err()
        .map(|payload| match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast::<&str>()
                .map_or_else(|_| String::new(), |s| (*s).into()),
        })
}

/// Delta debugging (Zeller & Hildebrandt's `ddmin`, complements only):
/// drop ever smaller chunks of `ops` while what remains still fails,
/// then single inserts with the ids after them renumbered, then do the
/// chunks again inside each surviving batch.
fn shrink(ops: Vec<Op>, fails: &mut dyn FnMut(&[Op]) -> bool) -> Vec<Op> {
    let mut ops = drop_chunks(ops, fails);
    // A remove pins the inserts before its target, since dropping one
    // shifts every later id: drop those with the ids renumbered.
    let mut at = 0;
    while at < ops.len() {
        let shorter = without_insert(&ops, at);
        if matches!(ops[at], Insert(_)) && fails(&shorter) {
            ops = shorter;
        } else {
            at += 1;
        }
    }
    for i in 0..ops.len() {
        if let Batch(items) = ops[i].clone() {
            let mut with = |items: &[Op]| {
                ops[i] = Batch(items.to_vec());
                fails(&ops)
            };
            let items = drop_chunks(items, &mut with);
            ops[i] = Batch(items);
        }
    }
    ops
}

/// `ops` without the top-level insert at `at`, the ids above the one it
/// was assigned moved down so that later removes keep their targets.
fn without_insert(ops: &[Op], at: usize) -> Vec<Op> {
    fn lowered(op: &Op, gone: usize) -> Op {
        match op {
            Remove(id) if *id > gone => Remove(id - 1),
            Batch(items) => Batch(items.iter().map(|item| lowered(item, gone)).collect()),
            op => op.clone(),
        }
    }
    let mut model = Model::default();
    for op in &ops[..at] {
        model.apply(op);
    }
    let later = ops[at + 1..].iter().map(|op| lowered(op, model.bound()));
    ops[..at].iter().cloned().chain(later).collect()
}

fn drop_chunks(mut ops: Vec<Op>, fails: &mut dyn FnMut(&[Op]) -> bool) -> Vec<Op> {
    let mut chunk = ops.len().div_ceil(2);
    while chunk > 0 {
        let (mut start, mut dropped) = (0, false);
        while start < ops.len() {
            let end = (start + chunk).min(ops.len());
            let rest = [&ops[..start], &ops[end..]].concat();
            if fails(&rest) {
                (ops, dropped) = (rest, true);
            } else {
                start = end;
            }
        }
        if chunk > 1 {
            chunk = chunk.div_ceil(2);
        } else if !dropped {
            break;
        }
    }
    ops
}
