//! Exact linear-scan baseline.
//!
//! Every experiment compares the DSH structures against the trivial
//! solution: scan all `n` points, computing the measure exactly. The scan
//! counts its distance computations so query-time comparisons are
//! apples-to-apples (the paper's structures win when `n^rho << n`).

use crate::batch::{ensure_known, WriteError};
use crate::dynamic::Tombstones;
use dsh_core::points::{AsRow, PointStore};

/// Exact scan over a point store, measuring row by row with
/// [`PointStore::measure`] — never through the batch kernels the indexes
/// verify with, so the baseline does not share the path it checks.
///
/// The scan doubles as the exact baseline for the *dynamic* index path:
/// it supports [`LinearScan::insert`], and removal tombstones an id so
/// every scan skips it — mirroring [`crate::DynamicIndex`]'s id
/// semantics (ids are stable handles, rows are append-only).
pub struct LinearScan<S: PointStore> {
    points: S,
    metric: S::Metric,
    tombstones: Tombstones,
}

impl<S: PointStore> LinearScan<S> {
    /// Build from points and a metric.
    pub fn new(points: S, metric: S::Metric) -> Self {
        LinearScan {
            points,
            metric,
            tombstones: Tombstones::new(),
        }
    }

    /// Number of live points (inserted or initial, not removed).
    pub fn len(&self) -> usize {
        self.points.len() - self.tombstones.dead()
    }

    /// True when no live points remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One past the largest id ever assigned (removed ids keep their
    /// slot).
    pub fn id_bound(&self) -> usize {
        self.points.len()
    }

    /// Whether `id` refers to a live point.
    pub fn is_live(&self, id: usize) -> bool {
        id < self.points.len() && !self.tombstones.is_dead(id)
    }

    /// Remove point `id` from every future scan (tombstone; the row
    /// itself is retained). Returns `Ok(false)` when already removed,
    /// and [`WriteError::UnknownId`] for an id never assigned — the same
    /// recoverable surface as [`crate::DynamicIndex::remove`], so the
    /// baseline stays a drop-in replica in soak tests.
    pub fn remove(&mut self, id: usize) -> Result<bool, WriteError> {
        ensure_known(id, self.points.len())?;
        Ok(self.tombstones.kill(id))
    }

    /// First live point whose measure to `q` lies in `[lo, hi]`, with the
    /// number of measure evaluations performed (tombstoned points are
    /// skipped without an evaluation).
    pub fn find_in_interval<Q>(&self, q: &Q, lo: f64, hi: f64) -> (Option<usize>, usize)
    where
        Q: AsRow<Row = S::Row> + ?Sized,
    {
        let q = q.as_row();
        let mut evals = 0;
        for i in 0..self.points.len() {
            if self.tombstones.is_dead(i) {
                continue;
            }
            evals += 1;
            let v = S::measure(&self.metric, self.points.row(i), q);
            if v >= lo && v <= hi {
                return (Some(i), evals);
            }
        }
        (None, evals)
    }

    /// All live points whose measure lies in `[lo, hi]` (always one
    /// measure evaluation per live point).
    pub fn all_in_interval<Q>(&self, q: &Q, lo: f64, hi: f64) -> (Vec<usize>, usize)
    where
        Q: AsRow<Row = S::Row> + ?Sized,
    {
        let q = q.as_row();
        let out = (0..self.points.len())
            .filter(|&i| {
                if self.tombstones.is_dead(i) {
                    return false;
                }
                let v = S::measure(&self.metric, self.points.row(i), q);
                v >= lo && v <= hi
            })
            .collect();
        (out, self.len())
    }

    /// The point minimizing the measure (e.g. nearest neighbor for a
    /// distance measure).
    ///
    /// Comparison uses [`f64::total_cmp`], a total order in which NaN
    /// sorts above every real value: a measure that returns NaN for some
    /// pair (0/0 on degenerate data, an uninitialized coordinate) can no
    /// longer panic the scan — the argmin is the smallest non-NaN value,
    /// and NaN is returned only when every evaluation is NaN.
    pub fn argmin<Q>(&self, q: &Q) -> Option<(usize, f64)>
    where
        Q: AsRow<Row = S::Row> + ?Sized,
    {
        let q = q.as_row();
        (0..self.points.len())
            .filter(|&i| !self.tombstones.is_dead(i))
            .map(|i| (i, S::measure(&self.metric, self.points.row(i), q)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Append a point (an owned point, a store row view, or a raw row),
    /// returning its id — the dynamic counterpart of building the scan
    /// from a full point set up front.
    pub fn insert<Q>(&mut self, p: &Q) -> usize
    where
        Q: AsRow<Row = S::Row> + ?Sized,
    {
        let id = self.points.len();
        self.points.push_row(p.as_row());
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_core::points::{BitStore, BitVector, DenseMetric, DenseStore, DenseVector};
    use dsh_data::hamming_data;
    use dsh_math::rng::seeded;

    fn scan(seed: u64, n: usize, d: usize) -> (LinearScan<BitStore>, BitVector) {
        let mut rng = seeded(seed);
        let points = hamming_data::uniform_hamming(&mut rng, n, d);
        let q = BitVector::random(&mut rng, d);
        (
            LinearScan::new(BitStore::from(points), crate::measures::relative_hamming(d)),
            q,
        )
    }

    #[test]
    fn finds_interval_members() {
        let (scan, q) = scan(341, 100, 128);
        let (all, evals) = scan.all_in_interval(&q, 0.4, 0.6);
        assert_eq!(evals, 100);
        // Uniform points concentrate around 0.5: most should be inside.
        assert!(all.len() > 80, "{} inside", all.len());
        let (first, early_evals) = scan.find_in_interval(&q, 0.4, 0.6);
        assert!(first.is_some());
        assert!(early_evals <= 100);
    }

    #[test]
    fn empty_interval() {
        let (scan, q) = scan(342, 50, 128);
        let (none, evals) = scan.find_in_interval(&q, 0.0, 0.01);
        assert!(none.is_none());
        assert_eq!(evals, 50);
    }

    #[test]
    fn argmin_is_true_nearest() {
        let (scan, q) = scan(343, 60, 64);
        let (i, v) = scan.argmin(&q).unwrap();
        let (all, _) = scan.all_in_interval(&q, 0.0, v);
        assert!(all.contains(&i));
        // No point is strictly closer.
        let (closer, _) = scan.all_in_interval(&q, 0.0, v - 1e-9);
        assert!(closer.is_empty());
    }

    #[test]
    fn len_and_empty() {
        let (scan, _) = scan(344, 10, 32);
        assert_eq!(scan.len(), 10);
        assert!(!scan.is_empty());
    }

    #[test]
    fn argmin_skips_nan_measures() {
        // Regression: the seed's `partial_cmp().unwrap()` panicked the
        // moment any measure evaluation produced NaN. With total-order
        // comparison, NaN sorts above every real value, so the argmin is
        // the smallest real measure.
        let points = DenseStore::from(vec![
            DenseVector::new(vec![-1.0, 5.0]), // measure -> NaN
            DenseVector::new(vec![1.0, 3.0]),  // distance 3 to q
            DenseVector::new(vec![1.0, 1.0]),  // distance 1 to q (argmin)
            DenseVector::new(vec![-2.0, 0.0]), // measure -> NaN
        ]);
        let measure = DenseMetric::Custom(Box::new(|x, q| {
            if x[0] < 0.0 {
                f64::NAN
            } else {
                dsh_core::points::euclidean(x, q)
            }
        }));
        let scan = LinearScan::new(points, measure);
        let q = DenseVector::new(vec![1.0, 0.0]);
        let (i, v) = scan.argmin(&q).expect("non-empty scan");
        assert_eq!(i, 2);
        assert_eq!(v, 1.0);
        // All-NaN degenerate case: no panic, the NaN value is surfaced.
        let all_nan = DenseMetric::Custom(Box::new(|_, _| f64::NAN));
        let scan = LinearScan::new(DenseStore::from(vec![DenseVector::zeros(2)]), all_nan);
        let (_, v) = scan.argmin(&q).expect("non-empty scan");
        assert!(v.is_nan());
    }

    #[test]
    fn insert_and_remove_drive_the_scan() {
        let d = 64;
        let mut rng = seeded(346);
        let points = hamming_data::uniform_hamming(&mut rng, 30, d);
        let q = BitVector::random(&mut rng, d);
        let mut grown =
            LinearScan::new(BitStore::with_dim(d), crate::measures::relative_hamming(d));
        assert!(grown.is_empty());
        let ids: Vec<usize> = points.iter().map(|p| grown.insert(p)).collect();
        assert_eq!(ids, (0..30).collect::<Vec<_>>());
        assert_eq!(grown.len(), 30);
        // Grown scan matches a scan built from the full set up front.
        let whole = LinearScan::new(BitStore::from(points), crate::measures::relative_hamming(d));
        assert_eq!(grown.argmin(&q), whole.argmin(&q));
        assert_eq!(
            grown.all_in_interval(&q, 0.3, 0.7),
            whole.all_in_interval(&q, 0.3, 0.7)
        );
        // Removing the argmin changes the answer to the runner-up, and
        // evaluation counts drop to the live count.
        let (best, _) = grown.argmin(&q).unwrap();
        assert_eq!(grown.remove(best), Ok(true));
        assert_eq!(grown.remove(best), Ok(false));
        assert_eq!(
            grown.remove(grown.id_bound()),
            Err(WriteError::UnknownId { id: 30, bound: 30 })
        );
        assert!(!grown.is_live(best));
        assert_eq!(grown.len(), 29);
        assert_eq!(grown.id_bound(), 30);
        let (second, _) = grown.argmin(&q).unwrap();
        assert_ne!(second, best);
        let (inside, evals) = grown.all_in_interval(&q, 0.0, 1.0);
        assert_eq!(evals, 29);
        assert!(!inside.contains(&best));
        let (_, evals) = grown.find_in_interval(&q, 2.0, 3.0);
        assert_eq!(evals, 29, "tombstoned point must not be evaluated");
    }

    #[test]
    fn store_backed_scan_matches_vec_backed() {
        // The store-backed scan against the same scan written out over
        // the owned points.
        let mut rng = seeded(345);
        let d = 96;
        let points = hamming_data::uniform_hamming(&mut rng, 40, d);
        let q = BitVector::random(&mut rng, d);
        let dist: Vec<f64> = points.iter().map(|p| p.relative_hamming(&q)).collect();
        let store_scan =
            LinearScan::new(BitStore::from(points), crate::measures::relative_hamming(d));
        let inside: Vec<usize> = (0..dist.len())
            .filter(|&i| (0.3..=0.7).contains(&dist[i]))
            .collect();
        assert_eq!(store_scan.all_in_interval(&q, 0.3, 0.7), (inside, 40));
        let best = (0..dist.len())
            .min_by(|&a, &b| dist[a].total_cmp(&dist[b]))
            .map(|i| (i, dist[i]));
        assert_eq!(store_scan.argmin(&q), best);
        assert_eq!(store_scan.find_in_interval(&q, 0.0, 1.0), (Some(0), 1));
    }
}
