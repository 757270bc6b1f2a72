//! Approximate spherical range reporting (Theorem 6.5): report *all*
//! points within distance `r`, with output-sensitive cost.
//!
//! ```sh
//! cargo run --release --example range_reporting
//! ```

use dsh_core::combinators::{Concat, Power};
use dsh_core::points::{BitStore, BitVector};
use dsh_core::BoxedDshFamily;
use dsh_data::hamming_data::{point_at_distance, uniform_hamming};
use dsh_hamming::{AntiBitSampling, BitSampling};
use dsh_index::RangeReportingIndex;
use dsh_math::rng::seeded;

fn main() {
    let d = 256;
    let r: f64 = 0.05;
    let r_plus = 0.2;
    let close = 40usize;
    let far = 1000usize;

    let mut rng = seeded(21);
    let q = BitVector::random(&mut rng, d);
    let mut points = Vec::new();
    for _ in 0..close {
        points.push(point_at_distance(&mut rng, &q, (r * d as f64) as usize));
    }
    points.extend(uniform_hamming(&mut rng, far, d));
    let truth: Vec<usize> = (0..close).collect();

    // Step-shaped CPF: (1 - t)^k * t — flat-ish over (0, r], zero at 0,
    // fast decay beyond. Bounded duplication per Theorem 6.5.
    let k = 10;
    let family = Concat::new(vec![
        Box::new(Power::new(BitSampling::new(d), k)) as BoxedDshFamily<[u64]>,
        Box::new(AntiBitSampling::new(d)),
    ]);
    let f_r = (1.0 - r).powi(k as i32) * r;
    let l = (2.5 / f_r).ceil() as usize;

    let measure = dsh_index::measures::relative_hamming(d);
    let points = BitStore::from(points);
    let index = RangeReportingIndex::build(&family, measure, r, r_plus, points, l, &mut rng);
    println!("dataset: {close} points at distance {r}d + {far} background; L = {l} repetitions");

    let (reported, stats) = index.query(&q);
    let recall = index.recall(&q, &truth);
    println!(
        "\nreported {} points; recall of the true r-ball: {recall:.2}",
        reported.len()
    );
    println!(
        "work: {} retrieved ({} duplicates), {} exact distance checks",
        stats.candidates_retrieved, stats.duplicates, stats.distance_computations
    );
    println!(
        "duplicates per reported point: {:.1} (Theorem 6.5 bounds this by L * f_max/f_min-type factors)",
        stats.duplicates as f64 / reported.len().max(1) as f64
    );

    // Batched reporting: answer several range queries in one call. The
    // batch path fans out across worker threads with per-worker scratch
    // reuse and returns exactly what a query-at-a-time loop would.
    let batch: Vec<BitVector> = std::iter::once(q.clone())
        .chain((0..7).map(|_| BitVector::random(&mut rng, d)))
        .collect();
    let batch = BitStore::from(batch);
    let answers = index.query_batch(&batch);
    let total_reported: usize = answers.iter().map(|(out, _)| out.len()).sum();
    let total_work: usize = answers.iter().map(|(_, s)| s.candidates_retrieved).sum();
    println!(
        "\nbatched: {} queries -> {} points reported, {} candidates retrieved total",
        batch.len(),
        total_reported,
        total_work
    );
}
