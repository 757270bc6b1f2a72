//! Hyperplane queries (§6.1): find a stored vector approximately
//! orthogonal to the query — used in large-scale active learning to pick
//! the training point closest to the decision boundary.
//!
//! ```sh
//! cargo run --release --example hyperplane_queries
//! ```

use dsh_core::points::{DenseStore, DenseVector};
use dsh_data::sphere_data::{plant_at_alpha, uniform_sphere};
use dsh_index::hyperplane;
use dsh_math::rng::seeded;

fn main() {
    let d = 48;
    let n = 1000;
    let alpha_report = 0.3; // accept |<x, q>| <= 0.3

    let mut rng = seeded(7);
    // Unlabeled pool biased AWAY from the boundary: uniform vectors pushed
    // toward +-q, plus a handful of genuinely boundary-near points.
    let query = DenseVector::random_unit(&mut rng, d);
    let mut pool = Vec::with_capacity(n);
    for i in 0..n - 5 {
        let sign = if i % 2 == 0 { 0.7 } else { -0.7 };
        let base = uniform_sphere(&mut rng, 1, d).pop().unwrap();
        pool.push(query.scaled(sign).add(&base.scaled(0.6)).normalized());
    }
    for _ in 0..5 {
        pool.push(plant_at_alpha(&mut rng, &query, 0.02));
    }

    let store = DenseStore::from(pool.clone());
    let index = hyperplane::build(store, d, 1.4, alpha_report, 1.5, &mut rng);
    println!(
        "pool of {n} vectors, reporting bound |alpha| <= {alpha_report}, L = {} repetitions",
        index.repetitions()
    );
    println!(
        "theoretical query exponent rho = {:.3} (§6.1: (1 - a^2)/(1 + a^2))\n",
        hyperplane::theoretical_rho(alpha_report)
    );

    match index.query(&query) {
        (Some(hit), stats) => {
            println!(
                "found boundary vector #{} with <x, q> = {:+.3}",
                hit.index, hit.value
            );
            println!(
                "work: {} retrieved candidates, {} exact dot products (vs {} for a scan)",
                stats.candidates_retrieved, stats.distance_computations, n
            );
        }
        (None, _) => {
            println!("no boundary vector found this run (success prob >= 1/2; rebuild retries)");
        }
    }

    // Exhaustive check of what lives near the hyperplane.
    let near = pool
        .iter()
        .filter(|p| p.dot(&query).abs() <= alpha_report)
        .count();
    println!("\nground truth: {near} pool vectors within the reporting band");
}
