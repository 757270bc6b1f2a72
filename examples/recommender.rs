//! The paper's motivating example (§1): recommend articles that are on the
//! same topic but "not too aligned" with what the user just read —
//! "close, but not too close".
//!
//! ```sh
//! cargo run --release --example recommender
//! ```
//!
//! We synthesize a clustered corpus of article embeddings on the unit
//! sphere, then build the Theorem 6.2 unimodal annulus index peaked at
//! inner product 0.55: similar enough to be on-topic, but excluding
//! near-duplicates (alpha ~ 1).

use dsh_core::points::{DenseMetric, DenseStore, DenseVector};
use dsh_core::AnalyticCpf;
use dsh_data::sphere_data::{clustered_sphere, plant_at_alpha};
use dsh_index::annulus::AnnulusIndex;
use dsh_index::linear_scan::LinearScan;
use dsh_math::rng::seeded;
use dsh_sphere::unimodal::{annulus_interval, UnimodalFilterDsh};

fn main() {
    let d = 64;
    let n = 3000;
    let mut rng = seeded(42);

    // A corpus of articles in 12 topic clusters, plus a few planted
    // "same-topic but different perspective" articles for our query.
    let mut corpus = clustered_sphere(&mut rng, n, d, 12, 0.4);
    let query = DenseVector::random_unit(&mut rng, d);
    // Plant: one near-duplicate (alpha = 0.98) and three on-topic-but-
    // different articles (alpha ~ 0.55).
    corpus.push(plant_at_alpha(&mut rng, &query, 0.98));
    for _ in 0..3 {
        corpus.push(plant_at_alpha(&mut rng, &query, 0.55));
    }

    // The annulus: alpha_max = 0.55, reporting window s = 2.
    let alpha_max = 0.55;
    let (lo, hi) = annulus_interval(alpha_max, 2.0);
    println!("recommendation window: inner product in [{lo:.3}, {hi:.3}] (peak {alpha_max})");
    println!("a near-duplicate at alpha = 0.98 must NOT be recommended\n");

    let family = UnimodalFilterDsh::new(d, alpha_max, 1.8);
    let l = (1.5 / family.cpf(alpha_max)).ceil() as usize;
    println!(
        "unimodal filter family: f(peak) = {:.5}, f(0.98) = {:.2e}, f(0) = {:.2e}, L = {l}",
        family.cpf(alpha_max),
        family.cpf(0.98),
        family.cpf(0.0)
    );

    let measure = dsh_index::measures::inner_product();
    let corpus = DenseStore::from(corpus);
    let index = AnnulusIndex::build(&family, measure, (lo, hi), corpus.clone(), l, &mut rng);

    match index.query(&query) {
        (Some(hit), stats) => {
            println!(
                "\nrecommended article #{} with alpha = {:.3}",
                hit.index, hit.value
            );
            println!(
                "work: {} candidates retrieved, {} exact similarity checks (corpus size {})",
                stats.candidates_retrieved,
                stats.distance_computations,
                corpus.len()
            );
        }
        (None, stats) => {
            println!(
                "\nno recommendation found this run (success prob >= 1/2; retry with a fresh build); \
                 {} candidates inspected",
                stats.candidates_retrieved
            );
        }
    }

    // Heavy traffic: serve a whole batch of user contexts in one call.
    // `query_batch` fans the queries out across worker threads and reuses
    // one scratch buffer per worker — results are identical to calling
    // `query` in a loop.
    let users: Vec<DenseVector> = std::iter::once(query.clone())
        .chain((0..31).map(|_| DenseVector::random_unit(&mut rng, d)))
        .collect();
    let users = DenseStore::from(users);
    let answers = index.query_batch(&users);
    let served = answers.iter().filter(|(hit, _)| hit.is_some()).count();
    let retrieved: usize = answers
        .iter()
        .map(|(_, stats)| stats.candidates_retrieved)
        .sum();
    println!(
        "\nbatched serving: {} of {} user queries answered in one call \
         ({} candidates retrieved total, avg {:.1}/query)",
        served,
        users.len(),
        retrieved,
        retrieved as f64 / users.len() as f64
    );

    // Baseline: what the naive nearest-neighbor recommender would return.
    let scan = LinearScan::new(
        corpus,
        DenseMetric::Custom(Box::new(|x, y| -dsh_core::points::dot(x, y))),
    );
    if let Some((i, neg_alpha)) = scan.argmin(&query) {
        println!(
            "\nnaive most-similar recommendation: article #{i} with alpha = {:.3} — the near-duplicate.",
            -neg_alpha
        );
        println!("the DSH annulus index skips it by construction.");
    }
}
