//! Integration test: numerical consistency between the analytic machinery
//! in `dsh-math` and the constructions built on it — the cross-crate
//! contracts the experiment suite relies on — and between a family's CPF
//! and what a query retrieves through the mutable indexes.

mod common;

use common::harness::{apply, generate, Model, Op, Style, Subject};
use dsh::prelude::*;
use dsh_core::combinators::Power;
use dsh_core::cpf::peak_of;
use dsh_core::points::{AsRow, PointStore};
use dsh_core::AnalyticCpf;
use dsh_data::{hamming_data, sphere_data};
use dsh_euclidean::{EuclideanLsh, ShiftedEuclideanDsh};
use dsh_hamming::BitSampling;
use dsh_index::{DynamicIndex, ShardedIndex};
use dsh_math::rng::seeded;
use dsh_sphere::filter::{FilterDshMinus, FilterDshPlus};
use dsh_sphere::unimodal::{annulus_interval, UnimodalFilterDsh};

#[test]
fn filter_cpf_is_consistent_between_plus_minus_and_unimodal() {
    let d = 16;
    let uni = UnimodalFilterDsh::new(d, 0.3, 2.0);
    for alpha in [-0.5, 0.0, 0.3, 0.7] {
        let product = uni.plus().cpf(alpha) * uni.minus().cpf(alpha);
        assert!((uni.cpf(alpha) - product).abs() < 1e-14);
    }
}

#[test]
fn unimodal_peak_location_tracks_parameterization() {
    for alpha_max in [-0.2, 0.1, 0.5] {
        let fam = UnimodalFilterDsh::new(8, alpha_max, 2.2);
        let (peak, _) = peak_of(&fam, -0.9, 0.9);
        assert!((peak - alpha_max).abs() < 0.08, "{alpha_max} vs {peak}");
    }
}

#[test]
fn theorem_6_2_annulus_contrast_is_symmetric_in_exponent() {
    // ln(1/f) at the two annulus endpoints should be approximately equal
    // (the construction balances them by design).
    let fam = UnimodalFilterDsh::new(8, 0.2, 2.5);
    let (lo, hi) = annulus_interval(0.2, 2.0);
    let e_lo = -fam.cpf(lo).ln();
    let e_hi = -fam.cpf(hi).ln();
    assert!(
        (e_lo - e_hi).abs() < 0.35 * e_lo.max(e_hi),
        "endpoint exponents unbalanced: {e_lo} vs {e_hi}"
    );
}

#[test]
fn shifted_family_interpolates_to_e2lsh_shape() {
    // The k >= 1 family's *right* tail at large distance approaches the
    // symmetric family's CPF at the same distance (both are dominated by
    // the tent mass near the origin relative to a wide Gaussian).
    let w = 1.0;
    let shifted = ShiftedEuclideanDsh::new(4, 1, w);
    let symmetric = EuclideanLsh::new(4, w);
    let big = 60.0;
    let ratio = shifted.cpf(big) / symmetric.cpf(big);
    assert!((ratio - 1.0).abs() < 0.05, "tail ratio {ratio}");
}

#[test]
fn plus_and_minus_filters_cross_at_alpha_zero() {
    let plus = FilterDshPlus::new(8, 1.8);
    let minus = FilterDshMinus::new(8, 1.8);
    assert!((plus.cpf(0.0) - minus.cpf(0.0)).abs() < 1e-12);
    assert!(plus.cpf(0.5) > minus.cpf(0.5));
    assert!(plus.cpf(-0.5) < minus.cpf(-0.5));
}

#[test]
fn monte_carlo_agrees_with_analytic_across_the_stack() {
    // One randomized smoke check per space, tight confidence.
    let mut rng = seeded(0x1E5799);

    // Sphere: filter family.
    let fam = FilterDshMinus::new(10, 1.3);
    let (x, y) = dsh_sphere::geometry::pair_with_inner_product(&mut rng, 10, 0.4);
    let est = CpfEstimator::new(6000, 1).estimate_pair(&fam, &x, &y);
    assert!(
        est.contains(fam.cpf(0.4)),
        "filter: {} vs {}",
        est.estimate,
        fam.cpf(0.4)
    );

    // Euclidean: shifted family.
    let fam = ShiftedEuclideanDsh::new(5, 2, 1.0);
    let p = DenseVector::gaussian(&mut rng, 5);
    let q = p.add(&DenseVector::random_unit(&mut rng, 5).scaled(2.0));
    let est = CpfEstimator::new(40_000, 2).estimate_pair(&fam, &p, &q);
    assert!(
        est.contains(fam.cpf(2.0)),
        "shifted: {} vs {}",
        est.estimate,
        fam.cpf(2.0)
    );
}

/// The paper's index theorems (6.1, 6.5) are statements about what a
/// query retrieves, so the CPF must hold *through* the index, not just
/// for the family: with pool point `i` colliding with `q` with
/// probability `collide[i]` per table, the unlimited
/// `candidates_retrieved` of `q` is a sum over `L` independent tables
/// with mean `L · Σ_live f` — and dead rows contribute nothing. The band
/// is 4σ with `σ² = L · v`, `v` the variance of one table's collision
/// count over the live rows, measured on 300 freshly sampled `(h, g)`
/// pairs: collisions within a table share its hash function (a query no
/// filter cap accepts collides with nothing), so `Σ f(1 − f)` would
/// understate it. A generated schedule spreads the rows over sealed
/// segments, the delta and tombstones of a `DynamicIndex` and a
/// two-shard `ShardedIndex`.
fn retrieval_follows_the_cpf<S, P>(
    family: &impl DshFamily<S::Row>,
    empty: &S,
    (pool, collide): (&[P], &[f64]),
    q: &P,
    l: usize,
    seed: u64,
) where
    S: PointStore,
    P: AsRow<Row = S::Row>,
{
    let dynamic = DynamicIndex::build(family, empty.clone(), l, &mut seeded(seed));
    let sharded = ShardedIndex::build(family, empty.clone(), l, 2, &mut seeded(seed));
    let mut subjects: [Box<dyn Subject<S>>; 2] = [Box::new(dynamic), Box::new(sharded)];
    // Whatever layout the generated schedule ends on, finish with one more
    // sealed segment and two delta rows.
    let tail = [Op::Seal, Op::Insert(0), Op::Insert(1)];
    let mut model = Model::default();
    for op in generate(seed, pool.len()).iter().chain(&tail) {
        model.apply(op);
        for subject in &mut subjects {
            let _ = apply(&mut **subject, op, pool, Style::Group);
        }
    }
    let [_, _, removed, delta_rows, segments] = model.shape();
    assert!(
        removed > 0 && delta_rows == 2 && segments >= 1,
        "{:?}",
        model.shape()
    );

    let live: Vec<usize> = model.live_ids().map(|id| model.pool_index(id)).collect();
    let mean = l as f64 * live.iter().map(|&i| collide[i]).sum::<f64>();
    let rng = &mut seeded(seed + 1);
    let counts: Vec<f64> = (0..300)
        .map(|_| {
            let pair = family.sample(rng);
            live.iter().filter(|&&i| pair.collides(&pool[i], q)).count() as f64
        })
        .collect();
    let sigma = (l as f64 * dsh_math::stats::variance(&counts)).sqrt();
    for subject in &subjects {
        let (ids, stats) = subject.candidates(q, None);
        let retrieved = stats.candidates_retrieved as f64;
        assert!(
            (retrieved - mean).abs() <= 4.0 * sigma,
            "{} shard(s): retrieved {retrieved}, CPF predicts {mean:.1} ± {sigma:.1}",
            subject.num_shards()
        );
        assert!(ids.iter().all(|&id| subject.is_live(id)));
        assert_eq!(ids.len(), stats.distinct_candidates);
    }
}

#[test]
fn retrieval_through_the_mutable_indexes_follows_the_cpf() {
    let rng = &mut seeded(0xC9F);
    let n = 300;

    // Hamming: bit sampling to the fourth power, rows at relative
    // distance 1/16 .. 1/2 from the query.
    let (d, k) = (256, 4);
    let q = BitVector::random(rng, d);
    let flips = [16, 32, 64, 96, 128];
    let pool: Vec<BitVector> = (0..n)
        .map(|i| hamming_data::point_at_distance(rng, &q, flips[i % 5]))
        .collect();
    let f = |i: usize| {
        BitSampling::new(d)
            .cpf(flips[i % 5] as f64 / d as f64)
            .powi(k as i32)
    };
    let collide: Vec<f64> = (0..n).map(f).collect();
    let family = Power::new(BitSampling::new(d), k);
    retrieval_follows_the_cpf(
        &family,
        &BitStore::with_dim(d),
        (&pool, &collide),
        &q,
        30,
        0xC9F1,
    );

    // Sphere: the unimodal filter family, rows at inner products on both
    // sides of its peak. Its CPF is a few percent and its per-table
    // counts are heavy-tailed, hence the wide filters and the larger `L`.
    let d = 24;
    let family = UnimodalFilterDsh::new(d, 0.4, 0.5);
    let q = DenseVector::random_unit(rng, d);
    let alphas = [-0.2, 0.1, 0.4, 0.6, 0.8];
    let pool: Vec<DenseVector> = (0..n)
        .map(|i| sphere_data::plant_at_alpha(rng, &q, alphas[i % 5]))
        .collect();
    let collide: Vec<f64> = (0..n).map(|i| family.cpf(alphas[i % 5])).collect();
    retrieval_follows_the_cpf(
        &family,
        &DenseStore::with_dim(d),
        (&pool, &collide),
        &q,
        120,
        0xC9F1,
    );
}
