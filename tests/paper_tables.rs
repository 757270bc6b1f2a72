//! The paper's quantitative claims that no per-crate test checks, as
//! assertions: Theorem 6.5's duplicate count (three step families), the
//! `L ~ n^rho` scaling of the near-neighbour baseline, Figure 2's step
//! mixture, Corollary 2.2's cross-polytope exponent, and the filter
//! family against Theorem 1.3 and Lemma A.5. Each test pins an analytic
//! value with a fixed seed; a count that sums over `L` tables gets a 4σ
//! band with σ measured by resampling, not taken from the binomial.

use dsh::prelude::*;
use dsh_core::AnalyticCpf;
use dsh_data::hamming_data;
use dsh_euclidean::ShiftedEuclideanDsh;
use dsh_hamming::{AntiBitSampling, BitSampling, MultiProbeBitSampling};
use dsh_index::ann::{ann_params, NearNeighborIndex};
use dsh_index::measures::relative_hamming;
use dsh_index::RangeReportingIndex;
use dsh_math::rng::seeded;
use dsh_math::stats::std_dev;
use dsh_sphere::cross_polytope::CrossPolytopeAnti;
use dsh_sphere::filter::FilterDshMinus;
use dsh_sphere::geometry::pair_with_inner_product;

/// Expected `duplicates` of an unlimited query: row `i` is retrieved
/// `C_i ~ Bin(L, f_i)` times and counted once, so it contributes
/// `E[C_i − 1{C_i > 0}] = L f_i − 1 + (1 − f_i)^L`.
fn expected_duplicates(collide: &[f64], l: usize) -> f64 {
    collide
        .iter()
        .map(|&f| l as f64 * f - 1.0 + (1.0 - f).powi(l as i32))
        .sum()
}

/// Range-reporting radii: recall target `r` and reporting slack `r+`.
const R: f64 = 0.05;
const R_PLUS: f64 = 0.2;

/// Theorem 6.5 through `RangeReportingIndex`, at `L = ⌈2 / f(r)⌉`: the query's
/// `duplicates` sits within 4σ of [`expected_duplicates`], and the
/// duplicates per reported point stay under `L · max_{[0, r+]} f`.
/// Duplicates are not additive over tables, so σ comes from 200
/// resampled `L`-table indexes, each drawn with replacement from the
/// collision sets of `max(L, 256)` freshly sampled `(h, g)` pairs.
fn duplicates_follow_theorem_6_5<F: DshFamily<[u64]>>(
    family: &F,
    cpf: impl Fn(f64) -> f64,
    (points, q): (&[BitVector], &BitVector),
) {
    let l = (2.0 / cpf(R)).ceil() as usize;
    let collide: Vec<f64> = points.iter().map(|p| cpf(p.relative_hamming(q))).collect();
    let mean = expected_duplicates(&collide, l);

    let rng = &mut seeded(0x65);
    let sets: Vec<Vec<usize>> = (0..l.max(256))
        .map(|_| {
            let pair = family.sample(rng);
            let key = pair.query.hash(q.as_blocks());
            (0..points.len())
                .filter(|&i| pair.data.hash(points[i].as_blocks()) == key)
                .collect()
        })
        .collect();
    let resampled: Vec<f64> = (0..200)
        .map(|_| {
            let mut hits = vec![0usize; points.len()];
            for _ in 0..l {
                for &i in &sets[rng.random_range(0..sets.len())] {
                    hits[i] += 1;
                }
            }
            hits.iter().map(|&c| c.saturating_sub(1) as f64).sum()
        })
        .collect();
    let sigma = std_dev(&resampled);

    let idx = RangeReportingIndex::build(
        family,
        relative_hamming(q.len()),
        R,
        R_PLUS,
        BitStore::from(points.to_vec()),
        l,
        &mut seeded(0x66),
    );
    let (out, stats) = idx.query(q);
    let name = family.name();
    let dups = stats.duplicates as f64;
    assert!(
        (dups - mean).abs() <= 4.0 * sigma,
        "{name}: duplicates {dups}, Theorem 6.5 predicts {mean:.1} ± {sigma:.1}"
    );
    let f_max = (0..=200)
        .map(|i| cpf(R_PLUS * i as f64 / 200.0))
        .fold(0.0, f64::max);
    let per_result = dups / out.len() as f64;
    assert!(
        per_result <= l as f64 * f_max,
        "{name}: {per_result:.3} duplicates per reported point exceeds L·f_max = {:.3}",
        l as f64 * f_max
    );
}

#[test]
fn theorem_6_5_duplicates_match_the_cpf_for_three_families() {
    let (d, k) = (256, 10);
    let rng = &mut seeded(0x7AB7);
    let q = BitVector::random(rng, d);
    let mut points: Vec<BitVector> = (0..100)
        .map(|_| hamming_data::point_at_distance(rng, &q, 12))
        .collect();
    points.extend(hamming_data::uniform_hamming(rng, 300, d));
    let instance = (&points[..], &q);

    let plain = Power::new(BitSampling::new(d), k as usize);
    duplicates_follow_theorem_6_5(&plain, |t| (1.0 - t).powi(k), instance);

    let step: Concat<[u64]> = Concat::new(vec![
        Box::new(plain) as BoxedDshFamily<[u64]>,
        Box::new(AntiBitSampling::new(d)),
    ]);
    duplicates_follow_theorem_6_5(&step, |t| (1.0 - t).powi(k) * t, instance);

    // The §6.3 list-of-points family: flat at 1/697 on [0, r]. Its σ is
    // ~40 % of the mean: the few tables whose probe mask is zero each
    // collide with about half of the close points at once.
    let family = MultiProbeBitSampling::new(d, 16, 3);
    duplicates_follow_theorem_6_5(&family, |t| family.cpf(t), instance);
}

#[test]
fn near_neighbor_repetitions_scale_like_n_to_the_rho() {
    let (d, r1, r2, factor) = (512, 0.05, 0.25, 2.0);
    let (p1, p2) = (1.0 - r1, 1.0 - r2);
    for n in [250, 1000, 4000] {
        // k = ceil(ln n / ln(1/p2)) puts p1^k in (p1 n^-rho, n^-rho], so
        // L = ceil(factor / p1^k) / n^rho lies in [factor, factor/p1 + n^-rho).
        let params = ann_params(n, p1, p2, factor);
        let n_rho = (n as f64).powf(params.rho);
        let ratio = params.l as f64 / n_rho;
        assert!(
            (factor..factor / p1 + 1.0 / n_rho).contains(&ratio),
            "n = {n}: L = {} is {ratio:.3} n^rho",
            params.l
        );
        let runs = 15;
        let hits = (0..runs)
            .filter(|&run| {
                let rng = &mut seeded(0x7AB111 + run);
                let inst =
                    hamming_data::planted_hamming_instance(rng, n, d, (r1 * d as f64) as usize);
                let idx = NearNeighborIndex::build(
                    &BitSampling::new(d),
                    relative_hamming(d),
                    r2,
                    BitStore::from(inst.points),
                    p1,
                    p2,
                    factor,
                    rng,
                );
                idx.query(&inst.query).0.is_some()
            })
            .count();
        assert!(
            hits >= 13,
            "n = {n}: found a near neighbour in {hits}/{runs} runs"
        );
    }
}

#[test]
fn figure_2_mixture_of_unimodal_cpfs_is_a_step() {
    let d = 6;
    let components: Vec<ShiftedEuclideanDsh> = (1..=6)
        .map(|w| ShiftedEuclideanDsh::new(d, 1, w as f64))
        .collect();
    let weights = [1.0 / 6.0; 6];
    let mixture_cpf = |delta: f64| -> f64 {
        components
            .iter()
            .zip(weights)
            .map(|(c, w)| w * c.cpf(delta))
            .sum()
    };

    let plateau: Vec<f64> = (0..=40)
        .map(|i| mixture_cpf(1.0 + 4.5 * i as f64 / 40.0))
        .collect();
    let lo = plateau.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = plateau.iter().copied().fold(0.0, f64::max);
    let (f_edge, f_10, f_20) = (mixture_cpf(5.5), mixture_cpf(10.0), mixture_cpf(20.0));
    assert!(hi / lo <= 1.6, "plateau [1, 5.5] spreads {:.3}", hi / lo);
    assert!(
        f_20 < f_10 && f_10 < f_edge && f_20 < hi / 2.0,
        "no decay past the plateau: {f_edge:.3} -> {f_10:.3} -> {f_20:.3}"
    );

    let mixture = Mixture::new(
        components
            .iter()
            .zip(weights)
            .map(|(c, w)| (w, Box::new(*c) as BoxedDshFamily<[f64]>))
            .collect(),
    );
    let rng = &mut seeded(0xF1621);
    let distances = [1.0, 3.3, 10.0];
    let pairs: Vec<(DenseVector, DenseVector)> = distances
        .iter()
        .map(|&delta| {
            let x = DenseVector::gaussian(rng, d);
            let step = DenseVector::random_unit(rng, d).scaled(delta);
            (x.clone(), x.add(&step))
        })
        .collect();
    let estimates = CpfEstimator::new(20_000, 0xF1622).estimate_curve(&mixture, &pairs);
    for (delta, est) in distances.iter().zip(&estimates) {
        assert!(
            est.contains(mixture_cpf(*delta)),
            "distance {delta}: mixture CPF {:.4} outside [{:.4}, {:.4}]",
            mixture_cpf(*delta),
            est.lo,
            est.hi
        );
    }
}

#[test]
fn corollary_2_2_cross_polytope_excess_is_o_lnln_d() {
    // ln(1/f(alpha)) of CP- is ((1 + alpha)/(1 - alpha)) ln d + O(ln ln d).
    // A trial costs O(d^2), so the trial count falls with d.
    let alphas = [-0.3, 0.0, 0.3];
    for d in [8, 16, 32] {
        let rng = &mut seeded(0x7AB11);
        let pairs: Vec<_> = alphas
            .iter()
            .map(|&a| pair_with_inner_product(rng, d, a))
            .collect();
        let estimates = CpfEstimator::new(160_000 / d as u64, 0x7AB12)
            .estimate_curve(&CrossPolytopeAnti::new(d), &pairs);
        let lnln = (d as f64).ln().ln();
        for (est, &alpha) in estimates.iter().zip(&alphas) {
            let lead = CrossPolytopeAnti::theoretical_ln_inv_cpf(d, alpha);
            let excess = -est.estimate.ln() - lead;
            assert!(
                excess.abs() <= 1.5 * lnln,
                "d = {d}, alpha = {alpha}: ln(1/f) exceeds its lead term {lead:.3} by {excess:.3}"
            );
        }
    }
}

#[test]
fn filter_minus_respects_the_theorem_1_3_bound() {
    // Theorem 1.3, f(alpha) >= f(0)^((1 + alpha)/(1 - alpha)), rearranged
    // for a decreasing CPF: rho_- = ln f(0) / ln f(alpha) >= (1 - alpha)/(1 + alpha).
    // The exact filter CPF at t = 2 reads 0.766 / 0.468 / 0.195 against
    // 0.667 / 0.333 / 0.111, and stays inside Lemma A.5's envelope.
    let fam = FilterDshMinus::new(64, 2.0);
    for alpha in [0.2, 0.5, 0.8] {
        let f = fam.cpf(alpha);
        let rho = fam.cpf(0.0).ln() / f.ln();
        let bound = (1.0 - alpha) / (1.0 + alpha);
        assert!(
            rho >= bound,
            "alpha = {alpha}: rho_- = {rho:.3} below {bound:.3}"
        );
        assert!(
            fam.cpf_lower_bound(alpha) <= f * (1.0 + 1e-9)
                && f <= fam.cpf_upper_bound(alpha) * (1.0 + 1e-9),
            "alpha = {alpha}: f = {f:.3e} outside Lemma A.5's envelope"
        );
    }
}
