//! Integration test: the §6.4 privacy protocol end to end, including the
//! (eps, delta) guarantees, the leakage accounting and the flat
//! intersection signal of a step CPF.

use dsh::prelude::*;
use dsh_data::hamming_data::point_at_distance;
use dsh_hamming::{BitSampling, MultiProbeBitSampling};
use dsh_math::rng::seeded;
use dsh_math::stats::{mean, variance};
use dsh_privacy::DistanceEstimationProtocol;

#[test]
fn close_yes_far_no() {
    let d = 512;
    let r_rel: f64 = 0.05;
    let k = 40usize;
    let fam = Power::new(BitSampling::new(d), k);
    let f_min = (1.0 - r_rel).powi(k as i32);
    let n = DistanceEstimationProtocol::<BitVector>::required_hashes(f_min, 0.02);
    let mut rng = seeded(0x1E5790);
    let proto = DistanceEstimationProtocol::new(&fam, n, 20, &mut rng);

    let runs = 150;
    let mut fneg = 0;
    let mut fpos = 0;
    for _ in 0..runs {
        let x = BitVector::random(&mut rng, d);
        let close = point_at_distance(&mut rng, &x, (r_rel * d as f64) as usize);
        let far = point_at_distance(&mut rng, &x, (4.0 * r_rel * d as f64) as usize);
        if !proto.run(&x, &close).answer {
            fneg += 1;
        }
        if proto.run(&x, &far).answer {
            fpos += 1;
        }
    }
    assert!(fneg <= runs / 10, "false negatives {fneg}/{runs}");
    assert!(fpos <= runs / 10, "false positives {fpos}/{runs}");
}

/// Mean and standard error of the intersection size at Hamming distances
/// 0, r/2 and r (r = 12 of d = 256), over 40 runs that each share a fresh
/// protocol of 2 000 pairs: a run's intersection is `Bin(N, f(dist))`.
fn intersection_by_distance<F: DshFamily<[u64]>>(family: &F, seed: u64) -> [(f64, f64); 3] {
    let d = 256;
    let rng = &mut seeded(seed);
    let mut sizes: [Vec<f64>; 3] = Default::default();
    for _ in 0..40 {
        let proto = DistanceEstimationProtocol::new(family, 2000, 16, rng);
        let x = BitVector::random(rng, d);
        for (dist, runs) in [0, 6, 12].into_iter().zip(&mut sizes) {
            let y = point_at_distance(rng, &x, dist);
            runs.push(proto.run(&x, &y).intersection_size as f64);
        }
    }
    sizes.map(|s| (mean(&s), (variance(&s) / s.len() as f64).sqrt()))
}

#[test]
fn flat_step_family_hides_distance_within_range() {
    // The privacy claim: with a CPF flat on [0, r] the intersection size
    // does not say where in the range the client is. The §6.3 multiprobe
    // family is flat to 1 % there; (1 - t)^14 falls to 0.51 by t = r.
    let flat = MultiProbeBitSampling::new(256, 16, 3);
    assert!(flat.flatness(12.0 / 256.0) < 1.01);
    let plain = Power::new(BitSampling::new(256), 14);
    let apart = |[a, b, c]: [(f64, f64); 3]| {
        [(a, b), (a, c), (b, c)].map(|((m1, s1), (m2, s2))| (m1 - m2).abs() > 4.0 * s1.hypot(s2))
    };
    assert_eq!(apart(intersection_by_distance(&flat, 0x1E5793)), [false; 3]);
    assert_eq!(apart(intersection_by_distance(&plain, 0x1E5794)), [true; 3]);
}

#[test]
fn leakage_grows_with_intersection_only() {
    let d = 128;
    let fam = BitSampling::new(d);
    let mut rng = seeded(0x1E5791);
    let proto = DistanceEstimationProtocol::new(&fam, 300, 10, &mut rng);
    let x = BitVector::random(&mut rng, d);
    let far = x.complement();
    let out_far = proto.run(&x, &far);
    // Complement: bit-sampling never collides, zero leakage.
    assert_eq!(out_far.intersection_size, 0);
    assert_eq!(out_far.leakage_bits, 0.0);
    assert!(!out_far.answer);
    // Identical: full intersection.
    let out_same = proto.run(&x, &x);
    assert_eq!(out_same.intersection_size, 300);
    assert!(out_same.leakage_bits > 0.0);
}

#[test]
fn digest_truncation_does_not_change_answers_materially() {
    // 24-bit digests vs 8-bit digests: spurious matches at 8 bits occur
    // at rate 2^-8 per pair; with N = 200 pairs expect < 1 extra match.
    let d = 256;
    let k = 30usize;
    let fam = Power::new(BitSampling::new(d), k);
    let mut rng = seeded(0x1E5792);
    let wide = DistanceEstimationProtocol::new(&fam, 200, 24, &mut rng);
    let narrow = DistanceEstimationProtocol::new(&fam, 200, 8, &mut rng);
    let mut disagreements = 0;
    for _ in 0..100 {
        let x = BitVector::random(&mut rng, d);
        let far = point_at_distance(&mut rng, &x, d / 2);
        let a = wide.run(&x, &far).answer;
        let b = narrow.run(&x, &far).answer;
        if a != b {
            disagreements += 1;
        }
    }
    assert!(
        disagreements <= 60,
        "digest width changed outcomes too often"
    );
}
