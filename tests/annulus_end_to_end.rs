//! Integration test: Theorem 6.1 annulus search, end to end, in both
//! Hamming space (powered bit-sampling x anti bit-sampling) and on the
//! sphere (Theorem 6.2 unimodal filter family).

use dsh::prelude::*;
use dsh_core::AnalyticCpf;
use dsh_data::{hamming_data, sphere_data};
use dsh_hamming::{AntiBitSampling, BitSampling};
use dsh_index::annulus::AnnulusIndex;
use dsh_sphere::unimodal::{annulus_interval, UnimodalFilterDsh};

#[test]
fn hamming_annulus_succeeds_with_probability_half() {
    let d = 256;
    let (k1, k2) = (9usize, 3usize);
    let fam = Concat::new(vec![
        Box::new(Power::new(BitSampling::new(d), k1)) as BoxedDshFamily<[u64]>,
        Box::new(Power::new(AntiBitSampling::new(d), k2)),
    ]);
    let peak = 0.25f64;
    let f_peak = (1.0 - peak).powi(k1 as i32) * peak.powi(k2 as i32);
    let l = (1.5 / f_peak).ceil() as usize;

    let runs = 24;
    let mut hits = 0;
    for run in 0..runs {
        let mut rng = dsh_math::rng::seeded(0x1E5720 + run);
        let inst = hamming_data::planted_hamming_instance(&mut rng, 300, d, 64);
        let measure = dsh_index::measures::relative_hamming(d);
        let points = BitStore::from(inst.points);
        let idx = AnnulusIndex::build(&fam, measure, (0.15, 0.35), points, l, &mut rng);
        let (hit, stats) = idx.query(&inst.query);
        assert!(
            stats.candidates_retrieved <= 8 * l,
            "8L termination violated"
        );
        if let Some(m) = hit {
            assert!((0.15..=0.35).contains(&m.value));
            hits += 1;
        }
    }
    assert!(
        hits * 2 >= runs,
        "success {hits}/{runs} below the Thm 6.1 guarantee"
    );
}

#[test]
fn sphere_annulus_succeeds_and_respects_interval() {
    let d = 40;
    let alpha_max = 0.5;
    let fam = UnimodalFilterDsh::new(d, alpha_max, 1.6);
    let l = (1.5 / fam.cpf(alpha_max)).ceil() as usize;
    let (lo, hi) = annulus_interval(alpha_max, 3.0);

    let runs = 16;
    let mut hits = 0;
    for run in 0..runs {
        let mut rng = dsh_math::rng::seeded(0x1E5730 + run);
        let inst = sphere_data::planted_sphere_instance(&mut rng, 250, d, alpha_max);
        let measure = dsh_index::measures::inner_product();
        let points = DenseStore::from(inst.points);
        let idx = AnnulusIndex::build(&fam, measure, (lo, hi), points, l, &mut rng);
        if let (Some(m), _) = idx.query(&inst.query) {
            assert!(
                (lo..=hi).contains(&m.value),
                "reported {} outside window",
                m.value
            );
            hits += 1;
        }
    }
    assert!(hits * 2 >= runs, "success {hits}/{runs} below 1/2");
}

#[test]
fn annulus_never_reports_outside_window() {
    // Whatever the retrieval does, the verification step must filter.
    let d = 128;
    let fam = Power::new(AntiBitSampling::new(d), 2);
    let mut rng = dsh_math::rng::seeded(0x1E5740);
    let points = BitStore::from(hamming_data::uniform_hamming(&mut rng, 200, d));
    let q = BitVector::random(&mut rng, d);
    let measure = dsh_index::measures::relative_hamming(d);
    let idx = AnnulusIndex::build(&fam, measure, (0.45, 0.55), points, 15, &mut rng);
    if let (Some(m), _) = idx.query(&q) {
        assert!((0.45..=0.55).contains(&m.value));
    }
}
