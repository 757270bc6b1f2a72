//! Symmetric alpha-stable sampling (Chambers–Mallows–Stuck).
//!
//! §2 of the paper notes that unit-sphere results extend to `l_s` spaces
//! for `0 < s <= 2` through Rahimi–Recht random features applied to the
//! characteristic functions of `s`-stable distributions. Sampling those
//! distributions is the substrate; the CMS method generates exact
//! variates for every stability index `s` in `(0, 2]`.
//!
//! The characteristic function of a standard symmetric `s`-stable variable
//! is `E[e^{i w u}] = e^{-|u|^s}`, which is what makes the random-feature
//! inner products depend on `||x - y||_s` only.

use rand::Rng;

/// Draw one standard symmetric `s`-stable variate (`0 < s <= 2`).
///
/// For `s = 2` this is `sqrt(2) *` standard normal (characteristic
/// function `e^{-u^2}`); for `s = 1` it is standard Cauchy.
pub fn sample_stable(rng: &mut dyn Rng, s: f64) -> f64 {
    assert!(s > 0.0 && s <= 2.0, "stability index must be in (0, 2]");
    // Uniform angle in (-pi/2, pi/2) and standard exponential.
    let theta = (rng.random::<f64>() - 0.5) * std::f64::consts::PI;
    let w = -((1.0f64 - rng.random::<f64>()).ln()); // Exp(1), guards log(0)
    if (s - 1.0).abs() < 1e-12 {
        return theta.tan();
    }
    if (s - 2.0).abs() < 1e-12 {
        // Box–Muller style exact normal with variance 2.
        let u: f64 = 1.0 - rng.random::<f64>();
        let v: f64 = rng.random::<f64>();
        return 2.0 * (-u.ln()).sqrt() * (std::f64::consts::PI * v).cos();
    }
    // General CMS formula (symmetric case, beta = 0):
    //   X = sin(s theta) / cos(theta)^{1/s}
    //       * (cos((1 - s) theta) / W)^{(1 - s)/s}.
    (s * theta).sin() / theta.cos().powf(1.0 / s)
        * (((1.0 - s) * theta).cos() / w).powf((1.0 - s) / s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    /// Empirical characteristic function `E[cos(u X)]` (the imaginary part
    /// vanishes by symmetry).
    fn empirical_cf(s: f64, u: f64, n: usize, seed: u64) -> f64 {
        let mut rng = seeded(seed);
        (0..n)
            .map(|_| (u * sample_stable(&mut rng, s)).cos())
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn cauchy_case_matches_characteristic_function() {
        // s = 1: E[cos(uX)] = e^{-|u|}.
        for &u in &[0.3, 1.0, 2.0] {
            let emp = empirical_cf(1.0, u, 300_000, 0x57AB1E);
            let want = (-u).exp();
            assert!((emp - want).abs() < 0.01, "u={u}: {emp} vs {want}");
        }
    }

    #[test]
    fn gaussian_case_matches_characteristic_function() {
        // s = 2: E[cos(uX)] = e^{-u^2}.
        for &u in &[0.3f64, 0.8, 1.5] {
            let emp = empirical_cf(2.0, u, 300_000, 0x57AB2E);
            let want = (-u * u).exp();
            assert!((emp - want).abs() < 0.01, "u={u}: {emp} vs {want}");
        }
    }

    #[test]
    fn general_stable_characteristic_function() {
        // s = 1.5 and s = 0.8: E[cos(uX)] = e^{-|u|^s}.
        for &s in &[0.8f64, 1.5] {
            for &u in &[0.5f64, 1.0] {
                let emp = empirical_cf(s, u, 400_000, 0x57AB3E);
                let want = (-u.powf(s)).exp();
                assert!((emp - want).abs() < 0.015, "s={s}, u={u}: {emp} vs {want}");
            }
        }
    }

    #[test]
    fn stability_under_addition() {
        // X + Y for independent s-stables is 2^{1/s}-scaled s-stable:
        // E[cos(u (X+Y))] = e^{-2|u|^s}.
        let s = 1.5;
        let u = 0.7;
        let mut rng = seeded(0x57AB4E);
        let n = 300_000;
        let emp = (0..n)
            .map(|_| {
                let x = sample_stable(&mut rng, s) + sample_stable(&mut rng, s);
                (u * x).cos()
            })
            .sum::<f64>()
            / n as f64;
        let want = (-2.0 * u.powf(s)).exp();
        assert!((emp - want).abs() < 0.015, "{emp} vs {want}");
    }

    #[test]
    fn symmetric_distribution() {
        let mut rng = seeded(0x57AB5E);
        let n = 200_000;
        let pos = (0..n)
            .filter(|_| sample_stable(&mut rng, 1.3) > 0.0)
            .count();
        let frac = pos as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "positive fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "stability index")]
    fn invalid_index_rejected() {
        let mut rng = seeded(1);
        let _ = sample_stable(&mut rng, 2.5);
    }
}
