//! Special functions: error function, log-gamma, incomplete gamma,
//! binomial coefficients.
//!
//! `erf`/`erfc` are computed through the regularized incomplete gamma
//! functions (series expansion for small arguments, continued fraction for
//! large ones), which yields close to full double precision — important
//! because the collision-probability formulas of the paper evaluate normal
//! tails as small as `exp(-t^2/2)` for `t` up to ~6.

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
///
/// Accurate to roughly 1e-13 relative error for `x > 0`.
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients for g = 7.
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx).
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_p domain error: a={a}, x={x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_q domain error: a={a}, x={x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Series representation of `P(a, x)`, converges fast for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued-fraction representation of `Q(a, x)` (modified Lentz), for
/// `x >= a + 1`.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Error function `erf(x) = 2/sqrt(pi) * int_0^x e^{-t^2} dt`.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let v = gamma_p(0.5, x * x);
    if x > 0.0 {
        v
    } else {
        -v
    }
}

/// Complementary error function `erfc(x) = 1 - erf(x)`, accurate in the tail.
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        gamma_q(0.5, x * x)
    } else {
        1.0 + gamma_p(0.5, x * x)
    }
}

/// Natural log of `erfc(x)` for `x >= 0`, stable deep in the tail where
/// `erfc(x)` underflows (x beyond ~27).
pub fn ln_erfc(x: f64) -> f64 {
    assert!(x >= 0.0, "ln_erfc requires x >= 0");
    let e = erfc(x);
    if e > 0.0 {
        return e.ln();
    }
    // Asymptotic expansion: erfc(x) ~ e^{-x^2} / (x sqrt(pi)) * (1 - 1/(2x^2) + 3/(4x^4) - ...)
    let x2 = x * x;
    let series = 1.0 - 0.5 / x2 + 0.75 / (x2 * x2) - 1.875 / (x2 * x2 * x2);
    -x2 - (x * std::f64::consts::PI.sqrt()).ln() + series.ln()
}

/// Binomial coefficient `C(n, k)` as an `f64` (exact for small values,
/// computed via `ln_gamma` for large ones).
pub fn binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    if k == 0 {
        return 1.0;
    }
    if n <= 60 {
        // Exact integer arithmetic fits in u128 for n <= 60.
        let mut num: u128 = 1;
        let mut den: u128 = 1;
        for i in 0..k {
            num *= (n - i) as u128;
            den *= (i + 1) as u128;
        }
        (num / den) as f64
    } else {
        (ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)).exp()
    }
}

/// `ln(1 + x)` computed accurately for small `x` (thin wrapper so callers
/// don't reach for the libm name).
pub fn ln_1p(x: f64) -> f64 {
    x.ln_1p()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * (1.0 + b.abs()),
            "expected {b}, got {a} (tol {tol})"
        );
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1u64..15 {
            let mut fact = 1.0f64;
            for i in 1..n {
                fact *= i as f64;
            }
            close(ln_gamma(n as f64), fact.ln(), 1e-12);
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(pi)
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        // Γ(3/2) = sqrt(pi)/2
        close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-12,
        );
    }

    #[test]
    fn erf_reference_values() {
        // Reference values from Abramowitz & Stegun, 10+ digits.
        close(erf(0.5), 0.520_499_877_813_046_5, 1e-12);
        close(erf(1.0), 0.842_700_792_949_714_9, 1e-12);
        close(erf(2.0), 0.995_322_265_018_952_7, 1e-12);
        close(erf(-1.0), -0.842_700_792_949_714_9, 1e-12);
    }

    #[test]
    fn erfc_tail_values() {
        close(erfc(2.0), 4.677_734_981_047_266e-3, 1e-11);
        close(erfc(4.0), 1.541_725_790_028_002e-8, 1e-10);
        close(erfc(6.0), 2.151_973_671_249_892e-17, 1e-9);
    }

    #[test]
    fn erf_erfc_complement() {
        for &x in &[-3.0, -1.0, -0.1, 0.0, 0.3, 1.7, 4.2] {
            close(erf(x) + erfc(x), 1.0, 1e-14);
        }
    }

    #[test]
    fn ln_erfc_agrees_with_direct_log() {
        for &x in &[0.0, 0.5, 2.0, 5.0, 10.0, 20.0] {
            close(ln_erfc(x), erfc(x).ln(), 1e-10);
        }
    }

    #[test]
    fn ln_erfc_deep_tail_finite() {
        // erfc(40) underflows to 0 in f64; ln_erfc must stay finite.
        let v = ln_erfc(40.0);
        assert!(v.is_finite());
        // Leading order is -x^2 = -1600.
        assert!((v - (-1604.7)).abs() < 1.0, "got {v}");
    }

    #[test]
    fn binomial_small_exact() {
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(10, 0), 1.0);
        assert_eq!(binomial(10, 10), 1.0);
        assert_eq!(binomial(10, 11), 0.0);
        assert_eq!(binomial(52, 5), 2_598_960.0);
    }

    #[test]
    fn binomial_large_approx() {
        // C(100, 50) = 1.0089134...e29
        close(binomial(100, 50), 1.008_913_445_455_642e29, 1e-10);
    }

    #[test]
    fn gamma_p_q_sum_to_one() {
        for &(a, x) in &[(0.5, 0.3), (1.0, 2.0), (3.5, 3.0), (10.0, 14.0)] {
            close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-13);
        }
    }

    #[test]
    fn gamma_p_exponential_special_case() {
        // P(1, x) = 1 - e^{-x}
        for &x in &[0.1, 1.0, 5.0] {
            close(gamma_p(1.0, x), 1.0 - (-x_f(x)).exp(), 1e-13);
        }
        fn x_f(x: f64) -> f64 {
            x
        }
    }
}
