//! Unit-sphere geometry helpers: controlled-inner-product pairs,
//! alpha-correlated hypercube corners, Gaussian projections.

use dsh_core::kernels;
use dsh_core::points::{self, DenseVector};
use rand::Rng;

/// Produce a pair of unit vectors with inner product exactly `alpha`
/// (up to float error): `x` uniform on the sphere, `y = alpha x +
/// sqrt(1 - alpha^2) w` with `w` a unit vector orthogonal to `x`.
pub fn pair_with_inner_product(
    rng: &mut dyn Rng,
    d: usize,
    alpha: f64,
) -> (DenseVector, DenseVector) {
    assert!(d >= 2, "need d >= 2 to control the inner product");
    assert!((-1.0..=1.0).contains(&alpha));
    let x = DenseVector::random_unit(rng, d);
    // Random direction, orthogonalized against x (Gram-Schmidt).
    let w = loop {
        let g = DenseVector::gaussian(rng, d);
        let proj = g.dot(&x);
        let orth = g.sub(&x.scaled(proj));
        if orth.norm() > 1e-9 {
            break orth.normalized();
        }
    };
    let y = x.scaled(alpha).add(&w.scaled((1.0 - alpha * alpha).sqrt()));
    (x, y)
}

/// Randomly alpha-correlated hypercube corners (Definition 3.1 pushed onto
/// the sphere): `x` uniform in `{-1/sqrt(d), +1/sqrt(d)}^d`, and each
/// component of `y` equals the corresponding component of `x` with
/// probability `(1 + alpha)/2`, independently. For large `d` the inner
/// product `<x, y>` concentrates around `alpha`.
pub fn correlated_corner_pair(
    rng: &mut dyn Rng,
    d: usize,
    alpha: f64,
) -> (DenseVector, DenseVector) {
    assert!(d >= 1);
    assert!((-1.0..=1.0).contains(&alpha));
    let s = 1.0 / (d as f64).sqrt();
    let keep = (1.0 + alpha) / 2.0;
    let mut xs = Vec::with_capacity(d);
    let mut ys = Vec::with_capacity(d);
    for _ in 0..d {
        let xv = if rng.random_bool(0.5) { s } else { -s };
        let yv = if rng.random_bool(keep) { xv } else { -xv };
        xs.push(xv);
        ys.push(yv);
    }
    (DenseVector::new(xs), DenseVector::new(ys))
}

/// A set of `m` i.i.d. Gaussian projection vectors, stored as one
/// contiguous row-major `m x d` buffer (one allocation instead of one per
/// row), as used by the cross-polytope rotations and the min-wise filter
/// hasher.
#[derive(Debug, Clone)]
pub struct GaussianMatrix {
    data: Vec<f64>,
    m: usize,
    d: usize,
}

impl GaussianMatrix {
    /// Sample an `m x d` matrix with i.i.d. `N(0,1)` entries (entries are
    /// drawn row-major, the same stream order as sampling `m` separate
    /// Gaussian vectors).
    pub fn sample(rng: &mut dyn Rng, m: usize, d: usize) -> Self {
        assert!(d > 0, "row dimension must be positive");
        let mut data = Vec::with_capacity(m * d);
        for _ in 0..m * d {
            data.push(dsh_math::normal::sample(rng));
        }
        GaussianMatrix { data, m, d }
    }

    /// Materialize `m` rows of seeded Gaussian caps: row `i` is cap
    /// `derive_seed(seed, i)` of [`kernels::gaussian_cap`], the cap the
    /// filter hashers generate for index `i`.
    pub fn from_seeded_rows(seed: u64, m: usize, d: usize) -> Self {
        assert!(d > 0, "row dimension must be positive");
        let mut data = vec![0.0; m * d];
        for (i, row) in data.chunks_exact_mut(d).enumerate() {
            kernels::gaussian_cap(dsh_math::rng::derive_seed(seed, i as u64), row);
        }
        GaussianMatrix { data, m, d }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Row dimension `d`.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Apply to a row: returns the `m` projections `<z_i, x>`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.m];
        self.apply_into(x, &mut out);
        out
    }

    /// Allocation-free [`GaussianMatrix::apply`]: write the `m`
    /// projections into a caller-provided buffer of length `m`, streaming
    /// the flat matrix once.
    pub fn apply_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.d, "dimension mismatch");
        assert_eq!(
            out.len(),
            self.m,
            "output buffer must have one slot per row"
        );
        for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.d)) {
            *o = points::dot(row, x);
        }
    }

    /// Row access.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.d..(i + 1) * self.d]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_math::rng::seeded;

    #[test]
    fn pair_has_requested_inner_product() {
        let mut rng = seeded(71);
        for &alpha in &[-0.99, -0.5, 0.0, 0.3, 0.97, 1.0] {
            let (x, y) = pair_with_inner_product(&mut rng, 24, alpha);
            assert!((x.norm() - 1.0).abs() < 1e-10);
            assert!((y.norm() - 1.0).abs() < 1e-10);
            assert!(
                (x.dot(&y) - alpha).abs() < 1e-10,
                "alpha {alpha}: got {}",
                x.dot(&y)
            );
        }
    }

    #[test]
    fn correlated_corners_concentrate() {
        let mut rng = seeded(72);
        let d = 20_000;
        for &alpha in &[-0.6, 0.0, 0.8] {
            let (x, y) = correlated_corner_pair(&mut rng, d, alpha);
            assert!((x.norm() - 1.0).abs() < 1e-10);
            assert!((x.dot(&y) - alpha).abs() < 0.03, "got {}", x.dot(&y));
        }
    }

    #[test]
    fn correlated_corners_extremes() {
        let mut rng = seeded(73);
        let (x, y) = correlated_corner_pair(&mut rng, 100, 1.0);
        assert_eq!(x, y);
        let (x, y) = correlated_corner_pair(&mut rng, 100, -1.0);
        assert!((x.dot(&y) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn gaussian_matrix_shape_and_projection() {
        let mut rng = seeded(74);
        let m = GaussianMatrix::sample(&mut rng, 5, 8);
        assert_eq!(m.rows(), 5);
        let x = DenseVector::random_unit(&mut rng, 8);
        let p = m.apply(x.as_slice());
        assert_eq!(p.len(), 5);
        assert!((p[2] - points::dot(m.row(2), x.as_slice())).abs() < 1e-15);
    }

    #[test]
    fn apply_into_matches_apply_without_allocating_result() {
        let mut rng = seeded(76);
        let m = GaussianMatrix::sample(&mut rng, 7, 12);
        let x = DenseVector::random_unit(&mut rng, 12);
        let mut out = vec![f64::NAN; 7];
        m.apply_into(x.as_slice(), &mut out);
        assert_eq!(out, m.apply(x.as_slice()));
    }

    #[test]
    fn seeded_rows_reproduce_gaussian_streams() {
        use dsh_math::rng::derive_seed;
        let m = GaussianMatrix::from_seeded_rows(0xCAFE, 4, 6);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.dim(), 6);
        for i in 0..4 {
            let mut cap = [0.0; 6];
            kernels::gaussian_cap(derive_seed(0xCAFE, i as u64), &mut cap);
            assert_eq!(m.row(i), cap, "row {i} diverged from its cap");
        }
    }

    #[test]
    fn gaussian_projection_of_unit_vector_is_standard_normal() {
        // <z, x> ~ N(0,1) for unit x: check variance empirically.
        let mut rng = seeded(75);
        let x = DenseVector::random_unit(&mut rng, 16);
        let m = GaussianMatrix::sample(&mut rng, 20_000, 16);
        let p = m.apply(x.as_slice());
        let var = p.iter().map(|v| v * v).sum::<f64>() / p.len() as f64;
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}

// Property-style tests over randomized parameter sweeps (seeded, so
// deterministic). These replace `proptest!` blocks: the crate is built
// offline and proptest is not in the dependency set.
#[cfg(test)]
mod proptests {
    use super::*;
    use dsh_math::rng::seeded;

    #[test]
    fn constructed_pairs_hit_alpha_exactly() {
        let mut params = seeded(0x6E0);
        for _ in 0..64 {
            let seed = params.random_range(0u64..1000);
            let alpha = params.random_range(-0.999f64..0.999);
            let d = params.random_range(2usize..30);
            let mut rng = seeded(seed);
            let (x, y) = pair_with_inner_product(&mut rng, d, alpha);
            assert!((x.norm() - 1.0).abs() < 1e-9, "seed={seed} d={d}");
            assert!((y.norm() - 1.0).abs() < 1e-9, "seed={seed} d={d}");
            assert!(
                (x.dot(&y) - alpha).abs() < 1e-9,
                "seed={seed} d={d} alpha={alpha}"
            );
        }
    }

    #[test]
    fn correlated_corners_are_unit_and_in_range() {
        let mut params = seeded(0x6E1);
        for _ in 0..64 {
            let seed = params.random_range(0u64..1000);
            let alpha = params.random_range(-1.0f64..1.0);
            let mut rng = seeded(seed);
            let (x, y) = correlated_corner_pair(&mut rng, 64, alpha);
            assert!((x.norm() - 1.0).abs() < 1e-9, "seed={seed} alpha={alpha}");
            assert!((y.norm() - 1.0).abs() < 1e-9, "seed={seed} alpha={alpha}");
            let ip = x.dot(&y);
            assert!(
                (-1.0 - 1e-9..=1.0 + 1e-9).contains(&ip),
                "seed={seed} alpha={alpha} ip={ip}"
            );
        }
    }
}
