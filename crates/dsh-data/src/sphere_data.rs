//! Unit-sphere datasets: uniform, clustered (recommender-style), and
//! planted annulus/hyperplane instances.

use dsh_core::points::DenseVector;
use rand::Rng;

/// `n` uniformly random points on `S^{d-1}`.
pub fn uniform_sphere(rng: &mut dyn Rng, n: usize, d: usize) -> Vec<DenseVector> {
    (0..n).map(|_| DenseVector::random_unit(rng, d)).collect()
}

/// Clustered dataset mimicking topic clusters in a recommender corpus:
/// `k` random cluster centers; each point is a center perturbed by
/// Gaussian noise of scale `noise` and renormalized.
pub fn clustered_sphere(
    rng: &mut dyn Rng,
    n: usize,
    d: usize,
    k: usize,
    noise: f64,
) -> Vec<DenseVector> {
    assert!(k >= 1 && noise >= 0.0);
    let centers = uniform_sphere(rng, k, d);
    (0..n)
        .map(|i| {
            let c = &centers[i % k];
            let g = DenseVector::gaussian(rng, d).scaled(noise);
            c.add(&g).normalized()
        })
        .collect()
}

/// A planted annulus-search instance on the sphere: a query point `q`, one
/// planted point with inner product exactly `alpha_planted` to `q`, and
/// `n - 1` background points drawn uniformly (which in high dimension have
/// inner product concentrated near 0).
pub struct PlantedSphereInstance {
    /// The query point.
    pub query: DenseVector,
    /// Data points; `planted_index` is the planted one.
    pub points: Vec<DenseVector>,
    /// Index of the planted point in `points`.
    pub planted_index: usize,
}

/// Build a planted instance (see [`PlantedSphereInstance`]).
pub fn planted_sphere_instance(
    rng: &mut dyn Rng,
    n: usize,
    d: usize,
    alpha_planted: f64,
) -> PlantedSphereInstance {
    assert!(n >= 1);
    let query = DenseVector::random_unit(rng, d);
    let planted = plant_at_alpha(rng, &query, alpha_planted);
    let mut points = uniform_sphere(rng, n - 1, d);
    let planted_index = dsh_math::rng::index(rng, n);
    points.insert(planted_index, planted);
    PlantedSphereInstance {
        query,
        points,
        planted_index,
    }
}

/// A point with inner product exactly `alpha` to `q`.
pub fn plant_at_alpha(rng: &mut dyn Rng, q: &DenseVector, alpha: f64) -> DenseVector {
    assert!((-1.0..=1.0).contains(&alpha));
    let w = loop {
        let g = DenseVector::gaussian(rng, q.dim());
        let orth = g.sub(&q.scaled(g.dot(q)));
        if orth.norm() > 1e-9 {
            break orth.normalized();
        }
    };
    q.scaled(alpha).add(&w.scaled((1.0 - alpha * alpha).sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_math::rng::seeded;

    #[test]
    fn uniform_points_are_unit() {
        let pts = uniform_sphere(&mut seeded(201), 20, 10);
        assert_eq!(pts.len(), 20);
        for p in &pts {
            assert!((p.norm() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn clusters_are_tight() {
        let mut rng = seeded(202);
        let k = 4;
        let pts = clustered_sphere(&mut rng, 40, 30, k, 0.05);
        // Points in the same cluster (i ≡ j mod k) are much closer than
        // points in different clusters on average. Averaging keeps the
        // test robust to individual noise draws.
        let (mut same, mut same_n) = (0.0, 0);
        let (mut cross, mut cross_n) = (0.0, 0);
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let dot = pts[i].dot(&pts[j]);
                if i % k == j % k {
                    same += dot;
                    same_n += 1;
                } else {
                    cross += dot;
                    cross_n += 1;
                }
            }
        }
        let same = same / same_n as f64;
        let cross = cross / cross_n as f64;
        assert!(same > 0.85, "same-cluster mean dot {same}");
        assert!(
            same > cross + 0.5,
            "same-cluster mean {same} not separated from cross-cluster mean {cross}"
        );
    }

    #[test]
    fn planted_instance_has_requested_alpha() {
        let mut rng = seeded(203);
        let inst = planted_sphere_instance(&mut rng, 50, 40, 0.6);
        assert_eq!(inst.points.len(), 50);
        let a = inst.query.dot(&inst.points[inst.planted_index]);
        assert!((a - 0.6).abs() < 1e-10, "alpha {a}");
        // Background points concentrate near alpha = 0 in d = 40.
        let max_bg = inst
            .points
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != inst.planted_index)
            .map(|(_, p)| inst.query.dot(p).abs())
            .fold(0.0f64, f64::max);
        assert!(max_bg < 0.55, "background alpha {max_bg}");
    }

    #[test]
    fn plant_at_extremes() {
        let mut rng = seeded(204);
        let q = DenseVector::random_unit(&mut rng, 8);
        let same = plant_at_alpha(&mut rng, &q, 1.0);
        assert!((q.dot(&same) - 1.0).abs() < 1e-10);
        let anti = plant_at_alpha(&mut rng, &q, -1.0);
        assert!((q.dot(&anti) + 1.0).abs() < 1e-10);
    }
}
