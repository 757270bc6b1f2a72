//! Hamming-cube datasets: uniform points, alpha-correlated pairs
//! (Definition 3.1), and planted fixed-distance instances.

use dsh_core::points::BitVector;
use rand::Rng;

/// `n` uniformly random points of `{0,1}^d`.
pub fn uniform_hamming(rng: &mut dyn Rng, n: usize, d: usize) -> Vec<BitVector> {
    (0..n).map(|_| BitVector::random(rng, d)).collect()
}

/// A randomly alpha-correlated pair (Definition 3.1): `x` uniform, each
/// `y_i = x_i` with probability `(1 + alpha)/2` independently.
pub fn correlated_pair(rng: &mut dyn Rng, d: usize, alpha: f64) -> (BitVector, BitVector) {
    assert!((-1.0..=1.0).contains(&alpha));
    let x = BitVector::random(rng, d);
    let mut y = x.clone();
    let flip = (1.0 - alpha) / 2.0;
    for i in 0..d {
        if rng.random_bool(flip) {
            y.flip(i);
        }
    }
    (x, y)
}

/// A point at Hamming distance exactly `k` from `x` (random positions).
pub fn point_at_distance(rng: &mut dyn Rng, x: &BitVector, k: usize) -> BitVector {
    let d = x.len();
    assert!(k <= d);
    // Reservoir-free sampling of k distinct positions: Fisher-Yates over a
    // position array.
    let mut positions: Vec<usize> = (0..d).collect();
    for i in 0..k {
        let j = rng.random_range(i..d);
        positions.swap(i, j);
    }
    let mut y = x.clone();
    for &p in &positions[..k] {
        y.flip(p);
    }
    y
}

/// A planted instance in Hamming space: query `q`, one planted point at
/// distance exactly `r_planted`, and `n - 1` uniform background points
/// (at distance concentrated around `d/2`).
pub struct PlantedHammingInstance {
    /// The query point.
    pub query: BitVector,
    /// Data points; `planted_index` is the planted one.
    pub points: Vec<BitVector>,
    /// Index of the planted point.
    pub planted_index: usize,
}

/// Build a planted Hamming instance.
pub fn planted_hamming_instance(
    rng: &mut dyn Rng,
    n: usize,
    d: usize,
    r_planted: usize,
) -> PlantedHammingInstance {
    assert!(n >= 1);
    let query = BitVector::random(rng, d);
    let planted = point_at_distance(rng, &query, r_planted);
    let mut points = uniform_hamming(rng, n - 1, d);
    let planted_index = dsh_math::rng::index(rng, n);
    points.insert(planted_index, planted);
    PlantedHammingInstance {
        query,
        points,
        planted_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_math::rng::seeded;

    #[test]
    fn correlated_pair_distance_concentrates() {
        let mut rng = seeded(211);
        let d = 10_000;
        for &alpha in &[-0.5, 0.0, 0.7] {
            let (x, y) = correlated_pair(&mut rng, d, alpha);
            let t = x.relative_hamming(&y);
            let want = (1.0 - alpha) / 2.0;
            assert!((t - want).abs() < 0.02, "alpha {alpha}: t {t}");
        }
    }

    #[test]
    fn correlated_extremes() {
        let mut rng = seeded(212);
        let (x, y) = correlated_pair(&mut rng, 64, 1.0);
        assert_eq!(x, y);
        let (x, y) = correlated_pair(&mut rng, 64, -1.0);
        assert_eq!(x.hamming(&y), 64);
    }

    #[test]
    fn point_at_exact_distance() {
        let mut rng = seeded(213);
        let x = BitVector::random(&mut rng, 100);
        for &k in &[0usize, 1, 37, 100] {
            let y = point_at_distance(&mut rng, &x, k);
            assert_eq!(x.hamming(&y), k as u64);
        }
    }

    #[test]
    fn planted_instance_structure() {
        let mut rng = seeded(214);
        let inst = planted_hamming_instance(&mut rng, 30, 256, 10);
        assert_eq!(inst.points.len(), 30);
        assert_eq!(inst.query.hamming(&inst.points[inst.planted_index]), 10);
        // Background concentrates near d/2 = 128.
        for (i, p) in inst.points.iter().enumerate() {
            if i != inst.planted_index {
                let dist = inst.query.hamming(p);
                assert!((80..=176).contains(&dist), "background at {dist}");
            }
        }
    }
}
