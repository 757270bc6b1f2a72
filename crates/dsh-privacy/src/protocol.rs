//! The §6.4 distance-estimation protocol.
//!
//! Two parties hold points `x` (server) and `q` (client) and want to learn
//! whether `dist(x, q) <= r` — and as little else as possible. Using a DSH
//! family with a *step-function* CPF (collision probability ~`1/t`
//! everywhere on `[0, r]`, at most `t^{-1/rho}` beyond `c r`):
//!
//! 1. the parties share `N = O(t log(1/eps))` sampled pairs
//!    `(h_i, g_i)` (public randomness);
//! 2. each computes its digest vector (`h_i(x)` resp. `g_i(q)`, compressed
//!    to `O(log t)` bits);
//! 3. an ideal PSI reveals the component-wise intersection;
//! 4. answer "Yes" iff the intersection is nonempty.
//!
//! Close pairs collide somewhere with probability `>= 1 - eps`; far pairs
//! trigger a false "Yes" with probability `delta = O(t log(1/eps) /
//! t^{1/rho})`; and — the privacy point — because the CPF is *flat* on
//! `[0, r]`, the intersection size does not reveal how close the points
//! are, unlike a standard LSH whose collision counts grow sharply as
//! `dist -> 0` (the triangulation attack of \[45\]).
//!
//! The protocol takes any [`DshFamily`]; the flat one in this workspace
//! is the §6.3 [`dsh_hamming::MultiProbeBitSampling`], whose CPF at
//! `k = 16`, `w = 3` is `1/697` at `dist = 0` and within 1 % of it up to
//! relative distance `0.05`. A powered bit sampling `(1 - t)^k`, or its
//! product with anti bit sampling, is not flat there.

use crate::psi::{digest, PsiTranscript};
use dsh_core::family::{DshFamily, HasherPair};
use dsh_core::points::AsRow;
use rand::Rng;

/// Outcome of one protocol execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolOutcome {
    /// The protocol's answer to "is dist(x, q) <= r?".
    pub answer: bool,
    /// Size of the revealed intersection.
    pub intersection_size: usize,
    /// Information revealed (bits), per the PSI accounting.
    pub leakage_bits: f64,
}

/// A configured instance of the distance-estimation protocol for points of
/// type `P`. Sampling the hash pairs at construction models the shared
/// public randomness.
pub struct DistanceEstimationProtocol<P: ?Sized> {
    pairs: Vec<HasherPair<P>>,
    digest_bits: u32,
}

impl<P: ?Sized> DistanceEstimationProtocol<P> {
    /// Instantiate with `num_hashes` shared pairs from `family` and
    /// digests of `digest_bits` bits.
    pub fn new(
        family: &(impl DshFamily<P> + ?Sized),
        num_hashes: usize,
        digest_bits: u32,
        rng: &mut dyn Rng,
    ) -> Self {
        assert!(num_hashes >= 1);
        assert!((1..=64).contains(&digest_bits));
        DistanceEstimationProtocol {
            pairs: (0..num_hashes).map(|_| family.sample(rng)).collect(),
            digest_bits,
        }
    }

    /// The number of hash pairs `N = O(t log(1/eps))` needed so that a
    /// pair colliding with probability at least `f_min` (the CPF minimum
    /// over `[0, r]`) yields a nonempty intersection with probability at
    /// least `1 - eps`: `N = ceil(ln(1/eps) / f_min)`.
    pub fn required_hashes(f_min: f64, eps: f64) -> usize {
        assert!(f_min > 0.0 && f_min <= 1.0);
        assert!(eps > 0.0 && eps < 1.0);
        ((1.0 / eps).ln() / f_min).ceil() as usize
    }

    /// The paper's parameter rule for the far-distance regime: to achieve
    /// false-positive probability `delta` with exponent `rho`, take
    /// `t ~ (1/delta)^{rho / (1 - rho)}`.
    pub fn suggested_t(delta: f64, rho: f64) -> f64 {
        assert!(delta > 0.0 && delta < 1.0);
        assert!(rho > 0.0 && rho < 1.0);
        (1.0 / delta).powf(rho / (1.0 - rho))
    }

    /// Number of shared hash pairs.
    pub fn num_hashes(&self) -> usize {
        self.pairs.len()
    }

    /// The server's digest vector for its point `x` (an owned point, a
    /// store row view, or a raw row).
    pub fn server_digests<X>(&self, x: &X) -> Vec<u64>
    where
        X: AsRow<Row = P> + ?Sized,
    {
        self.pairs
            .iter()
            .map(|p| digest(p.data.hash(x.as_row()), self.digest_bits))
            .collect()
    }

    /// The client's digest vector for its query `q`.
    pub fn client_digests<Q>(&self, q: &Q) -> Vec<u64>
    where
        Q: AsRow<Row = P> + ?Sized,
    {
        self.pairs
            .iter()
            .map(|p| digest(p.query.hash(q.as_row()), self.digest_bits))
            .collect()
    }

    /// Execute the protocol end-to-end through the ideal PSI.
    pub fn run<X, Q>(&self, x: &X, q: &Q) -> ProtocolOutcome
    where
        X: AsRow<Row = P> + ?Sized,
        Q: AsRow<Row = P> + ?Sized,
    {
        let transcript = PsiTranscript::run(
            &self.server_digests(x),
            &self.client_digests(q),
            self.digest_bits,
        );
        ProtocolOutcome {
            answer: transcript.intersection_size() > 0,
            intersection_size: transcript.intersection_size(),
            leakage_bits: transcript.leakage_bits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_core::combinators::{Concat, Power};
    use dsh_core::points::BitVector;
    use dsh_core::BoxedDshFamily;
    use dsh_data::hamming_data;
    use dsh_hamming::{AntiBitSampling, BitSampling};
    use dsh_math::rng::seeded;

    /// Step-ish Hamming family for testing: CPF (1-t)^k spread over the
    /// close range.
    fn close_family(d: usize, k: usize) -> Power<BitSampling> {
        Power::new(BitSampling::new(d), k)
    }

    #[test]
    fn close_pairs_answer_yes() {
        let d = 256;
        let k = 10;
        let fam = close_family(d, k);
        let f_min = 0.95f64.powi(k as i32); // CPF at relative distance 0.05
        let n_hashes = DistanceEstimationProtocol::<[u64]>::required_hashes(f_min, 0.05);
        let mut rng = seeded(401);
        let proto = DistanceEstimationProtocol::new(&fam, n_hashes, 16, &mut rng);

        let mut yes = 0;
        let runs = 100;
        for _ in 0..runs {
            let x = BitVector::random(&mut rng, d);
            let q = hamming_data::point_at_distance(&mut rng, &x, d / 20);
            if proto.run(&x, &q).answer {
                yes += 1;
            }
        }
        assert!(yes >= 90, "close pairs answered yes only {yes}/{runs}");
    }

    #[test]
    fn far_pairs_answer_no() {
        let d = 256;
        let k = 30; // sharp decay: f(0.5) = 2^-30
        let fam = close_family(d, k);
        let f_min = 0.95f64.powi(k as i32);
        let n_hashes = DistanceEstimationProtocol::<[u64]>::required_hashes(f_min, 0.1);
        let mut rng = seeded(402);
        let proto = DistanceEstimationProtocol::new(&fam, n_hashes, 24, &mut rng);

        let mut false_yes = 0;
        let runs = 50;
        for _ in 0..runs {
            let x = BitVector::random(&mut rng, d);
            let q = hamming_data::point_at_distance(&mut rng, &x, d / 2);
            if proto.run(&x, &q).answer {
                false_yes += 1;
            }
        }
        assert!(false_yes <= 5, "far pairs answered yes {false_yes}/{runs}");
    }

    #[test]
    fn flat_cpf_hides_distance_within_range() {
        // The privacy property: with a unimodal/flat-ish CPF the expected
        // intersection size at distance 0 vs distance r differs far less
        // than with a plain LSH. Compare (1-t)^k t (zero at t=0!) against
        // (1-t)^k.
        let d = 256;
        let k = 10;
        let plain = close_family(d, k);
        let step: Concat<[u64]> = Concat::new(vec![
            Box::new(close_family(d, k)) as BoxedDshFamily<[u64]>,
            Box::new(AntiBitSampling::new(d)),
        ]);
        let mut rng = seeded(403);
        let n = 4000;
        let proto_plain = DistanceEstimationProtocol::new(&plain, n, 16, &mut rng);
        let proto_step = DistanceEstimationProtocol::new(&step, n, 16, &mut rng);

        let x = BitVector::random(&mut rng, d);
        let identical = x.clone();
        let at_r = hamming_data::point_at_distance(&mut rng, &x, d / 10); // t = 0.1

        // Plain LSH: intersection at distance 0 is the full vector; at r
        // it is ~ (0.9)^k N. Ratio huge -> leaks proximity.
        let p0 = proto_plain.run(&x, &identical).intersection_size as f64;
        let pr = proto_plain.run(&x, &at_r).intersection_size as f64;
        // Step family: f(0) = 0 (!) and f(0.1) moderate: the *identical*
        // point is indistinguishable-or-smaller, not a blaring signal.
        let s0 = proto_step.run(&x, &identical).intersection_size as f64;
        let sr = proto_step.run(&x, &at_r).intersection_size as f64;
        assert!(
            p0 / pr.max(1.0) > 2.5,
            "plain ratio {} too small for the test",
            p0 / pr.max(1.0)
        );
        assert!(
            s0 <= sr,
            "step family must not spike at distance 0 ({s0} vs {sr})"
        );
    }

    #[test]
    fn leakage_scales_with_intersection() {
        let d = 64;
        let fam = close_family(d, 2);
        let mut rng = seeded(404);
        let proto = DistanceEstimationProtocol::new(&fam, 500, 8, &mut rng);
        let x = BitVector::random(&mut rng, d);
        let out = proto.run(&x, &x);
        // Identical points collide in every pair for the symmetric family.
        assert_eq!(out.intersection_size, 500);
        assert!(out.answer);
        assert!((out.leakage_bits - 500.0 * (8.0 + 500f64.log2())).abs() < 1e-9);
    }

    #[test]
    fn parameter_rules() {
        // required_hashes: ceil(ln(1/eps)/f_min).
        assert_eq!(
            DistanceEstimationProtocol::<[u64]>::required_hashes(0.1, 0.05),
            ((1.0f64 / 0.05).ln() / 0.1).ceil() as usize
        );
        // suggested_t is monotone decreasing in delta and increasing in rho.
        let t1 = DistanceEstimationProtocol::<[u64]>::suggested_t(0.01, 0.5);
        let t2 = DistanceEstimationProtocol::<[u64]>::suggested_t(0.001, 0.5);
        assert!(t2 > t1);
        let t3 = DistanceEstimationProtocol::<[u64]>::suggested_t(0.01, 0.25);
        assert!(t3 < t1);
        // rho = 1/2: t = (1/delta)^1.
        assert!((t1 - 100.0).abs() < 1e-9);
    }
}
