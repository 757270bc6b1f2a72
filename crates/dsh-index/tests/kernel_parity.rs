//! Bit-exactness parity sweeps for the runtime-dispatched SIMD kernels.
//!
//! The dispatch contract (see `dsh_core::kernels`) is that every tier —
//! scalar, SSE2, AVX2 — produces **bit-identical** results, because the
//! vector kernels reuse the scalar path's 4-accumulator lane structure
//! and reduction order. These tests enumerate every tier the current CPU
//! supports via [`dsh_core::kernels::implementations`] and compare each
//! against the scalar oracle across awkward shapes: lengths 0..=130 (sub-
//! lane sizes and odd tails), element-unaligned slice offsets (vector
//! loads must not assume 32-byte alignment), duplicate/out-of-order id
//! lists for the `_many` batch variants, and `BitStore` rows whose final
//! block is tail-masked.
//!
//! The last test is end-to-end: a full recall-harness run (hamming ANN
//! over a planted instance, a dense verification sweep, every store
//! metric through `PointStore::measure_many`, and Gaussian caps with the
//! filter hashes built on them) is digested
//! to a single FNV hash, then the test re-executes itself in a child
//! process with `DSH_FORCE_SCALAR=1` and asserts the child — pinned to
//! the scalar tier — reproduces the digest bit-for-bit. Dispatch is
//! resolved once per process, so the subprocess is the only way to
//! compare both paths in one test run.

use dsh_core::family::DshFamily;
use dsh_core::kernels::{self, ziggurat, Kernels};
use dsh_core::points::{
    BitMetric, BitStore, BitVector, ChunkedStore, DenseMetric, DenseStore, Measures, PointStore,
};
use dsh_hamming::BitSampling;
use dsh_index::NearNeighborIndex;
use dsh_math::rng::seeded;
use dsh_sphere::FilterDshMinus;
use rand::rngs::StdRng;
use rand::Rng as _;

/// Upper bound of the length sweep: past two full 64-byte cache lines of
/// f64 lanes, so every tail residue 0..4 appears both below and above
/// the unroll width.
const MAX_LEN: usize = 130;

fn random_f64s(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect()
}

fn random_u64s(rng: &mut StdRng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.next_u64()).collect()
}

/// FNV-1a over the little-endian bytes of `x`, folded into `acc`.
fn fnv(acc: u64, x: u64) -> u64 {
    x.to_le_bytes().iter().fold(acc, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Every non-scalar tier the CPU supports, with the scalar oracle first
/// so a broken `implementations()` would fail loudly here.
fn tiers() -> Vec<&'static Kernels> {
    let all = kernels::implementations();
    assert_eq!(all[0].name, "scalar", "scalar oracle must be listed first");
    all
}

#[test]
fn pairwise_f64_kernels_bit_match_scalar_across_lengths_and_offsets() {
    let mut rng = seeded(0x51_D01);
    // One oversized buffer per side; slices are carved at varying offsets
    // so vector loads see every 32-byte misalignment class.
    let a = random_f64s(&mut rng, MAX_LEN + 8);
    let b = random_f64s(&mut rng, MAX_LEN + 8);
    for tier in tiers() {
        for len in 0..=MAX_LEN {
            for off in 0..4 {
                let (x, y) = (&a[off..off + len], &b[off..off + len]);
                assert_eq!(
                    (tier.dot)(x, y).to_bits(),
                    kernels::scalar::dot(x, y).to_bits(),
                    "dot: tier={} len={len} off={off}",
                    tier.name
                );
                assert_eq!(
                    (tier.euclidean)(x, y).to_bits(),
                    kernels::scalar::euclidean(x, y).to_bits(),
                    "euclidean: tier={} len={len} off={off}",
                    tier.name
                );
            }
        }
    }
}

#[test]
fn pairwise_hamming_kernels_match_scalar_across_lengths_and_offsets() {
    let mut rng = seeded(0x51_D02);
    let a = random_u64s(&mut rng, MAX_LEN + 8);
    let b = random_u64s(&mut rng, MAX_LEN + 8);
    for tier in tiers() {
        for len in 0..=MAX_LEN {
            for off in 0..4 {
                let (x, y) = (&a[off..off + len], &b[off..off + len]);
                assert_eq!(
                    (tier.hamming)(x, y),
                    kernels::scalar::hamming(x, y),
                    "hamming: tier={} len={len} off={off}",
                    tier.name
                );
            }
        }
    }
}

#[test]
fn batch_f64_kernels_bit_match_scalar_with_duplicate_unordered_ids() {
    let mut rng = seeded(0x51_D03);
    for dim in [1usize, 3, 4, 7, 8, 31, 64, 96, 130] {
        let n = 37;
        let flat = random_f64s(&mut rng, n * dim);
        let q = random_f64s(&mut rng, dim);
        // Out of order, with duplicates and repeated boundary rows — the
        // internal prefetch-ahead must not perturb results.
        let mut ids: Vec<usize> = (0..n).map(|j| (j * 17 + 5) % n).collect();
        ids.extend_from_slice(&[0, n - 1, n - 1, 0, n / 2]);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for tier in tiers() {
            // The raw kernels append; clear between calls like the store
            // facades do.
            want.clear();
            got.clear();
            (kernels::scalar::dot_many)(&flat, dim, &ids, &q, &mut want);
            (tier.dot_many)(&flat, dim, &ids, &q, &mut got);
            let bits = |v: &Vec<f64>| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
            assert_eq!(
                bits(&got),
                bits(&want),
                "dot_many: tier={} dim={dim}",
                tier.name
            );
            want.clear();
            got.clear();
            (kernels::scalar::euclidean_many)(&flat, dim, &ids, &q, &mut want);
            (tier.euclidean_many)(&flat, dim, &ids, &q, &mut got);
            assert_eq!(
                bits(&got),
                bits(&want),
                "euclidean_many: tier={} dim={dim}",
                tier.name
            );
        }
    }
}

#[test]
fn batch_hamming_matches_scalar_on_tail_masked_bitstore_rows() {
    let mut rng = seeded(0x51_D04);
    // Dimensions straddling the 64-bit block boundary: the final block of
    // each row carries masked-off dead bits the kernels must still read
    // (they are zeroed by construction, so XOR+popcount stays exact).
    for d in [1usize, 63, 64, 65, 127, 128, 130] {
        let mut store = BitStore::with_dim(d);
        let n = 29;
        for _ in 0..n {
            store.push(&BitVector::random(&mut rng, d));
        }
        let q = BitVector::random(&mut rng, d);
        let mut ids: Vec<usize> = (0..n).map(|j| (j * 11 + 3) % n).collect();
        ids.extend_from_slice(&[n - 1, 0, n - 1]);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for tier in tiers() {
            want.clear();
            got.clear();
            (kernels::scalar::hamming_many)(
                store.as_flat(),
                store.blocks_per_row(),
                &ids,
                q.as_blocks(),
                &mut want,
            );
            (tier.hamming_many)(
                store.as_flat(),
                store.blocks_per_row(),
                &ids,
                q.as_blocks(),
                &mut got,
            );
            assert_eq!(got, want, "hamming_many: tier={} d={d}", tier.name);
            // And through the store facade, which routes via the active
            // dispatch table.
            store.hamming_many(&ids, q.as_blocks(), &mut got);
            assert_eq!(got, want, "BitStore::hamming_many: d={d}");
        }
    }
}

/// One deterministic recall-harness run, reduced to an FNV digest: a
/// hamming ANN over a planted instance (exercising the CSR bucket walk,
/// the stamp prefetch, and `hamming_many` verification), a dense
/// `dot_many`/`euclidean_many` sweep (exercising the f64 kernels and the
/// row-gather prefetch), and every store metric through
/// `PointStore::measure_many`, checked against `measure` row by row, and
/// the filter families' Gaussian caps and hash values. Every seed is
/// fixed, so two processes disagree only if their kernels disagree.
fn recall_harness_digest() -> u64 {
    let mut h = FNV_SEED;

    // Hamming ANN recall sweep.
    let d = 128;
    let mut rng = seeded(0x51_D05);
    let inst = dsh_data::hamming_data::planted_hamming_instance(&mut rng, 200, d, 6);
    let idx = NearNeighborIndex::build(
        &BitSampling::new(d),
        dsh_index::measures::relative_hamming(d),
        0.25,
        BitStore::from(inst.points),
        0.95,
        0.75,
        2.0,
        &mut rng,
    );
    let (hit, _) = idx.query(&inst.query);
    h = fnv(h, hit.map_or(u64::MAX, |i| i as u64));
    for _ in 0..16 {
        let q = BitVector::random(&mut rng, d);
        let (hit, stats) = idx.query(&q);
        h = fnv(h, hit.map_or(u64::MAX, |i| i as u64));
        h = fnv(h, stats.distinct_candidates as u64);
        h = fnv(h, stats.distance_computations as u64);
    }

    // Dense verification sweep over a store facade.
    let dim = 96;
    let n = 64;
    let mut store = DenseStore::with_dim(dim);
    for _ in 0..n {
        store.push(&random_f64s(&mut rng, dim));
    }
    let q = random_f64s(&mut rng, dim);
    let ids: Vec<usize> = (0..n).map(|j| (j * 7 + 2) % n).collect();
    let mut out = Vec::new();
    store.dot_many(&ids, &q, &mut out);
    h = out.iter().fold(h, |h, x| fnv(h, x.to_bits()));
    store.euclidean_many(&ids, &q, &mut out);
    h = out.iter().fold(h, |h, x| fnv(h, x.to_bits()));

    // The stores' metric hook, for every metric, on the flat stores and
    // a multi-chunk copy (a kernel call per run of ids one part holds):
    // over the same ids, and over id lists shaped to the copy's parts.
    let chunked = multi_chunk(&store);
    let id_lists = [
        ids,
        vec![],
        vec![3, 0, 19, 7, 7],   // chunk 0 only
        vec![60, 63, 61],       // the tail only
        (0..n).rev().collect(), // descending across every part
    ];
    for ids in &id_lists {
        for metric in [DenseMetric::InnerProduct, DenseMetric::Euclidean] {
            h = measure_many_is_the_measure_loop(h, &store, &metric, ids, &q);
            h = measure_many_is_the_measure_loop(h, &chunked, &metric, ids, &q);
        }
    }
    let d = 130;
    let bits = BitStore::from(dsh_data::hamming_data::uniform_hamming(&mut rng, n, d));
    let q = BitVector::random(&mut rng, d);
    let chunked = multi_chunk(&bits);
    for ids in &id_lists {
        for metric in [BitMetric::Hamming, BitMetric::RelativeHamming(d)] {
            h = measure_many_is_the_measure_loop(h, &bits, &metric, ids, q.as_blocks());
            h = measure_many_is_the_measure_loop(h, &chunked, &metric, ids, q.as_blocks());
        }
    }

    // Gaussian caps, and a filter family's hashes through the dispatched
    // `dot`, row by row and in one block. 4 096 caps of 64 slots: ~1.5 %
    // of slots leave the fast path, and the sweep must reach its tail
    // branch (`|z| >= R`, ~68 expected). `d = 200` hashes every row in two
    // cap pieces.
    let mut cap = [0.0; 64];
    let mut tail_draws = 0;
    for k in 0..4096 {
        kernels::gaussian_cap(dsh_math::rng::derive_seed(0x51_D06, k), &mut cap);
        h = cap.iter().fold(h, |h, z| fnv(h, z.to_bits()));
        tail_draws += cap.iter().filter(|z| z.abs() >= ziggurat::R).count();
    }
    assert!(
        tail_draws > 0,
        "the cap sweep drew nothing from the tail branch"
    );
    let d = 200;
    let sphere = DenseStore::from(dsh_data::sphere_data::uniform_sphere(&mut rng, 64, d));
    let rows: Vec<&[f64]> = (0..sphere.len()).map(|i| sphere.row(i)).collect();
    let pair = FilterDshMinus::new(d, 1.5).sample(&mut rng);
    let mut block = vec![0; rows.len()];
    for hasher in [&pair.data, &pair.query] {
        hasher.hash_many(&rows, &mut block);
        for (row, &b) in rows.iter().zip(&block) {
            assert_eq!(hasher.hash(row), b, "hash_many differs from hash");
            h = fnv(h, b);
        }
    }
    h
}

/// `store`'s rows in a [`ChunkedStore`] of frozen 20-row chunks and a
/// non-empty tail (three chunks and a 4-row tail for 64 rows).
fn multi_chunk<S: PointStore>(store: &S) -> ChunkedStore<S> {
    let mut chunked = ChunkedStore::new(store);
    for i in 0..store.len() {
        chunked.push_row(store.row(i));
        if i % 20 == 19 {
            chunked.freeze_tail();
        }
    }
    chunked
}

/// `measure_many` of `ids` equals `measure` row by row, bit for bit,
/// under the active tier, appended after what `values` already held;
/// its values folded into `h`.
fn measure_many_is_the_measure_loop<S: PointStore>(
    h: u64,
    store: &S,
    metric: &S::Metric,
    ids: &[usize],
    q: &S::Row,
) -> u64 {
    let prefix = [f64::NAN, -1.5, 0.25]; // must survive the call
    let mut out = Measures {
        values: prefix.to_vec(),
        counts: vec![7; 5],  // a store's integer scratch, stale
        locals: vec![9; 70], // a chunked store's run scratch, stale
    };
    store.measure_many(metric, ids, q, &mut out);
    let got: Vec<u64> = out.values.iter().map(|x| x.to_bits()).collect();
    let want: Vec<u64> = prefix
        .into_iter()
        .chain(ids.iter().map(|&i| S::measure(metric, store.row(i), q)))
        .map(f64::to_bits)
        .collect();
    assert_eq!(got, want, "measure_many: tier={}", kernels::active().name);
    got[prefix.len()..].iter().fold(h, |h, &x| fnv(h, x))
}

const CHILD_MARKER: &str = "KERNEL_PARITY_CHILD";

#[test]
fn end_to_end_recall_digest_is_dispatch_invariant() {
    if std::env::var_os(CHILD_MARKER).is_some() {
        // Child mode: report the forced-scalar digest on stdout and stop.
        println!(
            "PARITY_DIGEST={:016x} KERNEL={}",
            recall_harness_digest(),
            kernels::active().name
        );
        return;
    }

    let native = recall_harness_digest();
    let exe = std::env::current_exe().expect("own test binary path");
    let out = std::process::Command::new(exe)
        .args([
            "end_to_end_recall_digest_is_dispatch_invariant",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD_MARKER, "1")
        .env("DSH_FORCE_SCALAR", "1")
        .output()
        .expect("spawning forced-scalar child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "child failed:\n{stdout}");
    // The libtest harness prints `test <name> ... ` without a newline
    // before the test's own output, so the digest is mid-line: seek the
    // marker rather than scanning line starts.
    let at = stdout
        .find("PARITY_DIGEST=")
        .unwrap_or_else(|| panic!("no digest line in child output:\n{stdout}"));
    let report = stdout[at..].lines().next().expect("digest line");
    let (digest_part, kernel_part) = report
        .split_once(" KERNEL=")
        .expect("digest line carries the active kernel name");
    let child_digest = u64::from_str_radix(digest_part.trim_start_matches("PARITY_DIGEST="), 16)
        .expect("digest parses as hex");
    assert_eq!(
        kernel_part, "scalar",
        "DSH_FORCE_SCALAR=1 child must dispatch to the scalar tier"
    );
    assert_eq!(
        child_digest,
        native,
        "recall-harness digest differs between {} and scalar dispatch",
        kernels::active().name
    );
}
