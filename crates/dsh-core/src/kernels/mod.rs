//! Distance kernels with one-time runtime SIMD dispatch.
//!
//! Every metric in the workspace funnels through exactly one
//! implementation per tier of the six kernels `dot` / `euclidean` /
//! `hamming` and their `_many` batch variants. The tiers:
//!
//! * **scalar** ([`scalar`]) — the blocked 4-accumulator kernels from
//!   PR 3, always compiled, on every architecture. This is the **parity
//!   oracle**: the reference semantics every other tier must reproduce
//!   bit for bit.
//! * **sse2** — x86_64 baseline, two 2×f64 accumulator registers, plus
//!   prefetching batch variants. No runtime detection needed.
//! * **avx2** — one 4×f64 accumulator register plus hardware `popcnt`
//!   for Hamming; selected when `is_x86_feature_detected!` confirms
//!   `avx2` **and** `popcnt`.
//!
//! Every Gaussian filter cap comes from one generator beside the tiers,
//! [`gaussian_cap`] (a counter-based ziggurat, [`ziggurat`]), which has a
//! single scalar implementation. A bit-identical 4-lane AVX2 generator
//! (SplitMix64's two 64-bit multiplies emulated with three `vpmuludq`
//! each, gathered layer bounds, a masked accept) ran at 1.00–1.05x the
//! scalar one on an AVX-512-capable Intel Xeon: the scalar loop issues a
//! slot about every two cycles, bound by the one 64-bit multiply port,
//! and slow-path slots cost both the same. A tier with a native 64-bit
//! lane multiply (AVX-512DQ `vpmullq`) is where a SIMD generator could
//! pay.
//!
//! # Dispatch model
//!
//! [`active`] resolves the tier **once per process** into a
//! `OnceLock<&'static Kernels>` — a table of plain `fn` pointers — and
//! every later call is an indirect call through that table (one
//! predictable branch, no repeated feature detection). The environment
//! variable **`DSH_FORCE_SCALAR=1`** (any value other than `0` or empty),
//! read once at dispatch initialisation, pins the scalar tier — which
//! also disables software prefetch, making it the honest no-SIMD
//! baseline for tests and `bench-report`.
//!
//! # Why f64 results are bit-identical across tiers
//!
//! The scalar oracle accumulates into four independent sums: `acc[j]`
//! receives the terms of elements `j, j + 4, j + 8, ...` in index order,
//! and the reduction is `(acc0 + acc1) + (acc2 + acc3) + tail` with the
//! tail folded left to right. The AVX2 tier keeps one 256-bit register
//! whose lane `j` performs *exactly* the additions of `acc[j]` — same
//! values, same order — using separate multiply and add instructions
//! (never FMA, which rounds once instead of twice), then extracts the
//! four lanes and reduces them in the oracle's association. The SSE2
//! tier splits the same four lanes across two 128-bit registers. IEEE-754
//! arithmetic is deterministic for a fixed sequence of operations, so
//! each tier computes the identical f64, bit for bit — asserted
//! exhaustively by `tests/kernel_parity.rs` and inside every
//! `bench-report` run. Hamming is integer and trivially exact.
//!
//! # Prefetch
//!
//! The batch kernels prefetch the candidate row a fixed distance ahead
//! of the gather walk (which is why candidate verification goes through
//! them); [`prefetch_read`] exposes the same hint to the index layer's
//! CSR walks and visited-stamp probes. All of it compiles to nothing off
//! x86_64 and is disabled at runtime on the scalar tier.

pub mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;
pub mod ziggurat;

pub use ziggurat::gaussian_cap;

use std::sync::OnceLock;

/// Signature of the batch kernels: rows `ids` of a flat row-major
/// buffer (rows of the `usize` width) against one query row, results
/// appended to the output vector in `ids` order.
pub type ManyFn<T> = fn(&[T], usize, &[usize], &[T], &mut Vec<T>);

/// One kernel tier: a table of plain `fn` pointers, resolved once by
/// [`active`] and then called indirectly. All tiers of one process agree
/// bit-for-bit on every f64 and u64 result (see the module docs).
pub struct Kernels {
    /// Tier name (`"scalar"`, `"sse2"`, `"avx2"`) — surfaced in
    /// `BENCH_kernels.json` and handy in test diagnostics.
    pub name: &'static str,
    /// Whether the index layer's software-prefetch hints are active under
    /// this tier (false only for the scalar baseline).
    pub prefetch: bool,
    /// Inner product of two rows (lengths already validated by [`dot`]).
    pub dot: fn(&[f64], &[f64]) -> f64,
    /// Euclidean distance of two rows.
    pub euclidean: fn(&[f64], &[f64]) -> f64,
    /// Hamming distance of two packed rows.
    pub hamming: fn(&[u64], &[u64]) -> u64,
    /// Batch inner products of rows `ids` of a flat row-major buffer
    /// against one query, appended to the output in `ids` order.
    pub dot_many: ManyFn<f64>,
    /// Batch Euclidean distances (same contract as `dot_many`).
    pub euclidean_many: ManyFn<f64>,
    /// Batch Hamming distances over packed rows of `blocks_per_row`
    /// words (same contract as `dot_many`).
    pub hamming_many: ManyFn<u64>,
}

/// The always-available scalar tier (also the parity oracle).
static SCALAR: Kernels = Kernels {
    name: "scalar",
    prefetch: false,
    dot: scalar::dot,
    euclidean: scalar::euclidean,
    hamming: scalar::hamming,
    dot_many: scalar::dot_many,
    euclidean_many: scalar::euclidean_many,
    hamming_many: scalar::hamming_many,
};

static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();

/// The dispatched kernel tier, resolved once per process: the best tier
/// the CPU supports, or the scalar tier when `DSH_FORCE_SCALAR` is set.
#[inline]
pub fn active() -> &'static Kernels {
    ACTIVE.get_or_init(select)
}

/// One-time tier selection (the `OnceLock` initialiser; never on a hot
/// path, so the env read and feature detection are allowed to be lazy
/// library calls).
fn select() -> &'static Kernels {
    let forced = std::env::var_os("DSH_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != *"0");
    if forced {
        return &SCALAR;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
    {
        return &x86::AVX2;
    }
    #[cfg(target_arch = "x86_64")]
    return &x86::SSE2;
    #[cfg(not(target_arch = "x86_64"))]
    &SCALAR
}

/// Every tier runnable on this CPU, scalar oracle first, fastest last.
/// [`active`] picks the last entry unless `DSH_FORCE_SCALAR` pins the
/// first. The parity sweep and `bench-report` iterate this to check each
/// tier against the oracle directly, without respawning processes.
pub fn implementations() -> Vec<&'static Kernels> {
    let mut tiers = vec![&SCALAR];
    #[cfg(target_arch = "x86_64")]
    {
        tiers.push(&x86::SSE2);
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("popcnt")
        {
            tiers.push(&x86::AVX2);
        }
    }
    tiers
}

// ---------------------------------------------------------------------------
// Dispatched kernels — the workspace's single implementation per metric
// ---------------------------------------------------------------------------

/// Inner product of two equal-length rows (dispatched; see
/// [`scalar::dot`] for the accumulator structure all tiers share).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    // lint: allow(panic) — kernel contract: equal-length slices, guaranteed by every store row accessor
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    (active().dot)(a, b)
}

/// Euclidean distance between two equal-length rows (dispatched).
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    (active().euclidean)(a, b)
}

/// Hamming distance between two equal-length packed rows (dispatched;
/// tail bits beyond the dimension must be zero, which every
/// `BitVector`/`BitStore` constructor guarantees).
pub fn hamming(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    (active().hamming)(a, b)
}

/// Batch [`dot`] of rows `ids` of the row-major buffer `flat` (rows of
/// `dim` values) against `q`, **appended** to `out` in `ids` order
/// (callers owning the buffer clear it first).
pub fn dot_many(flat: &[f64], dim: usize, ids: &[usize], q: &[f64], out: &mut Vec<f64>) {
    assert_eq!(q.len(), dim, "dimension mismatch");
    (active().dot_many)(flat, dim, ids, q, out);
}

/// Batch [`euclidean`] of rows `ids` of `flat` against `q` (same
/// contract as [`dot_many`]).
pub fn euclidean_many(flat: &[f64], dim: usize, ids: &[usize], q: &[f64], out: &mut Vec<f64>) {
    assert_eq!(q.len(), dim, "dimension mismatch");
    (active().euclidean_many)(flat, dim, ids, q, out);
}

/// Batch [`hamming`] of packed rows `ids` of `blocks` (rows of
/// `blocks_per_row` words) against `q` (same contract as [`dot_many`]).
pub fn hamming_many(
    blocks: &[u64],
    blocks_per_row: usize,
    ids: &[usize],
    q: &[u64],
    out: &mut Vec<u64>,
) {
    assert_eq!(q.len(), blocks_per_row, "dimension mismatch");
    (active().hamming_many)(blocks, blocks_per_row, ids, q, out);
}

// ---------------------------------------------------------------------------
// Prefetch hints for the index layer
// ---------------------------------------------------------------------------

/// Best-effort prefetch of `data[index]` into L1. A no-op off x86_64,
/// when `index` is out of bounds, or under the scalar tier (so
/// `DSH_FORCE_SCALAR=1` really is the prefetch-free baseline).
#[inline]
pub fn prefetch_read<T>(data: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if active().prefetch {
        if let Some(r) = data.get(index) {
            x86::prefetch_ptr(r as *const T);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_tier_is_first_and_active_is_listed() {
        let tiers = implementations();
        assert_eq!(tiers[0].name, "scalar");
        assert!(!tiers[0].prefetch);
        let names: Vec<_> = tiers.iter().map(|t| t.name).collect();
        assert!(names.contains(&active().name), "active {:?}", active().name);
    }

    #[test]
    fn tiers_have_distinct_names() {
        let tiers = implementations();
        for (i, a) in tiers.iter().enumerate() {
            for b in &tiers[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn prefetch_hints_tolerate_out_of_bounds() {
        let data = [1.0f64; 8];
        prefetch_read(&data, 0);
        prefetch_read(&data, 1 << 40);
        // The batch kernels' row prefetch.
        #[cfg(target_arch = "x86_64")]
        {
            x86::prefetch_span(&data, 0, 8);
            x86::prefetch_span(&data, 4, usize::MAX); // start + len overflows
            x86::prefetch_span(&data, 9, 1);
            x86::prefetch_span(&data, 0, 0);
        }
    }

    #[test]
    fn dispatched_kernels_match_oracle_on_a_smoke_row() {
        let a: Vec<f64> = (0..37).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..37).map(|i| (i as f64).cos()).collect();
        assert_eq!(dot(&a, &b).to_bits(), scalar::dot(&a, &b).to_bits());
        assert_eq!(
            euclidean(&a, &b).to_bits(),
            scalar::euclidean(&a, &b).to_bits()
        );
        let x: Vec<u64> = (0..9)
            .map(|i| 0x9e37_79b9_7f4a_7c15u64.rotate_left(i))
            .collect();
        let y: Vec<u64> = (0..9)
            .map(|i| 0xbf58_476d_1ce4_e5b9u64.rotate_left(2 * i))
            .collect();
        assert_eq!(hamming(&x, &y), scalar::hamming(&x, &y));
    }
}
