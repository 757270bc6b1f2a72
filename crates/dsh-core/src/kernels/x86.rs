//! x86_64 SIMD kernel tiers: AVX2 (4×f64 / popcnt) and SSE2 (baseline).
//!
//! This file is the workspace's **only** unsafe boundary — the one
//! module that opts out of the crate root's `#![deny(unsafe_code)]`, so
//! rustc fails the build if `unsafe` appears anywhere else. Three kinds
//! of unsafe operations occur here, each `// SAFETY:`-annotated (CI runs
//! clippy with `-D clippy::undocumented_unsafe_blocks`):
//!
//! 1. unaligned SIMD loads through raw pointers, bounded by the slice
//!    lengths computed immediately above them;
//! 2. calls to safe `#[target_feature(enable = "avx2"/"popcnt")]`
//!    functions from entry points without those static features —
//!    sound because the `AVX2` table is only handed out by
//!    `super::select`/`super::implementations` after
//!    `is_x86_feature_detected!` confirmed the features at runtime;
//! 3. `_mm_prefetch`, which performs no architectural memory access and
//!    cannot fault on any address.
//!
//! Every floating-point tier reproduces the scalar oracle's 4-accumulator
//! lane structure and reduction order exactly (see [`super::scalar`]), so
//! results are bit-identical; nothing here uses FMA, which would change
//! rounding.
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_castpd256_pd128, _mm256_extractf128_pd, _mm256_loadu_pd,
    _mm256_mul_pd, _mm256_setzero_pd, _mm256_sub_pd, _mm_add_pd, _mm_cvtsd_f64, _mm_loadu_pd,
    _mm_mul_pd, _mm_prefetch, _mm_setzero_pd, _mm_sub_pd, _mm_unpackhi_pd, _MM_HINT_T0,
};

use super::{scalar, Kernels};

/// How many candidate rows ahead of the current one the batch kernels
/// prefetch. Far enough to cover one row's distance computation times the
/// memory latency, near enough that the lines are still resident when the
/// walk arrives.
const ROW_AHEAD: usize = 8;

/// How many 64-byte lines of an upcoming row to prefetch (8 lines = a
/// full 64-dimensional f64 row; longer rows rely on the hardware streamer
/// once the walk starts touching them).
const MAX_PREFETCH_LINES: usize = 8;

/// The AVX2 tier: 4×f64 lanes for `dot`/`euclidean`, hardware `popcnt`
/// for `hamming`, prefetching batch variants. Published by dispatch only
/// after runtime detection of `avx2` **and** `popcnt`.
pub(super) static AVX2: Kernels = Kernels {
    name: "avx2",
    prefetch: true,
    dot: dot_avx2_entry,
    euclidean: euclidean_avx2_entry,
    hamming: hamming_popcnt_entry,
    dot_many: dot_many_avx2_entry,
    euclidean_many: euclidean_many_avx2_entry,
    hamming_many: hamming_many_popcnt_entry,
};

/// The SSE2 tier: 2×f64 lanes (two accumulator registers mirror scalar
/// lanes 0/1 and 2/3). SSE2 is in the x86_64 baseline, so this tier needs
/// no runtime detection; `hamming` stays on the scalar oracle because
/// baseline x86_64 has no `popcnt`.
pub(super) static SSE2: Kernels = Kernels {
    name: "sse2",
    prefetch: true,
    dot: dot_sse2_entry,
    euclidean: euclidean_sse2_entry,
    hamming: scalar::hamming,
    dot_many: dot_many_sse2_entry,
    euclidean_many: euclidean_many_sse2_entry,
    hamming_many: hamming_many_sse2,
};

// ---------------------------------------------------------------------------
// Prefetch
// ---------------------------------------------------------------------------

/// Best-effort T0 prefetch of the cache line holding `p`.
#[inline(always)]
pub(super) fn prefetch_ptr<T>(p: *const T) {
    // SAFETY: PREFETCHT0 performs no architectural memory access and does
    // not fault on any address, valid or not; it is a pure cache hint.
    unsafe { _mm_prefetch::<_MM_HINT_T0>(p as *const i8) }
}

/// Prefetch up to [`MAX_PREFETCH_LINES`] cache lines covering
/// `data[start..start + len]`; silently a no-op when the span is out of
/// bounds (prefetch is a hint, never a bounds oracle).
#[inline]
pub(super) fn prefetch_span<T>(data: &[T], start: usize, len: usize) {
    let Some(row) = start.checked_add(len).and_then(|end| data.get(start..end)) else {
        return;
    };
    let bytes = std::mem::size_of_val(row);
    let lines = bytes.div_ceil(64).min(MAX_PREFETCH_LINES);
    let base = row.as_ptr().cast::<i8>();
    for l in 0..lines {
        // `wrapping_add` keeps the last-line address computation defined
        // even when it lands past the row's final byte.
        prefetch_ptr(base.wrapping_add(l * 64));
    }
}

// ---------------------------------------------------------------------------
// AVX2 pair kernels
// ---------------------------------------------------------------------------

fn dot_avx2_entry(a: &[f64], b: &[f64]) -> f64 {
    // SAFETY: this entry is reachable only through the `AVX2` table, which
    // dispatch publishes only after runtime `avx2`+`popcnt` detection.
    unsafe { dot_avx2(a, b) }
}

fn euclidean_avx2_entry(a: &[f64], b: &[f64]) -> f64 {
    // SAFETY: this entry is reachable only through the `AVX2` table, which
    // dispatch publishes only after runtime `avx2`+`popcnt` detection.
    unsafe { euclidean_avx2(a, b) }
}

fn hamming_popcnt_entry(a: &[u64], b: &[u64]) -> u64 {
    // SAFETY: this entry is reachable only through the `AVX2` table, which
    // dispatch publishes only after runtime `avx2`+`popcnt` detection.
    unsafe { hamming_popcnt(a, b) }
}

/// Reduce a 4-lane accumulator as `(l0 + l1) + (l2 + l3)` — the scalar
/// oracle's exact association, lane `j` standing in for scalar `acc[j]`.
#[target_feature(enable = "avx2")]
fn hsum4(v: __m256d) -> f64 {
    let lo = _mm256_castpd256_pd128(v);
    let hi = _mm256_extractf128_pd::<1>(v);
    let l0 = _mm_cvtsd_f64(lo);
    let l1 = _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
    let l2 = _mm_cvtsd_f64(hi);
    let l3 = _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
    (l0 + l1) + (l2 + l3)
}

/// AVX2 [`scalar::dot`]: one 256-bit accumulator whose lane `j` performs
/// exactly the multiply-adds of scalar `acc[j]`, separate mul + add (no
/// FMA — fusing would change rounding), identical scalar tail.
#[target_feature(enable = "avx2")]
fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let n4 = n & !3;
    let mut acc = _mm256_setzero_pd();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut i = 0;
    while i < n4 {
        // SAFETY: i + 4 <= n4 <= min(a.len(), b.len()), so both unaligned
        // 4-lane loads at offset i are in bounds.
        let (va, vb) = unsafe { (_mm256_loadu_pd(pa.add(i)), _mm256_loadu_pd(pb.add(i))) };
        acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
        i += 4;
    }
    let mut tail = 0.0;
    for (x, y) in a[n4..n].iter().zip(&b[n4..n]) {
        tail += x * y;
    }
    hsum4(acc) + tail
}

/// AVX2 [`scalar::euclidean`] (same lane discipline as [`dot_avx2`]).
#[target_feature(enable = "avx2")]
fn euclidean_avx2(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let n4 = n & !3;
    let mut acc = _mm256_setzero_pd();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut i = 0;
    while i < n4 {
        // SAFETY: i + 4 <= n4 <= min(a.len(), b.len()), so both unaligned
        // 4-lane loads at offset i are in bounds.
        let (va, vb) = unsafe { (_mm256_loadu_pd(pa.add(i)), _mm256_loadu_pd(pb.add(i))) };
        let d = _mm256_sub_pd(va, vb);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
        i += 4;
    }
    let mut tail = 0.0;
    for (x, y) in a[n4..n].iter().zip(&b[n4..n]) {
        tail += (x - y) * (x - y);
    }
    (hsum4(acc) + tail).sqrt()
}

/// [`scalar::hamming`] with hardware `popcnt` (baseline x86_64 compiles
/// `count_ones` to a ~15-op bit-parallel sequence; with the feature
/// enabled it is one instruction). Integer sums are associative, so the
/// 4-way unroll is exact regardless of order.
#[target_feature(enable = "popcnt")]
fn hamming_popcnt(a: &[u64], b: &[u64]) -> u64 {
    let mut acc = [0u64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (pa, pb) in (&mut ca).zip(&mut cb) {
        acc[0] += (pa[0] ^ pb[0]).count_ones() as u64;
        acc[1] += (pa[1] ^ pb[1]).count_ones() as u64;
        acc[2] += (pa[2] ^ pb[2]).count_ones() as u64;
        acc[3] += (pa[3] ^ pb[3]).count_ones() as u64;
    }
    let mut tail = 0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += (x ^ y).count_ones() as u64;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

// ---------------------------------------------------------------------------
// SSE2 pair kernels
//
// SSE2 is part of the x86_64 baseline, so these need no runtime
// detection — but rustc still requires intrinsic callers to carry the
// explicit `#[target_feature]`, hence the same entry/body split as AVX2
// with a trivially-true SAFETY argument.
// ---------------------------------------------------------------------------

fn dot_sse2_entry(a: &[f64], b: &[f64]) -> f64 {
    // SAFETY: SSE2 is in the x86_64 baseline — statically available on
    // every CPU this module compiles for.
    unsafe { dot_sse2(a, b) }
}

fn euclidean_sse2_entry(a: &[f64], b: &[f64]) -> f64 {
    // SAFETY: SSE2 is in the x86_64 baseline — statically available on
    // every CPU this module compiles for.
    unsafe { euclidean_sse2(a, b) }
}

/// SSE2 [`scalar::dot`]: two 128-bit accumulators, `acc01` lanes tracking
/// scalar `acc[0]`/`acc[1]` and `acc23` tracking `acc[2]`/`acc[3]`, with
/// the oracle's reduction order.
#[target_feature(enable = "sse2")]
fn dot_sse2(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let n4 = n & !3;
    let mut acc01 = _mm_setzero_pd();
    let mut acc23 = _mm_setzero_pd();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut i = 0;
    while i < n4 {
        // SAFETY: i + 4 <= n4 <= min(a.len(), b.len()), so the 2-lane loads
        // at offsets i and i + 2 are in bounds for both slices.
        let (a01, a23) = unsafe { (_mm_loadu_pd(pa.add(i)), _mm_loadu_pd(pa.add(i + 2))) };
        // SAFETY: as above for `b`.
        let (b01, b23) = unsafe { (_mm_loadu_pd(pb.add(i)), _mm_loadu_pd(pb.add(i + 2))) };
        acc01 = _mm_add_pd(acc01, _mm_mul_pd(a01, b01));
        acc23 = _mm_add_pd(acc23, _mm_mul_pd(a23, b23));
        i += 4;
    }
    let mut tail = 0.0;
    for (x, y) in a[n4..n].iter().zip(&b[n4..n]) {
        tail += x * y;
    }
    hsum2x2(acc01, acc23) + tail
}

/// SSE2 [`scalar::euclidean`] (same lane discipline as [`dot_sse2`]).
#[target_feature(enable = "sse2")]
fn euclidean_sse2(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let n4 = n & !3;
    let mut acc01 = _mm_setzero_pd();
    let mut acc23 = _mm_setzero_pd();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut i = 0;
    while i < n4 {
        // SAFETY: i + 4 <= n4 <= min(a.len(), b.len()), so the 2-lane loads
        // at offsets i and i + 2 are in bounds for both slices.
        let (a01, a23) = unsafe { (_mm_loadu_pd(pa.add(i)), _mm_loadu_pd(pa.add(i + 2))) };
        // SAFETY: as above for `b`.
        let (b01, b23) = unsafe { (_mm_loadu_pd(pb.add(i)), _mm_loadu_pd(pb.add(i + 2))) };
        let d01 = _mm_sub_pd(a01, b01);
        let d23 = _mm_sub_pd(a23, b23);
        acc01 = _mm_add_pd(acc01, _mm_mul_pd(d01, d01));
        acc23 = _mm_add_pd(acc23, _mm_mul_pd(d23, d23));
        i += 4;
    }
    let mut tail = 0.0;
    for (x, y) in a[n4..n].iter().zip(&b[n4..n]) {
        tail += (x - y) * (x - y);
    }
    (hsum2x2(acc01, acc23) + tail).sqrt()
}

/// Reduce the two-register accumulator pair as `(l0 + l1) + (l2 + l3)`.
#[target_feature(enable = "sse2")]
fn hsum2x2(acc01: core::arch::x86_64::__m128d, acc23: core::arch::x86_64::__m128d) -> f64 {
    let l0 = _mm_cvtsd_f64(acc01);
    let l1 = _mm_cvtsd_f64(_mm_unpackhi_pd(acc01, acc01));
    let l2 = _mm_cvtsd_f64(acc23);
    let l3 = _mm_cvtsd_f64(_mm_unpackhi_pd(acc23, acc23));
    (l0 + l1) + (l2 + l3)
}

// ---------------------------------------------------------------------------
// Batch kernels (row gather + prefetch-ahead)
// ---------------------------------------------------------------------------

fn dot_many_avx2_entry(flat: &[f64], dim: usize, ids: &[usize], q: &[f64], out: &mut Vec<f64>) {
    // SAFETY: this entry is reachable only through the `AVX2` table, which
    // dispatch publishes only after runtime `avx2`+`popcnt` detection.
    unsafe { dot_many_avx2(flat, dim, ids, q, out) }
}

fn euclidean_many_avx2_entry(
    flat: &[f64],
    dim: usize,
    ids: &[usize],
    q: &[f64],
    out: &mut Vec<f64>,
) {
    // SAFETY: this entry is reachable only through the `AVX2` table, which
    // dispatch publishes only after runtime `avx2`+`popcnt` detection.
    unsafe { euclidean_many_avx2(flat, dim, ids, q, out) }
}

fn hamming_many_popcnt_entry(
    blocks: &[u64],
    blocks_per_row: usize,
    ids: &[usize],
    q: &[u64],
    out: &mut Vec<u64>,
) {
    // SAFETY: this entry is reachable only through the `AVX2` table, which
    // dispatch publishes only after runtime `avx2`+`popcnt` detection.
    unsafe { hamming_many_popcnt(blocks, blocks_per_row, ids, q, out) }
}

/// Batch [`dot_avx2`] over gathered rows, prefetching the row
/// [`ROW_AHEAD`] candidates ahead so the gather's cache misses overlap
/// the current row's arithmetic.
#[target_feature(enable = "avx2")]
fn dot_many_avx2(flat: &[f64], dim: usize, ids: &[usize], q: &[f64], out: &mut Vec<f64>) {
    for (j, &i) in ids.iter().enumerate() {
        if let Some(&ahead) = ids.get(j + ROW_AHEAD) {
            prefetch_span(flat, ahead * dim, dim);
        }
        out.push(dot_avx2(&flat[i * dim..i * dim + dim], q));
    }
}

/// Batch [`euclidean_avx2`] over gathered rows (same prefetch discipline
/// as [`dot_many_avx2`]).
#[target_feature(enable = "avx2")]
fn euclidean_many_avx2(flat: &[f64], dim: usize, ids: &[usize], q: &[f64], out: &mut Vec<f64>) {
    for (j, &i) in ids.iter().enumerate() {
        if let Some(&ahead) = ids.get(j + ROW_AHEAD) {
            prefetch_span(flat, ahead * dim, dim);
        }
        out.push(euclidean_avx2(&flat[i * dim..i * dim + dim], q));
    }
}

/// Batch [`hamming_popcnt`] over gathered packed rows (same prefetch
/// discipline as [`dot_many_avx2`]).
#[target_feature(enable = "popcnt")]
fn hamming_many_popcnt(
    blocks: &[u64],
    blocks_per_row: usize,
    ids: &[usize],
    q: &[u64],
    out: &mut Vec<u64>,
) {
    for (j, &i) in ids.iter().enumerate() {
        if let Some(&ahead) = ids.get(j + ROW_AHEAD) {
            prefetch_span(blocks, ahead * blocks_per_row, blocks_per_row);
        }
        out.push(hamming_popcnt(
            &blocks[i * blocks_per_row..i * blocks_per_row + blocks_per_row],
            q,
        ));
    }
}

fn dot_many_sse2_entry(flat: &[f64], dim: usize, ids: &[usize], q: &[f64], out: &mut Vec<f64>) {
    // SAFETY: SSE2 is in the x86_64 baseline — statically available on
    // every CPU this module compiles for.
    unsafe { dot_many_sse2(flat, dim, ids, q, out) }
}

fn euclidean_many_sse2_entry(
    flat: &[f64],
    dim: usize,
    ids: &[usize],
    q: &[f64],
    out: &mut Vec<f64>,
) {
    // SAFETY: SSE2 is in the x86_64 baseline — statically available on
    // every CPU this module compiles for.
    unsafe { euclidean_many_sse2(flat, dim, ids, q, out) }
}

/// Batch [`dot_sse2`] over gathered rows (same prefetch discipline as
/// [`dot_many_avx2`]).
#[target_feature(enable = "sse2")]
fn dot_many_sse2(flat: &[f64], dim: usize, ids: &[usize], q: &[f64], out: &mut Vec<f64>) {
    for (j, &i) in ids.iter().enumerate() {
        if let Some(&ahead) = ids.get(j + ROW_AHEAD) {
            prefetch_span(flat, ahead * dim, dim);
        }
        out.push(dot_sse2(&flat[i * dim..i * dim + dim], q));
    }
}

/// Batch [`euclidean_sse2`] over gathered rows (same prefetch discipline
/// as [`dot_many_avx2`]).
#[target_feature(enable = "sse2")]
fn euclidean_many_sse2(flat: &[f64], dim: usize, ids: &[usize], q: &[f64], out: &mut Vec<f64>) {
    for (j, &i) in ids.iter().enumerate() {
        if let Some(&ahead) = ids.get(j + ROW_AHEAD) {
            prefetch_span(flat, ahead * dim, dim);
        }
        out.push(euclidean_sse2(&flat[i * dim..i * dim + dim], q));
    }
}

/// Batch [`scalar::hamming`] over gathered packed rows with
/// prefetch-ahead (the SSE2 tier's win on Hamming is the prefetch, not
/// the popcount).
fn hamming_many_sse2(
    blocks: &[u64],
    blocks_per_row: usize,
    ids: &[usize],
    q: &[u64],
    out: &mut Vec<u64>,
) {
    for (j, &i) in ids.iter().enumerate() {
        if let Some(&ahead) = ids.get(j + ROW_AHEAD) {
            prefetch_span(blocks, ahead * blocks_per_row, blocks_per_row);
        }
        out.push(scalar::hamming(
            &blocks[i * blocks_per_row..i * blocks_per_row + blocks_per_row],
            q,
        ));
    }
}
