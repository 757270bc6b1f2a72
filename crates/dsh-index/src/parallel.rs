//! Minimal scoped-thread fan-out for the index layer.
//!
//! The workspace vendors only `rand`, so there is no rayon.
//! This module provides the one fan-out shape the index substrate needs —
//! an order-preserving map over a slice, chunked across worker threads —
//! on plain [`std::thread::scope`].
//!
//! Work is split into at most `threads` contiguous chunks; one scoped
//! thread runs per extra chunk while the first chunk runs on the calling
//! thread. Results are concatenated in input order, so the output is a
//! pure function of the input: **identical for every `threads >= 1`**.
//! That property is what lets table builds and batched queries stay
//! deterministic regardless of the machine's core count (and is covered
//! by the thread-count determinism tests in `tests/index_substrate.rs`).

use std::num::NonZeroUsize;

/// Number of worker threads to use by default: the OS-reported
/// [`std::thread::available_parallelism`], falling back to 1 when the
/// platform cannot report it.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Cap a worker count so each worker gets at least `min_per_worker`
/// items. Cheap per-item work (e.g. one query against a shared index)
/// does not amortize a thread spawn plus a fresh O(n) scratch buffer over
/// a single item — callers with light items pass a floor; callers whose
/// items are heavy (a whole table build) use their thread count directly.
pub fn capped_threads(items: usize, threads: usize, min_per_worker: usize) -> usize {
    debug_assert!(min_per_worker >= 1);
    threads.min(items.div_ceil(min_per_worker)).max(1)
}

/// Map `f` over contiguous index ranges of `0..n` using up to `threads`
/// scoped threads — the storage-agnostic fan-out shape: callers index
/// into whatever row-addressable structure they hold (a slice, a
/// [`dsh_core::points::PointStore`]) instead of the fan-out requiring a
/// materialized `&[T]`.
///
/// `f` receives a half-open index range and must return exactly one
/// output per index, in index order; results are concatenated in input
/// order, so the output is identical for every `threads >= 1`.
///
/// Panics if `threads == 0` or if `f` returns a result of the wrong
/// length for some range.
pub fn map_index_chunks<U, F>(n: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(std::ops::Range<usize>) -> Vec<U> + Sync,
{
    // lint: allow(panic) — documented contract: threads == 0 is a caller bug
    assert!(threads >= 1, "need at least one worker thread");
    if n == 0 {
        return Vec::new();
    }
    let chunk_size = n.div_ceil(threads.min(n));
    if chunk_size >= n {
        let out = f(0..n);
        // lint: allow(panic) — documented contract: f must return one output per index
        assert_eq!(out.len(), n, "chunk result length mismatch");
        return out;
    }

    let starts: Vec<usize> = (0..n).step_by(chunk_size).collect();
    let mut per_chunk: Vec<Vec<U>> = Vec::new();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = starts
            .iter()
            .skip(1)
            .map(|&start| scope.spawn(move || f(start..(start + chunk_size).min(n))))
            .collect();
        per_chunk.push(f(0..chunk_size));
        for h in handles {
            // lint: allow(panic) — propagating a worker's panic to the caller, not originating one
            per_chunk.push(h.join().expect("index worker thread panicked"));
        }
    });

    let mut out = Vec::with_capacity(n);
    for (c, (&start, result)) in starts.iter().zip(per_chunk).enumerate() {
        // lint: allow(panic) — documented contract: f must return one output per index
        assert_eq!(
            result.len(),
            (start + chunk_size).min(n) - start,
            "chunk {c} result length mismatch"
        );
        out.extend(result);
    }
    out
}

/// Item-wise [`map_index_chunks`] over a slice: `f` receives each item's
/// absolute index and the item. Output order matches input order for every
/// thread count.
pub fn map_items<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    map_index_chunks(items.len(), threads, |range| {
        range.map(|i| f(i, &items[i])).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_items_preserves_order_for_every_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64, 200] {
            let got = map_items(&items, threads, |i, &x| {
                assert_eq!(i as u64, x, "absolute index must match");
                x * x
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_items_covers_all_items_exactly_once() {
        let items: Vec<usize> = (0..50).collect();
        let got = map_items(&items, 7, |i, _| i);
        assert_eq!(got, items);
    }

    #[test]
    fn map_index_chunks_covers_every_index_in_order() {
        for n in [0usize, 1, 7, 50, 97] {
            for threads in [1usize, 2, 3, 8, 200] {
                let got = map_index_chunks(n, threads, std::iter::Iterator::collect);
                let want: Vec<usize> = (0..n).collect();
                assert_eq!(got, want, "n = {n}, threads = {threads}");
            }
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u32> = Vec::new();
        let got = map_items(&items, 4, |_, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker thread")]
    fn zero_threads_rejected() {
        let _ = map_items(&[1u32], 0, |_, &x| x);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn capped_threads_enforces_per_worker_floor() {
        assert_eq!(capped_threads(64, 64, 8), 8);
        assert_eq!(capped_threads(7, 64, 8), 1);
        assert_eq!(capped_threads(1000, 4, 8), 4);
        assert_eq!(capped_threads(0, 4, 8), 1);
        assert_eq!(capped_threads(16, 2, 1), 2);
    }
}
