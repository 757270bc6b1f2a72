//! Minimal scoped-thread fan-out for the index layer.
//!
//! The workspace vendors only `rand`, so there is no rayon.
//! This module provides the one fan-out shape the index substrate needs —
//! an order-preserving map over `0..n`, chunked across worker threads that
//! each build their own state once — on plain [`std::thread::scope`].
//!
//! Work is split into at most `threads` contiguous chunks; one scoped
//! thread runs per extra chunk while the first chunk runs on the calling
//! thread. Each chunk writes its own slot of the results, concatenated in
//! input order, so the output is a pure function of the input:
//! **identical for every `threads >= 1`**.
//! That property is what lets table builds and batched queries stay
//! deterministic regardless of the machine's core count (and is covered
//! by the thread-count determinism tests in `tests/index_substrate.rs`).

use std::num::NonZeroUsize;
use std::ops::Range;

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

/// Map `f` over `0..n` in index order, using up to `threads` scoped
/// threads — the storage-agnostic fan-out shape: callers index into
/// whatever row-addressable structure they hold (a slice, a
/// [`dsh_core::points::PointStore`]) instead of the fan-out requiring a
/// materialized `&[T]`.
///
/// `0..n` is split into at most `threads` contiguous ranges. Each
/// worker builds its state once with `init(range)`, then calls
/// `f(&mut state, i)` once per index of its range, in order, so the
/// output holds one result per index and is identical for every
/// `threads >= 1`. The first range runs on the calling thread; a panic
/// in any worker reaches the caller, re-raised by
/// [`std::thread::scope`].
///
/// Panics if `threads == 0`.
pub fn map_indices<St, U, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<U>
where
    U: Send,
    I: Fn(Range<usize>) -> St + Sync,
    F: Fn(&mut St, usize) -> U + Sync,
{
    // lint: allow(panic) — documented contract: threads == 0 is a caller bug
    assert!(threads >= 1, "need at least one worker thread");
    if n == 0 {
        return Vec::new();
    }
    let chunk_size = n.div_ceil(threads.min(n));
    let run = |start: usize, out: &mut Vec<U>| {
        let range = start..(start + chunk_size).min(n);
        let mut state = init(range.clone());
        out.extend(range.map(|i| f(&mut state, i)));
    };
    let mut per_chunk: Vec<Vec<U>> = (0..n.div_ceil(chunk_size)).map(|_| Vec::new()).collect();
    std::thread::scope(|scope| {
        let run = &run;
        let mut chunks = per_chunk.iter_mut().enumerate();
        let first = chunks.next();
        for (c, out) in chunks {
            scope.spawn(move || run(c * chunk_size, out));
        }
        if let Some((_, out)) = first {
            run(0, out);
        }
    });
    let mut out = Vec::with_capacity(n);
    for chunk in per_chunk {
        out.extend(chunk);
    }
    out
}

/// Item-wise [`map_indices`] over a slice: `f` receives each item's
/// absolute index and the item. Output order matches input order for every
/// thread count.
pub fn map_items<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    map_indices(items.len(), threads, |_| (), |(), i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn map_indices_covers_every_index_in_order() {
        for n in [0usize, 1, 7, 50, 97] {
            for threads in [1usize, 2, 3, 8, 200] {
                let got = map_indices(
                    n,
                    threads,
                    |range| range,
                    |range, i| {
                        assert!(range.contains(&i), "{i} outside its worker's {range:?}");
                        i
                    },
                );
                let want: Vec<usize> = (0..n).collect();
                assert_eq!(got, want, "n = {n}, threads = {threads}");
            }
        }
    }

    #[test]
    fn map_indices_builds_state_once_per_worker() {
        for threads in [1usize, 3, 8] {
            let inits = AtomicUsize::new(0);
            let got = map_indices(
                50,
                threads,
                |_| inits.fetch_add(1, Ordering::Relaxed),
                |_, i| i,
            );
            assert_eq!(got, (0..50).collect::<Vec<_>>());
            assert_eq!(inits.into_inner(), threads, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic]
    fn a_spawned_workers_panic_reaches_the_caller() {
        // Four workers over 0..8: index 7 belongs to the last spawned one.
        let _ = map_indices(8, 4, |_| (), |(), i| assert!(i < 7, "worker panic at {i}"));
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
