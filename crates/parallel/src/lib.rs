//! # borges-parallel
//!
//! Chunked scoped-thread fan-out for the one embarrassingly parallel
//! CPU stage of the workspace: mapping materialization, one feature
//! combination per worker (the Table 6 sweep).
//!
//! It has the shape the helpers here encode with `std::thread::scope`
//! — a slice of independent work items, a pure per-item (or per-chunk)
//! function, and key-canonical downstream assembly that makes the
//! result independent of execution order:
//!
//! * results come back **in input order**, so callers need no
//!   re-sorting;
//! * items are split into at most `threads` contiguous chunks of
//!   near-equal size (`ceil(len / threads)`), one worker thread per
//!   chunk — cheap for coarse items, and deterministic;
//! * a panicking worker propagates the panic to the caller instead of
//!   poisoning a channel or deadlocking a join.
//!
//! The crate is dependency-free so any layer — including the web
//! simulator, which sits *below* the core pipeline — can use it.
//!
//! The [`stream`] module is the non-batch sibling, for waits rather than
//! compute: a streaming scheduler (per-key FIFO, a fixed in-flight
//! budget) whose completions are re-ordered into canonical input order
//! by a reassembly buffer before the consumer sees them. It carries
//! every remote call of an ingest, and every fetch of the web
//! simulator's standalone crawl.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod stream;

pub use stream::{stream_indexed, ReassemblyBuffer, StreamLedger};

/// The default in-flight budget of a [`stream_indexed`] pool: remote
/// calls (page fetches and LLM completions) waiting on the network at
/// once. Both the pooled ingest and the web simulator's re-crawl
/// (`Scraper::crawl`) run at it. Independent of the thread count that
/// sizes CPU work — a call that waits uses no CPU. Each live pool thread
/// also costs resident memory (its malloc arena), which is why the
/// budget stays small and one pool size serves every stage (DESIGN.md
/// §14).
pub const DEFAULT_IN_FLIGHT: usize = 4;

/// The worker-thread count to use when the caller has no opinion: the
/// machine's available parallelism, or 1 when it cannot be determined
/// (the fan-out helpers degrade to sequential execution at 1).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to at most `threads` contiguous chunks of `items`, one
/// scoped worker thread per chunk, returning the per-chunk results in
/// input (chunk) order.
///
/// This is the primitive for stages that fold each chunk into a partial
/// aggregate (e.g. per-chunk extraction statistics) and merge the
/// partials afterwards. `threads` is clamped to at least 1; an empty
/// `items` yields an empty result without spawning.
pub fn map_chunks<'a, T, R, F>(items: &'a [T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a [T]) -> R + Sync,
{
    let threads = threads.max(1);
    let chunk_size = items.len().div_ceil(threads).max(1);
    run_pool(items.chunks(chunk_size).collect(), &f, || ()).0
}

/// Runs `work(state)` for every element of `states`, each on its own
/// scoped thread, while `meanwhile` runs on the calling thread; returns
/// the workers' results in `states` order, and `meanwhile`'s. A worker
/// panic propagates to the caller.
///
/// Workers start one after another, each making its first heap
/// allocation before the next is spawned, and retire in reverse order
/// once `meanwhile` has returned. glibc gives a new thread the malloc
/// arena released most recently and never trims a thread arena's top,
/// so a pool that retires last-in-first-out hands its arenas back in the
/// order it took them, and threads spawned later (a server's workers,
/// the next pool) keep landing on the same arenas. Retiring in
/// completion order reshuffles them instead, and every arena a large
/// allocator lands on stays resident at its peak: a process that ingests
/// repeatedly then holds several such heaps where one would do.
pub(crate) fn run_pool<S, R, M>(
    states: Vec<S>,
    work: impl Fn(S) -> R + Sync,
    meanwhile: impl FnOnce() -> M,
) -> (Vec<R>, M)
where
    S: Send,
    R: Send,
{
    use std::sync::mpsc;
    std::thread::scope(|scope| {
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let mut retirees = Vec::with_capacity(states.len());
        for state in states {
            let (retire_tx, retire_rx) = mpsc::channel::<()>();
            let started_tx = started_tx.clone();
            let work = &work;
            let handle = scope.spawn(move || {
                drop(std::hint::black_box(Box::new(0u8)));
                let _ = started_tx.send(());
                let result = work(state);
                let _ = retire_rx.recv();
                result
            });
            let _ = started_rx.recv();
            retirees.push((retire_tx, handle));
        }
        let during = meanwhile();
        let mut results: Vec<R> = retirees
            .into_iter()
            .rev()
            .map(|(retire_tx, handle)| {
                let _ = retire_tx.send(());
                match handle.join() {
                    Ok(result) => result,
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            })
            .collect();
        results.reverse();
        (results, during)
    })
}

/// One chunk's worth of timing from [`map_chunks_timed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkTiming {
    /// Chunk index in input order.
    pub chunk: usize,
    /// Items the chunk contained.
    pub items: usize,
    /// Clock reading when the worker picked the chunk up.
    pub started_ms: u64,
    /// Clock delta the chunk took.
    pub elapsed_ms: u64,
}

/// Like [`map_chunks`], but also times each chunk on a caller-supplied
/// clock, pairing every result with a [`ChunkTiming`].
///
/// The clock is injected as a plain `now_ms` closure so this crate stays
/// dependency-free: telemetry layers pass their run clock, tests pass a
/// counter. Timings are observational only — results are still returned
/// in input order and are unaffected by the clock.
pub fn map_chunks_timed<'a, T, R, F, N>(
    items: &'a [T],
    threads: usize,
    now_ms: N,
    f: F,
) -> Vec<(R, ChunkTiming)>
where
    T: Sync,
    R: Send,
    F: Fn(&'a [T]) -> R + Sync,
    N: Fn() -> u64 + Sync,
{
    let indexed: Vec<(usize, &'a [T])> = {
        let threads = threads.max(1);
        let chunk_size = items.len().div_ceil(threads).max(1);
        items.chunks(chunk_size).enumerate().collect()
    };
    map_items(&indexed, indexed.len(), |&(chunk, slice)| {
        let started_ms = now_ms();
        let result = f(slice);
        let timing = ChunkTiming {
            chunk,
            items: slice.len(),
            started_ms,
            elapsed_ms: now_ms().saturating_sub(started_ms),
        };
        (result, timing)
    })
}

/// Applies `f` to every item of `items` across at most `threads` scoped
/// worker threads, returning the per-item results in input order.
///
/// This is the primitive for stages whose unit of work is one item
/// (one URL to fetch, one feature combination to materialize).
pub fn map_items<'a, T, R, F>(items: &'a [T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    map_chunks(items, threads, |chunk| {
        chunk.iter().map(&f).collect::<Vec<R>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Like [`map_items`], but balances *uneven* work across workers using
/// the caller's per-item weight estimate instead of contiguous
/// equal-count chunks.
///
/// Contiguous chunking is optimal when items cost roughly the same; it
/// degrades badly when cost is skewed (e.g. mapping materialization,
/// where `ALL` unions every edge list and `NONE` only clones the base
/// forest) — the worker that drew the heavy chunk finishes last while
/// the rest idle. This helper assigns items to workers with the classic
/// LPT (longest-processing-time-first) greedy: items are considered in
/// descending weight (ties broken by input index, so the assignment is
/// deterministic), each going to the currently least-loaded worker
/// (ties to the lowest worker id). Every worker then processes its
/// items in *input order*, and results are returned in input order —
/// callers cannot observe the scheduling, only the wall-clock.
pub fn map_items_weighted<'a, T, R, F, W>(items: &'a [T], threads: usize, weight: W, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
    W: Fn(&T) -> u64,
{
    let threads = threads.max(1).min(items.len().max(1));
    // LPT assignment: heaviest first onto the least-loaded worker.
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weight(&items[i])), i));
    let mut loads: Vec<u64> = vec![0; threads];
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); threads];
    for i in order {
        let worker = (0..threads)
            .min_by_key(|&w| (loads[w], w))
            .expect("at least one worker");
        loads[worker] += weight(&items[i]);
        assignment[worker].push(i);
    }
    // Per-worker input order keeps any per-worker side effects (none in
    // the workspace today) as predictable as the contiguous splitter's.
    for worker in &mut assignment {
        worker.sort_unstable();
    }
    let per_worker: Vec<Vec<(usize, R)>> = map_items(&assignment, threads, |indices| {
        indices.iter().map(|&i| (i, f(&items[i]))).collect()
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, result) in per_worker.into_iter().flatten() {
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every input index is assigned exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_results_keep_state_order_while_the_caller_works_alongside() {
        // Every worker waits for a token only `meanwhile` hands out: the
        // pool must run the caller's closure while its workers are live.
        let (token_tx, token_rx) = std::sync::mpsc::channel::<usize>();
        let token_rx = std::sync::Mutex::new(token_rx);
        let (results, handed) = run_pool(
            (0..5).collect(),
            |i: usize| {
                token_rx.lock().unwrap().recv().unwrap();
                i * 10
            },
            || {
                for t in 0..5 {
                    token_tx.send(t).unwrap();
                }
                5
            },
        );
        assert_eq!(results, vec![0, 10, 20, 30, 40]);
        assert_eq!(handed, 5);
    }

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 7, 64] {
            let doubled = map_items(&items, threads, |x| x * 2);
            assert_eq!(doubled.len(), items.len());
            assert!(doubled.iter().enumerate().all(|(i, &v)| v == 2 * i as u64));
        }
    }

    #[test]
    fn chunk_results_concatenate_to_the_whole() {
        let items: Vec<usize> = (0..103).collect();
        let sums = map_chunks(&items, 4, |chunk| chunk.iter().sum::<usize>());
        assert_eq!(sums.len(), 4, "103 items over 4 threads → 4 chunks");
        assert_eq!(sums.iter().sum::<usize>(), items.iter().sum::<usize>());
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let spawned = AtomicUsize::new(0);
        let out: Vec<u32> = map_chunks(&[] as &[u32], 8, |_chunk| {
            spawned.fetch_add(1, Ordering::Relaxed);
            0
        });
        assert!(out.is_empty());
        assert_eq!(spawned.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let items = [1, 2, 3];
        assert_eq!(map_items(&items, 0, |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = [5u32, 6];
        assert_eq!(map_items(&items, 32, |x| *x), vec![5, 6]);
    }

    #[test]
    fn timed_chunks_match_untimed_results_and_count_items() {
        let items: Vec<usize> = (0..103).collect();
        let plain = map_chunks(&items, 4, |chunk| chunk.iter().sum::<usize>());
        let ticks = AtomicUsize::new(0);
        let timed = map_chunks_timed(
            &items,
            4,
            || ticks.fetch_add(1, Ordering::Relaxed) as u64,
            |chunk| chunk.iter().sum::<usize>(),
        );
        let (sums, timings): (Vec<_>, Vec<_>) = timed.into_iter().unzip();
        assert_eq!(sums, plain);
        assert_eq!(timings.len(), 4);
        for (i, t) in timings.iter().enumerate() {
            assert_eq!(t.chunk, i, "timings arrive in chunk order");
        }
        assert_eq!(
            timings.iter().map(|t| t.items).sum::<usize>(),
            items.len(),
            "every item is in exactly one chunk"
        );
    }

    #[test]
    fn timed_chunks_under_a_frozen_clock_report_zero_elapsed() {
        let items: Vec<u32> = (0..10).collect();
        let timed = map_chunks_timed(&items, 2, || 42, |chunk| chunk.len());
        for (_, t) in timed {
            assert_eq!((t.started_ms, t.elapsed_ms), (42, 0));
        }
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        let items = [1u32, 2, 3, 4];
        map_items(&items, 2, |x| {
            if *x == 3 {
                panic!("worker boom");
            }
            *x
        });
    }

    #[test]
    fn weighted_results_match_sequential_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 3, 7, 64] {
            // Strongly skewed weights must not perturb result order.
            let out = map_items_weighted(&items, threads, |&x| x * x, |x| x * 3);
            assert_eq!(out, expected, "diverged with {threads} threads");
        }
    }

    #[test]
    fn weighted_assignment_balances_skewed_loads() {
        // One huge item plus many small ones: contiguous chunking puts
        // the giant with a third of the small items on one worker; LPT
        // gives it a worker almost to itself.
        let weights: Vec<u64> = std::iter::once(1000u64)
            .chain((0..99).map(|_| 10))
            .collect();
        let threads = 4;
        // Replay the LPT assignment the helper documents and check the
        // resulting load spread.
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
        let mut loads = vec![0u64; threads];
        for i in order {
            let w = (0..threads).min_by_key(|&w| (loads[w], w)).unwrap();
            loads[w] += weights[i];
        }
        let heaviest = *loads.iter().max().unwrap();
        let total: u64 = weights.iter().sum();
        assert!(
            heaviest <= 1000 + 10,
            "LPT keeps the giant nearly alone: {loads:?}"
        );
        assert!(heaviest * threads as u64 <= total * 3, "{loads:?}");
        // And the helper still evaluates every item exactly once, with
        // results in input order.
        let evaluated = AtomicUsize::new(0);
        let out = map_items_weighted(
            &weights,
            threads,
            |&w| w,
            |&w| {
                evaluated.fetch_add(1, Ordering::Relaxed);
                w
            },
        );
        assert_eq!(out, weights);
        assert_eq!(evaluated.load(Ordering::Relaxed), weights.len());
    }

    #[test]
    fn weighted_handles_degenerate_inputs() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = map_items_weighted(&empty, 8, |_| 1, |x| *x);
        assert!(out.is_empty());
        assert_eq!(
            map_items_weighted(&[9u32], 0, |_| 0, |x| x + 1),
            vec![10],
            "zero threads and zero weights clamp safely"
        );
    }

    #[test]
    fn borrowed_results_keep_input_lifetime() {
        // The 'a on map_items lets workers return references into items.
        let items: Vec<String> = (0..10).map(|i| i.to_string()).collect();
        let refs: Vec<&str> = map_items(&items, 3, |s| s.as_str());
        assert_eq!(refs[7], "7");
    }
}
