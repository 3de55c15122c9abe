//! Bounded-concurrency streaming scheduler.
//!
//! The chunked fan-out helpers in the crate root split a finished batch
//! of CPU work into chunks; this module is the *streaming* front-end for
//! waits: a fixed pool of `in_flight` workers pulls items off a
//! deterministic work queue under per-key FIFO serialization, and a
//! channel feeds completions to a consumer that sees them in canonical
//! input order via a [`ReassemblyBuffer`] — never in completion order.
//!
//! The pool size *is* the in-flight budget: a worker blocks on the one
//! item it holds, so the number of items started but not completed can
//! never exceed the number of workers, and a separate cap below it
//! would only idle threads.
//!
//! Two scheduling invariants carry the determinism story:
//!
//! 1. **Per-key FIFO serialization.** At most one item per key is in
//!    flight, and a key's items start in input order. Everything
//!    stateful about a crawl — fault episodes, breaker streaks, the
//!    fetch cache — is keyed per host, so serializing each key makes
//!    every per-key operation subsequence identical to a sequential
//!    run's. Cross-key interleaving remains free, which is where the
//!    I/O overlap comes from.
//! 2. **Canonical release order.** The consumer receives `(index,
//!    result)` strictly by index, whatever order completions arrive
//!    in, so downstream assembly is the same in-order fold a sequential
//!    run performs.
//!
//! The scheduler reads no clock: a free worker starts the lowest-index
//! startable item at once.
//!
//! This crate is dependency-free, so synchronization is `std` only.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};

/// What one [`stream_indexed`] run did — schedule-variant observability
/// (high-water marks, per-worker counts) for the caller's worker-timing
/// ledger. Never feeds canonical outputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamLedger {
    /// Items offered to the scheduler.
    pub items: usize,
    /// Items completed (always equals `items`: the queue drains).
    pub completed: usize,
    /// Highest concurrent in-flight count observed.
    pub in_flight_high_water: usize,
    /// Highest number of out-of-order completions parked in the
    /// reassembly buffer.
    pub reassembly_high_water: usize,
    /// Items each worker completed (length = the in-flight budget).
    pub per_worker: Vec<u64>,
}

/// Re-orders out-of-order completions into canonical index order.
///
/// `push` accepts `(index, value)` in any order and hands every
/// releasable value — the contiguous run starting at the next expected
/// index — to the `release` callback, in order. Duplicate or
/// already-released indices are a caller bug and panic.
#[derive(Debug)]
pub struct ReassemblyBuffer<T> {
    next: usize,
    parked: BTreeMap<usize, T>,
    high_water: usize,
}

impl<T> Default for ReassemblyBuffer<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ReassemblyBuffer<T> {
    /// An empty buffer expecting index 0 first.
    pub fn new() -> Self {
        ReassemblyBuffer {
            next: 0,
            parked: BTreeMap::new(),
            high_water: 0,
        }
    }

    /// Accepts one completion and releases every value that is now in
    /// order. Panics on an index that was already pushed or released.
    pub fn push(&mut self, index: usize, value: T, mut release: impl FnMut(usize, T)) {
        assert!(
            index >= self.next,
            "index {index} already released (next expected: {})",
            self.next
        );
        if index == self.next {
            release(index, value);
            self.next += 1;
            while let Some(parked) = self.parked.remove(&self.next) {
                release(self.next, parked);
                self.next += 1;
            }
        } else if self.parked.insert(index, value).is_some() {
            panic!("index {index} pushed twice");
        } else {
            self.high_water = self.high_water.max(self.parked.len());
        }
    }

    /// The next index the buffer will release.
    pub fn next_expected(&self) -> usize {
        self.next
    }

    /// Completions currently parked out of order.
    pub fn parked(&self) -> usize {
        self.parked.len()
    }

    /// Highest parked count observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Whether nothing is parked (every pushed value was released).
    pub fn is_drained(&self) -> bool {
        self.parked.is_empty()
    }
}

/// Scheduler state shared by the worker pool.
struct SchedState {
    /// Pending item indices per key, input order. The front of a
    /// key's queue is its only startable item.
    queues: HashMap<u64, VecDeque<usize>>,
    /// Startable items: the front of every key whose previous item
    /// (if any) has completed. Ordered, so claims are
    /// lowest-index-first — a deterministic queue discipline.
    ready: BTreeSet<usize>,
    in_flight: usize,
    /// Items not yet completed (claimed or not).
    outstanding: usize,
    high_water: usize,
}

/// Runs every item of `items` through `work` on a pool of `in_flight`
/// workers (clamped to ≥ 1) and feeds the results to `consume` in
/// canonical input order.
///
/// * `key_of` buckets items for FIFO serialization (per host, for a
///   crawl): at most one item per key in flight, started in input
///   order.
/// * `work` runs outside the lock on a worker thread.
/// * `consume` runs on the caller's thread, strictly in index order.
///
/// Completion-order nondeterminism is confined to the [`StreamLedger`];
/// everything `consume` observes is schedule-independent.
pub fn stream_indexed<T, R>(
    items: &[T],
    in_flight: usize,
    key_of: impl Fn(&T) -> u64 + Sync,
    work: impl Fn(usize, &T) -> R + Sync,
    mut consume: impl FnMut(usize, R),
) -> StreamLedger
where
    T: Sync,
    R: Send,
{
    let workers = in_flight.max(1);
    let mut ledger = StreamLedger {
        items: items.len(),
        per_worker: vec![0; workers],
        ..StreamLedger::default()
    };
    if items.is_empty() {
        return ledger;
    }

    let mut queues: HashMap<u64, VecDeque<usize>> = HashMap::new();
    for (index, item) in items.iter().enumerate() {
        queues.entry(key_of(item)).or_default().push_back(index);
    }
    let ready: BTreeSet<usize> = queues.values().map(|q| q[0]).collect();
    let state = Mutex::new(SchedState {
        queues,
        ready,
        in_flight: 0,
        outstanding: items.len(),
        high_water: 0,
    });
    let wakeup = Condvar::new();
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    // One sender per worker: the channel closes, ending the consumer
    // below, exactly when every worker has left the queue.
    let senders: Vec<_> = (0..workers).map(|_| tx.clone()).collect();
    drop(tx);

    let (per_worker, ()) = crate::run_pool(
        senders,
        |tx| {
            let mut completed = 0u64;
            loop {
                // Claim phase: take the lowest-index startable item, or
                // wait for a completion to make one startable.
                let index = {
                    let mut guard = state.lock().expect("scheduler lock");
                    loop {
                        if guard.outstanding == 0 {
                            return completed;
                        }
                        if let Some(index) = guard.ready.pop_first() {
                            let key = key_of(&items[index]);
                            let queue =
                                guard.queues.get_mut(&key).expect("claimed key has a queue");
                            let head = queue.pop_front();
                            debug_assert_eq!(head, Some(index));
                            guard.in_flight += 1;
                            guard.high_water = guard.high_water.max(guard.in_flight);
                            break index;
                        }
                        // Nothing startable: every pending key is busy.
                        // A completion will wake us.
                        guard = wakeup.wait(guard).expect("scheduler lock");
                    }
                };

                let result = work(index, &items[index]);

                {
                    let mut guard = state.lock().expect("scheduler lock");
                    guard.in_flight -= 1;
                    guard.outstanding -= 1;
                    let key = key_of(&items[index]);
                    if let Some(queue) = guard.queues.get(&key) {
                        if let Some(&next_head) = queue.front() {
                            guard.ready.insert(next_head);
                        }
                    }
                    wakeup.notify_all();
                }
                completed += 1;
                if tx.send((index, result)).is_err() {
                    return completed;
                }
            }
        },
        || {
            // Consumer: canonical-order release on the caller's thread,
            // overlapping with whatever is still in flight.
            let mut buffer = ReassemblyBuffer::new();
            let mut released = 0usize;
            for (index, result) in rx {
                buffer.push(index, result, |i, r| {
                    consume(i, r);
                    released += 1;
                });
            }
            assert_eq!(released, items.len(), "every item releases exactly once");
            assert!(buffer.is_drained());
            ledger.completed = released;
            ledger.reassembly_high_water = buffer.high_water();
        },
    );

    let guard = state.into_inner().expect("scheduler lock");
    ledger.in_flight_high_water = guard.high_water;
    ledger.per_worker = per_worker;
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn releases_in_canonical_order_for_every_permutation() {
        // Exhaustive: every completion order of 6 items releases
        // 0,1,2,...,5 — the reassembly contract, not sampled but proven
        // for this size (Heap's algorithm, no deps).
        let mut order: Vec<usize> = (0..6).collect();
        let mut stack = [0usize; 6];
        let check = |perm: &[usize]| {
            let mut buffer = ReassemblyBuffer::new();
            let mut released = Vec::new();
            for &index in perm {
                buffer.push(index, index * 10, |i, v| {
                    assert_eq!(v, i * 10);
                    released.push(i);
                });
            }
            assert_eq!(released, (0..6).collect::<Vec<_>>());
            assert!(buffer.is_drained());
        };
        check(&order);
        let mut i = 1;
        while i < order.len() {
            if stack[i] < i {
                if i % 2 == 0 {
                    order.swap(0, i);
                } else {
                    order.swap(stack[i], i);
                }
                check(&order);
                stack[i] += 1;
                i = 1;
            } else {
                stack[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn buffer_tracks_high_water_and_next_expected() {
        let mut buffer = ReassemblyBuffer::new();
        let mut out = Vec::new();
        buffer.push(2, "c", |_, v| out.push(v));
        buffer.push(1, "b", |_, v| out.push(v));
        assert_eq!(buffer.parked(), 2);
        assert_eq!(buffer.next_expected(), 0);
        assert!(out.is_empty());
        buffer.push(0, "a", |_, v| out.push(v));
        assert_eq!(out, vec!["a", "b", "c"]);
        assert_eq!(buffer.high_water(), 2);
        assert_eq!(buffer.next_expected(), 3);
    }

    #[test]
    #[should_panic(expected = "pushed twice")]
    fn duplicate_push_panics() {
        let mut buffer = ReassemblyBuffer::new();
        buffer.push(5, (), |_, _| {});
        buffer.push(5, (), |_, _| {});
    }

    #[test]
    fn streams_everything_in_order_across_configs() {
        let items: Vec<u64> = (0..200).collect();
        for in_flight in [1, 2, 8] {
            let mut seen = Vec::new();
            let ledger = stream_indexed(
                &items,
                in_flight,
                |item| item % 7, // several items share each key
                |index, item| index as u64 + item,
                |index, result| seen.push((index, result)),
            );
            assert_eq!(ledger.completed, items.len());
            assert_eq!(seen.len(), items.len());
            for (position, (index, result)) in seen.iter().enumerate() {
                assert_eq!(*index, position, "canonical release order");
                assert_eq!(*result, 2 * *index as u64);
            }
            assert!(ledger.in_flight_high_water <= in_flight);
            assert_eq!(
                ledger.per_worker.iter().sum::<u64>(),
                items.len() as u64,
                "every completion is attributed to a worker"
            );
        }
    }

    #[test]
    fn per_key_items_never_overlap_and_run_fifo() {
        // 40 items over 4 keys; track concurrent per-key execution and
        // per-key start order.
        let items: Vec<u64> = (0..40).map(|i| i % 4).collect();
        let running: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let starts: Mutex<Vec<Vec<usize>>> = Mutex::new(vec![Vec::new(); 4]);
        stream_indexed(
            &items,
            8,
            |item| *item,
            |index, item| {
                let key = *item as usize;
                starts.lock().unwrap()[key].push(index);
                let now = running[key].fetch_add(1, Ordering::SeqCst);
                assert_eq!(now, 0, "key {key} ran two items concurrently");
                std::thread::yield_now();
                running[key].fetch_sub(1, Ordering::SeqCst);
            },
            |_, _| {},
        );
        for (key, key_starts) in starts.into_inner().unwrap().into_iter().enumerate() {
            let expected: Vec<usize> = (0..40).filter(|i| i % 4 == key).collect();
            assert_eq!(key_starts, expected, "key {key} started out of input order");
        }
    }

    #[test]
    fn in_flight_cap_is_respected() {
        let items: Vec<u64> = (0..50).collect();
        let in_flight = AtomicUsize::new(0);
        let ledger = stream_indexed(
            &items,
            3,
            |item| *item, // all keys distinct: the budget is the only brake
            |_, _| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                assert!(now <= 3, "cap violated: {now} in flight");
                std::thread::yield_now();
                in_flight.fetch_sub(1, Ordering::SeqCst);
            },
            |_, _| {},
        );
        assert!(ledger.in_flight_high_water <= 3);
        assert_eq!(ledger.completed, 50);
    }

    #[test]
    fn in_flight_budget_is_reached_with_enough_work() {
        // Every item waits at a barrier sized to the budget, so no item
        // completes until `in_flight` of them are in flight at once: the
        // high-water mark must reach the budget, not stop below it.
        for in_flight in [1, 4, 8] {
            let items: Vec<u64> = (0..3 * in_flight as u64).collect();
            let barrier = std::sync::Barrier::new(in_flight);
            let ledger = stream_indexed(
                &items,
                in_flight,
                |item| *item,
                |_, _| {
                    barrier.wait();
                },
                |_, _| {},
            );
            assert_eq!(ledger.in_flight_high_water, in_flight);
            assert_eq!(ledger.per_worker.len(), in_flight);
            assert_eq!(ledger.completed, items.len());
        }
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let items: Vec<u64> = Vec::new();
        let ledger = stream_indexed(
            &items,
            4,
            |item| *item,
            |_, _| (),
            |_, _| panic!("no items to consume"),
        );
        assert_eq!(
            ledger,
            StreamLedger {
                items: 0,
                per_worker: vec![0; 4],
                ..StreamLedger::default()
            }
        );
    }
}
