//! The engine's worker pool: how many threads a `workers` setting stands for, and the
//! one helper that serves a phase's work units on them, each thread in its own lane.
//!
//! A *lane* is whatever one thread works in for a whole run — the engine's holds the
//! buffers a machine's scatter folds into and a vertex's sync decision reuses — so a
//! pool of `n` threads needs `n` lanes, allocated once, however many units it serves.
//! A *unit* is handed to exactly one thread, mutably, so it can own the slice of state
//! it writes: a machine's replica cache, or a frontier range's mail slots.

use std::sync::{Mutex, PoisonError};

/// The thread count a `workers` setting stands for: itself, or — for `0` — the host's
/// available parallelism (one thread when the host will not say).
pub fn worker_threads(workers: usize) -> usize {
    match workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Executes `f` over every unit — on the calling thread in the first lane, or on a pool
/// of one thread per lane (never more threads than units), each taking units off a
/// shared queue and running them in its own lane. `f` receives the unit's canonical
/// index (its position in `units` — the deterministic identity trace spans key on,
/// never the OS thread) alongside the unit. Results come back in unit order whichever
/// thread ran what; as long as a unit leaves its lane as it found it, scheduling never
/// changes observable output.
///
/// `lanes` must not be empty.
pub(crate) fn run_batched<U, L, T, F>(units: &mut [U], lanes: &mut [L], f: F) -> Vec<T>
where
    U: Send,
    L: Send,
    T: Send,
    F: Fn(usize, &mut U, &mut L) -> T + Sync,
{
    let threads = lanes.len().min(units.len());
    if threads <= 1 {
        let lane = &mut lanes[0]; // lint:allow(indexing, every pool has at least one lane)
        return (units.iter_mut().enumerate())
            .map(|(i, u)| f(i, u, lane))
            .collect();
    }
    // The queue lends each unit to the one thread that takes it; the lock is held only
    // while taking, and a unit is never handed out twice.
    let queue = Mutex::new(units.iter_mut().enumerate());
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let queue = &queue;
        let f = &f;
        let handles: Vec<_> = (lanes.iter_mut().take(threads))
            .map(|lane| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let taken = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((i, unit)) = taken else { break };
                        out.push((i, f(i, unit, lane)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("batch worker panicked")) // lint:allow(panic, re-raises a worker thread panic)
            .collect()
    });
    indexed.sort_unstable_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_unit_runs_once_in_order_on_at_most_one_thread_per_lane() {
        for (len, lanes) in [(100u64, 1usize), (100, 2), (100, 3), (100, 8), (3, 8)] {
            let mut units: Vec<u64> = (0..len).collect();
            // Each lane counts the units it ran; each unit is lent mutably to one thread.
            let mut counts = vec![0u64; lanes];
            let doubled = run_batched(&mut units, &mut counts, |i, u, count| {
                assert_eq!(i as u64, *u);
                *count += 1;
                *u += 1;
                (*u - 1) * 2
            });
            assert_eq!(doubled, (0..len).map(|u| u * 2).collect::<Vec<_>>());
            assert_eq!(units, (1..=len).collect::<Vec<_>>(), "lanes {lanes}");
            assert_eq!(counts.iter().sum::<u64>(), len, "lanes {lanes}");
            // Lanes past the unit count are never handed to a thread.
            assert!(counts.iter().skip(units.len()).all(|&c| c == 0));
        }
        let none: Vec<u64> = run_batched(&mut [] as &mut [u64], &mut [()], |_, u, _| *u);
        assert!(none.is_empty());
    }
}
