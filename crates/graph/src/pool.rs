//! The workspace's one thread pool: how many threads a `workers` setting stands for,
//! and the one helper that serves a pass's work units on them, each thread in its own
//! lane. The engine's superstep phases and walk-segment generation run on it, and so
//! does set-up: the edge-list reader, the CSR build and the partitioned layout's build
//! share [`worker_threads`]`(0)` through [`setup_width`], always.
//!
//! A *lane* is whatever one thread works in for a whole run — the engine's holds the
//! buffers a machine's scatter folds into and a vertex's sync decision reuses — so a
//! pool of `n` threads needs `n` lanes, allocated once, however many units it serves.
//! A *unit* is handed to exactly one thread, mutably, so it can own the slice of state
//! it writes: a machine's replica cache, or a frontier range's mail slots.

use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// The thread count a `workers` setting stands for: itself, or — for `0` — the host's
/// available parallelism (one thread when the host will not say).
pub fn worker_threads(workers: usize) -> usize {
    match workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// The fewest items — edges, for the CSR and layout builds — a set-up pass shares among
/// the host's threads; a smaller input runs on the calling thread alone.
const SETUP_GRAIN: usize = 1 << 16;

/// The width a set-up pass over `items` items runs at: [`worker_threads`]`(0)`, or `1`
/// — the calling thread — for an input too small to be worth a thread. No pass reads a
/// setting: set-up output never depends on its width, so there is nothing to choose.
pub fn setup_width(items: usize) -> usize {
    if items < SETUP_GRAIN {
        1
    } else {
        worker_threads(0)
    }
}

/// Cuts the rows of a CSR offset table (`offsets[r]..offsets[r + 1]` holds row `r`'s
/// entries) into `parts` contiguous row ranges of about equal entry count, some perhaps
/// empty: the units of a set-up pass whose work follows the entries.
pub fn row_ranges(offsets: &[usize], parts: usize) -> Vec<Range<usize>> {
    let rows = offsets.len().saturating_sub(1);
    let total = offsets.last().copied().unwrap_or(0);
    let parts = parts.max(1);
    let cut = |k: usize| match k {
        0 => 0,
        k if k == parts => rows,
        k => {
            let entries = (total as u128 * k as u128 / parts as u128) as usize;
            offsets.partition_point(|&o| o < entries).min(rows)
        }
    };
    (0..parts).map(|k| cut(k)..cut(k + 1)).collect()
}

/// Lends `items` out as consecutive pieces of the given lengths (which sum to at most
/// its length), so that each unit of a pass can own the part of an output it fills.
pub fn split_lengths<T>(
    mut items: &mut [T],
    lengths: impl IntoIterator<Item = usize>,
) -> Vec<&mut [T]> {
    (lengths.into_iter())
        .map(|len| {
            let (piece, rest) = std::mem::take(&mut items).split_at_mut(len);
            items = rest;
            piece
        })
        .collect()
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
pub fn run_batched<U, L, T, F>(units: &mut [U], lanes: &mut [L], f: F) -> Vec<T>
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

    #[test]
    fn row_ranges_cover_every_row_once_in_about_equal_entry_counts() {
        // Rows of 0, 5, 1, 1, 1, 0, 8 and 0 entries; and a table with no row at all.
        let offsets = [0, 0, 5, 6, 7, 8, 8, 16, 16];
        for parts in [1, 2, 3, 8, 20] {
            let ranges = row_ranges(&offsets, parts);
            assert_eq!(ranges.len(), parts);
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, 8);
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
            // No range holds more than its share and one row more.
            for r in &ranges {
                assert!(
                    offsets[r.end] - offsets[r.start] <= 16 / parts + 8,
                    "{parts}"
                );
            }
        }
        assert_eq!(row_ranges(&[0, 3, 6, 9, 12], 2), vec![0..2, 2..4]);
        assert_eq!(row_ranges(&[0], 3), vec![0..0, 0..0, 0..0]);
    }

    #[test]
    fn split_lengths_lends_consecutive_pieces() {
        let mut items: Vec<u32> = (0..10).collect();
        let pieces = split_lengths(&mut items, [3, 0, 4]);
        assert_eq!(pieces.len(), 3);
        assert_eq!(pieces[0], &[0, 1, 2]);
        assert!(pieces[1].is_empty());
        assert_eq!(pieces[2], &[3, 4, 5, 6]);
        for piece in pieces {
            piece.iter_mut().for_each(|x| *x += 100);
        }
        assert_eq!(items, [100, 101, 102, 103, 104, 105, 106, 7, 8, 9]);
    }
}
