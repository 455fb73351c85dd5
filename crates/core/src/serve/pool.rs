//! The worker pool: a fixed set of threads draining the bounded submission queue.
//!
//! The shape mirrors the PR 6 executor: work is cut into contiguous batches, workers
//! pull whole batches (amortizing queue synchronization over `batch` queries), and
//! nothing mutable is shared — workers read the [`Session`] through a shared
//! reference and report results over a channel, so there is no lock on the serving
//! hot path. Determinism falls out of the seeding discipline: every query's
//! randomness is derived from `(session seed, query sequence id)` *before* it is
//! enqueued, so the answers are a pure function of the submitted stream no matter
//! how many workers race over it — only completion order varies.

use std::sync::mpsc;
use std::time::Instant;

use frogwild_obs::{span_meta, SpanKey, SpanMeta};

use crate::session::{Query, Session};

use super::latency::{LatencyStats, QueryKind};
use super::queue::{AdmitError, Bounded};
use super::{reseeded, seed_for, Admission, QueryOutcome, ServeConfig, ServeReport, WorkerStats};

/// [`SpanKey::lane`] of the admission thread's enqueue/reject events. Serve-layer
/// keys are `(sequence id, 0, 0, lane)`; lanes 8+ are reserved for the serve layer
/// (8 is the session's index-serving span).
const LANE_ADMIT: u16 = 9;
/// [`SpanKey::lane`] of a worker's dequeue event and execute span for one query.
const LANE_EXECUTE: u16 = 10;

/// The execute span's static metadata, one per [`QueryKind`] so the phase
/// breakdown of a trace splits service time per kind.
fn execute_meta(kind: QueryKind) -> &'static SpanMeta {
    match kind {
        QueryKind::TopK => span_meta!("execute_topk"),
        QueryKind::Pagerank => span_meta!("execute_pagerank"),
        QueryKind::Ppr => span_meta!("execute_ppr"),
        QueryKind::AutotunedTopK => span_meta!("execute_autotuned"),
    }
}

/// One unit of queue traffic: a contiguous run of `(position, sequence id, query)`
/// triples, stamped with its submission instant so queue wait is measurable.
struct Batch {
    submitted: Instant,
    items: Vec<(usize, u64, Query)>,
}

/// Serves the query with sequence id `seq` and returns its queue wait and outcome —
/// the one per-query path of the pool's workers and of the serial reference, so the
/// two agree by construction: re-seed from `(session seed, seq)`, open the execute
/// span carrying the queue wait, run [`Session::execute_at`], count busy time.
///
/// `submitted` is when the query's batch entered the queue; `None` on the serial
/// path, which has no queue (no `dequeue` event, a queue wait of zero).
fn serve_one(
    session: &Session<'_>,
    seq: u64,
    query: &Query,
    submitted: Option<Instant>,
    stats: &mut WorkerStats,
) -> (f64, QueryOutcome) {
    let seeded = reseeded(query, seed_for(session.cluster().seed, seq));
    // One sink per query keeps record ordinals a function of the query alone, not of
    // worker scheduling.
    let sink = session.tracer().sink();
    let key = SpanKey::new(seq, 0, 0, LANE_EXECUTE);
    // Queue wait runs from submission to the start of this query's execution, so
    // time spent behind earlier queries of the same batch counts as waiting too.
    let wait = submitted.map_or(0.0, |at| {
        sink.event(span_meta!("dequeue"), key);
        at.elapsed().as_secs_f64()
    });
    stats.queue_wait_seconds += wait;
    let mut exec_span = sink.span(execute_meta(seeded.kind()), key);
    // Wall-clock: recorded under the host clock only, so logical traces stay
    // byte-stable however long a query queued.
    exec_span.wall_counter_seconds("queue_wait", wait);
    let busy = Instant::now(); // lint:allow(timing, host wall-clock telemetry; results never read it)
    let result = session.execute_at(seq, &seeded);
    stats.busy_seconds += busy.elapsed().as_secs_f64();
    drop(exec_span);
    let outcome = match result {
        Ok(response) => {
            stats.served = stats.served.saturating_add(1);
            QueryOutcome::from(response)
        }
        Err(error) => {
            stats.failed = stats.failed.saturating_add(1);
            QueryOutcome::Failed(error)
        }
    };
    (wait, outcome)
}

/// Runs `queries` through a fixed worker pool over `session` and collects every
/// outcome in submission order.
///
/// The calling thread plays the admission controller: it cuts the stream into
/// batches and submits them against the bounded queue under the configured
/// [`Admission`] policy. Batches that the policy turns away are marked
/// [`QueryOutcome::Rejected`] without ever reaching a worker — that is the explicit
/// overload path; nothing is silently dropped and nothing is buffered beyond
/// `queue_depth` batches.
pub(super) fn run_stream(
    session: &Session<'_>,
    config: &ServeConfig,
    start_seq: u64,
    queries: &[Query],
) -> ServeReport {
    // A worker beyond the number of batches would never pop one.
    let batches = queries.len().div_ceil(config.batch.max(1));
    let workers = config.effective_workers().min(batches).max(1);
    let tracer = session.tracer();
    let queue: Bounded<Batch> = Bounded::new(config.queue_depth);
    let (result_tx, result_rx) = mpsc::channel::<(usize, f64, QueryOutcome)>();
    let mut outcomes: Vec<Option<QueryOutcome>> = Vec::with_capacity(queries.len());
    outcomes.resize_with(queries.len(), || None);
    let mut waits = vec![0.0f64; queries.len()];

    let started = Instant::now(); // lint:allow(timing, host wall-clock telemetry; results never read it)
    let worker_stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        let queue = &queue;
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let tx = result_tx.clone();
                scope.spawn(move || {
                    let mut stats = WorkerStats {
                        worker,
                        ..WorkerStats::default()
                    };
                    while let Some(batch) = queue.pop() {
                        stats.batches = stats.batches.saturating_add(1);
                        for (position, seq, query) in batch.items {
                            let (wait, outcome) =
                                serve_one(session, seq, &query, Some(batch.submitted), &mut stats);
                            // The receiver outlives every worker; a send can only
                            // fail if the collector already gave up, in which case
                            // dropping the result is the right thing.
                            let _ = tx.send((position, wait, outcome));
                        }
                    }
                    stats
                })
            })
            .collect();
        drop(result_tx);
        let admit_sink = tracer.sink();

        // Admission control on the calling thread: batch, then submit under the
        // configured policy. `push` can only fail here via `Closed`, which cannot
        // happen before the close below — treat it like a rejection regardless.
        for (batch_index, chunk) in queries.chunks(config.batch.max(1)).enumerate() {
            let base = batch_index * config.batch.max(1);
            let items: Vec<(usize, u64, Query)> = chunk
                .iter()
                .enumerate()
                .map(|(offset, query)| {
                    let position = base + offset;
                    (position, start_seq + position as u64, query.clone())
                })
                .collect();
            for &(_, seq, _) in &items {
                admit_sink.event(span_meta!("enqueue"), SpanKey::new(seq, 0, 0, LANE_ADMIT));
            }
            let batch = Batch {
                submitted: Instant::now(), // lint:allow(timing, queue-wait telemetry only)
                items,
            };
            let verdict = match config.admission {
                Admission::Block => queue.push(batch),
                Admission::Reject => queue.try_push(batch),
                Admission::Timeout(limit) => queue.push_timeout(batch, limit),
            };
            if let Err(AdmitError::Full(batch) | AdmitError::Closed(batch)) = verdict {
                for (position, seq, _) in batch.items {
                    admit_sink.event(span_meta!("rejected"), SpanKey::new(seq, 0, 0, LANE_ADMIT));
                    outcomes[position] = Some(QueryOutcome::Rejected); // lint:allow(indexing, position < queries.len() by construction)
                }
            }
        }
        queue.close();

        // Collect results while workers finish draining; the channel ends once the
        // last worker drops its sender.
        for (position, wait, outcome) in result_rx {
            // lint:allow(indexing, position < queries.len() by construction)
            waits[position] = wait;
            // lint:allow(indexing, position < queries.len() by construction)
            outcomes[position] = Some(outcome);
        }
        handles
            .into_iter()
            // lint:allow(panic, re-raises a worker thread panic)
            .map(|h| h.join().expect("serve worker panicked"))
            .collect()
    });
    let wall_seconds = started.elapsed().as_secs_f64();

    let outcomes: Vec<QueryOutcome> = outcomes
        .into_iter()
        .map(|slot| slot.expect("every submitted query has an outcome")) // lint:allow(panic, every position is filled by the collector or rejection path)
        .collect();
    finish_report(outcomes, waits, worker_stats, wall_seconds)
}

/// Serves `queries` on the calling thread, in submission order, under the *same*
/// `(session seed, sequence id)` seeding as the pool — the serial reference path the
/// concurrent results are pinned against.
pub(super) fn run_serial(session: &Session<'_>, start_seq: u64, queries: &[Query]) -> ServeReport {
    let started = Instant::now(); // lint:allow(timing, host wall-clock telemetry; results never read it)
    let mut stats = WorkerStats::default();
    let outcomes: Vec<QueryOutcome> = queries
        .iter()
        .enumerate()
        .map(|(position, query)| {
            let seq = start_seq + position as u64;
            serve_one(session, seq, query, None, &mut stats).1
        })
        .collect();
    stats.batches = queries.len() as u64;
    let wall_seconds = started.elapsed().as_secs_f64();
    let waits = vec![0.0; outcomes.len()];
    finish_report(outcomes, waits, vec![stats], wall_seconds)
}

/// Folds per-query outcomes, queue waits and per-worker counters into a
/// [`ServeReport`]. `waits[i]` is query `i`'s submission-to-execution wait; only
/// served queries feed the queue-wait histograms (mirroring service latency).
fn finish_report(
    outcomes: Vec<QueryOutcome>,
    waits: Vec<f64>,
    workers: Vec<WorkerStats>,
    wall_seconds: f64,
) -> ServeReport {
    let mut latency = LatencyStats::default();
    let mut queue_wait = LatencyStats::default();
    let (mut served, mut rejected, mut failed) = (0u64, 0u64, 0u64);
    let mut query_seconds = 0.0;
    for (outcome, &wait) in outcomes.iter().zip(&waits) {
        match outcome {
            QueryOutcome::Served(response) => {
                served = served.saturating_add(1);
                query_seconds += response.cost.host_seconds;
                latency.record(response.kind(), response.cost.host_seconds);
                queue_wait.record(response.kind(), wait);
            }
            QueryOutcome::Rejected => rejected = rejected.saturating_add(1),
            QueryOutcome::Failed(_) => failed = failed.saturating_add(1),
        }
    }
    ServeReport {
        outcomes,
        served,
        rejected,
        failed,
        wall_seconds,
        query_seconds,
        latency,
        queue_wait,
        workers,
    }
}
