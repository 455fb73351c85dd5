//! The concurrent serving front-end: a multi-threaded query engine with admission
//! control and latency-percentile telemetry.
//!
//! A [`Session`] answers queries one at a time on the
//! caller's thread. That leaves the throughput of the walk-index serving path on the
//! table: per-query cursors are query-local and the index arena is read-only after
//! build, so the data layer is already concurrency-ready — only the front-end was
//! missing. This module supplies it:
//!
//! * [`ServeHandle`] — obtained from [`Session::serve`](crate::session::Session::serve),
//!   it shares the session's read-only state (graph, partitioned layout, walk-index
//!   arena) across a **fixed worker pool**;
//! * a **bounded submission queue** ([`queue::Bounded`]) between the submitting
//!   thread and the workers: under overload the queue fills up and the configured
//!   [`Admission`] policy decides between backpressure ([`Admission::Block`]),
//!   load shedding ([`Admission::Reject`] → [`QueryOutcome::Rejected`]) and a
//!   bounded wait ([`Admission::Timeout`]) — memory stays bounded either way;
//! * [latency-percentile telemetry](latency) — a fixed-bucket histogram per query
//!   kind feeding p50/p95/p99 into the [`ServeReport`] and the session's cumulative
//!   [`SessionStats`](crate::session::SessionStats).
//!
//! ## Determinism
//!
//! Every submitted query is independently re-seeded from `(session seed, query
//! sequence id)` via [`seed_for`] before it reaches the queue, and all remaining
//! per-query state is query-local. The responses are therefore **bit-identical for
//! every worker count** — only completion order varies — and equal to the serial
//! reference path ([`ServeHandle::serve_serial`]) on the same stream.
//!
//! ```
//! use frogwild::serve::ServeConfig;
//! use frogwild::session::{PprMethod, Query, Session};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let graph = frogwild_graph::generators::livejournal_like(1_000, &mut rng);
//! let mut session = Session::builder(&graph).machines(4).seed(9).build()?;
//!
//! let queries: Vec<Query> = (0..8)
//!     .map(|source| Query::Ppr {
//!         source,
//!         k: 10,
//!         teleport_probability: 0.15,
//!         method: PprMethod::ForwardPush { epsilon: 1e-5 },
//!     })
//!     .collect();
//!
//! let report = session
//!     .serve_with(ServeConfig { workers: 2, ..ServeConfig::default() })?
//!     .serve(&queries);
//! assert_eq!(report.served, 8);
//! assert_eq!(report.rejected, 0);
//! assert!(report.latency.histogram(frogwild::serve::QueryKind::Ppr).count() == 8);
//! # Ok::<(), frogwild::Error>(())
//! ```

pub mod latency;
mod pool;
pub mod queue;

use std::time::Duration;

use crate::error::{Error, Result};
use crate::session::{PprMethod, Query, Response, Session};

pub use latency::{LatencyHistogram, LatencyStats, QueryKind, LATENCY_BUCKETS, QUERY_KINDS};

/// What the admission controller does when the bounded submission queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Block the submitter until a worker frees queue space — backpressure; nothing
    /// is ever rejected.
    Block,
    /// Turn the batch away immediately — load shedding; the affected queries come
    /// back as [`QueryOutcome::Rejected`].
    Reject,
    /// Wait up to the given duration for space, then reject.
    Timeout(Duration),
}

/// Configuration of the serving front-end: pool size, queue bound, batch size and
/// the overload policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeConfig {
    /// Worker threads in the fixed pool (`0` = the host's available parallelism).
    pub workers: usize,
    /// Capacity of the bounded submission queue, in batches. This is the total
    /// buffering between submitter and workers — the memory bound under overload.
    pub queue_depth: usize,
    /// Queries per batch: workers pull whole batches, amortizing queue
    /// synchronization across `batch` queries (the PR 6 key-range idiom).
    pub batch: usize,
    /// What happens when the queue is full at submission time.
    pub admission: Admission,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_depth: 64,
            batch: 4,
            admission: Admission::Block,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration as a typed [`Error::InvalidConfig`].
    pub fn validate(&self) -> Result<()> {
        if self.queue_depth == 0 {
            return Err(Error::config(
                "ServeConfig",
                "queue_depth must be at least 1",
            ));
        }
        if self.batch == 0 {
            return Err(Error::config("ServeConfig", "batch must be at least 1"));
        }
        if let Admission::Timeout(limit) = self.admission {
            if limit.is_zero() {
                return Err(Error::config(
                    "ServeConfig",
                    "admission timeout must be positive (use Admission::Reject for zero wait)",
                ));
            }
        }
        Ok(())
    }

    /// The worker count actually used: `workers`, or the host's available
    /// parallelism when it is `0`.
    pub fn effective_workers(&self) -> usize {
        frogwild_engine::worker_threads(self.workers)
    }
}

/// The fate of one submitted query.
///
/// The enum is `#[non_exhaustive]`: future outcomes (e.g. a deadline-expired
/// variant) may be added without a breaking change, so foreign matches need a
/// wildcard arm. Prefer [`QueryOutcome::response`] over exhaustive matching.
#[derive(Debug)]
#[non_exhaustive]
pub enum QueryOutcome {
    /// Answered; the deterministic [`Response`] (boxed — responses are large
    /// relative to the other variants).
    Served(Box<Response>),
    /// Turned away by admission control before reaching a worker.
    Rejected,
    /// Reached a worker but failed validation or execution.
    Failed(Error),
}

impl QueryOutcome {
    /// The response, when the query was served.
    pub fn response(&self) -> Option<&Response> {
        match self {
            QueryOutcome::Served(response) => Some(response),
            _ => None,
        }
    }
}

impl From<Response> for QueryOutcome {
    /// A served outcome; the canonical way to build one outside this module.
    fn from(response: Response) -> Self {
        QueryOutcome::Served(Box::new(response))
    }
}

/// Per-worker counters for one served stream.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerStats {
    /// Index of the worker in the pool (`0` for the serial path).
    pub worker: usize,
    /// Queries this worker answered.
    pub served: u64,
    /// Queries this worker saw fail.
    pub failed: u64,
    /// Batches this worker pulled off the queue.
    pub batches: u64,
    /// Seconds this worker spent executing queries.
    pub busy_seconds: f64,
    /// Seconds the queries this worker executed had waited between submission and
    /// the start of their execution (summed per query, so in-batch serialization
    /// behind earlier queries counts as queue wait too).
    pub queue_wait_seconds: f64,
}

/// Everything one [`ServeHandle::serve`] call produced: per-query outcomes in
/// submission order, aggregate counts, wall-clock and latency telemetry, and the
/// per-worker counters.
#[derive(Debug)]
pub struct ServeReport {
    /// One outcome per submitted query, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// Queries answered.
    pub served: u64,
    /// Queries turned away by admission control.
    pub rejected: u64,
    /// Queries that reached a worker and failed.
    pub failed: u64,
    /// Real elapsed seconds from first submission to last completion. Under
    /// concurrency this is **less** than [`query_seconds`](ServeReport::query_seconds)
    /// whenever the pool overlaps work — the two are recorded separately on purpose.
    pub wall_seconds: f64,
    /// Sum of the served queries' individual service times (their
    /// `QueryCost::host_seconds`).
    pub query_seconds: f64,
    /// Latency histograms (service time) per query kind, with p50/p95/p99.
    pub latency: LatencyStats,
    /// Queue-wait histograms per query kind: how long each served query sat
    /// between submission and the start of its execution. Together with
    /// [`latency`](ServeReport::latency) this splits end-to-end sojourn time into
    /// its wait and service components; always zero on the serial path (no queue).
    pub queue_wait: LatencyStats,
    /// Per-worker counters, one entry per pool worker.
    pub workers: Vec<WorkerStats>,
}

impl ServeReport {
    /// Sustained throughput of the stream: served queries per wall-clock second.
    pub fn qps(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.served as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// The served responses in submission order (rejected/failed slots skipped).
    pub fn responses(&self) -> impl Iterator<Item = &Response> {
        self.outcomes.iter().filter_map(|o| o.response())
    }
}

impl std::fmt::Display for ServeReport {
    /// A compact serving summary: counts, throughput, and overall percentiles of
    /// both components of sojourn time — queue wait and service.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let service = self.latency.overall();
        let wait = self.queue_wait.overall();
        write!(
            f,
            "served {} / rejected {} / failed {} in {:.3}s ({:.1} qps, {} workers); \
             service p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms; \
             queue wait p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms",
            self.served,
            self.rejected,
            self.failed,
            self.wall_seconds,
            self.qps(),
            self.workers.len(),
            service.p50() * 1e3,
            service.p95() * 1e3,
            service.p99() * 1e3,
            wait.p50() * 1e3,
            wait.p95() * 1e3,
            wait.p99() * 1e3,
        )
    }
}

/// Derives the seed for the query with sequence id `seq` in a session seeded with
/// `session_seed` — the serving front-end's determinism root. Exposed so the serial
/// reference path of a test or benchmark can reproduce the pool's seeding exactly.
pub fn seed_for(session_seed: u64, seq: u64) -> u64 {
    frogwild_engine::rng::mix(&[session_seed, seq, 0x5E4E_F207])
}

/// Returns `query` with its randomness re-rooted at `seed`.
///
/// Only the fields that seed randomness change: deterministic methods (forward push,
/// power iteration) pass through untouched, so a re-seeded deterministic query still
/// equals the original.
pub fn reseeded(query: &Query, seed: u64) -> Query {
    let mut query = query.clone();
    match &mut query {
        Query::TopK { config, .. } => config.seed = seed,
        Query::Pagerank { config, .. } => config.seed = seed,
        Query::Ppr { method, .. } => {
            if let PprMethod::MonteCarlo { seed: s, .. } = method {
                *s = seed;
            }
        }
        Query::AutotunedTopK { config } => config.seed = seed,
    }
    query
}

/// A multi-threaded serving front-end over one [`Session`].
///
/// Obtained via [`Session::serve`] (the default [`ServeConfig`]) or
/// [`Session::serve_with`] (an explicit one). The handle holds the session
/// exclusively; each [`serve`](ServeHandle::serve) call runs one fixed worker pool
/// over the submitted stream, folds the served costs into the session's cumulative
/// [`SessionStats`](crate::session::SessionStats) (including the latency
/// histograms), and returns the stream's [`ServeReport`].
///
/// Sequence ids — and with them the per-query seeds — continue across calls on the
/// same handle, so a stream split over several `serve` calls answers exactly like
/// the same stream served in one call.
#[derive(Debug)]
pub struct ServeHandle<'s, 'g> {
    session: &'s mut Session<'g>,
    config: ServeConfig,
    next_seq: u64,
}

impl<'s, 'g> ServeHandle<'s, 'g> {
    pub(crate) fn new(session: &'s mut Session<'g>, config: ServeConfig) -> Self {
        ServeHandle {
            session,
            config,
            next_seq: 0,
        }
    }

    /// The serving configuration this handle runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The session being served.
    pub fn session(&self) -> &Session<'g> {
        self.session
    }

    /// Serves `queries` through the worker pool and returns every outcome in
    /// submission order.
    pub fn serve(&mut self, queries: &[Query]) -> ServeReport {
        let start_seq = self.advance(queries.len());
        let report = pool::run_stream(self.session, &self.config, start_seq, queries);
        self.session.absorb_serve(&report);
        report
    }

    /// Serves `queries` serially on the calling thread under the same sequence-id
    /// seeding — the reference path pool results are bit-identical to.
    pub fn serve_serial(&mut self, queries: &[Query]) -> ServeReport {
        let start_seq = self.advance(queries.len());
        let report = pool::run_serial(self.session, start_seq, queries);
        self.session.absorb_serve(&report);
        report
    }

    fn advance(&mut self, count: usize) -> u64 {
        let start = self.next_seq;
        self.next_seq = self.next_seq.saturating_add(count as u64);
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FrogWildConfig;
    use frogwild_graph::generators::{rmat, RmatParams};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_graph(n: usize) -> frogwild_graph::DiGraph {
        let mut rng = SmallRng::seed_from_u64(77);
        rmat(n, RmatParams::default(), &mut rng)
    }

    fn mixed_stream(n: usize) -> Vec<Query> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    Query::TopK {
                        k: 10,
                        config: FrogWildConfig {
                            num_walkers: 4_000,
                            iterations: 3,
                            sync_probability: 0.7,
                            ..FrogWildConfig::default()
                        },
                    }
                } else {
                    Query::Ppr {
                        source: (i % 50) as u32,
                        k: 10,
                        teleport_probability: 0.15,
                        method: PprMethod::MonteCarlo {
                            walkers: 2_000,
                            max_steps: 32,
                            seed: 1,
                        },
                    }
                }
            })
            .collect()
    }

    #[test]
    fn serve_config_validation() {
        assert!(ServeConfig::default().validate().is_ok());
        assert!(ServeConfig {
            queue_depth: 0,
            ..ServeConfig::default()
        }
        .validate()
        .is_err());
        assert!(ServeConfig {
            batch: 0,
            ..ServeConfig::default()
        }
        .validate()
        .is_err());
        assert!(ServeConfig {
            admission: Admission::Timeout(Duration::ZERO),
            ..ServeConfig::default()
        }
        .validate()
        .is_err());
        let three = ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        };
        assert!(three.validate().is_ok());
        assert_eq!(three.effective_workers(), 3);
        assert!(ServeConfig::default().effective_workers() >= 1);
    }

    #[test]
    fn reseeding_touches_only_randomness_fields() {
        let q = Query::TopK {
            k: 7,
            config: FrogWildConfig::default(),
        };
        let r = reseeded(&q, 99);
        match (&q, &r) {
            (Query::TopK { k: k0, config: c0 }, Query::TopK { k: k1, config: c1 }) => {
                assert_eq!(k0, k1);
                assert_eq!(c1.seed, 99);
                assert_eq!(c0.num_walkers, c1.num_walkers);
            }
            _ => unreachable!(),
        }
        // Deterministic PPR methods pass through unchanged.
        let push = Query::Ppr {
            source: 3,
            k: 5,
            teleport_probability: 0.15,
            method: PprMethod::ForwardPush { epsilon: 1e-5 },
        };
        assert_eq!(reseeded(&push, 123), push);
        // Seeds are distinct per sequence id.
        assert_ne!(seed_for(1, 0), seed_for(1, 1));
        assert_ne!(seed_for(1, 0), seed_for(2, 0));
    }

    #[test]
    fn pool_and_serial_paths_answer_bit_identically() {
        let g = test_graph(250);
        let queries = mixed_stream(8);

        let mut serial_session = Session::builder(&g).machines(4).seed(5).build().unwrap();
        let serial = serial_session
            .serve_with(ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            })
            .unwrap()
            .serve_serial(&queries);

        let mut pool_session = Session::builder(&g).machines(4).seed(5).build().unwrap();
        let pooled = pool_session
            .serve_with(ServeConfig {
                workers: 3,
                batch: 2,
                ..ServeConfig::default()
            })
            .unwrap()
            .serve(&queries);

        assert_eq!(serial.served, 8);
        assert_eq!(pooled.served, 8);
        assert_eq!(pooled.rejected, 0);
        for (a, b) in serial.responses().zip(pooled.responses()) {
            assert_eq!(a, b);
        }
        // Both sessions saw the same stream and accumulated the same totals.
        assert_eq!(
            serial_session.stats().totals.walk_hops,
            pool_session.stats().totals.walk_hops
        );
        assert_eq!(pool_session.stats().queries_served, 8);
        assert_eq!(pool_session.stats().latency.count(), 8);
    }

    #[test]
    fn sequence_ids_continue_across_serve_calls() {
        let g = test_graph(200);
        let queries = mixed_stream(6);
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };

        let mut one_call = Session::builder(&g).machines(2).seed(8).build().unwrap();
        let whole = one_call.serve_with(config).unwrap().serve(&queries);

        let mut two_calls = Session::builder(&g).machines(2).seed(8).build().unwrap();
        let mut handle = two_calls.serve_with(config).unwrap();
        let first = handle.serve(&queries[..3]);
        let second = handle.serve(&queries[3..]);

        let split: Vec<&Response> = first.responses().chain(second.responses()).collect();
        for (a, b) in whole.responses().zip(split) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rejection_surfaces_in_order_and_in_counts() {
        let g = test_graph(200);
        let queries = mixed_stream(12);
        let mut session = Session::builder(&g).machines(2).seed(4).build().unwrap();
        let report = session
            .serve_with(ServeConfig {
                workers: 1,
                queue_depth: 1,
                batch: 1,
                admission: Admission::Reject,
            })
            .unwrap()
            .serve(&queries);
        assert_eq!(report.outcomes.len(), 12);
        assert_eq!(report.served + report.rejected + report.failed, 12);
        assert_eq!(
            report
                .outcomes
                .iter()
                .filter(|o| matches!(o, QueryOutcome::Rejected))
                .count() as u64,
            report.rejected
        );
        assert_eq!(session.stats().queries_rejected, report.rejected);
        assert_eq!(session.stats().queries_served, report.served);
        let rendered = report.to_string();
        assert!(rendered.contains("qps"));
        assert!(rendered.contains("p99"));
    }
}
