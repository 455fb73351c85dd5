//! Integration tests for the concurrent serving front-end: the acceptance criteria
//! of the multi-threaded query engine.
//!
//! Pinned here:
//!
//! * a mixed top-k / PPR stream answered through the worker pool is **bit-identical**
//!   to the serial reference path for every worker count — only completion order may
//!   differ, never a response;
//! * the bounded submission queue turns overload into explicit
//!   [`QueryOutcome::Rejected`] outcomes (load shedding) or a bounded wait
//!   (timeout admission) without deadlocking and with every query accounted for;
//! * failed queries surface as per-query outcomes, not stream aborts;
//! * serving telemetry (latency percentiles, host-vs-wall seconds, rejection counts)
//!   lands in the session's cumulative [`SessionStats`] and its `Display`;
//! * with ≥8 hardware threads, 8 workers beat 1 worker by ≥3x on the 100-query
//!   stream (gated on [`std::thread::available_parallelism`] so single-core CI
//!   boxes still validate determinism, just not the speedup).

use frogwild::prelude::*;
use frogwild::serve::QueryOutcome;
use frogwild::session::PprMethod;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Duration;

const K: usize = 20;

/// ~100k edges: the twitter-shaped generator averages out-degree ≈ 34.
fn test_graph() -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(7);
    frogwild_graph::generators::twitter_like(3_000, &mut rng)
}

/// A smaller graph for the tests that only exercise control flow.
fn small_graph() -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(7);
    frogwild_graph::generators::twitter_like(600, &mut rng)
}

/// A mixed stream: one global top-k per four queries, the rest personalized
/// Monte-Carlo PPR (the randomized methods are the determinism stress case).
fn mixed_stream(count: usize, vertices: u64) -> Vec<Query> {
    (0..count)
        .map(|i| {
            if i % 4 == 0 {
                Query::TopK {
                    k: K,
                    config: FrogWildConfig {
                        num_walkers: 8_000,
                        iterations: 3,
                        sync_probability: 0.7,
                        ..FrogWildConfig::default()
                    },
                }
            } else {
                Query::Ppr {
                    source: ((i as u64 * 31) % vertices) as VertexId,
                    k: K,
                    teleport_probability: 0.15,
                    method: PprMethod::MonteCarlo {
                        walkers: 2_000,
                        max_steps: 32,
                        seed: 0,
                    },
                }
            }
        })
        .collect()
}

fn session_over(graph: &DiGraph) -> Session<'_> {
    Session::builder(graph)
        .machines(8)
        .seed(42)
        .walk_index(WalkIndexConfig::default())
        .build()
        .expect("valid test configuration")
}

#[test]
fn every_worker_count_is_bit_identical_to_the_serial_path() {
    let graph = test_graph();
    assert!(
        graph.num_edges() >= 100_000,
        "workload should be ~100k edges"
    );
    let queries = mixed_stream(32, graph.num_vertices() as u64);

    let mut serial_session = session_over(&graph);
    let serial = serial_session.serve().serve_serial(&queries);
    assert_eq!(serial.served, 32);

    for workers in [1usize, 2, 4, 8] {
        let mut session = session_over(&graph);
        let report = session
            .serve_with(ServeConfig {
                workers,
                ..ServeConfig::default()
            })
            .expect("valid test configuration")
            .serve(&queries);
        assert_eq!(report.served, 32, "{workers} workers");
        assert_eq!(report.rejected, 0, "{workers} workers");
        let pairs: Vec<_> = serial.responses().zip(report.responses()).collect();
        assert_eq!(pairs.len(), 32);
        for (i, (a, b)) in pairs.into_iter().enumerate() {
            assert_eq!(a, b, "query {i} diverged under {workers} workers");
        }
        // The two sessions also agree on every deterministic cumulative counter.
        assert_eq!(
            serial_session.stats().totals.walk_hops,
            session.stats().totals.walk_hops
        );
        assert_eq!(
            serial_session.stats().totals.push_ops,
            session.stats().totals.push_ops
        );
    }
}

#[test]
fn overload_with_reject_admission_sheds_load_and_accounts_for_everything() {
    let graph = small_graph();
    let queries = mixed_stream(64, graph.num_vertices() as u64);
    let mut session = session_over(&graph);
    let report = session
        .serve_with(ServeConfig {
            workers: 1,
            queue_depth: 1,
            batch: 1,
            admission: Admission::Reject,
        })
        .expect("valid test configuration")
        .serve(&queries);

    assert_eq!(report.outcomes.len(), 64);
    assert_eq!(report.served + report.rejected + report.failed, 64);
    assert!(
        report.rejected > 0,
        "a 1-deep queue under a 64-query burst must shed load"
    );
    // Served responses are still the deterministic ones: re-serving the same stream
    // serially yields the same response at every position that was served.
    let mut reference_session = session_over(&graph);
    let reference = reference_session.serve().serve_serial(&queries);
    for (i, outcome) in report.outcomes.iter().enumerate() {
        if let QueryOutcome::Served(response) = outcome {
            assert_eq!(
                response.as_ref(),
                reference.outcomes[i].response().unwrap(),
                "served query {i}"
            );
        }
    }
    // The rejection count flows into the session's cumulative stats and Display.
    assert_eq!(session.stats().queries_rejected, report.rejected);
    let rendered = session.stats().to_string();
    assert!(rendered.contains("rejected by admission control"));
}

#[test]
fn timeout_admission_bounds_the_wait_and_still_serves() {
    let graph = small_graph();
    let queries = mixed_stream(16, graph.num_vertices() as u64);
    let mut session = session_over(&graph);
    let report = session
        .serve_with(ServeConfig {
            workers: 1,
            queue_depth: 2,
            batch: 2,
            admission: Admission::Timeout(Duration::from_millis(200)),
        })
        .expect("valid test configuration")
        .serve(&queries);
    // A generous timeout on a small stream behaves like backpressure: everything
    // is served, nothing rejected — and the call returned, so nothing deadlocked.
    assert_eq!(report.served + report.rejected, 16);
    assert!(report.served > 0);
}

/// A timeout with no deadline the clock can represent waits like `Admission::Block`.
/// A panic on the admission thread would leave the workers waiting forever, so the
/// stream runs on a thread of its own under a watchdog.
#[test]
fn an_unrepresentable_admission_timeout_waits_and_serves() {
    let (sender, receiver) = std::sync::mpsc::channel();
    let stream = std::thread::spawn(move || {
        let graph = small_graph();
        let queries = mixed_stream(4, graph.num_vertices() as u64);
        let mut session = session_over(&graph);
        let report = session
            .serve_with(ServeConfig {
                workers: 2,
                queue_depth: 1,
                batch: 1,
                admission: Admission::Timeout(Duration::MAX),
            })
            .expect("valid test configuration")
            .serve(&queries);
        sender.send((report.served, report.rejected, report.failed))
    });
    let counts = receiver
        .recv_timeout(Duration::from_secs(60))
        .expect("the stream finished before the watchdog");
    stream
        .join()
        .expect("the stream thread")
        .expect("the receiver");
    assert_eq!(counts, (4, 0, 0));
}

#[test]
fn failed_queries_surface_as_outcomes_not_stream_aborts() {
    let graph = small_graph();
    let mut queries = mixed_stream(8, graph.num_vertices() as u64);
    // k = 0 fails validation inside the worker, after admission.
    queries[3] = Query::TopK {
        k: 0,
        config: FrogWildConfig::default(),
    };
    let mut session = session_over(&graph);
    let report = session
        .serve_with(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .expect("valid test configuration")
        .serve(&queries);
    assert_eq!(report.served, 7);
    assert_eq!(report.failed, 1);
    assert!(matches!(report.outcomes[3], QueryOutcome::Failed(_)));
    // The failure does not pollute the session's served counters.
    assert_eq!(session.stats().queries_served, 7);
}

#[test]
fn latency_and_wall_telemetry_flow_into_session_stats() {
    let graph = small_graph();
    let queries = mixed_stream(12, graph.num_vertices() as u64);
    let mut session = session_over(&graph);
    let report = session
        .serve_with(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .expect("valid test configuration")
        .serve(&queries);

    // The report's histograms cover every served query, split by kind.
    assert_eq!(report.latency.count(), 12);
    assert_eq!(report.latency.histogram(QueryKind::TopK).count(), 3);
    assert_eq!(report.latency.histogram(QueryKind::Ppr).count(), 9);
    let overall = report.latency.overall();
    assert!(overall.p50() <= overall.p95() && overall.p95() <= overall.p99());
    assert!(report.qps() > 0.0);

    // Host time (per-query sum) and wall time (elapsed) are recorded separately;
    // under concurrency they legitimately differ.
    let stats = session.stats();
    assert!(stats.totals.host_seconds > 0.0);
    assert!(stats.total_wall_seconds > 0.0);
    assert!(stats.effective_concurrency() > 0.0);
    assert_eq!(stats.latency.count(), 12);

    // And the Display surface mentions all of it.
    let rendered = stats.to_string();
    assert!(rendered.contains("latency (service time):"));
    assert!(rendered.contains("p99"));
    assert!(rendered.contains("effective concurrency"));

    // Per-worker counters cover the full stream.
    assert_eq!(report.workers.len(), 2);
    let per_worker: u64 = report.workers.iter().map(|w| w.served).sum();
    assert_eq!(per_worker, 12);
}

#[test]
fn a_pool_larger_than_the_stream_spawns_a_worker_per_batch_at_most() {
    let graph = small_graph();
    let queries = mixed_stream(3, graph.num_vertices() as u64);
    let mut session = session_over(&graph);
    let config = ServeConfig {
        workers: usize::MAX,
        ..ServeConfig::default()
    };
    let report = session
        .serve_with(config)
        .expect("valid test configuration")
        .serve(&queries);
    assert_eq!((report.served, report.rejected, report.failed), (3, 0, 0));
    let batches = queries.len().div_ceil(config.batch);
    assert!(report.workers.len() <= batches, "{}", report.workers.len());
}

#[test]
fn eight_workers_beat_one_by_3x_on_parallel_hardware() {
    let parallelism = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    if parallelism < 8 {
        eprintln!(
            "skipping throughput assertion: only {parallelism} hardware threads \
             (determinism is still covered by the other tests)"
        );
        return;
    }
    let graph = test_graph();
    let queries = mixed_stream(100, graph.num_vertices() as u64);

    let mut one = session_over(&graph);
    let single = one
        .serve_with(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("valid test configuration")
        .serve(&queries);
    let mut eight = session_over(&graph);
    let pooled = eight
        .serve_with(ServeConfig {
            workers: 8,
            ..ServeConfig::default()
        })
        .expect("valid test configuration")
        .serve(&queries);

    assert_eq!(single.served, 100);
    assert_eq!(pooled.served, 100);
    let speedup = single.wall_seconds / pooled.wall_seconds.max(1e-12);
    assert!(
        speedup >= 3.0,
        "8 workers should serve the stream ≥3x faster than 1 (got {speedup:.2}x)"
    );
}
