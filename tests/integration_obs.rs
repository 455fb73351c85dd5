//! Integration tests for `frogwild::obs` — the acceptance criteria of the
//! structured-tracing subsystem.
//!
//! Pinned here:
//!
//! * **bit-identity**: tracing observes, never steers. Every response — engine
//!   top-k, GraphLab PageRank, index-served PPR, through the serial path and the
//!   worker pool, synchronous and bounded-stale — is identical with tracing off,
//!   on the logical clock, and on the host clock;
//! * **byte-stable merges**: under [`TraceConfig::logical`] the merged timeline's
//!   CSV export is a pure function of the work, pinned byte-for-byte against a
//!   checked-in golden file (regenerate with `FROGWILD_UPDATE_GOLDEN=1`);
//! * **chrome round-trip**: the chrome trace-event export of a concurrent serve
//!   run parses under the in-repo validator and accounts for every timeline entry;
//! * a disabled tracer records nothing and a traced serve covers every layer
//!   (admission events, execute spans, index spans).

use frogwild::obs::{validate_chrome_json, TraceConfig};
use frogwild::prelude::*;
use frogwild::session::PprMethod;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::Path;

const K: usize = 10;

fn test_graph() -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(7);
    frogwild_graph::generators::twitter_like(800, &mut rng)
}

/// A mixed stream exercising every serving path: index-served top-k, the engine
/// (GraphLab PageRank), and index-served Monte-Carlo PPR.
fn mixed_stream(count: usize, vertices: u64) -> Vec<Query> {
    (0..count)
        .map(|i| {
            if i % 4 == 0 {
                Query::TopK {
                    k: K,
                    config: FrogWildConfig {
                        num_walkers: 5_000,
                        iterations: 2,
                        sync_probability: 0.7,
                        ..FrogWildConfig::default()
                    },
                }
            } else if i % 4 == 2 {
                Query::Pagerank {
                    k: K,
                    config: PageRankConfig::truncated(2),
                }
            } else {
                Query::Ppr {
                    source: ((i as u64 * 31) % vertices) as VertexId,
                    k: K,
                    teleport_probability: 0.15,
                    method: PprMethod::MonteCarlo {
                        walkers: 1_000,
                        max_steps: 16,
                        seed: 0,
                    },
                }
            }
        })
        .collect()
}

fn session_over(graph: &DiGraph, tracing: TraceConfig, staleness: usize) -> Session<'_> {
    Session::builder(graph)
        .machines(4)
        .seed(42)
        .execution(ExecutionConfig::new().staleness(staleness))
        .walk_index(WalkIndexConfig {
            segments_per_vertex: 2,
            segment_length: 4,
            ..WalkIndexConfig::default()
        })
        .tracing(tracing)
        .build()
        .expect("valid test configuration")
}

#[test]
fn tracing_is_bit_identical_across_workers_and_staleness() {
    let graph = test_graph();
    let queries = mixed_stream(12, graph.num_vertices() as u64);
    for staleness in [0usize, 1] {
        let mut baseline_session = session_over(&graph, TraceConfig::disabled(), staleness);
        let baseline = baseline_session.serve().serve_serial(&queries);
        assert_eq!(baseline.served, queries.len() as u64);
        for tracing in [TraceConfig::logical(), TraceConfig::enabled()] {
            for workers in [0usize, 2] {
                let mut session = session_over(&graph, tracing, staleness);
                let report = if workers == 0 {
                    session.serve().serve_serial(&queries)
                } else {
                    session
                        .serve_with(ServeConfig {
                            workers,
                            ..ServeConfig::default()
                        })
                        .expect("valid test configuration")
                        .serve(&queries)
                };
                assert_eq!(report.served, queries.len() as u64);
                for (i, (a, b)) in baseline.responses().zip(report.responses()).enumerate() {
                    assert_eq!(
                        a, b,
                        "query {i} diverged (staleness {staleness}, {workers} workers, traced)"
                    );
                }
                // The traced sessions really did record something.
                assert!(
                    !session.tracer().finish().is_empty(),
                    "traced session recorded nothing"
                );
            }
        }
    }
}

/// The deterministic workload behind the golden file: an index-served top-k, an
/// engine PageRank, and an index-served PPR on a fixed graph, logical clock.
fn logical_trace_csv() -> String {
    let graph = test_graph();
    let mut session = session_over(&graph, TraceConfig::logical(), 0);
    session
        .query(&Query::TopK {
            k: K,
            config: FrogWildConfig {
                num_walkers: 5_000,
                iterations: 2,
                sync_probability: 0.7,
                ..FrogWildConfig::default()
            },
        })
        .expect("topk");
    session
        .query(&Query::Pagerank {
            k: K,
            config: PageRankConfig::truncated(2),
        })
        .expect("pagerank");
    session
        .query(&Query::Ppr {
            source: 3,
            k: K,
            teleport_probability: 0.15,
            method: PprMethod::MonteCarlo {
                walkers: 1_000,
                max_steps: 16,
                seed: 0,
            },
        })
        .expect("ppr");
    session.tracer().finish().to_csv()
}

/// Engine and index queries through a two-worker pool, one query per batch. The
/// engine queries come in pairs that run at once, and the pool re-seeds each, so the
/// two share `(superstep, machine, batch, phase)` span keys but not span counters:
/// only the query stamp puts their records in one order.
fn pooled_logical_trace_csv() -> String {
    let graph = test_graph();
    let index = mixed_stream(2, graph.num_vertices() as u64);
    let engine = Query::AutotunedTopK {
        config: AutoTuneConfig {
            k: K,
            pilot_walkers: 2_000,
            max_walkers: 10_000,
            ..AutoTuneConfig::default()
        },
    };
    let queries = [
        &engine, &engine, &index[0], &engine, &engine, &index[1], &engine, &engine,
    ]
    .map(Query::clone);
    let mut session = session_over(&graph, TraceConfig::logical(), 0);
    let config = ServeConfig {
        workers: 2,
        batch: 1,
        ..ServeConfig::default()
    };
    let report = session
        .serve_with(config)
        .expect("valid test configuration")
        .serve(&queries);
    assert_eq!(report.served, queries.len() as u64);
    session.tracer().finish().to_csv()
}

#[test]
fn logical_traces_are_byte_stable_across_runs() {
    assert_eq!(
        logical_trace_csv(),
        logical_trace_csv(),
        "two identical logical-clock runs must merge to identical bytes"
    );
    let first = pooled_logical_trace_csv();
    for run in 1..8 {
        assert_eq!(
            pooled_logical_trace_csv(),
            first,
            "pooled run {run} merged to different bytes than run 0"
        );
    }
}

#[test]
fn logical_trace_matches_the_golden_file() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/obs_trace.csv");
    let got = logical_trace_csv();
    if std::env::var_os("FROGWILD_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &got).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing; regenerate with FROGWILD_UPDATE_GOLDEN=1");
    assert_eq!(
        got, golden,
        "merged logical trace drifted from tests/golden/obs_trace.csv; if the \
         instrumentation changed intentionally, regenerate with FROGWILD_UPDATE_GOLDEN=1"
    );
}

#[test]
fn chrome_export_round_trips_through_the_validator() {
    let graph = test_graph();
    let queries = mixed_stream(8, graph.num_vertices() as u64);
    let mut session = session_over(&graph, TraceConfig::enabled(), 0);
    let report = session
        .serve_with(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .expect("valid test configuration")
        .serve(&queries);
    assert_eq!(report.served, queries.len() as u64);
    let timeline = session.tracer().finish();
    let json = timeline.to_chrome_json();
    let events = validate_chrome_json(&json).expect("chrome export must validate");
    assert_eq!(
        events,
        timeline.entries().len(),
        "every timeline entry must survive the export"
    );
    // The trace covers all three layers: the serve pool (enqueue/execute), the
    // session's index serving, and the engine's supersteps.
    let names: Vec<&str> = timeline.entries().iter().map(|e| e.name).collect();
    for expected in [
        "enqueue",
        "dequeue",
        "execute_topk",
        "index_ppr",
        "superstep",
    ] {
        assert!(names.contains(&expected), "missing {expected:?} span");
    }
}

#[test]
fn disabled_tracer_records_nothing() {
    let graph = test_graph();
    let mut session = session_over(&graph, TraceConfig::disabled(), 0);
    let queries = mixed_stream(4, graph.num_vertices() as u64);
    let report = session.serve().serve_serial(&queries);
    assert_eq!(report.served, queries.len() as u64);
    let timeline = session.tracer().finish();
    assert!(timeline.is_empty());
    assert_eq!(validate_chrome_json(&timeline.to_chrome_json()), Ok(0));
}
