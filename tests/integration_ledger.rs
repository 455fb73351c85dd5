//! The ledger reconciles: a query's trace spans, its `QueryCost`, the session's
//! `SessionStats::totals` and the stream's `ServeReport` are views of one record.
//!
//! Every query kind — engine top-k at `p_s` 1 and 0.4 under staleness 1, GraphLab
//! PageRank, autotuned top-k, index top-k, and push, Monte-Carlo and index-served
//! PPR — is served untraced and traced, serially and through a two-worker pool.
//! Pinned here:
//!
//! * the costs are the same on all four paths;
//! * the session totals are the in-order `absorb` of the responses' costs, and the
//!   report's `query_seconds` the in-order sum of their host seconds;
//! * on a traced path, the counters of the spans stamped with a query's sequence id
//!   sum to that query's cost, and it has one `superstep` span per superstep.

use frogwild::obs::{Timeline, TraceConfig};
use frogwild::prelude::*;
use frogwild::session::PprMethod;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const K: usize = 10;

fn test_graph() -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(13);
    frogwild_graph::generators::twitter_like(600, &mut rng)
}

fn top_k(sync_probability: f64) -> Query {
    Query::TopK {
        k: K,
        config: FrogWildConfig {
            num_walkers: 4_000,
            iterations: 4,
            sync_probability,
            ..FrogWildConfig::default()
        },
    }
}

fn ppr(source: VertexId, method: PprMethod) -> Query {
    Query::Ppr {
        source,
        k: K,
        teleport_probability: 0.15,
        method,
    }
}

const PUSH: PprMethod = PprMethod::ForwardPush { epsilon: 1e-5 };
const MONTE_CARLO: PprMethod = PprMethod::MonteCarlo {
    walkers: 1_000,
    max_steps: 16,
    seed: 0,
};

/// What a session without a walk index serves: the engine paths and serial PPR.
fn engine_stream() -> Vec<Query> {
    vec![
        top_k(1.0),
        top_k(0.4),
        Query::Pagerank {
            k: K,
            config: PageRankConfig::truncated(2),
        },
        Query::AutotunedTopK {
            config: AutoTuneConfig {
                k: K,
                pilot_walkers: 1_000,
                max_walkers: 8_000,
                ..AutoTuneConfig::default()
            },
        },
        ppr(3, PUSH),
        ppr(5, MONTE_CARLO),
    ]
}

/// What a session with a walk index serves from it.
fn index_stream() -> Vec<Query> {
    vec![top_k(0.4), ppr(3, PUSH), ppr(5, MONTE_CARLO)]
}

fn session_over(graph: &DiGraph, index: bool, tracing: TraceConfig) -> Session<'_> {
    let mut builder = Session::builder(graph)
        .machines(4)
        .seed(42)
        .execution(ExecutionConfig::new().staleness(1))
        .tracing(tracing);
    if index {
        builder = builder.walk_index(WalkIndexConfig {
            segments_per_vertex: 2,
            segment_length: 4,
            ..WalkIndexConfig::default()
        });
    }
    builder.build().expect("valid test configuration")
}

/// Serves `queries` on a fresh handle, so query `i` runs under sequence id `i`.
fn serve(session: &mut Session<'_>, queries: &[Query], pooled: bool) -> ServeReport {
    if pooled {
        let config = ServeConfig {
            workers: 2,
            batch: 1,
            ..ServeConfig::default()
        };
        let mut handle = session.serve_with(config).expect("valid serve config");
        handle.serve(queries)
    } else {
        session.serve().serve_serial(queries)
    }
}

/// The spans of query `seq` add up to its cost, pair by pair.
fn assert_spans_sum_to_the_cost(timeline: &Timeline, seq: u64, cost: &QueryCost, label: &str) {
    let spans: Vec<_> = (timeline.entries().iter())
        .filter(|e| e.query == Some(seq))
        .collect();
    let count = |span: &str| spans.iter().filter(|e| e.name == span).count();
    let sum = |span: &str, counter: &str| -> u64 {
        (spans.iter().filter(|e| e.name == span))
            .flat_map(|e| &e.counters)
            .filter(|(name, _)| *name == counter)
            .map(|&(_, value)| value)
            .sum()
    };
    let label = format!("{label}, query {seq}");
    assert_eq!(count("superstep"), cost.supersteps, "{label}");
    for (span, counter, value) in [
        ("superstep", "frontier", cost.active_vertices),
        ("superstep", "routed", cost.routed_messages),
        ("route", "messages", cost.routed_messages),
        ("sync", "sync_ops", cost.sync_ops),
        ("sync", "skipped_syncs", cost.skipped_syncs),
        ("sync", "skipped_scatters", cost.skipped_scatters),
        ("gather", "edge_ops", cost.gather_ops),
        ("gather_batch", "edge_ops", cost.gather_ops),
        ("apply", "tasks", cost.apply_ops),
        ("scatter_batch", "edge_ops", cost.scatter_ops),
    ] {
        assert_eq!(sum(span, counter), value, "{label}: {span}.{counter}");
    }
    // A walk index's serving span is its ledger, and serial PPR's `ppr` span is its own.
    let served = |counter: &str| -> u64 {
        (["index_topk", "index_ppr", "ppr"].iter())
            .map(|span| sum(span, counter))
            .sum()
    };
    assert_eq!(served("pushes"), cost.push_ops, "{label}");
    assert_eq!(served("segment_hits"), cost.index_hits, "{label}");
    assert_eq!(served("segment_misses"), cost.index_misses, "{label}");
    assert_eq!(served("walk_hops"), cost.walk_hops, "{label}");
}

#[test]
fn spans_costs_session_totals_and_serve_reports_reconcile_for_every_query_kind() {
    let graph = test_graph();
    for (index, queries) in [(false, engine_stream()), (true, index_stream())] {
        let mut expected: Option<Vec<QueryCost>> = None;
        for pooled in [false, true] {
            for tracing in [TraceConfig::disabled(), TraceConfig::logical()] {
                let label = format!("index {index}, pooled {pooled}, traced {}", tracing.enabled);
                let mut session = session_over(&graph, index, tracing);
                let report = serve(&mut session, &queries, pooled);
                assert_eq!(report.served, queries.len() as u64, "{label}");
                let costs: Vec<QueryCost> = report.responses().map(|r| r.cost).collect();
                assert_eq!(
                    costs.iter().filter(|c| c.index_served).count(),
                    if index { queries.len() } else { 0 },
                    "{label}"
                );

                // Tracing and the pool change no cost.
                match &expected {
                    None => expected = Some(costs.clone()),
                    Some(first) => assert_eq!(first, &costs, "{label}"),
                }

                // The session's totals and the report are folds of the responses.
                let mut totals = QueryCost {
                    replication_factor: session.replication_factor(),
                    ..QueryCost::default()
                };
                let mut query_seconds = 0.0;
                for cost in &costs {
                    assert_eq!(cost.replication_factor, session.replication_factor());
                    totals.absorb(cost);
                    query_seconds += cost.host_seconds;
                }
                let stats = session.stats();
                assert_eq!(stats.totals, totals, "{label}");
                assert_eq!(stats.totals.host_seconds, totals.host_seconds, "{label}");
                assert_eq!(report.query_seconds, query_seconds, "{label}");

                let timeline = session.tracer().finish();
                assert_eq!(timeline.is_empty(), !tracing.enabled, "{label}");
                if tracing.enabled {
                    for (seq, cost) in costs.iter().enumerate() {
                        assert_spans_sum_to_the_cost(&timeline, seq as u64, cost, &label);
                    }
                }
            }
        }
        // Every pair above compared something: the engine stream ran every phase and
        // skipped syncs, the index stream pushed, hit and walked.
        let costs = expected.expect("four paths served the stream");
        let mut sum = QueryCost::default();
        costs.iter().for_each(|c| sum.absorb(c));
        if index {
            assert!(sum.push_ops > 0 && sum.index_hits > 0 && sum.walk_hops > 0);
        } else {
            assert!(sum.gather_ops > 0 && sum.sync_ops > 0 && sum.skipped_syncs > 0);
            assert!(sum.skipped_scatters > 0 && sum.staleness_lag > 0);
        }
    }
}
