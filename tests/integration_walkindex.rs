//! Integration tests for the walk-index subsystem: the acceptance criteria of the
//! index-served query service.
//!
//! Pinned here:
//!
//! * a stream of 100 PPR queries on a ~100k-edge graph served from a walk index
//!   matches fresh Monte-Carlo's top-20 accuracy while sampling under a tenth of its
//!   hops — the work behind the >= 5x speed-up `examples/walk_index.rs` prints and
//!   frogbench's `core.walkindex.speedup_vs_fresh` measures on the host clock;
//! * sessions that do not enable the index are bit-identical to the plain session
//!   behaviour (the subsystem is strictly additive);
//! * index builds are deterministic across machine counts and threading, respect the
//!   memory budget, and report their cost through `QueryCost` / `SessionStats`.

use frogwild::ppr::{personalized_pagerank, single_source_restart};
use frogwild::prelude::*;
use frogwild::session::PprMethod;
use frogwild::walkindex::build_walk_index;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const K: usize = 20;
const QUERIES: usize = 100;
const SCORED: usize = 8;

/// ~100k edges: the twitter-shaped generator averages out-degree ≈ 34.
fn test_graph() -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(7);
    frogwild_graph::generators::twitter_like(3_000, &mut rng)
}

fn mc_query(source: VertexId) -> Query {
    Query::Ppr {
        source,
        k: K,
        teleport_probability: 0.15,
        method: PprMethod::MonteCarlo {
            walkers: 40_000,
            max_steps: 64,
            seed: 11,
        },
    }
}

/// The stream's >= 5x speed-up, pinned by the work that buys it rather than by a
/// host-clock ratio, which depends on the machine's load.
#[test]
fn index_served_stream_is_5x_faster_at_matched_accuracy() {
    let graph = test_graph();
    assert!(
        graph.num_edges() >= 100_000,
        "workload should be ~100k edges"
    );

    let mut fresh = Session::builder(&graph)
        .machines(8)
        .seed(1)
        .build()
        .unwrap();
    let run_stream = |session: &mut Session<'_>| -> Vec<Response> {
        (0..QUERIES as VertexId)
            .map(|s| session.query(&mc_query(s)).unwrap())
            .collect()
    };
    let fresh_responses = run_stream(&mut fresh);

    let mut indexed = Session::builder(&graph)
        .machines(8)
        .seed(1)
        .walk_index(WalkIndexConfig::default())
        .build()
        .unwrap();
    let indexed_responses = run_stream(&mut indexed);

    // ---------------------------------------------------------------- accuracy
    let mut fresh_overlap = 0.0;
    let mut indexed_overlap = 0.0;
    for source in 0..SCORED as VertexId {
        let exact = personalized_pagerank(
            &graph,
            &single_source_restart(graph.num_vertices(), source),
            0.15,
            200,
            1e-9,
        );
        fresh_overlap +=
            exact_identification(&fresh_responses[source as usize].estimate, &exact.scores, K);
        indexed_overlap += exact_identification(
            &indexed_responses[source as usize].estimate,
            &exact.scores,
            K,
        );
    }
    fresh_overlap /= SCORED as f64;
    indexed_overlap /= SCORED as f64;
    assert!(
        indexed_overlap >= fresh_overlap - 0.05,
        "matched accuracy: indexed top-{K} overlap {indexed_overlap:.3} fell more than \
         5% below the fresh-walk baseline {fresh_overlap:.3}"
    );

    // ------------------------------------------------------------- accounting
    // The economics behind the speed-up, in deterministic work units: the fresh
    // stream samples every hop of every walk, while the indexed stream samples one
    // fresh hop per segment miss — at least an order of magnitude less sampling work,
    // independent of machine load.
    let stats = indexed.stats();
    assert!(
        stats.totals.index_misses * 10 <= fresh.stats().totals.walk_hops,
        "indexed sampling work {} should be well under a tenth of fresh {}",
        stats.totals.index_misses,
        fresh.stats().totals.walk_hops
    );
    assert!(stats.index_served_queries >= QUERIES as u64);
    assert!(stats.totals.index_hits > 0);
    assert!(stats.index_build_seconds > 0.0);
    assert!(stats.amortized_index_build_seconds() <= stats.index_build_seconds / 10.0);
    for response in &indexed_responses {
        assert!(response.cost.index_served);
        assert_eq!(response.cost.network_bytes, 0);
        assert!((response.estimate.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}

#[test]
fn sessions_without_an_index_are_bit_identical_to_the_plain_path() {
    let graph = test_graph();
    let fw = FrogWildConfig {
        num_walkers: 20_000,
        iterations: 4,
        sync_probability: 0.7,
        ..FrogWildConfig::default()
    };
    let queries = [
        Query::TopK { k: K, config: fw },
        mc_query(3),
        Query::Ppr {
            source: 3,
            k: K,
            teleport_probability: 0.15,
            method: PprMethod::ForwardPush { epsilon: 1e-6 },
        },
    ];

    // Two sessions built identically, neither enabling the index: every response is
    // equal bit for bit — and the serial PPR answers equal the session-free serve_ppr
    // path, pinning that the subsystem is strictly additive when disabled.
    let mut a = Session::builder(&graph)
        .machines(8)
        .seed(5)
        .build()
        .unwrap();
    let mut b = Session::builder(&graph)
        .machines(8)
        .seed(5)
        .build()
        .unwrap();
    for query in &queries {
        let ra = a.query(query).unwrap();
        let rb = b.query(query).unwrap();
        assert_eq!(ra, rb);
        assert!(!ra.cost.index_served);
        assert_eq!(ra.cost.index_hits, 0);
        if let Query::Ppr {
            source,
            k,
            teleport_probability,
            method,
        } = *query
        {
            let direct =
                frogwild::session::serve_ppr(&graph, source, k, teleport_probability, method)
                    .unwrap();
            assert_eq!(ra.estimate, direct.estimate);
            assert_eq!(ra.ranking, direct.ranking);
        }
    }
    assert_eq!(a.stats().index_served_queries, 0);
    assert_eq!(a.stats().index_build_seconds, 0.0);
}

#[test]
fn index_builds_are_deterministic_and_respect_the_memory_budget() {
    let graph = test_graph();
    let base = WalkIndexConfig {
        segments_per_vertex: 6,
        segment_length: 5,
        seed: 42,
        ..WalkIndexConfig::default()
    };
    let build = |machines: usize, config: &WalkIndexConfig| {
        let pg = partition_graph(&graph, &ClusterConfig::new(machines, config.seed));
        build_walk_index(&graph, &pg, config).unwrap()
    };
    let (reference, _) = build(1, &base);
    for machines in [4usize, 8] {
        let (other, report) = build(machines, &base);
        assert_eq!(reference, other, "machines={machines}");
        assert_eq!(report.machines, machines);
    }

    // A budget that only fits half the requested segments shrinks R, never L.
    let budgeted = WalkIndexConfig {
        memory_budget_bytes: base.estimated_bytes(graph.num_vertices(), 3),
        ..base
    };
    let (index, report) = build(4, &budgeted);
    assert_eq!(report.effective_segments, 3);
    assert_eq!(index.segment_length(), 5);
    assert!(index.memory_bytes() <= budgeted.memory_budget_bytes);

    // And identical queries against identical indexes answer identically.
    let mut s1 = Session::builder(&graph)
        .machines(4)
        .seed(9)
        .walk_index(base)
        .build()
        .unwrap();
    let mut s2 = Session::builder(&graph)
        .machines(8)
        .seed(9)
        .walk_index(base)
        .build()
        .unwrap();
    let q = mc_query(17);
    let r1 = s1.query(&q).unwrap();
    let r2 = s2.query(&q).unwrap();
    // Different machine counts partition differently but generate identical segments,
    // so the served estimates (and every deterministic cost field) agree.
    assert_eq!(r1.estimate, r2.estimate);
    assert_eq!(r1.cost.index_hits, r2.cost.index_hits);
    assert_eq!(r1.cost.walk_hops, r2.cost.walk_hops);
}

#[test]
fn indexed_topk_finds_the_same_head_as_the_engine() {
    let graph = test_graph();
    let truth = exact_pagerank(&graph, 0.15, 100, 1e-10);
    let fw = FrogWildConfig {
        num_walkers: 100_000,
        iterations: 5,
        ..FrogWildConfig::default()
    };
    let mut indexed = Session::builder(&graph)
        .machines(8)
        .seed(2)
        .walk_index(WalkIndexConfig::default())
        .build()
        .unwrap();
    let response = indexed.query(&Query::TopK { k: 30, config: fw }).unwrap();
    assert!(response.cost.index_served);
    assert_eq!(response.cost.supersteps, 0);
    let mass = mass_captured(&response.estimate, &truth.scores, 30).normalized();
    assert!(mass > 0.8, "index-served top-k captured only {mass}");
}
