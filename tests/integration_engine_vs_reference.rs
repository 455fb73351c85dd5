//! Cross-crate integration tests: the distributed engine's PageRank must agree with the
//! serial reference implementation, independent of cluster size and partitioner.

use frogwild::metrics::{l1_distance, mass_captured};
use frogwild::prelude::*;
use frogwild::programs::PageRankProgram;
use frogwild_engine::{Engine, EngineConfig, InitialActivation, PartitionedGraph};
use frogwild_graph::generators::simple::{complete, cycle, star, two_communities};
use frogwild_graph::generators::{livejournal_like, rmat, RmatParams};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn normalized_engine_pagerank(graph: &DiGraph, machines: usize, iterations: usize) -> Vec<f64> {
    let mut session = Session::builder(graph)
        .machines(machines)
        .seed(99)
        .build()
        .unwrap();
    let response = session
        .query(&Query::Pagerank {
            k: 10,
            config: frogwild::PageRankConfig {
                max_iterations: iterations,
                tolerance: 1e-12,
                ..frogwild::PageRankConfig::default()
            },
        })
        .unwrap();
    response.estimate
}

#[test]
fn engine_pagerank_matches_serial_reference_on_random_graph() {
    let mut rng = SmallRng::seed_from_u64(42);
    let graph = rmat(800, RmatParams::default(), &mut rng);
    let reference = exact_pagerank(&graph, 0.15, 200, 1e-13);
    for machines in [1usize, 4, 16] {
        let engine_scores = normalized_engine_pagerank(&graph, machines, 100);
        let distance = l1_distance(&engine_scores, &reference.scores);
        assert!(
            distance < 1e-6,
            "{machines} machines: l1 distance to reference {distance}"
        );
    }
}

#[test]
fn engine_pagerank_matches_reference_on_structured_graphs() {
    for graph in [cycle(64), star(100), complete(40), two_communities(30)] {
        let reference = exact_pagerank(&graph, 0.15, 300, 1e-13);
        let engine_scores = normalized_engine_pagerank(&graph, 6, 150);
        let distance = l1_distance(&engine_scores, &reference.scores);
        assert!(distance < 1e-6, "l1 distance {distance}");
    }
}

#[test]
fn engine_pagerank_is_invariant_to_partitioner_choice() {
    let mut rng = SmallRng::seed_from_u64(7);
    let graph = livejournal_like(600, &mut rng);
    let config = frogwild::PageRankConfig {
        max_iterations: 40,
        tolerance: 1e-12,
        ..frogwild::PageRankConfig::default()
    };
    let program = || PageRankProgram::new(&config).unwrap();
    let engine_config = EngineConfig {
        sync_probability: 1.0,
        max_supersteps: config.max_iterations,
        ..EngineConfig::default()
    };

    let mut results = Vec::new();
    for partitioner in PartitionerKind::ALL {
        let pg = PartitionedGraph::build(&graph, 8, partitioner, 11);
        let engine = Engine::new(&pg, program(), engine_config.clone()).unwrap();
        let out = engine.run(InitialActivation::AllVertices);
        let mut scores: Vec<f64> = out.states.iter().map(|s| s.rank).collect();
        frogwild::topk::normalize(&mut scores);
        results.push(scores);
    }
    for other in &results[1..] {
        let distance = l1_distance(&results[0], other);
        assert!(distance < 1e-9, "partitioners disagree by {distance}");
    }
}

#[test]
fn truncated_engine_pagerank_matches_truncated_power_iteration() {
    // Two iterations of the engine PageRank must equal two iterations of the GraphLab
    // recurrence computed directly (rank starts at 1.0, unnormalised).
    let mut rng = SmallRng::seed_from_u64(9);
    let graph = rmat(300, RmatParams::default(), &mut rng);
    let n = graph.num_vertices();

    // Direct recurrence.
    let mut rank = vec![1.0f64; n];
    for _ in 0..2 {
        let mut next = vec![0.15f64; n];
        for v in graph.vertices() {
            let share = 0.85 * rank[v as usize] / graph.out_degree(v) as f64;
            for &dst in graph.out_neighbors(v) {
                next[dst as usize] += share;
            }
        }
        rank = next;
    }
    let mut expected = rank;
    frogwild::topk::normalize(&mut expected);

    let engine_scores = normalized_engine_pagerank(&graph, 4, 2);
    let distance = l1_distance(&engine_scores, &expected);
    assert!(distance < 1e-9, "l1 distance {distance}");
}

#[test]
fn one_iteration_pagerank_ranks_by_weighted_in_degree() {
    // The paper notes that one iteration of PageRank "actually estimates only the
    // in-degree of a node": the 1-iteration ranking must coincide with the ranking by
    // Σ_{j -> i} 1/d_out(j).
    let mut rng = SmallRng::seed_from_u64(13);
    let graph = rmat(400, RmatParams::default(), &mut rng);
    let engine_scores = normalized_engine_pagerank(&graph, 4, 1);

    let weighted_in_degree: Vec<f64> = graph
        .vertices()
        .map(|v| {
            graph
                .in_neighbors(v)
                .iter()
                .map(|&u| 1.0 / graph.out_degree(u) as f64)
                .sum()
        })
        .collect();

    let k = 25;
    let m = mass_captured(&engine_scores, &weighted_in_degree, k);
    assert!(
        m.normalized() > 0.999,
        "1-iteration PR should order vertices like weighted in-degree, captured {}",
        m.normalized()
    );
}
