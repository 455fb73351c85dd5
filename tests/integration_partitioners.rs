//! Cross-crate integration: every vertex-cut ingress strategy produces a valid
//! partitioned graph, and the FrogWild / PageRank results are *correct* regardless of
//! which partitioner laid the data out — only the cost changes.

use frogwild::prelude::*;
use frogwild_engine::PartitionedGraph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn test_graph(n: usize, seed: u64) -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    frogwild_graph::generators::twitter_like(n, &mut rng)
}

#[test]
fn every_partitioner_produces_a_valid_partitioned_graph() {
    let graph = test_graph(1_500, 3);
    for machines in [4usize, 16] {
        for partitioner in PartitionerKind::ALL {
            let name = partitioner.name();
            let pg = PartitionedGraph::build(&graph, machines, partitioner, 7);
            pg.validate()
                .unwrap_or_else(|e| panic!("{name} on {machines} machines: {e}"));
            assert_eq!(pg.num_vertices(), graph.num_vertices());
            assert_eq!(pg.num_edges(), graph.num_edges());
            assert_eq!(pg.num_machines(), machines);
            let rf = pg.placement().replication_factor();
            assert!(
                rf >= 1.0 - 1e-12 && rf <= machines as f64 + 1e-12,
                "{name}: replication factor {rf} out of range"
            );
        }
    }
}

#[test]
fn pagerank_result_is_independent_of_the_partitioner() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    // The data layout must never change the numbers the engine computes — only the
    // traffic needed to compute them. Exact PageRank is deterministic, so the estimates
    // across partitioners must agree to floating-point noise.
    let graph = test_graph(1_200, 5);
    let truth = exact_pagerank(&graph, 0.15, 200, 1e-12);
    let config = PageRankConfig {
        max_iterations: 30,
        tolerance: 1e-9,
        ..PageRankConfig::default()
    };
    let mut estimates = Vec::new();
    for partitioner in PartitionerKind::ALL {
        let name = partitioner.name();
        let pg = PartitionedGraph::build(&graph, 12, partitioner, 9);
        let report = run_graphlab_pr(&pg, &config, &exec, &off).unwrap();
        let mass = mass_captured(&report.estimate, &truth.scores, 50).normalized();
        assert!(mass > 0.99, "{name}: mass {mass}");
        estimates.push((name, report.estimate));
    }
    let (_, reference) = &estimates[0];
    for (name, estimate) in &estimates[1..] {
        let diff = frogwild::metrics::l1_distance(reference, estimate);
        assert!(
            diff < 1e-6,
            "{name}: l1 distance to reference layout {diff}"
        );
    }
}

#[test]
fn frogwild_accuracy_holds_across_partitioners_and_costs_track_replication() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    let graph = test_graph(2_000, 13);
    let truth = exact_pagerank(&graph, 0.15, 200, 1e-12);
    let k = 50;
    let config = FrogWildConfig {
        num_walkers: 60_000,
        iterations: 4,
        sync_probability: 0.7,
        ..FrogWildConfig::default()
    };

    let mut by_name = Vec::new();
    for partitioner in PartitionerKind::ALL {
        let name = partitioner.name();
        let pg = PartitionedGraph::build(&graph, 16, partitioner, 21);
        let report = run_frogwild(&pg, &config, &exec, &off).unwrap();
        let mass = mass_captured(&report.estimate, &truth.scores, k).normalized();
        // High-replication layouts (random, hybrid sources) lose more accuracy under
        // partial synchronization because the even-split scatter divides walkers across
        // more replicas with fewer local edges each — the same correlation effect
        // Theorem 1 charges to (1 - p_s²). Low-replication ingress stays near the top.
        let floor = if name == "oblivious" || name == "hdrf" {
            0.8
        } else {
            0.6
        };
        assert!(mass > floor, "{name}: mass {mass}");
        by_name.push((
            name,
            pg.placement().replication_factor(),
            report.cost.network_bytes,
        ));
    }

    // Replication factor and synchronization traffic move together: the partitioner
    // with the highest replication must not produce less traffic than the one with the
    // lowest (the engine synchronizes one cached copy per mirror).
    let (max_name, _, max_bytes) = by_name
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    let (min_name, _, min_bytes) = by_name
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    assert!(
        max_bytes >= min_bytes,
        "{max_name} (highest replication, {max_bytes} bytes) vs {min_name} (lowest, {min_bytes} bytes)"
    );
}

#[test]
fn partial_sync_saves_traffic_under_every_partitioner() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    let graph = test_graph(1_500, 17);
    for partitioner in PartitionerKind::ALL {
        let name = partitioner.name();
        let pg = PartitionedGraph::build(&graph, 12, partitioner, 31);
        let base = FrogWildConfig {
            num_walkers: 30_000,
            iterations: 4,
            ..FrogWildConfig::default()
        };
        let full = run_frogwild(&pg, &base, &exec, &off).unwrap();
        let partial = run_frogwild(
            &pg,
            &FrogWildConfig {
                sync_probability: 0.1,
                ..base
            },
            &exec,
            &off,
        )
        .unwrap();
        assert!(
            partial.cost.network_bytes < full.cost.network_bytes,
            "{name}: ps=0.1 {} bytes vs ps=1 {} bytes",
            partial.cost.network_bytes,
            full.cost.network_bytes
        );
        assert!(partial.cost.skipped_syncs > 0, "{name}: no syncs skipped");
    }
}
