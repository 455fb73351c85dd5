//! Property-based tests for the engine layer: partitioning and placement invariants
//! hold for arbitrary graphs, machine counts and seeds, and the deterministic
//! randomness primitives behave like proper probabilities.

use frogwild_engine::rng;
use frogwild_engine::{PartitionedGraph, PartitionerKind};
use frogwild_graph::{DiGraph, VertexId};
use proptest::prelude::*;

/// Strategy: a vertex count and a set of edges valid for it (kept modest so the
/// oblivious partitioner's O(E·M) loop stays fast under shrinking).
fn arb_graph_input() -> impl Strategy<Value = (usize, Vec<(VertexId, VertexId)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edge = (0..n as VertexId, 0..n as VertexId);
        (Just(n), proptest::collection::vec(edge, 1..150))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_partitioner_covers_every_edge_exactly_once(
        (n, edges) in arb_graph_input(),
        machines in 1usize..12,
        seed in any::<u64>(),
    ) {
        let graph = DiGraph::from_edges(n, &edges);
        for partitioner in PartitionerKind::ALL {
            let name = partitioner.name();
            let assignment = partitioner.assign(&graph, machines, seed);
            prop_assert_eq!(assignment.machines.len(), graph.num_edges(), "{}", name);
            prop_assert!(assignment.machines.iter().all(|m| m.index() < machines), "{}", name);
            prop_assert_eq!(
                assignment.edges_per_machine().iter().sum::<usize>(),
                graph.num_edges(),
                "{}", name
            );
        }
    }

    #[test]
    fn partitioned_graph_layout_is_always_consistent(
        (n, edges) in arb_graph_input(),
        machines in 1usize..12,
        seed in any::<u64>(),
    ) {
        let graph = DiGraph::from_edges(n, &edges);
        for partitioner in PartitionerKind::ALL {
            let name = partitioner.name();
            let pg = PartitionedGraph::build(&graph, machines, partitioner, seed);
            prop_assert!(pg.validate().is_ok(), "{}: {:?}", name, pg.validate());
            let rf = pg.placement().replication_factor();
            prop_assert!(rf >= 1.0 - 1e-12, "{name}: rf {rf}");
            prop_assert!(rf <= machines as f64 + 1e-12, "{name}: rf {rf}");
            // Every vertex has exactly one master, and it is one of its replicas.
            for v in graph.vertices() {
                let master = pg.placement().master(v);
                prop_assert!(pg.placement().replicas(v).contains(&master));
                prop_assert!(pg.placement().replicas(v).windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn local_shard_edges_reconstruct_the_graph(
        (n, edges) in arb_graph_input(),
        machines in 1usize..8,
        seed in any::<u64>(),
    ) {
        let graph = DiGraph::from_edges(n, &edges);
        let pg = PartitionedGraph::build(&graph, machines, PartitionerKind::Oblivious, seed);
        let mut reconstructed: Vec<(VertexId, VertexId)> = Vec::new();
        for shard in pg.shards() {
            for local in 0..shard.num_local_vertices() as u32 {
                let src = shard.global_id(local);
                for &dst in shard.local_out_neighbors(local) {
                    reconstructed.push((src, dst));
                }
            }
        }
        reconstructed.sort_unstable();
        let mut expected = graph.edge_vec();
        expected.sort_unstable();
        prop_assert_eq!(reconstructed, expected);
    }

    #[test]
    fn coin_is_deterministic_and_respects_extremes(
        p in 0.0f64..=1.0,
        components in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        let a = rng::coin(p, &components);
        let b = rng::coin(p, &components);
        prop_assert_eq!(a, b);
        if p == 0.0 { prop_assert!(!a); }
        if p == 1.0 { prop_assert!(a); }
    }

    #[test]
    fn pick_index_is_in_range_and_deterministic(
        n in 1usize..1000,
        components in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        let a = rng::pick_index(n, &components);
        prop_assert!(a < n);
        prop_assert_eq!(a, rng::pick_index(n, &components));
    }
}
