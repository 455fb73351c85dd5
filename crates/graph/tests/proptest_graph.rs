//! Property-based tests for the graph substrate: CSR invariants, builder behaviour,
//! and I/O round trips hold for arbitrary edge lists.

use frogwild_graph::generators::power_law_weights;
use frogwild_graph::io::{read_edge_list, write_edge_list, EdgeListOptions};
use frogwild_graph::sparsify::{uniform_sparsify, SparsifyMode};
use frogwild_graph::{DanglingPolicy, DiGraph, GraphBuilder, VertexId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Strategy: a vertex count and a set of edges valid for it.
fn arb_graph_input() -> impl Strategy<Value = (usize, Vec<(VertexId, VertexId)>)> {
    (2usize..60).prop_flat_map(|n| {
        let edge = (0..n as VertexId, 0..n as VertexId);
        (Just(n), proptest::collection::vec(edge, 0..200))
    })
}

proptest! {
    #[test]
    fn csr_invariants_hold_for_arbitrary_edges((n, edges) in arb_graph_input()) {
        let g = DiGraph::from_edges(n, &edges);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.num_vertices(), n);
        prop_assert_eq!(g.num_edges(), edges.len());
        // Degree sums both equal the edge count.
        let out_sum: usize = g.vertices().map(|v| g.out_degree(v)).sum();
        let in_sum: usize = g.vertices().map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_sum, edges.len());
        prop_assert_eq!(in_sum, edges.len());
    }

    #[test]
    fn edge_iteration_round_trips((n, edges) in arb_graph_input()) {
        let g = DiGraph::from_edges(n, &edges);
        let mut expected = edges.clone();
        expected.sort_unstable();
        let mut actual = g.edge_vec();
        actual.sort_unstable();
        prop_assert_eq!(actual, expected);
    }

    #[test]
    fn builder_selfloop_policy_always_eliminates_dangling((n, edges) in arb_graph_input()) {
        let mut b = GraphBuilder::new(n);
        b.extend_edges(edges).unwrap();
        let g = b.dangling_policy(DanglingPolicy::SelfLoop).build().unwrap();
        prop_assert!(g.has_no_dangling());
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn builder_dedup_is_idempotent((n, edges) in arb_graph_input()) {
        let build = |input: &[(VertexId, VertexId)]| {
            let mut b = GraphBuilder::new(n);
            b.extend_edges(input.iter().copied()).unwrap();
            b.dedup(true).dangling_policy(DanglingPolicy::Keep).build().unwrap()
        };
        let once = build(&edges);
        let twice = build(&once.edge_vec());
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn edge_list_io_round_trip((n, edges) in arb_graph_input()) {
        let g = DiGraph::from_edges(n, &edges);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let options = EdgeListOptions {
            relabel: false,
            dedup: false,
            dangling: DanglingPolicy::Keep,
            ..EdgeListOptions::default()
        };
        let (restored, _) = read_edge_list(buf.as_slice(), &options).unwrap();
        // The writer only records vertices that occur in edges; isolated trailing
        // vertices are lost, so compare on the common prefix dimension.
        if g.num_edges() == 0 {
            prop_assert_eq!(restored.num_edges(), 0);
        } else {
            let mut expected = g.edge_vec();
            expected.sort_unstable();
            let mut actual = restored.edge_vec();
            actual.sort_unstable();
            prop_assert_eq!(actual, expected);
        }
    }

    #[test]
    fn sparsify_produces_subset_and_respects_probability(
        (n, edges) in arb_graph_input(),
        keep in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let g = DiGraph::from_edges(n, &edges);
        let mut rng = SmallRng::seed_from_u64(seed);
        let s = uniform_sparsify(&g, keep, SparsifyMode::KeepAtLeastOne, &mut rng);
        prop_assert_eq!(s.num_vertices(), g.num_vertices());
        prop_assert!(s.validate().is_ok());
        // Every non-self-loop edge of the sparsified graph existed in the original.
        for (src, dst) in s.edges() {
            prop_assert!(g.has_edge(src, dst) || src == dst);
        }
        // Keeping everything reproduces at least the original edge multiset size.
        if keep == 1.0 {
            prop_assert!(s.num_edges() >= g.num_edges());
        }
    }

    #[test]
    fn power_law_weights_are_positive_decreasing_and_normalised(
        n in 2usize..500,
        theta in 1.5f64..4.0,
        avg in 0.5f64..50.0,
    ) {
        let w = power_law_weights(n, theta, avg);
        prop_assert_eq!(w.len(), n);
        prop_assert!(w.iter().all(|&x| x > 0.0));
        prop_assert!(w.windows(2).all(|p| p[0] >= p[1]));
        let mean = w.iter().sum::<f64>() / n as f64;
        prop_assert!((mean - avg).abs() < 1e-6 * avg.max(1.0));
    }
}
