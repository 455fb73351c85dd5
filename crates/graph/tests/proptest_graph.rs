//! Property-based tests for the graph substrate: CSR invariants, builder behaviour,
//! and I/O round trips hold for arbitrary edge lists.

use frogwild_graph::io::{read_edge_list, write_edge_list, EdgeListOptions};
use frogwild_graph::sparsify::uniform_sparsify;
use frogwild_graph::{DiGraph, GraphBuilder, GraphError, VertexId};
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

/// The edges a graph built from `edges` must hold, spelled out one rule after the
/// other: sorted, deduplicated if asked, and with a self-loop on every sink if asked.
fn rows_naively(
    n: usize,
    edges: &[(VertexId, VertexId)],
    dedup: bool,
    loop_sinks: bool,
) -> Result<Vec<(VertexId, VertexId)>, GraphError> {
    if let Some(&(s, d)) = edges
        .iter()
        .find(|&&(s, d)| s as usize >= n || d as usize >= n)
    {
        return Err(GraphError::VertexOutOfBounds {
            vertex: s.max(d) as u64,
            num_vertices: n as u64,
        });
    }
    let mut rows = edges.to_vec();
    if loop_sinks {
        let sinks: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| edges.iter().all(|&(s, _)| s != v))
            .collect();
        rows.extend(sinks.iter().map(|&v| (v, v)));
    }
    rows.sort_unstable();
    if dedup {
        rows.dedup();
    }
    Ok(rows)
}

proptest! {
    #[test]
    fn builder_policies_match_from_edges_applied_naively(
        (n, mut edges) in arb_graph_input(),
        stray in 0usize..6,
        at in any::<usize>(),
    ) {
        // One input in six has an edge that overshoots the vertex count.
        if stray == 0 && !edges.is_empty() {
            let at = at % edges.len();
            edges[at].1 += n as VertexId;
        }
        // The builder gives sinks a self-loop, with and without `dedup`.
        for dedup in [false, true] {
            let mut b = GraphBuilder::new(n);
            for &(s, d) in &edges {
                b.add_edge(s, d);
            }
            let built = b.dedup(dedup).build();
            let expected = rows_naively(n, &edges, dedup, true);
            match (built, expected) {
                (Ok(built), Ok(expected)) => {
                    prop_assert!(built.validate().is_ok());
                    prop_assert_eq!(built.edge_vec(), expected, "dedup {}", dedup);
                }
                (
                    Err(GraphError::VertexOutOfBounds { vertex: bv, num_vertices: bn }),
                    Err(GraphError::VertexOutOfBounds { vertex: ev, num_vertices: en }),
                ) => prop_assert_eq!((bv, bn), (ev, en), "dedup {}", dedup),
                (built, expected) => panic!("dedup {dedup}: built {built:?}, expected {expected:?}"),
            }
        }
        // `DiGraph::from_edges` keeps the sinks and the duplicates.
        if let Ok(expected) = rows_naively(n, &edges, false, false) {
            let kept = DiGraph::from_edges(n, &edges);
            prop_assert!(kept.validate().is_ok());
            prop_assert_eq!(kept.edge_vec(), expected);
        }
    }

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
        for (s, d) in edges {
            b.add_edge(s, d);
        }
        let g = b.build().unwrap();
        prop_assert!(g.has_no_dangling());
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn builder_dedup_is_idempotent((n, edges) in arb_graph_input()) {
        let build = |input: &[(VertexId, VertexId)]| {
            let mut b = GraphBuilder::new(n);
            for &(s, d) in input {
                b.add_edge(s, d);
            }
            b.dedup(true).build().unwrap()
        };
        let once = build(&edges);
        let twice = build(&once.edge_vec());
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn edge_list_io_round_trip((n, edges) in arb_graph_input()) {
        // A graph as the reader builds them: no duplicates and no sinks, so every vertex
        // is written and comes back, under a dense id of its own.
        let mut b = GraphBuilder::new(n);
        for &(s, d) in &edges {
            b.add_edge(s, d);
        }
        let g = b.dedup(true).build().unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let (restored, labels) = read_edge_list(buf.as_slice(), &EdgeListOptions::default()).unwrap();
        prop_assert_eq!(restored.num_vertices(), n);
        let mut actual: Vec<(VertexId, VertexId)> = (restored.edges())
            .map(|(s, d)| (labels[s as usize] as VertexId, labels[d as usize] as VertexId))
            .collect();
        actual.sort_unstable();
        prop_assert_eq!(actual, g.edge_vec());
    }

    #[test]
    fn sparsify_produces_subset_and_respects_probability(
        (n, edges) in arb_graph_input(),
        keep in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let g = DiGraph::from_edges(n, &edges);
        let mut rng = SmallRng::seed_from_u64(seed);
        let s = uniform_sparsify(&g, keep, &mut rng);
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
}
