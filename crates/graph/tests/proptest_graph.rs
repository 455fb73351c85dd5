//! Property-based tests for the graph substrate: CSR invariants, builder behaviour,
//! and I/O round trips hold for arbitrary edge lists.

use frogwild_graph::io::{read_edge_list, write_edge_list, EdgeListOptions};
use frogwild_graph::sparsify::uniform_sparsify;
use frogwild_graph::{DanglingPolicy, DiGraph, GraphBuilder, GraphError, VertexId};
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

/// `GraphBuilder`'s policies spelled out one after the other on the edge list, with
/// `DiGraph::from_edges` — every policy off — as the only constructor.
fn build_naively(
    n: usize,
    edges: &[(VertexId, VertexId)],
    dedup: bool,
    remove_self_loops: bool,
    dangling: DanglingPolicy,
) -> Result<DiGraph, GraphError> {
    if let Some(&(s, d)) = edges
        .iter()
        .find(|&&(s, d)| s as usize >= n || d as usize >= n)
    {
        return Err(GraphError::VertexOutOfBounds {
            vertex: s.max(d) as u64,
            num_vertices: n as u64,
        });
    }
    let mut edges = edges.to_vec();
    if remove_self_loops {
        edges.retain(|&(s, d)| s != d);
    }
    if dedup {
        edges.sort_unstable();
        edges.dedup();
    }
    let dangling_vertices: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| edges.iter().all(|&(s, _)| s != v))
        .collect();
    match dangling {
        DanglingPolicy::SelfLoop => edges.extend(dangling_vertices.iter().map(|&v| (v, v))),
        DanglingPolicy::Error => {
            if let Some(&vertex) = dangling_vertices.first() {
                return Err(GraphError::DanglingVertex { vertex });
            }
        }
        DanglingPolicy::Keep => {}
    }
    Ok(DiGraph::from_edges(n, &edges))
}

/// Every `dedup` × `remove_self_loops` × `DanglingPolicy` setting of the builder.
fn policy_combinations() -> Vec<(bool, bool, DanglingPolicy)> {
    let mut combinations = Vec::new();
    for dedup in [false, true] {
        for remove_self_loops in [false, true] {
            for dangling in [
                DanglingPolicy::SelfLoop,
                DanglingPolicy::Error,
                DanglingPolicy::Keep,
            ] {
                combinations.push((dedup, remove_self_loops, dangling));
            }
        }
    }
    combinations
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
        for (dedup, remove_self_loops, dangling) in policy_combinations() {
            let mut b = GraphBuilder::new(n);
            let built = b.extend_edges(edges.iter().copied()).and_then(|()| {
                b.dedup(dedup)
                    .remove_self_loops(remove_self_loops)
                    .dangling_policy(dangling)
                    .build()
            });
            let expected = build_naively(n, &edges, dedup, remove_self_loops, dangling);
            let case = format!("dedup {dedup}, remove_self_loops {remove_self_loops}, {dangling:?}");
            match (built, expected) {
                (Ok(built), Ok(expected)) => prop_assert_eq!(built, expected, "{}", case),
                (
                    Err(GraphError::DanglingVertex { vertex: built }),
                    Err(GraphError::DanglingVertex { vertex: expected }),
                ) => prop_assert_eq!(built, expected, "{}", case),
                (
                    Err(GraphError::VertexOutOfBounds { vertex: bv, num_vertices: bn }),
                    Err(GraphError::VertexOutOfBounds { vertex: ev, num_vertices: en }),
                ) => prop_assert_eq!((bv, bn), (ev, en), "{}", case),
                (built, expected) => panic!("{case}: built {built:?}, expected {expected:?}"),
            }
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
