//! Small deterministic graphs used in unit tests and documentation examples.

use crate::builder::GraphBuilder;
use crate::csr::{DiGraph, VertexId};

/// A directed path `0 -> 1 -> ... -> n-1`, with a self-loop on the final vertex so the
/// graph has no dangling vertices.
pub fn path(n: usize) -> DiGraph {
    assert!(n > 0, "path requires at least one vertex");
    let mut b = GraphBuilder::new(n);
    for v in 0..n - 1 {
        b.add_edge(v as VertexId, (v + 1) as VertexId);
    }
    // lint:allow(panic, generator edges are in range by construction)
    b.build().unwrap()
}

/// A directed cycle `0 -> 1 -> ... -> n-1 -> 0`.
pub fn cycle(n: usize) -> DiGraph {
    assert!(n > 0, "cycle requires at least one vertex");
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        b.add_edge(v as VertexId, ((v + 1) % n) as VertexId);
    }
    // lint:allow(panic, generator edges are in range by construction)
    b.build().unwrap()
}

/// A star with the hub at vertex `0`: every leaf points at the hub and the hub points at
/// every leaf (so the hub accumulates PageRank mass — the canonical "one heavy vertex"
/// test graph).
// lint:allow(orphan-pub, oracle for engine_pagerank_matches_reference_on_structured_graphs)
pub fn star(n: usize) -> DiGraph {
    assert!(n >= 2, "star requires at least two vertices");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(v as VertexId, 0);
        b.add_edge(0, v as VertexId);
    }
    // lint:allow(panic, generator edges are in range by construction)
    b.build().unwrap()
}

/// The complete directed graph on `n` vertices (no self-loops): every ordered pair is an
/// edge. PageRank on this graph is exactly uniform, which makes it a useful calibration
/// case for the estimators.
pub fn complete(n: usize) -> DiGraph {
    assert!(n >= 2, "complete graph requires at least two vertices");
    let mut b = GraphBuilder::new(n).with_edge_capacity(n * (n - 1));
    for s in 0..n {
        for d in 0..n {
            if s != d {
                b.add_edge(s as VertexId, d as VertexId);
            }
        }
    }
    // lint:allow(panic, generator edges are in range by construction)
    b.build().unwrap()
}

/// Two densely connected communities of `size` vertices each, joined by a single bridge
/// edge in each direction. Vertices `0..size` form community A, `size..2*size` community
/// B. Useful for partitioning tests (a good vertex-cut should not split communities) and
/// for checking that PageRank mass distributes across both communities.
// lint:allow(orphan-pub, oracle for engine_pagerank_matches_reference_on_structured_graphs)
pub fn two_communities(size: usize) -> DiGraph {
    assert!(size >= 2, "communities need at least two vertices each");
    let n = 2 * size;
    let mut b = GraphBuilder::new(n);
    for offset in [0, size] {
        for s in 0..size {
            for d in 0..size {
                if s != d {
                    b.add_edge((offset + s) as VertexId, (offset + d) as VertexId);
                }
            }
        }
    }
    // bridges between the communities
    b.add_edge(0, size as VertexId);
    b.add_edge(size as VertexId, 0);
    // lint:allow(panic, generator edges are in range by construction)
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 5); // 4 path edges + terminal self-loop
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(4, 4));
        assert!(g.has_no_dangling());
    }

    #[test]
    fn single_vertex_path_is_self_loop() {
        let g = path(1);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 0));
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(4);
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_edge(3, 0));
        assert!(g.has_no_dangling());
        for v in g.vertices() {
            assert_eq!(g.out_degree(v), 1);
            assert_eq!(g.in_degree(v), 1);
        }
    }

    #[test]
    fn star_hub_has_high_degree() {
        let g = star(10);
        assert_eq!(g.out_degree(0), 9);
        assert_eq!(g.in_degree(0), 9);
        for v in 1..10 {
            assert_eq!(g.out_degree(v), 1);
            assert_eq!(g.in_degree(v), 1);
        }
    }

    #[test]
    fn complete_shape() {
        let g = complete(5);
        assert_eq!(g.num_edges(), 20);
        for v in g.vertices() {
            assert_eq!(g.out_degree(v), 4);
            assert_eq!(g.in_degree(v), 4);
            assert!(!g.has_edge(v, v));
        }
    }

    #[test]
    fn two_communities_shape() {
        let size = 4;
        let g = two_communities(size);
        assert_eq!(g.num_vertices(), 8);
        // each community is complete: size*(size-1) edges, plus 2 bridges
        assert_eq!(g.num_edges(), 2 * size * (size - 1) + 2);
        assert!(g.has_edge(0, size as u32));
        assert!(g.has_edge(size as u32, 0));
        assert!(!g.has_edge(1, (size + 1) as u32));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn star_requires_two_vertices() {
        let _ = star(1);
    }
}
