//! Mutable construction of [`DiGraph`] values.
//!
//! [`GraphBuilder`] accumulates edges, optionally deduplicates them, gives every vertex
//! with no successor a self-loop (the paper's analysis assumes `d_out(j) > 0` for every
//! `j`), and produces an immutable CSR graph.

use crate::csr::{DiGraph, VertexId};
use crate::Result;

/// Incremental builder for [`DiGraph`].
///
/// ```
/// use frogwild_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(1, 2); // duplicate
/// let g = b.dedup(true).build().unwrap();
/// assert_eq!(g.num_edges(), 3); // 0->1, 1->2, and the self-loop added to vertex 2
/// assert!(g.has_no_dangling());
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
    dedup: bool,
}

impl GraphBuilder {
    /// A builder for a graph with `num_vertices` vertices and no edges yet.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            edges: Vec::new(),
            dedup: false,
        }
    }

    /// Pre-allocates room for `n` additional edges.
    pub fn with_edge_capacity(mut self, n: usize) -> Self {
        self.edges.reserve(n);
        self
    }

    /// Number of vertices the final graph will have (the sinks' self-loops never add
    /// vertices).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges currently accumulated.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a directed edge `src -> dst`. Its bounds are checked by [`build`](Self::build).
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        self.edges.push((src, dst));
    }

    /// Whether duplicate edges should be collapsed to a single edge (default: `false`).
    pub fn dedup(mut self, yes: bool) -> Self {
        self.dedup = yes;
        self
    }

    /// Freezes the accumulated edges into an immutable [`DiGraph`].
    ///
    /// Hands the one edge vector to the row-wise CSR constructor [`DiGraph::from_edges`]
    /// also uses: edges are bounds-checked (the first one out of range, in the order they
    /// were added, is [`GraphError::VertexOutOfBounds`](crate::GraphError::VertexOutOfBounds)),
    /// rows sorted and deduplicated if asked, and every vertex left without a successor
    /// given a self-loop.
    pub fn build(self) -> Result<DiGraph> {
        DiGraph::from_edge_rows(self.num_vertices, &self.edges, self.dedup, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphError;

    fn builder_with(n: usize, edges: &[(VertexId, VertexId)]) -> GraphBuilder {
        let mut b = GraphBuilder::new(n);
        for &(s, d) in edges {
            b.add_edge(s, d);
        }
        b
    }

    #[test]
    fn basic_build() {
        let g = builder_with(3, &[(0, 1), (1, 2), (2, 0)]).build().unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_no_dangling());
    }

    #[test]
    fn out_of_bounds_rejected_at_build() {
        let b = builder_with(2, &[(0, 1), (0, 5), (7, 0)]);
        let err = b.build().unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfBounds {
                vertex: 5,
                num_vertices: 2
            }
        ));
    }

    #[test]
    fn dedup_collapses_duplicates() {
        let b = builder_with(2, &[(0, 1), (0, 1), (0, 1), (1, 0)]);
        let g = b.dedup(true).build().unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn duplicates_kept_without_dedup() {
        let g = builder_with(2, &[(0, 1), (0, 1), (1, 0)]).build().unwrap();
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn self_loop_policy_fixes_dangling() {
        let g = builder_with(3, &[(0, 2), (1, 2)]).build().unwrap();
        assert!(g.has_no_dangling());
        assert!(g.has_edge(2, 2));
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn empty_builder_with_selfloop_policy_gives_all_self_loops() {
        let g = GraphBuilder::new(4).build().unwrap();
        assert_eq!(g.num_edges(), 4);
        for v in 0..4 {
            assert!(g.has_edge(v, v));
        }
    }

    #[test]
    fn capacity_hint_does_not_change_result() {
        let mut b = GraphBuilder::new(2).with_edge_capacity(100);
        b.add_edge(0, 1);
        assert_eq!(b.num_edges(), 1);
        assert_eq!(b.num_vertices(), 2);
    }
}
