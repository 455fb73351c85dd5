//! Checked, mutable construction of [`DiGraph`] values.
//!
//! [`GraphBuilder`] accumulates edges, optionally deduplicates them, applies a
//! [`DanglingPolicy`] to vertices with no successors (the paper's analysis assumes
//! `d_out(j) > 0` for every `j`), and produces an immutable CSR graph.

use crate::csr::{DiGraph, VertexId};
use crate::{GraphError, Result};

/// What to do with vertices that end up with out-degree zero.
///
/// PageRank's transition matrix `P_ij = A_ij / d_out(j)` is undefined for dangling
/// vertices, so they must be handled before the algorithms run. GraphLab's PageRank
/// and most practical systems use a self-loop or an implicit uniform jump; we offer
/// both plus a strict mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DanglingPolicy {
    /// Add a self-loop `v -> v` to every dangling vertex. This is the default and is
    /// what the experiment drivers use: it keeps the graph structure local (no dense
    /// rows) and matches how the FrogWild implementation treats a frog stuck on a
    /// sink — it simply stays put until it dies.
    #[default]
    SelfLoop,
    /// Return [`GraphError::DanglingVertex`] if any vertex has no successor.
    Error,
    /// Leave dangling vertices untouched. Algorithms must then cope with them
    /// explicitly (the serial reference implementation redistributes their mass
    /// uniformly, the standard "dangling correction").
    Keep,
}

/// Incremental builder for [`DiGraph`].
///
/// ```
/// use frogwild_graph::{GraphBuilder, DanglingPolicy};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1).unwrap();
/// b.add_edge(1, 2).unwrap();
/// b.add_edge(1, 2).unwrap(); // duplicate
/// let g = b.dedup(true).dangling_policy(DanglingPolicy::SelfLoop).build().unwrap();
/// assert_eq!(g.num_edges(), 3); // 0->1, 1->2, and the self-loop added to vertex 2
/// assert!(g.has_no_dangling());
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
    dedup: bool,
    remove_self_loops: bool,
    dangling: DanglingPolicy,
}

impl GraphBuilder {
    /// A builder for a graph with `num_vertices` vertices and no edges yet.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            edges: Vec::new(),
            dedup: false,
            remove_self_loops: false,
            dangling: DanglingPolicy::default(),
        }
    }

    /// Pre-allocates room for `n` additional edges.
    pub fn with_edge_capacity(mut self, n: usize) -> Self {
        self.edges.reserve(n);
        self
    }

    /// Number of vertices the final graph will have (ignoring the dangling policy,
    /// which never adds vertices).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges currently accumulated.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a directed edge `src -> dst`, checking bounds.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) -> Result<()> {
        if (src as usize) >= self.num_vertices || (dst as usize) >= self.num_vertices {
            return Err(GraphError::VertexOutOfBounds {
                vertex: src.max(dst) as u64,
                num_vertices: self.num_vertices as u64,
            });
        }
        self.edges.push((src, dst));
        Ok(())
    }

    /// Adds a directed edge without bounds checking (the check happens again in
    /// `build`, so this only defers the error). Useful in hot generator loops where the
    /// generator guarantees validity.
    pub fn add_edge_unchecked(&mut self, src: VertexId, dst: VertexId) {
        debug_assert!((src as usize) < self.num_vertices);
        debug_assert!((dst as usize) < self.num_vertices);
        self.edges.push((src, dst));
    }

    /// Adds many edges at once.
    // lint:allow(orphan-pub, oracle for byte_reader_agrees_with_the_line_reader)
    pub fn extend_edges(
        &mut self,
        edges: impl IntoIterator<Item = (VertexId, VertexId)>,
    ) -> Result<()> {
        for (s, d) in edges {
            self.add_edge(s, d)?;
        }
        Ok(())
    }

    /// Whether duplicate edges should be collapsed to a single edge (default: `false`).
    pub fn dedup(mut self, yes: bool) -> Self {
        self.dedup = yes;
        self
    }

    /// Whether self-loops should be dropped (default: `false`). Applied before the
    /// dangling policy, so a vertex whose only edge was a self-loop may get it back
    /// under [`DanglingPolicy::SelfLoop`].
    pub fn remove_self_loops(mut self, yes: bool) -> Self {
        self.remove_self_loops = yes;
        self
    }

    /// Sets the policy for vertices with no outgoing edges (default: self-loop).
    pub fn dangling_policy(mut self, policy: DanglingPolicy) -> Self {
        self.dangling = policy;
        self
    }

    /// Freezes the accumulated edges into an immutable [`DiGraph`].
    ///
    /// Hands the one edge vector to the row-wise CSR constructor [`DiGraph::from_edges`]
    /// also uses: edges are bounds-checked (one added through
    /// [`add_edge_unchecked`](Self::add_edge_unchecked) fails here, with
    /// [`GraphError::VertexOutOfBounds`]), self-loops dropped if asked, rows sorted and
    /// deduplicated if asked, and the [`DanglingPolicy`] applied to the vertices left
    /// without a successor — reporting the lowest one under [`DanglingPolicy::Error`].
    pub fn build(self) -> Result<DiGraph> {
        DiGraph::from_edge_rows(
            self.num_vertices,
            &self.edges,
            self.dedup,
            self.remove_self_loops,
            self.dangling,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_build() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(2, 0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_no_dangling());
    }

    #[test]
    fn out_of_bounds_rejected_eagerly() {
        let mut b = GraphBuilder::new(2);
        let err = b.add_edge(0, 5).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfBounds { vertex: 5, .. }
        ));
    }

    #[test]
    fn dedup_collapses_duplicates() {
        let mut b = GraphBuilder::new(2);
        b.extend_edges([(0, 1), (0, 1), (0, 1), (1, 0)]).unwrap();
        let g = b.dedup(true).build().unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn duplicates_kept_without_dedup() {
        let mut b = GraphBuilder::new(2);
        b.extend_edges([(0, 1), (0, 1), (1, 0)]).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn self_loop_policy_fixes_dangling() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2).unwrap();
        b.add_edge(1, 2).unwrap();
        let g = b.build().unwrap(); // default policy: self-loop
        assert!(g.has_no_dangling());
        assert!(g.has_edge(2, 2));
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn error_policy_reports_dangling_vertex() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2).unwrap();
        let err = b
            .dangling_policy(DanglingPolicy::Error)
            .build()
            .unwrap_err();
        assert!(matches!(err, GraphError::DanglingVertex { vertex: 1 }));
    }

    #[test]
    fn keep_policy_leaves_dangling() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1).unwrap();
        let g = b.dangling_policy(DanglingPolicy::Keep).build().unwrap();
        assert_eq!(g.dangling_vertices(), vec![1]);
    }

    #[test]
    fn remove_self_loops_then_selfloop_policy_restores_needed_ones() {
        let mut b = GraphBuilder::new(2);
        b.extend_edges([(0, 0), (0, 1), (1, 1)]).unwrap();
        let g = b
            .remove_self_loops(true)
            .dangling_policy(DanglingPolicy::SelfLoop)
            .build()
            .unwrap();
        // vertex 0 keeps 0->1; vertex 1 lost its only edge so the policy adds 1->1 back
        assert!(!g.has_edge(0, 0));
        assert!(g.has_edge(1, 1));
        assert_eq!(g.num_edges(), 2);
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
        b.add_edge(0, 1).unwrap();
        assert_eq!(b.num_edges(), 1);
        assert_eq!(b.num_vertices(), 2);
    }
}
