//! Compressed-sparse-row (CSR) directed graph.
//!
//! [`DiGraph`] is the immutable workhorse structure of the workspace. It stores both the
//! out-adjacency (needed by random walkers and the scatter phase of the engine) and the
//! in-adjacency (needed by the pull-style gather phase of exact PageRank). Vertex ids are
//! dense `u32` values in `0..num_vertices()`, matching how PowerGraph re-numbers vertices
//! at ingress time.

// lint:allow-file(indexing, CSR invariants - monotone offsets and ids below n - are validated at build and load)

use serde::{Deserialize, Serialize};

/// Dense vertex identifier. Graphs in the paper's evaluation have up to 41.6M vertices,
/// comfortably within `u32`.
pub type VertexId = u32;

/// An immutable directed graph in CSR form with both adjacency directions.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiGraph {
    /// `out_offsets[v]..out_offsets[v+1]` indexes `out_targets` with the successors of `v`.
    out_offsets: Vec<usize>,
    /// Flattened successor lists, sorted within each vertex's range.
    out_targets: Vec<VertexId>,
    /// `in_offsets[v]..in_offsets[v+1]` indexes `in_sources` with the predecessors of `v`.
    in_offsets: Vec<usize>,
    /// Flattened predecessor lists, sorted within each vertex's range.
    in_sources: Vec<VertexId>,
}

impl DiGraph {
    /// Builds a graph from a vertex count and an edge list.
    ///
    /// Edges may appear in any order and may contain duplicates; duplicates are kept
    /// (multi-edges are legal and treated as parallel edges by the random walk, matching
    /// the weight they would receive in the transition matrix). Use
    /// [`GraphBuilder`](crate::GraphBuilder) for deduplication and dangling-vertex
    /// handling.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a vertex `>= num_vertices`. Use
    /// [`GraphBuilder`](crate::GraphBuilder) for a checked construction path.
    pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Self {
        for &(s, d) in edges {
            assert!(
                (s as usize) < num_vertices && (d as usize) < num_vertices,
                "edge ({s}, {d}) out of bounds for {num_vertices} vertices"
            );
        }
        let (out_offsets, out_targets) =
            build_csr(num_vertices, edges.iter().map(|&(s, d)| (s, d)));
        let (in_offsets, in_sources) = build_csr(num_vertices, edges.iter().map(|&(s, d)| (d, s)));
        DiGraph {
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        }
    }

    /// An empty graph with `num_vertices` isolated vertices.
    pub fn empty(num_vertices: usize) -> Self {
        DiGraph {
            out_offsets: vec![0; num_vertices + 1],
            out_targets: Vec::new(),
            in_offsets: vec![0; num_vertices + 1],
            in_sources: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of directed edges (counting multiplicities).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-degree of `v` (number of successors, counting multiplicities).
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.out_offsets[v + 1] - self.out_offsets[v]
    }

    /// In-degree of `v` (number of predecessors, counting multiplicities).
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.in_offsets[v + 1] - self.in_offsets[v]
    }

    /// Successors of `v`, sorted ascending.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// Predecessors of `v`, sorted ascending.
    #[inline]
    // lint:allow(orphan-pub, oracle for one_iteration_pagerank_ranks_by_weighted_in_degree)
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Whether the directed edge `(src, dst)` exists (at least once).
    pub fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
        self.out_neighbors(src).binary_search(&dst).is_ok()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over all directed edges in `(src, dst)` order, grouped by source.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            graph: self,
            vertex: 0,
            pos: 0,
        }
    }

    /// Vertices with out-degree zero ("dangling" vertices).
    ///
    /// The paper assumes `d_out(j) > 0` for every vertex; dangling vertices must be fixed
    /// (see [`DanglingPolicy`](crate::DanglingPolicy)) before running PageRank.
    pub fn dangling_vertices(&self) -> Vec<VertexId> {
        self.vertices()
            .filter(|&v| self.out_degree(v) == 0)
            .collect()
    }

    /// `true` if every vertex has at least one outgoing edge.
    // lint:allow(orphan-pub, oracle for builder_selfloop_policy_always_eliminates_dangling)
    pub fn has_no_dangling(&self) -> bool {
        self.vertices().all(|v| self.out_degree(v) > 0)
    }

    /// Total memory footprint of the adjacency arrays in bytes (excluding the struct itself).
    pub fn memory_bytes(&self) -> usize {
        self.out_offsets.len() * std::mem::size_of::<usize>()
            + self.in_offsets.len() * std::mem::size_of::<usize>()
            + self.out_targets.len() * std::mem::size_of::<VertexId>()
            + self.in_sources.len() * std::mem::size_of::<VertexId>()
    }

    /// Collects the full edge list. Mostly useful for tests and re-building transformed graphs.
    pub fn edge_vec(&self) -> Vec<(VertexId, VertexId)> {
        self.edges().collect()
    }

    /// Validates internal CSR invariants. Used by tests and after deserialization.
    ///
    /// Checks that offset arrays are monotone, cover the target arrays exactly, that both
    /// directions contain the same number of edges, and that every adjacency list is sorted.
    pub fn validate(&self) -> Result<(), crate::Error> {
        let n = self.num_vertices();
        if self.in_offsets.len() != n + 1 {
            return Err(crate::Error::graph(format!(
                "in_offsets length {} does not match out_offsets length {}",
                self.in_offsets.len(),
                self.out_offsets.len()
            )));
        }
        if self.out_targets.len() != self.in_sources.len() {
            return Err(crate::Error::graph(format!(
                "edge count mismatch between directions: {} out vs {} in",
                self.out_targets.len(),
                self.in_sources.len()
            )));
        }
        for (name, offsets, targets) in [
            ("out", &self.out_offsets, &self.out_targets),
            ("in", &self.in_offsets, &self.in_sources),
        ] {
            if offsets.first() != Some(&0) || offsets.last() != Some(&targets.len()) {
                return Err(crate::Error::graph(format!(
                    "{name} offsets do not cover target array"
                )));
            }
            for w in offsets.windows(2) {
                if w[0] > w[1] {
                    return Err(crate::Error::graph(format!("{name} offsets not monotone")));
                }
            }
            for v in 0..n {
                let slice = &targets[offsets[v]..offsets[v + 1]];
                if !slice.windows(2).all(|w| w[0] <= w[1]) {
                    return Err(crate::Error::graph(format!(
                        "{name} adjacency of vertex {v} not sorted"
                    )));
                }
                if let Some(&max) = slice.iter().max() {
                    if max as usize >= n {
                        return Err(crate::Error::graph(format!(
                            "{name} adjacency of vertex {v} out of bounds"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Iterator over all edges of a [`DiGraph`] in `(src, dst)` order.
pub struct EdgeIter<'a> {
    graph: &'a DiGraph,
    vertex: usize,
    pos: usize,
}

impl<'a> Iterator for EdgeIter<'a> {
    type Item = (VertexId, VertexId);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.graph.num_vertices();
        while self.vertex < n {
            let end = self.graph.out_offsets[self.vertex + 1];
            if self.pos < end {
                let dst = self.graph.out_targets[self.pos];
                self.pos += 1;
                return Some((self.vertex as VertexId, dst));
            }
            self.vertex += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.graph.num_edges() - self.pos;
        (remaining, Some(remaining))
    }
}

impl<'a> ExactSizeIterator for EdgeIter<'a> {}

/// Counting-sort construction of one CSR direction. `O(|V| + |E|)`.
fn build_csr(
    num_vertices: usize,
    edges: impl Iterator<Item = (VertexId, VertexId)> + Clone,
) -> (Vec<usize>, Vec<VertexId>) {
    let mut degrees = vec![0usize; num_vertices];
    let mut num_edges = 0usize;
    for (s, _) in edges.clone() {
        degrees[s as usize] += 1;
        num_edges += 1;
    }
    let mut offsets = Vec::with_capacity(num_vertices + 1);
    offsets.push(0usize);
    let mut acc = 0usize;
    for &d in &degrees {
        acc += d;
        offsets.push(acc);
    }
    let mut targets = vec![0 as VertexId; num_edges];
    let mut cursor = offsets[..num_vertices].to_vec();
    for (s, d) in edges {
        let c = &mut cursor[s as usize];
        targets[*c] = d;
        *c += 1;
    }
    // Sort each adjacency list so neighbor queries can binary search and iteration order
    // is deterministic regardless of input edge order.
    for v in 0..num_vertices {
        targets[offsets[v]..offsets[v + 1]].sort_unstable();
    }
    (offsets, targets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0
        DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(1), 1);
        assert_eq!(g.out_degree(3), 1);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.in_degree(0), 1);
        assert_eq!(g.in_degree(1), 1);
    }

    #[test]
    fn neighbors_sorted() {
        let g = DiGraph::from_edges(4, &[(0, 3), (0, 1), (0, 2)]);
        assert_eq!(g.out_neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn in_neighbors() {
        let g = diamond();
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_neighbors(0), &[3]);
    }

    #[test]
    fn has_edge() {
        let g = diamond();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(1, 0));
        assert!(!g.has_edge(2, 1));
    }

    #[test]
    fn edge_iterator_yields_all_edges_grouped_by_source() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]);
        assert_eq!(g.edges().len(), 5);
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::empty(7);
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.dangling_vertices().len(), 7);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn dangling_detection() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 0)]);
        assert_eq!(g.dangling_vertices(), vec![2]);
        assert!(!g.has_no_dangling());
        let g2 = diamond();
        assert!(g2.has_no_dangling());
    }

    #[test]
    fn duplicate_edges_are_preserved() {
        let g = DiGraph::from_edges(2, &[(0, 1), (0, 1), (1, 0)]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_neighbors(0), &[1, 1]);
    }

    #[test]
    fn self_loops_count_in_both_directions() {
        let g = DiGraph::from_edges(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 1);
        assert!(g.has_edge(0, 0));
    }

    #[test]
    fn validate_ok_on_constructed_graphs() {
        assert!(diamond().validate().is_ok());
        assert!(DiGraph::from_edges(1, &[(0, 0)]).validate().is_ok());
    }

    #[test]
    fn memory_bytes_positive() {
        assert!(diamond().memory_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_edges_panics_on_out_of_bounds() {
        let _ = DiGraph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn edge_vec_round_trips() {
        let g = diamond();
        let rebuilt = DiGraph::from_edges(g.num_vertices(), &g.edge_vec());
        assert_eq!(g, rebuilt);
    }
}
