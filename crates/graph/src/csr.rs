//! Compressed-sparse-row (CSR) directed graph.
//!
//! [`DiGraph`] is the immutable workhorse structure of the workspace. It stores both the
//! out-adjacency (needed by random walkers and the scatter phase of the engine) and the
//! in-adjacency (needed by the pull-style gather phase of exact PageRank). Vertex ids are
//! dense `u32` values in `0..num_vertices()`, matching how PowerGraph re-numbers vertices
//! at ingress time.

// lint:allow-file(indexing, CSR invariants - monotone offsets and ids below n - are validated at build and load)

use crate::pool::{row_ranges, run_batched, setup_width, split_lengths};
use crate::{DanglingPolicy, GraphError};
use std::ops::Range;

/// Dense vertex identifier. Graphs in the paper's evaluation have up to 41.6M vertices,
/// comfortably within `u32`.
pub type VertexId = u32;

/// An immutable directed graph in CSR form with both adjacency directions.
#[derive(Clone, Debug, PartialEq, Eq)]
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
    /// Builds a graph from a vertex count and an edge list, keeping every edge.
    ///
    /// Edges may appear in any order and may contain duplicates; duplicates are kept
    /// (multi-edges are legal and treated as parallel edges by the random walk, matching
    /// the weight they would receive in the transition matrix) and dangling vertices are
    /// left as they are. This is [`GraphBuilder::build`](crate::GraphBuilder::build)'s
    /// constructor with every policy off; use the builder for deduplication,
    /// dangling-vertex handling and a checked construction path.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a vertex `>= num_vertices`.
    // lint:allow(orphan-pub, oracle for builder_policies_match_from_edges_applied_naively)
    pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Self {
        match Self::from_edge_rows(num_vertices, edges, false, false, DanglingPolicy::Keep) {
            Ok(graph) => graph,
            // lint:allow(panic, the documented contract of the unchecked constructor)
            Err(e) => panic!("{e}"),
        }
    }

    /// The one CSR constructor, on [`setup_width`] units per pass: the host's threads
    /// for a large edge list, the calling thread for a small one. The graph is the same
    /// at any width.
    ///
    /// `remove_self_loops` drops `v -> v` edges before anything else; `dangling` then
    /// applies to the vertices left without a successor (deduplication cannot empty a
    /// row). An out-of-bounds edge is reported before a dangling vertex, the first such
    /// edge in `edges` order and the lowest such vertex respectively.
    pub(crate) fn from_edge_rows(
        num_vertices: usize,
        edges: &[(VertexId, VertexId)],
        dedup: bool,
        remove_self_loops: bool,
        dangling: DanglingPolicy,
    ) -> crate::Result<Self> {
        let width = setup_width(edges.len());
        Self::from_edge_rows_on(
            width,
            num_vertices,
            edges,
            dedup,
            remove_self_loops,
            dangling,
        )
    }

    /// [`from_edge_rows`](Self::from_edge_rows) with every pass cut into `width` vertex
    /// ranges, each one unit of the pool. Each edge is read twice and written once per
    /// direction: every range counts the out-degrees of its own sources, the rows are
    /// laid out, every range scatters its sources' edges into its rows (in `edges`
    /// order) and sorts (and, when asked, deduplicates) each row where it lies. A range
    /// compacts its rows within its own part of the target array; the calling thread
    /// then closes the gaps between ranges. The in-direction is filled the same way,
    /// each range of destinations reading the finished out-rows in source order, so its
    /// rows come out sorted without being sorted. Every output array is allocated here,
    /// on the calling thread, and lent to the units in disjoint slices.
    pub(crate) fn from_edge_rows_on(
        width: usize,
        num_vertices: usize,
        edges: &[(VertexId, VertexId)],
        dedup: bool,
        remove_self_loops: bool,
        dangling: DanglingPolicy,
    ) -> crate::Result<Self> {
        let n = num_vertices;
        let width = width.max(1);
        let dropped = |s: VertexId, d: VertexId| remove_self_loops && s == d;
        let lanes = &mut vec![(); width];

        if let Some(&(s, d)) = edges.iter().find(|&&(s, d)| s.max(d) as usize >= n) {
            return Err(GraphError::VertexOutOfBounds {
                vertex: s.max(d) as u64,
                num_vertices: n as u64,
            });
        }

        // One vertex-indexed scratch vector, in turn each row's edge count (its
        // out-degree before the dangling policy), the count kept after deduplication,
        // the in-degrees and the in-rows' cursors.
        let even = (0..=width).map(|k| n * k / width);
        let even: Vec<usize> = even.collect();
        let mut counts = vec![0usize; n];
        let mut units: Vec<_> = (even.windows(2).map(|w| w[0]..w[1]))
            .zip(split_lengths(
                &mut counts,
                even.windows(2).map(|w| w[1] - w[0]),
            ))
            .collect();
        run_batched(&mut units, lanes, |_, (range, counts), _| {
            for &(s, d) in edges {
                let i = (s as usize).wrapping_sub(range.start);
                if i < counts.len() && !dropped(s, d) {
                    counts[i] += 1;
                }
            }
        });
        drop(units);
        // A dangling vertex keeps a one-slot row under `SelfLoop`, which the scatter
        // leaves unfilled and the sort writes `v` into.
        let slots = |c: usize| match dangling {
            DanglingPolicy::SelfLoop => c.max(1),
            DanglingPolicy::Keep | DanglingPolicy::Error => c,
        };
        if dangling == DanglingPolicy::Error {
            if let Some(v) = counts.iter().position(|&c| c == 0) {
                return Err(GraphError::DanglingVertex {
                    vertex: v as VertexId,
                });
            }
        }

        let mut out_offsets = prefix_sums(counts.iter().map(|&c| slots(c)));
        let mut out_targets = vec![0 as VertexId; out_offsets[n]];
        let ranges = row_ranges(&out_offsets, width);
        let kept: Vec<usize> = {
            let offsets = &out_offsets;
            let mut units: Vec<_> = (ranges.iter().cloned())
                .zip(split_lengths(&mut counts, ranges.iter().map(|r| r.len())))
                .zip(split_lengths(
                    &mut out_targets,
                    part_lengths(&ranges, offsets),
                ))
                .collect();
            run_batched(&mut units, lanes, |_, ((range, filled), rows), _| {
                let base = offsets[range.start];
                filled.fill(0);
                for &(s, d) in edges {
                    let i = (s as usize).wrapping_sub(range.start);
                    if i < filled.len() && !dropped(s, d) {
                        rows[offsets[s as usize] - base + filled[i]] = d;
                        filled[i] += 1;
                    }
                }
                sort_rows(range.clone(), offsets, filled, rows, dedup)
            })
        };
        // Sorted rows let neighbor queries binary search and make iteration order
        // independent of input edge order. Each range compacted its deduplicated rows
        // to the front of its part; the parts are closed up here, in order, so a part
        // only ever moves leftwards.
        if dedup {
            let mut write = 0;
            for (range, &kept) in ranges.iter().zip(&kept) {
                let start = out_offsets[range.start];
                out_targets.copy_within(start..start + kept, write);
                write += kept;
            }
            out_targets.truncate(write);
            let mut acc = 0;
            for (offset, &kept) in out_offsets.iter_mut().zip(&counts) {
                *offset = acc;
                acc += kept;
            }
            out_offsets[n] = acc;
        }

        let mut in_degrees = counts;
        in_degrees.fill(0);
        {
            let mut units: Vec<_> = (even.windows(2).map(|w| w[0]..w[1]))
                .zip(split_lengths(
                    &mut in_degrees,
                    even.windows(2).map(|w| w[1] - w[0]),
                ))
                .collect();
            let targets = &out_targets;
            run_batched(&mut units, lanes, |_, (range, degrees), _| {
                for &d in targets {
                    let i = (d as usize).wrapping_sub(range.start);
                    if i < degrees.len() {
                        degrees[i] += 1;
                    }
                }
            });
        }
        let in_offsets = prefix_sums(in_degrees.iter().copied());
        let mut in_sources = vec![0 as VertexId; out_targets.len()];
        {
            let ranges = row_ranges(&in_offsets, width);
            let mut cursor = in_degrees;
            let mut units: Vec<_> = (ranges.iter().cloned())
                .zip(split_lengths(&mut cursor, ranges.iter().map(|r| r.len())))
                .zip(split_lengths(
                    &mut in_sources,
                    part_lengths(&ranges, &in_offsets),
                ))
                .collect();
            let (out_offsets, out_targets, in_offsets) = (&out_offsets, &out_targets, &in_offsets);
            run_batched(&mut units, lanes, |_, ((range, cursor), rows), _| {
                let base = in_offsets[range.start];
                cursor.fill(0);
                for (v, ends) in out_offsets.windows(2).enumerate() {
                    for &d in &out_targets[ends[0]..ends[1]] {
                        let i = (d as usize).wrapping_sub(range.start);
                        if i < cursor.len() {
                            rows[in_offsets[d as usize] - base + cursor[i]] = v as VertexId;
                            cursor[i] += 1;
                        }
                    }
                }
            });
        }

        Ok(DiGraph {
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        })
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

    /// The out-row offsets: `out_offsets()[v]..out_offsets()[v + 1]` are the positions
    /// of `v`'s out-edges in [`edges`](Self::edges) order, so a range of vertices is a
    /// range of edges, and a pass over one can be cut by [`row_ranges`].
    #[inline]
    pub fn out_offsets(&self) -> &[usize] {
        &self.out_offsets
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

/// `offsets[v]..offsets[v + 1]` spans `counts[v]` entries; the last offset is the total.
fn prefix_sums(counts: impl ExactSizeIterator<Item = usize>) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0usize;
    offsets.push(acc);
    for c in counts {
        acc += c;
        offsets.push(acc);
    }
    offsets
}

/// How many entries each of `ranges` spans in a table with these row offsets.
fn part_lengths(ranges: &[Range<usize>], offsets: &[usize]) -> Vec<usize> {
    (ranges.iter())
        .map(|r| offsets[r.end] - offsets[r.start])
        .collect()
}

/// Sorts the rows of `range`, which lie in `rows` from `offsets[range.start]` on, with
/// `filled[i]` edges scattered into vertex `range.start + i`'s row; a row left with an
/// unfilled slot (a dangling vertex's, under [`DanglingPolicy::SelfLoop`]) gets the
/// vertex itself. With `dedup` each row is compacted leftwards in the same sweep —
/// `write` never passes the row being read — `filled` becomes the count kept, and the
/// total kept is returned; without, the rows stay where they lie.
fn sort_rows(
    range: Range<usize>,
    offsets: &[usize],
    filled: &mut [usize],
    rows: &mut [VertexId],
    dedup: bool,
) -> usize {
    let base = offsets[range.start];
    let mut write = 0;
    for (i, v) in range.enumerate() {
        let (start, end) = (offsets[v] - base, offsets[v + 1] - base);
        if filled[i] < end - start {
            rows[start] = v as VertexId;
        }
        rows[start..end].sort_unstable();
        if dedup {
            let first = write;
            for j in start..end {
                if j == start || rows[j] != rows[j - 1] {
                    rows[write] = rows[j];
                    write += 1;
                }
            }
            filled[i] = write - first;
        }
    }
    write
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

    /// What the rows must hold: the edges left after dropping self-loops, one self-loop
    /// per dangling vertex under `SelfLoop`, sorted, deduplicated if asked.
    fn naive_rows(
        n: usize,
        edges: &[(VertexId, VertexId)],
        dedup: bool,
        remove_self_loops: bool,
        dangling: DanglingPolicy,
    ) -> Vec<(VertexId, VertexId)> {
        let mut kept: Vec<_> = (edges.iter().copied())
            .filter(|&(s, d)| !(remove_self_loops && s == d))
            .collect();
        if dangling == DanglingPolicy::SelfLoop {
            let sources: std::collections::BTreeSet<VertexId> =
                kept.iter().map(|&(s, _)| s).collect();
            kept.extend(
                (0..n as VertexId)
                    .filter(|v| !sources.contains(v))
                    .map(|v| (v, v)),
            );
        }
        kept.sort_unstable();
        if dedup {
            kept.dedup();
        }
        kept
    }

    #[test]
    fn every_width_builds_the_same_graph_and_the_same_error() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xC5B);
        let policies = [
            DanglingPolicy::SelfLoop,
            DanglingPolicy::Error,
            DanglingPolicy::Keep,
        ];
        for case in 0..60 {
            let n = [0usize, 1, 3, 17, 200][case % 5];
            let m = rng.gen_range(0..4 * n + 2);
            // Few distinct ids, so duplicates, self-loops and dangling vertices all occur;
            // now and then one id past the end, to be reported.
            let mut edges: Vec<(VertexId, VertexId)> = (0..m)
                .map(|_| {
                    let hi = (n as VertexId).max(1);
                    (rng.gen_range(0..hi), rng.gen_range(0..hi))
                })
                .collect();
            if case % 7 == 6 && !edges.is_empty() {
                let at = rng.gen_range(0..edges.len());
                edges[at].1 = n as VertexId + 3;
            }
            for dedup in [false, true] {
                for remove_self_loops in [false, true] {
                    for dangling in policies {
                        let build = |width| {
                            DiGraph::from_edge_rows_on(
                                width,
                                n,
                                &edges,
                                dedup,
                                remove_self_loops,
                                dangling,
                            )
                        };
                        let at_one = build(1);
                        let what = format!(
                            "case {case}: {n} vertices, {m} edges, dedup {dedup}, \
                             remove_self_loops {remove_self_loops}, {dangling:?}"
                        );
                        match &at_one {
                            Ok(graph) => {
                                graph.validate().unwrap();
                                let expected =
                                    naive_rows(n, &edges, dedup, remove_self_loops, dangling);
                                assert_eq!(graph.edge_vec(), expected, "{what}");
                                // The in-rows are the same edges, by destination.
                                let mut reversed: Vec<_> =
                                    expected.iter().map(|&(s, d)| (d, s)).collect();
                                reversed.sort_unstable();
                                let in_rows: Vec<_> = (graph.vertices())
                                    .flat_map(|v| {
                                        graph.in_neighbors(v).iter().map(move |&s| (v, s))
                                    })
                                    .collect();
                                assert_eq!(in_rows, reversed, "{what}");
                            }
                            Err(e) => assert!(
                                matches!(
                                    e,
                                    GraphError::VertexOutOfBounds { .. }
                                        | GraphError::DanglingVertex { .. }
                                ),
                                "{what}: {e}"
                            ),
                        }
                        for width in [2, 8] {
                            match (&at_one, build(width)) {
                                (Ok(one), Ok(wide)) => assert_eq!(one, &wide, "{what} at {width}"),
                                (Err(one), Err(wide)) => {
                                    assert_eq!(
                                        one.to_string(),
                                        wide.to_string(),
                                        "{what} at {width}"
                                    )
                                }
                                (one, wide) => panic!("{what} at {width}: {one:?} vs {wide:?}"),
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn edge_vec_round_trips() {
        let g = diamond();
        let rebuilt = DiGraph::from_edges(g.num_vertices(), &g.edge_vec());
        assert_eq!(g, rebuilt);
    }
}
