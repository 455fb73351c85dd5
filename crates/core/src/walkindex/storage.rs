//! Fixed-stride arena storage of precomputed walk segments.
//!
//! A [`WalkIndex`] stores `R` walk segments for each of `n` vertices in one contiguous
//! array of exactly `n · R · L` slots, segment `j` of vertex `v` at `(v · R + j) · L`:
//! a segment's address is arithmetic on `(v, j)`, so a query reaches its hops with one
//! dependent load, and the builder knows where every segment goes before generating it.
//!
//! A walk that reached a dangling vertex (a sink) before `L` hops leaves the rest of
//! its slots holding the sentinel [`NO_HOP`] (`VertexId::MAX`): a segment's real hops
//! are the prefix before the first sentinel, and a sink's own segments are all-sentinel.
//! That padding costs a sink `R · L · 4` bytes, where a delimiter table would cost
//! *every* vertex `R · 8`, so the fixed stride is the smaller arena unless more than
//! `2 / L` of the vertices are sinks. Only a `DiGraph::from_edges` graph that keeps its
//! sinks has any: builder- and reader-built graphs have no sinks.

// lint:allow-file(indexing, the arena holds exactly n·R·L slots, checked on construction)

use frogwild_engine::walkgen::NO_HOP;
use frogwild_graph::VertexId;

/// A precomputed, immutable arena of random-walk segments over one graph.
///
/// Built by [`build_walk_index`](super::build_walk_index) (or
/// [`SessionBuilder::walk_index`](crate::session::SessionBuilder::walk_index)); served
/// from by [`indexed_ppr`](super::indexed_ppr) and
/// [`indexed_pagerank`](super::indexed_pagerank). The index is independent of the
/// teleport probability: segments are pure walk hops, and walk *length* is decided at
/// query time.
#[derive(Clone, Debug, PartialEq)]
pub struct WalkIndex {
    num_vertices: usize,
    num_edges: usize,
    segments_per_vertex: usize,
    segment_length: usize,
    seed: u64,
    /// `n · R · L` slots; each segment is its real hops, then [`NO_HOP`] padding.
    hops: Vec<VertexId>,
}

impl WalkIndex {
    /// Wraps a filled arena of exactly `n · R · L` slots; the builder is the only
    /// intended caller.
    pub(crate) fn from_arena(
        num_vertices: usize,
        num_edges: usize,
        segments_per_vertex: usize,
        segment_length: usize,
        seed: u64,
        hops: Vec<VertexId>,
    ) -> Self {
        assert_eq!(
            hops.len(),
            num_vertices * segments_per_vertex * segment_length,
            "walk arena must hold n * R * L slots"
        );
        WalkIndex {
            num_vertices,
            num_edges,
            segments_per_vertex,
            segment_length,
            seed,
            hops,
        }
    }

    /// Number of vertices the index covers.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges of the graph the index was built from — checked at serve time
    /// so an index cannot silently answer for a different graph of the same size.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Segments stored per vertex (`R`, *after* any memory-budget shrink).
    pub fn segments_per_vertex(&self) -> usize {
        self.segments_per_vertex
    }

    /// Maximum hops per segment (`L`).
    pub fn segment_length(&self) -> usize {
        self.segment_length
    }

    /// The seed the segments were generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The `L` raw slots of segment `j` of vertex `v`: its real hops, then [`NO_HOP`]
    /// padding. What the stitcher reads; [`segment`](Self::segment) is the trimmed view.
    #[inline]
    pub(crate) fn slots(&self, v: VertexId, j: usize) -> &[VertexId] {
        let at = (v as usize * self.segments_per_vertex + j) * self.segment_length;
        &self.hops[at..at + self.segment_length]
    }

    /// Segment `j` (`0 <= j < R`) of vertex `v`, as the slice of vertices the walk
    /// visits after leaving `v`. Empty when `v` is dangling; shorter than
    /// [`segment_length`](Self::segment_length) when the walk hit a sink early.
    ///
    /// # Panics
    ///
    /// Panics when `v` or `j` is out of range.
    // lint:allow(orphan-pub, oracle for sink_bearing_graphs_are_served_exactly_as_the_reference_serves_them)
    pub fn segment(&self, v: VertexId, j: usize) -> &[VertexId] {
        assert!(
            j < self.segments_per_vertex,
            "segment index {j} out of range"
        );
        let slots = self.slots(v, j);
        let len = slots.iter().position(|&hop| hop == NO_HOP);
        &slots[..len.unwrap_or(slots.len())]
    }

    /// Total real hops stored across all segments (sentinel padding not counted).
    pub fn total_hops(&self) -> usize {
        self.hops.iter().filter(|&&hop| hop != NO_HOP).count()
    }

    /// Number of segments that stopped short of the full length (they reached a sink).
    pub fn truncated_segments(&self) -> usize {
        // Padding is a suffix, so a segment is short exactly when its last slot is padding.
        self.hops
            .chunks_exact(self.segment_length)
            .filter(|slots| slots.last() == Some(&NO_HOP))
            .count()
    }

    /// Bytes held by the arena: exactly `n · R · L` slots of four bytes.
    pub fn memory_bytes(&self) -> usize {
        self.hops.len() * std::mem::size_of::<VertexId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_index() -> WalkIndex {
        // 2 vertices, 2 segments each, L = 3.
        // v0: [1, 0, 1], [1]  (second segment hit a sink early — synthetic)
        // v1: [], [0, 1, 0]
        #[rustfmt::skip]
        let hops = vec![
            1, 0, 1,            1, NO_HOP, NO_HOP,
            NO_HOP, NO_HOP, NO_HOP,  0, 1, 0,
        ];
        WalkIndex::from_arena(2, 4, 2, 3, 9, hops)
    }

    #[test]
    fn segment_slices_follow_the_stride() {
        let idx = tiny_index();
        assert_eq!(idx.segment(0, 0), &[1, 0, 1]);
        assert_eq!(idx.segment(0, 1), &[1]);
        assert_eq!(idx.segment(1, 0), &[] as &[VertexId]);
        assert_eq!(idx.segment(1, 1), &[0, 1, 0]);
        assert_eq!(idx.total_hops(), 7);
        assert_eq!(idx.num_vertices(), 2);
        assert_eq!(idx.num_edges(), 4);
        assert_eq!(idx.segments_per_vertex(), 2);
        assert_eq!(idx.segment_length(), 3);
        assert_eq!(idx.seed(), 9);
    }

    #[test]
    fn slots_keep_the_padding_that_segment_trims() {
        let idx = tiny_index();
        assert_eq!(idx.slots(0, 0), &[1, 0, 1]);
        assert_eq!(idx.slots(0, 1), &[1, NO_HOP, NO_HOP]);
        // An all-sentinel chunk is an empty segment.
        assert_eq!(idx.slots(1, 0), &[NO_HOP; 3]);
        assert!(idx.segment(1, 0).is_empty());
    }

    #[test]
    fn truncated_segments_counts_short_ones() {
        assert_eq!(tiny_index().truncated_segments(), 2);
    }

    #[test]
    fn memory_bytes_is_exactly_the_slots() {
        // n · R · L slots, padding included, and nothing else.
        let idx = tiny_index();
        assert_eq!(
            idx.memory_bytes(),
            2 * 2 * 3 * std::mem::size_of::<VertexId>()
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn segment_index_is_range_checked() {
        let _ = tiny_index().segment(0, 2);
    }

    #[test]
    #[should_panic(expected = "n * R * L")]
    fn a_short_arena_is_refused() {
        let _ = WalkIndex::from_arena(2, 4, 2, 3, 9, vec![0; 11]);
    }
}
