//! Parallel random-walk segment generation over a partitioned cluster.
//!
//! The walk-index subsystem (`frogwild::walkindex`) precomputes, for every vertex, a
//! small number of fixed-length random-walk *segments* that queries later stitch
//! together PowerWalk-style instead of walking the graph afresh. Generating those
//! segments is the expensive, embarrassingly parallel part of an index build, and the
//! natural unit of parallelism is the placement's own work division: **each simulated
//! machine generates the segments of the vertices it masters**, on a thread of its own
//! when `parallel` is set. (The engine in [`crate::engine`] schedules differently: a
//! worker pool over key-range batches, sized independently of the machine count.)
//!
//! Every hop is drawn from a generator derived from `(seed, vertex, segment)` via
//! [`crate::rng::derived_rng`], so the produced segments are identical regardless of
//! the machine count, the partitioner, or whether the build ran parallel — the same
//! determinism contract the engine obeys across worker counts.

use frogwild_graph::{DiGraph, VertexId};
use frogwild_obs::{span_meta, SpanKey, Tracer};
use rand::Rng;

use crate::cluster::MachineId;
use crate::placement::PartitionedGraph;

/// Domain-separation tag for segment-generation randomness.
const TAG_SEGMENT: u64 = 0x5E91;

/// The segments one machine generated for the vertices it masters.
///
/// Storage is flat: `lens[i * segments_per_vertex + j]` is the hop count of segment
/// `j` of `vertices[i]`, and `hops` concatenates all segments in that order.
#[derive(Clone, Debug)]
pub struct MachineSegments {
    /// The machine that produced this batch.
    pub machine: MachineId,
    /// The vertices this machine masters, ascending.
    pub vertices: Vec<VertexId>,
    /// Hop count of each `(vertex, segment)` pair, `vertices.len() * segments_per_vertex`
    /// entries in vertex-major order.
    pub lens: Vec<u32>,
    /// All hops, concatenated in the same order `lens` describes.
    pub hops: Vec<VertexId>,
}

/// Generates `segments_per_vertex` random-walk segments of (at most) `segment_length`
/// hops from every vertex of `graph`, split across the machines of `pg` by master
/// assignment.
///
/// A segment follows out-edges uniformly at random and stops early only when it
/// reaches a dangling vertex (a walk stuck at a sink can go nowhere; how a stranded
/// walk continues is a query-time decision). Segments carry **no teleportation**:
/// walk length is also decided at query time, which keeps the index valid for any
/// teleport probability.
///
/// When `parallel` is set, one thread per simulated machine generates that machine's
/// batch. The output is identical either way, and identical across machine counts and
/// partitioners for a fixed `seed`.
///
/// Each machine's generation is recorded into `tracer` as a `walk_segments` span keyed
/// `(0, machine, 0)`, carrying vertex and hop counters; the tracer only observes.
pub fn generate_walk_segments(
    graph: &DiGraph,
    pg: &PartitionedGraph,
    segments_per_vertex: usize,
    segment_length: usize,
    seed: u64,
    parallel: bool,
    tracer: &Tracer,
) -> Vec<MachineSegments> {
    let generate_for = |machine: usize| -> MachineSegments {
        let sink = tracer.sink();
        let mut span = sink.span(
            span_meta!("walk_segments"),
            SpanKey::new(0, machine as u32 + 1, 0, 0),
        );
        let shard = pg.shard(MachineId::from(machine));
        let vertices: Vec<VertexId> = shard.masters().map(|(_, v)| v).collect();
        let mut lens = Vec::with_capacity(vertices.len() * segments_per_vertex);
        // The common case walks the full length; reserve for it.
        let mut hops = Vec::with_capacity(vertices.len() * segments_per_vertex * segment_length);
        for &v in &vertices {
            for j in 0..segments_per_vertex {
                let start = hops.len();
                let mut rng = crate::rng::derived_rng(&[seed, v as u64, j as u64, TAG_SEGMENT]);
                let mut position = v;
                for _ in 0..segment_length {
                    let neighbors = graph.out_neighbors(position);
                    if neighbors.is_empty() {
                        break;
                    }
                    // lint:allow(indexing, gen_range is bounded by the neighbor count)
                    position = neighbors[rng.gen_range(0..neighbors.len())];
                    hops.push(position);
                }
                lens.push((hops.len() - start) as u32);
            }
        }
        span.counter("vertices", vertices.len() as u64);
        span.counter("hops", hops.len() as u64);
        drop(span);
        MachineSegments {
            machine: MachineId::from(machine),
            vertices,
            lens,
            hops,
        }
    };

    let num_machines = pg.num_machines();
    if parallel && num_machines > 1 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..num_machines)
                .map(|m| scope.spawn(move || generate_for(m)))
                .collect();
            handles
                .into_iter()
                // lint:allow(panic, re-raises a worker thread panic)
                .map(|h| h.join().expect("segment generation worker panicked"))
                .collect()
        })
    } else {
        (0..num_machines).map(generate_for).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{ObliviousPartitioner, RandomPartitioner};
    use frogwild_graph::generators::simple::cycle;
    use frogwild_graph::generators::{rmat, RmatParams};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_graph(n: usize) -> DiGraph {
        let mut rng = SmallRng::seed_from_u64(31);
        rmat(n, RmatParams::default(), &mut rng)
    }

    /// Flattens per-machine batches into a vertex-indexed segment table.
    fn by_vertex(batches: &[MachineSegments], n: usize, r: usize) -> Vec<Vec<Vec<VertexId>>> {
        let mut table = vec![Vec::new(); n];
        for batch in batches {
            let mut cursor = 0usize;
            for (i, &v) in batch.vertices.iter().enumerate() {
                let mut segs = Vec::with_capacity(r);
                for j in 0..r {
                    let len = batch.lens[i * r + j] as usize;
                    segs.push(batch.hops[cursor..cursor + len].to_vec());
                    cursor += len;
                }
                table[v as usize] = segs;
            }
        }
        table
    }

    #[test]
    fn every_vertex_is_generated_exactly_once() {
        let g = test_graph(300);
        let pg = PartitionedGraph::build(&g, 4, &ObliviousPartitioner, 7);
        let batches = generate_walk_segments(&g, &pg, 3, 5, 11, false, &Tracer::disabled());
        let mut seen: Vec<VertexId> = batches
            .iter()
            .flat_map(|b| b.vertices.iter().copied())
            .collect();
        seen.sort_unstable();
        let expected: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        assert_eq!(seen, expected);
        for batch in &batches {
            assert_eq!(batch.lens.len(), batch.vertices.len() * 3);
            assert_eq!(
                batch.hops.len(),
                batch.lens.iter().map(|&l| l as usize).sum::<usize>()
            );
        }
    }

    #[test]
    fn segments_follow_edges_and_respect_the_length_cap() {
        let g = test_graph(200);
        let pg = PartitionedGraph::build(&g, 3, &ObliviousPartitioner, 5);
        let r = 4;
        let l = 6;
        let table = by_vertex(
            &generate_walk_segments(&g, &pg, r, l, 13, false, &Tracer::disabled()),
            g.num_vertices(),
            r,
        );
        for v in g.vertices() {
            assert_eq!(table[v as usize].len(), r);
            for seg in &table[v as usize] {
                assert!(seg.len() <= l);
                let mut position = v;
                for &hop in seg {
                    assert!(
                        g.has_edge(position, hop),
                        "hop {position}->{hop} not an edge"
                    );
                    position = hop;
                }
                // A short segment must have ended on a dangling vertex.
                if seg.len() < l {
                    assert_eq!(g.out_degree(position), 0, "short segment not at a sink");
                }
            }
        }
    }

    #[test]
    fn output_is_identical_across_machine_counts_partitioners_and_threading() {
        let g = test_graph(250);
        let r = 3;
        let l = 5;
        let reference = by_vertex(
            &generate_walk_segments(
                &g,
                &PartitionedGraph::build(&g, 1, &ObliviousPartitioner, 9),
                r,
                l,
                42,
                false,
                &Tracer::disabled(),
            ),
            g.num_vertices(),
            r,
        );
        for (machines, parallel) in [(4usize, false), (4, true), (8, true)] {
            for partitioner in [true, false] {
                let pg = if partitioner {
                    PartitionedGraph::build(&g, machines, &ObliviousPartitioner, 9)
                } else {
                    PartitionedGraph::build(&g, machines, &RandomPartitioner, 9)
                };
                let other = by_vertex(
                    &generate_walk_segments(&g, &pg, r, l, 42, parallel, &Tracer::disabled()),
                    g.num_vertices(),
                    r,
                );
                assert_eq!(reference, other, "machines={machines} parallel={parallel}");
            }
        }
    }

    #[test]
    fn cycle_segments_are_fully_determined() {
        let g = cycle(10);
        let pg = PartitionedGraph::build(&g, 2, &ObliviousPartitioner, 3);
        let table = by_vertex(
            &generate_walk_segments(&g, &pg, 2, 4, 1, false, &Tracer::disabled()),
            10,
            2,
        );
        // On a cycle the walk has no choices: segment hops are v+1, v+2, ...
        for v in 0..10u32 {
            for seg in &table[v as usize] {
                let expected: Vec<VertexId> = (1..=4).map(|i| (v + i) % 10).collect();
                assert_eq!(seg, &expected);
            }
        }
    }

    #[test]
    fn star_leaves_stop_at_the_hub_sink() {
        // In the star generator leaves point at the hub and the hub points back, so no
        // vertex is dangling; use a hand-built sink instead.
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let pg = PartitionedGraph::build(&g, 2, &ObliviousPartitioner, 3);
        let table = by_vertex(
            &generate_walk_segments(&g, &pg, 2, 5, 1, false, &Tracer::disabled()),
            3,
            2,
        );
        // From vertex 0 the only walk is 1, 2 and then the sink stops it.
        for seg in &table[0] {
            assert_eq!(seg, &vec![1u32, 2u32]);
        }
        // Vertex 2 is a sink: its segments are empty.
        for seg in &table[2] {
            assert!(seg.is_empty());
        }
    }
}
