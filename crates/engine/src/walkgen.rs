//! Parallel random-walk segment generation over a partitioned cluster.
//!
//! The walk-index subsystem (`frogwild::walkindex`) precomputes, for every vertex, a
//! small number of fixed-length random-walk *segments* that queries later stitch
//! together PowerWalk-style instead of walking the graph afresh. Generating those
//! segments is the expensive part of an index build, no segment depends on another, and
//! the natural unit of work is the placement's own division: **each simulated machine
//! generates the segments of the vertices it masters**. Each machine is one unit of the
//! workspace's one pool ([`run_batched`]), on as many threads as [`worker_threads`]`(0)`
//! reports, never more than there are machines — so a layout of forty thousand
//! simulated machines still builds on a handful of threads.
//!
//! Segments are generated **in place**. The arena has a fixed stride — segment `j` of
//! vertex `v` occupies the `L` slots starting at `(v · R + j) · L` — so every segment's
//! address is known before a single hop is drawn: the arena is allocated once, filled
//! with the padding sentinel [`NO_HOP`], cut into one `R · L` chunk per vertex, and each
//! chunk is handed to the machine that masters the vertex. Nothing is generated into a
//! per-machine buffer and copied afterwards. A walk that reaches a dangling vertex
//! before `L` hops simply stops writing, leaving the rest of its slots as padding.
//!
//! Every hop is drawn from a generator derived from `(seed, vertex, segment)` via
//! [`crate::rng::derived_rng`], so the produced arena is identical regardless of the
//! machine count, the partitioner, or how many threads the host lent the build — the
//! same determinism contract the engine obeys across worker counts.

use frogwild_graph::{run_batched, worker_threads, DiGraph, VertexId};
use frogwild_obs::{span_meta, SpanKey, Tracer};
use rand::Rng;

use crate::placement::PartitionedGraph;

/// Domain-separation tag for segment-generation randomness.
const TAG_SEGMENT: u64 = 0x5E91;

/// The slot value that is not a hop: padding after a segment that reached a sink
/// early. A graph served from a walk arena must keep every vertex id below it.
pub const NO_HOP: VertexId = VertexId::MAX;

/// Generates `segments_per_vertex` random-walk segments of (at most) `segment_length`
/// hops from every vertex of `graph`, split across the machines of `pg` by master
/// assignment, and returns them as one arena of exactly
/// `n · segments_per_vertex · segment_length` slots: segment `j` of vertex `v` starts at
/// `(v · segments_per_vertex + j) · segment_length`, real hops first, [`NO_HOP`] after.
///
/// A segment follows out-edges uniformly at random and stops early only when it
/// reaches a dangling vertex (a walk stuck at a sink can go nowhere; how a stranded
/// walk continues is a query-time decision). Segments carry **no teleportation**:
/// walk length is also decided at query time, which keeps the index valid for any
/// teleport probability.
///
/// The machines' chunks are filled on the engine's pool, one machine per unit. The
/// output is identical for every thread count, and identical across machine counts and
/// partitioners for a fixed `seed`.
///
/// Each machine's generation is recorded into `tracer` as a `walk_segments` span keyed
/// `(0, machine, 0)`, carrying vertex and (real) hop counters; the tracer only observes.
///
/// # Panics
///
/// Panics when `segments_per_vertex` or `segment_length` is zero, or when `pg` was not
/// built from `graph`.
pub fn generate_walk_segments(
    graph: &DiGraph,
    pg: &PartitionedGraph,
    segments_per_vertex: usize,
    segment_length: usize,
    seed: u64,
    tracer: &Tracer,
) -> Vec<VertexId> {
    let num_machines = pg.num_machines();
    let stride = segments_per_vertex * segment_length;
    let mut arena = vec![NO_HOP; graph.num_vertices() * stride];

    // Each vertex's chunk goes to the machine mastering it, in ascending vertex order.
    let mut work: Vec<Vec<(VertexId, &mut [VertexId])>> =
        (0..num_machines).map(|_| Vec::new()).collect();
    for (v, chunk) in arena.chunks_mut(stride).enumerate() {
        let v = v as VertexId;
        // lint:allow(indexing, a master is one of the layout's machines)
        work[pg.placement().master(v).index()].push((v, chunk));
    }

    let fill = |machine: usize, chunks: Vec<(VertexId, &mut [VertexId])>| {
        let sink = tracer.sink();
        let mut span = sink.span(
            span_meta!("walk_segments"),
            SpanKey::new(0, machine as u32 + 1, 0, 0),
        );
        span.counter("vertices", chunks.len() as u64);
        let mut hops = 0u64;
        for (v, chunk) in chunks {
            for (j, slots) in chunk.chunks_mut(segment_length).enumerate() {
                let mut rng = crate::rng::derived_rng(&[seed, v as u64, j as u64, TAG_SEGMENT]);
                let mut position = v;
                for slot in slots {
                    let neighbors = graph.out_neighbors(position);
                    if neighbors.is_empty() {
                        break;
                    }
                    // lint:allow(indexing, gen_range is bounded by the neighbor count)
                    position = neighbors[rng.gen_range(0..neighbors.len())];
                    *slot = position;
                    hops += 1;
                }
            }
        }
        span.counter("hops", hops);
    };

    let mut lanes = vec![(); worker_threads(0).min(num_machines)];
    run_batched(&mut work, &mut lanes, |machine, chunks, _| {
        fill(machine, std::mem::take(chunks));
    });
    arena
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionerKind;
    use frogwild_graph::generators::simple::cycle;
    use frogwild_graph::generators::{rmat, RmatParams};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_graph(n: usize) -> DiGraph {
        let mut rng = SmallRng::seed_from_u64(31);
        rmat(n, RmatParams::default(), &mut rng)
    }

    /// Reads an arena back as a vertex-indexed table of segments, padding trimmed.
    fn by_vertex(arena: &[VertexId], n: usize, r: usize, l: usize) -> Vec<Vec<Vec<VertexId>>> {
        assert_eq!(arena.len(), n * r * l);
        arena
            .chunks(r * l)
            .map(|chunk| {
                chunk
                    .chunks(l)
                    .map(|slots| {
                        let len = slots.iter().position(|&hop| hop == NO_HOP).unwrap_or(l);
                        // Padding is a suffix: nothing real follows the first sentinel.
                        assert!(slots[len..].iter().all(|&hop| hop == NO_HOP));
                        slots[..len].to_vec()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn every_vertex_is_generated_exactly_once() {
        let g = test_graph(300);
        let n = g.num_vertices();
        let pg = PartitionedGraph::build(&g, 4, PartitionerKind::Oblivious, 7);
        let tracer = Tracer::new(frogwild_obs::TraceConfig::logical());
        let arena = generate_walk_segments(&g, &pg, 3, 5, 11, &tracer);
        // One chunk per vertex; a vertex's chunk is filled exactly when it has an
        // out-edge, so no chunk was skipped by the hand-out to the machines.
        for (v, segs) in by_vertex(&arena, n, 3, 5).iter().enumerate() {
            assert_eq!(segs.len(), 3);
            for seg in segs {
                assert_eq!(seg.is_empty(), g.out_degree(v as VertexId) == 0);
            }
        }
        // The four machines' spans account for every vertex and every real hop once.
        let timeline = tracer.finish();
        let total = |name: &str| -> u64 {
            let counters = timeline.entries().iter().flat_map(|e| e.counters.iter());
            counters.filter(|(c, _)| *c == name).map(|(_, x)| x).sum()
        };
        assert_eq!(timeline.entries().len(), 4);
        assert_eq!(total("vertices"), n as u64);
        let real_hops = arena.iter().filter(|&&hop| hop != NO_HOP).count();
        assert_eq!(total("hops"), real_hops as u64);
    }

    #[test]
    fn segments_follow_edges_and_respect_the_length_cap() {
        let g = test_graph(200);
        let pg = PartitionedGraph::build(&g, 3, PartitionerKind::Oblivious, 5);
        let r = 4;
        let l = 6;
        let table = by_vertex(
            &generate_walk_segments(&g, &pg, r, l, 13, &Tracer::disabled()),
            g.num_vertices(),
            r,
            l,
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
        // The one-machine reference is filled by one thread, the others by as many as
        // the host has.
        let g = test_graph(250);
        let r = 3;
        let l = 5;
        let build = |machines: usize, partitioner: PartitionerKind| {
            let pg = PartitionedGraph::build(&g, machines, partitioner, 9);
            generate_walk_segments(&g, &pg, r, l, 42, &Tracer::disabled())
        };
        let reference = build(1, PartitionerKind::Oblivious);
        for machines in [4usize, 8] {
            for partitioner in [PartitionerKind::Oblivious, PartitionerKind::Random] {
                let other = build(machines, partitioner);
                assert_eq!(reference, other, "machines={machines} {partitioner:?}");
            }
        }
    }

    #[test]
    fn more_machines_than_a_host_has_threads_build_the_same_arena() {
        // One thread per simulated machine is what `frogwild index --machines 40000
        // --parallel` died of (`failed to spawn thread`); machines now share the host's
        // threads in runs, most of which master nothing on a graph this small.
        let g = test_graph(400);
        let build = |machines: usize| {
            let pg = PartitionedGraph::build(&g, machines, PartitionerKind::Random, 5);
            let tracer = Tracer::new(frogwild_obs::TraceConfig::logical());
            let arena = generate_walk_segments(&g, &pg, 2, 6, 77, &tracer);
            (arena, tracer.finish().entries().len())
        };
        let (few, few_spans) = build(4);
        let (many, many_spans) = build(3_000);
        assert_eq!(few, many);
        // Still one span per machine, whichever thread it ran on.
        assert_eq!((few_spans, many_spans), (4, 3_000));
    }

    #[test]
    fn cycle_segments_are_fully_determined() {
        let g = cycle(10);
        let pg = PartitionedGraph::build(&g, 2, PartitionerKind::Oblivious, 3);
        let table = by_vertex(
            &generate_walk_segments(&g, &pg, 2, 4, 1, &Tracer::disabled()),
            10,
            2,
            4,
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
        let pg = PartitionedGraph::build(&g, 2, PartitionerKind::Oblivious, 3);
        let arena = generate_walk_segments(&g, &pg, 2, 5, 1, &Tracer::disabled());
        let table = by_vertex(&arena, 3, 2, 5);
        // From vertex 0 the only walk is 1, 2 and then the sink stops it.
        for seg in &table[0] {
            assert_eq!(seg, &vec![1u32, 2u32]);
        }
        // Vertex 2 is a sink: its segments are empty — its whole chunk is padding.
        for seg in &table[2] {
            assert!(seg.is_empty());
        }
        assert_eq!(&arena[2 * 2 * 5..], &[NO_HOP; 10]);
    }
}
