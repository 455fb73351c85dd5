//! Building a [`WalkIndex`]: parallel segment generation + arena assembly.
//!
//! The expensive half of an index build — generating `n · R` random-walk segments — is
//! delegated to the engine's [`generate_walk_segments`], which splits the work across
//! the simulated machines by master assignment (one worker thread per machine when the
//! config asks for parallelism). This module owns the cheap half: validating the
//! configuration, applying the memory budget, and flattening the per-machine batches
//! into the CSR-style arena of [`WalkIndex`].

// lint:allow-file(indexing, CSR assembly; offsets come from a counting pass over the same segments)

use std::time::Instant;

use frogwild_engine::{generate_walk_segments, PartitionedGraph};
use frogwild_graph::{DiGraph, VertexId};
use frogwild_obs::Tracer;

use crate::error::{Error, Result};

use super::config::WalkIndexConfig;
use super::storage::WalkIndex;

/// What a [`build_walk_index`] call produced, beyond the index itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WalkIndexBuildReport {
    /// The `R` the configuration asked for.
    pub requested_segments: usize,
    /// The `R` actually built (shrunk by the memory budget when necessary).
    pub effective_segments: usize,
    /// Hops per segment (`L`).
    pub segment_length: usize,
    /// Simulated machines the generation was split across.
    pub machines: usize,
    /// Bytes the finished arena occupies.
    pub arena_bytes: usize,
    /// Total hops stored.
    pub total_hops: usize,
    /// Segments that stopped early at a dangling vertex.
    pub truncated_segments: usize,
    /// Host seconds the build took (generation + assembly).
    pub build_seconds: f64,
}

/// Builds a [`WalkIndex`] for `graph` over an existing partitioned layout.
///
/// Each simulated machine of `pg` generates the segments of the vertices it masters
/// (in parallel when `config.parallel` is set); the batches are then flattened into
/// one contiguous arena. The result is identical for any machine count, partitioner,
/// or threading mode — only the build-time work division changes.
///
/// # Errors
///
/// * [`Error::InvalidConfig`] when the configuration fails
///   [`WalkIndexConfig::validate`] or the memory budget cannot hold even one segment
///   per vertex;
/// * [`Error::Graph`] when the graph is empty or does not match `pg`.
pub fn build_walk_index(
    graph: &DiGraph,
    pg: &PartitionedGraph,
    config: &WalkIndexConfig,
) -> Result<(WalkIndex, WalkIndexBuildReport)> {
    build_walk_index_traced(graph, pg, config, &Tracer::disabled())
}

/// [`build_walk_index`] with a tracing handle: each machine's segment generation is
/// recorded as a `walk_segments` span with vertex/hop counters (see
/// [`generate_walk_segments`]). The built index is identical to the untraced
/// build — the tracer only observes.
///
/// # Errors
///
/// The same errors as [`build_walk_index`].
pub fn build_walk_index_traced(
    graph: &DiGraph,
    pg: &PartitionedGraph,
    config: &WalkIndexConfig,
    tracer: &Tracer,
) -> Result<(WalkIndex, WalkIndexBuildReport)> {
    config.validate()?;
    let n = graph.num_vertices();
    if n == 0 {
        return Err(Error::graph(
            "cannot build a walk index over an empty graph",
        ));
    }
    if pg.num_vertices() != n {
        return Err(Error::graph(format!(
            "partitioned layout covers {} vertices but the graph has {n}",
            pg.num_vertices()
        )));
    }
    let r = config.effective_segments(n)?;
    let l = config.segment_length;

    let started = Instant::now(); // lint:allow(timing, host-seconds telemetry only; excluded from determinism)
    let batches = generate_walk_segments(graph, pg, r, l, config.seed, config.parallel, tracer);

    // Flatten the per-machine batches into vertex-major CSR form. First pass: collect
    // every segment length into global (vertex, segment) order and prefix-sum it into
    // the offset table; second pass: copy each batch's hops to its arena position.
    let mut lens = vec![0u32; n * r];
    for batch in &batches {
        for (i, &v) in batch.vertices.iter().enumerate() {
            lens[v as usize * r..(v as usize + 1) * r]
                .copy_from_slice(&batch.lens[i * r..(i + 1) * r]);
        }
    }
    let mut offsets = Vec::with_capacity(n * r + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &len in &lens {
        acc += len as usize;
        offsets.push(acc);
    }
    let mut hops = vec![0 as VertexId; acc];
    for batch in &batches {
        let mut cursor = 0usize;
        for (i, &v) in batch.vertices.iter().enumerate() {
            for j in 0..r {
                let len = batch.lens[i * r + j] as usize;
                let at = offsets[v as usize * r + j];
                hops[at..at + len].copy_from_slice(&batch.hops[cursor..cursor + len]);
                cursor += len;
            }
        }
    }

    let index = WalkIndex::from_parts(n, graph.num_edges(), r, l, config.seed, offsets, hops);
    let report = WalkIndexBuildReport {
        requested_segments: config.segments_per_vertex,
        effective_segments: r,
        segment_length: l,
        machines: pg.num_machines(),
        arena_bytes: index.memory_bytes(),
        total_hops: index.total_hops(),
        truncated_segments: index.truncated_segments(),
        build_seconds: started.elapsed().as_secs_f64(),
    };
    Ok((index, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::partition_graph;
    use frogwild_engine::ClusterConfig;
    use frogwild_graph::generators::{rmat, RmatParams};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_graph(n: usize) -> DiGraph {
        let mut rng = SmallRng::seed_from_u64(77);
        rmat(n, RmatParams::default(), &mut rng)
    }

    fn build_over(
        g: &DiGraph,
        machines: usize,
        cfg: &WalkIndexConfig,
    ) -> Result<(WalkIndex, WalkIndexBuildReport)> {
        let pg = partition_graph(g, &ClusterConfig::new(machines, cfg.seed));
        build_walk_index(g, &pg, cfg)
    }

    #[test]
    fn arena_matches_direct_segment_generation() {
        let g = test_graph(300);
        let cfg = WalkIndexConfig {
            segments_per_vertex: 3,
            segment_length: 5,
            seed: 21,
            ..WalkIndexConfig::default()
        };
        let (index, report) = build_over(&g, 4, &cfg).unwrap();
        assert_eq!(index.num_vertices(), g.num_vertices());
        assert_eq!(index.segments_per_vertex(), 3);
        assert_eq!(report.effective_segments, 3);
        assert_eq!(report.machines, 4);
        assert_eq!(report.total_hops, index.total_hops());
        assert!(report.arena_bytes > 0);
        // Every stored segment is a real walk on the graph.
        for v in g.vertices() {
            for j in 0..3 {
                let seg = index.segment(v, j);
                assert!(seg.len() <= 5);
                let mut at = v;
                for &hop in seg {
                    assert!(g.has_edge(at, hop));
                    at = hop;
                }
                if seg.len() < 5 {
                    assert_eq!(g.out_degree(at), 0, "short segment not at a sink");
                }
            }
        }
    }

    #[test]
    fn build_is_identical_across_machine_counts_and_threading() {
        let g = test_graph(250);
        let cfg = WalkIndexConfig {
            segments_per_vertex: 2,
            segment_length: 4,
            seed: 5,
            ..WalkIndexConfig::default()
        };
        let (reference, _) = build_over(&g, 1, &cfg).unwrap();
        for machines in [3usize, 8] {
            for parallel in [false, true] {
                let (other, _) =
                    build_over(&g, machines, &WalkIndexConfig { parallel, ..cfg }).unwrap();
                assert_eq!(reference, other, "machines={machines} parallel={parallel}");
            }
        }
    }

    #[test]
    fn memory_budget_shrinks_the_built_index() {
        let g = test_graph(200);
        let full = WalkIndexConfig {
            segments_per_vertex: 8,
            segment_length: 6,
            seed: 3,
            ..WalkIndexConfig::default()
        };
        let budgeted = WalkIndexConfig {
            memory_budget_bytes: full.estimated_bytes(g.num_vertices(), 2),
            ..full
        };
        let (index, report) = build_over(&g, 2, &budgeted).unwrap();
        assert_eq!(report.requested_segments, 8);
        assert_eq!(report.effective_segments, 2);
        assert_eq!(index.segments_per_vertex(), 2);
        assert!(index.memory_bytes() <= budgeted.memory_budget_bytes);
    }

    #[test]
    fn bad_inputs_are_typed_errors() {
        let g = test_graph(100);
        let cfg = WalkIndexConfig::default();
        assert!(matches!(
            build_over(&DiGraph::empty(0), 2, &cfg),
            Err(Error::Graph { .. })
        ));
        let bad = WalkIndexConfig {
            segment_length: 0,
            ..cfg
        };
        assert!(matches!(
            build_over(&g, 2, &bad),
            Err(Error::InvalidConfig { .. })
        ));
    }
}
