//! Building a [`WalkIndex`]: validation, the memory budget, and the in-place fill.
//!
//! The expensive half of an index build — generating `n · R` random-walk segments — is
//! delegated to the engine's [`generate_walk_segments`], which splits the work across
//! the simulated machines by master assignment (the machines share the host's threads)
//! and has every machine write its hops straight into the fixed-stride arena. This
//! module owns the cheap half: validating the configuration and the graph, applying the
//! memory budget, and wrapping the filled arena as a [`WalkIndex`] — there is no assembly
//! pass, because a segment's address is known before it is generated.

use std::time::Instant;

use frogwild_engine::walkgen::NO_HOP;
use frogwild_engine::{generate_walk_segments, PartitionedGraph};
use frogwild_graph::DiGraph;
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
    /// Bytes the finished arena occupies: exactly
    /// [`estimated_bytes`](WalkIndexConfig::estimated_bytes) at `effective_segments`.
    pub arena_bytes: usize,
    /// Total real hops stored (sentinel padding not counted).
    pub total_hops: usize,
    /// Segments that stopped early at a dangling vertex.
    pub truncated_segments: usize,
    /// Host seconds the build took.
    pub build_seconds: f64,
}

/// Builds a [`WalkIndex`] for `graph` over an existing partitioned layout.
///
/// Each simulated machine of `pg` generates the segments of the vertices it masters
/// (on the host's threads, a run of machines to each), writing them in place into the
/// one fixed-stride arena. The result is identical for any machine count, partitioner,
/// or number of host threads — only the build-time work division changes.
///
/// # Errors
///
/// * [`Error::InvalidConfig`] when the configuration fails
///   [`WalkIndexConfig::validate`] or the memory budget cannot hold even one segment
///   per vertex;
/// * [`Error::Graph`] when the graph is empty, does not match `pg`, or has a vertex id
///   equal to the arena's padding sentinel (`VertexId::MAX`).
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
pub(crate) fn build_walk_index_traced(
    graph: &DiGraph,
    pg: &PartitionedGraph,
    config: &WalkIndexConfig,
    tracer: &Tracer,
) -> Result<(WalkIndex, WalkIndexBuildReport)> {
    config.validate()?;
    let n = graph.num_vertices();
    check_coverable(n, pg.num_vertices())?;
    let r = config.effective_segments(n)?;
    let l = config.segment_length;

    let started = Instant::now(); // lint:allow(timing, host-seconds telemetry only; excluded from determinism)
    let hops = generate_walk_segments(graph, pg, r, l, config.seed, tracer);
    let index = WalkIndex::from_arena(n, graph.num_edges(), r, l, config.seed, hops);
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

/// A graph of `n` vertices, laid out over `layout_vertices`, can be indexed: it is not
/// empty, the layout is its own, and no vertex id collides with [`NO_HOP`].
fn check_coverable(n: usize, layout_vertices: usize) -> Result<()> {
    if n == 0 {
        return Err(Error::graph(
            "cannot build a walk index over an empty graph",
        ));
    }
    if layout_vertices != n {
        return Err(Error::graph(format!(
            "partitioned layout covers {layout_vertices} vertices but the graph has {n}"
        )));
    }
    if n > NO_HOP as usize {
        return Err(Error::graph(format!(
            "a graph of {n} vertices uses vertex id {NO_HOP}, the walk arena's padding sentinel"
        )));
    }
    Ok(())
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
        // One machine builds on one thread, more machines on as many as the host has.
        let g = test_graph(250);
        let cfg = WalkIndexConfig {
            segments_per_vertex: 2,
            segment_length: 4,
            seed: 5,
            ..WalkIndexConfig::default()
        };
        let (reference, _) = build_over(&g, 1, &cfg).unwrap();
        for machines in [3usize, 8] {
            let (other, _) = build_over(&g, machines, &cfg).unwrap();
            assert_eq!(reference, other, "machines={machines}");
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
    fn arena_bytes_are_exactly_what_the_config_estimates() {
        // With sinks (every third vertex of a ring of chords has no out-edge) and
        // without; under a budget that shrinks R and without one.
        let n = 90;
        let sinky: Vec<(u32, u32)> = (0..n as u32)
            .filter(|v| v % 3 != 0)
            .flat_map(|v| [(v, (v + 1) % n as u32), (v, (v * 7 + 2) % n as u32)])
            .collect();
        let with_sinks = DiGraph::from_edges(n, &sinky);
        assert_eq!(
            with_sinks
                .vertices()
                .filter(|&v| with_sinks.out_degree(v) == 0)
                .count(),
            n / 3
        );
        for (g, has_sinks) in [(with_sinks, true), (test_graph(150), false)] {
            let n = g.num_vertices();
            for (r, l, budget) in [
                (4, 6, usize::MAX),
                (1, 1, usize::MAX),
                (16, 8, n * 5 * 8 * 4 + 17),
            ] {
                let cfg = WalkIndexConfig {
                    segments_per_vertex: r,
                    segment_length: l,
                    memory_budget_bytes: budget,
                    ..WalkIndexConfig::default()
                };
                let (index, report) = build_over(&g, 3, &cfg).unwrap();
                assert_eq!(
                    report.arena_bytes,
                    cfg.estimated_bytes(n, report.effective_segments)
                );
                assert_eq!(report.arena_bytes, index.memory_bytes());
                let fits = if budget == usize::MAX { r } else { 5 };
                assert_eq!(report.effective_segments, fits);
                assert!(report.arena_bytes <= budget);
                assert_eq!(report.truncated_segments > 0, has_sinks);
                // Padding is not a hop: a truncated arena holds fewer than n · R · L.
                let slots = n * report.effective_segments * l;
                assert_eq!(report.total_hops < slots, has_sinks);
                let by_segment: usize = (g.vertices())
                    .flat_map(|v| (0..report.effective_segments).map(move |j| (v, j)))
                    .map(|(v, j)| index.segment(v, j).len())
                    .sum();
                assert_eq!(report.total_hops, by_segment);
            }
        }
    }

    #[test]
    fn a_graph_must_be_non_empty_laid_out_as_itself_and_below_the_sentinel() {
        assert!(check_coverable(1, 1).is_ok());
        assert!(check_coverable(NO_HOP as usize, NO_HOP as usize).is_ok());
        for (n, layout) in [(0, 0), (5, 4), (NO_HOP as usize + 1, NO_HOP as usize + 1)] {
            assert!(
                matches!(check_coverable(n, layout), Err(Error::Graph { .. })),
                "n={n} layout={layout}"
            );
        }
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
