//! Serving PPR and global-PageRank queries from a [`WalkIndex`].
//!
//! Index serving follows the PowerWalk recipe. A personalized query is answered in two
//! phases:
//!
//! 1. **Localize** — [`forward_push_ppr`] runs down to the (deliberately coarse)
//!    `frontier_epsilon` of the [`WalkIndexConfig`], converting the easy head of the
//!    PPR vector into settled estimates and leaving a *residual frontier*: the exact
//!    decomposition `π_s = p + Σ_u r(u) · π_u` says the missing mass is a
//!    residual-weighted mixture of the frontier vertices' own PPR vectors.
//! 2. **Stitch** — that mixture is sampled with random walks whose hops come from the
//!    index: a walk at vertex `v` consumes one of `v`'s precomputed segments and
//!    stitches the next segment at the exit vertex, so the only randomness left per
//!    walk is the start vertex. A fresh hop is sampled only when a walk lands on a
//!    vertex whose segments were all consumed earlier in the same query (a *segment
//!    miss*); the walk then re-enters the index at the sampled neighbour. Distinct
//!    walks never share a segment, so the walks of one query stay mutually
//!    independent.
//!
//! Walks are scored with the **complete-path estimator** (Avrachenkov et al.): instead
//! of sampling a geometric lifespan and counting only the endpoint, every visited
//! vertex receives the expected teleport-death mass `α(1-α)^t` of hop `t`, with the
//! geometric tail deposited wherever the walk stops (the hop cap, or the point where
//! the remaining tail drops below [`TAIL_FLOOR`] of the walk's share); walks stranded
//! on a dangling vertex recycle to their start, the same convention as
//! [`monte_carlo_ppr_counted`](crate::ppr::monte_carlo_ppr_counted). This is the
//! Rao-Blackwellization of endpoint counting — same expectation, far lower variance
//! per walk — which is what lets an index-served query match fresh-Monte-Carlo
//! accuracy with an order of magnitude fewer walks. Mass is conserved exactly: each
//! walk deposits precisely its share, so a served estimate sums to 1.
//!
//! Global top-k uses the same stitcher with uniform walk starts and the FrogWild
//! truncation (hop cap = `iterations`); the complete-path weights are exactly the
//! expectation of FrogWild's kill-or-survive walker counting.
//!
//! Everything is deterministic: the walk randomness is derived from the index seed, the
//! query seed, and the source, so the same query against the same index always returns
//! the same response.

// lint:allow-file(indexing, hot path; the arena's n·R·L shape was checked when the index was built)

use frogwild_engine::rng::derived_rng;
use frogwild_engine::walkgen::NO_HOP;
use frogwild_graph::{DiGraph, VertexId};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::config::{in_open_unit_interval, FrogWildConfig};
use crate::error::{Error, Result};
use crate::ppr::forward_push_ppr;

use super::config::WalkIndexConfig;
use super::storage::WalkIndex;

/// Domain-separation tags for query-time randomness.
const TAG_SERVE_PPR: u64 = 0x5E12_0001;
const TAG_SERVE_GLOBAL: u64 = 0x5E12_0002;

/// Hard cap on the hop count of any single stitched PPR walk. A walk's undeposited
/// geometric tail `(1 - p_T)^cap` lands at the truncation point, so the cap trades a
/// small, bounded placement bias (~2% of walk mass at `p_T = 0.15`) for proportionally
/// less per-walk work — the role `max_steps` plays for
/// [`monte_carlo_ppr_counted`](crate::ppr::monte_carlo_ppr_counted).
const MAX_WALK_HOPS: u64 = 24;

/// A stitched walk stops once its undeposited geometric tail falls below this fraction
/// of its share; the remainder is deposited in place. Bounds per-walk truncation bias
/// at `share · TAIL_FLOOR` while keeping walks near their effective `1/p_T` length.
pub const TAIL_FLOOR: f64 = 1e-3;

/// Work and index-economics counters of one index-served query.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IndexServeStats {
    /// Push operations of the localization phase (zero for global top-k).
    pub pushes: usize,
    /// Residual mass the push phase left for the walks (zero for global top-k).
    pub residual_mass: f64,
    /// Stitched walks performed.
    pub stitched_walks: u64,
    /// Segments served straight from the arena.
    pub segment_hits: u64,
    /// Segment requests that found the vertex's arena budget exhausted and fell back
    /// to fresh sampling. Each miss costs exactly one freshly sampled hop — the only
    /// per-hop sampling work of an index-served query.
    pub segment_misses: u64,
    /// Total hops the walks covered, index-served or fresh.
    pub walk_hops: u64,
    /// Vertices on the residual frontier the push phase left (zero for global
    /// top-k) — how far the push grew before handing over to the walks.
    pub frontier_vertices: u64,
}

/// An estimate served from the index, with its serving statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexedEstimate {
    /// Per-vertex score estimate (sums to 1).
    pub estimate: Vec<f64>,
    /// Work counters of this query.
    pub stats: IndexServeStats,
}

/// Walks over the graph by consuming whole precomputed segments.
///
/// Per-query state: `cursors[v]` counts how many of `v`'s segments this query has
/// consumed, so every use of a vertex gets a *distinct* precomputed segment until the
/// budget `R` runs out, after which hops are resampled freshly — walks within one
/// query stay independent.
struct Stitcher<'a> {
    graph: &'a DiGraph,
    index: &'a WalkIndex,
    cursors: Vec<u32>,
    segment_hits: u64,
    segment_misses: u64,
    walk_hops: u64,
}

impl<'a> Stitcher<'a> {
    fn new(graph: &'a DiGraph, index: &'a WalkIndex) -> Self {
        Stitcher {
            graph,
            index,
            cursors: vec![0; graph.num_vertices()],
            segment_hits: 0,
            segment_misses: 0,
            walk_hops: 0,
        }
    }

    /// Runs one stitched walk of (at most) `cap` hops from `start` and deposits its
    /// `share` of mass into `estimate` with complete-path weights: hop `t` receives
    /// `share * alpha * (1-alpha)^t`, and the undeposited tail lands wherever the walk
    /// stops — the hop cap or the [`TAIL_FLOOR`] truncation. Walks stranded on a
    /// dangling vertex recycle to their start, mirroring `monte_carlo_ppr_counted`'s
    /// convention. Exactly `share` is deposited in total.
    ///
    /// Everything the walk needs to know about `v` is in `v`'s next arena slot, one
    /// dependent load behind the cursor: a sentinel in position 0 says `v` is a sink,
    /// anything else is the segment to consume. The graph itself is read only on a miss.
    fn walk_spread(
        &mut self,
        start: VertexId,
        share: f64,
        teleport_probability: f64,
        cap: u64,
        estimate: &mut [f64],
        rng: &mut SmallRng,
    ) {
        let r = self.index.segments_per_vertex() as u32;
        let decay = 1.0 - teleport_probability;
        let floor = share * TAIL_FLOOR;
        let mut v = start;
        let mut tail = share;
        let mut hops = 0u64;
        // Arriving at `v` deposits the teleport-death mass of that hop.
        let mut arrive = |v: VertexId, tail: &mut f64| {
            estimate[v as usize] += *tail * teleport_probability;
            *tail *= decay;
        };
        arrive(v, &mut tail);
        'walk: while hops < cap && tail >= floor {
            let cursor = self.cursors[v as usize];
            if cursor >= r {
                // Budget exhausted at this vertex: resample a single fresh hop. The
                // walk then re-enters the index at the neighbour, whose own segment
                // pool is typically untouched — exhaustion at a hot vertex costs one
                // hop, not a whole segment's worth. (A sink never gets here: its
                // cursor stays at zero.)
                self.segment_misses += 1;
                let neighbors = self.graph.out_neighbors(v);
                v = neighbors[rng.gen_range(0..neighbors.len())];
                hops += 1;
                arrive(v, &mut tail);
                continue;
            }
            let slots = self.index.slots(v, cursor as usize);
            if slots[0] == NO_HOP {
                // A stranded walk recycles to its start — the same dangling-vertex
                // convention as `monte_carlo_ppr_counted`, costing one hop and no sampling.
                v = start;
                hops += 1;
                arrive(v, &mut tail);
                continue;
            }
            self.cursors[v as usize] = cursor + 1;
            self.segment_hits += 1;
            for &hop in slots {
                if hop == NO_HOP {
                    break;
                }
                v = hop;
                hops += 1;
                arrive(v, &mut tail);
                if hops >= cap || tail < floor {
                    break 'walk;
                }
            }
        }
        estimate[v as usize] += tail;
        self.walk_hops += hops;
    }

    fn into_stats(self) -> IndexServeStats {
        IndexServeStats {
            segment_hits: self.segment_hits,
            segment_misses: self.segment_misses,
            walk_hops: self.walk_hops,
            ..IndexServeStats::default()
        }
    }
}

fn check_index_matches(graph: &DiGraph, index: &WalkIndex) -> Result<()> {
    if index.num_vertices() != graph.num_vertices() || index.num_edges() != graph.num_edges() {
        return Err(Error::graph(format!(
            "walk index was built for a graph with {} vertices / {} edges, \
             but this graph has {} / {}",
            index.num_vertices(),
            index.num_edges(),
            graph.num_vertices(),
            graph.num_edges()
        )));
    }
    Ok(())
}

/// Personalized PageRank of `source`, served from the index: forward push to the
/// config's residual frontier, then stitched walks for the residual mass.
///
/// The returned estimate sums to 1 exactly (push settles `1 - residual_mass`; every
/// stitched walk deposits an equal share of `residual_mass`).
///
/// # Errors
///
/// * [`Error::Graph`] when the index does not cover the graph;
/// * [`Error::Query`] when `source` is out of range;
/// * [`Error::InvalidConfig`] when `teleport_probability` is outside `(0, 1)` or the
///   config fails validation.
pub fn indexed_ppr(
    graph: &DiGraph,
    index: &WalkIndex,
    config: &WalkIndexConfig,
    source: VertexId,
    teleport_probability: f64,
) -> Result<IndexedEstimate> {
    config.validate()?;
    check_index_matches(graph, index)?;
    let n = graph.num_vertices();
    if source as usize >= n {
        return Err(Error::query(format!(
            "ppr source {source} out of range for a graph with {n} vertices"
        )));
    }
    if !in_open_unit_interval(teleport_probability) {
        return Err(Error::config(
            "indexed_ppr",
            format!("teleport_probability must be in (0, 1), got {teleport_probability}"),
        ));
    }

    // Phase 1: localize.
    let push = forward_push_ppr(graph, source, teleport_probability, config.frontier_epsilon);

    // Phase 2: stitch walks for the residual mixture Σ_u r(u) · π_u, starting each from
    // a frontier vertex drawn by residual. The push hands its frontier over, ascending,
    // so the running sum ends on exactly `push.residual_mass()`.
    let mut residual_mass = 0.0;
    let cumulative: Vec<f64> = (push.frontier.iter())
        .map(|&v| {
            residual_mass += push.residual[v as usize];
            residual_mass
        })
        .collect();
    let frontier = push.frontier;
    let mut estimate = push.estimate;
    let mut stitcher = Stitcher::new(graph, index);
    let mut stitched_walks = 0;
    if residual_mass > 0.0 {
        let walks = ((residual_mass * config.walks_per_unit_residual as f64).ceil() as u64).max(1);
        let share = residual_mass / walks as f64;
        let mut rng = derived_rng(&[
            index.seed(),
            config.seed,
            source as u64,
            teleport_probability.to_bits(),
            TAG_SERVE_PPR,
        ]);
        for _ in 0..walks {
            let target = rng.gen::<f64>() * residual_mass;
            let at = cumulative
                .partition_point(|&c| c <= target)
                .min(frontier.len() - 1);
            stitcher.walk_spread(
                frontier[at],
                share,
                teleport_probability,
                MAX_WALK_HOPS,
                &mut estimate,
                &mut rng,
            );
        }
        stitched_walks = walks;
    }

    let mut stats = stitcher.into_stats();
    stats.pushes = push.pushes;
    stats.residual_mass = residual_mass;
    stats.stitched_walks = stitched_walks;
    stats.frontier_vertices = frontier.len() as u64;
    Ok(IndexedEstimate { estimate, stats })
}

/// Global PageRank served from the index with the FrogWild estimator shape:
/// `num_walkers` walks from uniform starts, lifespans `min(Geometric(p_T), iterations)`,
/// endpoints counted.
///
/// # Errors
///
/// * [`Error::Graph`] when the index does not cover the graph;
/// * [`Error::InvalidConfig`] when `fw` fails [`FrogWildConfig::validate`].
pub fn indexed_pagerank(
    graph: &DiGraph,
    index: &WalkIndex,
    fw: &FrogWildConfig,
) -> Result<IndexedEstimate> {
    fw.validate()?;
    check_index_matches(graph, index)?;
    let n = graph.num_vertices();
    let mut estimate = vec![0.0f64; n];
    let share = 1.0 / fw.num_walkers as f64;
    let mut stitcher = Stitcher::new(graph, index);
    let mut rng = derived_rng(&[index.seed(), fw.seed, TAG_SERVE_GLOBAL]);
    for _ in 0..fw.num_walkers {
        let start = rng.gen_range(0..n) as VertexId;
        stitcher.walk_spread(
            start,
            share,
            fw.teleport_probability,
            fw.iterations as u64,
            &mut estimate,
            &mut rng,
        );
    }
    let mut stats = stitcher.into_stats();
    stats.stitched_walks = fw.num_walkers;
    Ok(IndexedEstimate { estimate, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::partition_graph;
    use crate::metrics::mass_captured;
    use crate::ppr::{personalized_pagerank, single_source_restart};
    use crate::reference::exact_pagerank;
    use crate::walkindex::build_walk_index;
    use frogwild_graph::generators::simple::cycle;
    use frogwild_graph::generators::{rmat, RmatParams};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_graph(n: usize) -> DiGraph {
        let mut rng = SmallRng::seed_from_u64(404);
        rmat(n, RmatParams::default(), &mut rng)
    }

    fn test_index(g: &DiGraph, cfg: &WalkIndexConfig) -> WalkIndex {
        let pg = partition_graph(g, &frogwild_engine::ClusterConfig::new(4, cfg.seed));
        build_walk_index(g, &pg, cfg).unwrap().0
    }

    #[test]
    fn indexed_ppr_is_a_distribution_and_matches_exact_on_the_head() {
        let g = test_graph(400);
        let cfg = WalkIndexConfig {
            segments_per_vertex: 16,
            segment_length: 8,
            walks_per_unit_residual: 20_000,
            ..WalkIndexConfig::default()
        };
        let index = test_index(&g, &cfg);
        let source = 7;
        let served = indexed_ppr(&g, &index, &cfg, source, 0.15).unwrap();
        let total: f64 = served.estimate.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        assert!(served.estimate.iter().all(|&x| x >= 0.0));
        assert!(served.stats.pushes > 0);
        assert!(served.stats.stitched_walks > 0);
        assert!(served.stats.segment_hits > 0);

        let exact = personalized_pagerank(
            &g,
            &single_source_restart(g.num_vertices(), source),
            0.15,
            300,
            1e-12,
        );
        let m = mass_captured(&served.estimate, &exact.scores, 10);
        assert!(m.normalized() > 0.85, "captured {}", m.normalized());
    }

    #[test]
    fn indexed_ppr_is_deterministic_per_seed() {
        let g = test_graph(300);
        let cfg = WalkIndexConfig::default();
        let index = test_index(&g, &cfg);
        let a = indexed_ppr(&g, &index, &cfg, 3, 0.15).unwrap();
        let b = indexed_ppr(&g, &index, &cfg, 3, 0.15).unwrap();
        assert_eq!(a, b);
        let other_seed = WalkIndexConfig { seed: 1, ..cfg };
        let c = indexed_ppr(&g, &index, &other_seed, 3, 0.15).unwrap();
        assert_ne!(a.estimate, c.estimate);
    }

    #[test]
    fn indexed_ppr_on_a_cycle_decays_with_distance() {
        let g = cycle(30);
        let cfg = WalkIndexConfig {
            segments_per_vertex: 4,
            segment_length: 6,
            ..WalkIndexConfig::default()
        };
        let index = test_index(&g, &cfg);
        let served = indexed_ppr(&g, &index, &cfg, 0, 0.2).unwrap();
        assert!(served.estimate[1] > served.estimate[15]);
    }

    #[test]
    fn segment_misses_appear_only_under_pressure() {
        let g = test_graph(200);
        // One segment per vertex and a heavy walk budget: misses are inevitable.
        let starved = WalkIndexConfig {
            segments_per_vertex: 1,
            segment_length: 2,
            walks_per_unit_residual: 50_000,
            frontier_epsilon: 1e-2,
            ..WalkIndexConfig::default()
        };
        let index = test_index(&g, &starved);
        let served = indexed_ppr(&g, &index, &starved, 5, 0.15).unwrap();
        assert!(served.stats.segment_misses > 0);
        // The estimate stays exact-mass regardless of misses.
        let total: f64 = served.estimate.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn indexed_pagerank_finds_the_global_head() {
        let g = test_graph(400);
        let cfg = WalkIndexConfig {
            segments_per_vertex: 8,
            segment_length: 8,
            ..WalkIndexConfig::default()
        };
        let index = test_index(&g, &cfg);
        let fw = FrogWildConfig {
            num_walkers: 60_000,
            iterations: 5,
            ..FrogWildConfig::default()
        };
        let served = indexed_pagerank(&g, &index, &fw).unwrap();
        let total: f64 = served.estimate.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(served.stats.stitched_walks, 60_000);
        let exact = exact_pagerank(&g, 0.15, 100, 1e-12);
        let m = mass_captured(&served.estimate, &exact.scores, 30);
        assert!(m.normalized() > 0.8, "captured {}", m.normalized());
    }

    #[test]
    fn serve_errors_are_typed() {
        let g = test_graph(100);
        let cfg = WalkIndexConfig::default();
        let index = test_index(&g, &cfg);
        assert!(matches!(
            indexed_ppr(&g, &index, &cfg, g.num_vertices() as VertexId, 0.15),
            Err(Error::Query { .. })
        ));
        assert!(matches!(
            indexed_ppr(&g, &index, &cfg, 0, 1.5),
            Err(Error::InvalidConfig { .. })
        ));
        let other = test_graph(150);
        assert!(matches!(
            indexed_ppr(&other, &index, &cfg, 0, 0.15),
            Err(Error::Graph { .. })
        ));
        let bad_fw = FrogWildConfig {
            num_walkers: 0,
            ..FrogWildConfig::default()
        };
        assert!(matches!(
            indexed_pagerank(&g, &index, &bad_fw),
            Err(Error::InvalidConfig { .. })
        ));
    }

    impl Stitcher<'_> {
        /// The stitcher as it was before the arena had a fixed stride, kept as the
        /// oracle of `sink_bearing_graphs_are_served_exactly_as_the_reference_serves_them`:
        /// it asks the graph whether `v` is a sink and reads hops through the trimmed
        /// `segment()` view, never seeing a sentinel.
        fn reference_walk_spread(
            &mut self,
            start: VertexId,
            share: f64,
            teleport_probability: f64,
            cap: u64,
            estimate: &mut [f64],
            rng: &mut SmallRng,
        ) {
            let r = self.index.segments_per_vertex() as u32;
            let decay = 1.0 - teleport_probability;
            let floor = share * TAIL_FLOOR;
            let mut v = start;
            let mut tail = share;
            let mut hops = 0u64;
            estimate[v as usize] += tail * teleport_probability;
            tail *= decay;
            'walk: while hops < cap && tail >= floor {
                if self.graph.out_degree(v) == 0 {
                    v = start;
                    hops += 1;
                    estimate[v as usize] += tail * teleport_probability;
                    tail *= decay;
                    continue;
                }
                let cursor = self.cursors[v as usize];
                if cursor < r {
                    self.cursors[v as usize] = cursor + 1;
                    self.segment_hits += 1;
                    for &hop in self.index.segment(v, cursor as usize) {
                        v = hop;
                        hops += 1;
                        estimate[v as usize] += tail * teleport_probability;
                        tail *= decay;
                        if hops >= cap || tail < floor {
                            break 'walk;
                        }
                    }
                } else {
                    self.segment_misses += 1;
                    let neighbors = self.graph.out_neighbors(v);
                    v = neighbors[rng.gen_range(0..neighbors.len())];
                    hops += 1;
                    estimate[v as usize] += tail * teleport_probability;
                    tail *= decay;
                }
            }
            estimate[v as usize] += tail;
            self.walk_hops += hops;
        }
    }

    /// `indexed_ppr` as it was: dense passes over `residual` for the mass and the
    /// frontier, the reference stitcher for the walks.
    fn reference_indexed_ppr(
        graph: &DiGraph,
        index: &WalkIndex,
        config: &WalkIndexConfig,
        source: VertexId,
        teleport_probability: f64,
    ) -> IndexedEstimate {
        let push = forward_push_ppr(graph, source, teleport_probability, config.frontier_epsilon);
        let residual_mass: f64 = push.residual.iter().sum();
        let mut estimate = push.estimate;
        let mut stitcher = Stitcher::new(graph, index);
        let mut stitched_walks = 0;
        let mut frontier_vertices = 0;
        if residual_mass > 0.0 {
            let mut acc = 0.0;
            let frontier: Vec<(VertexId, f64)> = (push.residual.iter().enumerate())
                .filter(|(_, &r)| r > 0.0)
                .map(|(v, &r)| {
                    acc += r;
                    (v as VertexId, acc)
                })
                .collect();
            frontier_vertices = frontier.len() as u64;
            let walks =
                ((residual_mass * config.walks_per_unit_residual as f64).ceil() as u64).max(1);
            let share = residual_mass / walks as f64;
            let mut rng = derived_rng(&[
                index.seed(),
                config.seed,
                source as u64,
                teleport_probability.to_bits(),
                TAG_SERVE_PPR,
            ]);
            for _ in 0..walks {
                let target = rng.gen::<f64>() * acc;
                let at = frontier
                    .partition_point(|&(_, c)| c <= target)
                    .min(frontier.len() - 1);
                stitcher.reference_walk_spread(
                    frontier[at].0,
                    share,
                    teleport_probability,
                    MAX_WALK_HOPS,
                    &mut estimate,
                    &mut rng,
                );
            }
            stitched_walks = walks;
        }
        let stats = IndexServeStats {
            pushes: push.pushes,
            residual_mass,
            stitched_walks,
            frontier_vertices,
            ..stitcher.into_stats()
        };
        IndexedEstimate { estimate, stats }
    }

    /// `indexed_pagerank` over the reference stitcher.
    fn reference_indexed_pagerank(
        graph: &DiGraph,
        index: &WalkIndex,
        fw: &FrogWildConfig,
    ) -> IndexedEstimate {
        let n = graph.num_vertices();
        let mut estimate = vec![0.0f64; n];
        let share = 1.0 / fw.num_walkers as f64;
        let mut stitcher = Stitcher::new(graph, index);
        let mut rng = derived_rng(&[index.seed(), fw.seed, TAG_SERVE_GLOBAL]);
        for _ in 0..fw.num_walkers {
            let start = rng.gen_range(0..n) as VertexId;
            stitcher.reference_walk_spread(
                start,
                share,
                fw.teleport_probability,
                fw.iterations as u64,
                &mut estimate,
                &mut rng,
            );
        }
        let stats = IndexServeStats {
            stitched_walks: fw.num_walkers,
            ..stitcher.into_stats()
        };
        IndexedEstimate { estimate, stats }
    }

    /// Graphs that have sinks — which nothing the builder, the reader or the generators
    /// produce does — each with the sources worth asking about.
    fn sink_bearing_graphs() -> Vec<(&'static str, DiGraph, Vec<VertexId>)> {
        // Leaves point at a hub that points nowhere; and the mirror image, a hub whose
        // every out-neighbour is a sink.
        let in_star: Vec<(VertexId, VertexId)> = (1..6).map(|leaf| (leaf, 0)).collect();
        let out_star: Vec<(VertexId, VertexId)> = (1..6).map(|leaf| (0, leaf)).collect();
        // 60 vertices, three in ten of them sinks, the rest with one to four out-edges.
        let mut rng = SmallRng::seed_from_u64(0x51_4B);
        let mut mixed = Vec::new();
        for v in 0..60 {
            if v % 10 < 3 {
                continue;
            }
            for _ in 0..rng.gen_range(1..5) {
                mixed.push((v, rng.gen_range(0..60)));
            }
        }
        vec![
            ("in-star", DiGraph::from_edges(6, &in_star), vec![0, 3]),
            ("out-star", DiGraph::from_edges(6, &out_star), vec![0, 4]),
            (
                "path",
                DiGraph::from_edges(3, &[(0, 1), (1, 2)]),
                vec![0, 1, 2],
            ),
            ("mixed", DiGraph::from_edges(60, &mixed), vec![0, 3, 11, 47]),
        ]
    }

    #[test]
    fn sink_bearing_graphs_are_served_exactly_as_the_reference_serves_them() {
        let bits =
            |estimate: &[f64]| -> Vec<u64> { estimate.iter().map(|x| x.to_bits()).collect() };
        let mut sink_sources = 0;
        let mut missed_with_sinks_visited = 0;
        for (name, g, sources) in sink_bearing_graphs() {
            let sinks = g.vertices().filter(|&v| g.out_degree(v) == 0).count();
            assert!(sinks > 0, "{name} has no sink");
            for r in [1usize, 3] {
                for l in [1usize, 4, 8] {
                    // A coarse push and a heavy walk budget: far more visits than R at
                    // sinks and non-sinks alike.
                    let cfg = WalkIndexConfig {
                        segments_per_vertex: r,
                        segment_length: l,
                        frontier_epsilon: 0.05,
                        walks_per_unit_residual: 400,
                        seed: 0xD1FF + (r * 10 + l) as u64,
                        ..WalkIndexConfig::default()
                    };
                    let index = test_index(&g, &cfg);
                    assert!(index.truncated_segments() >= sinks * r);
                    let what = format!("{name} R={r} L={l}");

                    for &source in &sources {
                        let got = indexed_ppr(&g, &index, &cfg, source, 0.15).unwrap();
                        let want = reference_indexed_ppr(&g, &index, &cfg, source, 0.15);
                        assert_eq!(
                            bits(&got.estimate),
                            bits(&want.estimate),
                            "{what} src={source}"
                        );
                        assert_eq!(got.stats, want.stats, "{what} src={source}");
                        let total: f64 = got.estimate.iter().sum();
                        assert!((total - 1.0).abs() < 1e-12, "{what} src={source}: {total}");
                        if g.out_degree(source) == 0 {
                            // A sink source settles at once: nothing is left to walk.
                            assert_eq!(got.stats.stitched_walks, 0);
                            sink_sources += 1;
                        } else if got.stats.segment_misses > 0 {
                            missed_with_sinks_visited += 1;
                        }
                    }

                    let fw = FrogWildConfig {
                        num_walkers: 300,
                        iterations: 6,
                        seed: cfg.seed,
                        ..FrogWildConfig::default()
                    };
                    let got = indexed_pagerank(&g, &index, &fw).unwrap();
                    let want = reference_indexed_pagerank(&g, &index, &fw);
                    assert_eq!(bits(&got.estimate), bits(&want.estimate), "{what} global");
                    assert_eq!(got.stats, want.stats, "{what} global");
                    let total: f64 = got.estimate.iter().sum();
                    assert!((total - 1.0).abs() < 1e-12, "{what} global: {total}");
                    // 300 walks over at most 60 vertices with at most 3 segments each:
                    // cursors run out, and walks starting on sinks recycle.
                    assert!(got.stats.segment_misses > 0, "{what} global");
                }
            }
        }
        assert!(sink_sources > 0 && missed_with_sinks_visited > 0);
    }
}
