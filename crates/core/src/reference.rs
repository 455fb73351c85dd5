//! Serial reference implementations used as ground truth.
//!
//! * [`exact_pagerank`] — dense power iteration on the PageRank matrix `Q` of
//!   Definition 1, run to a tight tolerance. This is the π every accuracy metric in the
//!   experiments compares against.
//! * [`serial_random_walk_pagerank`] — Process 15 of the paper: independent walkers with
//!   truncated-geometric lifespans simulated on one machine with no engine effects.
//!   Used in tests to separate "Monte-Carlo error" from "partial-synchronization error".

// lint:allow-file(indexing, dense per-vertex tables sized from the graph being scored)

use frogwild_graph::{DiGraph, VertexId};
use rand::Rng;

use crate::dist;

/// Result of a serial PageRank computation.
#[derive(Clone, Debug)]
pub struct PageRankResult {
    /// PageRank score of every vertex; sums to 1.
    pub scores: Vec<f64>,
    /// Number of power-iteration steps performed.
    pub iterations: usize,
    /// Final l1 change between consecutive iterates.
    pub residual: f64,
}

/// Exact PageRank by power iteration.
///
/// Computes the principal eigenvector of `Q = (1 - p_T) P + (p_T / n) 11ᵀ` where
/// `P_ij = A_ij / d_out(j)`. Vertices with out-degree zero ("dangling") have their mass
/// redistributed uniformly, the standard correction (the workspace's graph builders
/// normally eliminate them with self-loops, so this is a safety net for `Keep` graphs).
///
/// Iteration stops when the l1 change drops below `tolerance` or after
/// `max_iterations`, whichever comes first.
pub fn exact_pagerank(
    graph: &DiGraph,
    teleport_probability: f64,
    max_iterations: usize,
    tolerance: f64,
) -> PageRankResult {
    assert!(
        teleport_probability > 0.0 && teleport_probability < 1.0,
        "teleport probability must be in (0, 1)"
    );
    let n = graph.num_vertices();
    if n == 0 {
        return PageRankResult {
            scores: Vec::new(),
            iterations: 0,
            residual: 0.0,
        };
    }
    let uniform = 1.0 / n as f64;
    let mut current = vec![uniform; n];
    let mut next = vec![0.0f64; n];
    let mut iterations = 0;
    let mut residual = f64::INFINITY;

    for _ in 0..max_iterations {
        iterations += 1;
        // Teleport component plus dangling-mass redistribution.
        let dangling_mass: f64 = graph
            .vertices()
            .filter(|&v| graph.out_degree(v) == 0)
            .map(|v| current[v as usize])
            .sum();
        let base =
            teleport_probability * uniform + (1.0 - teleport_probability) * dangling_mass * uniform;
        next.iter_mut().for_each(|x| *x = base);
        // Push each vertex's mass along its out-edges.
        for v in graph.vertices() {
            let deg = graph.out_degree(v);
            if deg == 0 {
                continue;
            }
            let share = (1.0 - teleport_probability) * current[v as usize] / deg as f64;
            for &dst in graph.out_neighbors(v) {
                next[dst as usize] += share;
            }
        }
        residual = current
            .iter()
            .zip(next.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        std::mem::swap(&mut current, &mut next);
        if residual < tolerance {
            break;
        }
    }

    PageRankResult {
        scores: current,
        iterations,
        residual,
    }
}

/// Serial Monte-Carlo PageRank (the paper's Process 15): `num_walkers` independent
/// walkers start at uniformly random vertices and take a `Geometric(p_T)` number of
/// steps, truncated at `max_steps`; the empirical distribution of their final positions
/// estimates π.
///
/// Walkers stranded on a dangling vertex stay put for the remainder of their lifespan
/// (equivalent to the self-loop fix the builders apply).
pub fn serial_random_walk_pagerank<R: Rng + ?Sized>(
    graph: &DiGraph,
    num_walkers: u64,
    max_steps: usize,
    teleport_probability: f64,
    rng: &mut R,
) -> Vec<f64> {
    assert!(
        teleport_probability > 0.0 && teleport_probability <= 1.0,
        "teleport probability must be in (0, 1]"
    );
    let n = graph.num_vertices();
    let mut counts = vec![0u64; n];
    if n == 0 || num_walkers == 0 {
        return vec![0.0; n];
    }
    for _ in 0..num_walkers {
        let mut position = rng.gen_range(0..n) as VertexId;
        let lifespan = dist::geometric(teleport_probability, rng).min(max_steps as u64);
        for _ in 0..lifespan {
            let neighbors = graph.out_neighbors(position);
            if neighbors.is_empty() {
                break;
            }
            position = neighbors[rng.gen_range(0..neighbors.len())];
        }
        counts[position as usize] += 1;
    }
    counts
        .into_iter()
        .map(|c| c as f64 / num_walkers as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{l1_distance, mass_captured};
    use frogwild_graph::generators::simple::{complete, cycle, star};
    use frogwild_graph::generators::{rmat, RmatParams};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn pagerank_sums_to_one() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = rmat(500, RmatParams::default(), &mut rng);
        let pr = exact_pagerank(&g, 0.15, 100, 1e-12);
        let total: f64 = pr.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        assert!(pr.scores.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn pagerank_of_complete_graph_is_uniform() {
        let g = complete(10);
        let pr = exact_pagerank(&g, 0.15, 100, 1e-14);
        for &s in &pr.scores {
            assert!((s - 0.1).abs() < 1e-10, "score {s}");
        }
    }

    #[test]
    fn pagerank_of_cycle_is_uniform() {
        let g = cycle(8);
        let pr = exact_pagerank(&g, 0.15, 200, 1e-14);
        for &s in &pr.scores {
            assert!((s - 0.125).abs() < 1e-10);
        }
    }

    #[test]
    fn star_hub_dominates() {
        let g = star(50);
        let pr = exact_pagerank(&g, 0.15, 200, 1e-14);
        let hub = pr.scores[0];
        for &s in &pr.scores[1..] {
            assert!(hub > 5.0 * s, "hub {hub} vs leaf {s}");
        }
    }

    #[test]
    fn pagerank_satisfies_fixed_point() {
        // π = Qπ: recompute one explicit matrix-vector product and compare.
        let mut rng = SmallRng::seed_from_u64(5);
        let g = rmat(200, RmatParams::default(), &mut rng);
        let pt = 0.15;
        let pr = exact_pagerank(&g, pt, 300, 1e-14);
        let n = g.num_vertices();
        let mut applied = vec![pt / n as f64; n];
        for v in g.vertices() {
            let deg = g.out_degree(v);
            let share = (1.0 - pt) * pr.scores[v as usize] / deg as f64;
            for &dst in g.out_neighbors(v) {
                applied[dst as usize] += share;
            }
        }
        assert!(l1_distance(&pr.scores, &applied) < 1e-8);
    }

    #[test]
    fn dangling_vertices_handled() {
        // vertex 2 has no out-edges; mass must still sum to 1
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let pr = exact_pagerank(&g, 0.15, 200, 1e-14);
        let total: f64 = pr.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // the sink accumulates the most mass
        assert!(pr.scores[2] > pr.scores[0]);
    }

    #[test]
    fn truncated_iterations_respected() {
        let g = star(100);
        let pr = exact_pagerank(&g, 0.15, 2, 0.0);
        assert_eq!(pr.iterations, 2);
        assert!(pr.residual > 0.0);
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::empty(0);
        let pr = exact_pagerank(&g, 0.15, 10, 1e-9);
        assert!(pr.scores.is_empty());
    }

    #[test]
    fn monte_carlo_estimate_is_a_distribution() {
        let g = star(30);
        let mut rng = SmallRng::seed_from_u64(7);
        let est = serial_random_walk_pagerank(&g, 10_000, 20, 0.15, &mut rng);
        let total: f64 = est.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn monte_carlo_identifies_heavy_vertices() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = rmat(400, RmatParams::default(), &mut rng);
        let exact = exact_pagerank(&g, 0.15, 200, 1e-12);
        let est = serial_random_walk_pagerank(&g, 80_000, 12, 0.15, &mut rng);
        let m = mass_captured(&est, &exact.scores, 20);
        assert!(
            m.normalized() > 0.85,
            "captured only {} of optimal mass",
            m.normalized()
        );
    }

    #[test]
    fn monte_carlo_zero_walkers_gives_zero_vector() {
        let g = star(5);
        let mut rng = SmallRng::seed_from_u64(1);
        let est = serial_random_walk_pagerank(&g, 0, 5, 0.15, &mut rng);
        assert_eq!(est, vec![0.0; 5]);
    }
}
