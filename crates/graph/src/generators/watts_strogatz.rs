//! Watts–Strogatz small-world graphs.
//!
//! Small-world graphs have short average path lengths but *no* heavy tail, which makes
//! them the natural "negative control" for FrogWild experiments: on a graph whose
//! PageRank vector is nearly flat, capturing the top-k mass requires far more walkers
//! (Remark 6: `N = O(k / µ_k(π)²)` blows up as `µ_k(π) → k/n`). The ablation benchmarks
//! use this generator to show where the algorithm's advantage disappears.

use crate::builder::GraphBuilder;
use crate::csr::{DiGraph, VertexId};
use rand::Rng;

/// Parameters of the [`watts_strogatz`] generator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WattsStrogatzParams {
    /// Number of clockwise ring neighbours each vertex initially points to (`k`).
    pub neighbors: usize,
    /// Probability that each lattice edge is rewired to a uniformly random target (`β`).
    /// `0.0` keeps the pure ring lattice, `1.0` gives an Erdős–Rényi-like graph.
    pub rewire_probability: f64,
}

impl Default for WattsStrogatzParams {
    fn default() -> Self {
        WattsStrogatzParams {
            neighbors: 6,
            rewire_probability: 0.1,
        }
    }
}

impl WattsStrogatzParams {
    /// Validates the parameters, returning a description of the first problem found.
    pub fn validate(&self) -> Result<(), crate::Error> {
        if self.neighbors == 0 {
            return Err(crate::Error::config(
                "WattsStrogatzParams",
                "neighbors must be positive",
            ));
        }
        if !(0.0..=1.0).contains(&self.rewire_probability) {
            return Err(crate::Error::config(
                "WattsStrogatzParams",
                format!(
                    "rewire_probability must be in [0, 1], got {}",
                    self.rewire_probability
                ),
            ));
        }
        Ok(())
    }
}

/// Directed Watts–Strogatz small-world graph.
///
/// Every vertex `v` starts with out-edges to its `neighbors` clockwise successors on a
/// ring (`v+1, …, v+k` modulo `n`). Each edge is then independently rewired with
/// probability `rewire_probability`: its target is replaced by a uniformly random vertex
/// other than the source. Duplicate targets produced by rewiring are removed, and every
/// vertex keeps out-degree ≥ 1 by construction (lattice edges that are *not* rewired
/// stay in place, and rewired edges are re-pointed, never deleted), so the result never
/// contains dangling vertices.
///
/// # Panics
///
/// Panics if the parameters are invalid or `num_vertices <= neighbors`.
pub fn watts_strogatz<R: Rng>(
    num_vertices: usize,
    params: WattsStrogatzParams,
    rng: &mut R,
) -> DiGraph {
    if let Err(e) = params.validate() {
        // lint:allow(panic, documented precondition: invalid generator parameters are a caller bug)
        panic!("{e}");
    }
    let k = params.neighbors;
    assert!(
        num_vertices > k,
        "need more than {k} vertices for {k} ring neighbours, got {num_vertices}"
    );

    let mut builder = GraphBuilder::new(num_vertices).with_edge_capacity(num_vertices * k);
    for v in 0..num_vertices {
        for offset in 1..=k {
            let lattice_dst = ((v + offset) % num_vertices) as VertexId;
            let dst = if rng.gen::<f64>() < params.rewire_probability {
                // Rewire: draw until the target differs from the source. One redraw is
                // almost always enough; the loop guards tiny graphs.
                loop {
                    let candidate = rng.gen_range(0..num_vertices) as VertexId;
                    if candidate != v as VertexId {
                        break candidate;
                    }
                }
            } else {
                lattice_dst
            };
            builder.add_edge(v as VertexId, dst);
        }
    }

    builder
        .dedup(true)
        .build()
        // lint:allow(panic, generator edges are in range by construction)
        .expect("Watts–Strogatz edges are constructed in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{degree_summary, Direction};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zero_rewiring_gives_the_ring_lattice() {
        let mut rng = SmallRng::seed_from_u64(1);
        let params = WattsStrogatzParams {
            neighbors: 3,
            rewire_probability: 0.0,
        };
        let g = watts_strogatz(10, params, &mut rng);
        assert_eq!(g.num_edges(), 30);
        for v in g.vertices() {
            assert_eq!(g.out_degree(v), 3);
            assert_eq!(g.in_degree(v), 3);
            for offset in 1..=3u32 {
                assert!(g.has_edge(v, (v + offset) % 10));
            }
        }
    }

    #[test]
    fn rewiring_keeps_out_degree_and_scale() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = watts_strogatz(2_000, WattsStrogatzParams::default(), &mut rng);
        assert_eq!(g.num_vertices(), 2_000);
        // dedup may remove a handful of collision edges, nothing more
        assert!(g.num_edges() > 2_000 * 6 - 200, "{} edges", g.num_edges());
        assert!(g.has_no_dangling());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn degree_distribution_is_flat_compared_to_power_law() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = watts_strogatz(3_000, WattsStrogatzParams::default(), &mut rng);
        let summary = degree_summary(&g, Direction::In);
        // No heavy tail: the maximum in-degree stays within a small factor of the mean.
        assert!(
            (summary.max as f64) < 4.0 * summary.mean,
            "max {} vs mean {}",
            summary.max,
            summary.mean
        );
    }

    #[test]
    fn full_rewiring_destroys_the_lattice() {
        let mut rng = SmallRng::seed_from_u64(4);
        let params = WattsStrogatzParams {
            neighbors: 4,
            rewire_probability: 1.0,
        };
        let g = watts_strogatz(1_000, params, &mut rng);
        // Count how many original lattice edges survived; with full rewiring each edge
        // lands back on its lattice target with probability ~4/999.
        let surviving = g
            .vertices()
            .flat_map(|v| (1..=4u32).map(move |o| (v, (v + o) % 1_000)))
            .filter(|&(v, dst)| g.has_edge(v, dst))
            .count();
        assert!(
            surviving < 100,
            "{surviving} lattice edges survived full rewiring"
        );
    }

    #[test]
    fn reproducible_for_fixed_seed() {
        let params = WattsStrogatzParams::default();
        let a = watts_strogatz(500, params, &mut SmallRng::seed_from_u64(7));
        let b = watts_strogatz(500, params, &mut SmallRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn no_self_loops_from_rewiring() {
        let mut rng = SmallRng::seed_from_u64(8);
        let params = WattsStrogatzParams {
            neighbors: 2,
            rewire_probability: 1.0,
        };
        let g = watts_strogatz(50, params, &mut rng);
        // Self-loops can only come from the dangling fix, which never triggers here.
        for v in g.vertices() {
            assert!(!g.has_edge(v, v), "unexpected self-loop at {v}");
        }
    }

    #[test]
    #[should_panic(expected = "need more than")]
    fn rejects_too_few_vertices() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = watts_strogatz(
            4,
            WattsStrogatzParams {
                neighbors: 6,
                rewire_probability: 0.1,
            },
            &mut rng,
        );
    }

    #[test]
    fn params_validation() {
        assert!(WattsStrogatzParams::default().validate().is_ok());
        assert!(WattsStrogatzParams {
            neighbors: 0,
            ..WattsStrogatzParams::default()
        }
        .validate()
        .is_err());
        assert!(WattsStrogatzParams {
            rewire_probability: -0.1,
            ..WattsStrogatzParams::default()
        }
        .validate()
        .is_err());
    }
}
