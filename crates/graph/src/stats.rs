//! Degree statistics and power-law tail estimation.
//!
//! The FrogWild analysis (Proposition 7) relies on the PageRank vector's tail following
//! a power law with exponent θ ≈ 2.2. This module provides the degree-side diagnostics
//! used by the theory benchmarks: degree summaries and a Hill estimator for the tail
//! exponent, applicable both to degree sequences and to PageRank score vectors.

// lint:allow-file(indexing, sorted vectors are checked non-empty and k is clamped below their length before indexing)

use crate::csr::DiGraph;

/// Summary statistics of a degree sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeSummary {
    /// Smallest degree.
    pub min: usize,
    /// Largest degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
}

/// Which adjacency direction to summarise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Outgoing edges.
    Out,
    /// Incoming edges.
    In,
}

/// Computes the degree summary of a graph in the given direction.
pub fn degree_summary(graph: &DiGraph, direction: Direction) -> DegreeSummary {
    let degree = |v| match direction {
        Direction::Out => graph.out_degree(v),
        Direction::In => graph.in_degree(v),
    };
    let n = graph.num_vertices();
    let sum: usize = graph.vertices().map(degree).sum();
    DegreeSummary {
        min: graph.vertices().map(degree).min().unwrap_or(0),
        max: graph.vertices().map(degree).max().unwrap_or(0),
        mean: if n == 0 { 0.0 } else { sum as f64 / n as f64 },
    }
}

/// Hill estimator of the power-law tail exponent θ for a sequence of positive values.
///
/// Uses the `k` largest values. For a distribution with density `∝ x^{-θ}` the estimator
/// converges to θ as `k → ∞`, `k/n → 0`. Returns `None` if fewer than two of the top-`k`
/// values are strictly positive, or if the values are all identical (the estimator would
/// be infinite).
pub fn hill_tail_exponent(values: &[f64], k: usize) -> Option<f64> {
    let mut positive: Vec<f64> = values.iter().copied().filter(|&v| v > 0.0).collect();
    if positive.len() < 2 || k < 2 {
        return None;
    }
    positive.sort_unstable_by(|a, b| b.total_cmp(a));
    let k = k.min(positive.len() - 1);
    let threshold = positive[k];
    if threshold <= 0.0 {
        return None;
    }
    let sum: f64 = positive[..k].iter().map(|&v| (v / threshold).ln()).sum();
    if sum <= 0.0 {
        return None;
    }
    let alpha = k as f64 / sum; // tail index of the CCDF
    Some(alpha + 1.0) // density exponent θ = α + 1
}

/// Convenience wrapper: Hill estimate of the in-degree tail exponent using the top
/// `fraction` of vertices (a typical choice is 0.05).
pub fn in_degree_tail_exponent(graph: &DiGraph, fraction: f64) -> Option<f64> {
    let values: Vec<f64> = graph
        .vertices()
        .map(|v| graph.in_degree(v) as f64)
        .collect();
    let k = ((values.len() as f64 * fraction).ceil() as usize).max(2);
    hill_tail_exponent(&values, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::simple::{complete, star};
    use crate::generators::{rmat, RmatParams};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn summary_of_complete_graph_is_uniform() {
        let g = complete(6);
        let s = degree_summary(&g, Direction::Out);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 5);
        assert!((s.mean - 5.0).abs() < 1e-12);
    }

    #[test]
    fn summary_of_star_shows_hub() {
        let g = star(11);
        let out = degree_summary(&g, Direction::Out);
        assert_eq!(out.max, 10);
        assert_eq!(out.min, 1);
        let inn = degree_summary(&g, Direction::In);
        assert_eq!(inn.max, 10);
    }

    #[test]
    fn empty_graph_summary() {
        let g = DiGraph::empty(0);
        let s = degree_summary(&g, Direction::Out);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn hill_estimator_recovers_synthetic_exponent() {
        // Draw from an exact Pareto via inverse transform: x = u^{-1/(θ-1)}
        let theta = 2.2f64;
        let mut rng = SmallRng::seed_from_u64(10);
        use rand::Rng;
        let values: Vec<f64> = (0..200_000)
            .map(|_| {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                u.powf(-1.0 / (theta - 1.0))
            })
            .collect();
        let est = hill_tail_exponent(&values, 5_000).unwrap();
        assert!(
            (est - theta).abs() < 0.15,
            "estimated {est}, expected {theta}"
        );
    }

    #[test]
    fn hill_estimator_degenerate_inputs() {
        assert!(hill_tail_exponent(&[], 10).is_none());
        assert!(hill_tail_exponent(&[1.0], 10).is_none());
        assert!(hill_tail_exponent(&[0.0, 0.0, 0.0], 2).is_none());
        assert!(hill_tail_exponent(&[2.0, 2.0, 2.0, 2.0], 2).is_none());
    }

    #[test]
    fn power_law_weight_exponent_is_recovered() {
        // Expected-degree weights of a power law with exponent θ = 2.2:
        // w_i ∝ (i + 1)^{-1/(θ-1)}.
        let w: Vec<f64> = (1..=50_000)
            .map(|i| f64::from(i).powf(-1.0 / 1.2))
            .collect();
        let est = hill_tail_exponent(&w, 2_000).unwrap();
        assert!((est - 2.2).abs() < 0.3, "estimated {est}");
    }

    #[test]
    fn rmat_in_degree_exponent_in_social_range() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = rmat(20_000, RmatParams::default(), &mut rng);
        let est = in_degree_tail_exponent(&g, 0.02).unwrap();
        // Social graphs live roughly in 1.5..3.5; we only need "heavy-tailed".
        assert!(est > 1.2 && est < 4.5, "estimated {est}");
    }
}
