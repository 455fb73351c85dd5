//! Synthetic graph generators.
//!
//! The paper evaluates on the Twitter (41.6M vertices, 1.4B edges) and LiveJournal
//! (4.8M vertices, 69M edges) graphs. Those datasets are not redistributable with this
//! repository, so the experiment harness uses synthetic graphs whose *shape* matches the
//! properties the paper's analysis relies on: a heavy-tailed in-degree distribution
//! (power-law exponent θ ≈ 2.2, see Proposition 7) and a strongly skewed PageRank vector.
//!
//! Two random families are provided:
//!
//! * [`rmat()`] — the recursive-matrix (Kronecker) generator behind Graph500, which is the
//!   standard stand-in for social graphs in the graph-engine literature (it is the
//!   generator the PowerGraph paper itself uses for synthetic scaling studies).
//! * [`watts_strogatz()`] — small-world graphs with a *flat* degree distribution, used as
//!   the negative control in the ablation benchmarks (FrogWild's advantage shrinks when
//!   the PageRank vector carries no heavy tail).
//!
//! Deterministic small graphs ([`simple`]) are used throughout the test suites.
//!
//! The [`twitter_like`] and [`livejournal_like`] presets produce scaled-down graphs with
//! the same average degree (≈ 34 and ≈ 14 respectively) and skew as the paper's datasets.

pub mod rmat;
pub mod simple;
pub mod watts_strogatz;

pub use rmat::{rmat, RmatParams};
pub use simple::{complete, cycle, path, star, two_communities};
pub use watts_strogatz::{watts_strogatz, WattsStrogatzParams};

use crate::csr::DiGraph;
use rand::Rng;

/// A scaled-down synthetic graph with the Twitter follower graph's shape:
/// average out-degree ≈ 34 and strong in-degree skew.
///
/// `num_vertices` controls the scale; the paper uses 41.6M vertices, the default
/// experiment harness uses 100k–1M. Dangling vertices are fixed with self-loops.
pub fn twitter_like<R: Rng>(num_vertices: usize, rng: &mut R) -> DiGraph {
    let params = RmatParams {
        a: 0.57,
        b: 0.19,
        c: 0.19,
        edge_factor: 34.0,
        ..RmatParams::default()
    };
    rmat(num_vertices, params, rng)
}

/// A scaled-down synthetic graph with the LiveJournal graph's shape:
/// average out-degree ≈ 14, slightly less skewed than Twitter.
pub fn livejournal_like<R: Rng>(num_vertices: usize, rng: &mut R) -> DiGraph {
    let params = RmatParams {
        a: 0.52,
        b: 0.20,
        c: 0.21,
        edge_factor: 14.0,
        ..RmatParams::default()
    };
    rmat(num_vertices, params, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn twitter_like_has_expected_scale() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = twitter_like(2_000, &mut rng);
        assert_eq!(g.num_vertices(), 2_000);
        let avg_deg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(avg_deg > 20.0 && avg_deg < 40.0, "avg degree {avg_deg}");
        assert!(g.has_no_dangling());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn livejournal_like_has_expected_scale() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = livejournal_like(2_000, &mut rng);
        let avg_deg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(avg_deg > 8.0 && avg_deg < 18.0, "avg degree {avg_deg}");
        assert!(g.has_no_dangling());
    }

    #[test]
    fn presets_are_reproducible_from_seed() {
        let g1 = twitter_like(500, &mut SmallRng::seed_from_u64(42));
        let g2 = twitter_like(500, &mut SmallRng::seed_from_u64(42));
        assert_eq!(g1, g2);
    }

    #[test]
    fn presets_differ_across_seeds() {
        let g1 = twitter_like(500, &mut SmallRng::seed_from_u64(1));
        let g2 = twitter_like(500, &mut SmallRng::seed_from_u64(2));
        assert_ne!(g1, g2);
    }

    #[test]
    fn twitter_like_is_skewed() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = twitter_like(5_000, &mut rng);
        let max_in = g.vertices().map(|v| g.in_degree(v)).max().unwrap();
        let avg_in = g.num_edges() as f64 / g.num_vertices() as f64;
        // heavy tail: the max in-degree should be far above the average
        assert!(max_in as f64 > 10.0 * avg_in, "max {max_in}, avg {avg_in}");
    }
}
