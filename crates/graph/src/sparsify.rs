//! Uniform edge sparsification.
//!
//! Section 2.4 / Figure 5 of the paper compare FrogWild against a simple baseline:
//! independently delete every edge with probability `r = 1 - q`, then run a few
//! iterations of the standard PageRank on the sparsified graph. This module implements
//! that sparsifier with the same "keep at least one out-edge" safeguard the engine's
//! erasure model uses, so the comparison is apples-to-apples.

use crate::builder::GraphBuilder;
use crate::csr::DiGraph;
use rand::Rng;

/// Returns a sparsified copy of `graph` in which each edge is kept independently with
/// probability `keep_probability` (the paper's `q = 1 - r`). A vertex whose every
/// out-edge was deleted gets one of them back, chosen uniformly at random: the paper's
/// "At Least One Out-Edge Per Node" erasure model (Example 10), which keeps the
/// transition matrix well defined.
///
/// # Panics
///
/// Panics if `keep_probability` is outside `[0, 1]`.
pub fn uniform_sparsify<R: Rng>(graph: &DiGraph, keep_probability: f64, rng: &mut R) -> DiGraph {
    assert!(
        (0.0..=1.0).contains(&keep_probability),
        "keep_probability must be in [0, 1]"
    );
    let n = graph.num_vertices();
    let mut b = GraphBuilder::new(n)
        .with_edge_capacity((graph.num_edges() as f64 * keep_probability) as usize + n);
    for v in graph.vertices() {
        let neighbors = graph.out_neighbors(v);
        if neighbors.is_empty() {
            continue;
        }
        let mut kept_any = false;
        for &d in neighbors {
            if rng.gen::<f64>() < keep_probability {
                b.add_edge(v, d);
                kept_any = true;
            }
        }
        if !kept_any {
            // lint:allow(indexing, gen_range is bounded by the neighbor count)
            let pick = neighbors[rng.gen_range(0..neighbors.len())];
            b.add_edge(v, pick);
        }
    }
    // Only vertices that were isolated in the input are dangling here.
    // lint:allow(panic, builder input is a subset of an already-validated graph)
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::simple::complete;
    use crate::generators::{rmat, RmatParams};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn keep_probability_one_preserves_graph() {
        let g = complete(8);
        let mut rng = SmallRng::seed_from_u64(1);
        let s = uniform_sparsify(&g, 1.0, &mut rng);
        assert_eq!(g, s);
    }

    #[test]
    fn keep_probability_zero_keeps_one_edge_per_vertex() {
        let g = complete(8);
        let mut rng = SmallRng::seed_from_u64(2);
        let s = uniform_sparsify(&g, 0.0, &mut rng);
        assert_eq!(s.num_vertices(), 8);
        for v in s.vertices() {
            assert_eq!(s.out_degree(v), 1);
        }
        assert!(s.has_no_dangling());
    }

    #[test]
    fn edge_count_scales_with_keep_probability() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = rmat(2_000, RmatParams::default(), &mut rng);
        let q = 0.4;
        let s = uniform_sparsify(&g, q, &mut rng);
        let ratio = s.num_edges() as f64 / g.num_edges() as f64;
        assert!(
            (ratio - q).abs() < 0.08,
            "kept ratio {ratio}, expected about {q}"
        );
        assert!(s.has_no_dangling());
        assert!(s.validate().is_ok());
    }

    #[test]
    fn sparsified_edges_are_subset_of_original() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = rmat(500, RmatParams::default(), &mut rng);
        let s = uniform_sparsify(&g, 0.5, &mut rng);
        for (src, dst) in s.edges() {
            assert!(
                g.has_edge(src, dst) || src == dst,
                "edge ({src},{dst}) not in original"
            );
        }
    }

    #[test]
    fn reproducible_from_seed() {
        let g = complete(20);
        let a = uniform_sparsify(&g, 0.3, &mut SmallRng::seed_from_u64(7));
        let b = uniform_sparsify(&g, 0.3, &mut SmallRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "keep_probability")]
    fn rejects_invalid_probability() {
        let g = complete(4);
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = uniform_sparsify(&g, 1.5, &mut rng);
    }
}
