//! Rank-correlation metrics beyond the paper's two accuracy measures.
//!
//! The paper scores estimates with *mass captured* and *exact identification*
//! ([`crate::metrics`]). Both are set-level metrics: they ignore how the estimate
//! *orders* the vertices inside the top-k set. This module adds the standard
//! order-sensitive measures used in the ranking literature, so the benchmark ablations
//! can distinguish an estimate that returns the right set in the right order from one
//! that merely returns the right set:
//!
//! * [`kendall_tau_top_k`] — pairwise agreement between the two orderings of the true
//!   top-k vertices;
//! * [`ndcg_at_k`] — discounted cumulative gain with the true PageRank as relevance,
//!   the metric search evaluation would apply to a top-k PageRank service.

// lint:allow-file(indexing, rankings index dense score vectors over the same vertex universe)

use crate::topk::top_k;

/// Kendall rank-correlation coefficient (tau-a) between the ordering induced by
/// `estimate` and by `truth` over the **true top-k** vertices.
///
/// Returns a value in `[-1, 1]`: 1 when the estimate orders the true top-k identically
/// to the truth, −1 when it orders them exactly backwards, ≈ 0 for an unrelated
/// ordering. Ties in either vector count as discordant-neutral (they contribute zero),
/// which is the tau-a convention.
///
/// # Panics
///
/// Panics if the vectors differ in length or `k < 2`.
pub fn kendall_tau_top_k(estimate: &[f64], truth: &[f64], k: usize) -> f64 {
    assert_eq!(
        estimate.len(),
        truth.len(),
        "vectors must cover the same vertex set"
    );
    assert!(k >= 2, "kendall tau needs at least two items");
    let items = top_k(truth, k);
    if items.len() < 2 {
        return 1.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..items.len() {
        for j in (i + 1)..items.len() {
            let a = items[i] as usize;
            let b = items[j] as usize;
            let dt = truth[a] - truth[b];
            let de = estimate[a] - estimate[b];
            let product = dt * de;
            if product > 0.0 {
                concordant += 1;
            } else if product < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = (items.len() * (items.len() - 1) / 2) as f64;
    (concordant - discordant) as f64 / pairs
}

/// Normalised discounted cumulative gain at `k`, using the true PageRank values as
/// graded relevance. 1 means the estimate's top-k list presents the heaviest vertices
/// first in the ideal order; lower values penalise both missing heavy vertices and
/// presenting them late in the list.
///
/// # Panics
///
/// Panics if the vectors differ in length or `k == 0`.
pub fn ndcg_at_k(estimate: &[f64], truth: &[f64], k: usize) -> f64 {
    assert_eq!(
        estimate.len(),
        truth.len(),
        "vectors must cover the same vertex set"
    );
    assert!(k > 0, "k must be positive");
    let gain = |rank: usize, relevance: f64| relevance / ((rank + 2) as f64).log2();
    let dcg: f64 = top_k(estimate, k)
        .iter()
        .enumerate()
        .map(|(rank, &v)| gain(rank, truth[v as usize]))
        .sum();
    let ideal: f64 = top_k(truth, k)
        .iter()
        .enumerate()
        .map(|(rank, &v)| gain(rank, truth[v as usize]))
        .sum();
    if ideal <= 0.0 {
        1.0
    } else {
        dcg / ideal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> Vec<f64> {
        vec![0.30, 0.25, 0.20, 0.10, 0.08, 0.04, 0.02, 0.01]
    }

    #[test]
    fn perfect_estimate_scores_one_everywhere() {
        let t = truth();
        assert_eq!(kendall_tau_top_k(&t, &t, 5), 1.0);
        assert!((ndcg_at_k(&t, &t, 5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reversed_estimate_scores_minus_one_tau() {
        let t = truth();
        let reversed: Vec<f64> = t.iter().map(|&x| 1.0 - x).collect();
        assert_eq!(kendall_tau_top_k(&reversed, &t, 5), -1.0);
    }

    #[test]
    fn single_swap_reduces_tau_slightly() {
        let t = truth();
        // Swap the scores of ranks 2 and 3 (vertices 2 and 3).
        let mut est = t.clone();
        est.swap(2, 3);
        let tau = kendall_tau_top_k(&est, &t, 5);
        // one discordant pair out of 10
        assert!((tau - 0.8).abs() < 1e-12, "tau {tau}");
    }

    #[test]
    fn ndcg_penalises_missing_heavy_vertices_more_than_reordering() {
        let t = truth();
        // Reordered but complete top-3.
        let mut reordered = t.clone();
        reordered.swap(0, 2);
        // Missing the heaviest vertex entirely from the top-3.
        let mut missing = t.clone();
        missing[0] = 0.0;
        let ndcg_reordered = ndcg_at_k(&reordered, &t, 3);
        let ndcg_missing = ndcg_at_k(&missing, &t, 3);
        assert!(ndcg_reordered > ndcg_missing);
        assert!(ndcg_reordered < 1.0);
    }

    #[test]
    fn k_larger_than_n_is_well_defined() {
        let t = truth();
        assert_eq!(kendall_tau_top_k(&t, &t, 100), 1.0);
        assert!((ndcg_at_k(&t, &t, 100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_truth_gives_neutral_tau() {
        let t = vec![0.25; 4];
        let est = vec![0.4, 0.3, 0.2, 0.1];
        // every pair is tied in the truth, so no pair is concordant or discordant
        assert_eq!(kendall_tau_top_k(&est, &t, 4), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two items")]
    fn tau_rejects_k_one() {
        let t = truth();
        let _ = kendall_tau_top_k(&t, &t, 1);
    }

    #[test]
    #[should_panic(expected = "same vertex set")]
    fn mismatched_lengths_panic() {
        let _ = ndcg_at_k(&[0.5], &[0.5, 0.5], 1);
    }
}
