//! The paper's accuracy metrics.
//!
//! Given the true PageRank vector π and an estimate v, Section 2.1.1 defines two
//! metrics over the top-k sets:
//!
//! * **Mass captured** `µ_k(v) = π(argmax_{|S|=k} v(S))` — take the k vertices the
//!   estimate ranks highest and measure how much *true* PageRank mass they hold. The
//!   figures report it normalized by the optimum `µ_k(π)`.
//! * **Exact identification** — the fraction of the estimated top-k that also belongs
//!   to the true top-k.

use crate::topk::{set_mass, top_k};

/// Result of the mass-captured metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MassCaptured {
    /// π-mass of the estimate's top-k set: `µ_k(v)`.
    pub captured: f64,
    /// π-mass of the true top-k set: `µ_k(π)`, the optimum.
    pub optimal: f64,
}

impl MassCaptured {
    /// Captured mass normalized by the optimum (the quantity plotted in Figures 2–7).
    /// Defined as 1 when the optimum is zero (both sets capture nothing).
    pub fn normalized(&self) -> f64 {
        if self.optimal <= 0.0 {
            1.0
        } else {
            self.captured / self.optimal
        }
    }

    /// The absolute loss `µ_k(π) - µ_k(v)` bounded by Theorem 1's ε.
    pub fn loss(&self) -> f64 {
        (self.optimal - self.captured).max(0.0)
    }
}

/// Computes the mass-captured metric (Definition 2) for the top-`k` vertices of
/// `estimate`, evaluated under the reference distribution `truth`.
///
/// # Panics
///
/// Panics if the two vectors have different lengths.
pub fn mass_captured(estimate: &[f64], truth: &[f64], k: usize) -> MassCaptured {
    assert_eq!(
        estimate.len(),
        truth.len(),
        "estimate and reference must cover the same vertex set"
    );
    let estimated_set = top_k(estimate, k);
    let true_set = top_k(truth, k);
    MassCaptured {
        captured: set_mass(truth, &estimated_set),
        optimal: set_mass(truth, &true_set),
    }
}

/// Computes the exact-identification metric: `|top_k(estimate) ∩ top_k(truth)| / k`.
///
/// # Panics
///
/// Panics if the two vectors have different lengths or `k == 0`.
pub fn exact_identification(estimate: &[f64], truth: &[f64], k: usize) -> f64 {
    assert_eq!(
        estimate.len(),
        truth.len(),
        "estimate and reference must cover the same vertex set"
    );
    assert!(k > 0, "k must be positive");
    let estimated_set = top_k(estimate, k);
    let mut true_set = top_k(truth, k);
    true_set.sort_unstable();
    let hits = estimated_set
        .iter()
        .filter(|v| true_set.binary_search(v).is_ok())
        .count();
    let denom = k.min(truth.len());
    hits as f64 / denom as f64
}

/// The l1 distance `‖a - b‖₁` between two score vectors, used by the theory checks
/// (Lemma 17 relates captured-mass loss to the l1 distance).
// lint:allow(orphan-pub, oracle for engine_pagerank_matches_serial_reference_on_random_graph)
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vectors must have the same length");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_nan_in_the_estimate_ranks_last_instead_of_panicking() {
        // One NaN used to make `top_k`'s order inconsistent, which `sort_unstable_by`
        // is allowed to answer with a panic. It now ranks below every number.
        let truth = vec![0.4, 0.3, 0.2, 0.1];
        let estimate = vec![f64::NAN, 0.3, 0.2, 0.1];
        // Sort path (k >= n / 2): the top two are vertices 1 and 2.
        let m = mass_captured(&estimate, &truth, 2);
        assert!((m.captured - 0.5).abs() < 1e-12);
        assert!((m.optimal - 0.7).abs() < 1e-12);
        // Selection path (k < n / 2), NaN every seventh entry of a long estimate.
        let truth: Vec<f64> = (0..2_000).map(|i| ((i * 7919) % 1000) as f64).collect();
        let estimate: Vec<f64> = (truth.iter().enumerate())
            .map(|(i, &x)| if i % 7 == 0 { f64::NAN } else { x })
            .collect();
        let m = mass_captured(&estimate, &truth, 50);
        assert!(m.captured.is_finite() && m.captured > 0.0);
        assert!(m.captured <= m.optimal);
        assert!(top_k(&estimate, 50).iter().all(|&v| v % 7 != 0));
    }

    #[test]
    fn perfect_estimate_captures_optimal_mass() {
        let truth = vec![0.4, 0.3, 0.2, 0.1];
        let m = mass_captured(&truth.clone(), &truth, 2);
        assert!((m.captured - 0.7).abs() < 1e-12);
        assert!((m.optimal - 0.7).abs() < 1e-12);
        assert!((m.normalized() - 1.0).abs() < 1e-12);
        assert_eq!(m.loss(), 0.0);
    }

    #[test]
    fn wrong_estimate_captures_less() {
        let truth = vec![0.4, 0.3, 0.2, 0.1];
        // estimate ranks the two lightest vertices on top
        let estimate = vec![0.0, 0.0, 0.6, 0.4];
        let m = mass_captured(&estimate, &truth, 2);
        assert!((m.captured - 0.3).abs() < 1e-12);
        assert!((m.optimal - 0.7).abs() < 1e-12);
        assert!(m.normalized() < 0.5);
        assert!((m.loss() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn partial_credit_for_heavy_vertices_outside_true_topk() {
        // The estimate picks the #1 and #3 vertices: mass captured gives credit for the
        // heavy #1 even though #3 is not in the true top-2.
        let truth = vec![0.5, 0.3, 0.15, 0.05];
        let estimate = vec![0.9, 0.0, 0.1, 0.0];
        let m = mass_captured(&estimate, &truth, 2);
        assert!((m.captured - 0.65).abs() < 1e-12);
        let exact = exact_identification(&estimate, &truth, 2);
        assert!((exact - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exact_identification_extremes() {
        let truth = vec![0.4, 0.3, 0.2, 0.1];
        assert_eq!(exact_identification(&truth.clone(), &truth, 3), 1.0);
        let reversed = vec![0.1, 0.2, 0.3, 0.4];
        assert_eq!(exact_identification(&reversed, &truth, 2), 0.0);
    }

    #[test]
    fn k_larger_than_n_is_well_defined() {
        let truth = vec![0.6, 0.4];
        let m = mass_captured(&truth.clone(), &truth, 10);
        assert!((m.normalized() - 1.0).abs() < 1e-12);
        assert_eq!(exact_identification(&truth.clone(), &truth, 10), 1.0);
    }

    #[test]
    fn zero_truth_normalizes_to_one() {
        let truth = vec![0.0, 0.0];
        let estimate = vec![0.5, 0.5];
        let m = mass_captured(&estimate, &truth, 1);
        assert_eq!(m.normalized(), 1.0);
    }

    #[test]
    fn distances() {
        let a = vec![0.5, 0.5, 0.0];
        let b = vec![0.25, 0.25, 0.5];
        assert!((l1_distance(&a, &b) - 1.0).abs() < 1e-12);
        assert_eq!(l1_distance(&a, &a), 0.0);
    }

    #[test]
    #[should_panic(expected = "same vertex set")]
    fn mismatched_lengths_panic() {
        let _ = mass_captured(&[0.5], &[0.5, 0.5], 1);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn exact_identification_rejects_zero_k() {
        let _ = exact_identification(&[0.5], &[0.5], 0);
    }
}
