//! The paper's analytical bounds as executable functions.
//!
//! These let the benchmark harness overlay "what Theorem 1 promises" against what the
//! implementation actually measures, and they drive the parameter-selection helpers of
//! Remark 6 (how many walkers / iterations are enough for a target accuracy).
//!
//! * [`mixing_loss_bound`] — Lemma 17: the captured-mass loss due to truncating walks
//!   after `t` steps, `√((1 - p_T)^{t+1} / p_T)`.
//! * [`sampling_loss_bound`] — Lemma 18: the loss due to using `N` correlated samples,
//!   `√(k/δ · (1/N + (1 - p_s²) p_∩(t)))`.
//! * [`theorem1_epsilon`] — the full ε of Theorem 1 (sum of the two).
//! * [`intersection_probability_bound`] — Theorem 2: `p_∩(t) ≤ 1/n + t‖π‖_∞ / p_T`.
//! * [`power_law_max_bound`] — Proposition 7: with PageRank following a power law with
//!   exponent θ, `‖π‖_∞ ≤ n^{-γ}` with probability at least `1 - c·n^{γ - 1/(θ-1)}`.
//! * [`empirical_intersection_probability`] — a Monte-Carlo estimate of `p_∩(t)` used
//!   to check the Theorem 2 bound experimentally.

// lint:allow-file(indexing, dense tables are sized by the same loop bounds that index them)

use frogwild_graph::{DiGraph, VertexId};
use rand::Rng;

/// Lemma 17: upper bound on the captured-mass loss caused by stopping every walk after
/// at most `t` steps instead of waiting for exact mixing.
pub fn mixing_loss_bound(teleport_probability: f64, steps: usize) -> f64 {
    assert!(
        teleport_probability > 0.0 && teleport_probability < 1.0,
        "teleport probability must be in (0, 1)"
    );
    ((1.0 - teleport_probability).powi(steps as i32 + 1) / teleport_probability).sqrt()
}

/// Lemma 18: upper bound on the captured-mass loss caused by estimating with `N`
/// walkers whose trajectories are correlated by partial synchronization.
///
/// `failure_probability` is the δ of the high-probability statement;
/// `intersection_probability` is `p_∩(t)` (use [`intersection_probability_bound`] or an
/// empirical estimate).
pub fn sampling_loss_bound(
    k: usize,
    failure_probability: f64,
    num_walkers: u64,
    sync_probability: f64,
    intersection_probability: f64,
) -> f64 {
    assert!(k > 0, "k must be positive");
    assert!(
        failure_probability > 0.0 && failure_probability < 1.0,
        "failure probability must be in (0, 1)"
    );
    assert!(num_walkers > 0, "need at least one walker");
    assert!(
        (0.0..=1.0).contains(&sync_probability) && sync_probability > 0.0,
        "sync probability must be in (0, 1]"
    );
    assert!(
        (0.0..=1.0).contains(&intersection_probability),
        "intersection probability must be in [0, 1]"
    );
    let correlation_term = (1.0 - sync_probability * sync_probability) * intersection_probability;
    ((k as f64 / failure_probability) * (1.0 / num_walkers as f64 + correlation_term)).sqrt()
}

/// Theorem 1: with probability at least `1 - δ`,
/// `µ_k(π̂_N) ≥ µ_k(π) - ε` where ε is the value returned here.
#[allow(clippy::too_many_arguments)]
pub fn theorem1_epsilon(
    teleport_probability: f64,
    steps: usize,
    k: usize,
    failure_probability: f64,
    num_walkers: u64,
    sync_probability: f64,
    intersection_probability: f64,
) -> f64 {
    mixing_loss_bound(teleport_probability, steps)
        + sampling_loss_bound(
            k,
            failure_probability,
            num_walkers,
            sync_probability,
            intersection_probability,
        )
}

/// Theorem 2: upper bound on the probability that two uniformly-started walkers meet
/// within `t` steps, `p_∩(t) ≤ 1/n + t‖π‖_∞ / p_T`, clamped to 1.
pub fn intersection_probability_bound(
    num_vertices: usize,
    steps: usize,
    teleport_probability: f64,
    pi_max: f64,
) -> f64 {
    assert!(num_vertices > 0, "graph must have vertices");
    assert!(
        teleport_probability > 0.0 && teleport_probability < 1.0,
        "teleport probability must be in (0, 1)"
    );
    assert!((0.0..=1.0).contains(&pi_max), "pi_max must be in [0, 1]");
    (1.0 / num_vertices as f64 + steps as f64 * pi_max / teleport_probability).min(1.0)
}

/// Proposition 7: for a PageRank vector following a power law with exponent `theta`,
/// the bound `‖π‖_∞ ≤ n^{-gamma}` holds with probability at least `1 - c·n^{gamma - 1/(θ-1)}`.
/// Returns `(bound_on_pi_max, failure_probability)` using `c = 1` (the universal
/// constant in the paper is unspecified; any fixed constant only shifts the failure
/// probability, not the bound).
pub fn power_law_max_bound(num_vertices: usize, gamma: f64, theta: f64) -> (f64, f64) {
    assert!(num_vertices > 0, "graph must have vertices");
    assert!(gamma > 0.0, "gamma must be positive");
    assert!(theta > 1.0, "theta must exceed 1");
    let n = num_vertices as f64;
    let bound = n.powf(-gamma);
    let failure = n.powf(gamma - 1.0 / (theta - 1.0)).min(1.0);
    (bound, failure)
}

/// Remark 6: number of walkers sufficient for the sampling error to be of the same
/// order as the captured mass, `N = O(k / µ_k(π)²)`. Returned with constant 1.
pub fn recommended_walkers(k: usize, optimal_mass: f64) -> u64 {
    assert!(k > 0, "k must be positive");
    assert!(
        optimal_mass > 0.0 && optimal_mass <= 1.0,
        "optimal mass must be in (0, 1]"
    );
    (k as f64 / (optimal_mass * optimal_mass)).ceil() as u64
}

/// Remark 6: number of steps sufficient for the mixing error to be of the same order
/// as the captured mass, `t = O(log 1/µ_k(π))`. Returned with the explicit constant
/// implied by Lemma 17 (base `1/(1-p_T)` logarithm).
pub fn recommended_iterations(teleport_probability: f64, optimal_mass: f64) -> usize {
    assert!(
        teleport_probability > 0.0 && teleport_probability < 1.0,
        "teleport probability must be in (0, 1)"
    );
    assert!(
        optimal_mass > 0.0 && optimal_mass <= 1.0,
        "optimal mass must be in (0, 1]"
    );
    // Solve (1 - pT)^{t+1} / pT <= optimal_mass^2 for t, in log space: the product
    // `optimal_mass^2 · pT` underflows to 0 below a mass of about 1e-154.
    let target = 2.0 * optimal_mass.ln() + teleport_probability.ln();
    let t = target / (1.0 - teleport_probability).ln() - 1.0;
    t.ceil().max(1.0) as usize
}

/// Monte-Carlo estimate of the probability that two independent, uniformly-started
/// walkers following the PageRank chain (teleporting with probability `p_T`) occupy the
/// same vertex at some step in `0..=steps`.
pub fn empirical_intersection_probability<R: Rng + ?Sized>(
    graph: &DiGraph,
    steps: usize,
    teleport_probability: f64,
    trials: usize,
    rng: &mut R,
) -> f64 {
    assert!(graph.num_vertices() > 0, "graph must have vertices");
    assert!(trials > 0, "need at least one trial");
    let n = graph.num_vertices();
    let mut meetings = 0usize;
    for _ in 0..trials {
        let mut a = rng.gen_range(0..n) as VertexId;
        let mut b = rng.gen_range(0..n) as VertexId;
        let mut met = a == b;
        for _ in 0..steps {
            if met {
                break;
            }
            a = pagerank_step(graph, a, teleport_probability, rng);
            b = pagerank_step(graph, b, teleport_probability, rng);
            met = a == b;
        }
        if met {
            meetings += 1;
        }
    }
    meetings as f64 / trials as f64
}

/// One step of the PageRank chain `Q`: teleport uniformly with probability `p_T`,
/// otherwise follow a uniformly random out-edge (staying put on dangling vertices).
fn pagerank_step<R: Rng + ?Sized>(
    graph: &DiGraph,
    position: VertexId,
    teleport_probability: f64,
    rng: &mut R,
) -> VertexId {
    if rng.gen::<f64>() < teleport_probability {
        return rng.gen_range(0..graph.num_vertices()) as VertexId;
    }
    let neighbors = graph.out_neighbors(position);
    if neighbors.is_empty() {
        position
    } else {
        neighbors[rng.gen_range(0..neighbors.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frogwild_graph::generators::simple::complete;
    use frogwild_graph::generators::{rmat, RmatParams};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn mixing_loss_decreases_with_steps() {
        let a = mixing_loss_bound(0.15, 1);
        let b = mixing_loss_bound(0.15, 4);
        let c = mixing_loss_bound(0.15, 50);
        assert!(a > b && b > c);
        assert!(c < 0.1, "50 steps should mix well, bound {c}");
    }

    #[test]
    fn mixing_loss_explicit_value() {
        // sqrt(0.85^5 / 0.15) for t = 4
        let expected = (0.85f64.powi(5) / 0.15).sqrt();
        assert!((mixing_loss_bound(0.15, 4) - expected).abs() < 1e-12);
    }

    #[test]
    fn sampling_loss_decreases_with_more_walkers() {
        let few = sampling_loss_bound(100, 0.1, 1_000, 1.0, 0.0);
        let many = sampling_loss_bound(100, 0.1, 1_000_000, 1.0, 0.0);
        assert!(few > many);
    }

    #[test]
    fn sampling_loss_grows_as_ps_drops() {
        let p_int = 1e-4;
        let full = sampling_loss_bound(100, 0.1, 800_000, 1.0, p_int);
        let partial = sampling_loss_bound(100, 0.1, 800_000, 0.1, p_int);
        assert!(partial > full);
        // at ps = 1 the correlation term vanishes entirely
        let independent = sampling_loss_bound(100, 0.1, 800_000, 1.0, 0.0);
        assert!((full - independent).abs() < 1e-12);
    }

    #[test]
    fn theorem1_is_sum_of_terms() {
        let eps = theorem1_epsilon(0.15, 4, 100, 0.1, 800_000, 0.7, 1e-4);
        let expected =
            mixing_loss_bound(0.15, 4) + sampling_loss_bound(100, 0.1, 800_000, 0.7, 1e-4);
        assert!((eps - expected).abs() < 1e-12);
    }

    #[test]
    fn intersection_bound_formula_and_clamp() {
        let b = intersection_probability_bound(1_000_000, 4, 0.15, 1e-3);
        let expected = 1e-6 + 4.0 * 1e-3 / 0.15;
        assert!((b - expected).abs() < 1e-12);
        // a huge pi_max clamps to 1
        assert_eq!(intersection_probability_bound(10, 100, 0.15, 1.0), 1.0);
    }

    #[test]
    fn power_law_bound_matches_paper_example() {
        // θ = 2.2, γ = 0.5 — the example below Proposition 7.
        let n = 1_000_000;
        let (bound, failure) = power_law_max_bound(n, 0.5, 2.2);
        assert!((bound - 1e-3).abs() < 1e-12); // n^{-1/2}
        let expected_failure = (n as f64).powf(0.5 - 1.0 / 1.2);
        assert!((failure - expected_failure).abs() < 1e-12);
        assert!(
            failure < 0.02,
            "failure probability should vanish, got {failure}"
        );
    }

    #[test]
    fn recommended_parameters_scale_as_remark6() {
        // Heavier top-k mass needs fewer walkers and fewer steps.
        assert!(recommended_walkers(100, 0.5) < recommended_walkers(100, 0.05));
        assert_eq!(recommended_walkers(100, 1.0), 100);
        assert!(recommended_iterations(0.15, 0.5) < recommended_iterations(0.15, 0.01));
        assert!(recommended_iterations(0.15, 0.9) >= 1);
    }

    #[test]
    fn recommended_iterations_stay_finite_where_the_squared_mass_underflows() {
        // 1e-300² is 0 in f64; the log-space answer is
        // ceil((2 ln 1e-300 + ln 0.15) / ln 0.85 - 1).
        assert_eq!(recommended_iterations(0.15, 1e-300), 8_512);
        assert_eq!(recommended_iterations(0.15, f64::MIN_POSITIVE), 8_729);
    }

    #[test]
    fn empirical_intersection_respects_theorem2_bound() {
        let mut rng = SmallRng::seed_from_u64(21);
        let g = rmat(2_000, RmatParams::default(), &mut rng);
        let exact = crate::reference::exact_pagerank(&g, 0.15, 100, 1e-10);
        let pi_max = exact.scores.iter().cloned().fold(0.0, f64::max);
        let steps = 4;
        let bound = intersection_probability_bound(g.num_vertices(), steps, 0.15, pi_max);
        let measured = empirical_intersection_probability(&g, steps, 0.15, 20_000, &mut rng);
        assert!(
            measured <= bound * 1.2 + 0.01,
            "measured {measured} exceeds bound {bound}"
        );
    }

    #[test]
    fn empirical_intersection_on_complete_graph_is_small() {
        // On a complete graph the walk distribution stays uniform, so the meeting
        // probability per step is 1/n.
        let g = complete(200);
        let mut rng = SmallRng::seed_from_u64(5);
        let measured = empirical_intersection_probability(&g, 3, 0.15, 30_000, &mut rng);
        // union bound over 4 time points: <= 4/200 = 0.02
        assert!(measured < 0.03, "measured {measured}");
    }

    #[test]
    #[should_panic(expected = "teleport probability")]
    fn mixing_loss_rejects_bad_pt() {
        let _ = mixing_loss_bound(0.0, 3);
    }

    #[test]
    #[should_panic(expected = "failure probability")]
    fn sampling_loss_rejects_bad_delta() {
        let _ = sampling_loss_bound(10, 0.0, 100, 1.0, 0.0);
    }
}
