//! Confidence intervals and sample-size planning for the walker estimator.
//!
//! Theorem 1 bounds the *captured-mass loss* of the FrogWild estimator; this module
//! provides the complementary per-vertex machinery a practitioner needs when reading the
//! output of a run:
//!
//! * [`hoeffding_epsilon`] / [`required_walkers`] — uniform additive error of the
//!   empirical frequencies as a function of the walker count (and vice versa), via the
//!   Hoeffding/Chernoff argument the paper sketches for independent frogs;
//! * [`wilson_interval`] — a per-vertex confidence interval on the estimated PageRank
//!   value, tighter than Hoeffding for the small frequencies typical of PageRank;
//! * [`separation_probability`] — the probability that two vertices with the given
//!   empirical counts are ordered correctly, used to decide whether the tail of a top-k
//!   list can be trusted or more walkers are needed;
//! * [`plan_walkers`] — the Remark 6 planning rule combined with the Hoeffding bound,
//!   returning a walker budget for a target `k`, captured-mass target and failure
//!   probability.

// lint:allow-file(indexing, dense per-vertex tables indexed by validated vertex ids of the same graph)

/// A two-sided confidence interval on a proportion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Lower end of the interval (clamped to 0).
    pub low: f64,
    /// Upper end of the interval (clamped to 1).
    pub high: f64,
}

impl Interval {
    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.high - self.low
    }

    /// Whether the interval contains `value`.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.low && value <= self.high
    }
}

/// The uniform additive error `ε` such that every empirical frequency computed from
/// `num_walkers` independent walkers is within `ε` of its expectation simultaneously
/// over `num_vertices` vertices with probability at least `1 - failure_probability`
/// (Hoeffding plus a union bound).
///
/// # Panics
///
/// Panics if `num_walkers` is zero or `failure_probability` is outside `(0, 1)`.
// lint:allow(orphan-pub, oracle for planned_walker_budget_achieves_the_planned_accuracy)
pub fn hoeffding_epsilon(num_walkers: u64, num_vertices: usize, failure_probability: f64) -> f64 {
    assert!(num_walkers > 0, "need at least one walker");
    assert!(
        failure_probability > 0.0 && failure_probability < 1.0,
        "failure probability must be in (0, 1)"
    );
    let union_terms = (2.0 * num_vertices.max(1) as f64 / failure_probability).ln();
    (union_terms / (2.0 * num_walkers as f64)).sqrt()
}

/// Number of walkers needed so that every empirical frequency is within `epsilon` of its
/// expectation with probability at least `1 - failure_probability` (the inverse of
/// [`hoeffding_epsilon`]), or `None` when that number is not a `u64` — an `epsilon` so
/// small that its square underflows asks for infinitely many.
///
/// # Panics
///
/// Panics if `epsilon` is not in `(0, 1)` or `failure_probability` is outside `(0, 1)`.
pub fn required_walkers(
    epsilon: f64,
    num_vertices: usize,
    failure_probability: f64,
) -> Option<u64> {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
    assert!(
        failure_probability > 0.0 && failure_probability < 1.0,
        "failure probability must be in (0, 1)"
    );
    let union_terms = (2.0 * num_vertices.max(1) as f64 / failure_probability).ln();
    walker_count(union_terms / (2.0 * epsilon * epsilon))
}

/// A non-negative real walker count rounded up, or `None` when it is not a `u64`:
/// infinite, NaN, or at least 2^64. (`as u64` would saturate it to `u64::MAX`, a count
/// no run can be given and nothing can tell from a real one.)
pub(crate) fn walker_count(walkers: f64) -> Option<u64> {
    let walkers = walkers.ceil();
    (walkers < u64::MAX as f64).then_some(walkers as u64)
}

/// Wilson score interval for a vertex that received `count` of `num_walkers` walkers,
/// at confidence `1 - failure_probability` (two-sided, normal critical value).
///
/// The Wilson interval stays informative for the tiny proportions PageRank produces
/// (where the naive Wald interval collapses to `[p̂, p̂]` or dips below zero).
///
/// # Panics
///
/// Panics if `count > num_walkers`, `num_walkers == 0`, or `failure_probability` is
/// outside `(0, 1)`.
pub fn wilson_interval(count: u64, num_walkers: u64, failure_probability: f64) -> Interval {
    assert!(num_walkers > 0, "need at least one walker");
    assert!(
        count <= num_walkers,
        "count cannot exceed the number of walkers"
    );
    assert!(
        failure_probability > 0.0 && failure_probability < 1.0,
        "failure probability must be in (0, 1)"
    );
    let z = normal_quantile(1.0 - failure_probability / 2.0);
    let n = num_walkers as f64;
    let p = count as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / denom;
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    Interval {
        low: (centre - half).max(0.0),
        high: (centre + half).min(1.0),
    }
}

/// Probability that vertex `a` truly outranks vertex `b` given their empirical walker
/// counts, under a normal approximation to the difference of the two proportions.
/// Returns 0.5 when the counts are equal and approaches 1 as the gap grows relative to
/// the sampling noise.
///
/// # Panics
///
/// Panics if `num_walkers == 0` or either count exceeds it.
pub fn separation_probability(count_a: u64, count_b: u64, num_walkers: u64) -> f64 {
    assert!(num_walkers > 0, "need at least one walker");
    assert!(
        count_a <= num_walkers && count_b <= num_walkers,
        "counts cannot exceed the number of walkers"
    );
    if count_a == count_b {
        return 0.5;
    }
    let n = num_walkers as f64;
    let pa = count_a as f64 / n;
    let pb = count_b as f64 / n;
    let variance = (pa * (1.0 - pa) + pb * (1.0 - pb)) / n;
    if variance <= 0.0 {
        return if pa > pb {
            1.0
        } else if pa < pb {
            0.0
        } else {
            0.5
        };
    }
    let z = (pa - pb) / variance.sqrt();
    normal_cdf(z)
}

/// A walker-budget plan combining the paper's Remark 6 scaling with the Hoeffding union
/// bound: enough walkers that (a) the sampling term of Theorem 1 is below
/// `mass_loss_target` and (b) every individual frequency is within the implied
/// per-vertex resolution.
#[derive(Clone, Copy, Debug, PartialEq)]
///
/// A count is `None` when no `u64` can hold it: a mass or loss target so small that its
/// square underflows asks for infinitely many walkers.
pub struct WalkerPlan {
    /// Walkers required by the Remark 6 / Theorem 1 sampling term.
    pub walkers_for_mass: Option<u64>,
    /// Walkers required by the per-vertex Hoeffding bound.
    pub walkers_for_frequency: Option<u64>,
    /// The recommended budget (the maximum of the two; `None` if either is).
    pub recommended: Option<u64>,
}

/// Plans a walker budget for a top-`k` query on a graph with `num_vertices` vertices,
/// where the true top-k set is expected to hold `optimal_mass` of the PageRank mass, the
/// tolerated captured-mass loss is `mass_loss_target` and the tolerated failure
/// probability is `failure_probability`.
///
/// # Panics
///
/// Panics if `k == 0`, any probability argument is outside its valid range, or
/// `optimal_mass` is not in `(0, 1]`.
pub fn plan_walkers(
    k: usize,
    num_vertices: usize,
    optimal_mass: f64,
    mass_loss_target: f64,
    failure_probability: f64,
) -> WalkerPlan {
    assert!(k > 0, "k must be positive");
    assert!(
        optimal_mass > 0.0 && optimal_mass <= 1.0,
        "optimal mass must be in (0, 1]"
    );
    assert!(mass_loss_target > 0.0, "mass loss target must be positive");
    assert!(
        failure_probability > 0.0 && failure_probability < 1.0,
        "failure probability must be in (0, 1)"
    );
    // Theorem 1 sampling term (with p_s = 1 and negligible intersection probability):
    // ε ≥ sqrt(k / (δ N)), so N ≥ k / (δ ε²).
    let walkers_for_mass =
        walker_count(k as f64 / (failure_probability * mass_loss_target * mass_loss_target));
    // Per-vertex resolution: the k-th heaviest vertex holds at least optimal_mass / k;
    // we want frequencies resolved to a quarter of that value.
    let per_vertex_resolution = (optimal_mass / k as f64) / 4.0;
    let walkers_for_frequency = required_walkers(
        per_vertex_resolution.min(0.5),
        num_vertices,
        failure_probability,
    );
    WalkerPlan {
        walkers_for_mass,
        walkers_for_frequency,
        recommended: walkers_for_mass
            .zip(walkers_for_frequency)
            .map(|(m, f)| m.max(f)),
    }
}

/// Standard normal cumulative distribution function, via the complementary error
/// function approximation (Abramowitz & Stegun 7.1.26, accurate to ~1.5e-7).
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Standard normal quantile function (inverse CDF) via the Acklam rational
/// approximation, accurate to ~1e-9 over `(0, 1)`.
///
/// # Panics
///
/// Panics unless `p` is strictly between 0 and 1.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile argument must be in (0, 1)");
    // Coefficients of the Acklam approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Error function approximation (Abramowitz & Stegun 7.1.26).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn hoeffding_epsilon_shrinks_with_more_walkers() {
        let small = hoeffding_epsilon(10_000, 1_000, 0.05);
        let large = hoeffding_epsilon(1_000_000, 1_000, 0.05);
        assert!(large < small);
        // quadrupling the walkers halves epsilon
        let quadruple = hoeffding_epsilon(40_000, 1_000, 0.05);
        assert!((small / quadruple - 2.0).abs() < 1e-9);
    }

    #[test]
    fn required_walkers_inverts_epsilon() {
        let eps = 0.001;
        let n = required_walkers(eps, 10_000, 0.05).unwrap();
        let achieved = hoeffding_epsilon(n, 10_000, 0.05);
        assert!(achieved <= eps);
        // and not wastefully more than needed
        let achieved_minus = hoeffding_epsilon(n.saturating_sub(2), 10_000, 0.05);
        assert!(achieved_minus > eps * 0.999);
    }

    #[test]
    fn normal_quantile_and_cdf_are_inverse() {
        for &p in &[0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999] {
            let z = normal_quantile(p);
            assert!((normal_cdf(z) - p).abs() < 1e-4, "p {p}, z {z}");
        }
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-3);
        assert!(normal_quantile(0.5).abs() < 1e-9);
    }

    #[test]
    fn wilson_interval_basic_properties() {
        let i = wilson_interval(50, 1_000, 0.05);
        assert!(i.contains(0.05));
        assert!(i.low > 0.0 && i.high < 1.0);
        assert!(i.width() < 0.04);
        // zero counts still give a sensible upper bound
        let zero = wilson_interval(0, 1_000, 0.05);
        assert!(zero.low < 1e-12);
        assert!(zero.high > 0.0 && zero.high < 0.01);
        // full counts mirror that
        let full = wilson_interval(1_000, 1_000, 0.05);
        assert!(full.high > 1.0 - 1e-12);
        assert!(full.low > 0.99);
    }

    #[test]
    fn wilson_interval_narrows_with_more_samples() {
        let small = wilson_interval(10, 100, 0.05);
        let large = wilson_interval(1_000, 10_000, 0.05);
        assert!(large.width() < small.width());
    }

    #[test]
    fn wilson_interval_covers_the_truth_at_the_nominal_rate() {
        // Empirical coverage check: simulate binomial draws and count how often the
        // interval misses the true proportion. With 1 - δ = 0.95 the miss rate over
        // 2 000 trials should stay well below 10%.
        let p_true = 0.03;
        let n = 2_000u64;
        let mut rng = SmallRng::seed_from_u64(7);
        let trials = 2_000;
        let mut misses = 0;
        for _ in 0..trials {
            let count = (0..n).filter(|_| rng.gen::<f64>() < p_true).count() as u64;
            if !wilson_interval(count, n, 0.05).contains(p_true) {
                misses += 1;
            }
        }
        let miss_rate = misses as f64 / trials as f64;
        assert!(miss_rate < 0.1, "miss rate {miss_rate}");
    }

    #[test]
    fn separation_probability_behaviour() {
        assert_eq!(separation_probability(10, 10, 1_000), 0.5);
        let clear = separation_probability(200, 50, 1_000);
        assert!(clear > 0.999, "clear separation gives {clear}");
        let reversed = separation_probability(50, 200, 1_000);
        assert!(reversed < 0.001);
        let murky = separation_probability(52, 50, 1_000);
        assert!(murky > 0.5 && murky < 0.7, "murky separation gives {murky}");
    }

    #[test]
    fn plan_walkers_scales_like_remark6() {
        let base = plan_walkers(100, 1_000_000, 0.3, 0.05, 0.1);
        let (mass, frequency) = (
            base.walkers_for_mass.unwrap(),
            base.walkers_for_frequency.unwrap(),
        );
        assert_eq!(base.recommended, Some(mass.max(frequency)));
        // Quadrupling k quadruples the mass term.
        let more_k = plan_walkers(400, 1_000_000, 0.3, 0.05, 0.1);
        assert_eq!(more_k.walkers_for_mass, Some(4 * mass));
        // Halving the tolerated loss quadruples the mass term.
        let tighter = plan_walkers(100, 1_000_000, 0.3, 0.025, 0.1);
        assert_eq!(tighter.walkers_for_mass, Some(4 * mass));
    }

    #[test]
    fn plan_walkers_mass_term_matches_paper_order_of_magnitude() {
        // The paper uses 800K walkers for k=100-ish queries on graphs where the top-100
        // hold a few percent of the mass; the Theorem 1 sampling term should land in the
        // same order of magnitude (hundreds of thousands to a few million). The
        // per-vertex frequency term is far more conservative (it union-bounds over all
        // 40M vertices) and is reported separately for exactly that reason.
        let plan = plan_walkers(100, 40_000_000, 0.05, 0.02, 0.1);
        let mass = plan.walkers_for_mass.unwrap();
        assert!(mass > 100_000 && mass < 20_000_000, "mass term {mass}");
        assert!(plan.recommended >= plan.walkers_for_mass);
        assert!(plan.recommended >= plan.walkers_for_frequency);
    }

    #[test]
    fn walker_counts_no_u64_can_hold_are_none_not_saturated() {
        // The square of 5e-302 underflows to 0, so the Hoeffding count is infinite.
        assert_eq!(required_walkers(5e-302, 10, 0.1), None);
        // Finite, but past 2^64.
        assert_eq!(required_walkers(1e-10, 1_000_000, 0.1), None);
        assert_eq!(required_walkers(0.5, 1, 0.5), Some(3));
        // A top-5 mass of 1e-300 resolves frequencies to 5e-302; a loss target of 1e-200
        // squares to 0.
        let tiny_mass = plan_walkers(5, 1_000, 1e-300, 0.02, 0.1);
        assert_eq!(tiny_mass.walkers_for_mass, Some(125_000));
        assert_eq!(tiny_mass.walkers_for_frequency, None);
        assert_eq!(tiny_mass.recommended, None);
        let tiny_loss = plan_walkers(5, 1_000, 0.5, 1e-200, 0.1);
        assert_eq!(tiny_loss.walkers_for_mass, None);
        assert!(tiny_loss.walkers_for_frequency.is_some());
        assert_eq!(tiny_loss.recommended, None);
    }

    #[test]
    #[should_panic(expected = "need at least one walker")]
    fn hoeffding_rejects_zero_walkers() {
        let _ = hoeffding_epsilon(0, 10, 0.05);
    }

    #[test]
    #[should_panic(expected = "count cannot exceed")]
    fn wilson_rejects_impossible_count() {
        let _ = wilson_interval(11, 10, 0.05);
    }

    #[test]
    #[should_panic(expected = "quantile argument")]
    fn quantile_rejects_boundary() {
        let _ = normal_quantile(1.0);
    }
}
