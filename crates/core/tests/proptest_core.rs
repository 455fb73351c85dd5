//! Property-based tests for the core crate: metric definitions, top-k selection,
//! distribution samplers and the theory bounds satisfy their defining invariants for
//! arbitrary inputs.

use frogwild::dist::{binomial, even_split, geometric};
use frogwild::metrics::{exact_identification, l1_distance, mass_captured};
use frogwild::theory;
use frogwild::topk::{normalize, set_mass, top_k};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Strategy: a non-negative score vector of length 1..80.
fn arb_scores() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1.0, 1..80)
}

/// Strategy: a score vector shaped like a PPR estimate — 80 to 99 % exact zeros, the
/// positives drawn from five repeated values — so nearly every comparison is a tie.
fn arb_tie_heavy_scores() -> impl Strategy<Value = Vec<f64>> {
    (40usize..400, 80u32..100, any::<u64>()).prop_map(|(n, zero_percent, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                if rng.gen_range(0u32..100) < zero_percent {
                    0.0
                } else {
                    rng.gen_range(1..6) as f64 / 8.0
                }
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn top_k_matches_a_full_sort_on_tie_heavy_vectors(scores in arb_tie_heavy_scores()) {
        let n = scores.len();
        // A stable sort by descending score keeps ascending ids inside every tie.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| scores[b as usize].partial_cmp(&scores[a as usize]).unwrap());
        let positives = scores.iter().filter(|&&x| x > 0.0).count();
        // Both sides of the selection/sort switch at n / 2, and k around a typical 20.
        for k in [1, 19, 20, n / 2 - 1, n / 2, n] {
            let got = top_k(&scores, k);
            prop_assert_eq!(&got[..], &order[..k], "k={} n={}", k, n);
            if k > positives {
                // Zero-score ids fill the tail, lowest ids first.
                let tail = &got[positives..];
                prop_assert!(tail.iter().all(|&v| scores[v as usize] == 0.0));
                prop_assert!(tail.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn top_k_matches_naive_selection(scores in arb_scores(), k in 0usize..100) {
        let fast = top_k(&scores, k);
        // Naive: full sort by (score desc, id asc).
        let mut order: Vec<u32> = (0..scores.len() as u32).collect();
        order.sort_by(|&a, &b| {
            scores[b as usize]
                .partial_cmp(&scores[a as usize])
                .unwrap()
                .then(a.cmp(&b))
        });
        order.truncate(k.min(scores.len()));
        prop_assert_eq!(fast, order);
    }

    #[test]
    fn set_mass_of_topk_is_maximal(scores in arb_scores(), k in 1usize..20) {
        let k = k.min(scores.len());
        let best = set_mass(&scores, &top_k(&scores, k));
        // Any other set of size k (here: the k lowest-indexed vertices) captures no more.
        let other: Vec<u32> = (0..k as u32).collect();
        prop_assert!(best + 1e-12 >= set_mass(&scores, &other));
    }

    #[test]
    fn normalize_yields_distribution_or_zero(mut scores in arb_scores()) {
        let total_before: f64 = scores.iter().sum();
        normalize(&mut scores);
        let total_after: f64 = scores.iter().sum();
        if total_before > 0.0 {
            prop_assert!((total_after - 1.0).abs() < 1e-9);
        } else {
            prop_assert_eq!(total_after, 0.0);
        }
        prop_assert!(scores.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn mass_captured_is_bounded_and_maximised_by_truth(
        truth in arb_scores(),
        estimate in arb_scores(),
        k in 1usize..20,
    ) {
        // Align the lengths by truncating to the shorter one.
        let len = truth.len().min(estimate.len());
        let truth = &truth[..len];
        let estimate = &estimate[..len];
        let m = mass_captured(estimate, truth, k);
        prop_assert!(m.captured >= -1e-12);
        prop_assert!(m.captured <= m.optimal + 1e-12);
        prop_assert!(m.normalized() <= 1.0 + 1e-9);
        prop_assert!(m.loss() >= 0.0);
        // The truth itself always achieves the optimum.
        let self_m = mass_captured(truth, truth, k);
        prop_assert!((self_m.normalized() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exact_identification_is_a_fraction(
        truth in arb_scores(),
        estimate in arb_scores(),
        k in 1usize..20,
    ) {
        let len = truth.len().min(estimate.len());
        let value = exact_identification(&estimate[..len], &truth[..len], k);
        prop_assert!((0.0..=1.0).contains(&value));
        prop_assert!((exact_identification(&truth[..len], &truth[..len], k) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn l1_distance_is_a_metric(a in arb_scores(), b in arb_scores()) {
        let len = a.len().min(b.len());
        let (a, b) = (&a[..len], &b[..len]);
        prop_assert!(l1_distance(a, b) >= 0.0);
        prop_assert!((l1_distance(a, b) - l1_distance(b, a)).abs() < 1e-12);
        prop_assert!(l1_distance(a, a) < 1e-12);
    }

    #[test]
    fn even_split_partitions_exactly(total in 0u64..100_000, parts in 1usize..64) {
        let shares: Vec<u64> = (0..parts).map(|i| even_split(total, parts, i)).collect();
        prop_assert_eq!(shares.iter().sum::<u64>(), total);
        let max = *shares.iter().max().unwrap();
        let min = *shares.iter().min().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn binomial_stays_in_support(n in 0u64..10_000, p in 0.0f64..=1.0, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let x = binomial(n, p, &mut rng);
        prop_assert!(x <= n);
        if p == 0.0 { prop_assert_eq!(x, 0); }
        if p == 1.0 { prop_assert_eq!(x, n); }
    }

    #[test]
    fn geometric_is_finite_and_nonnegative(p in 0.01f64..=1.0, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let x = geometric(p, &mut rng);
        // With p >= 0.01 the sample is astronomically unlikely to exceed this bound;
        // the property guards against the sampler returning nonsense (negatives wrap).
        prop_assert!(x < 10_000);
    }

    #[test]
    fn theorem1_bound_is_monotone_in_its_arguments(
        walkers in 1u64..1_000_000,
        ps in 0.05f64..=1.0,
        steps in 1usize..20,
        p_int in 0.0f64..0.01,
    ) {
        let eps = theory::theorem1_epsilon(0.15, steps, 100, 0.1, walkers, ps, p_int);
        prop_assert!(eps > 0.0);
        // More walkers can only tighten the bound.
        let eps_more_walkers = theory::theorem1_epsilon(0.15, steps, 100, 0.1, walkers * 2, ps, p_int);
        prop_assert!(eps_more_walkers <= eps + 1e-12);
        // Higher synchronization probability can only tighten the bound.
        let eps_full_sync = theory::theorem1_epsilon(0.15, steps, 100, 0.1, walkers, 1.0, p_int);
        prop_assert!(eps_full_sync <= eps + 1e-12);
        // More steps can only tighten the mixing term.
        let eps_more_steps = theory::theorem1_epsilon(0.15, steps + 5, 100, 0.1, walkers, ps, p_int);
        prop_assert!(eps_more_steps <= eps + 1e-12);
    }

    #[test]
    fn intersection_bound_is_valid_probability_bound(
        n in 1usize..10_000_000,
        steps in 0usize..50,
        pi_max in 0.0f64..=1.0,
    ) {
        let b = theory::intersection_probability_bound(n, steps, 0.15, pi_max);
        prop_assert!((0.0..=1.0).contains(&b));
        // Monotone in steps and pi_max.
        let b_more_steps = theory::intersection_probability_bound(n, steps + 1, 0.15, pi_max);
        prop_assert!(b_more_steps + 1e-15 >= b);
    }
}
