//! Property-based tests for the extension modules: rank metrics, confidence intervals,
//! personalized PageRank and the complete-path Monte-Carlo estimators.

use frogwild::confidence::{
    hoeffding_epsilon, normal_cdf, normal_quantile, required_walkers, separation_probability,
    wilson_interval,
};
use frogwild::montecarlo::complete_path_pagerank;
use frogwild::ppr::{forward_push_ppr, personalized_pagerank, single_source_restart};
use frogwild::rank_metrics::{kendall_tau_top_k, ndcg_at_k};
use frogwild_graph::generators::{rmat, RmatParams};
use frogwild_graph::DiGraph;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Strategy: a non-negative score vector of length 2..60.
fn arb_scores() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1.0, 2..60)
}

/// Strategy: a small heavy-tailed graph plus an in-range source vertex.
fn arb_graph_and_source() -> impl Strategy<Value = (DiGraph, u32)> {
    (30usize..200, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let graph = rmat(n, RmatParams::default(), &mut rng);
        let source = (seed % graph.num_vertices() as u64) as u32;
        (graph, source)
    })
}

/// Strategy: a graph in which about a quarter of the vertices are sinks — which no
/// generator produces — plus an in-range source that is sometimes one of them.
fn arb_sink_bearing_graph_and_source() -> impl Strategy<Value = (DiGraph, u32)> {
    (20u32..150, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for v in 0..n {
            if rng.gen_range(0..4) == 0 {
                continue;
            }
            for _ in 0..rng.gen_range(1..5) {
                edges.push((v, rng.gen_range(0..n)));
            }
        }
        (
            DiGraph::from_edges(n as usize, &edges),
            (seed % n as u64) as u32,
        )
    })
}

/// What `forward_push_ppr` promises about the frontier it hands over.
fn assert_frontier_is_the_residual_support(graph: &DiGraph, source: u32, epsilon: f64) {
    let push = forward_push_ppr(graph, source, 0.15, epsilon);
    // Exactly {v : residual[v] > 0}, ascending, so without a duplicate.
    let support: Vec<u32> = (graph.vertices())
        .filter(|&v| push.residual[v as usize] > 0.0)
        .collect();
    assert_eq!(push.frontier, support);
    // Summing the frontier is summing everything: the other entries are exact zeros.
    let dense: f64 = push.residual.iter().sum();
    assert_eq!(push.residual_mass().to_bits(), dense.to_bits());
    if push.frontier.is_empty() {
        assert_eq!(push.residual_mass().to_bits(), 0.0f64.to_bits());
    }
}

proptest! {
    // ------------------------------------------------------------- push hand-over
    #[test]
    fn push_frontier_is_the_residual_support(
        (graph, source) in arb_graph_and_source(),
        (sinky, sinky_source) in arb_sink_bearing_graph_and_source(),
        eps_exp in 1i32..7,
    ) {
        let epsilon = 10f64.powi(-eps_exp);
        assert_frontier_is_the_residual_support(&graph, source, epsilon);
        assert_frontier_is_the_residual_support(&sinky, sinky_source, epsilon);
    }

    // ------------------------------------------------------------- rank metrics
    #[test]
    fn rank_metrics_are_bounded_and_maximised_by_truth(
        truth in arb_scores(),
        estimate in arb_scores(),
        k in 2usize..20,
    ) {
        let len = truth.len().min(estimate.len());
        let (truth, estimate) = (&truth[..len], &estimate[..len]);

        let tau = kendall_tau_top_k(estimate, truth, k);
        prop_assert!((-1.0..=1.0).contains(&tau));
        prop_assert!((kendall_tau_top_k(truth, truth, k) - 1.0).abs() < 1e-12);

        let ndcg = ndcg_at_k(estimate, truth, k);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&ndcg));
        prop_assert!((ndcg_at_k(truth, truth, k) - 1.0).abs() < 1e-9);
    }

    // ------------------------------------------------------------- confidence
    #[test]
    fn hoeffding_and_required_walkers_are_consistent(
        walkers in 10u64..10_000_000,
        vertices in 1usize..10_000_000,
        delta in 0.001f64..0.5,
    ) {
        let eps = hoeffding_epsilon(walkers, vertices, delta);
        prop_assert!(eps > 0.0);
        if eps < 1.0 {
            // Planning for the achieved epsilon never asks for more walkers than we had
            // (up to the integer ceiling).
            let needed = required_walkers(eps, vertices, delta);
            prop_assert!(
                needed.is_some_and(|needed| needed <= walkers + 1),
                "needed {:?} from {} walkers", needed, walkers
            );
        }
    }

    #[test]
    fn wilson_interval_contains_the_point_estimate(
        count in 0u64..10_000,
        extra in 1u64..10_000,
        delta in 0.001f64..0.5,
    ) {
        let n = count + extra;
        let interval = wilson_interval(count, n, delta);
        let p_hat = count as f64 / n as f64;
        prop_assert!(interval.low <= p_hat + 1e-12);
        prop_assert!(interval.high >= p_hat - 1e-12);
        prop_assert!(interval.low >= 0.0 && interval.high <= 1.0);
        // Tighter confidence (larger delta) gives a narrower interval.
        let looser = wilson_interval(count, n, (delta * 2.0).min(0.9));
        prop_assert!(looser.width() <= interval.width() + 1e-12);
    }

    #[test]
    fn normal_quantile_inverts_cdf(p in 0.001f64..0.999) {
        let z = normal_quantile(p);
        prop_assert!((normal_cdf(z) - p).abs() < 2e-4);
    }

    #[test]
    fn separation_probability_is_antisymmetric(
        a in 0u64..1_000,
        b in 0u64..1_000,
        extra in 1u64..1_000,
    ) {
        let n = a.max(b) + extra;
        let forward = separation_probability(a, b, n);
        let backward = separation_probability(b, a, n);
        prop_assert!((forward + backward - 1.0).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&forward));
    }

    // ------------------------------------------------------------- PPR
    #[test]
    fn forward_push_never_exceeds_exact_ppr((graph, source) in arb_graph_and_source()) {
        let exact = personalized_pagerank(
            &graph,
            &single_source_restart(graph.num_vertices(), source),
            0.15,
            200,
            1e-10,
        );
        let push = forward_push_ppr(&graph, source, 0.15, 1e-4);
        // Mass conservation: estimate + residual = 1.
        let total = push.estimate.iter().sum::<f64>() + push.residual_mass();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // The push estimate is a lower bound on the exact PPR, vertex by vertex
        // (up to the power-iteration tolerance).
        for (e, x) in push.estimate.iter().zip(exact.scores.iter()) {
            prop_assert!(*e <= *x + 1e-6);
        }
    }

    #[test]
    fn forward_push_invariants_hold_across_epsilon_and_teleport(
        (graph, source) in arb_graph_and_source(),
        eps_exp in 2i32..8,
        teleport in 0.05f64..0.6,
    ) {
        let epsilon = 10f64.powi(-eps_exp);
        let push = forward_push_ppr(&graph, source, teleport, epsilon);
        let settled: f64 = push.estimate.iter().sum();
        let residual = push.residual_mass();
        // Residual mass plus settled mass is exactly the unit of mass that entered.
        prop_assert!(
            (settled + residual - 1.0).abs() < 1e-9,
            "settled {} + residual {} != 1", settled, residual
        );
        // Estimates are a sub-distribution: nonnegative, finite, summing to <= 1.
        prop_assert!(push.estimate.iter().all(|&x| x >= 0.0 && x.is_finite()));
        prop_assert!(settled <= 1.0 + 1e-9);
        // Residuals never go negative either, and the push count is finite work.
        prop_assert!(push.residual.iter().all(|&x| x >= 0.0 && x.is_finite()));
    }

    #[test]
    fn ppr_scores_sum_to_one_and_are_nonnegative((graph, source) in arb_graph_and_source()) {
        let result = personalized_pagerank(
            &graph,
            &single_source_restart(graph.num_vertices(), source),
            0.15,
            100,
            1e-9,
        );
        let total: f64 = result.scores.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        prop_assert!(result.scores.iter().all(|&s| s >= 0.0));
    }

    // ------------------------------------------------------------- Monte-Carlo
    #[test]
    fn complete_path_estimate_is_a_distribution(
        (graph, _) in arb_graph_and_source(),
        walkers in 1u64..5_000,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let est = complete_path_pagerank(&graph, walkers, 10, 0.15, &mut rng);
        let total: f64 = est.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(est.iter().all(|&x| x >= 0.0));
    }
}
