//! Cross-module integration: personalized PageRank, the Monte-Carlo estimator family,
//! confidence planning and the order-sensitive rank metrics, exercised together on
//! realistic heavy-tailed graphs.

use frogwild::confidence::{hoeffding_epsilon, plan_walkers};
use frogwild::montecarlo::{complete_path_pagerank, walkers_per_vertex_pagerank};
use frogwild::ppr::{forward_push_ppr, personalized_pagerank, single_source_restart};
use frogwild::prelude::*;
use frogwild::rank_metrics::{kendall_tau_top_k, ndcg_at_k};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn test_graph(n: usize, seed: u64) -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    frogwild_graph::generators::twitter_like(n, &mut rng)
}

#[test]
fn every_estimator_in_the_family_identifies_the_same_heavy_vertices() {
    // End-point MC, complete-path MC, walkers-per-vertex MC and the engine's FrogWild
    // run should all agree with exact PageRank on where the heavy vertices are; their
    // accuracy differs, their top sets should overlap substantially.
    let graph = test_graph(2_000, 11);
    let truth = exact_pagerank(&graph, 0.15, 200, 1e-12);
    let k = 50;
    let walkers = 40_000u64;
    let mut rng = SmallRng::seed_from_u64(5);

    let endpoint = serial_random_walk_pagerank(&graph, walkers, 6, 0.15, &mut rng);
    let complete = complete_path_pagerank(&graph, walkers, 6, 0.15, &mut rng);
    let per_vertex = walkers_per_vertex_pagerank(&graph, 2, 6, 0.15, &mut rng);
    let mut session = Session::builder(&graph)
        .machines(12)
        .seed(3)
        .build()
        .unwrap();
    let engine = session
        .query(&Query::TopK {
            k,
            config: FrogWildConfig {
                num_walkers: walkers,
                iterations: 6,
                sync_probability: 0.7,
                ..FrogWildConfig::default()
            },
        })
        .unwrap();

    for (name, estimate) in [
        ("endpoint", &endpoint),
        ("complete-path", &complete),
        ("walkers-per-vertex", &per_vertex),
        ("engine frogwild", &engine.estimate),
    ] {
        let mass = mass_captured(estimate, &truth.scores, k).normalized();
        assert!(mass > 0.8, "{name}: captured only {mass}");
        let ndcg = ndcg_at_k(estimate, &truth.scores, k);
        assert!(ndcg > 0.7, "{name}: ndcg {ndcg}");
    }

    // The complete-path estimator uses every visit, so its ordering of the true top-k
    // should be at least as consistent as the end-point estimator's.
    let tau_complete = kendall_tau_top_k(&complete, &truth.scores, k);
    let tau_endpoint = kendall_tau_top_k(&endpoint, &truth.scores, k);
    assert!(
        tau_complete > tau_endpoint - 0.15,
        "complete-path tau {tau_complete} vs endpoint tau {tau_endpoint}"
    );
}

#[test]
fn ppr_from_a_hub_looks_like_global_pagerank_but_from_a_leaf_does_not() {
    let graph = test_graph(1_500, 23);
    let truth = exact_pagerank(&graph, 0.15, 200, 1e-12);
    let n = graph.num_vertices();

    // The global top vertex: walks restarted there spread over its (large) out-neighbourhood.
    let hub = top_k(&truth.scores, 1)[0];
    // A low-degree vertex far from the core.
    let leaf = graph
        .vertices()
        .filter(|&v| graph.out_degree(v) >= 1)
        .min_by_key(|&v| graph.in_degree(v))
        .unwrap();

    let hub_ppr = personalized_pagerank(&graph, &single_source_restart(n, hub), 0.15, 200, 1e-10);
    let leaf_ppr = personalized_pagerank(&graph, &single_source_restart(n, leaf), 0.15, 200, 1e-10);

    // Both are distributions.
    assert!((hub_ppr.scores.iter().sum::<f64>() - 1.0).abs() < 1e-8);
    assert!((leaf_ppr.scores.iter().sum::<f64>() - 1.0).abs() < 1e-8);

    // The leaf's PPR concentrates on the leaf itself far more than the global PageRank
    // does; that is the whole point of personalization.
    assert!(leaf_ppr.scores[leaf as usize] > 10.0 * truth.scores[leaf as usize]);
    // The hub keeps being important in its own PPR vector too.
    assert!(hub_ppr.scores[hub as usize] >= 0.15 - 1e-9);
}

#[test]
fn forward_push_and_exact_ppr_agree_on_topk_across_sources() {
    let graph = test_graph(1_200, 31);
    let n = graph.num_vertices();
    for source in [0u32, 17, 255, 999] {
        let source = source % n as u32;
        let exact =
            personalized_pagerank(&graph, &single_source_restart(n, source), 0.15, 200, 1e-10);
        let push = forward_push_ppr(&graph, source, 0.15, 1e-7);
        let mass = mass_captured(&push.estimate, &exact.scores, 20).normalized();
        assert!(mass > 0.9, "source {source}: captured {mass}");
        assert_eq!(
            top_k(&push.estimate, 1),
            top_k(&exact.scores, 1),
            "source {source}: top-1 missed"
        );
    }
}

#[test]
fn planned_walker_budget_achieves_the_planned_accuracy() {
    // Close the loop: plan a budget from the true top-k mass, run the serial estimator
    // with that budget, and verify the captured-mass loss stays within the target.
    let graph = test_graph(1_500, 41);
    let truth = exact_pagerank(&graph, 0.15, 200, 1e-12);
    let k = 30;
    let optimal = mass_captured(&truth.scores, &truth.scores, k).optimal;
    let loss_target = 0.05;

    let plan = plan_walkers(k, graph.num_vertices(), optimal, loss_target, 0.1);
    // Keep the test fast: the Theorem 1 term is the binding one at this scale.
    let budget = plan.walkers_for_mass.unwrap().min(400_000);
    let mut rng = SmallRng::seed_from_u64(7);
    let estimate = serial_random_walk_pagerank(&graph, budget, 8, 0.15, &mut rng);
    let achieved = mass_captured(&estimate, &truth.scores, k);
    assert!(
        achieved.loss() <= loss_target * 1.5,
        "planned loss {loss_target}, achieved loss {} with {budget} walkers",
        achieved.loss()
    );

    // And the uniform Hoeffding error at that budget is small compared to the top
    // vertex's mass, so the head of the ranking is resolvable.
    let eps = hoeffding_epsilon(budget, graph.num_vertices(), 0.1);
    let top_value = truth.scores[top_k(&truth.scores, 1)[0] as usize];
    assert!(
        eps < top_value,
        "hoeffding eps {eps} vs top mass {top_value}"
    );
}

#[test]
fn rank_metrics_track_the_papers_metrics_on_engine_output() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    // On a real engine run, the order-sensitive metrics must tell the same qualitative
    // story as the paper's metrics: more walkers ⇒ no worse on every metric.
    let graph = test_graph(1_500, 53);
    let truth = exact_pagerank(&graph, 0.15, 200, 1e-12);
    let cluster = ClusterConfig::new(8, 4);
    let pg = frogwild::driver::partition_graph(&graph, &cluster);
    let k = 50;

    let small = run_frogwild(
        &pg,
        &FrogWildConfig {
            num_walkers: 2_000,
            iterations: 4,
            ..FrogWildConfig::default()
        },
        &exec,
        &off,
    )
    .unwrap();
    let large = run_frogwild(
        &pg,
        &FrogWildConfig {
            num_walkers: 200_000,
            iterations: 4,
            ..FrogWildConfig::default()
        },
        &exec,
        &off,
    )
    .unwrap();

    let mass_small = mass_captured(&small.estimate, &truth.scores, k).normalized();
    let mass_large = mass_captured(&large.estimate, &truth.scores, k).normalized();
    let ndcg_small = ndcg_at_k(&small.estimate, &truth.scores, k);
    let ndcg_large = ndcg_at_k(&large.estimate, &truth.scores, k);
    let tau_large = kendall_tau_top_k(&large.estimate, &truth.scores, k);

    assert!(
        mass_large >= mass_small - 0.02,
        "{mass_large} vs {mass_small}"
    );
    assert!(
        ndcg_large >= ndcg_small - 0.02,
        "{ndcg_large} vs {ndcg_small}"
    );
    assert!(tau_large > 0.3, "large-budget tau {tau_large}");
    assert!(mass_large > 0.9, "large-budget mass {mass_large}");
}
