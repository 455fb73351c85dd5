//! Baseline comparisons: the uniform-sparsification pipeline of Figure 5 and the
//! truncated-PageRank baselines, compared against FrogWild on the same cluster.

use frogwild::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn test_graph(n: usize, seed: u64) -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    frogwild_graph::generators::twitter_like(n, &mut rng)
}

#[test]
fn sparsified_pagerank_accuracy_is_comparable_but_cost_is_higher_than_frogwild() {
    // Figure 5: 2-iteration PR on a sparsified graph reaches accuracy comparable to
    // FrogWild but at a noticeably higher cost — it still synchronizes and signals
    // every vertex every iteration, while FrogWild only touches the vertices that
    // currently host walkers. At integration-test scale the comparable quantities are
    // the per-iteration time, CPU work and network bytes (the paper's total-time gap
    // additionally needs per-superstep work to dominate the superstep barrier, which
    // requires the harness-scale graphs).
    let graph = test_graph(2_500, 1);
    let truth = exact_pagerank(&graph, 0.15, 200, 1e-12);
    let cluster = ClusterConfig::new(12, 2);
    let k = 100;

    // Walkers ≪ vertices: the regime both the paper and the algorithm target.
    let mut session = Session::builder(&graph)
        .machines(cluster.num_machines)
        .seed(cluster.seed)
        .build()
        .unwrap();
    let fw = session
        .query(&Query::TopK {
            k,
            config: FrogWildConfig {
                num_walkers: 500,
                iterations: 4,
                sync_probability: 0.7,
                ..FrogWildConfig::default()
            },
        })
        .unwrap();
    let fw_mass = mass_captured(&fw.estimate, &truth.scores, k).normalized();
    assert!(fw_mass > 0.5, "frogwild accuracy {fw_mass}");

    for q in [0.4, 0.7] {
        let baseline =
            run_sparsified_pr(&graph, &cluster, q, &PageRankConfig::truncated(2)).unwrap();
        let mass = mass_captured(&baseline.estimate, &truth.scores, k).normalized();
        // comparable accuracy…
        assert!(mass > 0.75, "sparsified q={q} accuracy {mass}");
        // …but higher per-iteration time, CPU and network than FrogWild.
        assert!(
            baseline.cost.seconds_per_iteration()
                > fw.cost.simulated_seconds / fw.cost.supersteps.max(1) as f64,
            "q={q}: sparsified {}s/iter vs FrogWild {}s/iter",
            baseline.cost.seconds_per_iteration(),
            fw.cost.simulated_seconds / fw.cost.supersteps.max(1) as f64
        );
        assert!(
            baseline.cost.simulated_cpu_seconds > fw.cost.simulated_cpu_seconds,
            "q={q}: sparsified CPU {} vs FrogWild {}",
            baseline.cost.simulated_cpu_seconds,
            fw.cost.simulated_cpu_seconds
        );
        assert!(
            baseline.cost.network_bytes > fw.cost.network_bytes,
            "q={q}: sparsified {} bytes vs FrogWild {} bytes",
            baseline.cost.network_bytes,
            fw.cost.network_bytes
        );
    }
}

#[test]
fn sparsification_reduces_pagerank_cost_but_not_below_frogwild() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    // Sanity on the baseline itself: lower q means fewer edges and less per-iteration
    // work than the full-graph PR.
    let graph = test_graph(2_000, 3);
    let cluster = ClusterConfig::new(12, 4);

    let full = run_graphlab_pr(
        &frogwild::driver::partition_graph(&graph, &cluster),
        &PageRankConfig::truncated(2),
        &exec,
        &off,
    )
    .unwrap();
    let sparsified =
        run_sparsified_pr(&graph, &cluster, 0.4, &PageRankConfig::truncated(2)).unwrap();
    assert!(
        sparsified.cost.simulated_cpu_seconds < full.cost.simulated_cpu_seconds,
        "sparsified CPU {} vs full {}",
        sparsified.cost.simulated_cpu_seconds,
        full.cost.simulated_cpu_seconds
    );
}

#[test]
fn paper_sweep_configs_are_usable_end_to_end() {
    let graph = test_graph(1_200, 5);
    let truth = exact_pagerank(&graph, 0.15, 150, 1e-10);
    let cluster = ClusterConfig::new(8, 6);
    let two_iterations = PageRankConfig {
        seed: 9,
        ..PageRankConfig::truncated(2)
    };
    for keep_probability in [0.4, 0.7, 1.0] {
        let report =
            run_sparsified_pr(&graph, &cluster, keep_probability, &two_iterations).unwrap();
        assert_eq!(report.estimate.len(), graph.num_vertices());
        let mass = mass_captured(&report.estimate, &truth.scores, 50).normalized();
        assert!(mass > 0.6, "q={keep_probability} accuracy {mass}");
    }
}

#[test]
fn exact_pagerank_baseline_dominates_accuracy_but_not_cost() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    let graph = test_graph(1_500, 7);
    let truth = exact_pagerank(&graph, 0.15, 200, 1e-12);
    let cluster = ClusterConfig::new(12, 8);
    let pg = frogwild::driver::partition_graph(&graph, &cluster);

    let exact = run_graphlab_pr(
        &pg,
        &PageRankConfig {
            max_iterations: 40,
            tolerance: 1e-10,
            ..PageRankConfig::default()
        },
        &exec,
        &off,
    )
    .unwrap();
    let one = run_graphlab_pr(&pg, &PageRankConfig::truncated(1), &exec, &off).unwrap();
    let fw = run_frogwild(
        &pg,
        &FrogWildConfig {
            num_walkers: 100_000,
            iterations: 4,
            sync_probability: 0.7,
            ..FrogWildConfig::default()
        },
        &exec,
        &off,
    )
    .unwrap();

    let k = 100;
    let exact_mass = mass_captured(&exact.estimate, &truth.scores, k).normalized();
    let one_mass = mass_captured(&one.estimate, &truth.scores, k).normalized();
    let fw_mass = mass_captured(&fw.estimate, &truth.scores, k).normalized();

    // Accuracy ordering: exact >= FrogWild >= 1-iteration PR (up to a small tolerance:
    // on R-MAT stand-ins the 1-iteration baseline is stronger than on the real Twitter
    // graph because synthetic PageRank correlates heavily with weighted in-degree).
    assert!(exact_mass > 0.99);
    assert!(
        fw_mass > one_mass - 0.02,
        "FrogWild {fw_mass} vs PR-1 {one_mass}"
    );
    // Cost ordering: exact costs the most by far.
    assert!(exact.cost.network_bytes > fw.cost.network_bytes);
    assert!(exact.cost.network_bytes > one.cost.network_bytes);
    assert!(exact.cost.simulated_seconds > fw.cost.simulated_seconds);
}
