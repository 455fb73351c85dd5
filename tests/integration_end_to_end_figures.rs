//! Miniature end-to-end versions of the paper's figure sweeps.
//!
//! Each test runs a scaled-down version of one figure's parameter sweep through the
//! public driver API and asserts the *shape* the paper reports (orderings, monotone
//! trends, crossovers), which is the property the full benchmark harness
//! (`cargo run -p frogwild-bench --bin figures`) reproduces at larger scale.

use frogwild::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct Workload {
    graph: DiGraph,
    truth: Vec<f64>,
}

fn workload(n: usize, seed: u64) -> Workload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = frogwild_graph::generators::twitter_like(n, &mut rng);
    let truth = exact_pagerank(&graph, 0.15, 200, 1e-12).scores;
    Workload { graph, truth }
}

#[test]
fn figure1_shape_frogwild_dominates_cost_across_cluster_sizes() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    // Fig 1(a)-(d): at every cluster size, FrogWild beats exact PR on per-iteration
    // time, total time, network and CPU; lowering ps reduces per-iteration time.
    let w = workload(1_500, 1);
    for machines in [12usize, 24] {
        let cluster = ClusterConfig::new(machines, 2);
        let pg = frogwild::driver::partition_graph(&w.graph, &cluster);

        let fw_full = run_frogwild(
            &pg,
            &FrogWildConfig {
                num_walkers: 40_000,
                iterations: 4,
                sync_probability: 1.0,
                ..FrogWildConfig::default()
            },
            &exec,
            &off,
        )
        .unwrap();
        let fw_low = run_frogwild(
            &pg,
            &FrogWildConfig {
                num_walkers: 40_000,
                iterations: 4,
                sync_probability: 0.1,
                ..FrogWildConfig::default()
            },
            &exec,
            &off,
        )
        .unwrap();
        let pr_exact = run_graphlab_pr(
            &pg,
            &PageRankConfig {
                max_iterations: 30,
                tolerance: 1e-9,
                ..PageRankConfig::default()
            },
            &exec,
            &off,
        )
        .unwrap();

        assert!(
            fw_full.cost.seconds_per_iteration() < pr_exact.cost.seconds_per_iteration(),
            "machines={machines}"
        );
        assert!(
            fw_low.cost.seconds_per_iteration() <= fw_full.cost.seconds_per_iteration(),
            "machines={machines}: ps=0.1 should not be slower per iteration"
        );
        assert!(fw_full.cost.simulated_seconds < pr_exact.cost.simulated_seconds);
        assert!(fw_full.cost.network_bytes < pr_exact.cost.network_bytes);
        assert!(fw_full.cost.simulated_cpu_seconds < pr_exact.cost.simulated_cpu_seconds);
    }
}

#[test]
fn figure2_shape_accuracy_ordering_across_k() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    // Fig 2: for every k, FrogWild at ps >= 0.7 beats 1-iteration PR; exact PR (the
    // reference itself) is an upper bound by construction.
    let w = workload(2_000, 3);
    let cluster = ClusterConfig::new(16, 4);
    let pg = frogwild::driver::partition_graph(&w.graph, &cluster);

    let fw = run_frogwild(
        &pg,
        &FrogWildConfig {
            num_walkers: 200_000,
            iterations: 4,
            sync_probability: 0.7,
            ..FrogWildConfig::default()
        },
        &exec,
        &off,
    )
    .unwrap();
    let pr1 = run_graphlab_pr(&pg, &PageRankConfig::truncated(1), &exec, &off).unwrap();
    let pr2 = run_graphlab_pr(&pg, &PageRankConfig::truncated(2), &exec, &off).unwrap();

    for k in [30usize, 100, 300] {
        let fw_mass = mass_captured(&fw.estimate, &w.truth, k).normalized();
        let pr1_mass = mass_captured(&pr1.estimate, &w.truth, k).normalized();
        let pr2_mass = mass_captured(&pr2.estimate, &w.truth, k).normalized();
        // On the R-MAT stand-in the 1-iteration baseline is close to the true ranking
        // (weighted in-degree ≈ PageRank), so allow a small tolerance.
        assert!(
            fw_mass > pr1_mass - 0.03,
            "k={k}: FrogWild {fw_mass} vs 1-iter PR {pr1_mass}"
        );
        assert!(
            pr2_mass > pr1_mass - 0.02,
            "k={k}: 2-iter should not trail 1-iter"
        );
        assert!(fw_mass > 0.85, "k={k}: FrogWild accuracy {fw_mass}");
    }
}

#[test]
fn figure3_shape_accuracy_cost_tradeoff() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    // Fig 3/4: within the FrogWild family, spending more network (higher ps) buys more
    // accuracy; exact PR sits at the high-cost high-accuracy corner.
    let w = workload(1_500, 5);
    let cluster = ClusterConfig::new(24, 6);
    let pg = frogwild::driver::partition_graph(&w.graph, &cluster);
    let k = 100;

    let mut points: Vec<(f64, u64)> = Vec::new(); // (accuracy, bytes) for increasing ps
    for ps in [0.1, 0.4, 1.0] {
        let report = run_frogwild(
            &pg,
            &FrogWildConfig {
                num_walkers: 150_000,
                iterations: 4,
                sync_probability: ps,
                ..FrogWildConfig::default()
            },
            &exec,
            &off,
        )
        .unwrap();
        points.push((
            mass_captured(&report.estimate, &w.truth, k).normalized(),
            report.cost.network_bytes,
        ));
    }
    // network strictly increases with ps
    assert!(points[0].1 < points[1].1 && points[1].1 < points[2].1);
    // accuracy does not get worse (up to small noise) as ps rises
    assert!(points[2].0 >= points[0].0 - 0.03);

    let pr_exact = run_graphlab_pr(
        &pg,
        &PageRankConfig {
            max_iterations: 30,
            tolerance: 1e-9,
            ..PageRankConfig::default()
        },
        &exec,
        &off,
    )
    .unwrap();
    let exact_mass = mass_captured(&pr_exact.estimate, &w.truth, k).normalized();
    assert!(exact_mass >= points[2].0 - 1e-9);
    assert!(pr_exact.cost.network_bytes > points[2].1);
}

#[test]
fn figure6_shape_livejournal_walker_and_iteration_sweeps() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    // Fig 6: on the LiveJournal-shaped graph, accuracy improves (weakly) with more
    // walkers and more iterations, while total time grows with both.
    let mut rng = SmallRng::seed_from_u64(7);
    let graph = frogwild_graph::generators::livejournal_like(2_000, &mut rng);
    let truth = exact_pagerank(&graph, 0.15, 200, 1e-12).scores;
    let cluster = ClusterConfig::new(20, 8);
    let pg = frogwild::driver::partition_graph(&graph, &cluster);
    let k = 100;

    let run = |walkers: u64, iterations: usize| {
        let r = run_frogwild(
            &pg,
            &FrogWildConfig {
                num_walkers: walkers,
                iterations,
                sync_probability: 0.7,
                ..FrogWildConfig::default()
            },
            &exec,
            &off,
        )
        .unwrap();
        (
            mass_captured(&r.estimate, &truth, k).normalized(),
            r.cost.simulated_seconds,
        )
    };

    let (acc_small, time_small) = run(10_000, 4);
    let (acc_large, time_large) = run(160_000, 4);
    assert!(
        acc_large >= acc_small - 0.02,
        "walker sweep: {acc_small} -> {acc_large}"
    );
    assert!(time_large >= time_small, "time should grow with walkers");

    let (acc_2, _) = run(80_000, 2);
    let (acc_5, time_5) = run(80_000, 5);
    assert!(acc_5 >= acc_2 - 0.02, "iteration sweep: {acc_2} -> {acc_5}");
    assert!(time_5 > 0.0);
}

#[test]
fn figure8_shape_network_grows_linearly_with_walkers() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    let mut rng = SmallRng::seed_from_u64(9);
    let graph = frogwild_graph::generators::livejournal_like(3_000, &mut rng);
    let cluster = ClusterConfig::new(20, 10);
    let pg = frogwild::driver::partition_graph(&graph, &cluster);

    let bytes = |walkers: u64| {
        run_frogwild(
            &pg,
            &FrogWildConfig {
                num_walkers: walkers,
                iterations: 4,
                sync_probability: 1.0,
                ..FrogWildConfig::default()
            },
            &exec,
            &off,
        )
        .unwrap()
        .cost
        .network_bytes as f64
    };
    let series: Vec<f64> = [1_000u64, 2_000, 4_000].iter().map(|&w| bytes(w)).collect();
    assert!(series[0] < series[1] && series[1] < series[2]);
    // Roughly linear: doubling walkers should not much more than double the bytes.
    let ratio1 = series[1] / series[0];
    let ratio2 = series[2] / series[1];
    assert!(ratio1 > 1.2 && ratio1 < 2.8, "ratio1 {ratio1}");
    assert!(ratio2 > 1.2 && ratio2 < 2.8, "ratio2 {ratio2}");
}
