//! End-to-end accuracy of FrogWild on the simulated engine, against exact PageRank —
//! the relationships behind Figures 2, 3, 6 and 7 and Theorem 1.

use frogwild::prelude::*;
use frogwild::theory;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn twitter_like_graph(n: usize, seed: u64) -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    frogwild_graph::generators::twitter_like(n, &mut rng)
}

#[test]
fn frogwild_captures_most_topk_mass_at_full_sync() {
    let graph = twitter_like_graph(2_000, 1);
    let truth = exact_pagerank(&graph, 0.15, 200, 1e-12);
    let mut session = Session::builder(&graph)
        .machines(16)
        .seed(2)
        .build()
        .unwrap();
    let report = session
        .query(&Query::TopK {
            k: 300,
            config: FrogWildConfig {
                num_walkers: 200_000,
                iterations: 4,
                sync_probability: 1.0,
                ..FrogWildConfig::default()
            },
        })
        .unwrap();
    for k in [30usize, 100, 300] {
        let m = mass_captured(&report.estimate, &truth.scores, k);
        assert!(
            m.normalized() > 0.9,
            "k={k}: captured only {}",
            m.normalized()
        );
    }
    let ident = exact_identification(&report.estimate, &truth.scores, 100);
    assert!(ident > 0.6, "exact identification {ident}");
}

#[test]
fn accuracy_degrades_gracefully_as_ps_decreases() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    // Figure 2(a): accuracy at ps = 0.4 is still high, at ps = 0.1 still reasonable,
    // and accuracy is (weakly) monotone in ps up to Monte-Carlo noise.
    let graph = twitter_like_graph(2_000, 3);
    let truth = exact_pagerank(&graph, 0.15, 200, 1e-12);
    let cluster = ClusterConfig::new(16, 4);
    let pg = frogwild::driver::partition_graph(&graph, &cluster);
    let k = 100;

    let run = |ps: f64| {
        let report = run_frogwild(
            &pg,
            &FrogWildConfig {
                num_walkers: 200_000,
                iterations: 4,
                sync_probability: ps,
                ..FrogWildConfig::default()
            },
            &exec,
            &off,
        )
        .unwrap();
        mass_captured(&report.estimate, &truth.scores, k).normalized()
    };

    let acc_full = run(1.0);
    let acc_07 = run(0.7);
    let acc_04 = run(0.4);
    let acc_01 = run(0.1);

    assert!(acc_full > 0.9, "full sync accuracy {acc_full}");
    assert!(acc_07 > 0.85, "ps=0.7 accuracy {acc_07}");
    assert!(acc_04 > 0.8, "ps=0.4 accuracy {acc_04}");
    assert!(acc_01 > 0.6, "ps=0.1 accuracy {acc_01}");
    // graceful degradation: the drop from full sync to ps=0.1 should not be a collapse
    assert!(
        acc_full - acc_01 < 0.35,
        "full {acc_full} vs ps=0.1 {acc_01}"
    );
}

#[test]
fn more_walkers_and_more_iterations_improve_accuracy() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    // Figure 6(a)/(b): accuracy grows with the number of walkers and with the number of
    // iterations (up to noise).
    let graph = twitter_like_graph(1_500, 5);
    let truth = exact_pagerank(&graph, 0.15, 200, 1e-12);
    let cluster = ClusterConfig::new(8, 6);
    let pg = frogwild::driver::partition_graph(&graph, &cluster);
    let k = 100;

    let run = |walkers: u64, iterations: usize| {
        let report = run_frogwild(
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
        mass_captured(&report.estimate, &truth.scores, k).normalized()
    };

    let few_walkers = run(5_000, 4);
    let many_walkers = run(200_000, 4);
    assert!(
        many_walkers > few_walkers - 0.02,
        "200k walkers ({many_walkers}) should beat 5k walkers ({few_walkers})"
    );
    assert!(many_walkers - few_walkers > -0.02);

    let few_iters = run(100_000, 2);
    let more_iters = run(100_000, 5);
    assert!(
        more_iters > few_iters - 0.02,
        "5 iterations ({more_iters}) should not be worse than 2 ({few_iters})"
    );
}

#[test]
fn measured_loss_stays_within_theorem1_envelope() {
    // Theorem 1 bounds µ_k(π) - µ_k(π̂) by ε with probability 1 - δ. The bound is loose
    // at this scale, so the test checks containment, not tightness.
    let graph = twitter_like_graph(2_000, 7);
    let truth = exact_pagerank(&graph, 0.15, 200, 1e-12);
    let pi_max = truth.scores.iter().cloned().fold(0.0, f64::max);
    let cluster = ClusterConfig::new(16, 8);

    let k = 30;
    let iterations = 5;
    let walkers = 150_000u64;
    let ps = 0.4;

    let mut session = Session::builder(&graph)
        .machines(cluster.num_machines)
        .seed(cluster.seed)
        .build()
        .unwrap();
    let report = session
        .query(&Query::TopK {
            k,
            config: FrogWildConfig {
                num_walkers: walkers,
                iterations,
                sync_probability: ps,
                ..FrogWildConfig::default()
            },
        })
        .unwrap();
    let m = mass_captured(&report.estimate, &truth.scores, k);

    let p_intersect =
        theory::intersection_probability_bound(graph.num_vertices(), iterations, 0.15, pi_max);
    let epsilon = theory::theorem1_epsilon(0.15, iterations, k, 0.1, walkers, ps, p_intersect);
    assert!(
        m.loss() <= epsilon,
        "measured loss {} exceeds Theorem 1 bound {epsilon}",
        m.loss()
    );
}

#[test]
fn frogwild_matches_or_beats_one_iteration_pagerank_on_accuracy() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    // Figure 2: FrogWild with ps >= 0.7 outperforms 1-iteration GraphLab PR on the real
    // Twitter graph. On the R-MAT stand-in the 1-iteration baseline is artificially
    // strong (PageRank is heavily in-degree-correlated), so the
    // assertion allows a small tolerance rather than requiring a strict win.
    let graph = twitter_like_graph(2_000, 9);
    let truth = exact_pagerank(&graph, 0.15, 200, 1e-12);
    let cluster = ClusterConfig::new(16, 10);
    let pg = frogwild::driver::partition_graph(&graph, &cluster);

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

    let k = 100;
    let fw_mass = mass_captured(&fw.estimate, &truth.scores, k).normalized();
    let pr1_mass = mass_captured(&pr1.estimate, &truth.scores, k).normalized();
    assert!(
        fw_mass > pr1_mass - 0.02,
        "FrogWild ({fw_mass}) should match or beat 1-iteration PR ({pr1_mass})"
    );
    assert!(fw_mass > 0.9, "FrogWild accuracy {fw_mass}");
}

#[test]
fn estimator_matches_serial_monte_carlo_reference() {
    // With full synchronization the engine-run walkers are plain independent walkers,
    // so the estimate must agree with the serial Monte-Carlo reference up to sampling
    // noise (compare captured mass under each other).
    let graph = twitter_like_graph(1_000, 11);
    let cluster = ClusterConfig::new(8, 12);
    let mut rng = SmallRng::seed_from_u64(13);

    let engine_est = Session::builder(&graph)
        .machines(cluster.num_machines)
        .seed(cluster.seed)
        .build()
        .unwrap()
        .query(&Query::TopK {
            k: 50,
            config: FrogWildConfig {
                num_walkers: 150_000,
                iterations: 6,
                sync_probability: 1.0,
                ..FrogWildConfig::default()
            },
        })
        .unwrap()
        .estimate;
    let serial_est = serial_random_walk_pagerank(&graph, 150_000, 5, 0.15, &mut rng);

    let k = 50;
    let cross = mass_captured(&engine_est, &serial_est, k);
    assert!(
        cross.normalized() > 0.9,
        "engine and serial Monte-Carlo disagree: {}",
        cross.normalized()
    );
}
