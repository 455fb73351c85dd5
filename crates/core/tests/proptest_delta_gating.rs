//! Property-based tests for the executor's delta gate: across random graphs,
//! teleport probabilities, cluster sizes and tolerances,
//!
//! * `tolerance = 0` reproduces the ungated run **bit-for-bit** (estimates and every
//!   deterministic cost counter), and
//! * a positive tolerance perturbs the final PageRank by no more than the accumulated
//!   gating error the tolerance permits, while the estimate stays a distribution.

use frogwild::metrics::l1_distance;
use frogwild::prelude::*;
use frogwild_graph::generators::{rmat, RmatParams};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn graph_of(vertices: usize, seed: u64) -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    rmat(vertices, RmatParams::default(), &mut rng)
}

proptest! {
    // Engine runs are comparatively expensive; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn zero_tolerance_pagerank_is_bit_identical_to_the_ungated_executor(
        vertices in 60usize..250,
        graph_seed in any::<u64>(),
        machines in 1usize..7,
        teleport in 0.1f64..0.5,
        parallel in any::<bool>(),
    ) {
        let graph = graph_of(vertices, graph_seed);
        let pg = partition_graph(&graph, &ClusterConfig::new(machines, 3));
        let config = PageRankConfig {
            max_iterations: 15,
            tolerance: 0.0,
            teleport_probability: teleport,
            parallel,
            ..PageRankConfig::default()
        };
        let off = Tracer::disabled();
        let a = run_graphlab_pr(&pg, &config, &ExecutionConfig::default(), &off).unwrap();
        let b = run_graphlab_pr(&pg, &config, &ExecutionConfig::new().workers(3), &off).unwrap();
        // Bit-for-bit: same f64 bit patterns, same deterministic counters.
        prop_assert_eq!(&a.estimate, &b.estimate);
        prop_assert!(a.estimate.iter().zip(&b.estimate).all(|(x, y)| x.to_bits() == y.to_bits()));
        prop_assert_eq!(a.cost.network_bytes, b.cost.network_bytes);
        prop_assert_eq!(a.cost.routed_messages, b.cost.routed_messages);
        prop_assert_eq!(a.cost.skipped_scatters, b.cost.skipped_scatters);
        prop_assert_eq!(a.cost.active_vertices, b.cost.active_vertices);
        prop_assert_eq!(
            (a.cost.gather_ops, a.cost.apply_ops, a.cost.scatter_ops),
            (b.cost.gather_ops, b.cost.apply_ops, b.cost.scatter_ops)
        );
    }

    #[test]
    fn zero_tolerance_frogwild_is_bit_identical_to_the_ungated_executor(
        vertices in 60usize..250,
        graph_seed in any::<u64>(),
        machines in 1usize..7,
        ps in 0.3f64..=1.0,
        walker_seed in any::<u64>(),
    ) {
        let graph = graph_of(vertices, graph_seed);
        let pg = partition_graph(&graph, &ClusterConfig::new(machines, 3));
        let config = FrogWildConfig {
            num_walkers: 5_000,
            iterations: 4,
            sync_probability: ps,
            seed: walker_seed,
            tolerance: 0.0,
            ..FrogWildConfig::default()
        };
        let off = Tracer::disabled();
        let a = run_frogwild(&pg, &config, &ExecutionConfig::default(), &off).unwrap();
        let b = run_frogwild(
            &pg,
            &FrogWildConfig { parallel: true, ..config },
            &ExecutionConfig::new().workers(2),
            &off,
        )
        .unwrap();
        prop_assert!(a.estimate.iter().zip(&b.estimate).all(|(x, y)| x.to_bits() == y.to_bits()));
        prop_assert_eq!(a.cost.network_bytes, b.cost.network_bytes);
        prop_assert_eq!(a.cost.routed_messages, b.cost.routed_messages);
        prop_assert_eq!(a.cost.skipped_scatters, b.cost.skipped_scatters);
    }

    #[test]
    fn gated_pagerank_stays_within_the_tolerance_error_envelope(
        vertices in 60usize..250,
        graph_seed in any::<u64>(),
        machines in 1usize..7,
        teleport in 0.1f64..0.5,
        tolerance in 1e-7f64..1e-4,
    ) {
        let graph = graph_of(vertices, graph_seed);
        let pg = partition_graph(&graph, &ClusterConfig::new(machines, 3));
        let iterations = 30;
        let base = PageRankConfig {
            max_iterations: iterations,
            teleport_probability: teleport,
            ..PageRankConfig::default()
        };
        let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
        let ungated =
            run_graphlab_pr(&pg, &PageRankConfig { tolerance: 0.0, ..base }, &exec, &off).unwrap();
        let gated = run_graphlab_pr(&pg, &PageRankConfig { tolerance, ..base }, &exec, &off).unwrap();

        // Both normalized distributions.
        prop_assert!((gated.estimate.iter().sum::<f64>() - 1.0).abs() < 1e-9);

        // A vertex that skips scatter leaves its mirrors at most `tolerance` stale per
        // apply, so over T iterations the unnormalised ranks can drift by at most
        // T·tol per vertex, amplified by the (1-p)/p damping chain; normalising
        // (total unnormalised mass is at least n·p) gives the envelope below.
        let envelope = tolerance * iterations as f64 * (1.0 - teleport)
            / (teleport * teleport)
            + 1e-12;
        let distance = l1_distance(&gated.estimate, &ungated.estimate);
        prop_assert!(
            distance <= envelope,
            "l1 {} exceeds envelope {} (tol {}, p {})",
            distance, envelope, tolerance, teleport
        );
    }

    #[test]
    fn gated_frogwild_keeps_a_walker_mass_distribution(
        vertices in 60usize..250,
        graph_seed in any::<u64>(),
        machines in 1usize..7,
        tolerance in 0.5f64..4.0,
        walker_seed in any::<u64>(),
    ) {
        let graph = graph_of(vertices, graph_seed);
        let pg = partition_graph(&graph, &ClusterConfig::new(machines, 3));
        let base = FrogWildConfig {
            num_walkers: 5_000,
            iterations: 4,
            sync_probability: 0.7,
            seed: walker_seed,
            ..FrogWildConfig::default()
        };
        let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
        let gated = run_frogwild(&pg, &FrogWildConfig { tolerance, ..base }, &exec, &off).unwrap();
        // Parked walkers still count toward the estimator: the estimate remains a
        // distribution over the full vertex set, and the run is reproducible.
        prop_assert!((gated.estimate.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let again = run_frogwild(&pg, &FrogWildConfig { tolerance, ..base }, &exec, &off).unwrap();
        prop_assert!(gated.estimate.iter().zip(&again.estimate).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}
