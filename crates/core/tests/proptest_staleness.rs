//! Property-based tests for bounded-staleness execution: across random graphs,
//! cluster sizes, sync probabilities and worker counts,
//!
//! * `staleness = 0` reproduces the synchronous executor **bit-for-bit** (estimates
//!   and every deterministic cost counter),
//! * a fixed `staleness > 0` is bit-identical across worker counts
//!   (the drain schedule, not the host thread pool, decides delivery order), and
//! * stale gated PageRank stays inside the delta gate's accumulated-error envelope
//!   relative to its own synchronous gated run — staleness delays deliveries but
//!   never drops them, so the fixed point the gate converges to is unchanged.

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
    fn zero_staleness_frogwild_is_bit_identical_to_the_synchronous_executor(
        vertices in 60usize..250,
        graph_seed in any::<u64>(),
        machines in 1usize..7,
        ps in 0.3f64..=1.0,
        walker_seed in any::<u64>(),
        workers in 0usize..5,
    ) {
        let graph = graph_of(vertices, graph_seed);
        let pg = partition_graph(&graph, &ClusterConfig::new(machines, 3));
        let config = FrogWildConfig {
            num_walkers: 5_000,
            iterations: 4,
            sync_probability: ps,
            seed: walker_seed,
            ..FrogWildConfig::default()
        };
        let off = Tracer::disabled();
        let sync = run_frogwild(&pg, &config, &ExecutionConfig::default(), &off).unwrap();
        let unified = run_frogwild(
            &pg,
            &config,
            &ExecutionConfig::new().workers(workers).staleness(0),
            &off,
        )
        .unwrap();
        prop_assert!(sync.estimate.iter().zip(&unified.estimate)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        prop_assert_eq!(sync.cost.network_bytes, unified.cost.network_bytes);
        prop_assert_eq!(sync.cost.routed_messages, unified.cost.routed_messages);
        prop_assert_eq!(sync.cost.active_vertices, unified.cost.active_vertices);
        prop_assert_eq!(sync.cost.simulated_seconds.to_bits(),
            unified.cost.simulated_seconds.to_bits());
        // The synchronous path reports no staleness telemetry.
        prop_assert_eq!(unified.cost.staleness_lag, 0);
        prop_assert_eq!(unified.cost.max_inbox_depth, 0);
        prop_assert_eq!(unified.cost.barrier_wait_avoided_seconds, 0.0);
    }

    #[test]
    fn zero_staleness_pagerank_is_bit_identical_to_the_synchronous_executor(
        vertices in 60usize..250,
        graph_seed in any::<u64>(),
        machines in 1usize..7,
        workers in 0usize..5,
    ) {
        let graph = graph_of(vertices, graph_seed);
        let pg = partition_graph(&graph, &ClusterConfig::new(machines, 3));
        let config = PageRankConfig {
            max_iterations: 15,
            ..PageRankConfig::default()
        };
        let off = Tracer::disabled();
        let sync = run_graphlab_pr(&pg, &config, &ExecutionConfig::default(), &off).unwrap();
        let unified = run_graphlab_pr(
            &pg,
            &config,
            &ExecutionConfig::new().workers(workers).staleness(0),
            &off,
        )
        .unwrap();
        prop_assert!(sync.estimate.iter().zip(&unified.estimate)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        prop_assert_eq!(sync.cost.network_bytes, unified.cost.network_bytes);
        prop_assert_eq!(sync.cost.routed_messages, unified.cost.routed_messages);
        prop_assert_eq!(unified.cost.staleness_lag, 0);
    }

    #[test]
    fn fixed_staleness_is_bit_identical_across_worker_counts(
        vertices in 60usize..250,
        graph_seed in any::<u64>(),
        machines in 2usize..8,
        ps in 0.3f64..=1.0,
        staleness in 1usize..4,
        walker_seed in any::<u64>(),
    ) {
        let off = Tracer::disabled();
        let graph = graph_of(vertices, graph_seed);
        let pg = partition_graph(&graph, &ClusterConfig::new(machines, 3));
        let config = FrogWildConfig {
            num_walkers: 5_000,
            iterations: 5,
            sync_probability: ps,
            seed: walker_seed,
            ..FrogWildConfig::default()
        };
        let serial =
            run_frogwild(&pg, &config, &ExecutionConfig::new().staleness(staleness), &off)
                .unwrap();
        // The walker count stays conserved under any staleness window.
        prop_assert!((serial.estimate.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for workers in [1, 0, 3] {
            let execution = ExecutionConfig::new().workers(workers).staleness(staleness);
            let pooled = run_frogwild(&pg, &config, &execution, &off).unwrap();
            prop_assert!(serial.estimate.iter().zip(&pooled.estimate)
                .all(|(x, y)| x.to_bits() == y.to_bits()));
            prop_assert_eq!(serial.cost.network_bytes, pooled.cost.network_bytes);
            prop_assert_eq!(serial.cost.routed_messages, pooled.cost.routed_messages);
            prop_assert_eq!(serial.cost.staleness_lag, pooled.cost.staleness_lag);
            prop_assert_eq!(serial.cost.max_inbox_depth, pooled.cost.max_inbox_depth);
            prop_assert_eq!(
                serial.cost.barrier_wait_avoided_seconds.to_bits(),
                pooled.cost.barrier_wait_avoided_seconds.to_bits()
            );
        }
    }

    #[test]
    fn stale_gated_pagerank_stays_within_the_tolerance_error_envelope(
        vertices in 60usize..250,
        graph_seed in any::<u64>(),
        machines in 2usize..7,
        tolerance in 1e-7f64..1e-4,
        staleness in 1usize..3,
    ) {
        let graph = graph_of(vertices, graph_seed);
        let pg = partition_graph(&graph, &ClusterConfig::new(machines, 3));
        let iterations = 30;
        let config = PageRankConfig {
            max_iterations: iterations,
            tolerance,
            ..PageRankConfig::default()
        };
        let off = Tracer::disabled();
        let stale_exec = ExecutionConfig::new().staleness(staleness);
        let sync = run_graphlab_pr(&pg, &config, &ExecutionConfig::default(), &off).unwrap();
        let stale = run_graphlab_pr(&pg, &config, &stale_exec, &off).unwrap();

        // Still a normalized distribution, and reproducible.
        prop_assert!((stale.estimate.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let again = run_graphlab_pr(&pg, &config, &stale_exec, &off).unwrap();
        prop_assert!(stale.estimate.iter().zip(&again.estimate)
            .all(|(x, y)| x.to_bits() == y.to_bits()));

        // Delaying a delivery by up to `s` supersteps perturbs each vertex's rank by
        // no more than the same accumulated gating slack the delta gate already
        // permits, damped through the (1-p)/p chain — so the stale run sits in the
        // gated run's envelope, widened by the extra (s) in-flight iterations.
        let envelope = tolerance
            * (iterations + staleness) as f64
            * (1.0 - TELEPORT)
            / (TELEPORT * TELEPORT)
            + 1e-12;
        let distance = l1_distance(&stale.estimate, &sync.estimate);
        prop_assert!(
            distance <= envelope,
            "l1 {} exceeds envelope {} (tol {}, s {})",
            distance, envelope, tolerance, staleness
        );
    }
}
