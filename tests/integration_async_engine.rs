//! Integration pins for bounded-staleness (async inter-machine) execution.
//!
//! Four contracts, layered on top of `integration_delta_engine`'s golden pins:
//!
//! * `staleness = 0` through the unified `ExecutionConfig` surface reproduces the
//!   synchronous executor's golden fingerprints **bit-for-bit** — the async refactor
//!   must be invisible until the window opens;
//! * a fixed `staleness > 0` is deterministic and bit-identical across worker
//!   counts: delivery order is decided by the engine's fixed drain schedule
//!   `(superstep, machine, key-range batch)`, never by host-thread interleaving;
//! * the window must pay for itself: on a ~100k-edge power-law graph, `s >= 1`
//!   spends measurably less simulated wall-time than the barriered run (the overlap
//!   is reported as `barrier_wait_avoided_seconds`) at matched top-20 accuracy.
//! * a run reprices to its own simulated seconds at nominal speeds, on whichever clock
//!   its staleness chose.

use frogwild::prelude::*;
use frogwild_graph::generators::{rmat, twitter_like, RmatParams};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive fold of the exact f64 bit patterns of an estimate.
fn fingerprint(estimate: &[f64]) -> u64 {
    let mut acc = 0x243F_6A88_85A3_08D3u64;
    for &x in estimate {
        acc = splitmix64(acc ^ x.to_bits());
    }
    acc
}

fn frogwild_base() -> FrogWildConfig {
    FrogWildConfig {
        num_walkers: 50_000,
        iterations: 4,
        sync_probability: 0.7,
        ..FrogWildConfig::default()
    }
}

fn twitter_layout() -> frogwild_engine::PartitionedGraph {
    let mut rng = SmallRng::seed_from_u64(5);
    let graph = twitter_like(5_000, &mut rng);
    partition_graph(&graph, &ClusterConfig::new(16, 9))
}

#[test]
fn staleness_zero_reproduces_the_synchronous_golden_fingerprints() {
    let off = Tracer::disabled();
    let pg = twitter_layout();
    for execution in [
        ExecutionConfig::default(),
        ExecutionConfig::new().staleness(0),
        ExecutionConfig::new().workers(3).staleness(0),
    ] {
        let report = run_frogwild(&pg, &frogwild_base(), &execution, &off).unwrap();
        assert_eq!(
            fingerprint(&report.estimate),
            0xc498_2688_7c36_ed28,
            "{execution:?}"
        );
        assert_eq!(report.cost.network_bytes, 1_192_472);
        assert_eq!(report.cost.network_messages, 49_012);
        assert_eq!(report.cost.staleness_lag, 0);
        assert_eq!(report.cost.max_inbox_depth, 0);
        assert_eq!(report.cost.barrier_wait_avoided_seconds, 0.0);
    }
}

#[test]
fn fixed_staleness_is_deterministic_across_worker_counts() {
    let off = Tracer::disabled();
    let pg = twitter_layout();
    let config = FrogWildConfig {
        iterations: 6,
        ..frogwild_base()
    };
    for staleness in [1usize, 2, 4] {
        let serial = run_frogwild(
            &pg,
            &config,
            &ExecutionConfig::new().staleness(staleness),
            &off,
        )
        .unwrap();
        // Walkers are conserved: delayed messages are delivered late, never dropped.
        assert!((serial.estimate.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(serial.cost.staleness_lag > 0, "s={staleness}");
        for workers in [2usize, 5, 8] {
            let pooled = run_frogwild(
                &pg,
                &config,
                &ExecutionConfig::new().workers(workers).staleness(staleness),
                &off,
            )
            .unwrap();
            assert_eq!(
                fingerprint(&pooled.estimate),
                fingerprint(&serial.estimate),
                "s={staleness} workers={workers}"
            );
            assert_eq!(serial.cost.network_bytes, pooled.cost.network_bytes);
            assert_eq!(serial.cost.routed_messages, pooled.cost.routed_messages);
            assert_eq!(serial.cost.staleness_lag, pooled.cost.staleness_lag);
            assert_eq!(
                serial.cost.barrier_wait_avoided_seconds.to_bits(),
                pooled.cost.barrier_wait_avoided_seconds.to_bits()
            );
        }
    }
}

#[test]
fn staleness_cuts_simulated_wall_time_at_matched_topk_accuracy() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    // ~100k-edge power-law graph (102,410 edges).
    let mut rng = SmallRng::seed_from_u64(42);
    let graph = twitter_like(3_000, &mut rng);
    assert!(graph.num_edges() >= 100_000);
    let pg = partition_graph(&graph, &ClusterConfig::new(16, 9));
    let config = FrogWildConfig {
        num_walkers: 50_000,
        iterations: 6,
        sync_probability: 0.7,
        ..FrogWildConfig::default()
    };

    let sync = run_frogwild(&pg, &config, &exec, &off).unwrap();
    let exact = exact_pagerank(&graph, 0.15, 200, 1e-13);
    let k = 20;
    let sync_mass = mass_captured(&sync.estimate, &exact.scores, k).normalized();

    for staleness in [1usize, 2] {
        let stale = run_frogwild(
            &pg,
            &config,
            &ExecutionConfig::new().staleness(staleness),
            &off,
        )
        .unwrap();
        // Measurably less simulated barrier wall-time...
        assert!(
            stale.cost.simulated_seconds < sync.cost.simulated_seconds,
            "s={staleness}: {} vs sync {}",
            stale.cost.simulated_seconds,
            sync.cost.simulated_seconds
        );
        assert!(
            stale.cost.barrier_wait_avoided_seconds > 0.0,
            "s={staleness}"
        );
        // ... with the avoided wait accounting for exactly the gap to the
        // per-superstep barriered cost of the same work schedule.
        assert!(stale.cost.staleness_lag > 0, "s={staleness}");
        // ... at matched top-20 accuracy against exact PageRank.
        let stale_mass = mass_captured(&stale.estimate, &exact.scores, k).normalized();
        assert!(
            stale_mass >= sync_mass - 0.05,
            "s={staleness}: mass {stale_mass} vs sync {sync_mass}"
        );
    }
}

/// Repricing a run at nominal speeds replays the clock it ran on — barriered at
/// staleness 0, pipelined above — so it gives back the run's own simulated seconds, and
/// slowing a machine never makes a run cheaper.
#[test]
fn repricing_at_nominal_speeds_is_the_runs_own_clock() {
    let off = Tracer::disabled();
    let mut rng = SmallRng::seed_from_u64(13);
    let graph = rmat(2_000, RmatParams::default(), &mut rng);
    let machines = 8;
    let pg = partition_graph(&graph, &ClusterConfig::new(machines, 3));
    let frogwild = |staleness| {
        let execution = ExecutionConfig::new().staleness(staleness);
        run_frogwild(&pg, &frogwild_base(), &execution, &off).unwrap()
    };
    let pagerank = PageRankConfig::truncated(5);
    let pagerank = run_graphlab_pr(&pg, &pagerank, &ExecutionConfig::default(), &off).unwrap();
    let stale = frogwild(2);
    // The pipelined clock priced the stale run below the barriered one.
    assert!(stale.cost.barrier_wait_avoided_seconds > 0.0);
    let runs = [
        ("FrogWild staleness=0", frogwild(0)),
        ("FrogWild staleness=2", stale),
        ("GraphLab PR staleness=0", pagerank),
    ];
    let mut straggler = vec![1.0; machines];
    straggler[0] = 2.0;
    for (label, report) in runs {
        let nominal = report.metrics.reprice(&vec![1.0; machines]);
        assert_eq!(
            nominal.to_bits(),
            report.cost.simulated_seconds.to_bits(),
            "{label}: {nominal} vs {}",
            report.cost.simulated_seconds
        );
        let slowed = report.metrics.reprice(&straggler);
        assert!(slowed >= nominal, "{label}: {slowed} < {nominal}");
    }
}

#[test]
fn stale_sessions_surface_the_async_telemetry() {
    let mut rng = SmallRng::seed_from_u64(5);
    let graph = twitter_like(2_000, &mut rng);
    let mut session = Session::builder(&graph)
        .machines(8)
        .seed(11)
        .execution(ExecutionConfig::new().staleness(2))
        .build()
        .unwrap();
    let response = session
        .query(&Query::TopK {
            k: 20,
            config: FrogWildConfig {
                num_walkers: 20_000,
                iterations: 6,
                sync_probability: 0.7,
                ..FrogWildConfig::default()
            },
        })
        .unwrap();
    assert_eq!(response.ranking.len(), 20);
    assert!(response.cost.staleness_lag > 0);
    assert!(response.cost.barrier_wait_avoided_seconds > 0.0);
    let stats = session.stats();
    assert_eq!(stats.totals.staleness_lag, response.cost.staleness_lag);
    assert!(stats.totals.barrier_wait_avoided_seconds > 0.0);
    assert!(stats.to_string().contains("barrier wait avoided"));
}
