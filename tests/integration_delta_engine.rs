//! Integration pins for the delta-gated, frontier-scheduled executor.
//!
//! The fingerprints below were captured from the one-thread-per-machine,
//! phase-barrier executor that preceded the frontier refactor. They freeze the
//! refactor's two contracts:
//!
//! * `tolerance = 0` (and every worker-pool/batch configuration) reproduces the old
//!   executor **bit-for-bit**, and
//! * the executor-level delta gate reproduces the old program-level
//!   `needs_scatter`-on-tolerance gating exactly at a *positive* tolerance too
//!   (the `pr-tol1e3` pin below ran with GraphLab-style dynamic scheduling).
//!
//! On top of the pins, the delta gate must actually pay for itself: on a ~100k-edge
//! power-law graph, gated PageRank does less than half the superstep work (scatter
//! ops + routed messages) of the ungated run at matched top-20 accuracy.

use frogwild::prelude::*;
use frogwild_graph::generators::{livejournal_like, twitter_like};
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

/// Total superstep work the delta gate is meant to reduce.
fn superstep_work(report: &RunReport) -> u64 {
    report.cost.scatter_ops + report.cost.routed_messages
}

/// The operations the CPU model prices: gather + apply + scatter.
fn work_ops(cost: &QueryCost) -> u64 {
    cost.gather_ops + cost.apply_ops + cost.scatter_ops
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
fn tolerance_zero_reproduces_the_pre_refactor_executor_bit_for_bit() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    let pg = twitter_layout();

    let ps07 = run_frogwild(&pg, &frogwild_base(), &exec, &off).unwrap();
    assert_eq!(fingerprint(&ps07.estimate), 0xc498_2688_7c36_ed28);
    assert_eq!(ps07.cost.network_bytes, 1_192_472);
    assert_eq!(ps07.cost.network_messages, 49_012);
    assert_eq!(work_ops(&ps07.cost), 390_050);
    assert_eq!(ps07.cost.scatter_ops, 374_192);
    assert_eq!(ps07.cost.supersteps, 4);

    let ps10 = run_frogwild(
        &pg,
        &FrogWildConfig {
            sync_probability: 1.0,
            ..frogwild_base()
        },
        &exec,
        &off,
    )
    .unwrap();
    assert_eq!(fingerprint(&ps10.estimate), 0x0ae2_b17a_bc8e_9a4d);
    assert_eq!(ps10.cost.network_bytes, 1_510_384);
    assert_eq!(ps10.cost.network_messages, 60_480);
    assert_eq!(work_ops(&ps10.cost), 516_658);
}

#[test]
fn worker_pool_scheduling_reproduces_the_golden_fingerprints() {
    let off = Tracer::disabled();
    let pg = twitter_layout();
    let parallel = FrogWildConfig {
        parallel: true,
        ..frogwild_base()
    };
    for execution in [
        ExecutionConfig::default(),
        ExecutionConfig::new().workers(2),
        ExecutionConfig::new().workers(3),
        ExecutionConfig::new().workers(8),
    ] {
        let report = run_frogwild(&pg, &parallel, &execution, &off).unwrap();
        assert_eq!(
            fingerprint(&report.estimate),
            0xc498_2688_7c36_ed28,
            "{execution:?}"
        );
        assert_eq!(report.cost.network_bytes, 1_192_472);
        assert_eq!(report.cost.network_messages, 49_012);
    }
}

#[test]
fn pagerank_golden_pins_hold_under_executor_gating() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    let mut rng = SmallRng::seed_from_u64(7);
    let graph = livejournal_like(3_000, &mut rng);
    let pg = partition_graph(&graph, &ClusterConfig::new(8, 11));

    // Positive tolerance: the executor's `delta <= tolerance` gate must make exactly
    // the decisions the old program-level `needs_scatter` made with the same 1e-3.
    let gated = run_graphlab_pr(
        &pg,
        &PageRankConfig {
            max_iterations: 25,
            tolerance: 1e-3,
            ..PageRankConfig::default()
        },
        &exec,
        &off,
    )
    .unwrap();
    assert_eq!(fingerprint(&gated.estimate), 0x361f_a0c0_da1e_e8ba);
    assert_eq!(gated.cost.network_bytes, 3_131_664);
    assert_eq!(gated.cost.network_messages, 180_574);
    assert_eq!(work_ops(&gated.cost), 1_250_444);
    assert_eq!(gated.cost.scatter_ops, 494_315);
    assert_eq!(gated.cost.supersteps, 25);
    assert!(gated.cost.skipped_scatters > 0);

    // Zero tolerance (the truncated preset): no gating at all.
    let truncated = run_graphlab_pr(&pg, &PageRankConfig::truncated(2), &exec, &off).unwrap();
    assert_eq!(fingerprint(&truncated.estimate), 0x8575_973d_04cf_b9c2);
    assert_eq!(truncated.cost.network_bytes, 477_916);
    assert_eq!(truncated.cost.network_messages, 27_367);
    assert_eq!(work_ops(&truncated.cost), 174_029);
    assert_eq!(truncated.cost.supersteps, 2);
}

#[test]
fn delta_gating_halves_superstep_work_at_matched_topk_accuracy() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    // ~100k-edge power-law graph (102,410 edges).
    let mut rng = SmallRng::seed_from_u64(42);
    let graph = twitter_like(3_000, &mut rng);
    assert!(graph.num_edges() >= 100_000);
    let pg = partition_graph(&graph, &ClusterConfig::new(16, 9));

    let iterations = 30;
    let ungated = run_graphlab_pr(
        &pg,
        &PageRankConfig {
            max_iterations: iterations,
            tolerance: 0.0,
            ..PageRankConfig::default()
        },
        &exec,
        &off,
    )
    .unwrap();
    let gated = run_graphlab_pr(
        &pg,
        &PageRankConfig {
            max_iterations: iterations,
            tolerance: 1e-3,
            ..PageRankConfig::default()
        },
        &exec,
        &off,
    )
    .unwrap();

    // >= 2x less total superstep work (scatter ops + routed messages)...
    let (gated_work, ungated_work) = (superstep_work(&gated), superstep_work(&ungated));
    assert!(
        ungated_work >= 2 * gated_work,
        "work reduction below 2x: gated {gated_work} vs ungated {ungated_work}"
    );
    assert!(gated.cost.skipped_scatters > 0);
    assert!(gated.cost.routed_messages < ungated.cost.routed_messages);
    // ... and a shrinking frontier.
    assert!(gated.cost.active_vertices < ungated.cost.active_vertices);

    // ... at matched top-20 accuracy against exact PageRank.
    let exact = exact_pagerank(&graph, 0.15, 200, 1e-13);
    let k = 20;
    let gated_mass = mass_captured(&gated.estimate, &exact.scores, k).normalized();
    let ungated_mass = mass_captured(&ungated.estimate, &exact.scores, k).normalized();
    assert!(gated_mass > 0.99, "gated top-{k} mass {gated_mass}");
    assert!(
        gated_mass >= ungated_mass - 1e-3,
        "gating lost accuracy: {gated_mass} vs {ungated_mass}"
    );
    assert_eq!(
        exact_identification(&gated.estimate, &exact.scores, k),
        exact_identification(&ungated.estimate, &exact.scores, k)
    );
}
