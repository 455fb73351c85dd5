//! Microbenchmark of the engine's superstep machinery: full FrogWild runs with
//! serial and worker-pool execution, a bounded-staleness sweep (the host cost of
//! the staging inbox relative to the synchronous barrier path), plus delta-gated
//! vs ungated runs of both vertex programs, isolating the engine overhead from
//! the algorithm's accuracy concerns.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use frogwild::prelude::*;
use frogwild_graph::generators::twitter_like;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_superstep(c: &mut Criterion) {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    let mut rng = SmallRng::seed_from_u64(5);
    let graph = twitter_like(10_000, &mut rng);
    let cluster = ClusterConfig::new(16, 9);
    let pg = partition_graph(&graph, &cluster);
    let config = FrogWildConfig {
        num_walkers: 50_000,
        iterations: 4,
        sync_probability: 0.7,
        ..FrogWildConfig::default()
    };

    let mut group = c.benchmark_group("engine_superstep");
    group.sample_size(10);
    group.bench_function("frogwild_4_supersteps_serial", |b| {
        b.iter(|| black_box(run_frogwild(&pg, &config, &exec, &off).unwrap()))
    });
    group.bench_function("frogwild_4_supersteps_parallel", |b| {
        b.iter(|| {
            black_box(
                run_frogwild(
                    &pg,
                    &FrogWildConfig {
                        parallel: true,
                        ..config
                    },
                    &exec,
                    &off,
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("frogwild_4_supersteps_pool4", |b| {
        b.iter(|| {
            black_box(
                run_frogwild(
                    &pg,
                    &FrogWildConfig {
                        parallel: true,
                        ..config
                    },
                    &ExecutionConfig::new().workers(4),
                    &off,
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("frogwild_4_supersteps_gated_tol2", |b| {
        b.iter(|| {
            black_box(
                run_frogwild(
                    &pg,
                    &FrogWildConfig {
                        tolerance: 2.0,
                        ..config
                    },
                    &exec,
                    &off,
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

/// Bounded-staleness sweep: the same FrogWild run under widening staleness windows.
/// `staleness 0` takes the synchronous fast path (no staging inbox); `s > 0` pays
/// for the deterministic per-channel delays and the `BTreeMap` staging inbox, which
/// is exactly the host-side overhead this group measures.
fn bench_staleness(c: &mut Criterion) {
    let off = Tracer::disabled();
    let mut rng = SmallRng::seed_from_u64(5);
    let graph = twitter_like(10_000, &mut rng);
    let pg = partition_graph(&graph, &ClusterConfig::new(16, 9));
    let config = FrogWildConfig {
        num_walkers: 50_000,
        iterations: 6,
        sync_probability: 0.7,
        ..FrogWildConfig::default()
    };

    let mut group = c.benchmark_group("engine_staleness");
    group.sample_size(10);
    for staleness in [0usize, 1, 2, 4] {
        group.bench_function(
            format!("frogwild_6_supersteps_staleness_{staleness}"),
            |b| {
                b.iter(|| {
                    black_box(
                        run_frogwild(
                            &pg,
                            &config,
                            &ExecutionConfig::new().staleness(staleness),
                            &off,
                        )
                        .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_delta_gate(c: &mut Criterion) {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    let mut rng = SmallRng::seed_from_u64(42);
    let graph = twitter_like(3_000, &mut rng);
    let pg = partition_graph(&graph, &ClusterConfig::new(16, 9));
    let base = PageRankConfig {
        max_iterations: 20,
        ..PageRankConfig::default()
    };

    let mut group = c.benchmark_group("engine_delta_gate");
    group.sample_size(10);
    group.bench_function("pagerank_20_iters_ungated", |b| {
        b.iter(|| {
            black_box(
                run_graphlab_pr(
                    &pg,
                    &PageRankConfig {
                        tolerance: 0.0,
                        ..base
                    },
                    &exec,
                    &off,
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("pagerank_20_iters_gated_tol1e3", |b| {
        b.iter(|| {
            black_box(
                run_graphlab_pr(
                    &pg,
                    &PageRankConfig {
                        tolerance: 1e-3,
                        ..base
                    },
                    &exec,
                    &off,
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_superstep, bench_staleness, bench_delta_gate);
criterion_main!(benches);
