//! Per-run cost of FrogWild as a function of the synchronization probability and the
//! walker count — the microbenchmark behind the paper's "less than one second per
//! iteration" claim (relative, not absolute, on the simulated engine).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use frogwild::prelude::*;
use frogwild_graph::generators::twitter_like;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_frogwild(c: &mut Criterion) {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    let mut rng = SmallRng::seed_from_u64(17);
    let graph = twitter_like(10_000, &mut rng);
    let cluster = ClusterConfig::new(16, 19);
    let pg = partition_graph(&graph, &cluster);

    let mut group = c.benchmark_group("frogwild_run");
    group.sample_size(10);
    for ps in [1.0, 0.4, 0.1] {
        group.bench_with_input(BenchmarkId::new("sync_probability", ps), &ps, |b, &ps| {
            b.iter(|| {
                black_box(
                    run_frogwild(
                        &pg,
                        &FrogWildConfig {
                            num_walkers: 50_000,
                            iterations: 4,
                            sync_probability: ps,
                            ..FrogWildConfig::default()
                        },
                        &exec,
                        &off,
                    )
                    .unwrap(),
                )
            })
        });
    }
    for walkers in [10_000u64, 100_000] {
        group.bench_with_input(
            BenchmarkId::new("walkers", walkers),
            &walkers,
            |b, &walkers| {
                b.iter(|| {
                    black_box(
                        run_frogwild(
                            &pg,
                            &FrogWildConfig {
                                num_walkers: walkers,
                                iterations: 4,
                                sync_probability: 0.7,
                                ..FrogWildConfig::default()
                            },
                            &exec,
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

criterion_group!(benches, bench_frogwild);
criterion_main!(benches);
