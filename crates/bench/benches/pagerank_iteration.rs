//! Per-iteration cost of the baseline GraphLab-style PageRank on the simulated engine,
//! and of the serial power-iteration reference — the costs FrogWild is measured against.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use frogwild::prelude::*;
use frogwild::reference::exact_pagerank;
use frogwild_graph::generators::twitter_like;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_pagerank(c: &mut Criterion) {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    let mut rng = SmallRng::seed_from_u64(11);
    let graph = twitter_like(10_000, &mut rng);
    let cluster = ClusterConfig::new(16, 13);
    let pg = partition_graph(&graph, &cluster);

    let mut group = c.benchmark_group("pagerank_iteration");
    group.sample_size(10);
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    group.bench_function("engine_pr_2_iterations", |b| {
        b.iter(|| {
            black_box(run_graphlab_pr(&pg, &PageRankConfig::truncated(2), &exec, &off).unwrap())
        })
    });
    group.bench_function("engine_pr_1_iteration", |b| {
        b.iter(|| {
            black_box(run_graphlab_pr(&pg, &PageRankConfig::truncated(1), &exec, &off).unwrap())
        })
    });
    group.bench_function("serial_power_iteration_20_iters", |b| {
        b.iter(|| black_box(exact_pagerank(&graph, 0.15, 20, 0.0)))
    });
    group.finish();
}

criterion_group!(benches, bench_pagerank);
criterion_main!(benches);
