//! Walk-index microbenchmarks: the one-time build, index-served PPR, and the fresh
//! Monte-Carlo baseline it amortizes — the per-query numbers behind the "serve heavy
//! query traffic from an index" story.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use frogwild::driver::partition_graph;
use frogwild::ppr::monte_carlo_ppr_counted;
use frogwild::walkindex::{build_walk_index, indexed_ppr, WalkIndexConfig};
use frogwild_engine::ClusterConfig;
use frogwild_graph::generators::twitter_like;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_walkindex(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(17);
    let graph = twitter_like(10_000, &mut rng);
    let config = WalkIndexConfig::default();
    let pg = partition_graph(&graph, &ClusterConfig::new(8, config.seed));
    let (index, _) = build_walk_index(&graph, &pg, &config).expect("valid build");

    let mut group = c.benchmark_group("walkindex");
    group.sample_size(10);
    group.bench_function("build_10k_vertices", |b| {
        b.iter(|| black_box(build_walk_index(&graph, &pg, &config).unwrap()))
    });
    group.bench_function("ppr_index_served", |b| {
        let mut source = 0u32;
        b.iter(|| {
            source = (source + 1) % 1_000;
            black_box(indexed_ppr(&graph, &index, &config, source, 0.15).unwrap())
        })
    });
    group.bench_function("ppr_fresh_monte_carlo", |b| {
        let mut source = 0u32;
        b.iter(|| {
            source = (source + 1) % 1_000;
            let mut walk_rng = SmallRng::seed_from_u64(source as u64);
            black_box(monte_carlo_ppr_counted(
                &graph,
                source,
                40_000,
                64,
                0.15,
                &mut walk_rng,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_walkindex);
criterion_main!(benches);
