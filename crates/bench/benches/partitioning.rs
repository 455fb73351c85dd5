//! Microbenchmarks for the vertex-cut partitioners (ingress cost and the resulting
//! replication factor drive everything else in the engine).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use frogwild_engine::{PartitionedGraph, PartitionerKind};
use frogwild_graph::generators::twitter_like;
use frogwild_graph::DiGraph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const VERTICES: usize = 10_000;
const MACHINES: usize = 16;

fn graph() -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(7);
    twitter_like(VERTICES, &mut rng)
}

fn bench_partitioners(c: &mut Criterion) {
    let graph = graph();
    let mut group = c.benchmark_group("partitioning");
    group.sample_size(10);
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    for partitioner in PartitionerKind::ALL {
        group.bench_function(format!("assign_{partitioner}"), |b| {
            b.iter(|| black_box(partitioner.assign(&graph, MACHINES, 3)))
        });
    }
    group.bench_function("build_partitioned_graph_oblivious", |b| {
        b.iter(|| {
            black_box(PartitionedGraph::build(
                &graph,
                MACHINES,
                PartitionerKind::Oblivious,
                3,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_partitioners);
criterion_main!(benches);
