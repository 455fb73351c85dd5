//! Microbenchmark of the tracing subsystem's overhead on the engine hot path.
//!
//! Three FrogWild runs of the same configuration: no tracer (the baseline), a
//! *disabled* tracer threaded through every instrumentation point (the cost every
//! untraced run pays — this must stay indistinguishable from the baseline), and an
//! armed host-clock tracer (the cost of actually recording). A fourth group
//! measures the raw record path in isolation: spans and counter events against a
//! disabled vs enabled sink, plus the merge/export step over a recorded timeline.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use frogwild::obs::{span_meta, SpanKey, TraceConfig, Tracer};
use frogwild::prelude::*;
use frogwild_graph::generators::twitter_like;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_engine_overhead(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(5);
    let graph = twitter_like(10_000, &mut rng);
    let pg = partition_graph(&graph, &ClusterConfig::new(16, 9));
    let config = FrogWildConfig {
        num_walkers: 50_000,
        iterations: 4,
        sync_probability: 0.7,
        ..FrogWildConfig::default()
    };
    let execution = ExecutionConfig::new();

    let mut group = c.benchmark_group("trace_overhead_engine");
    group.sample_size(10);
    group.bench_function("frogwild_4_supersteps_tracer_disabled", |b| {
        let tracer = Tracer::disabled();
        b.iter(|| black_box(run_frogwild(&pg, &config, &execution, &tracer).unwrap()))
    });
    group.bench_function("frogwild_4_supersteps_tracer_enabled", |b| {
        b.iter(|| {
            let tracer = Tracer::new(TraceConfig::enabled());
            let report = run_frogwild(&pg, &config, &execution, &tracer).unwrap();
            black_box((report, tracer.finish()))
        })
    });
    group.finish();
}

fn bench_record_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_overhead_records");
    group.bench_function("span_1000_disabled", |b| {
        let tracer = Tracer::disabled();
        b.iter(|| {
            let sink = tracer.sink();
            for i in 0..1000u64 {
                let mut span = sink.span(span_meta!("bench"), SpanKey::new(i, 0, 0, 0));
                span.counter("value", black_box(i));
            }
        })
    });
    group.bench_function("span_1000_enabled", |b| {
        b.iter(|| {
            let tracer = Tracer::new(TraceConfig::enabled());
            let sink = tracer.sink();
            for i in 0..1000u64 {
                let mut span = sink.span(span_meta!("bench"), SpanKey::new(i, 0, 0, 0));
                span.counter("value", black_box(i));
            }
            drop(sink);
            black_box(tracer)
        })
    });
    group.bench_function("merge_and_export_1000", |b| {
        let tracer = Tracer::new(TraceConfig::logical());
        let sink = tracer.sink();
        for i in 0..1000u64 {
            let mut span = sink.span(span_meta!("bench"), SpanKey::new(i, 0, 0, 0));
            span.counter("value", i);
        }
        drop(sink);
        b.iter(|| black_box(tracer.finish().to_chrome_json()))
    });
    group.finish();
}

criterion_group!(benches, bench_engine_overhead, bench_record_path);
criterion_main!(benches);
