//! Direct calls into single layers, each under a harness span with its work
//! counts, and the per-layer metrics read back from those spans. Probes run only
//! with `--trace 1`, after the untraced pass, so they never sit inside an
//! end-to-end measurement.

use frogwild::ppr::monte_carlo_ppr_counted;
use frogwild::prelude::{
    forward_push_ppr, partition_graph, ClusterConfig, DiGraph, Session, VertexId, WalkIndexConfig,
};
use frogwild::walkindex::{build_walk_index, indexed_ppr};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::metrics::{median, Metrics};
use crate::trace::{Layer, Trace};
use crate::workloads::{ppr_query, Ctx, MACHINES, MC_MAX_STEPS, TELEPORT, WALKERS};

const MIB: f64 = 1024.0 * 1024.0;

/// Partitioner plus placement, as `Session::build` runs them.
pub fn partition(ctx: &Ctx<'_>, graph: &DiGraph) -> frogwild_engine::PartitionedGraph {
    ctx.spans.time_counted(Layer::PartitionGraph, |span| {
        span.counter("edges", graph.num_edges() as u64);
        partition_graph(graph, &ClusterConfig::new(MACHINES, ctx.opts.seed))
    })
}

/// The pieces of an index-served PPR query, one at a time on the same sources:
/// forward push alone, fresh Monte-Carlo walks (what the index replaces), the
/// index-served estimate, and the same query through `Session::query`.
pub fn ppr(
    ctx: &Ctx<'_>,
    graph: &DiGraph,
    session: &mut Session<'_>,
    sources: &[VertexId],
) -> Result<(), String> {
    let config = WalkIndexConfig::default();
    let pg = partition(ctx, graph);
    let (index, _) = ctx
        .spans
        .time_counted(Layer::BuildWalkIndex, |span| {
            let built = build_walk_index(graph, &pg, &config);
            if let Ok((index, _)) = &built {
                span.counter("arena_bytes", index.memory_bytes() as u64);
            }
            built
        })
        .map_err(|e| e.to_string())?;
    drop(pg);

    // One loop per layer, so each is timed in its own steady state and not
    // behind another layer's cache footprint.
    for &source in sources {
        ctx.spans.time_counted(Layer::ForwardPush, |span| {
            let push = forward_push_ppr(graph, source, TELEPORT, config.frontier_epsilon);
            span.counter("pushes", push.pushes as u64);
        });
    }
    let mut rng = SmallRng::seed_from_u64(ctx.opts.seed);
    for &source in sources {
        ctx.spans.time(Layer::FreshMonteCarlo, || {
            monte_carlo_ppr_counted(graph, source, WALKERS, MC_MAX_STEPS, TELEPORT, &mut rng)
        });
    }
    for &source in sources {
        ctx.spans
            .time_counted(Layer::IndexedPpr, |span| {
                let served = indexed_ppr(graph, &index, &config, source, TELEPORT)?;
                span.counter("pushes", served.stats.pushes as u64);
                span.counter("hits", served.stats.segment_hits);
                span.counter("misses", served.stats.segment_misses);
                span.counter("hops", served.stats.walk_hops);
                Ok(())
            })
            .map_err(|e: frogwild::Error| e.to_string())?;
    }
    for &source in sources {
        ctx.spans
            .time(Layer::SessionQueryProbe, || {
                session.query(&ppr_query(source, ctx.opts.seed))
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Sets every per-layer metric whose span appears in `trace`.
pub fn record(metrics: &mut Metrics, trace: &Trace) {
    let calls = |layer| trace.durations_s(layer).len() as f64;
    let per_call = |layer, counter| trace.counter_total(layer, counter) as f64 / calls(layer);

    for (name, layer) in [
        ("graph.generate_s", Layer::Generate),
        ("graph.oracle_pagerank_s", Layer::Oracle),
        ("engine.partition.build_s", Layer::PartitionGraph),
        ("core.walkindex.build_s", Layer::BuildWalkIndex),
    ] {
        if calls(layer) > 0.0 {
            metrics.set(name, trace.total_s(layer) / calls(layer));
        }
    }
    if calls(Layer::Parse) > 0.0 {
        metrics.set(
            "graph.parse_s",
            trace.total_s(Layer::Parse) / calls(Layer::Parse),
        );
        metrics.set(
            "graph.parse_edges_per_s",
            trace.counter_total(Layer::Parse, "edges") as f64 / trace.total_s(Layer::Parse),
        );
    }
    if calls(Layer::PartitionGraph) > 0.0 {
        metrics.set(
            "engine.partition.edges_per_s",
            trace.counter_total(Layer::PartitionGraph, "edges") as f64
                / trace.total_s(Layer::PartitionGraph),
        );
    }
    if calls(Layer::BuildWalkIndex) > 0.0 {
        metrics.set(
            "core.walkindex.arena_mib",
            per_call(Layer::BuildWalkIndex, "arena_bytes") / MIB,
        );
    }
    if calls(Layer::IndexedPpr) > 0.0 {
        let push = trace.durations_s(Layer::ForwardPush);
        let fresh = trace.durations_s(Layer::FreshMonteCarlo);
        let served = trace.durations_s(Layer::IndexedPpr);
        let through_session = trace.durations_s(Layer::SessionQueryProbe);
        metrics.set_quantile("core.ppr.push_s_p50", &push, 0.5);
        metrics.set("core.ppr.push_ops", per_call(Layer::ForwardPush, "pushes"));
        metrics.set_quantile("core.ppr.fresh_mc_s_p50", &fresh, 0.5);
        metrics.set_quantile("core.walkindex.serve_s_p50", &served, 0.5);
        let hits = trace.counter_total(Layer::IndexedPpr, "hits") as f64;
        let misses = trace.counter_total(Layer::IndexedPpr, "misses") as f64;
        metrics.set("core.walkindex.hit_rate", hits / (hits + misses).max(1.0));
        metrics.set(
            "core.walkindex.walk_hops",
            per_call(Layer::IndexedPpr, "hops"),
        );
        metrics.set(
            "core.walkindex.push_ops",
            per_call(Layer::IndexedPpr, "pushes"),
        );
        metrics.set(
            "core.walkindex.hops_per_s",
            trace.counter_total(Layer::IndexedPpr, "hops") as f64
                / trace.total_s(Layer::IndexedPpr),
        );
        // The README's "5-7x": what a query costs without the index, over with it.
        metrics.set(
            "core.walkindex.speedup_vs_fresh",
            median(&fresh) / median(&served),
        );
        // Dense estimate, top-k and cost assembly around the same indexed_ppr call.
        metrics.set(
            "core.session.overhead_s_p50",
            median(&through_session) - median(&served),
        );
    }
}
