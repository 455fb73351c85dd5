//! A PageRank query service: one long-lived `Session` serving a mixed query stream.
//!
//! The serving-oriented prior work (FAST-PPR, PowerWalk) treats PageRank estimation as
//! a query service over precomputed state. This example demonstrates that shape for
//! FrogWild: a synthetic Twitter-shaped follower graph is partitioned **once** at
//! session build, and the session then answers a mixed stream of global top-k and
//! personalized-PageRank queries. At the end it replays the same engine queries the
//! *one-shot* way — re-partitioning before every call — and prints the measured
//! amortization win.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example query_service
//! ```

use frogwild::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() -> Result<()> {
    let mut rng = SmallRng::seed_from_u64(2025);
    let graph = frogwild_graph::generators::twitter_like(20_000, &mut rng);
    println!(
        "follower graph: {} users, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // ------------------------------------------------------------ build the service
    let mut session = Session::builder(&graph)
        .machines(16)
        .partitioner(PartitionerKind::Oblivious)
        .seed(9)
        .build()?;
    println!(
        "session up: {} machines, {} partitioner, replication factor {:.2}, partitioned in {:.3}s\n",
        session.num_machines(),
        session.partitioner_name(),
        session.replication_factor(),
        session.stats().partition_seconds,
    );

    // ------------------------------------------------------------ the query stream
    // A mixed stream, the way a front end would issue it: "popular accounts" shelves
    // at different freshness/cost points, interleaved with per-user recommendations.
    let topk_config = |walkers: u64, ps: f64| FrogWildConfig {
        num_walkers: walkers,
        iterations: 4,
        sync_probability: ps,
        ..FrogWildConfig::default()
    };
    let stream: Vec<(&str, Query)> = vec![
        (
            "popular@100 fresh",
            Query::TopK {
                k: 100,
                config: topk_config(200_000, 0.7),
            },
        ),
        (
            "rec for user 17",
            Query::Ppr {
                source: 17,
                k: 10,
                teleport_probability: 0.15,
                method: PprMethod::ForwardPush { epsilon: 1e-6 },
            },
        ),
        (
            "popular@20 cheap",
            Query::TopK {
                k: 20,
                config: topk_config(50_000, 0.4),
            },
        ),
        (
            "rec for user 4242",
            Query::Ppr {
                source: 4242,
                k: 10,
                teleport_probability: 0.15,
                method: PprMethod::ForwardPush { epsilon: 1e-6 },
            },
        ),
        (
            "popular@100 fresh",
            Query::TopK {
                k: 100,
                config: topk_config(200_000, 0.7),
            },
        ),
        (
            "rec for user 999",
            Query::Ppr {
                source: 999,
                k: 10,
                teleport_probability: 0.15,
                method: PprMethod::ForwardPush { epsilon: 1e-6 },
            },
        ),
        (
            "popular@50 cheap",
            Query::TopK {
                k: 50,
                config: topk_config(50_000, 0.4),
            },
        ),
        (
            "popular@100 fresh",
            Query::TopK {
                k: 100,
                config: topk_config(200_000, 0.7),
            },
        ),
    ];

    println!(
        "{:<20} {:<34} {:>12} {:>12} {:>12}",
        "query", "algorithm", "net bytes", "sim (s)", "host (s)"
    );
    let service_started = Instant::now();
    for (label, query) in &stream {
        let response = session.query(query)?;
        println!(
            "{:<20} {:<34} {:>12} {:>12.4} {:>12.4}",
            label,
            response
                .algorithm
                .split(" walkers")
                .next()
                .unwrap_or(&response.algorithm),
            response.cost.network_bytes,
            response.cost.simulated_seconds,
            response.cost.host_seconds,
        );
    }
    let service_seconds = service_started.elapsed().as_secs_f64();

    let stats = session.stats();
    println!(
        "\nsession totals: {} queries, {} net bytes, {:.4}s simulated, {:.4}s host",
        stats.queries_served,
        stats.totals.network_bytes,
        stats.totals.simulated_seconds,
        stats.totals.host_seconds,
    );
    println!(
        "partitioning paid once: {:.4}s, amortized {:.4}s/query",
        stats.partition_seconds,
        stats.amortized_partition_seconds(),
    );

    // ------------------------------------------------------------ one-shot baseline
    // Replay the engine-backed queries the pre-session way: partition per call.
    let cluster = ClusterConfig::new(16, 9);
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    let baseline_started = Instant::now();
    let mut baseline_partition_seconds = 0.0;
    for (_, query) in &stream {
        if let Query::TopK { config, .. } = query {
            let partition_started = Instant::now();
            let pg = partition_graph(&graph, &cluster); // re-partition, every time
            baseline_partition_seconds += partition_started.elapsed().as_secs_f64();
            let _ = run_frogwild(&pg, config, &exec, &off)?;
        }
    }
    let baseline_seconds = baseline_started.elapsed().as_secs_f64();

    let engine_queries = stream
        .iter()
        .filter(|(_, q)| matches!(q, Query::TopK { .. }))
        .count();
    println!(
        "\none-shot baseline (re-partition per call): {engine_queries} top-k queries took {baseline_seconds:.4}s host, \
         of which {baseline_partition_seconds:.4}s was spent re-partitioning"
    );
    println!(
        "session service (partition once):          full {}-query stream took {:.4}s host ({:.4}s partitioning)",
        stream.len(),
        service_seconds + stats.partition_seconds,
        stats.partition_seconds,
    );
    println!(
        "amortization win: {:.1}x less time spent partitioning across the stream",
        baseline_partition_seconds / stats.partition_seconds.max(1e-9),
    );
    Ok(())
}
