//! Adversarial graphs through the one run path: every degenerate shape a caller can
//! hand the library — one vertex, two, nothing but self-loops, a star, a path, two
//! components — is run through `run_frogwild`, `run_graphlab_pr` and a `Session`
//! (engine top-k, index-served top-k and push PPR) under every partitioner, at 1, 3
//! and 16 simulated machines, on the calling thread and on a pool of two. Nothing
//! panics, every estimate is a distribution, and exact PageRank matches the serial
//! oracle.
//!
//! Every graph here has its sinks closed by self-loops (the builder's default policy).
//! Graphs that keep their dangling vertices are left out: the oracle spreads a sink's
//! mass uniformly, engine walkers stay put, and index-served walks restart at their
//! start vertex, so the three do not yet share one convention to check against.

use frogwild::metrics::l1_distance;
use frogwild::prelude::*;
use frogwild_engine::PartitionedGraph;
use frogwild_graph::generators::simple::{path, star};

/// The adversarial shapes, by name.
fn graphs() -> Vec<(&'static str, DiGraph)> {
    let built = |n: usize, edges: &[(VertexId, VertexId)]| {
        let mut builder = GraphBuilder::new(n);
        for &(src, dst) in edges {
            builder.add_edge(src, dst);
        }
        builder.build().unwrap()
    };
    vec![
        ("one vertex", built(1, &[])),
        ("two vertices", built(2, &[(0, 1)])),
        (
            "all self-loops",
            built(5, &[(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]),
        ),
        ("star(50)", star(50)),
        ("path(40)", path(40)),
        (
            "two 3-cycles",
            built(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        ),
    ]
}

/// Finite, non-negative, and — with `missing` mass the method says it left
/// unattributed — summing to one.
fn assert_distribution(estimate: &[f64], missing: f64, case: &str) {
    assert!(
        estimate.iter().all(|x| x.is_finite() && *x >= 0.0),
        "{case}: {estimate:?}"
    );
    let total = estimate.iter().sum::<f64>() + missing;
    assert!((total - 1.0).abs() < 1e-9, "{case}: sums to {total}");
}

#[test]
fn adversarial_graphs_run_on_every_layout_and_pool() {
    let off = Tracer::disabled();
    let config = FrogWildConfig {
        num_walkers: 2_000,
        iterations: 4,
        sync_probability: 0.7,
        ..FrogWildConfig::default()
    };
    for (name, graph) in graphs() {
        let exact = exact_pagerank(&graph, TELEPORT, 200, 1e-12).scores;
        for partitioner in PartitionerKind::ALL {
            for machines in [1, 3, 16] {
                for workers in [1, 2] {
                    let case =
                        format!("{name}, {partitioner:?}, {machines} machines, {workers} workers");
                    let execution = ExecutionConfig::new().workers(workers);
                    let pg = PartitionedGraph::build(&graph, machines, partitioner, 7);

                    let fw = run_frogwild(&pg, &config, &execution, &off).unwrap();
                    assert_distribution(&fw.estimate, 0.0, &format!("{case}: FrogWild"));
                    let pr =
                        run_graphlab_pr(&pg, &PageRankConfig::exact(), &execution, &off).unwrap();
                    assert_distribution(&pr.estimate, 0.0, &format!("{case}: PageRank"));
                    let distance = l1_distance(&pr.estimate, &exact);
                    assert!(distance < 1e-6, "{case}: exact PageRank is {distance} away");

                    let builder = Session::builder(&graph)
                        .machines(machines)
                        .partitioner(partitioner)
                        .seed(7)
                        .execution(execution);
                    let mut engine = builder.build().unwrap();
                    let mut indexed = builder
                        .walk_index(WalkIndexConfig::default())
                        .build()
                        .unwrap();
                    let topk = Query::TopK { k: 3, config };
                    for (served, session) in [(false, &mut engine), (true, &mut indexed)] {
                        let case = format!("{case}: top-k, index-served {served}");
                        let response = session.query(&topk).unwrap();
                        assert_eq!(response.cost.index_served, served, "{case}");
                        assert_distribution(&response.estimate, 0.0, &case);
                        assert!(!response.ranking.is_empty(), "{case}");
                    }
                    let source = (graph.num_vertices() - 1) as VertexId;
                    let ppr = engine.query(&Query::ppr(source)).unwrap();
                    let ResponseDetail::Ppr { residual, .. } = ppr.detail else {
                        panic!("{case}: a PPR query answered {:?}", ppr.detail);
                    };
                    assert_distribution(&ppr.estimate, residual, &format!("{case}: push PPR"));
                }
            }
        }
    }
}
