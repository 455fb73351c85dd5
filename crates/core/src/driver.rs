//! Experiment drivers: the low-level layer underneath [`crate::session`].
//!
//! There is one way to run each algorithm: [`run_frogwild`] and [`run_graphlab_pr`]
//! take an already partitioned graph (see [`partition_graph`]; reuse it across a
//! sweep), the algorithm's configuration, the [`ExecutionConfig`] to run under and a
//! [`Tracer`] to record engine spans into (`&ExecutionConfig::default()` and
//! `&Tracer::disabled()` when neither matters). They return a typed [`Error`] instead
//! of panicking, or a [`RunReport`]: the PageRank estimate, the raw per-superstep
//! engine metrics, and the [`QueryCost`] (simulated time, network bytes, CPU work)
//! that the paper's figures plot.
//!
//! Applications that serve a *query stream* should use
//! [`Session`](crate::session::Session) instead, which owns the partitioned layout,
//! answers queries through these same two functions, and tracks cumulative amortized
//! cost. [`run_sparsified_pr`] is one-shot because sparsification changes the edge set
//! and therefore genuinely needs its own partitioning.

use frogwild_engine::{
    ClusterConfig, Engine, EngineConfig, InitialActivation, PartitionedGraph, PartitionerKind,
    QueryCost, RunMetrics,
};
use frogwild_graph::sparsify::uniform_sparsify;
use frogwild_graph::{DiGraph, VertexId};
use frogwild_obs::Tracer;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::{ExecutionConfig, FrogWildConfig, PageRankConfig};
use crate::error::Error;
use crate::programs::{FrogWildProgram, PageRankProgram};
use crate::topk::normalize;

/// Result of one algorithm run on the simulated cluster.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Human-readable algorithm label (used in figure legends), e.g.
    /// `"FrogWild ps=0.4"` or `"GraphLab PR 2 iters"`.
    pub algorithm: String,
    /// Normalised per-vertex score estimate (sums to 1 unless the run produced nothing).
    pub estimate: Vec<f64>,
    /// Raw per-superstep engine metrics.
    pub metrics: RunMetrics,
    /// The run's cost, [`RunMetrics::totals`] of `metrics` — one row of the paper's
    /// Figure 1.
    pub cost: QueryCost,
}

impl RunReport {
    /// Normalises `estimate` and totals `metrics`.
    fn new(algorithm: String, mut estimate: Vec<f64>, metrics: RunMetrics) -> Self {
        normalize(&mut estimate);
        let cost = metrics.totals();
        RunReport {
            algorithm,
            estimate,
            metrics,
            cost,
        }
    }

    /// The top-`k` vertices of the estimate.
    pub fn top_k(&self, k: usize) -> Vec<VertexId> {
        crate::topk::top_k(&self.estimate, k)
    }
}

/// Partitions `graph` over the cluster with the default (oblivious / greedy) ingress,
/// matching GraphLab's default.
pub fn partition_graph(graph: &DiGraph, cluster: &ClusterConfig) -> PartitionedGraph {
    PartitionedGraph::build(
        graph,
        cluster.num_machines,
        PartitionerKind::Oblivious,
        cluster.seed,
    )
}

/// Where a run is refused a graph with no vertex to put a walker or a rank on.
fn require_a_vertex(pg: &PartitionedGraph) -> Result<(), Error> {
    if pg.num_vertices() == 0 {
        return Err(Error::graph("cannot run on an empty graph"));
    }
    Ok(())
}

/// Runs FrogWild on an already partitioned graph under `execution`, recording
/// per-phase, per-batch engine spans into `tracer` (see [`crate::obs`]).
///
/// `workers` never changes results; `staleness > 0` changes them
/// deterministically (bit-identical across worker counts for a fixed bound), and
/// `staleness = 0` is the synchronous executor. Tracing only observes — the estimate
/// and every counted cost are bit-identical with it on or off.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when `config` fails validation and
/// [`Error::Graph`] when the graph has no vertices.
pub fn run_frogwild(
    pg: &PartitionedGraph,
    config: &FrogWildConfig,
    execution: &ExecutionConfig,
    tracer: &Tracer,
) -> Result<RunReport, Error> {
    require_a_vertex(pg)?;
    let engine_config = EngineConfig {
        sync_probability: config.sync_probability,
        max_supersteps: config.iterations,
        seed: config.seed,
        tolerance: config.tolerance,
        workers: execution.workers,
        staleness: execution.staleness,
        tracer: tracer.clone(),
    };
    let engine = Engine::new(pg, FrogWildProgram::new(config)?, engine_config)?;

    // Walkers are born on uniformly random vertices; each machine creates its own share
    // locally, so the initial placement costs no network traffic.
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x5EED_F206);
    let n = pg.num_vertices();
    let mut birth_counts = vec![0u64; n];
    for _ in 0..config.num_walkers {
        // lint:allow(indexing, gen_range is bounded by the vertex count)
        birth_counts[rng.gen_range(0..n)] += 1;
    }
    let initial: Vec<(VertexId, u64)> = birth_counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(v, &c)| (v as VertexId, c))
        .collect();

    let output = engine.run(InitialActivation::Messages(initial));

    // Estimator of Definition 5: the fraction of walkers that ended on each vertex.
    // (`live` is non-zero only if the engine stopped early; counting it keeps the
    // estimator a distribution in every case.)
    let estimate = output
        .states
        .iter()
        .map(|s| (s.stopped + s.live) as f64 / config.num_walkers as f64)
        .collect();
    Ok(RunReport::new(
        format!(
            "FrogWild ps={} iters={} walkers={}",
            config.sync_probability, config.iterations, config.num_walkers
        ),
        estimate,
        output.metrics,
    ))
}

/// Runs the baseline PageRank on an already partitioned graph under `execution`,
/// recording engine spans into `tracer`.
///
/// The configured [`PageRankConfig::tolerance`] becomes the executor's delta-gating
/// threshold (GraphLab's dynamic scheduling); `staleness > 0` delays activation
/// signals deterministically. The worker-pool knobs and tracing never change the
/// estimate or the counted costs.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when `config` fails validation and
/// [`Error::Graph`] when the graph has no vertices.
pub fn run_graphlab_pr(
    pg: &PartitionedGraph,
    config: &PageRankConfig,
    execution: &ExecutionConfig,
    tracer: &Tracer,
) -> Result<RunReport, Error> {
    require_a_vertex(pg)?;
    let engine_config = EngineConfig {
        sync_probability: 1.0,
        max_supersteps: config.max_iterations,
        seed: config.seed,
        tolerance: config.tolerance,
        workers: if config.parallel {
            execution.workers
        } else {
            1
        },
        staleness: execution.staleness,
        tracer: tracer.clone(),
    };
    let engine = Engine::new(pg, PageRankProgram::new(config)?, engine_config)?;
    let output = engine.run(InitialActivation::AllVertices);

    let label = if config.max_iterations >= 50 {
        "GraphLab PR exact".to_string()
    } else {
        format!("GraphLab PR {} iters", config.max_iterations)
    };
    Ok(RunReport::new(
        label,
        output.states.iter().map(|s| s.rank).collect(),
        output.metrics,
    ))
}

/// The Figure 5 baseline: uniformly sparsify the graph (keep each edge with probability
/// `keep_probability`), then run the truncated PageRank on the sparsified graph over
/// the same cluster. The returned estimate indexes the *original* vertex set, so it can
/// be scored against the original graph's exact PageRank directly.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when the PageRank configuration is invalid or
/// `keep_probability` lies outside `[0, 1]`, and [`Error::Graph`] when the graph has no
/// vertices.
pub fn run_sparsified_pr(
    graph: &DiGraph,
    cluster: &ClusterConfig,
    keep_probability: f64,
    config: &PageRankConfig,
) -> Result<RunReport, Error> {
    if !(0.0..=1.0).contains(&keep_probability) {
        return Err(Error::config(
            "run_sparsified_pr",
            format!("keep_probability must be in [0, 1], got {keep_probability}"),
        ));
    }
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x5710_51F7);
    let sparsified = uniform_sparsify(graph, keep_probability, &mut rng);
    let pg = partition_graph(&sparsified, cluster);
    let mut report = run_graphlab_pr(
        &pg,
        config,
        &ExecutionConfig::default(),
        &Tracer::disabled(),
    )?;
    report.algorithm = format!(
        "Sparsified PR q={} {} iters",
        keep_probability, config.max_iterations
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{exact_identification, mass_captured};
    use crate::reference::exact_pagerank;
    use frogwild_graph::generators::simple::star;
    use frogwild_graph::generators::{rmat, RmatParams};

    fn test_graph(n: usize) -> DiGraph {
        let mut rng = SmallRng::seed_from_u64(1234);
        rmat(n, RmatParams::default(), &mut rng)
    }

    fn small_cluster() -> ClusterConfig {
        ClusterConfig::new(4, 7)
    }

    #[test]
    fn frogwild_estimate_is_a_distribution() {
        let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
        let g = test_graph(300);
        let config = FrogWildConfig {
            num_walkers: 30_000,
            iterations: 4,
            ..FrogWildConfig::default()
        };
        let report =
            run_frogwild(&partition_graph(&g, &small_cluster()), &config, &exec, &off).unwrap();
        let total: f64 = report.estimate.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(report.cost.supersteps, 4);
        assert!(report.cost.network_bytes > 0);
        assert!(report.algorithm.contains("FrogWild"));
    }

    #[test]
    fn frogwild_finds_the_star_hub() {
        let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
        let g = star(500);
        let config = FrogWildConfig {
            num_walkers: 20_000,
            iterations: 4,
            ..FrogWildConfig::default()
        };
        let report =
            run_frogwild(&partition_graph(&g, &small_cluster()), &config, &exec, &off).unwrap();
        assert_eq!(report.top_k(1), vec![0]);
    }

    #[test]
    fn frogwild_accuracy_against_exact_pagerank() {
        let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
        let g = test_graph(500);
        let exact = exact_pagerank(&g, 0.15, 100, 1e-10);
        let config = FrogWildConfig {
            num_walkers: 100_000,
            iterations: 5,
            ..FrogWildConfig::default()
        };
        let report =
            run_frogwild(&partition_graph(&g, &small_cluster()), &config, &exec, &off).unwrap();
        let m = mass_captured(&report.estimate, &exact.scores, 30);
        assert!(m.normalized() > 0.85, "captured {}", m.normalized());
    }

    #[test]
    fn partial_sync_reduces_network_but_keeps_accuracy_reasonable() {
        let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
        let g = test_graph(500);
        let exact = exact_pagerank(&g, 0.15, 100, 1e-10);
        let cluster = ClusterConfig::new(8, 3);
        let pg = partition_graph(&g, &cluster);
        let base = FrogWildConfig {
            num_walkers: 100_000,
            iterations: 4,
            ..FrogWildConfig::default()
        };
        let full = run_frogwild(&pg, &base, &exec, &off).unwrap();
        let partial = run_frogwild(
            &pg,
            &FrogWildConfig {
                sync_probability: 0.2,
                ..base
            },
            &exec,
            &off,
        )
        .unwrap();
        assert!(
            partial.cost.network_bytes < full.cost.network_bytes,
            "partial {} vs full {}",
            partial.cost.network_bytes,
            full.cost.network_bytes
        );
        assert!(partial.cost.skipped_syncs > 0);
        let m = mass_captured(&partial.estimate, &exact.scores, 30);
        assert!(m.normalized() > 0.7, "captured {}", m.normalized());
    }

    #[test]
    fn graphlab_pr_converges_to_exact_pagerank() {
        let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
        let g = test_graph(300);
        let exact = exact_pagerank(&g, 0.15, 200, 1e-12);
        let report = run_graphlab_pr(
            &partition_graph(&g, &small_cluster()),
            &PageRankConfig::exact(),
            &exec,
            &off,
        )
        .unwrap();
        let m = mass_captured(&report.estimate, &exact.scores, 30);
        assert!(m.normalized() > 0.999, "captured {}", m.normalized());
        let ident = exact_identification(&report.estimate, &exact.scores, 30);
        assert!(ident > 0.95, "identified {ident}");
        assert!(report.algorithm.contains("exact"));
    }

    #[test]
    fn pagerank_seed_has_no_effect_at_staleness_zero() {
        let off = Tracer::disabled();
        let pg = partition_graph(&test_graph(300), &small_cluster());
        let run = |seed| {
            let config = PageRankConfig {
                seed,
                ..PageRankConfig::truncated(4)
            };
            run_graphlab_pr(&pg, &config, &ExecutionConfig::new().staleness(0), &off).unwrap()
        };
        let (one, other) = (run(1), run(0x5EED));
        let bits = |r: &RunReport| r.estimate.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&one), bits(&other));
        assert_eq!(one.cost, other.cost);
    }

    #[test]
    fn truncated_pr_is_less_accurate_than_exact() {
        let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
        let g = test_graph(400);
        let exact = exact_pagerank(&g, 0.15, 200, 1e-12);
        let cluster = small_cluster();
        let pg = partition_graph(&g, &cluster);
        let one = run_graphlab_pr(&pg, &PageRankConfig::truncated(1), &exec, &off).unwrap();
        let two = run_graphlab_pr(&pg, &PageRankConfig::truncated(2), &exec, &off).unwrap();
        let m1 = mass_captured(&one.estimate, &exact.scores, 30).normalized();
        let m2 = mass_captured(&two.estimate, &exact.scores, 30).normalized();
        assert!(
            m2 >= m1 - 0.02,
            "2 iters ({m2}) should not be worse than 1 iter ({m1})"
        );
        assert!(m1 < 0.999, "1 iteration should not be exact");
        assert_eq!(one.cost.supersteps, 1);
        assert_eq!(two.cost.supersteps, 2);
    }

    #[test]
    fn frogwild_uses_less_network_than_exact_pr() {
        let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
        let g = test_graph(600);
        let cluster = ClusterConfig::new(8, 5);
        let pg = partition_graph(&g, &cluster);
        let fw = run_frogwild(
            &pg,
            &FrogWildConfig {
                num_walkers: 50_000,
                iterations: 4,
                sync_probability: 0.4,
                ..FrogWildConfig::default()
            },
            &exec,
            &off,
        )
        .unwrap();
        let pr = run_graphlab_pr(
            &pg,
            &PageRankConfig {
                max_iterations: 20,
                tolerance: 1e-9,
                ..PageRankConfig::default()
            },
            &exec,
            &off,
        )
        .unwrap();
        assert!(
            fw.cost.network_bytes < pr.cost.network_bytes,
            "FrogWild {} bytes vs PR {} bytes",
            fw.cost.network_bytes,
            pr.cost.network_bytes
        );
        assert!(
            fw.cost.simulated_seconds < pr.cost.simulated_seconds,
            "FrogWild {}s vs PR {}s",
            fw.cost.simulated_seconds,
            pr.cost.simulated_seconds
        );
    }

    #[test]
    fn sparsified_pr_runs_and_scores_against_original_graph() {
        let g = test_graph(400);
        let exact = exact_pagerank(&g, 0.15, 200, 1e-12);
        let report =
            run_sparsified_pr(&g, &small_cluster(), 0.7, &PageRankConfig::truncated(2)).unwrap();
        assert_eq!(report.estimate.len(), g.num_vertices());
        let m = mass_captured(&report.estimate, &exact.scores, 30);
        assert!(m.normalized() > 0.5, "captured {}", m.normalized());
        assert!(report.algorithm.contains("Sparsified"));
    }

    #[test]
    fn zero_vertex_graphs_are_a_typed_error_never_a_panic() {
        let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
        let empty = DiGraph::empty(0);
        let pg = partition_graph(&empty, &small_cluster());
        let fw = run_frogwild(&pg, &FrogWildConfig::default(), &exec, &off);
        assert!(matches!(fw, Err(Error::Graph { .. })), "{fw:?}");
        let pr = run_graphlab_pr(&pg, &PageRankConfig::truncated(2), &exec, &off);
        assert!(matches!(pr, Err(Error::Graph { .. })), "{pr:?}");
        let sparse =
            run_sparsified_pr(&empty, &small_cluster(), 0.5, &PageRankConfig::truncated(2));
        assert!(matches!(sparse, Err(Error::Graph { .. })), "{sparse:?}");
    }

    #[test]
    fn binomial_scatter_variant_also_works() {
        let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
        let g = test_graph(300);
        let exact = exact_pagerank(&g, 0.15, 100, 1e-10);
        let config = FrogWildConfig {
            num_walkers: 60_000,
            iterations: 4,
            binomial_scatter: true,
            sync_probability: 0.7,
            ..FrogWildConfig::default()
        };
        let report =
            run_frogwild(&partition_graph(&g, &small_cluster()), &config, &exec, &off).unwrap();
        let m = mass_captured(&report.estimate, &exact.scores, 30);
        assert!(m.normalized() > 0.75, "captured {}", m.normalized());
    }

    #[test]
    fn parallel_execution_matches_serial() {
        let off = Tracer::disabled();
        let g = test_graph(300);
        let cluster = small_cluster();
        let pg = partition_graph(&g, &cluster);
        let config = FrogWildConfig {
            num_walkers: 20_000,
            iterations: 3,
            sync_probability: 0.4,
            ..FrogWildConfig::default()
        };
        let serial = run_frogwild(&pg, &config, &ExecutionConfig::default(), &off).unwrap();
        for workers in [1, 0, 3] {
            let execution = ExecutionConfig::new().workers(workers);
            let parallel = run_frogwild(&pg, &config, &execution, &off).unwrap();
            assert_eq!(serial.estimate, parallel.estimate, "{execution:?}");
            assert_eq!(serial.cost.network_bytes, parallel.cost.network_bytes);
        }
    }

    #[test]
    fn scheduling_knobs_never_change_results() {
        let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
        let g = test_graph(300);
        let pg = partition_graph(&g, &small_cluster());
        let base = FrogWildConfig {
            num_walkers: 20_000,
            iterations: 3,
            sync_probability: 0.7,
            ..FrogWildConfig::default()
        };
        let reference = run_frogwild(&pg, &base, &exec, &off).unwrap();
        for execution in [
            ExecutionConfig::new().workers(2),
            ExecutionConfig::new().workers(3),
            ExecutionConfig::new().workers(7),
        ] {
            let run = run_frogwild(&pg, &base, &execution, &off).unwrap();
            assert!(
                reference
                    .estimate
                    .iter()
                    .zip(&run.estimate)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{execution:?}"
            );
            assert_eq!(reference.cost, run.cost, "{execution:?}");
            // Synchronous execution reports no staleness at all.
            assert_eq!(run.cost.staleness_lag, 0);
            assert_eq!(run.cost.max_inbox_depth, 0);
            assert_eq!(run.cost.barrier_wait_avoided_seconds, 0.0);
        }
    }

    #[test]
    fn stale_frogwild_keeps_a_distribution_and_reports_staleness_metrics() {
        let off = Tracer::disabled();
        let g = test_graph(400);
        let pg = partition_graph(&g, &ClusterConfig::new(8, 3));
        let config = FrogWildConfig {
            num_walkers: 30_000,
            iterations: 5,
            sync_probability: 0.7,
            ..FrogWildConfig::default()
        };
        let exec = ExecutionConfig::new().staleness(2);
        let stale = run_frogwild(&pg, &config, &exec, &off).unwrap();
        let total: f64 = stale.estimate.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "walkers lost: sum {total}");
        assert!(stale.cost.staleness_lag > 0);
        assert!(stale.cost.barrier_wait_avoided_seconds > 0.0);
        // Deterministic: the same configuration reproduces itself bit-for-bit.
        let again = run_frogwild(&pg, &config, &exec, &off).unwrap();
        assert!(stale
            .estimate
            .iter()
            .zip(&again.estimate)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(stale.cost.staleness_lag, again.cost.staleness_lag);
    }

    #[test]
    fn frogwild_tolerance_gates_scatter_work() {
        let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
        let g = test_graph(500);
        let pg = partition_graph(&g, &ClusterConfig::new(8, 3));
        let base = FrogWildConfig {
            num_walkers: 5_000,
            iterations: 6,
            ..FrogWildConfig::default()
        };
        let ungated = run_frogwild(&pg, &base, &exec, &off).unwrap();
        let gated = run_frogwild(
            &pg,
            &FrogWildConfig {
                tolerance: 2.0,
                ..base
            },
            &exec,
            &off,
        )
        .unwrap();
        assert!(
            gated.cost.skipped_scatters > ungated.cost.skipped_scatters,
            "gated {} vs ungated {}",
            gated.cost.skipped_scatters,
            ungated.cost.skipped_scatters
        );
        assert!(gated.cost.routed_messages < ungated.cost.routed_messages);
        // The estimator still counts parked walkers, so the estimate remains a
        // distribution.
        let total: f64 = gated.estimate.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
