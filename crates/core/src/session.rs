//! The `Session` query service — the primary public API of the crate.
//!
//! Serving-oriented PageRank systems (FAST-PPR, PowerWalk) treat rank estimation as a
//! *query service* over precomputed state: partition the graph once, then answer many
//! cheap queries against the warmed layout. A [`Session`] is exactly that shape for the
//! FrogWild engine:
//!
//! 1. build it once from a graph via [`Session::builder`] — partitioning (the expensive,
//!    `O(|E|)` ingress step) happens a single time at [`SessionBuilder::build`];
//! 2. issue any number of [`Query`] values through [`Session::query`]; every query
//!    reuses the vertex-cut, so its [`QueryCost`] holds no partitioning cost at all,
//!    only the session's (reused) replication factor;
//! 3. read the cumulative, amortized economics of the stream from
//!    [`Session::stats`].
//!
//! A session can additionally precompute a [walk index](crate::walkindex) via
//! [`SessionBuilder::walk_index`]: [`Query::Ppr`] and [`Query::TopK`] are then served
//! by stitching cached walk segments instead of fresh Monte-Carlo sampling, with the
//! segment hit/miss economics reported per query in [`QueryCost`] and cumulatively in
//! [`SessionStats`].
//!
//! All validation happens at `build()` / `query()` time and surfaces as a typed
//! [`Error`] — no panics on configuration paths.
//!
//! ```
//! use frogwild::session::{Query, Session};
//! use frogwild::FrogWildConfig;
//! use frogwild_engine::PartitionerKind;
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let graph = frogwild_graph::generators::livejournal_like(2_000, &mut rng);
//!
//! let mut session = Session::builder(&graph)
//!     .machines(8)
//!     .partitioner(PartitionerKind::Oblivious)
//!     .seed(42)
//!     .build()?;
//!
//! let config = FrogWildConfig {
//!     num_walkers: 20_000,
//!     iterations: 4,
//!     sync_probability: 0.7,
//!     ..FrogWildConfig::default()
//! };
//! let response = session.query(&Query::TopK { k: 20, config })?;
//! assert_eq!(response.ranking.len(), 20);
//! // The layout was reused, not rebuilt: partitioning is the session's cost.
//! assert_eq!(response.cost.replication_factor, session.replication_factor());
//! # Ok::<(), frogwild::Error>(())
//! ```

use std::time::Instant;

use frogwild_engine::{ClusterConfig, PartitionedGraph, PartitionerKind, QueryCost};
use frogwild_graph::{DiGraph, VertexId};
use frogwild_obs::{span_meta, SpanKey, TraceConfig, Tracer};

use crate::autotune::{auto_topk_on, AutoTuneConfig};
use crate::config::{
    in_open_unit_interval, ExecutionConfig, FrogWildConfig, PageRankConfig, TELEPORT,
};
use crate::driver::{run_frogwild, run_graphlab_pr, RunReport};
use crate::error::{Error, Result};
use crate::ppr::{
    forward_push_ppr, monte_carlo_ppr_counted, personalized_pagerank, single_source_restart,
};
use crate::serve::{LatencyStats, QueryKind, ServeConfig, ServeHandle, ServeReport};
use crate::walkindex::{
    build_walk_index_traced, indexed_pagerank, indexed_ppr, IndexServeStats, WalkIndex,
    WalkIndexBuildReport, WalkIndexConfig,
};

/// [`SpanKey::lane`] of the per-query index-serving span. Engine spans use lanes
/// 0–6 within their own `(superstep, machine, batch)` keyspace; the serve layer
/// keys by query sequence id and uses lanes from 8 up so the two instrumented
/// layers never hand the same key to two different sinks.
const LANE_INDEX: u16 = 8;

/// Builder for a [`Session`]. Obtain one via [`Session::builder`].
///
/// Defaults: 16 machines (the cluster size of the paper's accuracy figures), the
/// oblivious (PowerGraph-default) partitioner, a fixed seed, and no walk index.
#[derive(Clone, Copy, Debug)]
pub struct SessionBuilder<'g> {
    graph: &'g DiGraph,
    machines: usize,
    partitioner: PartitionerKind,
    seed: u64,
    execution: ExecutionConfig,
    walk_index: Option<WalkIndexConfig>,
    tracing: TraceConfig,
}

impl<'g> SessionBuilder<'g> {
    /// Number of simulated machines the session's cluster uses.
    pub fn machines(mut self, machines: usize) -> Self {
        self.machines = machines;
        self
    }

    /// Vertex-cut ingress strategy used for the one-time partitioning.
    pub fn partitioner(mut self, partitioner: PartitionerKind) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// Seed for partitioning (query-level randomness is seeded per query config).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The [`ExecutionConfig`] every engine-served query runs under: the worker pool
    /// and the bounded-staleness window. Every value is accepted — there is nothing
    /// in it for [`build`](SessionBuilder::build) to reject. The default runs every
    /// engine query on the calling thread.
    ///
    /// `workers` sizes the pool of every engine-served query (top-k, PageRank,
    /// autotuned top-k) and decides only how work batches are spread over host
    /// threads — results are bit-identical for every setting. `staleness` changes the
    /// executor's message-visibility schedule (still deterministically — see
    /// [`ExecutionConfig`]); `staleness == 0` is the synchronous executor.
    pub fn execution(mut self, execution: ExecutionConfig) -> Self {
        self.execution = execution;
        self
    }

    /// Precompute a [`WalkIndex`] at [`build`](SessionBuilder::build) time and serve
    /// [`Query::Ppr`] and [`Query::TopK`] from it.
    ///
    /// The build cost (segment generation, split across the simulated machines) is
    /// paid once and reported as [`SessionStats::index_build_seconds`]; every
    /// index-served query then replaces fresh per-hop Monte-Carlo sampling with O(1)
    /// cached-segment stitching, and its [`QueryCost`] reports the segment hit/miss
    /// economics. A [`PprMethod::ForwardPush`] query keeps its own `epsilon` as the
    /// localization threshold (the index only adds walks for the residual mass).
    /// [`Query::Pagerank`] (the GraphLab baseline) and
    /// [`PprMethod::PowerIteration`] (the exact reference) always bypass the index.
    pub fn walk_index(mut self, config: WalkIndexConfig) -> Self {
        self.walk_index = Some(config);
        self
    }

    /// Structured tracing for everything the session runs: the engine superstep
    /// loop, walk-index build and serving, and the concurrent front-end all record
    /// spans into one [`Tracer`] (read it back via [`Session::tracer`], export via
    /// [`crate::obs::Timeline`]). The default is [`TraceConfig::disabled`], which
    /// allocates no buffers and reads no clock. Tracing never changes query
    /// results — responses are bit-identical with tracing on or off.
    pub fn tracing(mut self, tracing: TraceConfig) -> Self {
        self.tracing = tracing;
        self
    }

    /// Validates the builder and partitions the graph — the one expensive step of the
    /// session's lifetime. Every subsequent [`Session::query`] reuses the layout.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidConfig`] when `machines` is zero or exceeds the `u16` machine
    ///   id space;
    /// * [`Error::Graph`] when the graph has no vertices.
    pub fn build(self) -> Result<Session<'g>> {
        if self.machines == 0 {
            return Err(Error::config(
                "SessionBuilder",
                "machines must be at least 1",
            ));
        }
        if self.machines > u16::MAX as usize {
            return Err(Error::config(
                "SessionBuilder",
                format!(
                    "at most {} machines supported, got {}",
                    u16::MAX,
                    self.machines
                ),
            ));
        }
        if self.graph.num_vertices() == 0 {
            return Err(Error::graph("cannot build a session over an empty graph"));
        }
        let cluster = ClusterConfig::new(self.machines, self.seed);
        let tracer = Tracer::new(self.tracing);
        let started = Instant::now(); // lint:allow(timing, host-seconds telemetry only; excluded from determinism)
        let pg = PartitionedGraph::build(self.graph, self.machines, self.partitioner, self.seed);
        let partition_seconds = started.elapsed().as_secs_f64();
        let replication_factor = pg.placement().replication_factor();
        let index = match self.walk_index {
            Some(config) => {
                let (index, report) = build_walk_index_traced(self.graph, &pg, &config, &tracer)?;
                Some(SessionIndex {
                    index,
                    report,
                    config,
                })
            }
            None => None,
        };
        let index_build_seconds = index.as_ref().map_or(0.0, |si| si.report.build_seconds);
        Ok(Session {
            graph: self.graph,
            pg,
            cluster,
            partitioner: self.partitioner,
            execution: self.execution,
            index,
            tracer,
            stats: SessionStats {
                queries_served: 0,
                queries_rejected: 0,
                partition_seconds,
                index_build_seconds,
                index_served_queries: 0,
                totals: QueryCost {
                    replication_factor,
                    ..QueryCost::default()
                },
                total_wall_seconds: 0.0,
                latency: LatencyStats::default(),
            },
        })
    }
}

/// How a [`Query::Ppr`] is evaluated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PprMethod {
    /// Andersen–Chung–Lang forward push down to the given per-vertex residual
    /// threshold. Touches only the source's neighbourhood — the cheap serving path.
    ForwardPush {
        /// Per-vertex residual threshold (`ε > 0`); smaller is more accurate.
        epsilon: f64,
    },
    /// Dense power iteration on the personalized chain — the exact reference.
    PowerIteration {
        /// Maximum number of iterations.
        max_iterations: usize,
        /// L1 convergence tolerance.
        tolerance: f64,
    },
    /// Fresh Monte-Carlo walks from the source (geometric lifespans, endpoints
    /// counted) — the estimator a [walk index](crate::walkindex) amortizes. Serving
    /// this method from a session *with* an index replaces the per-hop sampling with
    /// cached-segment stitching.
    MonteCarlo {
        /// Number of walks released from the source.
        walkers: u64,
        /// Truncation of each walk's geometric lifespan.
        max_steps: usize,
        /// Seed for the walk randomness (mixed with the source vertex).
        seed: u64,
    },
}

/// A request against a [`Session`].
///
/// Each variant carries its own configuration, so one session can serve a
/// heterogeneous stream (different walker budgets, different `p_s`, different sources)
/// without rebuilding anything.
///
/// The enum is `#[non_exhaustive]`: future query kinds (e.g. a FAST-PPR-style pair
/// query) can be added without a breaking release, so downstream `match`es need a
/// wildcard arm. [`Query::top_k`] and [`Query::ppr`] build the two common queries
/// under their default configurations; every variant is a public struct literal.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// Estimate the global top-`k` PageRank vertices with FrogWild random walkers.
    TopK {
        /// How many vertices to rank.
        k: usize,
        /// The FrogWild run configuration (walkers, iterations, `p_s`, seed).
        config: FrogWildConfig,
    },
    /// Run the GraphLab-style PageRank baseline and report its top-`k`.
    Pagerank {
        /// How many vertices to rank.
        k: usize,
        /// The baseline PageRank configuration.
        config: PageRankConfig,
    },
    /// Personalized PageRank from a single source vertex, ranked top-`k`.
    Ppr {
        /// The source vertex the walk restarts from.
        source: VertexId,
        /// How many vertices to rank.
        k: usize,
        /// Teleportation probability of the personalized chain (`0 < p_T < 1`).
        teleport_probability: f64,
        /// Evaluation method.
        method: PprMethod,
    },
    /// Self-tuning top-k: pilot run → Theorem-1 walker plan → planned run.
    AutotunedTopK {
        /// The pilot/plan configuration (contains its own `k`).
        config: AutoTuneConfig,
    },
}

impl Query {
    /// A [`Query::TopK`] under the default [`FrogWildConfig`] — the paper's
    /// estimator with its default walker budget, iterations and `p_s`.
    pub fn top_k(k: usize) -> Self {
        Query::TopK {
            k,
            config: FrogWildConfig::default(),
        }
    }

    /// A [`Query::Ppr`] from `source`: top-20 under the conventional [`TELEPORT`]
    /// probability, evaluated with forward push at `ε = 1e-6` (the cheap serving
    /// path). Spell out the variant for a different `k`, teleport or method.
    pub fn ppr(source: VertexId) -> Self {
        Query::Ppr {
            source,
            k: 20,
            teleport_probability: TELEPORT,
            method: PprMethod::ForwardPush { epsilon: 1e-6 },
        }
    }

    /// The `k` this query ranks.
    pub fn k(&self) -> usize {
        match self {
            Query::TopK { k, .. } | Query::Pagerank { k, .. } | Query::Ppr { k, .. } => *k,
            Query::AutotunedTopK { config } => config.k,
        }
    }

    /// The [`QueryKind`] keying this query's latency telemetry.
    pub fn kind(&self) -> QueryKind {
        match self {
            Query::TopK { .. } => QueryKind::TopK,
            Query::Pagerank { .. } => QueryKind::Pagerank,
            Query::Ppr { .. } => QueryKind::Ppr,
            Query::AutotunedTopK { .. } => QueryKind::AutotunedTopK,
        }
    }
}

/// Variant-specific details of a [`Response`].
#[derive(Clone, Debug, PartialEq)]
pub enum ResponseDetail {
    /// A [`Query::TopK`] answer.
    TopK,
    /// A [`Query::Pagerank`] answer.
    Pagerank,
    /// A [`Query::Ppr`] answer.
    Ppr {
        /// Power iterations performed — `0` for forward push (whose push operations
        /// are the response's `cost.push_ops`).
        iterations: usize,
        /// Residual mass (push) or final L1 residual (power iteration).
        residual: f64,
    },
    /// A [`Query::AutotunedTopK`] answer.
    AutotunedTopK {
        /// Top-k mass the pilot estimated.
        estimated_topk_mass: f64,
        /// Walker budget the plan settled on.
        planned_walkers: u64,
        /// Iteration count the plan settled on.
        planned_iterations: usize,
        /// Network bytes the pilot itself cost (included in the response cost).
        pilot_network_bytes: u64,
    },
}

/// Answer to a [`Query`].
///
/// Equality between two responses means the *deterministic* content matches: the
/// ranking, the full estimate, the algorithm label, the detail, and every simulated
/// cost field (host wall-clock time is excluded — see [`QueryCost`]). Two queries with
/// identical configuration (including seeds) on sessions with identical layouts
/// produce equal responses.
///
/// The struct is `#[non_exhaustive]`: construct it only through [`Session::query`] /
/// [`Session::serve`], and destructure with a `..` rest pattern, so future response
/// fields are non-breaking.
// lint:allow(non-exhaustive-ctor, output-only type; Session::query is its constructor)
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Human-readable algorithm label, e.g. `"FrogWild ps=0.7 iters=4 walkers=100000"`.
    pub algorithm: String,
    /// The top-`k` vertices, best first, paired with their estimated scores.
    pub ranking: Vec<(VertexId, f64)>,
    /// The full per-vertex estimate the ranking was drawn from.
    pub estimate: Vec<f64>,
    /// Cost of answering this query.
    pub cost: QueryCost,
    /// Variant-specific details.
    pub detail: ResponseDetail,
}

impl Response {
    /// The ranked vertices without their scores.
    pub fn top_vertices(&self) -> Vec<VertexId> {
        self.ranking.iter().map(|&(v, _)| v).collect()
    }

    /// The [`QueryKind`] of the query this response answered (derived from the
    /// detail variant, which maps one-to-one onto the query variants).
    pub fn kind(&self) -> QueryKind {
        match self.detail {
            ResponseDetail::TopK => QueryKind::TopK,
            ResponseDetail::Pagerank => QueryKind::Pagerank,
            ResponseDetail::Ppr { .. } => QueryKind::Ppr,
            ResponseDetail::AutotunedTopK { .. } => QueryKind::AutotunedTopK,
        }
    }
}

/// Cumulative cost of everything a [`Session`] has served.
///
/// `partition_seconds` was paid exactly once, at [`SessionBuilder::build`];
/// [`SessionStats::amortized_partition_seconds`] spreads it over the queries served so
/// far — the number that shrinks as the session earns its keep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionStats {
    /// Queries answered so far.
    pub queries_served: u64,
    /// Queries the serving front-end's admission control turned away (always zero
    /// for direct [`Session::query`] calls — only [`Session::serve`] streams can
    /// reject).
    pub queries_rejected: u64,
    /// Host seconds the one-time partitioning took.
    pub partition_seconds: f64,
    /// Host seconds the one-time walk-index build took (zero without an index).
    pub index_build_seconds: f64,
    /// Queries the walk index answered.
    pub index_served_queries: u64,
    /// Everything the served queries cost, summed with [`QueryCost::absorb`] in the
    /// order they were recorded; `totals.replication_factor` is the session's
    /// vertex-cut. `totals.host_seconds` is summed **per query** (it excludes
    /// partitioning): when queries complete concurrently it exceeds the real elapsed
    /// time — that is service time, not wall time; see
    /// [`total_wall_seconds`](SessionStats::total_wall_seconds).
    pub totals: QueryCost,
    /// Real elapsed wall-clock seconds spent inside [`Session::query`] and
    /// [`Session::serve`] streams. For serial queries this tracks
    /// `totals.host_seconds`; for concurrent streams it is the stream's elapsed
    /// time, so `totals.host_seconds / total_wall_seconds` is the pool's effective
    /// concurrency.
    pub total_wall_seconds: f64,
    /// Per-query-kind latency histograms (service time) with p50/p95/p99, fed by
    /// every served query — serial or pooled.
    pub latency: LatencyStats,
}

impl SessionStats {
    /// The one-time partitioning cost spread over the queries served so far.
    pub fn amortized_partition_seconds(&self) -> f64 {
        if self.queries_served == 0 {
            self.partition_seconds
        } else {
            self.partition_seconds / self.queries_served as f64
        }
    }

    /// The one-time walk-index build cost spread over the queries the index served —
    /// the number that shrinks as the index earns its keep.
    pub fn amortized_index_build_seconds(&self) -> f64 {
        if self.index_served_queries == 0 {
            self.index_build_seconds
        } else {
            self.index_build_seconds / self.index_served_queries as f64
        }
    }

    /// Ratio of summed per-query service time to real elapsed serving time: ≈1 for
    /// a serial session, approaches the worker count for a saturated serving pool,
    /// and 0 before anything was served.
    pub fn effective_concurrency(&self) -> f64 {
        if self.total_wall_seconds > 0.0 {
            self.totals.host_seconds / self.total_wall_seconds
        } else {
            0.0
        }
    }

    /// Fraction of all segment requests served from the index (1.0 when no segment
    /// was ever requested).
    pub fn index_hit_rate(&self) -> f64 {
        let total = self.totals.index_hits + self.totals.index_misses;
        if total == 0 {
            1.0
        } else {
            self.totals.index_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for SessionStats {
    /// A compact human-readable audit of the session's amortized economics, including
    /// the executor's frontier counters (active vertices, skipped mirror syncs,
    /// delta-skipped scatters, routed messages).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = &self.totals;
        writeln!(
            f,
            "session: {} queries served ({} index-served), {} rejected by admission control",
            self.queries_served, self.index_served_queries, self.queries_rejected
        )?;
        writeln!(
            f,
            "  layout: replication factor {:.3}, partitioned once in {:.3}s \
             ({:.4}s amortized per query)",
            t.replication_factor,
            self.partition_seconds,
            self.amortized_partition_seconds()
        )?;
        if self.index_build_seconds > 0.0 {
            writeln!(
                f,
                "  index: built in {:.3}s, hit rate {:.1}%, {} hits / {} misses",
                self.index_build_seconds,
                self.index_hit_rate() * 100.0,
                t.index_hits,
                t.index_misses
            )?;
        }
        writeln!(
            f,
            "  engine: {} active vertices over all supersteps, \
             {} mirror syncs skipped by partial sync, \
             {} scatters skipped by the delta gate, {} messages routed",
            t.active_vertices, t.skipped_syncs, t.skipped_scatters, t.routed_messages
        )?;
        if t.staleness_lag > 0 || t.barrier_wait_avoided_seconds > 0.0 {
            writeln!(
                f,
                "  async: {} staleness lag, max inbox depth {}, \
                 {:.4}s barrier wait avoided",
                t.staleness_lag, t.max_inbox_depth, t.barrier_wait_avoided_seconds
            )?;
        }
        writeln!(
            f,
            "  totals: {} network bytes, {:.4}s simulated, {:.4}s simulated CPU, \
             {:.4}s host, {} push ops, {} walk hops",
            t.network_bytes,
            t.simulated_seconds,
            t.simulated_cpu_seconds,
            t.host_seconds,
            t.push_ops,
            t.walk_hops
        )?;
        writeln!(
            f,
            "  serving: {:.4}s wall, effective concurrency {:.2}",
            self.total_wall_seconds,
            self.effective_concurrency()
        )?;
        if self.latency.count() > 0 {
            let indented = self
                .latency
                .to_string()
                .lines()
                .map(|line| format!("    {line}"))
                .collect::<Vec<_>>()
                .join("\n");
            write!(f, "  latency (service time):\n{indented}")
        } else {
            write!(f, "  latency (service time): nothing served yet")
        }
    }
}

/// The walk index a session optionally carries: arena, build report, serving knobs.
#[derive(Debug)]
struct SessionIndex {
    index: WalkIndex,
    report: WalkIndexBuildReport,
    config: WalkIndexConfig,
}

/// A persistent, queryable PageRank service over one partitioned graph.
///
/// See the [module documentation](self) for the full story. Construct via
/// [`Session::builder`]; serve via [`Session::query`]; audit via [`Session::stats`].
#[derive(Debug)]
pub struct Session<'g> {
    graph: &'g DiGraph,
    pg: PartitionedGraph,
    cluster: ClusterConfig,
    partitioner: PartitionerKind,
    execution: ExecutionConfig,
    index: Option<SessionIndex>,
    tracer: Tracer,
    stats: SessionStats,
}

impl<'g> Session<'g> {
    /// Starts building a session over `graph`.
    pub fn builder(graph: &'g DiGraph) -> SessionBuilder<'g> {
        SessionBuilder {
            graph,
            machines: 16,
            partitioner: PartitionerKind::default(),
            seed: 0x5EED_F20C,
            execution: ExecutionConfig::default(),
            walk_index: None,
            tracing: TraceConfig::disabled(),
        }
    }

    /// Answers one query against the session's partitioned layout.
    ///
    /// The layout is never rebuilt (`execute_at` only borrows it), so the returned
    /// [`QueryCost`] holds no partitioning cost; cumulative [`stats`](Session::stats)
    /// are updated.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidConfig`] when the query's configuration fails validation;
    /// * [`Error::Query`] when the query itself is malformed (zero `k`, source vertex
    ///   out of range).
    pub fn query(&mut self, query: &Query) -> Result<Response> {
        let response = self.execute_at(self.stats.queries_served, query)?;
        self.record_response(&response);
        // A serial query occupies the caller for exactly its service time, so wall
        // time and summed host time advance together on this path.
        self.stats.total_wall_seconds += response.cost.host_seconds;
        Ok(response)
    }

    /// Hands out the concurrent serving front-end under [`ServeConfig::default`];
    /// [`Session::serve_with`] takes an explicit one.
    ///
    /// The returned [`ServeHandle`] shares the session's read-only state — graph,
    /// partitioned layout, walk-index arena — across a fixed worker pool behind a
    /// bounded, admission-controlled submission queue. Served streams fold into the
    /// same cumulative [`SessionStats`] as serial queries.
    pub fn serve(&mut self) -> ServeHandle<'_, 'g> {
        ServeHandle::new(self, ServeConfig::default())
    }

    /// Like [`Session::serve`], but under an explicit [`ServeConfig`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the config fails [`ServeConfig::validate`].
    pub fn serve_with(&mut self, config: ServeConfig) -> Result<ServeHandle<'_, 'g>> {
        config.validate()?;
        Ok(ServeHandle::new(self, config))
    }

    /// Answers one query against the session's read-only state without touching the
    /// cumulative stats — the `&self` serving core that both [`Session::query`] and
    /// the concurrent front-end's workers run on (every field it reads is immutable
    /// after `build()`, which is what makes the session shareable across a pool).
    ///
    /// `seq` is the query's sequence id, used only to key this query's trace spans
    /// deterministically — it never influences the answer.
    pub(crate) fn execute_at(&self, seq: u64, query: &Query) -> Result<Response> {
        if query.k() == 0 {
            return Err(Error::query("k must be positive"));
        }
        // Every record this query makes carries `seq`, so concurrent queries' engine
        // spans, keyed alike, still merge in one order.
        let tracer = self.tracer.for_query(seq);
        let started = Instant::now(); // lint:allow(timing, host-seconds telemetry only; excluded from determinism)
        let response = match query {
            Query::TopK { k, config } => match &self.index {
                Some(si) => {
                    let sink = tracer.sink();
                    let mut index_span = sink.span(
                        span_meta!("index_topk"),
                        SpanKey::new(seq, 0, 0, LANE_INDEX),
                    );
                    let served = indexed_pagerank(self.graph, &si.index, config)?;
                    let cost = self.indexed_cost(&mut index_span, &served.stats);
                    drop(index_span);
                    let algorithm = format!(
                        "FrogWild walk-index iters={} walkers={}",
                        config.iterations, config.num_walkers
                    );
                    let detail = ResponseDetail::TopK;
                    assemble_response(algorithm, served.estimate, *k, cost, detail, started)
                }
                None => {
                    let report = run_frogwild(&self.pg, config, &self.execution, &tracer)?;
                    engine_response(report, *k, ResponseDetail::TopK, started)
                }
            },
            Query::Pagerank { k, config } => {
                let report = run_graphlab_pr(&self.pg, config, &self.execution, &tracer)?;
                engine_response(report, *k, ResponseDetail::Pagerank, started)
            }
            Query::Ppr {
                source,
                k,
                teleport_probability,
                method,
            } => self.ppr_response(seq, *source, *k, *teleport_probability, *method, started)?,
            Query::AutotunedTopK { config } => {
                let report = auto_topk_on(&self.pg, config, &self.execution, &tracer)?;
                let detail = ResponseDetail::AutotunedTopK {
                    estimated_topk_mass: report.estimated_topk_mass,
                    planned_walkers: report.planned_walkers,
                    planned_iterations: report.planned_iterations,
                    pilot_network_bytes: report.pilot.cost.network_bytes,
                };
                // The response carries the final run's estimate, but the pilot's
                // traffic is real cost of answering this query — fold it in.
                let mut run = report.run;
                run.cost.absorb(&report.pilot.cost);
                engine_response(run, config.k, detail, started)
            }
        };
        Ok(response)
    }

    /// Folds one served response into the cumulative stats.
    pub(crate) fn record_response(&mut self, response: &Response) {
        let cost = &response.cost;
        let s = &mut self.stats;
        s.queries_served = s.queries_served.saturating_add(1);
        s.totals.absorb(cost);
        s.latency.record(response.kind(), cost.host_seconds);
        if cost.index_served {
            s.index_served_queries = s.index_served_queries.saturating_add(1);
        }
    }

    /// Folds a served stream's report into the cumulative stats: every served
    /// response individually, the rejection count, and the stream's *elapsed* wall
    /// time (which under concurrency is less than the summed per-query host time —
    /// the two are tracked separately on purpose).
    pub(crate) fn absorb_serve(&mut self, report: &ServeReport) {
        for response in report.responses() {
            self.record_response(response);
        }
        self.stats.queries_rejected = self.stats.queries_rejected.saturating_add(report.rejected);
        self.stats.total_wall_seconds += report.wall_seconds;
    }

    /// The cost of one index-served query, and the counters of its trace span read
    /// back from that cost (the frontier and stitched walks are the span's alone).
    fn indexed_cost(
        &self,
        span: &mut frogwild_obs::SpanGuard<'_>,
        stats: &IndexServeStats,
    ) -> QueryCost {
        let cost = QueryCost {
            replication_factor: self.replication_factor(),
            push_ops: stats.pushes as u64,
            walk_hops: stats.walk_hops,
            index_hits: stats.segment_hits,
            index_misses: stats.segment_misses,
            index_served: true,
            ..QueryCost::default()
        };
        span.counter("pushes", cost.push_ops);
        span.counter("frontier", stats.frontier_vertices);
        span.counter("stitched_walks", stats.stitched_walks);
        span.counter("segment_hits", cost.index_hits);
        span.counter("segment_misses", cost.index_misses);
        // Every miss resamples exactly one fresh hop.
        span.counter("resamples", cost.index_misses);
        span.counter("walk_hops", cost.walk_hops);
        cost
    }

    fn ppr_response(
        &self,
        seq: u64,
        source: VertexId,
        k: usize,
        teleport_probability: f64,
        method: PprMethod,
        started: Instant,
    ) -> Result<Response> {
        // Monte-Carlo-shaped methods are served from the walk index when the session
        // has one; the exact power-iteration reference always runs as asked. A
        // ForwardPush query keeps its own epsilon for the localization phase (the
        // index only adds stitched walks for the residual the push would have left
        // unattributed), so its accuracy guarantee tightens rather than changes. The
        // query is validated before the paths part, so a malformed one is rejected
        // identically with or without an index.
        validate_ppr(self.graph, source, teleport_probability, &method)?;
        let sink = self.tracer.for_query(seq).sink();
        if let (Some(si), false) = (
            &self.index,
            matches!(method, PprMethod::PowerIteration { .. }),
        ) {
            let config = match method {
                PprMethod::ForwardPush { epsilon } => WalkIndexConfig {
                    frontier_epsilon: epsilon,
                    ..si.config
                },
                _ => si.config,
            };
            let mut index_span =
                sink.span(span_meta!("index_ppr"), SpanKey::new(seq, 0, 0, LANE_INDEX));
            let served = indexed_ppr(self.graph, &si.index, &config, source, teleport_probability)?;
            let cost = self.indexed_cost(&mut index_span, &served.stats);
            drop(index_span);
            let detail = ResponseDetail::Ppr {
                iterations: 0,
                residual: served.stats.residual_mass,
            };
            let algorithm = format!(
                "PPR walk-index src={source} eps={} walks/residual={}",
                config.frontier_epsilon, config.walks_per_unit_residual
            );
            let response = assemble_response(algorithm, served.estimate, k, cost, detail, started);
            return Ok(response);
        }
        let mut span = sink.span(span_meta!("ppr"), SpanKey::new(seq, 0, 0, LANE_INDEX));
        let response = ppr_response_over(
            self.graph,
            source,
            k,
            teleport_probability,
            method,
            self.replication_factor(),
            started,
        );
        span.counter("pushes", response.cost.push_ops);
        span.counter("walk_hops", response.cost.walk_hops);
        Ok(response)
    }

    /// The walk index the session serves from, when one was built.
    pub fn walk_index(&self) -> Option<&WalkIndex> {
        self.index.as_ref().map(|si| &si.index)
    }

    /// The build report of the session's walk index, when one was built.
    pub fn walk_index_report(&self) -> Option<&WalkIndexBuildReport> {
        self.index.as_ref().map(|si| &si.report)
    }

    /// The graph this session serves.
    pub fn graph(&self) -> &'g DiGraph {
        self.graph
    }

    /// The simulated cluster description.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// The ingress strategy the session was built with.
    pub fn partitioner(&self) -> PartitionerKind {
        self.partitioner
    }

    /// The [`ExecutionConfig`] engine-served queries run under.
    pub fn execution(&self) -> ExecutionConfig {
        self.execution
    }

    /// Name of the partitioner that produced the layout (e.g. `"oblivious"`).
    pub fn partitioner_name(&self) -> &'static str {
        self.partitioner.name()
    }

    /// Number of vertices in the served graph.
    pub fn num_vertices(&self) -> usize {
        self.pg.num_vertices()
    }

    /// Number of simulated machines.
    pub fn num_machines(&self) -> usize {
        self.cluster.num_machines
    }

    /// Replication factor of the session's vertex-cut.
    pub fn replication_factor(&self) -> f64 {
        self.stats.totals.replication_factor
    }

    /// Cumulative cost of everything served so far.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// The session's [`Tracer`] — disabled unless [`SessionBuilder::tracing`]
    /// enabled it. Call [`Tracer::finish`] to drain everything recorded so far into
    /// a merged [`crate::obs::Timeline`].
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

/// Answers a [`Query::Ppr`] directly over an unpartitioned graph.
///
/// PPR evaluation is serial and never touches a cluster layout, so it does not need a
/// [`Session`] (or the one-time partitioning a session pays for). One-shot callers —
/// e.g. the CLI's `ppr` subcommand — use this; [`Session::query`] delegates to the same
/// code, stamping the session's replication factor into the cost and accumulating the
/// session stats. The returned cost reports a replication factor of `1.0` (no layout).
///
/// # Errors
///
/// The same typed errors as [`Session::query`] on a `Query::Ppr`: [`Error::Query`] for
/// zero `k` or an out-of-range source, [`Error::InvalidConfig`] for a bad teleport
/// probability or method parameter.
pub fn serve_ppr(
    graph: &DiGraph,
    source: VertexId,
    k: usize,
    teleport_probability: f64,
    method: PprMethod,
) -> Result<Response> {
    if k == 0 {
        return Err(Error::query("k must be positive"));
    }
    validate_ppr(graph, source, teleport_probability, &method)?;
    Ok(ppr_response_over(
        graph,
        source,
        k,
        teleport_probability,
        method,
        1.0,
        Instant::now(), // lint:allow(timing, stamps the host started instant of this query)
    ))
}

/// Validates a [`Query::Ppr`]'s source, teleport probability and method parameters,
/// in that order, before any path serves it, so a malformed query fails identically
/// on the serial and the index-served paths.
fn validate_ppr(
    graph: &DiGraph,
    source: VertexId,
    teleport_probability: f64,
    method: &PprMethod,
) -> Result<()> {
    let n = graph.num_vertices();
    if source as usize >= n {
        return Err(Error::query(format!(
            "ppr source {source} out of range for a graph with {n} vertices"
        )));
    }
    if !in_open_unit_interval(teleport_probability) {
        return Err(Error::config(
            "Query::Ppr",
            format!("teleport_probability must be in (0, 1), got {teleport_probability}"),
        ));
    }
    match *method {
        PprMethod::ForwardPush { epsilon } => {
            if !(epsilon > 0.0 && epsilon.is_finite()) {
                return Err(Error::config(
                    "PprMethod::ForwardPush",
                    format!("epsilon must be positive and finite, got {epsilon}"),
                ));
            }
        }
        PprMethod::PowerIteration {
            max_iterations,
            tolerance,
        } => {
            if max_iterations == 0 {
                return Err(Error::config(
                    "PprMethod::PowerIteration",
                    "max_iterations must be positive",
                ));
            }
            if !(tolerance >= 0.0 && tolerance.is_finite()) {
                return Err(Error::config(
                    "PprMethod::PowerIteration",
                    format!("tolerance must be non-negative and finite, got {tolerance}"),
                ));
            }
        }
        PprMethod::MonteCarlo {
            walkers, max_steps, ..
        } => {
            if walkers == 0 {
                return Err(Error::config(
                    "PprMethod::MonteCarlo",
                    "walkers must be positive",
                ));
            }
            if max_steps == 0 {
                return Err(Error::config(
                    "PprMethod::MonteCarlo",
                    "max_steps must be positive",
                ));
            }
        }
    }
    Ok(())
}

/// Evaluates a [`Query::Ppr`] that [`validate_ppr`] accepted.
fn ppr_response_over(
    graph: &DiGraph,
    source: VertexId,
    k: usize,
    teleport_probability: f64,
    method: PprMethod,
    replication_factor: f64,
    started: Instant,
) -> Response {
    let n = graph.num_vertices();
    let (algorithm, estimate, detail, push_ops, walk_hops) = match method {
        PprMethod::ForwardPush { epsilon } => {
            let push = forward_push_ppr(graph, source, teleport_probability, epsilon);
            let detail = ResponseDetail::Ppr {
                iterations: 0,
                residual: push.residual_mass(),
            };
            (
                format!("PPR forward-push src={source} eps={epsilon}"),
                push.estimate,
                detail,
                push.pushes as u64,
                0,
            )
        }
        PprMethod::PowerIteration {
            max_iterations,
            tolerance,
        } => {
            let restart = single_source_restart(n, source);
            let result = personalized_pagerank(
                graph,
                &restart,
                teleport_probability,
                max_iterations,
                tolerance,
            );
            let detail = ResponseDetail::Ppr {
                iterations: result.iterations,
                residual: result.residual,
            };
            (
                format!("PPR power-iteration src={source}"),
                result.scores,
                detail,
                0,
                0,
            )
        }
        PprMethod::MonteCarlo {
            walkers,
            max_steps,
            seed,
        } => {
            let mut rng = frogwild_engine::rng::derived_rng(&[seed, source as u64, 0x9C_0111]);
            let (estimate, hops) = monte_carlo_ppr_counted(
                graph,
                source,
                walkers,
                max_steps,
                teleport_probability,
                &mut rng,
            );
            let detail = ResponseDetail::Ppr {
                iterations: 0,
                residual: 0.0,
            };
            (
                format!("PPR monte-carlo src={source} walkers={walkers}"),
                estimate,
                detail,
                0,
                hops,
            )
        }
    };
    let cost = QueryCost {
        replication_factor,
        push_ops,
        walk_hops,
        ..QueryCost::default()
    };
    assemble_response(algorithm, estimate, k, cost, detail, started)
}

fn engine_response(
    report: RunReport,
    k: usize,
    detail: ResponseDetail,
    started: Instant,
) -> Response {
    assemble_response(
        report.algorithm,
        report.estimate,
        k,
        report.cost,
        detail,
        started,
    )
}

/// The one place a [`Response`] is assembled. `estimate` arrives by value and moves
/// into the response — no path copies the dense vector; its top `k` become the
/// ranking, and `cost.host_seconds` is stamped last, so it is the whole query's host
/// time (ranking included), not just the share of whichever layer answered.
fn assemble_response(
    algorithm: String,
    estimate: Vec<f64>,
    k: usize,
    cost: QueryCost,
    detail: ResponseDetail,
    started: Instant,
) -> Response {
    let ranking = crate::topk::top_k(&estimate, k)
        .into_iter()
        // lint:allow(indexing, vertex ids come from top_k over this same estimate vector)
        .map(|v| (v, estimate[v as usize]))
        .collect();
    Response {
        algorithm,
        ranking,
        estimate,
        cost: QueryCost {
            host_seconds: started.elapsed().as_secs_f64(),
            ..cost
        },
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frogwild_graph::generators::{rmat, RmatParams};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_graph(n: usize) -> DiGraph {
        let mut rng = SmallRng::seed_from_u64(901);
        rmat(n, RmatParams::default(), &mut rng)
    }

    fn autotune_config() -> AutoTuneConfig {
        AutoTuneConfig {
            k: 10,
            pilot_walkers: 1_000,
            max_walkers: 20_000,
            ..AutoTuneConfig::default()
        }
    }

    fn fw_config() -> FrogWildConfig {
        FrogWildConfig {
            num_walkers: 20_000,
            iterations: 4,
            sync_probability: 0.7,
            ..FrogWildConfig::default()
        }
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let g = test_graph(300);
        let session = Session::builder(&g)
            .machines(4)
            .partitioner(PartitionerKind::Hdrf)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(session.num_machines(), 4);
        assert_eq!(session.partitioner(), PartitionerKind::Hdrf);
        assert_eq!(session.partitioner_name(), "hdrf");
        assert_eq!(session.cluster().seed, 7);
        assert_eq!(session.num_vertices(), g.num_vertices());
        assert_eq!(session.stats().queries_served, 0);
        assert!(session.replication_factor() >= 1.0);
    }

    #[test]
    fn builder_rejects_invalid_cluster_and_empty_graph() {
        let g = test_graph(100);
        assert!(matches!(
            Session::builder(&g).machines(0).build(),
            Err(Error::InvalidConfig {
                context: "SessionBuilder",
                ..
            })
        ));
        assert!(matches!(
            Session::builder(&g).machines(70_000).build(),
            Err(Error::InvalidConfig {
                context: "SessionBuilder",
                ..
            })
        ));
        let empty = DiGraph::empty(0);
        assert!(matches!(
            Session::builder(&empty).build(),
            Err(Error::Graph { .. })
        ));
    }

    #[test]
    fn session_serves_all_query_kinds_and_accumulates_stats() {
        let g = test_graph(400);
        let mut session = Session::builder(&g).machines(4).seed(3).build().unwrap();
        let queries = [
            Query::TopK {
                k: 10,
                config: fw_config(),
            },
            Query::Pagerank {
                k: 10,
                config: PageRankConfig::truncated(2),
            },
            Query::Ppr {
                source: 0,
                k: 10,
                teleport_probability: 0.15,
                method: PprMethod::ForwardPush { epsilon: 1e-5 },
            },
            Query::AutotunedTopK {
                config: autotune_config(),
            },
        ];
        let mut bytes = 0u64;
        for q in &queries {
            let r = session.query(q).unwrap();
            assert_eq!(r.ranking.len(), 10);
            assert_eq!(r.estimate.len(), g.num_vertices());
            bytes += r.cost.network_bytes;
        }
        let stats = session.stats();
        assert_eq!(stats.queries_served, 4);
        assert_eq!(stats.totals.network_bytes, bytes);
        assert!(stats.totals.host_seconds > 0.0);
        assert!(stats.amortized_partition_seconds() <= stats.partition_seconds);
    }

    #[test]
    fn execution_worker_knobs_do_not_change_query_results() {
        let g = test_graph(300);
        let q = Query::TopK {
            k: 15,
            config: fw_config(),
        };
        let mut baseline = Session::builder(&g).machines(4).seed(11).build().unwrap();
        let expected = baseline.query(&q).unwrap();
        for workers in [1, 0, 3] {
            let execution = ExecutionConfig::new().workers(workers);
            let mut session = Session::builder(&g)
                .machines(4)
                .seed(11)
                .execution(execution)
                .build()
                .unwrap();
            assert_eq!(session.execution(), execution);
            let got = session.query(&q).unwrap();
            assert_eq!(expected, got, "{execution:?}");
        }
    }

    #[test]
    fn stale_sessions_keep_serving_and_report_async_stats() {
        let g = test_graph(400);
        let q = Query::TopK {
            k: 15,
            config: FrogWildConfig {
                iterations: 6,
                ..fw_config()
            },
        };
        let mut stale = Session::builder(&g)
            .machines(8)
            .seed(11)
            .execution(ExecutionConfig::new().staleness(2))
            .build()
            .unwrap();
        let first = stale.query(&q).unwrap();
        let second = stale.query(&q).unwrap();
        assert_eq!(first, second, "stale serving must stay deterministic");
        assert!((first.estimate.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(first.cost.staleness_lag > 0);
        assert!(first.cost.barrier_wait_avoided_seconds > 0.0);
        let stats = stale.stats();
        assert_eq!(stats.totals.staleness_lag, 2 * first.cost.staleness_lag);
        assert_eq!(stats.totals.max_inbox_depth, first.cost.max_inbox_depth);
        assert!(stats.totals.barrier_wait_avoided_seconds > 0.0);
        assert!(stale.stats().to_string().contains("barrier wait avoided"));
        // An autotuned query runs under the same execution config as a plain one.
        let tuned = stale
            .query(&Query::AutotunedTopK {
                config: autotune_config(),
            })
            .unwrap();
        assert!(tuned.cost.staleness_lag > 0);
    }

    #[test]
    fn autotuned_queries_run_under_the_session_execution_config_and_tracer() {
        let g = test_graph(400);
        let q = Query::AutotunedTopK {
            config: autotune_config(),
        };
        let build = |tracing| {
            Session::builder(&g)
                .machines(8)
                .seed(11)
                .tracing(tracing)
                .build()
                .unwrap()
        };
        // Under the default execution config the answer is the drivers' own: the
        // final run's estimate, costed as run + pilot.
        let mut plain = build(TraceConfig::disabled());
        let response = plain.query(&q).unwrap();
        let direct = auto_topk_on(
            &plain.pg,
            &autotune_config(),
            &ExecutionConfig::default(),
            &Tracer::disabled(),
        )
        .unwrap();
        let mut expected = direct.run.cost;
        expected.absorb(&direct.pilot.cost);
        assert_eq!(response.estimate, direct.run.estimate);
        assert_eq!(response.cost, expected);
        // On a traced session both engine runs land in the session's timeline, and
        // tracing only observes.
        let mut traced = build(TraceConfig::logical());
        assert_eq!(traced.query(&q).unwrap(), response);
        let timeline = traced.tracer().finish();
        let supersteps = timeline
            .entries()
            .iter()
            .filter(|e| e.name == "superstep")
            .count();
        assert_eq!(supersteps, response.cost.supersteps);
    }

    #[test]
    fn stats_display_surfaces_the_engine_frontier_counters() {
        let g = test_graph(300);
        let mut session = Session::builder(&g).machines(4).seed(3).build().unwrap();
        // Partial synchronization is what skips mirror syncs: none at p_s = 1.
        let at = |sync_probability| Query::TopK {
            k: 10,
            config: FrogWildConfig {
                sync_probability,
                ..fw_config()
            },
        };
        let full = session.query(&at(1.0)).unwrap();
        assert_eq!(full.cost.skipped_syncs, 0);
        let partial = session.query(&at(0.1)).unwrap();
        assert!(partial.cost.skipped_syncs > 0);
        assert!(partial.cost.to_string().contains("skipped syncs"));
        let stats = session.stats();
        assert_eq!(stats.totals.skipped_syncs, partial.cost.skipped_syncs);
        assert!(stats.totals.active_vertices > 0);
        assert!(stats.totals.routed_messages > 0);
        let rendered = stats.to_string();
        assert!(rendered.contains("2 queries served"));
        assert!(rendered.contains("active vertices"));
        assert!(rendered.contains(&format!(
            "{} mirror syncs skipped by partial sync",
            stats.totals.skipped_syncs
        )));
        assert!(rendered.contains("scatters skipped by the delta gate"));
        assert!(rendered.contains("messages routed"));
        assert!(rendered.contains(&format!("{} messages", stats.totals.routed_messages)));
    }

    #[test]
    fn repeated_queries_are_deterministic() {
        let g = test_graph(300);
        let mut session = Session::builder(&g).machines(4).seed(11).build().unwrap();
        let q = Query::TopK {
            k: 15,
            config: fw_config(),
        };
        let first = session.query(&q).unwrap();
        let second = session.query(&q).unwrap();
        assert_eq!(first, second);
        assert_eq!(session.stats().queries_served, 2);
    }

    #[test]
    fn query_rejects_zero_k_and_bad_source() {
        let g = test_graph(200);
        let mut session = Session::builder(&g).machines(2).build().unwrap();
        assert!(matches!(
            session.query(&Query::TopK {
                k: 0,
                config: fw_config()
            }),
            Err(Error::Query { .. })
        ));
        assert!(matches!(
            session.query(&Query::Ppr {
                source: g.num_vertices() as VertexId,
                k: 5,
                teleport_probability: 0.15,
                method: PprMethod::ForwardPush { epsilon: 1e-5 },
            }),
            Err(Error::Query { .. })
        ));
        // failed queries do not count towards the stream
        assert_eq!(session.stats().queries_served, 0);
    }

    #[test]
    fn invalid_configs_surface_as_typed_errors() {
        let g = test_graph(200);
        let mut session = Session::builder(&g).machines(2).build().unwrap();
        let bad_fw = FrogWildConfig {
            num_walkers: 0,
            ..fw_config()
        };
        assert!(matches!(
            session.query(&Query::TopK {
                k: 5,
                config: bad_fw
            }),
            Err(Error::InvalidConfig {
                context: "FrogWildConfig",
                ..
            })
        ));
        let bad_prs = [
            PageRankConfig {
                max_iterations: 0,
                ..PageRankConfig::default()
            },
            PageRankConfig {
                tolerance: f64::NAN,
                ..PageRankConfig::default()
            },
            PageRankConfig {
                tolerance: f64::INFINITY,
                ..PageRankConfig::default()
            },
        ];
        for bad_pr in bad_prs {
            assert!(matches!(
                session.query(&Query::Pagerank {
                    k: 5,
                    config: bad_pr
                }),
                Err(Error::InvalidConfig {
                    context: "PageRankConfig",
                    ..
                })
            ));
        }
        assert!(matches!(
            session.query(&Query::Ppr {
                source: 0,
                k: 5,
                teleport_probability: 0.15,
                method: PprMethod::ForwardPush { epsilon: 0.0 },
            }),
            Err(Error::InvalidConfig {
                context: "PprMethod::ForwardPush",
                ..
            })
        ));
    }

    #[test]
    fn serve_ppr_matches_session_ppr_without_a_layout() {
        let g = test_graph(300);
        let method = PprMethod::ForwardPush { epsilon: 1e-6 };
        let direct = serve_ppr(&g, 3, 8, 0.15, method).unwrap();
        let mut session = Session::builder(&g).machines(4).build().unwrap();
        let via_session = session
            .query(&Query::Ppr {
                source: 3,
                k: 8,
                teleport_probability: 0.15,
                method,
            })
            .unwrap();
        // Identical answer; only the stamped replication factor differs (no layout).
        assert_eq!(direct.estimate, via_session.estimate);
        assert_eq!(direct.ranking, via_session.ranking);
        assert_eq!(direct.detail, via_session.detail);
        assert_eq!(direct.cost.replication_factor, 1.0);
        // And the same typed validation applies.
        assert!(matches!(
            serve_ppr(&g, 3, 0, 0.15, method),
            Err(Error::Query { .. })
        ));
        assert!(matches!(
            serve_ppr(&g, g.num_vertices() as VertexId, 5, 0.15, method),
            Err(Error::Query { .. })
        ));
    }

    #[test]
    fn walk_index_sessions_serve_ppr_and_topk_from_the_index() {
        let g = test_graph(400);
        let cfg = WalkIndexConfig {
            segments_per_vertex: 8,
            segment_length: 8,
            ..WalkIndexConfig::default()
        };
        let mut session = Session::builder(&g)
            .machines(4)
            .seed(3)
            .walk_index(cfg)
            .build()
            .unwrap();
        assert!(session.walk_index().is_some());
        let report = *session.walk_index_report().unwrap();
        assert_eq!(report.effective_segments, 8);
        assert_eq!(report.machines, 4);
        assert!(session.stats().index_build_seconds > 0.0);

        let ppr = session
            .query(&Query::Ppr {
                source: 3,
                k: 10,
                teleport_probability: 0.15,
                method: PprMethod::ForwardPush { epsilon: 1e-5 },
            })
            .unwrap();
        assert!(ppr.cost.index_served);
        assert!(ppr.cost.index_hits > 0);
        assert!(ppr.cost.push_ops > 0);
        assert!(ppr.algorithm.contains("walk-index"));
        assert!((ppr.estimate.iter().sum::<f64>() - 1.0).abs() < 1e-9);

        let topk = session
            .query(&Query::TopK {
                k: 10,
                config: fw_config(),
            })
            .unwrap();
        assert!(topk.cost.index_served);
        assert!(topk.algorithm.contains("walk-index"));
        assert_eq!(topk.cost.supersteps, 0);
        assert_eq!(topk.cost.network_bytes, 0);

        // The exact reference always bypasses the index.
        let exact = session
            .query(&Query::Ppr {
                source: 3,
                k: 10,
                teleport_probability: 0.15,
                method: PprMethod::PowerIteration {
                    max_iterations: 100,
                    tolerance: 1e-10,
                },
            })
            .unwrap();
        assert!(!exact.cost.index_served);

        let stats = session.stats();
        assert_eq!(stats.queries_served, 3);
        assert_eq!(stats.index_served_queries, 2);
        assert!(stats.totals.index_hits > 0);
        assert!(stats.amortized_index_build_seconds() < stats.index_build_seconds);
        assert!(stats.index_hit_rate() > 0.0);
    }

    #[test]
    fn walk_index_queries_are_deterministic() {
        let g = test_graph(300);
        let mut session = Session::builder(&g)
            .machines(4)
            .walk_index(WalkIndexConfig::default())
            .build()
            .unwrap();
        let q = Query::Ppr {
            source: 5,
            k: 12,
            teleport_probability: 0.15,
            method: PprMethod::ForwardPush { epsilon: 1e-5 },
        };
        let first = session.query(&q).unwrap();
        let second = session.query(&q).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn walk_index_sessions_reject_malformed_methods_like_plain_ones() {
        let g = test_graph(200);
        let n = g.num_vertices() as VertexId;
        let mut plain = Session::builder(&g).machines(2).build().unwrap();
        let mut indexed = Session::builder(&g)
            .machines(2)
            .walk_index(WalkIndexConfig::default())
            .build()
            .unwrap();
        let push = |epsilon| PprMethod::ForwardPush { epsilon };
        let power = |max_iterations, tolerance| PprMethod::PowerIteration {
            max_iterations,
            tolerance,
        };
        let monte_carlo = |walkers, max_steps| PprMethod::MonteCarlo {
            walkers,
            max_steps,
            seed: 1,
        };
        // The index would ignore most of these, but the query is rejected first, and
        // with the error the index-less path gives.
        let malformed = [
            (0, 0.0, push(1e-4)),
            (0, 1.0, push(1e-4)),
            (0, 1.5, push(1e-4)),
            (0, f64::NAN, push(1e-4)),
            (n, 0.15, push(1e-4)),
            (0, 0.15, push(0.0)),
            (0, 0.15, push(f64::INFINITY)),
            (0, 0.15, power(0, 1e-9)),
            (0, 0.15, power(10, -1.0)),
            (0, 0.15, monte_carlo(0, 10)),
            (0, 0.15, monte_carlo(100, 0)),
            (n, 0.15, push(-1.0)),
        ];
        for (source, teleport_probability, method) in malformed {
            let query = Query::Ppr {
                source,
                k: 5,
                teleport_probability,
                method,
            };
            let without = plain.query(&query).unwrap_err();
            assert_eq!(indexed.query(&query).unwrap_err(), without, "{query:?}");
        }
        assert_eq!(indexed.stats().queries_served, 0);
    }

    #[test]
    fn builder_surfaces_walk_index_build_errors() {
        let g = test_graph(200);
        assert!(matches!(
            Session::builder(&g)
                .machines(2)
                .walk_index(WalkIndexConfig {
                    memory_budget_bytes: 8,
                    ..WalkIndexConfig::default()
                })
                .build(),
            Err(Error::InvalidConfig { .. })
        ));
    }

    #[test]
    fn monte_carlo_method_reports_walk_work() {
        let g = test_graph(300);
        let method = PprMethod::MonteCarlo {
            walkers: 5_000,
            max_steps: 30,
            seed: 7,
        };
        let response = serve_ppr(&g, 2, 10, 0.15, method).unwrap();
        assert!((response.estimate.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(response.cost.walk_hops > 0);
        assert!(!response.cost.index_served);
        assert!(response.algorithm.contains("monte-carlo"));
        // And the push method reports push work units.
        let push = serve_ppr(&g, 2, 10, 0.15, PprMethod::ForwardPush { epsilon: 1e-6 }).unwrap();
        assert!(push.cost.push_ops > 0);
        assert_eq!(push.cost.walk_hops, 0);
    }

    #[test]
    fn ppr_power_iteration_and_push_agree_on_the_head() {
        let g = test_graph(300);
        let mut session = Session::builder(&g).machines(2).build().unwrap();
        let push = session
            .query(&Query::Ppr {
                source: 1,
                k: 5,
                teleport_probability: 0.15,
                method: PprMethod::ForwardPush { epsilon: 1e-8 },
            })
            .unwrap();
        let exact = session
            .query(&Query::Ppr {
                source: 1,
                k: 5,
                teleport_probability: 0.15,
                method: PprMethod::PowerIteration {
                    max_iterations: 200,
                    tolerance: 1e-10,
                },
            })
            .unwrap();
        assert_eq!(push.top_vertices()[0], exact.top_vertices()[0]);
        assert!(push.cost.push_ops > 0);
        assert!(matches!(exact.detail, ResponseDetail::Ppr { iterations, .. } if iterations > 0));
    }
}
