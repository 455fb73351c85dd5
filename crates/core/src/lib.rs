//! # frogwild
//!
//! A reproduction of **FrogWild! – Fast PageRank Approximations on Graph Engines**
//! (Mitliagkas, Borokhovich, Dimakis, Caramanis — VLDB 2015) as a Rust library.
//!
//! FrogWild estimates the **top-k PageRank vertices** of a directed graph by releasing a
//! small number of random walkers ("frogs") inside a PowerGraph-style distributed graph
//! engine, and — crucially — by *partially synchronizing* vertex mirrors: each mirror of
//! an updated vertex receives the new state only with probability `p_s`, cutting the
//! engine's network traffic roughly proportionally while provably (Theorem 1) keeping
//! the captured PageRank mass close to optimal.
//!
//! ## Quick start: the `Session` query service
//!
//! The primary API is [`session::Session`]: build it once (the graph is partitioned
//! across the simulated cluster exactly once, at `build()`), then serve any number of
//! typed [`session::Query`] values — global top-k, the PageRank baseline, personalized
//! PageRank, or the self-tuning pilot→plan→run pipeline — through one
//! [`session::Response`] surface. Failures are typed ([`Error`]), never panics.
//!
//! ```
//! use frogwild::prelude::*;
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! // A small synthetic social graph.
//! let mut rng = SmallRng::seed_from_u64(1);
//! let graph = frogwild_graph::generators::livejournal_like(2_000, &mut rng);
//!
//! // Partition once over a simulated 8-machine cluster.
//! let mut session = Session::builder(&graph)
//!     .machines(8)
//!     .partitioner(PartitionerKind::Oblivious)
//!     .seed(42)
//!     .build()?;
//!
//! // Serve queries: every call reuses the vertex-cut built above.
//! let config = FrogWildConfig {
//!     num_walkers: 20_000,
//!     iterations: 4,
//!     sync_probability: 0.7,
//!     ..FrogWildConfig::default()
//! };
//! let response = session.query(&Query::TopK { k: 20, config })?;
//! assert_eq!(response.ranking.len(), 20);
//! assert!(response.cost.network_bytes > 0); // the simulated cluster's traffic
//!
//! // Compare the estimate against exact PageRank.
//! let exact = exact_pagerank(&graph, 0.15, 100, 1e-12);
//! let accuracy = mass_captured(&response.estimate, &exact.scores, 20);
//! assert!(accuracy.normalized() > 0.6);
//!
//! // The session tracks the cumulative, amortized economics of the stream.
//! assert_eq!(session.stats().queries_served, 1);
//! # Ok::<(), frogwild::Error>(())
//! ```
//!
//! The crate is organised as follows:
//!
//! * [`session`] — the persistent, queryable PageRank service (the API above).
//! * [`error`] — the crate-wide typed [`Error`] every fallible path returns.
//! * [`config`] — experiment configuration ([`FrogWildConfig`], [`PageRankConfig`]).
//! * [`programs`] — the two vertex programs run on the simulated engine: the FrogWild
//!   walker program and the standard GraphLab-style PageRank.
//! * [`reference`](mod@crate::reference) — serial reference implementations (exact
//!   power iteration, serial Monte-Carlo walkers) used as ground truth in tests and
//!   accuracy metrics.
//! * [`metrics`] — the paper's two accuracy metrics, *mass captured* and *exact
//!   identification*, plus generic top-k utilities ([`topk`]).
//! * [`theory`] — the paper's analytical bounds (Theorem 1, Theorem 2, Proposition 7)
//!   as executable functions, so the benchmarks can overlay bound vs measurement.
//! * [`erasure`] — the Appendix-A edge-erasure models simulated serially, used to
//!   validate the engine's partial-synchronization behaviour against the theory.
//! * [`montecarlo`] — the complete-path Monte-Carlo estimators of Avrachenkov et al.,
//!   the prior-work baseline Section 2.4 positions FrogWild against.
//! * [`ppr`] — personalized PageRank (power iteration, forward push, Monte-Carlo), the
//!   other prior-work line discussed in Section 2.4.
//! * [`confidence`] — per-vertex confidence intervals and walker-budget planning on top
//!   of the Theorem 1 / Remark 6 machinery.
//! * [`autotune`] — the pilot → plan → run pipeline that turns the planning rules into
//!   a self-tuning top-k query (served as `Query::AutotunedTopK`).
//! * [`rank_metrics`] — order-sensitive ranking metrics (Kendall τ, footrule, NDCG)
//!   complementing the paper's two set-level metrics.
//! * [`walkindex`] — the precomputed walk-index subsystem: build an arena of per-vertex
//!   walk segments once (in parallel across the simulated machines), then serve PPR and
//!   top-k queries by stitching cached segments instead of fresh Monte-Carlo walks.
//!   Plugged into the session via `SessionBuilder::walk_index`.
//! * [`serve`] — the concurrent serving front-end: a fixed worker pool drains a bounded
//!   admission queue over a shared session, with per-kind latency histograms
//!   (p50/p95/p99) and deterministic per-query seeding so any worker count returns
//!   bit-identical responses. Entered via `Session::serve`.
//! * [`driver`] — the low-level experiment drivers underneath the session; they return
//!   a [`driver::RunReport`] with raw engine metrics for the benchmark harness.
//! * [`QueryCost`](prelude::QueryCost) — the one cost record, re-exported from
//!   [`frogwild_engine::metrics`]: an engine superstep, a driver run, a response and
//!   the session totals all report in it, and every total is
//!   [`absorb`](prelude::QueryCost::absorb).
//! * [`obs`] — structured tracing (re-exported `frogwild_obs`): span guards with
//!   static callsite metadata recorded into one deterministic timeline, exportable as
//!   Chrome trace-event JSON or CSV. Wired through `SessionBuilder::tracing`; a
//!   disabled tracer (the default) costs nothing.
//!
//! Parameter sweeps that need raw [`driver::RunReport`] metrics call
//! [`driver::run_frogwild`] and [`driver::run_graphlab_pr`] directly, over an explicit
//! [`driver::partition_graph`] layout — the same two functions the session runs on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod autotune;
pub mod confidence;
pub mod config;
pub mod dist;
pub mod driver;
pub mod erasure;
pub mod error;
pub mod metrics;
pub mod montecarlo;
pub mod ppr;
pub mod programs;
pub mod rank_metrics;
pub mod reference;
pub mod serve;
pub mod session;
pub mod theory;
pub mod topk;
pub mod walkindex;

/// Structured tracing for every layer of the stack — the re-exported
/// [`frogwild_obs`] crate. See [`session::SessionBuilder::tracing`] for the usual
/// entry point and `frogwild_obs`'s crate docs for the span API.
pub use frogwild_obs as obs;

/// Convenient re-exports of the types most users need.
pub mod prelude {
    pub use crate::autotune::{auto_topk_on, AutoTuneConfig, AutoTuneReport};
    pub use crate::confidence::{plan_walkers, wilson_interval, WalkerPlan};
    pub use crate::config::{ExecutionConfig, FrogWildConfig, PageRankConfig};
    pub use crate::driver::{
        partition_graph, run_frogwild, run_graphlab_pr, run_sparsified_pr, RunReport,
    };
    pub use crate::error::{Error, Result};
    pub use crate::metrics::{exact_identification, mass_captured, MassCaptured};
    pub use crate::obs::{TraceConfig, TraceReport, Tracer};
    pub use crate::ppr::{forward_push_ppr, personalized_pagerank, single_source_restart};
    pub use crate::rank_metrics::{kendall_tau_top_k, ndcg_at_k};
    pub use crate::reference::{exact_pagerank, serial_random_walk_pagerank, PageRankResult};
    pub use crate::serve::{
        Admission, LatencyHistogram, LatencyStats, QueryKind, QueryOutcome, ServeConfig,
        ServeHandle, ServeReport, WorkerStats,
    };
    pub use crate::session::{
        serve_ppr, PprMethod, Query, Response, ResponseDetail, Session, SessionBuilder,
        SessionStats,
    };
    pub use crate::theory::{intersection_probability_bound, theorem1_epsilon};
    pub use crate::topk::top_k;
    pub use crate::walkindex::{WalkIndex, WalkIndexBuildReport, WalkIndexConfig};
    pub use frogwild_engine::{ClusterConfig, PartitionerKind, QueryCost};
    pub use frogwild_graph::{DiGraph, GraphBuilder, VertexId};
}

pub use config::{ExecutionConfig, FrogWildConfig, PageRankConfig};
pub use error::{Error, Result};
pub use metrics::{exact_identification, mass_captured, MassCaptured};
pub use reference::{exact_pagerank, serial_random_walk_pagerank, PageRankResult};
pub use serve::{Admission, ServeConfig, ServeHandle, ServeReport};
pub use session::{Query, Response, Session};
pub use topk::top_k;

pub use driver::{run_sparsified_pr, RunReport};
pub use walkindex::{WalkIndex, WalkIndexConfig};
