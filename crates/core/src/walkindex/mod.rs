//! Precomputed walk-index subsystem: amortize Monte-Carlo cost into an index build.
//!
//! FrogWild answers every query with *fresh* random walks, so a query stream re-pays
//! the full Monte-Carlo cost on every request even though the graph never changes
//! between requests. The PowerWalk / FAST-PPR line of work shows the fix: precompute a
//! handful of random-walk *segments* per vertex once, then serve queries by **stitching
//! cached segments** instead of walking the graph hop by hop. This module is that
//! subsystem:
//!
//! * [`WalkIndexConfig`] — the build/serve knobs: `R` segments of `L` hops per vertex,
//!   a memory budget that bounds the arena regardless of graph size, and the serving
//!   accuracy dials (`frontier_epsilon`, `walks_per_unit_residual`).
//! * [`WalkIndex`] — the immutable fixed-stride arena: one array of exactly `n · R · L`
//!   four-byte slots, segment `j` of vertex `v` at `(v · R + j) · L`, so a segment is
//!   one dependent load away from its `(v, j)` and there is no delimiter table. A
//!   segment that reached a sink before `L` hops is padded with the sentinel
//!   `VertexId::MAX`; a sink's own segments are all padding. Padding costs a sink
//!   `R · L · 4` bytes where a delimiter table would cost every vertex `R · 8`, so the
//!   fixed stride is the smaller format unless more than `2 / L` of the vertices are
//!   sinks — and graphs built under the default `DanglingPolicy::SelfLoop` have none.
//!   Segments carry no teleportation, so one index serves any teleport probability.
//! * [`build_walk_index`] — the build, on the host's threads: each simulated machine of a
//!   [`PartitionedGraph`](frogwild_engine::PartitionedGraph) generates the segments of
//!   the vertices it masters (see [`frogwild_engine::walkgen`]) and writes them in place
//!   into its chunks of the arena — every address is known up front, so nothing is
//!   batched and copied. Deterministic for a fixed seed across machine counts,
//!   partitioners, and host thread counts.
//! * [`indexed_ppr`] / [`indexed_pagerank`] — PowerWalk-style serving: forward-push to
//!   a residual frontier (which the push hands over as a list), then stitched walks
//!   that consume whole cached segments in O(1) each — the slot itself says whether the
//!   vertex is a sink — resampling fresh hops only on segment exhaustion.
//!
//! The subsystem plugs into the query service via
//! [`SessionBuilder::walk_index`](crate::session::SessionBuilder::walk_index):
//! `Query::Ppr` and `Query::TopK` are then served from the index transparently, and
//! [`QueryCost`](frogwild_engine::QueryCost) / [`SessionStats`](crate::session::SessionStats)
//! report segment hits/misses and the amortized build cost.
//!
//! ```
//! use frogwild::driver::partition_graph;
//! use frogwild::walkindex::{build_walk_index, indexed_ppr, WalkIndexConfig};
//! use frogwild_engine::ClusterConfig;
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let graph = frogwild_graph::generators::livejournal_like(2_000, &mut rng);
//!
//! // Partition once (a session reuses its own layout), then build over the layout.
//! let pg = partition_graph(&graph, &ClusterConfig::new(4, 9));
//! let cfg = WalkIndexConfig::default();
//! let (index, report) = build_walk_index(&graph, &pg, &cfg)?;
//! assert!(report.arena_bytes <= cfg.memory_budget_bytes);
//!
//! let served = indexed_ppr(&graph, &index, &cfg, 7, 0.15)?;
//! assert!((served.estimate.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! # Ok::<(), frogwild::Error>(())
//! ```

mod build;
mod config;
mod serve;
mod storage;

pub(crate) use build::build_walk_index_traced;
pub use build::{build_walk_index, WalkIndexBuildReport};
pub use config::WalkIndexConfig;
pub use serve::{indexed_pagerank, indexed_ppr, IndexServeStats, IndexedEstimate, TAIL_FLOOR};
pub use storage::WalkIndex;
