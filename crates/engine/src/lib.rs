//! # frogwild-engine
//!
//! A from-scratch, PowerGraph-like **simulated distributed graph engine**.
//!
//! The FrogWild paper implements its algorithm inside GraphLab PowerGraph and modifies
//! the engine so that master vertices synchronize each mirror only with probability
//! `p_s`. Reproducing the paper therefore requires the engine layer itself. This crate
//! provides that layer:
//!
//! * **Vertex-cut partitioning** ([`partition`]) — edges are assigned to machines
//!   (random, grid-constrained, and the greedy "oblivious" heuristic PowerGraph uses),
//!   and every vertex obtains one *master* replica plus cached *mirror* replicas on all
//!   other machines that own one of its edges ([`placement`]).
//! * **GAS vertex programs** ([`program`]) — the gather / apply / scatter abstraction,
//!   expressed so that gather runs on the machine owning each edge, apply runs at the
//!   master, and scatter runs on every *participating* replica.
//! * **Partial synchronization** ([`EngineConfig::sync_probability`]) — the paper's `p_s`:
//!   after apply, each mirror of an active vertex is synchronized only with probability
//!   `p_s`, under the "at least one out-edge per node" model of Appendix A that the
//!   paper's experiments run.
//! * **Cost accounting** ([`metrics`]) — one cost record, [`QueryCost`]: each
//!   superstep's bytes and messages crossing machine boundaries, work operations,
//!   frontier and staleness counters, priced by one simulated cluster clock so
//!   experiments can report the same four panels as Figure 1 of the paper
//!   (per-iteration time, total time, network bytes, CPU time). A run's cost is its
//!   supersteps' records folded with [`QueryCost::absorb`].
//! * **Execution** ([`engine`]) — a frontier-scheduled superstep executor whose phases
//!   run as work units on the calling thread or a worker pool no wider than the host
//!   ([`worker_threads`]), each machine combining its own outgoing mail, producing
//!   identical results for the same seed at any worker count.
//! * **Walk-segment generation** ([`walkgen`]) — parallel precomputation of per-vertex
//!   random-walk segments (each machine generates for the vertices it masters), the
//!   build phase of `frogwild`'s walk-index subsystem.
//!
//! The engine is *simulated* in the sense that all "machines" live in one process and
//! network transfer is accounted rather than performed; everything else — the data
//! placement, the message flow, which replica knows what and when — follows the
//! PowerGraph execution model.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod engine;
pub mod metrics;
pub mod partition;
pub mod placement;
pub mod program;
pub mod rng;
pub mod walkgen;

pub use cluster::{ClusterConfig, MachineId};
pub use engine::{Engine, EngineConfig, EngineOutput, InitialActivation};
pub use frogwild_graph::{worker_threads, Error};
pub use metrics::{QueryCost, RunMetrics, SuperstepMetrics};
pub use partition::PartitionerKind;
pub use placement::{PartitionedGraph, Shard, VertexPlacement};
pub use program::{ApplyContext, EdgeDirection, ScatterContext, VertexProgram};
pub use walkgen::generate_walk_segments;
