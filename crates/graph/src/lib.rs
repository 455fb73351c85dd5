//! # frogwild-graph
//!
//! Directed-graph substrate used by the FrogWild PageRank reproduction.
//!
//! The crate provides:
//!
//! * [`DiGraph`] — an immutable, compressed-sparse-row (CSR) directed graph with both
//!   out- and in-adjacency, the representation every other crate in the workspace
//!   consumes.
//! * [`GraphBuilder`] — a mutable edge accumulator that validates, sorts and (if asked)
//!   deduplicates edges and gives every sink a self-loop before freezing them into a
//!   [`DiGraph`].
//! * [`generators`] — synthetic graph generators (R-MAT/Kronecker, Watts–Strogatz, and
//!   small deterministic shapes) used to stand in for the paper's Twitter and
//!   LiveJournal datasets.
//! * [`io`] — SNAP-style edge-list reading and writing so the real datasets can be
//!   dropped in unchanged.
//! * [`stats`] — degree statistics and a power-law tail-exponent estimator
//!   (the paper's analysis assumes the PageRank tail follows a power law with θ ≈ 2.2).
//! * [`sparsify`] — the uniform edge-deletion sparsifier used as a baseline in Figure 5.
//! * [`run_batched`] and [`worker_threads`] — the workspace's one thread pool. Set-up
//!   passes (reading, the CSR build, the engine's layout build) run on the host's
//!   threads ([`setup_width`]) and give the same output at any width.
//!
//! All randomized constructions take an explicit [`rand::Rng`] so every experiment in
//! the workspace is reproducible from a seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod builder;
mod csr;
pub mod error;
pub mod generators;
pub mod io;
mod pool;
pub mod sparsify;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::{DiGraph, EdgeIter, VertexId};
pub use error::Error;
pub use pool::{row_ranges, run_batched, setup_width, split_lengths, worker_threads};

/// Errors produced while constructing or loading graphs.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a vertex id that is out of bounds for the declared vertex count.
    VertexOutOfBounds {
        /// The offending vertex id.
        vertex: u64,
        /// The number of vertices in the graph.
        num_vertices: u64,
    },
    /// An I/O error occurred while reading or writing an edge list.
    Io(std::io::Error),
    /// An edge-list line could not be parsed.
    Parse {
        /// 1-based line number of the malformed line.
        line: usize,
        /// The malformed content.
        content: String,
    },
    /// The requested construction parameters are inconsistent
    /// (for example zero vertices, or a probability outside `[0, 1]`).
    InvalidParameter(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfBounds {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex id {vertex} out of bounds for graph with {num_vertices} vertices"
            ),
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::Parse { line, content } => {
                write!(f, "could not parse edge-list line {line}: {content:?}")
            }
            GraphError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
