//! Umbrella package for the FrogWild reproduction workspace.
//!
//! This crate intentionally contains no code: it exists so the workspace-level
//! integration tests (`tests/integration_*.rs`) and the runnable examples
//! (`examples/*.rs`) have a package to live in. The functionality is in:
//!
//! * [`frogwild`] — algorithms, metrics, theory bounds, drivers (crates/core),
//! * [`frogwild_graph`] — CSR graphs, generators, I/O (crates/graph),
//! * [`frogwild_engine`] — the simulated PowerGraph-style engine (crates/engine),
//! * `frogwild_cli` — the `frogwild` command-line binary (crates/cli),
//! * `frogwild_bench` — the figure harness and the `frogbench` benchmark (crates/bench).

pub use frogwild;
pub use frogwild_engine;
pub use frogwild_graph;
