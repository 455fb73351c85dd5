//! Experiment configuration types.

use crate::error::Error;

/// `true` when `p` lies in the open interval `(0, 1)`.
pub(crate) fn in_open_unit_interval(p: f64) -> bool {
    p > 0.0 && p < 1.0
}

/// `true` when `p` lies in the half-open interval `(0, 1]`.
pub(crate) fn in_half_open_unit_interval(p: f64) -> bool {
    p > 0.0 && p <= 1.0
}

/// The teleportation probability `p_T` of every FrogWild and PageRank run: the value
/// the paper (and the original PageRank paper) uses in every experiment. A walker dies
/// with this probability at every step, reproducing the uniform jump of the PageRank
/// chain. Only personalized queries ([`Query::Ppr`](crate::session::Query::Ppr)) and
/// the oracles take their own.
pub const TELEPORT: f64 = 0.15;

/// Configuration of a FrogWild run.
///
/// The defaults reproduce the paper's headline setting: 800 000 initial walkers, four
/// iterations, `p_T =` [`TELEPORT`]. `sync_probability` is the paper's
/// `p_s` ∈ {1, 0.7, 0.4, 0.1} sweep parameter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrogWildConfig {
    /// Number of initial random walkers (`N` in the paper). The paper uses 800K for
    /// both the Twitter and LiveJournal graphs.
    pub num_walkers: u64,
    /// Number of engine supersteps the walkers are allowed (`t` in the paper, called
    /// "iterations" in the evaluation; 3–5 in the experiments, 4 by default).
    pub iterations: usize,
    /// Mirror synchronization probability `p_s` (1.0 = unmodified engine; below it, the
    /// at-least-one-out-edge erasure model the paper's experiments run).
    pub sync_probability: f64,
    /// Use the binomial per-edge scatter described in the paper's vertex program
    /// (`x ~ Bin(K(i), 1/(d_out(i) p_s))`). When `false` (the default, matching the
    /// paper's actual implementation) the surviving walkers are split deterministically
    /// across the participating replicas and spread uniformly over their local
    /// out-edges.
    pub binomial_scatter: bool,
    /// Seed for walker placement and all engine randomness.
    pub seed: u64,
    /// Delta-gating threshold: a vertex whose live-walker count after apply is at or
    /// below this value skips synchronization and scatter and drops out of the
    /// frontier (its walkers park in place and still count toward the estimator).
    /// `0.0` (the default) disables gating and reproduces the ungated engine
    /// bit-for-bit.
    pub tolerance: f64,
}

impl Default for FrogWildConfig {
    fn default() -> Self {
        FrogWildConfig {
            num_walkers: 800_000,
            iterations: 4,
            sync_probability: 1.0,
            binomial_scatter: false,
            seed: 0xF209,
            tolerance: 0.0,
        }
    }
}

impl FrogWildConfig {
    /// Validates the configuration, returning the first problem found as a typed
    /// [`Error::InvalidConfig`].
    pub fn validate(&self) -> Result<(), Error> {
        if self.num_walkers == 0 {
            return Err(Error::config(
                "FrogWildConfig",
                "num_walkers must be positive",
            ));
        }
        if self.iterations == 0 {
            return Err(Error::config(
                "FrogWildConfig",
                "iterations must be positive",
            ));
        }
        if !in_half_open_unit_interval(self.sync_probability) {
            return Err(Error::config(
                "FrogWildConfig",
                format!(
                    "sync_probability must be in (0, 1], got {}",
                    self.sync_probability
                ),
            ));
        }
        if !self.tolerance.is_finite() || self.tolerance < 0.0 {
            return Err(Error::config(
                "FrogWildConfig",
                format!(
                    "tolerance must be finite and non-negative, got {}",
                    self.tolerance
                ),
            ));
        }
        Ok(())
    }
}

/// Unified execution configuration for the engine: the size of the worker pool
/// (`workers`) and the bounded-`staleness` asynchrony knob — one builder threaded
/// through
/// [`SessionBuilder::execution`](crate::session::SessionBuilder::execution) and the
/// drivers ([`run_frogwild`](crate::driver::run_frogwild),
/// [`run_graphlab_pr`](crate::driver::run_graphlab_pr)). Every value of every field
/// is meaningful, so there is nothing to validate. The delta-gating threshold is not
/// here: it belongs to the algorithm ([`FrogWildConfig::tolerance`],
/// [`PageRankConfig::tolerance`]).
///
/// # Determinism contract
///
/// `workers` never changes results — only how the work spreads over host threads.
/// `staleness` *does* change results (messages arrive late), but deterministically:
/// for a fixed staleness bound the output is bit-identical across every worker count,
/// and `staleness = 0` (the default) reproduces the synchronous executor bit-for-bit.
///
/// ```
/// use frogwild::config::ExecutionConfig;
///
/// let exec = ExecutionConfig::new().workers(4).staleness(1);
/// assert_eq!(exec.workers, 4);
/// assert_eq!(exec.staleness, 1);
/// ```
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecutionConfig {
    /// Threads serving every engine run's phase work units, FrogWild's and
    /// PageRank's alike: `1` (the default) is the calling thread, `n > 1` a pool of
    /// `n` capped at the host's available parallelism, and `0` a pool exactly as wide
    /// as the host (see [`EngineConfig::workers`](frogwild_engine::EngineConfig::workers)).
    ///
    /// The pool pays at the paper's operating point, walkers ≪ vertices: the
    /// `fw_topk_sweep` benchmark (20 000 walkers on 100 000 vertices, two cores) read
    /// 16.4 ms per query pooled against 21.1 ms serial, for 5.2 MiB more peak memory.
    pub workers: usize,
    /// Bounded staleness for inter-machine messages, in supersteps. `0` (the
    /// default) is fully synchronous BSP; `s > 0` lets machines overlap supersteps
    /// up to `s` deep with deterministically delayed message delivery. See
    /// [`EngineConfig::staleness`](frogwild_engine::EngineConfig::staleness).
    pub staleness: usize,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            workers: 1,
            staleness: 0,
        }
    }
}

impl ExecutionConfig {
    /// The default configuration: synchronous execution on the calling thread.
    pub fn new() -> Self {
        ExecutionConfig::default()
    }

    /// Sets the worker-pool size (`1` = the calling thread, `0` = as wide as the host).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the bounded-staleness asynchrony level, in supersteps.
    #[must_use]
    pub fn staleness(mut self, staleness: usize) -> Self {
        self.staleness = staleness;
        self
    }
}

/// Configuration of the baseline GraphLab-style PageRank run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PageRankConfig {
    /// Maximum number of iterations. The paper compares against "exact" (run to
    /// convergence), 2-iteration and 1-iteration variants.
    pub max_iterations: usize,
    /// Per-vertex convergence tolerance: a vertex stops signalling its neighbours once
    /// its rank changes by less than this amount (GraphLab's `TOLERANCE` option).
    pub tolerance: f64,
    /// Seed of the engine run ([`EngineConfig::seed`](frogwild_engine::EngineConfig::seed)).
    /// It does not place the graph: the session's seed partitions it. It keys the
    /// bounded-staleness delays, so at [`ExecutionConfig::staleness`] `> 0` it changes the
    /// ranks; at staleness 0 PageRank is deterministic and the seed has no effect.
    pub seed: u64,
    /// Run on the [`ExecutionConfig::workers`] pool (the default) instead of the
    /// calling thread. Results are bit-identical either way. Only frogbench's
    /// `pr_dense` workload still names this field; once it sizes PageRank's pool
    /// through `workers` alone, the field goes.
    pub parallel: bool,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            max_iterations: 100,
            tolerance: 1e-3,
            seed: 0xF209,
            parallel: true,
        }
    }
}

impl PageRankConfig {
    /// The "exact" configuration used as the paper's accuracy reference: run until
    /// every vertex's rank is stable to within a tight tolerance.
    pub fn exact() -> Self {
        PageRankConfig {
            max_iterations: 100,
            tolerance: 1e-9,
            ..PageRankConfig::default()
        }
    }

    /// The truncated variant the paper uses as its fast baseline (`iterations` is 1 or
    /// 2 in the figures).
    pub fn truncated(iterations: usize) -> Self {
        PageRankConfig {
            max_iterations: iterations,
            tolerance: 0.0,
            ..PageRankConfig::default()
        }
    }

    /// Validates the configuration, returning the first problem found as a typed
    /// [`Error::InvalidConfig`].
    pub fn validate(&self) -> Result<(), Error> {
        if self.max_iterations == 0 {
            return Err(Error::config(
                "PageRankConfig",
                "max_iterations must be positive",
            ));
        }
        if !self.tolerance.is_finite() || self.tolerance < 0.0 {
            return Err(Error::config(
                "PageRankConfig",
                format!(
                    "tolerance must be finite and non-negative, got {}",
                    self.tolerance
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_headline_setting() {
        let c = FrogWildConfig::default();
        assert_eq!(c.num_walkers, 800_000);
        assert_eq!(c.iterations, 4);
        assert_eq!(c.sync_probability, 1.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn frogwild_validation_rejects_bad_values() {
        let mut c = FrogWildConfig {
            num_walkers: 0,
            ..FrogWildConfig::default()
        };
        assert!(c.validate().is_err());
        c.num_walkers = 1;
        c.iterations = 0;
        assert!(c.validate().is_err());
        c.iterations = 1;
        c.sync_probability = 0.0;
        assert!(c.validate().is_err());
        c.sync_probability = 1.1;
        assert!(c.validate().is_err());
        c.sync_probability = 0.7;
        c.tolerance = -1.0;
        assert!(c.validate().is_err());
        c.tolerance = f64::NAN;
        assert!(c.validate().is_err());
        c.tolerance = 2.0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn execution_config_builder_and_conversion() {
        let exec = ExecutionConfig::new().workers(3).staleness(2);
        assert_eq!(exec.workers, 3);
        assert_eq!(exec.staleness, 2);

        // The defaults run synchronously on the calling thread.
        let default = ExecutionConfig::new();
        assert_eq!((default.workers, default.staleness), (1, 0));
    }

    #[test]
    fn pagerank_presets() {
        let exact = PageRankConfig::exact();
        assert!(exact.tolerance < 1e-6);
        assert!(exact.validate().is_ok());
        let two = PageRankConfig::truncated(2);
        assert_eq!(two.max_iterations, 2);
        assert_eq!(two.tolerance, 0.0);
        assert!(two.validate().is_ok());
    }

    #[test]
    fn pagerank_validation() {
        let mut c = PageRankConfig::default();
        assert!(c.validate().is_ok());
        c.max_iterations = 0;
        assert!(c.validate().is_err());
        c.max_iterations = 5;
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            c.tolerance = bad;
            assert!(c.validate().is_err(), "tolerance {bad} accepted");
        }
        c.tolerance = 0.0;
        assert!(c.validate().is_ok());
    }
}
