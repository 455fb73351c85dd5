//! Self-tuning top-k queries: pilot run → walker-budget plan → full run.
//!
//! Remark 6 sizes the walker budget in terms of `µ_k(π)` — the very quantity a user
//! does not know before running anything. This module packages the practical workflow:
//!
//! 1. a **pilot** FrogWild run with a deliberately small walker budget produces a rough
//!    estimate of the top-k mass (cheap: the pilot's network cost is proportional to its
//!    walker count, Figure 8);
//! 2. the pilot estimate feeds the Theorem 1 / Remark 6 planning rules
//!    ([`crate::confidence::plan_walkers`], [`crate::theory::recommended_iterations`]);
//! 3. the **planned** run executes with the derived budget.
//!
//! The [`AutoTuneReport`] keeps the pilot, the planned budget and the final run
//! together so the caller can audit what the tuner decided and how much the pilot cost.

use frogwild_engine::PartitionedGraph;
use frogwild_obs::Tracer;

use crate::confidence::plan_walkers;
use crate::config::{
    in_half_open_unit_interval, in_open_unit_interval, ExecutionConfig, FrogWildConfig, TELEPORT,
};
use crate::driver::{run_frogwild, RunReport};
use crate::error::Error;
use crate::theory::recommended_iterations;

/// Tuning knobs for [`auto_topk_on`]. The defaults are deliberately conservative; every
/// field can be overridden with struct-update syntax.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AutoTuneConfig {
    /// Number of vertices the caller ultimately wants ranked (the `k` of top-k).
    pub k: usize,
    /// Tolerated captured-mass loss of the final run (the ε budget of Theorem 1's
    /// sampling term).
    pub mass_loss_target: f64,
    /// Tolerated failure probability (the δ of Theorem 1).
    pub failure_probability: f64,
    /// Walkers used by the pilot run.
    pub pilot_walkers: u64,
    /// Mirror-synchronization probability used for both runs.
    pub sync_probability: f64,
    /// Hard cap on the planned walker budget (protects against a pilot that estimates a
    /// vanishing top-k mass, which would make Remark 6 ask for an astronomical budget).
    pub max_walkers: u64,
    /// Seed for the pilot and the final run.
    pub seed: u64,
}

impl Default for AutoTuneConfig {
    fn default() -> Self {
        AutoTuneConfig {
            k: 100,
            mass_loss_target: 0.05,
            failure_probability: 0.1,
            pilot_walkers: 10_000,
            sync_probability: 0.7,
            max_walkers: 5_000_000,
            seed: 0xA070,
        }
    }
}

impl AutoTuneConfig {
    /// Validates the configuration, returning the first problem found as a typed
    /// [`Error::InvalidConfig`].
    pub fn validate(&self) -> Result<(), Error> {
        const CTX: &str = "AutoTuneConfig";
        if self.k == 0 {
            return Err(Error::config(CTX, "k must be positive"));
        }
        if !self.mass_loss_target.is_finite() || self.mass_loss_target <= 0.0 {
            return Err(Error::config(
                CTX,
                "mass_loss_target must be finite and positive",
            ));
        }
        if !in_open_unit_interval(self.failure_probability) {
            return Err(Error::config(CTX, "failure_probability must be in (0, 1)"));
        }
        if self.pilot_walkers == 0 {
            return Err(Error::config(CTX, "pilot must use at least one walker"));
        }
        if !in_half_open_unit_interval(self.sync_probability) {
            return Err(Error::config(CTX, "sync_probability must be in (0, 1]"));
        }
        if self.max_walkers < self.pilot_walkers {
            return Err(Error::config(
                CTX,
                "max_walkers must be at least pilot_walkers",
            ));
        }
        Ok(())
    }
}

/// Everything the tuner did: the pilot run, the derived plan, and the final run.
#[derive(Clone, Debug)]
pub struct AutoTuneReport {
    /// The cheap pilot run.
    pub pilot: RunReport,
    /// The top-k mass the pilot estimated (input to the planning rules).
    pub estimated_topk_mass: f64,
    /// The walker budget actually used (the plan's Theorem-1 term, clamped to
    /// `[pilot_walkers, max_walkers]`).
    pub planned_walkers: u64,
    /// The iteration count actually used.
    pub planned_iterations: usize,
    /// The final run.
    pub run: RunReport,
}

/// Supersteps the pilot run uses, and the floor of the planned iteration count.
const PILOT_ITERATIONS: usize = 3;
/// Hard cap on the planned iteration count.
const MAX_ITERATIONS: usize = 8;

/// Runs the pilot → plan → run pipeline on an already partitioned graph; both engine
/// runs execute under `execution` and record their spans into `tracer`, exactly like
/// a direct [`run_frogwild`] call.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when either configuration fails validation.
pub fn auto_topk_on(
    pg: &PartitionedGraph,
    config: &AutoTuneConfig,
    execution: &ExecutionConfig,
    tracer: &Tracer,
) -> Result<AutoTuneReport, Error> {
    config.validate()?;

    // ------------------------------------------------------------------ 1. pilot
    let pilot = run_frogwild(
        pg,
        &FrogWildConfig {
            num_walkers: config.pilot_walkers,
            iterations: PILOT_ITERATIONS,
            sync_probability: config.sync_probability,
            seed: config.seed ^ 0x9107,
            ..FrogWildConfig::default()
        },
        execution,
        tracer,
    )?;
    let pilot_top = pilot.top_k(config.k);
    let estimated_topk_mass: f64 = pilot_top
        .iter()
        // lint:allow(indexing, vertex ids come from the pilot response over this estimate)
        .map(|&v| pilot.estimate[v as usize])
        .sum::<f64>()
        // Guard against a degenerate pilot (e.g. every walker died on one vertex).
        .clamp(1e-6, 1.0);

    // ------------------------------------------------------------------ 2. plan
    let plan = plan_walkers(
        config.k,
        pg.num_vertices(),
        estimated_topk_mass,
        config.mass_loss_target,
        config.failure_probability,
    );
    let planned_walkers = plan
        .walkers_for_mass
        .clamp(config.pilot_walkers, config.max_walkers);
    let planned_iterations = recommended_iterations(TELEPORT, estimated_topk_mass)
        .clamp(PILOT_ITERATIONS, MAX_ITERATIONS);

    // ------------------------------------------------------------------ 3. run
    let run = run_frogwild(
        pg,
        &FrogWildConfig {
            num_walkers: planned_walkers,
            iterations: planned_iterations,
            sync_probability: config.sync_probability,
            seed: config.seed,
            ..FrogWildConfig::default()
        },
        execution,
        tracer,
    )?;

    Ok(AutoTuneReport {
        pilot,
        estimated_topk_mass,
        planned_walkers,
        planned_iterations,
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::partition_graph;
    use crate::metrics::mass_captured;
    use crate::reference::exact_pagerank;
    use frogwild_engine::ClusterConfig;
    use frogwild_graph::generators::{rmat, RmatParams};
    use frogwild_graph::DiGraph;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_graph(n: usize) -> DiGraph {
        let mut rng = SmallRng::seed_from_u64(99);
        rmat(n, RmatParams::default(), &mut rng)
    }

    #[test]
    fn defaults_are_valid() {
        assert!(AutoTuneConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let base = AutoTuneConfig::default();
        assert!(AutoTuneConfig { k: 0, ..base }.validate().is_err());
        for bad in [0.0, f64::NAN, f64::INFINITY] {
            let c = AutoTuneConfig {
                mass_loss_target: bad,
                ..base
            };
            assert!(c.validate().is_err(), "mass_loss_target {bad} accepted");
        }
        assert!(AutoTuneConfig {
            failure_probability: 1.0,
            ..base
        }
        .validate()
        .is_err());
        assert!(AutoTuneConfig {
            pilot_walkers: 0,
            ..base
        }
        .validate()
        .is_err());
        assert!(AutoTuneConfig {
            sync_probability: 0.0,
            ..base
        }
        .validate()
        .is_err());
        assert!(AutoTuneConfig {
            max_walkers: 10,
            pilot_walkers: 100,
            ..base
        }
        .validate()
        .is_err());
    }

    #[test]
    fn auto_topk_improves_on_the_pilot_and_hits_the_target() {
        let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
        let graph = test_graph(600);
        let truth = exact_pagerank(&graph, 0.15, 200, 1e-12);
        let cluster = ClusterConfig::new(8, 3);
        let config = AutoTuneConfig {
            k: 30,
            pilot_walkers: 2_000,
            max_walkers: 300_000,
            mass_loss_target: 0.05,
            ..AutoTuneConfig::default()
        };
        let report =
            auto_topk_on(&partition_graph(&graph, &cluster), &config, &exec, &off).unwrap();

        assert!(report.planned_walkers >= config.pilot_walkers);
        assert!(report.planned_walkers <= config.max_walkers);
        assert!((PILOT_ITERATIONS..=MAX_ITERATIONS).contains(&report.planned_iterations));
        assert!(report.estimated_topk_mass > 0.0 && report.estimated_topk_mass <= 1.0);

        let pilot_mass =
            mass_captured(&report.pilot.estimate, &truth.scores, config.k).normalized();
        let final_mass = mass_captured(&report.run.estimate, &truth.scores, config.k).normalized();
        assert!(
            final_mass >= pilot_mass - 0.02,
            "final {final_mass} vs pilot {pilot_mass}"
        );
        assert!(final_mass > 0.9, "final mass {final_mass}");
        // The tuner spent more effort on the final run than on the pilot.
        assert!(report.run.cost.network_bytes >= report.pilot.cost.network_bytes);
    }

    #[test]
    fn caps_are_respected_when_the_pilot_sees_tiny_mass() {
        let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
        // A near-uniform graph: the top-k mass is tiny, so the un-capped plan would ask
        // for far more walkers than max_walkers.
        let graph = frogwild_graph::generators::simple::cycle(2_000);
        let cluster = ClusterConfig::new(4, 1);
        let config = AutoTuneConfig {
            k: 20,
            pilot_walkers: 1_000,
            max_walkers: 50_000,
            ..AutoTuneConfig::default()
        };
        let report =
            auto_topk_on(&partition_graph(&graph, &cluster), &config, &exec, &off).unwrap();
        assert_eq!(report.planned_walkers, 50_000);
        assert_eq!(report.planned_iterations, MAX_ITERATIONS);
    }
}
