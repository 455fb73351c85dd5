//! One module per figure of the paper's evaluation section.
//!
//! Every module exposes `run(scale) -> Vec<Table>`; the tables contain exactly the
//! series the corresponding figure plots (same sweeps, same legends), with absolute
//! numbers coming from the simulated cost model instead of the authors' EC2 cluster.

pub mod ablation;
pub mod estimator;
pub mod fig1;
pub mod fig2;
pub mod fig34;
pub mod fig5;
pub mod fig67;
pub mod fig8;
pub mod staleness;
pub mod stragglers;
pub mod theory_check;

use frogwild::driver::RunReport;
use frogwild::metrics::mass_captured;

/// Normalized mass captured by a run's top-`k` against a reference distribution.
pub(crate) fn accuracy(report: &RunReport, truth: &[f64], k: usize) -> f64 {
    mass_captured(&report.estimate, truth, k).normalized()
}

/// The `p_s` sweep the paper uses everywhere.
pub(crate) const PS_SWEEP: [f64; 4] = [1.0, 0.7, 0.4, 0.1];
