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
pub mod qps;
pub mod staleness;
pub mod stragglers;
pub mod theory_check;
pub mod trace;
pub mod walkindex;

use crate::report::fmt_f64;
use frogwild::driver::RunReport;
use frogwild::metrics::{exact_identification, mass_captured};

/// Accuracy of a run against a reference distribution, at top-`k`.
pub(crate) fn accuracy(report: &RunReport, truth: &[f64], k: usize) -> (f64, f64) {
    (
        mass_captured(&report.estimate, truth, k).normalized(),
        exact_identification(&report.estimate, truth, k),
    )
}

/// A standard cost/accuracy row used by figure extensions and ad-hoc experiments:
/// `[label, mass@k, time/iter, total time, network bytes, cpu seconds]`.
pub fn cost_row(label: &str, report: &RunReport, truth: &[f64], k: usize) -> Vec<String> {
    let (mass, _) = accuracy(report, truth, k);
    vec![
        label.to_string(),
        fmt_f64(mass),
        fmt_f64(report.cost.seconds_per_iteration()),
        fmt_f64(report.cost.simulated_seconds),
        report.cost.network_bytes.to_string(),
        fmt_f64(report.cost.simulated_cpu_seconds),
    ]
}

/// The column headers matching [`cost_row`].
pub const COST_COLUMNS: [&str; 6] = [
    "algorithm",
    "mass@k",
    "time_per_iter_s",
    "total_time_s",
    "network_bytes",
    "cpu_s",
];

/// The `p_s` sweep the paper uses everywhere.
pub(crate) const PS_SWEEP: [f64; 4] = [1.0, 0.7, 0.4, 0.1];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{twitter_workload, Scale};
    use frogwild::prelude::*;

    #[test]
    fn cost_row_has_matching_arity() {
        let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
        let scale = Scale::tiny();
        let w = twitter_workload(&scale);
        let report = frogwild::driver::run_frogwild(
            &frogwild::driver::partition_graph(&w.graph, &ClusterConfig::new(4, 1)),
            &FrogWildConfig {
                num_walkers: 5_000,
                iterations: 3,
                ..FrogWildConfig::default()
            },
            &exec,
            &off,
        )
        .unwrap();
        let row = cost_row("test", &report, &w.truth, 20);
        assert_eq!(row.len(), COST_COLUMNS.len());
        let (mass, ident) = accuracy(&report, &w.truth, 20);
        assert!((0.0..=1.0 + 1e-9).contains(&mass));
        assert!((0.0..=1.0).contains(&ident));
    }
}
