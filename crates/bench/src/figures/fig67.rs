//! Figures 6 and 7: the LiveJournal-shaped experiments on a 20-machine cluster.
//!
//! Figure 6 sweeps (a) the number of initial walkers at 4 iterations and (b) the number
//! of iterations at the baseline walker count, reporting mass captured (k = 100); (c)
//! and (d) report the corresponding total running times. Figure 7 plots the same
//! accuracy against (a) total time and (b) network bytes for
//! iterations ∈ {3, 4, 5} × p_s ∈ {0.1, 0.4, 0.7, 1} plus the PR baselines.

use super::{accuracy, PS_SWEEP};
use crate::report::{fmt_f64, Table};
use crate::workloads::{livejournal_workload, Scale};
use frogwild::prelude::*;

/// k used by the LiveJournal figures.
pub const K: usize = 100;
/// Iteration sweep of Figure 6(b)/(d).
pub const ITERATION_SWEEP: [usize; 5] = [2, 3, 4, 5, 6];

/// Runs the Figure 6 and 7 sweeps.
pub fn run(scale: &Scale) -> Vec<Table> {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    let workload = livejournal_workload(scale);
    let machines = scale
        .machine_counts
        .iter()
        .copied()
        .find(|&m| m >= 20)
        .unwrap_or_else(|| *scale.machine_counts.last().unwrap_or(&20));
    let cluster = ClusterConfig::new(machines, scale.seed);
    let pg = partition_graph(&workload.graph, &cluster);

    // ---------------------------------------------------------------- Figure 6(a)/(c)
    let mut walkers_acc = Table::new(
        format!(
            "Figure 6(a): accuracy vs number of walkers ({}, {} machines, 4 iters, k={K})",
            workload.name, machines
        ),
        &["walkers", "ps", "mass_captured_k100"],
    );
    let mut walkers_time = Table::new(
        "Figure 6(c): total time vs number of walkers",
        &["walkers", "ps", "total_time_s"],
    );
    for &walkers in &scale.walker_sweep() {
        for &ps in &PS_SWEEP {
            let report = run_frogwild(
                &pg,
                &FrogWildConfig {
                    num_walkers: walkers,
                    iterations: 4,
                    sync_probability: ps,
                    ..FrogWildConfig::default()
                },
                &exec,
                &off,
            )
            .expect("valid figure configuration");
            let mass = accuracy(&report, &workload.truth, K);
            walkers_acc.push_row(vec![walkers.to_string(), ps.to_string(), fmt_f64(mass)]);
            walkers_time.push_row(vec![
                walkers.to_string(),
                ps.to_string(),
                fmt_f64(report.cost.simulated_seconds),
            ]);
        }
    }

    // ---------------------------------------------------------------- Figure 6(b)/(d)
    let mut iters_acc = Table::new(
        format!(
            "Figure 6(b): accuracy vs number of iterations ({} walkers, k={K})",
            scale.walkers
        ),
        &["iterations", "ps", "mass_captured_k100"],
    );
    let mut iters_time = Table::new(
        "Figure 6(d): total time vs number of iterations",
        &["iterations", "ps", "total_time_s"],
    );
    for &iterations in &ITERATION_SWEEP {
        for &ps in &PS_SWEEP {
            let report = run_frogwild(
                &pg,
                &FrogWildConfig {
                    num_walkers: scale.walkers,
                    iterations,
                    sync_probability: ps,
                    ..FrogWildConfig::default()
                },
                &exec,
                &off,
            )
            .expect("valid figure configuration");
            let mass = accuracy(&report, &workload.truth, K);
            iters_acc.push_row(vec![iterations.to_string(), ps.to_string(), fmt_f64(mass)]);
            iters_time.push_row(vec![
                iterations.to_string(),
                ps.to_string(),
                fmt_f64(report.cost.simulated_seconds),
            ]);
        }
    }

    // -------------------------------------------------------------------- Figure 7
    let mut tradeoff = Table::new(
        format!(
            "Figure 7: accuracy vs total time and network ({}, {} machines, {} walkers, k={K})",
            workload.name, machines, scale.walkers
        ),
        &[
            "algorithm",
            "iterations",
            "ps",
            "mass_captured_k100",
            "total_time_s",
            "network_bytes",
        ],
    );
    for (label, config) in [
        ("GraphLab PR 1 iters", PageRankConfig::truncated(1)),
        ("GraphLab PR 2 iters", PageRankConfig::truncated(2)),
        (
            "GraphLab PR exact",
            PageRankConfig {
                max_iterations: scale.exact_pr_iterations,
                tolerance: 1e-9,
                ..PageRankConfig::default()
            },
        ),
    ] {
        let report =
            run_graphlab_pr(&pg, &config, &exec, &off).expect("valid figure configuration");
        let mass = accuracy(&report, &workload.truth, K);
        tradeoff.push_row(vec![
            label.to_string(),
            config.max_iterations.to_string(),
            "-".into(),
            fmt_f64(mass),
            fmt_f64(report.cost.simulated_seconds),
            report.cost.network_bytes.to_string(),
        ]);
    }
    for iterations in [3usize, 4, 5] {
        for &ps in &PS_SWEEP {
            let report = run_frogwild(
                &pg,
                &FrogWildConfig {
                    num_walkers: scale.walkers,
                    iterations,
                    sync_probability: ps,
                    ..FrogWildConfig::default()
                },
                &exec,
                &off,
            )
            .expect("valid figure configuration");
            let mass = accuracy(&report, &workload.truth, K);
            tradeoff.push_row(vec![
                "FrogWild".into(),
                iterations.to_string(),
                ps.to_string(),
                fmt_f64(mass),
                fmt_f64(report.cost.simulated_seconds),
                report.cost.network_bytes.to_string(),
            ]);
        }
    }

    vec![walkers_acc, iters_acc, walkers_time, iters_time, tradeoff]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig67_produces_all_five_tables() {
        let scale = Scale::tiny();
        let tables = run(&scale);
        assert_eq!(tables.len(), 5);
        // 6(a): walker sweep × ps sweep
        assert_eq!(tables[0].len(), scale.walker_sweep().len() * PS_SWEEP.len());
        // 6(b): iteration sweep × ps sweep
        assert_eq!(tables[1].len(), ITERATION_SWEEP.len() * PS_SWEEP.len());
        // Figure 7: 3 PR baselines + 3 × 4 FrogWild points
        assert_eq!(tables[4].len(), 3 + 12);
    }
}
