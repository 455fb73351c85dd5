//! Figures 6 and 7: the LiveJournal-shaped experiments on a 20-machine cluster.
//!
//! Figure 6 sweeps (a) the number of initial walkers at 4 iterations and (b) the number
//! of iterations at the baseline walker count, reporting mass captured (k = 100); (c)
//! and (d) report the corresponding total running times. Figure 7 plots the same
//! accuracy against (a) total time and (b) network bytes for
//! iterations ∈ {3, 4, 5} × p_s ∈ {0.1, 0.4, 0.7, 1} plus the PR baselines.

use super::{accuracy, frogwild, livejournal_cluster, tradeoff_table, PS_SWEEP};
use crate::report::{fmt_f64, Table};
use crate::workloads::{Dataset, Experiment, Lab};

/// k used by the LiveJournal figures.
pub const K: usize = 100;
/// Iteration sweep of Figure 6(b)/(d).
pub const ITERATION_SWEEP: [usize; 5] = [2, 3, 4, 5, 6];

/// Runs the Figure 6 and 7 sweeps.
pub fn run(lab: &mut Lab) -> Vec<Table> {
    let scale = lab.scale().clone();
    let machines = livejournal_cluster(&scale);

    let workload = lab.workload(Dataset::LiveJournal);
    let name = workload.name;
    let panel = |title: &str, axis, column| Table::new(title, &[axis, "ps", column]);
    let mut figure6 = [
        panel(
            &format!("Figure 6(a): accuracy vs number of walkers ({name}, {machines} machines, 4 iters, k={K})"),
            "walkers",
            "mass_captured_k100",
        ),
        panel(
            &format!(
                "Figure 6(b): accuracy vs number of iterations ({} walkers, k={K})",
                scale.walkers
            ),
            "iterations",
            "mass_captured_k100",
        ),
        panel("Figure 6(c): total time vs number of walkers", "walkers", "total_time_s"),
        panel("Figure 6(d): total time vs number of iterations", "iterations", "total_time_s"),
    ];
    // Each sweep's points: (the swept value, walkers, iterations).
    let walker_points = scale
        .walker_sweep()
        .into_iter()
        .map(|w| (w, w, 4))
        .collect();
    let iteration_points = ITERATION_SWEEP
        .map(|i| (i as u64, scale.walkers, i))
        .to_vec();
    let sweeps: [Vec<(u64, u64, usize)>; 2] = [walker_points, iteration_points];
    for (sweep, points) in sweeps.into_iter().enumerate() {
        for (x, walkers, iterations) in points {
            for ps in PS_SWEEP {
                let config = frogwild(walkers, iterations, ps);
                let report = lab.run(Experiment::new(Dataset::LiveJournal, machines, config));
                let mass = accuracy(&report, &workload.truth, K);
                let seconds = report.cost.simulated_seconds;
                figure6[sweep].push_row(vec![x.to_string(), ps.to_string(), fmt_f64(mass)]);
                figure6[sweep + 2].push_row(vec![x.to_string(), ps.to_string(), fmt_f64(seconds)]);
            }
        }
    }
    let title = format!(
        "Figure 7: accuracy vs total time and network ({name}, {machines} machines, {} walkers, k={K})",
        scale.walkers
    );
    let figure7 = tradeoff_table(lab, Dataset::LiveJournal, machines, title);
    figure6.into_iter().chain([figure7]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Scale;

    #[test]
    fn fig67_produces_all_five_tables() {
        let scale = Scale::tiny();
        let tables = run(&mut Lab::new(scale.clone()));
        assert_eq!(tables.len(), 5);
        // 6(a): walker sweep × ps sweep
        assert_eq!(tables[0].len(), scale.walker_sweep().len() * PS_SWEEP.len());
        // 6(b): iteration sweep × ps sweep
        assert_eq!(tables[1].len(), ITERATION_SWEEP.len() * PS_SWEEP.len());
        // Figure 7: 3 PR baselines + 3 × 4 FrogWild points
        assert_eq!(tables[4].len(), 3 + 12);
    }
}
