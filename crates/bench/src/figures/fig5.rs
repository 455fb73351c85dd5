//! Figure 5: FrogWild versus the uniform-sparsification baseline on the Twitter-shaped
//! graph, 12 machines.
//!
//! The baseline deletes each edge with probability `1 - q` and runs two iterations of
//! GraphLab PR on the thinner graph; FrogWild runs 4 iterations with matching
//! `p_s = q`. The figure plots mass captured (k = 100) against total running time for
//! q / p_s ∈ {0.4, 0.7, 1}.

use super::{accuracy, frogwild};
use crate::report::{fmt_f64, Table};
use crate::workloads::{Algorithm, Dataset, Experiment, Lab};
use frogwild::prelude::*;

/// k used by the figure.
pub const K: usize = 100;

/// Runs the Figure 5 comparison.
pub fn run(lab: &mut Lab) -> Vec<Table> {
    let scale = lab.scale().clone();
    let workload = lab.workload(Dataset::Twitter);
    let machines = *scale.machine_counts.first().unwrap_or(&12);

    let mut table = Table::new(
        format!(
            "Figure 5: FrogWild vs uniform sparsification ({}, {} machines, {} walkers, k={K})",
            workload.name, machines, scale.walkers
        ),
        &[
            "algorithm",
            "q_or_ps",
            "mass_captured_k100",
            "total_time_s",
            "time_per_iter_s",
            "network_bytes",
        ],
    );

    // Two iterations: one would only measure in-degree, which is known at load time.
    let config = PageRankConfig {
        seed: scale.seed,
        ..PageRankConfig::truncated(2)
    };
    let levels = [0.4, 0.7, 1.0];
    let sparsified = levels.map(|keep_probability| {
        let algorithm = Algorithm::Sparsified {
            keep_probability,
            config,
        };
        (
            "Sparsified GraphLab PR 2 iters",
            keep_probability,
            algorithm,
        )
    });
    let frogwilds = levels.map(|ps| {
        let config = frogwild(scale.walkers, 4, ps);
        ("FrogWild 4 iters", ps, Algorithm::FrogWild(config))
    });
    for (label, q_or_ps, algorithm) in sparsified.into_iter().chain(frogwilds) {
        let report = lab.run(Experiment::new(Dataset::Twitter, machines, algorithm));
        table.push_row(vec![
            label.to_string(),
            q_or_ps.to_string(),
            fmt_f64(accuracy(&report, &workload.truth, K)),
            fmt_f64(report.cost.simulated_seconds),
            fmt_f64(report.cost.seconds_per_iteration()),
            report.cost.network_bytes.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Scale;

    #[test]
    fn fig5_produces_both_families() {
        let tables = run(&mut Lab::new(Scale::tiny()));
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 6);
        let frogwild_rows = tables[0]
            .rows
            .iter()
            .filter(|r| r[0].starts_with("FrogWild"))
            .count();
        assert_eq!(frogwild_rows, 3);
    }

    #[test]
    fn fig5_frogwild_is_cheaper_per_iteration_and_on_the_network() {
        // The paper's total-time gap needs per-superstep work to dominate the
        // per-superstep barrier, which only happens at the harness scales (small /
        // medium). At tiny scale the claim that survives is the per-iteration cost and
        // the network traffic — both strictly lower for FrogWild at matching q = p_s.
        let tables = run(&mut Lab::new(Scale::tiny()));
        let rows = &tables[0].rows;
        let cell = |algo_prefix: &str, q: &str, col: usize| -> f64 {
            rows.iter()
                .find(|r| r[0].starts_with(algo_prefix) && r[1] == q)
                .unwrap()[col]
                .parse()
                .unwrap()
        };
        assert!(cell("FrogWild", "0.7", 4) < cell("Sparsified", "0.7", 4));
        assert!(cell("FrogWild", "0.7", 5) < cell("Sparsified", "0.7", 5));
    }
}
