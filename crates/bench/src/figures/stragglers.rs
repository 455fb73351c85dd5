//! Straggler-sensitivity study: how much does one slow machine hurt each algorithm?
//!
//! Not a paper figure. Both FrogWild and the baseline PageRank run on a *synchronous*
//! engine here, so every superstep waits for the slowest machine. The paper's evaluation
//! uses homogeneous EC2 instances; in practice clusters are rarely uniform, and the
//! question a deployment cares about is how gracefully each algorithm degrades when one
//! machine is slow (noisy neighbour, failing disk, background compaction…).
//!
//! Every superstep's record keeps its per-machine work and traffic
//! ([`frogwild_engine::SuperstepMetrics`]), so one recorded run can be *re-priced*
//! under any straggler scenario without re-executing:
//! [`frogwild_engine::RunMetrics::reprice`] replays the run's own simulated clock with
//! machine 0's compute and transfer slowed, and at nominal speeds gives back the run's
//! `simulated_seconds`. The table reports the slowdown factor of total simulated time
//! when machine 0 runs 2× / 4× / 8× slower, for exact PageRank, 2-iteration PageRank
//! and FrogWild at `p_s ∈ {1, 0.4}`.

use super::{frogwild, mid_cluster, paper_series};
use crate::report::{fmt_f64, Table};
use crate::workloads::{Algorithm, Dataset, Experiment, Lab};
use frogwild::prelude::*;

/// The straggler slowdown factors applied to machine 0.
const SLOWDOWNS: [f64; 3] = [2.0, 4.0, 8.0];

/// Runs the straggler-sensitivity table.
pub fn run(lab: &mut Lab) -> Vec<Table> {
    let scale = lab.scale().clone();
    let machines = mid_cluster(&scale);

    let mut table = Table::new(
        format!(
            "Ablation F: straggler sensitivity ({}, {} machines, machine 0 slowed)",
            lab.workload(Dataset::Twitter).name,
            machines
        ),
        &[
            "algorithm",
            "work_imbalance",
            "nominal_time_s",
            "slowdown_2x",
            "slowdown_4x",
            "slowdown_8x",
        ],
    );

    // GraphLab PR exact and 2 iterations, then FrogWild at p_s = 1 and 0.4.
    let baselines = paper_series(&scale).into_iter().take(2);
    let frogwilds = [1.0, 0.4].map(|ps| {
        let config = FrogWildConfig {
            seed: scale.seed,
            ..frogwild(scale.walkers, 4, ps)
        };
        (format!("FrogWild ps={ps}"), Algorithm::FrogWild(config))
    });
    for (label, algorithm) in baselines.chain(frogwilds) {
        let report = lab.run(Experiment::new(Dataset::Twitter, machines, algorithm));
        let nominal = report.cost.simulated_seconds;
        let mut row = vec![
            label,
            fmt_f64(report.metrics.work_imbalance()),
            fmt_f64(nominal),
        ];
        for &slow in &SLOWDOWNS {
            let mut speeds = vec![1.0; machines];
            speeds[0] = slow;
            let degraded = report.metrics.reprice(&speeds);
            row.push(fmt_f64(degraded / nominal.max(f64::MIN_POSITIVE)));
        }
        table.push_row(row);
    }

    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Scale;

    #[test]
    fn straggler_table_has_expected_shape_and_monotone_slowdowns() {
        let tables = run(&mut Lab::new(Scale::tiny()));
        assert_eq!(tables.len(), 1);
        let table = &tables[0];
        assert_eq!(table.len(), 4, "exact PR, 2-iter PR, FrogWild ps=1, ps=0.4");
        for row in &table.rows {
            let s2: f64 = row[3].parse().unwrap();
            let s4: f64 = row[4].parse().unwrap();
            let s8: f64 = row[5].parse().unwrap();
            // Slowing the straggler further can only increase (or keep) total time.
            assert!(s2 >= 1.0 - 1e-9, "{row:?}");
            assert!(s4 >= s2 - 1e-9, "{row:?}");
            assert!(s8 >= s4 - 1e-9, "{row:?}");
            // A single straggler slowed 8x cannot slow the whole run by more than 8x.
            assert!(s8 <= 8.0 + 1e-9, "{row:?}");
        }
    }
}
