//! Staleness study: superstep overlap vs accuracy under bounded-staleness execution.
//!
//! Not a paper figure. The paper's engine (like the reproduction's default) is
//! synchronous: every superstep ends in a global barrier, so each one costs the
//! *maximum* over per-machine times. `ExecutionConfig::staleness(s)` relaxes the
//! barrier — a machine may run up to `s` supersteps ahead of its peers' messages
//! under a deterministic delivery schedule — which overlaps fast machines' compute
//! with slow machines' stragglers and converts barrier wait into forward progress.
//!
//! The first table sweeps the staleness window on the Twitter-shaped workload and
//! reports, per `s`: top-20 mass captured (accuracy), total simulated wall-clock
//! time, the simulated barrier wait the overlap avoided, and the executor's
//! staleness telemetry (summed delivery lag, deepest staging inbox). `s = 0` is the
//! exact synchronous baseline; rows below it show how much wall-time the relaxation
//! buys and what it costs in accuracy (walkers absorbing against slightly stale
//! counts).
//!
//! The second table is the straggler profile behind those numbers: each machine's
//! finish time on the pipelined watermark clock for the deepest window swept. The
//! spread between the fastest and slowest machine is exactly the barrier wait a
//! synchronous run would pay per superstep — the wait the first table reports as
//! avoided.

use super::{accuracy, frogwild, mid_cluster};
use crate::report::{fmt_f64, Table};
use crate::workloads::{Dataset, Experiment, Lab};
use frogwild::prelude::*;

/// The staleness windows swept, in supersteps. `0` is the synchronous baseline.
const STALENESS_SWEEP: [usize; 4] = [0, 1, 2, 4];

/// Runs the staleness sweep table.
pub fn run(lab: &mut Lab) -> Vec<Table> {
    let scale = lab.scale().clone();
    let workload = lab.workload(Dataset::Twitter);
    let machines = mid_cluster(&scale);
    let config = FrogWildConfig {
        seed: scale.seed,
        ..frogwild(scale.walkers, 6, 0.7)
    };

    let mut table = Table::new(
        format!(
            "Ablation G: bounded staleness — overlap vs accuracy ({}, {} machines, ps=0.7)",
            workload.name, machines
        ),
        &[
            "staleness",
            "mass@20",
            "total_time_s",
            "barrier_wait_avoided_s",
            "staleness_lag",
            "max_inbox_depth",
        ],
    );
    let deepest = *STALENESS_SWEEP.last().unwrap_or(&0);
    let mut straggler_profile: Vec<f64> = Vec::new();
    for s in STALENESS_SWEEP {
        let report = lab.run(Experiment {
            execution: ExecutionConfig::new().staleness(s),
            ..Experiment::new(Dataset::Twitter, machines, config)
        });
        let mass = accuracy(&report, &workload.truth, 20);
        table.push_row(vec![
            s.to_string(),
            fmt_f64(mass),
            fmt_f64(report.cost.simulated_seconds),
            fmt_f64(report.cost.barrier_wait_avoided_seconds),
            report.cost.staleness_lag.to_string(),
            report.cost.max_inbox_depth.to_string(),
        ]);
        if s == deepest {
            straggler_profile = report.metrics.machine_finish_seconds.clone();
        }
    }

    let mut watermark = Table::new(
        format!(
            "Ablation G2: per-machine watermark finish times ({}, staleness = {deepest})",
            workload.name
        ),
        &["machine", "finish_s", "behind_fastest_s"],
    );
    let fastest = straggler_profile
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    for (machine, &finish) in straggler_profile.iter().enumerate() {
        watermark.push_row(vec![
            machine.to_string(),
            fmt_f64(finish),
            fmt_f64(finish - fastest),
        ]);
    }
    vec![table, watermark]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Scale;

    #[test]
    fn staleness_sweep_trades_barrier_wait_without_collapsing_accuracy() {
        let tables = run(&mut Lab::new(Scale::tiny()));
        assert_eq!(tables.len(), 2);
        let table = &tables[0];
        assert_eq!(table.len(), STALENESS_SWEEP.len());
        let time = |row: &[String]| row[2].parse::<f64>().unwrap();
        let sync_row = &table.rows[0];
        assert_eq!(sync_row[0], "0");
        // The synchronous baseline defers nothing and avoids no barrier wait.
        assert_eq!(sync_row[3].parse::<f64>().unwrap(), 0.0);
        assert_eq!(sync_row[4], "0");
        for row in &table.rows[1..] {
            // Relaxing the barrier can only shorten (or keep) the simulated makespan,
            // and the avoided wait is visible in the telemetry.
            assert!(time(row) <= time(sync_row) + 1e-12, "{row:?}");
            assert!(row[3].parse::<f64>().unwrap() > 0.0, "{row:?}");
            assert!(row[4].parse::<u64>().unwrap() > 0, "{row:?}");
            // Accuracy stays in the same regime as the synchronous run.
            let mass: f64 = row[1].parse().unwrap();
            let sync_mass: f64 = sync_row[1].parse().unwrap();
            assert!(mass >= sync_mass - 0.2, "{row:?}");
        }
    }

    #[test]
    fn watermark_table_profiles_every_machine() {
        let tables = run(&mut Lab::new(Scale::tiny()));
        let watermark = &tables[1];
        assert!(watermark.title.contains("watermark"));
        // One row per machine; at least one machine is the fastest (lag 0) and the
        // finish times are positive on the pipelined clock.
        assert!(!watermark.rows.is_empty());
        let lags: Vec<f64> = watermark
            .rows
            .iter()
            .map(|row| row[2].parse::<f64>().unwrap())
            .collect();
        assert!(lags.contains(&0.0), "{lags:?}");
        assert!(lags.iter().all(|&lag| lag >= 0.0), "{lags:?}");
        for row in &watermark.rows {
            assert!(row[1].parse::<f64>().unwrap() > 0.0, "{row:?}");
        }
    }
}
