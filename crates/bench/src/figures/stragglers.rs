//! Straggler-sensitivity study: how much does one slow machine hurt each algorithm?
//!
//! Not a paper figure. Both FrogWild and the baseline PageRank run on a *synchronous*
//! engine, so every superstep waits for the slowest machine. The paper's evaluation uses
//! homogeneous EC2 instances; in practice clusters are rarely uniform, and the question
//! a deployment cares about is how gracefully each algorithm degrades when one machine
//! is slow (noisy neighbour, failing disk, background compaction…).
//!
//! Every superstep's record keeps its per-machine work and traffic
//! ([`frogwild_engine::SuperstepMetrics`]), so one recorded run can be *re-priced*
//! under any straggler scenario without re-executing
//! ([`frogwild_engine::CostModel::superstep_seconds_hetero`]). The table reports the
//! slowdown factor of total simulated time when machine 0 runs 2× / 4× / 8× slower,
//! for exact PageRank, 2-iteration PageRank and FrogWild at `p_s ∈ {1, 0.4}`.

use crate::report::{fmt_f64, Table};
use crate::workloads::{twitter_workload, Scale};
use frogwild::prelude::*;
use frogwild_engine::{CostModel, PartitionedGraph, PartitionerKind};

/// The straggler slowdown factors applied to machine 0.
const SLOWDOWNS: [f64; 3] = [2.0, 4.0, 8.0];

/// Runs the straggler-sensitivity table.
pub fn run(scale: &Scale) -> Vec<Table> {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    let workload = twitter_workload(scale);
    let machines = 16.min(*scale.machine_counts.last().unwrap_or(&16));
    let pg = PartitionedGraph::build(
        &workload.graph,
        machines,
        PartitionerKind::Oblivious,
        scale.seed,
    );
    let model = CostModel::default();

    let mut table = Table::new(
        format!(
            "Ablation F: straggler sensitivity ({}, {} machines, machine 0 slowed)",
            workload.name, machines
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

    let mut push_row = |label: &str, report: &RunReport| {
        let nominal = report.cost.simulated_seconds;
        let mut row = vec![
            label.to_string(),
            fmt_f64(report.metrics.work_imbalance()),
            fmt_f64(nominal),
        ];
        for &slow in &SLOWDOWNS {
            let mut speeds = vec![1.0; machines];
            speeds[0] = slow;
            let degraded = report
                .metrics
                .total_simulated_seconds_hetero(&model, &speeds);
            row.push(fmt_f64(degraded / nominal.max(f64::MIN_POSITIVE)));
        }
        table.push_row(row);
    };

    let exact = run_graphlab_pr(
        &pg,
        &PageRankConfig {
            max_iterations: scale.exact_pr_iterations,
            tolerance: 1e-9,
            ..PageRankConfig::default()
        },
        &exec,
        &off,
    )
    .expect("valid figure configuration");
    push_row("GraphLab PR exact", &exact);
    let two = run_graphlab_pr(&pg, &PageRankConfig::truncated(2), &exec, &off)
        .expect("valid figure configuration");
    push_row("GraphLab PR 2 iters", &two);
    for &ps in &[1.0, 0.4] {
        let fw = run_frogwild(
            &pg,
            &FrogWildConfig {
                num_walkers: scale.walkers,
                iterations: 4,
                sync_probability: ps,
                seed: scale.seed,
                ..FrogWildConfig::default()
            },
            &exec,
            &off,
        )
        .expect("valid figure configuration");
        push_row(&format!("FrogWild ps={ps}"), &fw);
    }

    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straggler_table_has_expected_shape_and_monotone_slowdowns() {
        let tables = run(&Scale::tiny());
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
