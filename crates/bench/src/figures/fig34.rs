//! Figures 3 and 4: the accuracy / time / network trade-off on the Twitter-shaped
//! graph at the largest cluster size.
//!
//! Figure 3(a) plots mass captured (k = 100) against total running time and 3(b)
//! against total network bytes, for GraphLab PR (1, 2, exact iterations) and FrogWild
//! with iterations ∈ {3, 4, 5} × p_s ∈ {0.1, 0.4, 0.7, 1}. Figure 4 is the same data
//! with the network bytes encoded as the circle area, so a single table covers both.

use super::{accuracy, PS_SWEEP};
use crate::report::{fmt_f64, Table};
use crate::workloads::{twitter_workload, Scale};
use frogwild::prelude::*;

/// The FrogWild iteration counts the sweep covers.
pub const ITERATION_SWEEP: [usize; 3] = [3, 4, 5];
/// k used by the trade-off figures.
pub const K: usize = 100;

/// Runs the Figure 3/4 sweep and returns a single trade-off table.
pub fn run(scale: &Scale) -> Vec<Table> {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    let workload = twitter_workload(scale);
    let machines = *scale.machine_counts.last().unwrap_or(&24);
    let cluster = ClusterConfig::new(machines, scale.seed);
    let pg = partition_graph(&workload.graph, &cluster);

    let mut table = Table::new(
        format!(
            "Figures 3-4: accuracy (k={K}) vs total time vs network ({}, {} machines, {} walkers)",
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

    let mut push = |label: &str, iterations: String, ps: String, report: &RunReport| {
        let mass = accuracy(report, &workload.truth, K);
        table.push_row(vec![
            label.to_string(),
            iterations,
            ps,
            fmt_f64(mass),
            fmt_f64(report.cost.simulated_seconds),
            report.cost.network_bytes.to_string(),
        ]);
    };

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
        push(
            label,
            config.max_iterations.to_string(),
            "-".into(),
            &report,
        );
    }

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
            push("FrogWild", iterations.to_string(), ps.to_string(), &report);
        }
    }

    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig34_covers_the_full_sweep() {
        let tables = run(&Scale::tiny());
        assert_eq!(tables.len(), 1);
        // 3 PR baselines + 3 iteration counts × 4 ps values
        assert_eq!(tables[0].len(), 3 + ITERATION_SWEEP.len() * PS_SWEEP.len());
    }

    #[test]
    fn fig34_frogwild_cheaper_than_exact_pr() {
        let tables = run(&Scale::tiny());
        let rows = &tables[0].rows;
        let exact_bytes: u64 = rows.iter().find(|r| r[0] == "GraphLab PR exact").unwrap()[5]
            .parse()
            .unwrap();
        let fw_bytes: u64 = rows
            .iter()
            .filter(|r| r[0] == "FrogWild")
            .map(|r| r[5].parse::<u64>().unwrap())
            .max()
            .unwrap();
        assert!(
            fw_bytes < exact_bytes,
            "FrogWild max {fw_bytes} vs exact {exact_bytes}"
        );
    }
}
