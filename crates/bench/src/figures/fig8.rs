//! Figure 8: network usage versus the number of initial walkers on the
//! LiveJournal-shaped graph (20 machines, 4 iterations, p_s = 1).
//!
//! The paper reports a linear reduction in traffic as the walker count shrinks — the
//! reason FrogWild can afford far fewer walkers than the one-walker-per-vertex schemes
//! in earlier Monte-Carlo PageRank work.

use crate::report::Table;
use crate::workloads::{livejournal_workload, Scale};
use frogwild::prelude::*;

/// Runs the Figure 8 sweep.
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

    let mut table = Table::new(
        format!(
            "Figure 8: network bytes vs number of initial walkers ({}, {} machines, 4 iters, ps=1)",
            workload.name, machines
        ),
        &["walkers", "network_bytes", "messages"],
    );
    for &walkers in &scale.walker_sweep() {
        let report = run_frogwild(
            &pg,
            &FrogWildConfig {
                num_walkers: walkers,
                iterations: 4,
                sync_probability: 1.0,
                ..FrogWildConfig::default()
            },
            &exec,
            &off,
        )
        .expect("valid figure configuration");
        table.push_row(vec![
            walkers.to_string(),
            report.cost.network_bytes.to_string(),
            report.cost.network_messages.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_network_grows_with_walkers() {
        let scale = Scale::tiny();
        let tables = run(&scale);
        assert_eq!(tables.len(), 1);
        let bytes: Vec<u64> = tables[0]
            .rows
            .iter()
            .map(|r| r[1].parse().unwrap())
            .collect();
        assert_eq!(bytes.len(), scale.walker_sweep().len());
        assert!(
            bytes.windows(2).all(|w| w[0] <= w[1]),
            "network bytes should be non-decreasing in walkers: {bytes:?}"
        );
        assert!(*bytes.last().unwrap() > bytes[0]);
    }
}
