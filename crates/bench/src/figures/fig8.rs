//! Figure 8: network usage versus the number of initial walkers on the
//! LiveJournal-shaped graph (20 machines, 4 iterations, p_s = 1).
//!
//! The paper reports a linear reduction in traffic as the walker count shrinks — the
//! reason FrogWild can afford far fewer walkers than the one-walker-per-vertex schemes
//! in earlier Monte-Carlo PageRank work.

use super::{frogwild, livejournal_cluster};
use crate::report::Table;
use crate::workloads::{Dataset, Experiment, Lab};

/// Runs the Figure 8 sweep.
pub fn run(lab: &mut Lab) -> Vec<Table> {
    let scale = lab.scale().clone();
    let machines = livejournal_cluster(&scale);
    let mut table = Table::new(
        format!(
            "Figure 8: network bytes vs number of initial walkers ({}, {} machines, 4 iters, ps=1)",
            lab.workload(Dataset::LiveJournal).name,
            machines
        ),
        &["walkers", "network_bytes", "messages"],
    );
    for walkers in scale.walker_sweep() {
        let config = frogwild(walkers, 4, 1.0);
        let report = lab.run(Experiment::new(Dataset::LiveJournal, machines, config));
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
    use crate::workloads::Scale;

    #[test]
    fn fig8_network_grows_with_walkers() {
        let scale = Scale::tiny();
        let tables = run(&mut Lab::new(scale.clone()));
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
