//! Figures 3 and 4: the accuracy / time / network trade-off on the Twitter-shaped
//! graph at the largest cluster size.
//!
//! Figure 3(a) plots mass captured (k = 100) against total running time and 3(b)
//! against total network bytes, for GraphLab PR (1, 2, exact iterations) and FrogWild
//! with iterations ∈ {3, 4, 5} × p_s ∈ {0.1, 0.4, 0.7, 1}. Figure 4 is the same data
//! with the network bytes encoded as the circle area, so a single table covers both.

use super::tradeoff_table;
use crate::report::Table;
use crate::workloads::{Dataset, Lab};

/// Runs the Figure 3/4 sweep and returns a single trade-off table.
pub fn run(lab: &mut Lab) -> Vec<Table> {
    let scale = lab.scale().clone();
    let machines = *scale.machine_counts.last().unwrap_or(&24);
    let name = lab.workload(Dataset::Twitter).name;
    let title = format!(
        "Figures 3-4: accuracy (k=100) vs total time vs network ({name}, {machines} machines, {} walkers)",
        scale.walkers
    );
    vec![tradeoff_table(lab, Dataset::Twitter, machines, title)]
}

#[cfg(test)]
mod tests {
    use super::super::{PS_SWEEP, TRADEOFF_ITERATIONS};
    use super::*;
    use crate::workloads::Scale;

    #[test]
    fn fig34_covers_the_full_sweep() {
        let tables = run(&mut Lab::new(Scale::tiny()));
        assert_eq!(tables.len(), 1);
        // 3 PR baselines + 3 iteration counts × 4 ps values
        assert_eq!(
            tables[0].len(),
            3 + TRADEOFF_ITERATIONS.len() * PS_SWEEP.len()
        );
    }

    #[test]
    fn fig34_frogwild_cheaper_than_exact_pr() {
        let tables = run(&mut Lab::new(Scale::tiny()));
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
