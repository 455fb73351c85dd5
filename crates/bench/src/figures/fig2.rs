//! Figure 2: approximation accuracy versus k on the Twitter-shaped graph, 16 machines.
//!
//! (a) mass captured, (b) exact identification, for k ∈ {30, 100, 300, 1000}.
//! Series: GraphLab PR 2 iters, 1 iter, and FrogWild with p_s ∈ {1, 0.7, 0.4, 0.1}.
//!
//! Its runs are Figure 1's at 16 machines (or the scale's largest cluster, when that is
//! smaller): the [`Lab`] hands back the estimates Figure 1 already ran.

use super::{mid_cluster, paper_series};
use crate::report::{fmt_f64, Table};
use crate::workloads::{Dataset, Experiment, Lab};
use frogwild::prelude::*;

/// The k values the paper sweeps.
pub const K_SWEEP: [usize; 4] = [30, 100, 300, 1000];

/// Runs the Figure 2 sweep: one table per accuracy metric.
pub fn run(lab: &mut Lab) -> Vec<Table> {
    let scale = lab.scale().clone();
    let workload = lab.workload(Dataset::Twitter);
    let machines = mid_cluster(&scale);
    // Figure 1's series without exact PR: GraphLab PR 2 and 1 iterations, then FrogWild.
    let runs: Vec<_> = (paper_series(&scale).into_iter().skip(1))
        .map(|(label, algorithm)| {
            let experiment = Experiment::new(Dataset::Twitter, machines, algorithm);
            (label, lab.run(experiment))
        })
        .collect();

    let mut mass_table = Table::new(
        format!(
            "Figure 2(a): mass captured vs k ({}, {} machines, {} walkers, 4 iters)",
            workload.name, machines, scale.walkers
        ),
        &["k", "algorithm", "mass_captured"],
    );
    let mut ident_table = Table::new(
        "Figure 2(b): exact identification vs k",
        &["k", "algorithm", "exact_identification"],
    );
    for &k in &K_SWEEP {
        for (label, report) in &runs {
            let mass = mass_captured(&report.estimate, &workload.truth, k).normalized();
            let ident = exact_identification(&report.estimate, &workload.truth, k);
            mass_table.push_row(vec![k.to_string(), label.clone(), fmt_f64(mass)]);
            ident_table.push_row(vec![k.to_string(), label.clone(), fmt_f64(ident)]);
        }
    }
    vec![mass_table, ident_table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Scale;

    #[test]
    fn fig2_produces_both_metrics_for_all_series() {
        let tables = run(&mut Lab::new(Scale::tiny()));
        assert_eq!(tables.len(), 2);
        // 4 k values × (2 PR + 4 FrogWild) series
        assert_eq!(tables[0].len(), K_SWEEP.len() * 6);
        assert_eq!(tables[1].len(), K_SWEEP.len() * 6);
    }

    #[test]
    fn fig2_values_are_valid_and_ordered_sanely() {
        // At tiny scale the walker budget is far too small for the paper's accuracy
        // levels; the meaningful structural checks are that every reported value is a
        // valid fraction, that the 2-iteration
        // baseline does not trail the 1-iteration baseline, and that FrogWild's
        // full-sync accuracy is not worse than its most aggressive partial-sync
        // setting. The paper-level comparison against the 1-iteration baseline is
        // asserted at larger scale by tests/integration_end_to_end_figures.rs.
        let tables = run(&mut Lab::new(Scale::tiny()));
        let mass = &tables[0];
        for row in &mass.rows {
            let v: f64 = row[2].parse().unwrap();
            assert!((0.0..=1.0 + 1e-9).contains(&v), "{row:?}");
        }
        let value = |k: &str, algo: &str| -> f64 {
            mass.rows
                .iter()
                .find(|r| r[0] == k && r[1] == algo)
                .map(|r| r[2].parse::<f64>().unwrap())
                .unwrap()
        };
        assert!(value("100", "GraphLab PR 2 iters") >= value("100", "GraphLab PR 1 iters") - 0.02);
        assert!(value("100", "FrogWild ps=1") >= value("100", "FrogWild ps=0.1") - 0.1);
        assert!(value("30", "FrogWild ps=1") > 0.5);
    }
}
