//! Figure 2: approximation accuracy versus k on the Twitter-shaped graph, 16 machines.
//!
//! (a) mass captured, (b) exact identification, for k ∈ {30, 100, 300, 1000}.
//! Series: GraphLab PR 2 iters, 1 iter, and FrogWild with p_s ∈ {1, 0.7, 0.4, 0.1}.
//!
//! This figure is the session API's home turf: one `Session` partitions the workload
//! graph once and then serves the whole six-way algorithm sweep as a query stream.

use super::PS_SWEEP;
use crate::report::{fmt_f64, Table};
use crate::workloads::{twitter_workload, Scale};
use frogwild::prelude::*;

/// The k values the paper sweeps.
pub const K_SWEEP: [usize; 4] = [30, 100, 300, 1000];

/// Runs the Figure 2 sweep: one table per accuracy metric.
pub fn run(scale: &Scale) -> Vec<Table> {
    let workload = twitter_workload(scale);
    let machines = 16.min(*scale.machine_counts.last().unwrap_or(&16));
    let mut session = Session::builder(&workload.graph)
        .machines(machines)
        .seed(scale.seed)
        .build()
        .expect("valid figure configuration");
    let max_k = *K_SWEEP.last().unwrap();

    let mut runs: Vec<(String, Response)> = Vec::new();
    for iters in [2usize, 1] {
        runs.push((
            format!("GraphLab PR {iters} iters"),
            session
                .query(&Query::Pagerank {
                    k: max_k,
                    config: PageRankConfig::truncated(iters),
                })
                .expect("valid figure configuration"),
        ));
    }
    for &ps in &PS_SWEEP {
        runs.push((
            format!("FrogWild ps={ps}"),
            session
                .query(&Query::TopK {
                    k: max_k,
                    config: FrogWildConfig {
                        num_walkers: scale.walkers,
                        iterations: 4,
                        sync_probability: ps,
                        ..FrogWildConfig::default()
                    },
                })
                .expect("valid figure configuration"),
        ));
    }

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
        for (label, response) in &runs {
            let mass = mass_captured(&response.estimate, &workload.truth, k).normalized();
            let ident = exact_identification(&response.estimate, &workload.truth, k);
            mass_table.push_row(vec![k.to_string(), label.clone(), fmt_f64(mass)]);
            ident_table.push_row(vec![k.to_string(), label.clone(), fmt_f64(ident)]);
        }
    }
    vec![mass_table, ident_table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_produces_both_metrics_for_all_series() {
        let tables = run(&Scale::tiny());
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
        let tables = run(&Scale::tiny());
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
