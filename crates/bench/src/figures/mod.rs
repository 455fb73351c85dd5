//! One module per figure of the paper's evaluation section.
//!
//! Every module exposes `run(lab) -> Vec<Table>`; the tables contain exactly the
//! series the corresponding figure plots (same sweeps, same legends), with absolute
//! numbers coming from the simulated cost model instead of the authors' EC2 cluster.
//! A module asks the [`Lab`] for the runs its tables read, so a run two figures share
//! happens once.

pub mod ablation;
pub mod estimator;
pub mod fig1;
pub mod fig2;
pub mod fig34;
pub mod fig5;
pub mod fig67;
pub mod fig8;
pub mod staleness;
pub mod stragglers;
pub mod theory_check;

use crate::report::{fmt_f64, Table};
use crate::workloads::{Algorithm, Dataset, Experiment, Lab, Scale};
use frogwild::driver::RunReport;
use frogwild::metrics::mass_captured;
use frogwild::prelude::*;

/// Normalized mass captured by a run's top-`k` against a reference distribution.
pub(crate) fn accuracy(report: &RunReport, truth: &[f64], k: usize) -> f64 {
    mass_captured(&report.estimate, truth, k).normalized()
}

/// The `p_s` sweep the paper uses everywhere.
pub(crate) const PS_SWEEP: [f64; 4] = [1.0, 0.7, 0.4, 0.1];

/// The FrogWild iteration counts the trade-off figures (3, 4 and 7) cover.
pub(crate) const TRADEOFF_ITERATIONS: [usize; 3] = [3, 4, 5];

/// FrogWild with `num_walkers` walkers, `iterations` iterations and `p_s`, every other
/// setting at its default.
pub(crate) fn frogwild(
    num_walkers: u64,
    iterations: usize,
    sync_probability: f64,
) -> FrogWildConfig {
    FrogWildConfig {
        num_walkers,
        iterations,
        sync_probability,
        ..FrogWildConfig::default()
    }
}

/// The GraphLab PR baselines the paper compares against — 1, 2 and "exact" iterations —
/// with their legend labels.
pub(crate) fn pagerank_baselines(scale: &Scale) -> [(&'static str, PageRankConfig); 3] {
    let exact = PageRankConfig {
        max_iterations: scale.exact_pr_iterations,
        tolerance: 1e-9,
        ..PageRankConfig::default()
    };
    [
        ("GraphLab PR 1 iters", PageRankConfig::truncated(1)),
        ("GraphLab PR 2 iters", PageRankConfig::truncated(2)),
        ("GraphLab PR exact", exact),
    ]
}

/// The series of Figures 1 and 2, with their legend labels: GraphLab PR exact, 2 and 1
/// iterations, then 4-iteration FrogWild at every p_s of [`PS_SWEEP`].
pub(crate) fn paper_series(scale: &Scale) -> Vec<(String, Algorithm)> {
    let baselines = pagerank_baselines(scale).map(|(label, c)| (label.to_string(), c.into()));
    let frogwilds = PS_SWEEP.map(|ps| {
        let config = frogwild(scale.walkers, 4, ps);
        (format!("FrogWild ps={ps}"), Algorithm::FrogWild(config))
    });
    baselines.into_iter().rev().chain(frogwilds).collect()
}

/// The cluster of the single-cluster Twitter-shaped studies: 16 machines, or the
/// scale's largest cluster when that is smaller.
pub(crate) fn mid_cluster(scale: &Scale) -> usize {
    16.min(*scale.machine_counts.last().unwrap_or(&16))
}

/// The LiveJournal figures' cluster: the first swept size of at least 20 machines, or
/// the largest.
pub(crate) fn livejournal_cluster(scale: &Scale) -> usize {
    (scale.machine_counts.iter().copied())
        .find(|&m| m >= 20)
        .unwrap_or_else(|| *scale.machine_counts.last().unwrap_or(&20))
}

/// The accuracy (k = 100) / total time / network trade-off of Figures 3, 4 and 7: the
/// GraphLab PR baselines, then FrogWild at [`TRADEOFF_ITERATIONS`] × [`PS_SWEEP`].
pub(crate) fn tradeoff_table(
    lab: &mut Lab,
    dataset: Dataset,
    machines: usize,
    title: String,
) -> Table {
    let scale = lab.scale().clone();
    let workload = lab.workload(dataset);
    let mut table = Table::new(
        title,
        &[
            "algorithm",
            "iterations",
            "ps",
            "mass_captured_k100",
            "total_time_s",
            "network_bytes",
        ],
    );
    let baselines = pagerank_baselines(&scale).map(|(label, config)| {
        let iterations = config.max_iterations.to_string();
        (
            label,
            iterations,
            "-".to_string(),
            Algorithm::PageRank(config),
        )
    });
    let frogwilds = TRADEOFF_ITERATIONS.iter().flat_map(|&iterations| {
        PS_SWEEP.map(|ps| {
            let config = frogwild(scale.walkers, iterations, ps);
            let (iterations, ps) = (iterations.to_string(), ps.to_string());
            ("FrogWild", iterations, ps, Algorithm::FrogWild(config))
        })
    });
    for (label, iterations, ps, algorithm) in baselines.into_iter().chain(frogwilds) {
        let report = lab.run(Experiment::new(dataset, machines, algorithm));
        table.push_row(vec![
            label.to_string(),
            iterations,
            ps,
            fmt_f64(accuracy(&report, &workload.truth, 100)),
            fmt_f64(report.cost.simulated_seconds),
            report.cost.network_bytes.to_string(),
        ]);
    }
    table
}
