//! Estimator study: FrogWild's end-point estimator against the serial Monte-Carlo
//! baselines of Avrachenkov et al., and a graph-family negative control.
//!
//! Not a paper figure. Section 2.4 argues that FrogWild can use *sublinearly* many
//! walkers because it only targets the heavy vertices, while the prior Monte-Carlo work
//! starts a walker from every vertex and credits entire trajectories. These tables put
//! numbers on that argument:
//!
//! * **Table D (estimator ablation)** — at the same walker budget, compare the engine's
//!   FrogWild estimate (`p_s ∈ {1, 0.4}`) against three serial estimators: end-point
//!   sampling, complete-path sampling, and the walkers-per-vertex rule. Accuracy is
//!   reported with the paper's mass-captured metric plus the order-sensitive Kendall τ
//!   and NDCG, so the variance advantage of complete-path counting is visible even when
//!   the captured-mass numbers saturate.
//! * **Table E (graph-family control)** — the same FrogWild configuration on a
//!   Twitter-shaped heavy-tailed graph and on a Watts–Strogatz small-world graph of the
//!   same size. The flat PageRank vector of the small-world graph is exactly the regime
//!   where Remark 6 predicts the walker budget must grow, and the captured-mass gap
//!   shows it.

use super::{frogwild, mid_cluster};
use crate::report::{fmt_f64, Table};
use crate::workloads::{Dataset, Experiment, Lab};
use frogwild::metrics::{exact_identification, mass_captured};
use frogwild::montecarlo::{complete_path_pagerank, walkers_per_vertex_pagerank};
use frogwild::prelude::*;
use frogwild::rank_metrics::{kendall_tau_top_k, ndcg_at_k};
use frogwild::reference::serial_random_walk_pagerank;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs the estimator-study tables.
pub fn run(lab: &mut Lab) -> Vec<Table> {
    let scale = lab.scale().clone();
    let k = 100;
    let workload = lab.workload(Dataset::Twitter);
    let machines = mid_cluster(&scale);
    let max_steps = 4;
    // FrogWild over the scale's walkers for `max_steps` at `p_s`, seeded by the scale.
    let engine = |dataset: Dataset, ps: f64| {
        let config = FrogWildConfig {
            seed: scale.seed,
            ..frogwild(scale.walkers, max_steps, ps)
        };
        Experiment::new(dataset, machines, config)
    };

    // ---------------------------------------------------------------- Table D
    let mut estimator_table = Table::new(
        format!(
            "Ablation D: estimator comparison ({}, {} walkers, {} steps)",
            workload.name, scale.walkers, max_steps
        ),
        &[
            "estimator",
            "walkers",
            "mass_k100",
            "exact_ident_k100",
            "kendall_tau_k100",
            "ndcg_k100",
        ],
    );
    let mut push_estimator_row = |name: &str, walkers: u64, estimate: &[f64]| {
        estimator_table.push_row(vec![
            name.to_string(),
            walkers.to_string(),
            fmt_f64(mass_captured(estimate, &workload.truth, k).normalized()),
            fmt_f64(exact_identification(estimate, &workload.truth, k)),
            fmt_f64(kendall_tau_top_k(estimate, &workload.truth, k)),
            fmt_f64(ndcg_at_k(estimate, &workload.truth, k)),
        ]);
    };

    for ps in [1.0, 0.4] {
        let report = lab.run(engine(Dataset::Twitter, ps));
        push_estimator_row(
            &format!("frogwild engine ps={ps}"),
            scale.walkers,
            &report.estimate,
        );
    }

    let mut rng = SmallRng::seed_from_u64(scale.seed ^ 0xE571);
    let endpoint =
        serial_random_walk_pagerank(&workload.graph, scale.walkers, max_steps, 0.15, &mut rng);
    push_estimator_row("serial end-point MC", scale.walkers, &endpoint);

    let complete =
        complete_path_pagerank(&workload.graph, scale.walkers, max_steps, 0.15, &mut rng);
    push_estimator_row("serial complete-path MC", scale.walkers, &complete);

    // The walkers-per-vertex rule spends Θ(n) walks; report its real budget.
    let per_vertex_walks = 1u32;
    let per_vertex =
        walkers_per_vertex_pagerank(&workload.graph, per_vertex_walks, max_steps, 0.15, &mut rng);
    push_estimator_row(
        "walkers-per-vertex MC",
        workload.graph.num_vertices() as u64 * per_vertex_walks as u64,
        &per_vertex,
    );

    // ---------------------------------------------------------------- Table E
    let mut family_table = Table::new(
        format!(
            "Ablation E: graph-family control ({} walkers, 4 iterations, ps=0.7)",
            scale.walkers
        ),
        &["graph", "top100_true_mass", "mass_k100", "exact_ident_k100"],
    );
    for (name, dataset) in [
        ("twitter-shaped (heavy tail)", Dataset::Twitter),
        ("watts-strogatz (flat)", Dataset::SmallWorld),
    ] {
        let family = lab.workload(dataset);
        let truth = &family.truth;
        let report = lab.run(engine(dataset, 0.7));
        let optimal = mass_captured(truth, truth, k).optimal;
        family_table.push_row(vec![
            name.to_string(),
            fmt_f64(optimal),
            fmt_f64(mass_captured(&report.estimate, truth, k).normalized()),
            fmt_f64(exact_identification(&report.estimate, truth, k)),
        ]);
    }

    vec![estimator_table, family_table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Scale;

    #[test]
    fn estimator_tables_have_expected_shape() {
        let tables = run(&mut Lab::new(Scale::tiny()));
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), 5, "2 engine rows + 3 serial estimators");
        assert_eq!(tables[1].len(), 2, "two graph families");
    }

    #[test]
    fn heavy_tailed_graph_concentrates_more_mass_than_small_world() {
        let tables = run(&mut Lab::new(Scale::tiny()));
        let family = &tables[1];
        let optimal: Vec<f64> = family.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        // The true top-100 of the heavy-tailed graph holds more mass than the
        // small-world graph's — that is the premise of the whole approach.
        assert!(
            optimal[0] > optimal[1],
            "twitter-shaped {} vs small-world {}",
            optimal[0],
            optimal[1]
        );
    }

    #[test]
    fn all_estimators_produce_valid_metric_values() {
        let tables = run(&mut Lab::new(Scale::tiny()));
        for row in &tables[0].rows {
            let mass: f64 = row[2].parse().unwrap();
            let ident: f64 = row[3].parse().unwrap();
            let tau: f64 = row[4].parse().unwrap();
            let ndcg: f64 = row[5].parse().unwrap();
            assert!((0.0..=1.0 + 1e-9).contains(&mass), "{row:?}");
            assert!((0.0..=1.0).contains(&ident), "{row:?}");
            assert!((-1.0..=1.0).contains(&tau), "{row:?}");
            assert!((0.0..=1.0 + 1e-9).contains(&ndcg), "{row:?}");
        }
    }
}
