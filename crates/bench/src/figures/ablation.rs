//! Ablation studies for the design choices the paper leaves implicit.
//!
//! Not a paper figure; these tables quantify how much each engineering decision
//! contributes:
//!
//! 1. **Ingress / partitioner ablation** — random vs grid vs greedy (oblivious) vs
//!    HDRF vs PowerLyra-style hybrid vertex-cuts: replication factor, and the resulting
//!    network bytes for both exact PageRank and FrogWild. PowerGraph's entire cost
//!    story hangs on the replication factor, and the paper's `p_s` lever multiplies
//!    with it.
//! 2. **Scatter-mode ablation** — the paper's idealized per-edge binomial scatter
//!    versus the deterministic even split its implementation actually uses: accuracy
//!    and messages generated.
//! 3. **Erasure-model ablation** — the at-least-one-out-edge policy (Example 10)
//!    versus fully independent erasures (Example 9): how many walkers are lost and the
//!    accuracy impact.

use super::{accuracy, frogwild, mid_cluster};
use crate::report::{fmt_f64, Table};
use crate::workloads::{Algorithm, Dataset, Experiment, Lab};
use frogwild::erasure::{erasure_walk_pagerank, ErasureModel};
use frogwild::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs the ablation tables.
pub fn run(lab: &mut Lab) -> Vec<Table> {
    let scale = lab.scale().clone();
    let workload = lab.workload(Dataset::Twitter);
    let machines = mid_cluster(&scale);
    let k = 100;
    let on = |partitioner, algorithm: Algorithm| Experiment {
        partitioner,
        ..Experiment::new(Dataset::Twitter, machines, algorithm)
    };

    // ------------------------------------------------------- partitioner ablation
    let mut partitioner_table = Table::new(
        format!(
            "Ablation A: vertex-cut ingress strategy ({}, {} machines, {} walkers)",
            workload.name, machines, scale.walkers
        ),
        &[
            "partitioner",
            "replication_factor",
            "pr2_network_bytes",
            "frogwild_network_bytes",
            "frogwild_mass_k100",
        ],
    );
    for partitioner in PartitionerKind::ALL {
        let pr = on(partitioner, PageRankConfig::truncated(2).into());
        let replication = lab.layout(&pr).placement().replication_factor();
        let pr = lab.run(pr);
        let fw = lab.run(on(partitioner, frogwild(scale.walkers, 4, 0.7).into()));
        partitioner_table.push_row(vec![
            partitioner.to_string(),
            fmt_f64(replication),
            pr.cost.network_bytes.to_string(),
            fw.cost.network_bytes.to_string(),
            fmt_f64(accuracy(&fw, &workload.truth, k)),
        ]);
    }

    // ------------------------------------------------------- scatter-mode ablation
    let mut scatter_table = Table::new(
        "Ablation B: deterministic even-split scatter vs idealized binomial scatter",
        &[
            "scatter_mode",
            "ps",
            "mass_captured_k100",
            "network_bytes",
            "messages",
        ],
    );
    for ps in [1.0, 0.4] {
        for (mode, binomial_scatter) in [("even-split", false), ("binomial", true)] {
            let config = FrogWildConfig {
                binomial_scatter,
                ..frogwild(scale.walkers, 4, ps)
            };
            let fw = lab.run(on(PartitionerKind::Oblivious, config.into()));
            scatter_table.push_row(vec![
                mode.to_string(),
                ps.to_string(),
                fmt_f64(accuracy(&fw, &workload.truth, k)),
                fw.cost.network_bytes.to_string(),
                fw.cost.network_messages.to_string(),
            ]);
        }
    }

    // ------------------------------------------------------- erasure-model ablation
    let mut erasure_table = Table::new(
        "Ablation C: at-least-one-out-edge vs independent mirror erasures (serial simulation)",
        &["model", "ps", "mass_captured_k100", "walkers_retained"],
    );
    let mut rng = SmallRng::seed_from_u64(scale.seed ^ 0xE7A5);
    for ps in [0.4, 0.1] {
        for (name, model) in [
            ("at-least-one", ErasureModel::AtLeastOneOutEdge),
            ("independent", ErasureModel::Independent),
        ] {
            let est = erasure_walk_pagerank(
                &workload.graph,
                scale.walkers,
                4,
                TELEPORT,
                ps,
                model,
                &mut rng,
            );
            let retained: f64 = est.iter().sum();
            let mass = mass_captured(&est, &workload.truth, k).normalized();
            erasure_table.push_row(vec![
                name.to_string(),
                ps.to_string(),
                fmt_f64(mass),
                fmt_f64(retained),
            ]);
        }
    }

    vec![partitioner_table, scatter_table, erasure_table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Scale;

    #[test]
    fn ablation_tables_have_expected_shape() {
        let tables = run(&mut Lab::new(Scale::tiny()));
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].len(), 5);
        assert_eq!(tables[1].len(), 4);
        assert_eq!(tables[2].len(), 4);
    }

    #[test]
    fn smarter_partitioners_beat_random_replication() {
        let tables = run(&mut Lab::new(Scale::tiny()));
        let rf = |name: &str| -> f64 {
            tables[0].rows.iter().find(|r| r[0] == name).unwrap()[1]
                .parse()
                .unwrap()
        };
        assert!(rf("oblivious") <= rf("random"));
        assert!(rf("grid") <= rf("random"));
        assert!(rf("hdrf") <= rf("random"));
        assert!(rf("hybrid") <= rf("random"));
    }

    #[test]
    fn walkers_are_fully_retained_under_at_least_one_model() {
        let tables = run(&mut Lab::new(Scale::tiny()));
        for row in &tables[2].rows {
            let retained: f64 = row[3].parse().unwrap();
            // the estimator is normalised per walker, so full retention sums to 1
            if row[0] == "at-least-one" {
                assert!((retained - 1.0).abs() < 1e-9, "{row:?}");
            } else {
                assert!(retained <= 1.0 + 1e-9);
            }
        }
    }
}
