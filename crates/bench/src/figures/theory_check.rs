//! Numerical check of the paper's analysis: Theorem 1's error envelope, Theorem 2's
//! intersection-probability bound, and Proposition 7's bound on `‖π‖_∞`.
//!
//! The paper does not plot these (they are proved, not measured); the table produced
//! here documents that the implementation's measured error indeed stays inside the
//! analytical envelope, which is the strongest end-to-end consistency check available
//! for the partial-synchronization machinery.

use super::{frogwild, mid_cluster, PS_SWEEP};
use crate::report::{fmt_f64, Table};
use crate::workloads::{Dataset, Experiment, Lab};
use frogwild::config::TELEPORT;
use frogwild::metrics::mass_captured;
use frogwild::theory;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs the theory-vs-measurement comparison.
pub fn run(lab: &mut Lab) -> Vec<Table> {
    let scale = lab.scale().clone();
    let workload = lab.workload(Dataset::Twitter);
    let machines = mid_cluster(&scale);
    let pi_max = workload.truth.iter().cloned().fold(0.0, f64::max);
    let n = workload.graph.num_vertices();
    let mut rng = SmallRng::seed_from_u64(scale.seed ^ 0x7E07);

    // ------------------------------------------------------------------- Theorem 2
    let mut theorem2 = Table::new(
        format!(
            "Theorem 2: intersection probability, bound vs Monte-Carlo ({})",
            workload.name
        ),
        &["steps", "bound", "measured"],
    );
    for steps in [2usize, 4, 6] {
        let bound = theory::intersection_probability_bound(n, steps, TELEPORT, pi_max);
        let measured = theory::empirical_intersection_probability(
            &workload.graph,
            steps,
            TELEPORT,
            20_000,
            &mut rng,
        );
        theorem2.push_row(vec![steps.to_string(), fmt_f64(bound), fmt_f64(measured)]);
    }

    // --------------------------------------------------------------- Proposition 7
    let mut prop7 = Table::new(
        "Proposition 7: bound on the largest PageRank entry (gamma = 0.5, theta = 2.2)",
        &[
            "n",
            "bound_on_pi_max",
            "measured_pi_max",
            "failure_probability",
        ],
    );
    let (bound, failure) = theory::power_law_max_bound(n, 0.5, 2.2);
    prop7.push_row(vec![
        n.to_string(),
        fmt_f64(bound),
        fmt_f64(pi_max),
        fmt_f64(failure),
    ]);

    // ------------------------------------------------------------------- Theorem 1
    let mut theorem1 = Table::new(
        format!(
            "Theorem 1: measured captured-mass loss vs epsilon envelope ({}, k=30, delta=0.1, {} walkers)",
            workload.name, scale.walkers
        ),
        &["ps", "iterations", "measured_loss", "epsilon_bound", "within_bound"],
    );
    let k = 30;
    for ps in PS_SWEEP {
        for iterations in [4usize, 6] {
            let config = frogwild(scale.walkers, iterations, ps);
            let report = lab.run(Experiment::new(Dataset::Twitter, machines, config));
            let m = mass_captured(&report.estimate, &workload.truth, k);
            let p_intersect =
                theory::intersection_probability_bound(n, iterations, TELEPORT, pi_max);
            let epsilon = theory::theorem1_epsilon(
                TELEPORT,
                iterations,
                k,
                0.1,
                scale.walkers,
                ps,
                p_intersect,
            );
            theorem1.push_row(vec![
                ps.to_string(),
                iterations.to_string(),
                fmt_f64(m.loss()),
                fmt_f64(epsilon),
                (m.loss() <= epsilon).to_string(),
            ]);
        }
    }

    vec![theorem2, prop7, theorem1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Scale;

    #[test]
    fn theory_tables_report_containment() {
        let tables = run(&mut Lab::new(Scale::tiny()));
        assert_eq!(tables.len(), 3);
        // Theorem 1 rows must all be within the bound at tiny scale too.
        let theorem1 = &tables[2];
        assert!(theorem1.rows.iter().all(|r| r[4] == "true"), "{theorem1:?}");
        // Theorem 2: measured never exceeds the bound by more than noise.
        for row in &tables[0].rows {
            let bound: f64 = row[1].parse().unwrap();
            let measured: f64 = row[2].parse().unwrap();
            assert!(
                measured <= bound * 1.3 + 0.02,
                "bound {bound}, measured {measured}"
            );
        }
    }
}
