//! Figure 1: PageRank performance versus cluster size on the Twitter-shaped graph.
//!
//! Four panels, all swept over the machine counts in [`Scale::machine_counts`]:
//! (a) time per iteration, (b) total time, (c) network bytes sent, (d) CPU usage.
//! Series: GraphLab PR exact / 2 iterations / 1 iteration, and FrogWild with
//! `p_s ∈ {1, 0.7, 0.4, 0.1}` (panel (a) plots all four `p_s` values; the other panels
//! use `p_s ∈ {1, 0.1}` exactly like the paper).

use super::PS_SWEEP;
use crate::report::{fmt_f64, Table};
use crate::workloads::{twitter_workload, Scale};
use frogwild::prelude::*;

/// Runs the Figure 1 sweep and returns one table per panel.
pub fn run(scale: &Scale) -> Vec<Table> {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    let workload = twitter_workload(scale);
    let mut per_iteration = Table::new(
        format!(
            "Figure 1(a): time per iteration vs machines ({}, {} walkers, 4 iters)",
            workload.name, scale.walkers
        ),
        &["machines", "algorithm", "seconds_per_iteration"],
    );
    let mut total_time = Table::new(
        "Figure 1(b): total running time vs machines",
        &["machines", "algorithm", "total_seconds"],
    );
    let mut network = Table::new(
        "Figure 1(c): network bytes sent vs machines",
        &["machines", "algorithm", "network_bytes"],
    );
    let mut cpu = Table::new(
        "Figure 1(d): total CPU usage vs machines",
        &["machines", "algorithm", "cpu_seconds"],
    );

    for &machines in &scale.machine_counts {
        let cluster = ClusterConfig::new(machines, scale.seed);
        let pg = partition_graph(&workload.graph, &cluster);

        let mut runs: Vec<(String, RunReport)> = Vec::new();
        runs.push((
            "GraphLab PR exact".into(),
            run_graphlab_pr(
                &pg,
                &PageRankConfig {
                    max_iterations: scale.exact_pr_iterations,
                    tolerance: 1e-9,
                    ..PageRankConfig::default()
                },
                &exec,
                &off,
            )
            .expect("valid figure configuration"),
        ));
        runs.push((
            "GraphLab PR 2 iters".into(),
            run_graphlab_pr(&pg, &PageRankConfig::truncated(2), &exec, &off)
                .expect("valid figure configuration"),
        ));
        runs.push((
            "GraphLab PR 1 iters".into(),
            run_graphlab_pr(&pg, &PageRankConfig::truncated(1), &exec, &off)
                .expect("valid figure configuration"),
        ));
        for &ps in &PS_SWEEP {
            runs.push((
                format!("FrogWild ps={ps}"),
                run_frogwild(
                    &pg,
                    &FrogWildConfig {
                        num_walkers: scale.walkers,
                        iterations: 4,
                        sync_probability: ps,
                        ..FrogWildConfig::default()
                    },
                    &exec,
                    &off,
                )
                .expect("valid figure configuration"),
            ));
        }

        for (label, report) in &runs {
            let is_frogwild = label.starts_with("FrogWild");
            let is_exact = label.contains("exact");
            // Panel (a): the paper plots exact PR and every FrogWild ps.
            if is_exact || is_frogwild {
                per_iteration.push_row(vec![
                    machines.to_string(),
                    label.clone(),
                    fmt_f64(report.cost.seconds_per_iteration()),
                ]);
            }
            // Panels (b)-(d): PR exact/2/1 plus FrogWild ps = 1 and 0.1.
            let in_bcd = !is_frogwild || label.ends_with("ps=1") || label.ends_with("ps=0.1");
            if in_bcd {
                total_time.push_row(vec![
                    machines.to_string(),
                    label.clone(),
                    fmt_f64(report.cost.simulated_seconds),
                ]);
                network.push_row(vec![
                    machines.to_string(),
                    label.clone(),
                    report.cost.network_bytes.to_string(),
                ]);
                cpu.push_row(vec![
                    machines.to_string(),
                    label.clone(),
                    fmt_f64(report.cost.simulated_cpu_seconds),
                ]);
            }
        }
    }
    vec![per_iteration, total_time, network, cpu]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_produces_four_panels_with_expected_series() {
        let scale = Scale::tiny();
        let tables = run(&scale);
        assert_eq!(tables.len(), 4);
        let panel_a = &tables[0];
        // per machine count: exact + 4 FrogWild settings
        assert_eq!(
            panel_a.len(),
            scale.machine_counts.len() * (1 + PS_SWEEP.len())
        );
        let panel_c = &tables[2];
        // per machine count: 3 PR variants + 2 FrogWild settings
        assert_eq!(panel_c.len(), scale.machine_counts.len() * 5);
        assert!(panel_c.title.contains("network"));
    }
}
