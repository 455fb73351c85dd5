//! Figure 1: PageRank performance versus cluster size on the Twitter-shaped graph.
//!
//! Four panels, all swept over the machine counts in [`crate::Scale::machine_counts`]:
//! (a) time per iteration, (b) total time, (c) network bytes sent, (d) CPU usage.
//! Series: GraphLab PR exact / 2 iterations / 1 iteration, and FrogWild with
//! `p_s ∈ {1, 0.7, 0.4, 0.1}` (panel (a) plots all four `p_s` values; the other panels
//! use `p_s ∈ {1, 0.1}` exactly like the paper).

use super::paper_series;
use crate::report::{fmt_f64, Table};
use crate::workloads::{Dataset, Experiment, Lab};

/// Runs the Figure 1 sweep and returns one table per panel.
pub fn run(lab: &mut Lab) -> Vec<Table> {
    let scale = lab.scale().clone();
    let panel = |title: &str, column| Table::new(title, &["machines", "algorithm", column]);
    let name = lab.workload(Dataset::Twitter).name;
    let mut per_iteration = panel(
        &format!(
            "Figure 1(a): time per iteration vs machines ({name}, {} walkers, 4 iters)",
            scale.walkers
        ),
        "seconds_per_iteration",
    );
    let mut total_time = panel(
        "Figure 1(b): total running time vs machines",
        "total_seconds",
    );
    let mut network = panel(
        "Figure 1(c): network bytes sent vs machines",
        "network_bytes",
    );
    let mut cpu = panel("Figure 1(d): total CPU usage vs machines", "cpu_seconds");

    let series = paper_series(&scale);
    for &machines in &scale.machine_counts {
        for (label, algorithm) in &series {
            let report = lab.run(Experiment::new(Dataset::Twitter, machines, *algorithm));
            let is_frogwild = label.starts_with("FrogWild");
            let is_exact = label.contains("exact");
            let row = |value: String| vec![machines.to_string(), label.clone(), value];
            // Panel (a): the paper plots exact PR and every FrogWild ps.
            if is_exact || is_frogwild {
                per_iteration.push_row(row(fmt_f64(report.cost.seconds_per_iteration())));
            }
            // Panels (b)-(d): PR exact/2/1 plus FrogWild ps = 1 and 0.1.
            let in_bcd = !is_frogwild || label.ends_with("ps=1") || label.ends_with("ps=0.1");
            if in_bcd {
                total_time.push_row(row(fmt_f64(report.cost.simulated_seconds)));
                network.push_row(row(report.cost.network_bytes.to_string()));
                cpu.push_row(row(fmt_f64(report.cost.simulated_cpu_seconds)));
            }
        }
    }
    vec![per_iteration, total_time, network, cpu]
}

#[cfg(test)]
mod tests {
    use super::super::PS_SWEEP;
    use super::*;
    use crate::workloads::Scale;

    #[test]
    fn fig1_produces_four_panels_with_expected_series() {
        let scale = Scale::tiny();
        let tables = run(&mut Lab::new(scale.clone()));
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
