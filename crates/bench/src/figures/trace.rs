//! Trace study: where a FrogWild run spends its time, phase by phase.
//!
//! Not a paper figure. The `frogwild::obs` tracer records every superstep's
//! gather/apply/sync/scatter/route spans with frontier and staleness counters;
//! this figure runs the Twitter-shaped workload once under a host-clock tracer
//! and folds the merged timeline into two tables:
//!
//! * the **phase breakdown** — per span name: how many spans, summed/mean/max
//!   duration — the same summary `TraceReport` prints on the CLI's `--trace`;
//! * the **slowest spans** — the top individual spans with their deterministic
//!   timeline keys, the first place to look when one superstep dominates.
//!
//! The run also cross-checks the tracing bit-identity contract: the traced
//! estimate must match an untraced run of the same configuration exactly.

use crate::report::{fmt_f64, Table};
use crate::workloads::{twitter_workload, Scale};
use frogwild::obs::{TraceConfig, Tracer};
use frogwild::prelude::*;
use frogwild_engine::{PartitionedGraph, PartitionerKind};

/// How many slowest spans the second table lists.
const SLOWEST: usize = 8;

/// Runs the traced workload and renders the phase-breakdown tables.
pub fn run(scale: &Scale) -> Vec<Table> {
    let off = Tracer::disabled();
    let workload = twitter_workload(scale);
    let machines = 16.min(*scale.machine_counts.last().unwrap_or(&16));
    let pg = PartitionedGraph::build(
        &workload.graph,
        machines,
        PartitionerKind::Oblivious,
        scale.seed,
    );
    let config = FrogWildConfig {
        num_walkers: scale.walkers,
        iterations: 6,
        sync_probability: 0.7,
        seed: scale.seed,
        ..FrogWildConfig::default()
    };
    let execution = ExecutionConfig::new();

    let tracer = Tracer::new(TraceConfig::enabled());
    let traced =
        run_frogwild(&pg, &config, &execution, &tracer).expect("valid figure configuration");
    let untraced =
        run_frogwild(&pg, &config, &execution, &off).expect("valid figure configuration");
    assert_eq!(
        traced.estimate, untraced.estimate,
        "tracing must not change results"
    );
    let report = tracer.finish().report(SLOWEST);

    let mut phases = Table::new(
        format!(
            "Trace A: per-phase breakdown ({}, {} machines, {} supersteps)",
            workload.name, machines, config.iterations
        ),
        &["phase", "count", "total_us", "mean_us", "max_us"],
    );
    for row in &report.phases {
        phases.push_row(vec![
            row.name.to_string(),
            row.count.to_string(),
            row.total_us.to_string(),
            fmt_f64(row.mean_us()),
            row.max_us.to_string(),
        ]);
    }

    let mut slowest = Table::new(
        format!("Trace B: the {SLOWEST} slowest spans ({})", workload.name),
        &["span", "superstep", "machine", "lane", "dur_us"],
    );
    for row in &report.slowest {
        slowest.push_row(vec![
            row.name.to_string(),
            row.key.seq.to_string(),
            row.key.pid.to_string(),
            row.key.lane.to_string(),
            row.dur_us.to_string(),
        ]);
    }
    vec![phases, slowest]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_figure_breaks_the_run_into_phases() {
        let tables = run(&Scale::tiny());
        assert_eq!(tables.len(), 2);
        let phases = &tables[0];
        let names: Vec<&str> = phases.rows.iter().map(|r| r[0].as_str()).collect();
        for expected in ["superstep", "gather", "apply", "sync", "scatter"] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        // Six supersteps were traced, so every engine phase ran six times.
        let superstep_row = phases
            .rows
            .iter()
            .find(|r| r[0] == "superstep")
            .expect("superstep phase");
        assert_eq!(superstep_row[1], "6");
        let slowest = &tables[1];
        assert!(!slowest.rows.is_empty());
        assert!(slowest.rows.len() <= SLOWEST);
    }
}
