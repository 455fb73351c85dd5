//! Walk-index figure: index-served versus fresh-Monte-Carlo PPR, latency and accuracy.
//!
//! Not a figure of the paper — it extends the evaluation to the serving regime the
//! ROADMAP targets: a session answering a *stream* of personalized queries. One table
//! compares, per serving method, the end-to-end latency of the stream, the top-20
//! accuracy against exact PPR, and the work/index economics; a second table shows how
//! the one-time index build cost amortizes across the stream.

use std::time::Instant;

use crate::report::{fmt_f64, Table};
use crate::workloads::{twitter_workload, Scale};
use frogwild::ppr::{personalized_pagerank, single_source_restart};
use frogwild::prelude::*;
use frogwild::session::PprMethod;

/// Queries in the served stream.
const QUERIES: usize = 50;
/// Sources scored against exact PPR.
const SCORED: usize = 8;
/// Top-k size of the accuracy comparison.
const K: usize = 20;

/// Runs the walk-index serving comparison.
pub fn run(scale: &Scale) -> Vec<Table> {
    let workload = twitter_workload(scale);
    let graph = &workload.graph;
    let machines = 8.min(*scale.machine_counts.last().unwrap_or(&8));
    let query = |source: VertexId| Query::Ppr {
        source,
        k: K,
        teleport_probability: 0.15,
        method: PprMethod::MonteCarlo {
            walkers: (scale.walkers * 5).max(10_000),
            max_steps: 64,
            seed: scale.seed,
        },
    };
    let truths: Vec<Vec<f64>> = (0..SCORED as VertexId)
        .map(|s| {
            personalized_pagerank(
                graph,
                &single_source_restart(graph.num_vertices(), s),
                0.15,
                200,
                1e-9,
            )
            .scores
        })
        .collect();

    let mut table = Table::new(
        format!(
            "Walk index: {QUERIES}-query PPR stream on {} ({} machines)",
            workload.name, machines
        ),
        &[
            "method",
            "stream_seconds",
            "ms_per_query",
            "topk_overlap",
            "walk_hops",
            "index_hits",
            "index_misses",
        ],
    );
    let mut amortize = Table::new(
        "Walk index: one-time build cost amortized over the stream",
        &["quantity", "value"],
    );

    for (label, index) in [
        ("fresh monte-carlo", None),
        ("walk-index served", Some(WalkIndexConfig::default())),
    ] {
        let mut builder = Session::builder(graph).machines(machines).seed(scale.seed);
        if let Some(config) = index {
            builder = builder.walk_index(config);
        }
        let mut session = builder.build().expect("valid figure configuration");
        let started = Instant::now();
        let responses: Vec<Response> = (0..QUERIES as VertexId)
            .map(|s| {
                session
                    .query(&query(s))
                    .expect("valid figure configuration")
            })
            .collect();
        let seconds = started.elapsed().as_secs_f64();
        let mean_overlap = truths
            .iter()
            .enumerate()
            .map(|(s, truth)| exact_identification(&responses[s].estimate, truth, K))
            .sum::<f64>()
            / SCORED as f64;
        let stats = *session.stats();
        table.push_row(vec![
            label.to_string(),
            fmt_f64(seconds),
            fmt_f64(1e3 * seconds / QUERIES as f64),
            fmt_f64(mean_overlap),
            stats.totals.walk_hops.to_string(),
            stats.totals.index_hits.to_string(),
            stats.totals.index_misses.to_string(),
        ]);
        if let Some(report) = session.walk_index_report() {
            amortize.push_row(vec![
                "build_seconds".to_string(),
                fmt_f64(report.build_seconds),
            ]);
            amortize.push_row(vec![
                "arena_bytes".to_string(),
                report.arena_bytes.to_string(),
            ]);
            amortize.push_row(vec![
                "effective_segments".to_string(),
                report.effective_segments.to_string(),
            ]);
            amortize.push_row(vec![
                "amortized_build_seconds_per_query".to_string(),
                fmt_f64(stats.amortized_index_build_seconds()),
            ]);
            amortize.push_row(vec![
                "index_hit_rate".to_string(),
                fmt_f64(stats.index_hit_rate()),
            ]);
        }
    }
    vec![table, amortize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walkindex_figure_produces_both_tables() {
        let tables = run(&Scale::tiny());
        assert_eq!(tables.len(), 2);
        assert!(tables[0].title.contains("Walk index"));
        // One row per serving method.
        assert_eq!(tables[0].rows.len(), 2);
        // The amortization table is filled by the indexed session only.
        assert_eq!(tables[1].rows.len(), 5);
    }
}
