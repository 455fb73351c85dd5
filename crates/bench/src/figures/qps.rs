//! Serving-throughput figure: the concurrent front-end's QPS and latency
//! percentiles across worker counts, against the serial reference path.
//!
//! Not a figure of the paper — it extends the evaluation to the regime the serving
//! front-end targets: a session answering a mixed top-k / personalized query stream
//! through a fixed worker pool. The first table sweeps the pool size over one
//! 100-query stream and reports throughput, latency percentiles, the speedup over
//! serial, and — the determinism pin — whether every response stayed bit-identical
//! to the serial path. The second table sweeps the bounded queue's depth under the
//! load-shedding admission policy, showing rejection taking over as buffering shrinks.

use crate::report::{fmt_f64, Table};
use crate::workloads::Scale;
use frogwild::prelude::*;
use frogwild::serve::{Admission, ServeConfig, ServeReport};
use frogwild::session::PprMethod;
use frogwild_graph::generators::twitter_like;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Worker counts swept in the throughput table (0 = the serial reference row).
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Queue depths swept in the admission table (batches of buffering).
const DEPTH_SWEEP: [usize; 3] = [1, 4, 16];

/// The mixed stream: one global top-k per `MIX` queries, the rest personalized.
const MIX: usize = 4;

/// Builds the mixed query stream. Per-query seeds are irrelevant — the serving
/// front-end re-roots them by sequence id.
fn stream(count: usize, vertices: u64, walkers: u64) -> Vec<Query> {
    (0..count)
        .map(|i| {
            if i % MIX == 0 {
                Query::TopK {
                    k: 20,
                    config: FrogWildConfig {
                        num_walkers: walkers,
                        iterations: 3,
                        sync_probability: 0.7,
                        ..FrogWildConfig::default()
                    },
                }
            } else {
                Query::Ppr {
                    source: ((i as u64 * 31) % vertices) as VertexId,
                    k: 20,
                    teleport_probability: 0.15,
                    method: PprMethod::MonteCarlo {
                        walkers: 2_000,
                        max_steps: 32,
                        seed: 0,
                    },
                }
            }
        })
        .collect()
}

/// One throughput row: `workers` label, counts, wall, qps, percentiles, speedup,
/// bit-identity verdict against the serial responses.
fn qps_row(label: &str, report: &ServeReport, serial: &ServeReport) -> Vec<String> {
    let overall = report.latency.overall();
    let identical = report
        .responses()
        .zip(serial.responses())
        .all(|(a, b)| a == b)
        && report.served == serial.served;
    vec![
        label.to_string(),
        report.served.to_string(),
        report.rejected.to_string(),
        fmt_f64(report.wall_seconds),
        fmt_f64(report.qps()),
        fmt_f64(overall.p50() * 1e3),
        fmt_f64(overall.p95() * 1e3),
        fmt_f64(overall.p99() * 1e3),
        fmt_f64(serial.wall_seconds / report.wall_seconds.max(1e-12)),
        if identical { "yes" } else { "NO" }.to_string(),
    ]
}

/// Runs the serving-throughput comparison.
pub fn run(scale: &Scale) -> Vec<Table> {
    // ~34 edges per vertex: 3 000 vertices ≈ a 100k-edge graph, the serving target;
    // the tiny preset stays below that so the test suite finishes in seconds.
    let vertices = scale.twitter_vertices.clamp(1_000, 3_000);
    let queries_n = if scale.walkers <= 1_000 { 24 } else { 100 };
    let mut rng = SmallRng::seed_from_u64(scale.seed);
    let graph = twitter_like(vertices, &mut rng);
    let queries = stream(
        queries_n,
        graph.num_vertices() as u64,
        scale.walkers.max(4_000),
    );
    let session = || {
        Session::builder(&graph)
            .machines(8)
            .seed(scale.seed)
            .walk_index(WalkIndexConfig::default())
            .build()
            .expect("valid figure configuration")
    };

    let mut throughput = Table::new(
        format!(
            "Serving throughput: {queries_n}-query mixed stream on {vertices} vertices / {} edges",
            graph.num_edges()
        ),
        &[
            "workers",
            "served",
            "rejected",
            "wall_s",
            "qps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "speedup_vs_serial",
            "identical_to_serial",
        ],
    );

    let mut serial_session = session();
    let serial = serial_session.serve().serve_serial(&queries);
    throughput.push_row(qps_row("serial", &serial, &serial));
    for workers in WORKER_SWEEP {
        let mut s = session();
        let report = s
            .serve_with(ServeConfig::with_workers(workers))
            .expect("valid figure configuration")
            .serve(&queries);
        throughput.push_row(qps_row(&workers.to_string(), &report, &serial));
    }

    let mut admission = Table::new(
        "Serving admission: load shedding (Admission::Reject) vs queue depth, 1 worker",
        &["queue_depth", "served", "rejected", "qps"],
    );
    for depth in DEPTH_SWEEP {
        let mut s = session();
        let report = s
            .serve_with(ServeConfig {
                workers: 1,
                queue_depth: depth,
                batch: 1,
                admission: Admission::Reject,
            })
            .expect("valid figure configuration")
            .serve(&queries);
        admission.push_row(vec![
            depth.to_string(),
            report.served.to_string(),
            report.rejected.to_string(),
            fmt_f64(report.qps()),
        ]);
    }

    vec![throughput, admission]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qps_figure_produces_both_tables_and_stays_deterministic() {
        let tables = run(&Scale::tiny());
        assert_eq!(tables.len(), 2);
        // serial row + one per swept worker count.
        assert_eq!(tables[0].rows.len(), 1 + WORKER_SWEEP.len());
        for row in &tables[0].rows {
            assert_eq!(
                row[9], "yes",
                "worker count {} diverged from serial",
                row[0]
            );
            assert_eq!(row[2], "0", "Block admission must not reject");
        }
        assert_eq!(tables[1].rows.len(), DEPTH_SWEEP.len());
        // Every submitted query is accounted for: served + rejected = stream size.
        for row in &tables[1].rows {
            let served: u64 = row[1].parse().unwrap();
            let rejected: u64 = row[2].parse().unwrap();
            assert_eq!(served + rejected, 24);
        }
    }
}
