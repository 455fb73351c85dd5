//! Property-based tests for the concurrent serving front-end: across random graphs,
//! worker counts, queue depths, batch sizes and query mixes,
//!
//! * the worker pool answers **bit-identically** to the serial reference path — the
//!   responses are a pure function of the submitted stream, never of the schedule;
//! * admission control conserves the stream: every submitted query comes back as
//!   exactly one outcome, and under `Admission::Reject` the served ones still match
//!   the serial responses position by position.

use frogwild::prelude::*;
use frogwild::serve::QueryOutcome;
use frogwild::session::PprMethod;
use frogwild_graph::generators::{rmat, RmatParams};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn graph_of(vertices: usize, seed: u64) -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    rmat(vertices, RmatParams::default(), &mut rng)
}

/// A query-mix strategy: each element picks one of the four query kinds (by the
/// variant tag), with its own shape parameters. Seeds are irrelevant — the serving
/// front-end re-roots them by sequence id.
fn query_strategy(vertices: usize) -> impl Strategy<Value = Query> {
    (any::<u8>(), 0..vertices as u32, 1usize..20).prop_map(|(variant, source, k)| {
        match variant % 4 {
            0 => Query::TopK {
                k,
                config: FrogWildConfig {
                    num_walkers: 2_000,
                    iterations: 2,
                    sync_probability: 0.7,
                    ..FrogWildConfig::default()
                },
            },
            1 => Query::Pagerank {
                k,
                config: PageRankConfig::truncated(2),
            },
            2 => Query::Ppr {
                source,
                k,
                teleport_probability: 0.15,
                method: PprMethod::MonteCarlo {
                    walkers: 1_000,
                    max_steps: 16,
                    seed: 0,
                },
            },
            _ => Query::Ppr {
                source,
                k,
                teleport_probability: 0.15,
                method: PprMethod::ForwardPush { epsilon: 1e-4 },
            },
        }
    })
}

proptest! {
    // Every case runs two full serving streams; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn pool_responses_are_bit_identical_to_serial_for_any_schedule(
        vertices in 80usize..200,
        graph_seed in any::<u64>(),
        session_seed in any::<u64>(),
        workers in 1usize..6,
        queue_depth in 1usize..8,
        batch in 1usize..5,
        queries in proptest::collection::vec(query_strategy(80), 1..12),
    ) {
        let graph = graph_of(vertices, graph_seed);
        // The mix draws sources below the minimum vertex count, so every query is valid.
        let build = || {
            Session::builder(&graph)
                .machines(4)
                .seed(session_seed)
                .build()
                .unwrap()
        };

        let mut serial_session = build();
        let serial = serial_session.serve().serve_serial(&queries);

        let mut pool_session = build();
        let pooled = pool_session
            .serve_with(ServeConfig {
                workers,
                queue_depth,
                batch,
                admission: Admission::Block,
            })
            .unwrap()
            .serve(&queries);

        // Block admission never rejects; both paths answer the full stream.
        prop_assert_eq!(pooled.rejected, 0);
        prop_assert_eq!(pooled.outcomes.len(), queries.len());
        prop_assert_eq!(serial.served, pooled.served);
        for (i, (a, b)) in serial.responses().zip(pooled.responses()).enumerate() {
            prop_assert_eq!(a, b, "query {} diverged", i);
        }
        // Both sessions accumulated the same deterministic counters.
        prop_assert_eq!(
            serial_session.stats().totals.walk_hops,
            pool_session.stats().totals.walk_hops
        );
        prop_assert_eq!(
            serial_session.stats().totals.push_ops,
            pool_session.stats().totals.push_ops
        );
    }

    #[test]
    fn reject_admission_conserves_the_stream_and_keeps_served_answers_exact(
        vertices in 80usize..150,
        graph_seed in any::<u64>(),
        session_seed in any::<u64>(),
        workers in 1usize..4,
        queries in proptest::collection::vec(query_strategy(80), 4..16),
    ) {
        let graph = graph_of(vertices, graph_seed);
        let mut session = Session::builder(&graph)
            .machines(4)
            .seed(session_seed)
            .build()
            .unwrap();
        let report = session
            .serve_with(ServeConfig {
                workers,
                queue_depth: 1,
                batch: 1,
                admission: Admission::Reject,
            })
            .unwrap()
            .serve(&queries);

        // Conservation: one outcome per query, and the counts add up.
        prop_assert_eq!(report.outcomes.len(), queries.len());
        prop_assert_eq!(
            report.served + report.rejected + report.failed,
            queries.len() as u64
        );
        prop_assert_eq!(session.stats().queries_rejected, report.rejected);

        // Whatever was served matches the serial reference at the same position.
        let mut reference_session = Session::builder(&graph)
            .machines(4)
            .seed(session_seed)
            .build()
            .unwrap();
        let reference = reference_session.serve().serve_serial(&queries);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            if let QueryOutcome::Served(response) = outcome {
                prop_assert_eq!(
                    response.as_ref(),
                    reference.outcomes[i].response().unwrap(),
                    "served query {} diverged",
                    i
                );
            }
        }
    }
}
