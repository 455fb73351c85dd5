//! Integration tests for the `Session` query service: reuse semantics, determinism,
//! equivalence with the one-shot drivers, and typed error paths.

use frogwild::autotune::AutoTuneConfig;
use frogwild::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn test_graph(n: usize, seed: u64) -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    frogwild_graph::generators::twitter_like(n, &mut rng)
}

fn fw_config(walkers: u64) -> FrogWildConfig {
    FrogWildConfig {
        num_walkers: walkers,
        iterations: 4,
        sync_probability: 0.7,
        ..FrogWildConfig::default()
    }
}

#[test]
fn consecutive_queries_reuse_the_partitioned_layout() {
    // The acceptance property of the session API: the second (and every later) query
    // is served without re-partitioning — its cost report shows the session's
    // replication factor, unchanged, and the one-time partitioning cost amortizes.
    let graph = test_graph(1_500, 1);
    let mut session = Session::builder(&graph)
        .machines(12)
        .seed(2)
        .build()
        .unwrap();
    let build_rf = session.replication_factor();
    assert!(
        session.stats().partition_seconds > 0.0,
        "build() partitions"
    );

    let first = session
        .query(&Query::TopK {
            k: 20,
            config: fw_config(30_000),
        })
        .unwrap();
    let second = session
        .query(&Query::Pagerank {
            k: 20,
            config: PageRankConfig::truncated(2),
        })
        .unwrap();

    for (label, response) in [("first", &first), ("second", &second)] {
        assert_eq!(
            response.cost.replication_factor, build_rf,
            "{label} query changed the replication factor"
        );
    }
    // The session-level partitioning cost did not grow with the second query.
    assert_eq!(session.stats().queries_served, 2);
    assert!(session.stats().amortized_partition_seconds() < session.stats().partition_seconds);
}

#[test]
fn same_seed_gives_identical_responses_across_repeats() {
    let graph = test_graph(1_200, 3);
    let mut session = Session::builder(&graph)
        .machines(8)
        .seed(5)
        .build()
        .unwrap();
    let query = Query::TopK {
        k: 25,
        config: fw_config(40_000),
    };
    let first = session.query(&query).unwrap();
    let second = session.query(&query).unwrap();
    let third = session.query(&query).unwrap();
    assert_eq!(first, second);
    assert_eq!(second, third);
    // Different seed ⇒ different walker placement ⇒ (almost surely) different estimate.
    let reseeded = session
        .query(&Query::TopK {
            k: 25,
            config: FrogWildConfig {
                seed: 999,
                ..fw_config(40_000)
            },
        })
        .unwrap();
    assert_ne!(first.estimate, reseeded.estimate);
}

#[test]
fn session_topk_matches_fresh_one_shot_run_bit_for_bit() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    // A session query over the default (oblivious) partitioner must equal the one-shot
    // driver path on a freshly partitioned cluster with the same seeds.
    let graph = test_graph(1_500, 7);
    let machines = 12;
    let seed = 11;
    let config = fw_config(50_000);

    let mut session = Session::builder(&graph)
        .machines(machines)
        .seed(seed)
        .build()
        .unwrap();
    let response = session.query(&Query::TopK { k: 30, config }).unwrap();

    let cluster = ClusterConfig::new(machines, seed);
    let one_shot = run_frogwild(&partition_graph(&graph, &cluster), &config, &exec, &off).unwrap();

    assert_eq!(response.estimate, one_shot.estimate);
    assert_eq!(response.top_vertices(), one_shot.top_k(30));
    assert_eq!(response.cost.network_bytes, one_shot.cost.network_bytes);
    assert_eq!(response.cost.supersteps, one_shot.cost.supersteps);
}

#[test]
fn session_pagerank_matches_fresh_one_shot_run_bit_for_bit() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    let graph = test_graph(1_000, 13);
    let machines = 8;
    let seed = 17;
    let config = PageRankConfig::truncated(2);

    let mut session = Session::builder(&graph)
        .machines(machines)
        .seed(seed)
        .build()
        .unwrap();
    let response = session.query(&Query::Pagerank { k: 30, config }).unwrap();

    let cluster = ClusterConfig::new(machines, seed);
    let one_shot =
        run_graphlab_pr(&partition_graph(&graph, &cluster), &config, &exec, &off).unwrap();
    assert_eq!(response.estimate, one_shot.estimate);
}

#[test]
fn autotuned_query_runs_and_reports_plan_details() {
    let graph = test_graph(1_000, 19);
    let mut session = Session::builder(&graph)
        .machines(8)
        .seed(23)
        .build()
        .unwrap();
    let response = session
        .query(&Query::AutotunedTopK {
            config: AutoTuneConfig {
                k: 20,
                pilot_walkers: 2_000,
                max_walkers: 60_000,
                ..AutoTuneConfig::default()
            },
        })
        .unwrap();
    assert_eq!(response.ranking.len(), 20);
    match response.detail {
        ResponseDetail::AutotunedTopK {
            estimated_topk_mass,
            planned_walkers,
            planned_iterations,
            pilot_network_bytes,
        } => {
            assert!(estimated_topk_mass > 0.0 && estimated_topk_mass <= 1.0);
            assert!((2_000..=60_000).contains(&planned_walkers));
            assert!(planned_iterations >= 1);
            assert!(pilot_network_bytes > 0);
            // The response cost includes the pilot's traffic.
            assert!(response.cost.network_bytes > pilot_network_bytes);
        }
        ref other => panic!("wrong detail variant: {other:?}"),
    }
}

#[test]
fn partitioner_choice_changes_layout_but_not_correctness() {
    let graph = test_graph(1_500, 29);
    let truth = exact_pagerank(&graph, 0.15, 200, 1e-12);
    for kind in PartitionerKind::ALL {
        let mut session = Session::builder(&graph)
            .machines(8)
            .partitioner(kind)
            .seed(31)
            .build()
            .unwrap();
        assert_eq!(session.partitioner(), kind);
        let response = session
            .query(&Query::Pagerank {
                k: 30,
                config: PageRankConfig::exact(),
            })
            .unwrap();
        let mass = mass_captured(&response.estimate, &truth.scores, 30).normalized();
        assert!(mass > 0.99, "{kind}: mass {mass}");
    }
}

// ---------------------------------------------------------------- error paths

#[test]
fn builder_errors_are_typed() {
    let graph = test_graph(200, 37);
    match Session::builder(&graph).machines(0).build() {
        Err(Error::InvalidConfig { context, message }) => {
            assert_eq!(context, "SessionBuilder");
            assert!(message.contains("machines"));
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    let empty = DiGraph::empty(0);
    assert!(matches!(
        Session::builder(&empty).build(),
        Err(Error::Graph { .. })
    ));
}

#[test]
fn each_invalid_frogwild_config_field_returns_invalid_config() {
    let graph = test_graph(200, 41);
    let mut session = Session::builder(&graph).machines(2).build().unwrap();
    let base = fw_config(1_000);
    let bad_configs = [
        FrogWildConfig {
            num_walkers: 0,
            ..base
        },
        FrogWildConfig {
            iterations: 0,
            ..base
        },
        FrogWildConfig {
            sync_probability: 0.0,
            ..base
        },
        FrogWildConfig {
            sync_probability: 1.5,
            ..base
        },
    ];
    for config in bad_configs {
        match session.query(&Query::TopK { k: 5, config }) {
            Err(Error::InvalidConfig { context, .. }) => {
                assert_eq!(context, "FrogWildConfig")
            }
            other => panic!("{config:?} should fail validation, got {other:?}"),
        }
    }
}

#[test]
fn each_invalid_pagerank_config_field_returns_invalid_config() {
    let graph = test_graph(200, 43);
    let mut session = Session::builder(&graph).machines(2).build().unwrap();
    let base = PageRankConfig::default();
    let bad_configs = [
        PageRankConfig {
            max_iterations: 0,
            ..base
        },
        PageRankConfig {
            tolerance: -1.0,
            ..base
        },
    ];
    for config in bad_configs {
        match session.query(&Query::Pagerank { k: 5, config }) {
            Err(Error::InvalidConfig { context, .. }) => {
                assert_eq!(context, "PageRankConfig")
            }
            other => panic!("{config:?} should fail validation, got {other:?}"),
        }
    }
}

#[test]
fn invalid_autotune_and_ppr_queries_return_typed_errors() {
    let graph = test_graph(200, 47);
    let mut session = Session::builder(&graph).machines(2).build().unwrap();
    assert!(matches!(
        session.query(&Query::AutotunedTopK {
            config: AutoTuneConfig {
                mass_loss_target: 0.0,
                ..AutoTuneConfig::default()
            },
        }),
        Err(Error::InvalidConfig {
            context: "AutoTuneConfig",
            ..
        })
    ));
    assert!(matches!(
        session.query(&Query::Ppr {
            source: 0,
            k: 5,
            teleport_probability: 1.0,
            method: PprMethod::ForwardPush { epsilon: 1e-6 },
        }),
        Err(Error::InvalidConfig {
            context: "Query::Ppr",
            ..
        })
    ));
    assert!(matches!(
        session.query(&Query::Ppr {
            source: 0,
            k: 5,
            teleport_probability: 0.15,
            method: PprMethod::PowerIteration {
                max_iterations: 0,
                tolerance: 1e-9
            },
        }),
        Err(Error::InvalidConfig {
            context: "PprMethod::PowerIteration",
            ..
        })
    ));
    // Malformed query (not a config problem): out-of-range source.
    assert!(matches!(
        session.query(&Query::Ppr {
            source: u32::MAX,
            k: 5,
            teleport_probability: 0.15,
            method: PprMethod::ForwardPush { epsilon: 1e-6 },
        }),
        Err(Error::Query { .. })
    ));
    // Failed queries never count towards the served stream.
    assert_eq!(session.stats().queries_served, 0);
}
