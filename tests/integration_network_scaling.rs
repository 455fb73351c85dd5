//! Network-traffic and cost-scaling relationships — the systems side of the paper
//! (Figures 1, 3(b), 7(b) and 8).

use frogwild::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn test_graph(n: usize, seed: u64) -> DiGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    frogwild_graph::generators::twitter_like(n, &mut rng)
}

#[test]
fn frogwild_network_traffic_scales_down_with_ps() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    // Figure 1(c) / 3(b): lowering ps lowers bytes sent, roughly proportionally.
    let graph = test_graph(2_000, 1);
    let cluster = ClusterConfig::new(16, 2);
    let pg = frogwild::driver::partition_graph(&graph, &cluster);

    let bytes = |ps: f64| {
        run_frogwild(
            &pg,
            &FrogWildConfig {
                num_walkers: 100_000,
                iterations: 4,
                sync_probability: ps,
                ..FrogWildConfig::default()
            },
            &exec,
            &off,
        )
        .unwrap()
        .cost
        .network_bytes
    };

    let full = bytes(1.0);
    let b07 = bytes(0.7);
    let b04 = bytes(0.4);
    let b01 = bytes(0.1);
    assert!(
        full > b07 && b07 > b04 && b04 > b01,
        "bytes {full} {b07} {b04} {b01}"
    );
    // ps = 0.1 should save at least half of the traffic relative to full sync.
    assert!(
        (b01 as f64) < 0.5 * full as f64,
        "ps=0.1 bytes {b01} vs full {full}"
    );
}

#[test]
fn frogwild_uses_far_less_network_and_time_than_exact_pagerank() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    // Figure 1: exact PR sends orders of magnitude more bytes and takes much longer.
    let graph = test_graph(2_000, 3);
    let cluster = ClusterConfig::new(16, 4);
    let pg = frogwild::driver::partition_graph(&graph, &cluster);

    let fw = run_frogwild(
        &pg,
        &FrogWildConfig {
            num_walkers: 50_000,
            iterations: 4,
            sync_probability: 0.4,
            ..FrogWildConfig::default()
        },
        &exec,
        &off,
    )
    .unwrap();
    let pr_exact = run_graphlab_pr(
        &pg,
        &PageRankConfig {
            max_iterations: 30,
            tolerance: 1e-9,
            ..PageRankConfig::default()
        },
        &exec,
        &off,
    )
    .unwrap();
    let pr_two = run_graphlab_pr(&pg, &PageRankConfig::truncated(2), &exec, &off).unwrap();

    assert!(fw.cost.network_bytes * 5 < pr_exact.cost.network_bytes);
    assert!(fw.cost.network_bytes < pr_two.cost.network_bytes);
    assert!(fw.cost.simulated_seconds < pr_exact.cost.simulated_seconds);
    assert!(fw.cost.simulated_cpu_seconds < pr_exact.cost.simulated_cpu_seconds);
    assert!(fw.cost.seconds_per_iteration() < pr_exact.cost.seconds_per_iteration());
}

#[test]
fn network_traffic_scales_with_number_of_walkers() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    // Figure 8: bytes sent grow roughly linearly in the number of initial walkers when
    // walkers are sparse on the graph.
    let graph = test_graph(3_000, 5);
    let cluster = ClusterConfig::new(20, 6);
    let pg = frogwild::driver::partition_graph(&graph, &cluster);

    let bytes = |walkers: u64| {
        run_frogwild(
            &pg,
            &FrogWildConfig {
                num_walkers: walkers,
                iterations: 4,
                sync_probability: 1.0,
                ..FrogWildConfig::default()
            },
            &exec,
            &off,
        )
        .unwrap()
        .cost
        .network_bytes as f64
    };

    let small = bytes(2_000);
    let medium = bytes(4_000);
    let large = bytes(8_000);
    assert!(small < medium && medium < large);
    // doubling walkers should grow traffic noticeably but less than quadratically
    assert!(large / small > 1.5, "large {large}, small {small}");
    assert!(large / small < 6.0, "large {large}, small {small}");
}

#[test]
fn per_machine_network_is_reported_and_consistent() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    let graph = test_graph(1_500, 7);
    let cluster = ClusterConfig::new(12, 8);
    let report = run_frogwild(
        &frogwild::driver::partition_graph(&graph, &cluster),
        &FrogWildConfig {
            num_walkers: 50_000,
            iterations: 4,
            ..FrogWildConfig::default()
        },
        &exec,
        &off,
    )
    .unwrap();
    let per_machine_total: u64 = report
        .metrics
        .supersteps
        .iter()
        .flat_map(|s| s.bytes_per_machine.iter())
        .sum();
    assert_eq!(per_machine_total, report.cost.network_bytes);
    assert_eq!(report.metrics.num_machines, 12);
    assert!(report.cost.replication_factor >= 1.0);
}

#[test]
fn single_machine_cluster_sends_nothing() {
    let graph = test_graph(800, 9);
    let cluster = ClusterConfig::new(1, 10);
    let mut session = Session::builder(&graph)
        .machines(cluster.num_machines)
        .seed(cluster.seed)
        .build()
        .unwrap();
    let fw = session
        .query(&Query::TopK {
            k: 10,
            config: FrogWildConfig {
                num_walkers: 20_000,
                iterations: 4,
                ..FrogWildConfig::default()
            },
        })
        .unwrap();
    assert_eq!(fw.cost.network_bytes, 0);
    let pr = session
        .query(&Query::Pagerank {
            k: 10,
            config: PageRankConfig::truncated(2),
        })
        .unwrap();
    assert_eq!(pr.cost.network_bytes, 0);
    assert_eq!(session.stats().totals.network_bytes, 0);
}

#[test]
fn skipped_synchronizations_grow_as_ps_drops() {
    let (exec, off) = (ExecutionConfig::default(), Tracer::disabled());
    let graph = test_graph(1_500, 11);
    let cluster = ClusterConfig::new(16, 12);
    let pg = frogwild::driver::partition_graph(&graph, &cluster);
    let skipped = |ps: f64| {
        run_frogwild(
            &pg,
            &FrogWildConfig {
                num_walkers: 50_000,
                iterations: 4,
                sync_probability: ps,
                ..FrogWildConfig::default()
            },
            &exec,
            &off,
        )
        .unwrap()
        .cost
        .skipped_syncs
    };
    assert_eq!(skipped(1.0), 0);
    let s07 = skipped(0.7);
    let s01 = skipped(0.1);
    assert!(s01 > s07, "skipped at ps=0.1 ({s01}) vs ps=0.7 ({s07})");
    assert!(s07 > 0);
}

#[test]
fn more_machines_means_more_replication_and_traffic_for_pagerank() {
    // Figure 1(c): exact PR's traffic grows with the number of machines (more mirrors
    // to synchronize); this is the scaling pressure FrogWild sidesteps.
    let graph = test_graph(2_000, 13);
    let bytes = |machines: usize| {
        let mut session = Session::builder(&graph)
            .machines(machines)
            .seed(14)
            .build()
            .unwrap();
        session
            .query(&Query::Pagerank {
                k: 10,
                config: PageRankConfig::truncated(2),
            })
            .unwrap()
            .cost
            .network_bytes
    };
    let few = bytes(4);
    let many = bytes(24);
    assert!(many > few, "24 machines {many} vs 4 machines {few}");
}
