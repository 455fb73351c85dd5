//! "Who to follow": personalized-PageRank recommendations on a follower graph.
//!
//! The FrogWild paper positions its global top-k estimator against the Personalized
//! PageRank (PPR) line of work (Section 2.4). This example shows the two living side by
//! side in one application, the way a social-network recommendation pipeline would use
//! them:
//!
//! 1. the *global* top-k (FrogWild on the simulated cluster) supplies the "popular
//!    accounts" shelf shown to everyone;
//! 2. a *personalized* ranking (forward-push PPR from one user) supplies the
//!    "because you follow…" shelf, computed locally in microseconds because forward
//!    push only touches the source's neighbourhood.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example who_to_follow
//! ```

use frogwild::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() -> Result<()> {
    // A scaled-down follower graph with the Twitter graph's shape.
    let mut rng = SmallRng::seed_from_u64(2026);
    let graph = frogwild_graph::generators::twitter_like(15_000, &mut rng);
    println!(
        "follower graph: {} users, {} follow edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // One session serves both shelves: the engine-backed global ranking and the
    // serial personalized queries share the same service object.
    let mut session = Session::builder(&graph).machines(12).seed(9).build()?;

    // ---------------------------------------------------------------- global shelf
    let report = session.query(&Query::TopK {
        k: 10,
        config: FrogWildConfig {
            num_walkers: 120_000,
            iterations: 4,
            sync_probability: 0.7,
            ..FrogWildConfig::default()
        },
    })?;
    println!(
        "\nglobal \"popular accounts\" shelf (FrogWild, {} bytes of network traffic):",
        report.cost.network_bytes
    );
    for (rank, (v, mass)) in report.ranking.iter().enumerate() {
        println!(
            "  #{:<2} account {:<8} estimated mass {:.5}",
            rank + 1,
            v,
            mass
        );
    }

    // ---------------------------------------------------------------- personal shelf
    // Pick a user with a handful of follows so the personalized list is interesting.
    let user = graph
        .vertices()
        .find(|&v| (3..20).contains(&graph.out_degree(v)))
        .expect("the generator always produces mid-degree users");
    let push = session.query(&Query::Ppr {
        source: user,
        k: 30,
        teleport_probability: 0.15,
        method: PprMethod::ForwardPush { epsilon: 1e-6 },
    })?;
    if let ResponseDetail::Ppr { residual, .. } = push.detail {
        println!(
            "\npersonal \"because you follow…\" shelf for user {user} \
             ({} pushes, residual mass {residual:.4}):",
            push.cost.push_ops
        );
    }
    let mut recommended = 0usize;
    for v in push.top_vertices() {
        // Skip the user themself and accounts they already follow.
        if v == user || graph.has_edge(user, v) {
            continue;
        }
        recommended += 1;
        println!(
            "  #{:<2} account {:<8} ppr {:.6}",
            recommended, v, push.estimate[v as usize]
        );
        if recommended == 10 {
            break;
        }
    }

    // ---------------------------------------------------------------- sanity check
    // Forward push is an approximation; verify its top picks against exact PPR
    // served by the same session.
    let exact = session.query(&Query::Ppr {
        source: user,
        k: 20,
        teleport_probability: 0.15,
        method: PprMethod::PowerIteration {
            max_iterations: 200,
            tolerance: 1e-10,
        },
    })?;
    let agreement = exact_identification(&push.estimate, &exact.estimate, 20);
    println!(
        "\nforward push agrees with exact personalized PageRank on {:.0}% of the top-20",
        agreement * 100.0
    );
    Ok(())
}
