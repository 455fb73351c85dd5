//! Walker-budget planning: how many frogs does a target accuracy need?
//!
//! Remark 6 of the paper says the walker count should scale as `N = O(k / µ_k(π)²)` and
//! the iteration count as `O(log 1/µ_k(π))` — but µ_k(π) is exactly the quantity you do
//! not know before running anything. This example shows the workflow the `confidence`
//! module supports:
//!
//! 1. run a *cheap pilot* (few walkers) to get a rough estimate of the top-k mass;
//! 2. feed the pilot estimate into [`plan_walkers`] to size the real run;
//! 3. run the planned configuration and verify the per-vertex Wilson intervals and the
//!    achieved captured mass.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example walker_planning
//! ```

use frogwild::confidence::{separation_probability, wilson_interval};
use frogwild::prelude::*;
use frogwild::theory::recommended_iterations;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() -> Result<()> {
    let mut rng = SmallRng::seed_from_u64(77);
    let graph = frogwild_graph::generators::livejournal_like(25_000, &mut rng);
    // The pilot and the planned run reuse one session layout — the workflow the
    // `Query::AutotunedTopK` variant automates in a single query.
    let mut session = Session::builder(&graph).machines(16).seed(5).build()?;
    let k = 50;
    println!(
        "graph: {} vertices, {} edges — target: top-{k}",
        graph.num_vertices(),
        graph.num_edges()
    );

    // ------------------------------------------------------------------ 1. pilot run
    let pilot_walkers = 10_000u64;
    let pilot = session.query(&Query::TopK {
        k,
        config: FrogWildConfig {
            num_walkers: pilot_walkers,
            iterations: 3,
            sync_probability: 1.0,
            ..FrogWildConfig::default()
        },
    })?;
    // The pilot's own estimate of how much mass the top-k holds.
    let pilot_mass: f64 = pilot.ranking.iter().map(|&(_, mass)| mass).sum();
    println!("\npilot ({pilot_walkers} walkers): estimated top-{k} mass ≈ {pilot_mass:.3}");

    // ------------------------------------------------------------------ 2. plan
    let plan = plan_walkers(k, graph.num_vertices(), pilot_mass.max(0.01), 0.05, 0.1);
    let iterations = recommended_iterations(0.15, pilot_mass.max(0.01)).clamp(3, 6);
    println!(
        "plan: Theorem-1 sampling term {:?} walkers, per-vertex frequency term {:?} walkers",
        plan.walkers_for_mass, plan.walkers_for_frequency
    );
    // `None` is a count no u64 holds: more walkers than the cap.
    let budget = (plan.walkers_for_mass).map_or(2_000_000, |w| w.clamp(50_000, 2_000_000));
    println!("planned run: {budget} walkers, {iterations} iterations");

    // ------------------------------------------------------------------ 3. real run
    let report = session.query(&Query::TopK {
        k,
        config: FrogWildConfig {
            num_walkers: budget,
            iterations,
            sync_probability: 0.7,
            ..FrogWildConfig::default()
        },
    })?;
    let truth = exact_pagerank(&graph, 0.15, 200, 1e-12);
    let achieved = mass_captured(&report.estimate, &truth.scores, k);
    println!(
        "\nachieved: captured {:.4} of the optimal top-{k} mass ({:.1}% of optimum)",
        achieved.captured,
        achieved.normalized() * 100.0
    );

    // Per-vertex confidence intervals on the head of the list, and the probability that
    // consecutive entries are ordered correctly.
    println!("\nhead of the estimated ranking with 95% Wilson intervals:");
    let top: Vec<VertexId> = report.top_vertices().into_iter().take(8).collect();
    for (rank, &v) in top.iter().enumerate() {
        let count = (report.estimate[v as usize] * budget as f64).round() as u64;
        let interval = wilson_interval(count.min(budget), budget, 0.05);
        let separation = if rank + 1 < top.len() {
            let next_count =
                (report.estimate[top[rank + 1] as usize] * budget as f64).round() as u64;
            separation_probability(count.min(budget), next_count.min(budget), budget)
        } else {
            1.0
        };
        println!(
            "  #{:<2} vertex {:<8} π̂ = {:.5}  [{:.5}, {:.5}]  P(correctly above next) = {:.2}",
            rank + 1,
            v,
            report.estimate[v as usize],
            interval.low,
            interval.high,
            separation
        );
    }
    Ok(())
}
