//! Personalized PageRank (PPR).
//!
//! The paper positions FrogWild against the Personalized-PageRank line of work
//! (Avrachenkov et al., FAST-PPR): PPR measures the influence of a *source* vertex on
//! every other vertex, whereas FrogWild targets the global ranking. This module provides
//! the three standard PPR computations so the comparison can actually be run:
//!
//! * [`personalized_pagerank`] — dense power iteration on the personalized chain, the
//!   exact reference;
//! * [`forward_push_ppr`] — the Andersen–Chung–Lang local-push approximation, which only
//!   touches the neighbourhood of the source and is the standard serial baseline for
//!   top-k PPR queries;
//! * [`monte_carlo_ppr_counted`] — walkers released from the source with geometric lifespans,
//!   i.e. exactly the FrogWild estimator restricted to a single start vertex.
//!
//! Global PageRank is the special case where the restart distribution is uniform; the
//! tests pin that identity down.

// lint:allow-file(indexing, dense per-vertex tables indexed by validated vertex ids of the same graph)

use frogwild_graph::{DiGraph, VertexId};
use rand::Rng;

use crate::dist;
use crate::reference::PageRankResult;

/// Exact personalized PageRank by power iteration.
///
/// `restart` is the personalization distribution: with probability
/// `teleport_probability` the walk restarts from a vertex drawn from `restart` instead
/// of the uniform distribution used by global PageRank. The vector must be non-negative
/// and is normalised internally; a single-source query passes an indicator vector.
///
/// Dangling vertices send their mass back to the restart distribution, the conventional
/// fix for personalized chains (sending it uniformly would leak mass out of the
/// personalized component).
///
/// # Panics
///
/// Panics if `restart` has the wrong length, sums to zero, or contains negative entries,
/// or if `teleport_probability` is outside `(0, 1)`.
pub fn personalized_pagerank(
    graph: &DiGraph,
    restart: &[f64],
    teleport_probability: f64,
    max_iterations: usize,
    tolerance: f64,
) -> PageRankResult {
    assert!(
        teleport_probability > 0.0 && teleport_probability < 1.0,
        "teleport probability must be in (0, 1)"
    );
    let n = graph.num_vertices();
    assert_eq!(restart.len(), n, "restart vector must cover the vertex set");
    assert!(
        restart.iter().all(|&r| r >= 0.0 && r.is_finite()),
        "restart vector must be non-negative and finite"
    );
    let restart_total: f64 = restart.iter().sum();
    assert!(
        restart_total > 0.0,
        "restart vector must have positive mass"
    );

    if n == 0 {
        return PageRankResult {
            scores: Vec::new(),
            iterations: 0,
            residual: 0.0,
        };
    }
    let restart: Vec<f64> = restart.iter().map(|&r| r / restart_total).collect();

    let mut current = restart.clone();
    let mut next = vec![0.0f64; n];
    let mut iterations = 0;
    let mut residual = f64::INFINITY;

    for _ in 0..max_iterations {
        iterations += 1;
        let dangling_mass: f64 = graph
            .vertices()
            .filter(|&v| graph.out_degree(v) == 0)
            .map(|v| current[v as usize])
            .sum();
        let restart_mass = teleport_probability + (1.0 - teleport_probability) * dangling_mass;
        for (x, &r) in next.iter_mut().zip(restart.iter()) {
            *x = restart_mass * r;
        }
        for v in graph.vertices() {
            let deg = graph.out_degree(v);
            if deg == 0 {
                continue;
            }
            let share = (1.0 - teleport_probability) * current[v as usize] / deg as f64;
            for &dst in graph.out_neighbors(v) {
                next[dst as usize] += share;
            }
        }
        residual = current
            .iter()
            .zip(next.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        std::mem::swap(&mut current, &mut next);
        if residual < tolerance {
            break;
        }
    }

    PageRankResult {
        scores: current,
        iterations,
        residual,
    }
}

/// Result of a [`forward_push_ppr`] computation.
#[derive(Clone, Debug)]
pub struct ForwardPushResult {
    /// Per-vertex PPR estimate (a lower bound on the exact PPR vector).
    pub estimate: Vec<f64>,
    /// Residual mass left at each vertex; the exact PPR of vertex `v` lies within
    /// `[estimate[v], estimate[v] + Σ_u residual[u] · ppr_u(v)]`.
    pub residual: Vec<f64>,
    /// The residual frontier — exactly the vertices with `residual[v] > 0`, ascending —
    /// so whoever continues from the push need not scan `residual` for them.
    pub frontier: Vec<VertexId>,
    /// Number of individual push operations performed (the work measure the local-push
    /// literature reports).
    pub pushes: usize,
}

impl ForwardPushResult {
    /// Total residual mass not yet converted into estimates; at most
    /// `epsilon · Σ_v max(d_out(v), 1)` by the push termination rule. Summed over the
    /// frontier, ascending from `+0.0`: bit for bit the sum over all of `residual`, whose
    /// other entries are exact zeros.
    pub fn residual_mass(&self) -> f64 {
        (self.frontier.iter()).fold(0.0, |mass, &v| mass + self.residual[v as usize])
    }
}

/// Forward-push (Andersen–Chung–Lang) local approximation of single-source PPR.
///
/// Maintains an `estimate` and a `residual` vector, both zero except at `source`
/// initially. While some vertex `u` holds residual mass above
/// `epsilon · max(d_out(u), 1)`, the push rule moves `teleport_probability · r(u)` into
/// `estimate[u]` and spreads the rest over `u`'s out-neighbours — or, at a sink, returns
/// it to `source`, the convention of [`personalized_pagerank`] and
/// [`monte_carlo_ppr_counted`]. The run time is `O(1 / (epsilon · teleport_probability))`
/// *independent of the graph size*, which is why local push is the baseline of choice
/// for top-k PPR.
///
/// # Panics
///
/// Panics if `source` is out of range, `epsilon` is not positive, or
/// `teleport_probability` is outside `(0, 1)`.
pub fn forward_push_ppr(
    graph: &DiGraph,
    source: VertexId,
    teleport_probability: f64,
    epsilon: f64,
) -> ForwardPushResult {
    assert!(
        teleport_probability > 0.0 && teleport_probability < 1.0,
        "teleport probability must be in (0, 1)"
    );
    assert!(epsilon > 0.0, "epsilon must be positive");
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source vertex {source} out of range");

    let mut estimate = vec![0.0f64; n];
    let mut residual = vec![0.0f64; n];
    residual[source as usize] = 1.0;
    // One bit per vertex residual ever reached: the only places the frontier can be.
    let mut reached = vec![0u64; n.div_ceil(64)];
    reached[source as usize / 64] |= 1 << (source % 64);
    // Queue of vertices whose residual exceeds the push threshold. `queued` avoids
    // duplicate entries; a vertex is re-examined when new residual arrives.
    let mut queue: Vec<VertexId> = vec![source];
    let mut queued = vec![false; n];
    queued[source as usize] = true;
    let mut pushes = 0usize;

    while let Some(u) = queue.pop() {
        queued[u as usize] = false;
        let deg = graph.out_degree(u);
        let r = residual[u as usize];
        if r < epsilon * deg.max(1) as f64 {
            continue;
        }
        pushes += 1;
        estimate[u as usize] += teleport_probability * r;
        residual[u as usize] = 0.0;
        // A walk at a sink restarts from the source: its one out-edge, in effect.
        let targets = match graph.out_neighbors(u) {
            [] => std::slice::from_ref(&source),
            targets => targets,
        };
        let share = (1.0 - teleport_probability) * r / targets.len() as f64;
        for &v in targets {
            residual[v as usize] += share;
            reached[v as usize / 64] |= 1 << (v % 64);
            let vdeg = graph.out_degree(v).max(1);
            if !queued[v as usize] && residual[v as usize] >= epsilon * vdeg as f64 {
                queued[v as usize] = true;
                queue.push(v);
            }
        }
    }

    // One pass over the n / 64 words, lowest bit first, yields the frontier ascending.
    let mut frontier = Vec::new();
    for (word, mut bits) in reached.into_iter().enumerate() {
        while bits != 0 {
            let v = word * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if residual[v] > 0.0 {
                frontier.push(v as VertexId);
            }
        }
    }

    ForwardPushResult {
        estimate,
        residual,
        frontier,
        pushes,
    }
}

/// Monte-Carlo single-source PPR: `num_walkers` walkers start at `source`, take a
/// `Geometric(p_T)` number of steps (truncated at `max_steps`), and the empirical
/// distribution of their final positions estimates the PPR vector of `source`.
/// Returned with it: the total hops walked — the per-hop sampling work the estimator
/// actually performed, used by the query service's cost accounting (and the number
/// the walk-index subsystem exists to avoid re-paying).
///
/// Walkers stranded on a dangling vertex restart from `source`, mirroring the mass
/// convention of [`personalized_pagerank`].
pub fn monte_carlo_ppr_counted<R: Rng + ?Sized>(
    graph: &DiGraph,
    source: VertexId,
    num_walkers: u64,
    max_steps: usize,
    teleport_probability: f64,
    rng: &mut R,
) -> (Vec<f64>, u64) {
    assert!(
        teleport_probability > 0.0 && teleport_probability <= 1.0,
        "teleport probability must be in (0, 1]"
    );
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source vertex {source} out of range");
    let mut counts = vec![0u64; n];
    if num_walkers == 0 {
        return (vec![0.0; n], 0);
    }
    let mut hops = 0u64;
    for _ in 0..num_walkers {
        let mut position = source;
        let lifespan = dist::geometric(teleport_probability, rng).min(max_steps as u64);
        hops += lifespan;
        for _ in 0..lifespan {
            let neighbors = graph.out_neighbors(position);
            if neighbors.is_empty() {
                position = source;
                continue;
            }
            position = neighbors[rng.gen_range(0..neighbors.len())];
        }
        counts[position as usize] += 1;
    }
    let estimate = counts
        .into_iter()
        .map(|c| c as f64 / num_walkers as f64)
        .collect();
    (estimate, hops)
}

/// Convenience: the indicator restart vector for a single source vertex.
pub fn single_source_restart(num_vertices: usize, source: VertexId) -> Vec<f64> {
    assert!(
        (source as usize) < num_vertices,
        "source vertex {source} out of range"
    );
    let mut restart = vec![0.0; num_vertices];
    restart[source as usize] = 1.0;
    restart
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{l1_distance, mass_captured};
    use crate::reference::exact_pagerank;
    use frogwild_graph::generators::simple::{cycle, star};
    use frogwild_graph::generators::{rmat, RmatParams};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_graph(n: usize, seed: u64) -> DiGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        rmat(n, RmatParams::default(), &mut rng)
    }

    #[test]
    fn uniform_restart_recovers_global_pagerank() {
        let g = test_graph(300, 3);
        let n = g.num_vertices();
        let uniform = vec![1.0 / n as f64; n];
        let ppr = personalized_pagerank(&g, &uniform, 0.15, 200, 1e-12);
        let global = exact_pagerank(&g, 0.15, 200, 1e-12);
        assert!(l1_distance(&ppr.scores, &global.scores) < 1e-8);
    }

    #[test]
    fn ppr_is_a_distribution_and_favours_the_source_neighbourhood() {
        let g = test_graph(400, 5);
        let restart = single_source_restart(g.num_vertices(), 7);
        let ppr = personalized_pagerank(&g, &restart, 0.15, 200, 1e-12);
        let total: f64 = ppr.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // The source holds at least the teleport mass it receives every step.
        assert!(
            ppr.scores[7] >= 0.15 - 1e-9,
            "source score {}",
            ppr.scores[7]
        );
        // And it is (one of) the heaviest vertices of its own PPR vector.
        let max = ppr.scores.iter().cloned().fold(f64::MIN, f64::max);
        assert!(ppr.scores[7] > 0.5 * max);
    }

    #[test]
    fn restart_vector_is_normalised_internally() {
        let g = star(20);
        let mut restart = vec![0.0; 20];
        restart[3] = 10.0; // unnormalised single-source vector
        let scaled = personalized_pagerank(&g, &restart, 0.15, 100, 1e-12);
        let unit = personalized_pagerank(&g, &single_source_restart(20, 3), 0.15, 100, 1e-12);
        assert!(l1_distance(&scaled.scores, &unit.scores) < 1e-12);
    }

    #[test]
    fn forward_push_lower_bounds_and_approximates_exact_ppr() {
        let g = test_graph(400, 9);
        let source = 11;
        let exact = personalized_pagerank(
            &g,
            &single_source_restart(g.num_vertices(), source),
            0.15,
            300,
            1e-12,
        );
        let push = forward_push_ppr(&g, source, 0.15, 1e-7);
        assert!(push.pushes > 0);
        // estimate + residual conserve all the mass that entered the system
        let total = push.estimate.iter().sum::<f64>() + push.residual_mass();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        for (v, (&e, &x)) in push.estimate.iter().zip(exact.scores.iter()).enumerate() {
            assert!(
                e <= x + 1e-6,
                "push over-estimates vertex {v}: {e} > exact {x}"
            );
        }
        // With a tight epsilon the heavy vertices are identified correctly.
        let m = mass_captured(&push.estimate, &exact.scores, 10);
        assert!(m.normalized() > 0.9, "captured {}", m.normalized());
    }

    /// FNV-1a over the push count and the bits of every estimate and residual entry.
    fn push_digest(push: &ForwardPushResult) -> u64 {
        let words = std::iter::once(push.pushes as u64)
            .chain(push.estimate.iter().map(|x| x.to_bits()))
            .chain(push.residual.iter().map(|x| x.to_bits()));
        words.fold(0xcbf2_9ce4_8422_2325, |hash, word| {
            (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A graph in which three vertices in ten are sinks.
    fn sink_bearing_graph(n: u32) -> DiGraph {
        let edges: Vec<(VertexId, VertexId)> = (0..n)
            .filter(|v| v % 10 >= 3)
            .flat_map(|v| {
                [
                    (v, (v * 7 + 1) % n),
                    (v, (v * 13 + 5) % n),
                    (v, (v + 1) % n),
                ]
            })
            .collect();
        DiGraph::from_edges(n as usize, &edges)
    }

    #[test]
    fn recording_the_frontier_changes_nothing_the_push_computed() {
        // Digests of (pushes, estimate, residual) taken on the commit before the push
        // recorded its frontier: the hand-over is bookkeeping beside the same arithmetic.
        // The sink-bearing graph's was re-taken when a push at a sink began returning
        // its walk to the source instead of settling the whole residual there.
        let pinned = [
            (
                test_graph(400, 9),
                11,
                0.15,
                1e-4,
                0xf3c9_9c86_ec67_f8de_u64,
            ),
            (test_graph(1_000, 21), 3, 0.2, 1e-6, 0x9c65_92bb_504c_52d2),
            (
                sink_bearing_graph(500),
                4,
                0.15,
                1e-5,
                0x5890_5c60_dd24_94c1,
            ),
        ];
        for (g, source, teleport, epsilon, digest) in pinned {
            let push = forward_push_ppr(&g, source, teleport, epsilon);
            assert!(push.pushes > 0);
            assert_eq!(push_digest(&push), digest, "source {source} eps {epsilon}");
        }
    }

    #[test]
    fn a_sink_source_restarts_into_itself_and_is_its_own_frontier() {
        // The general property — frontier == {v : residual[v] > 0}, mass bit-equal to
        // the dense sum — is `push_frontier_is_the_residual_support` in the proptests;
        // this is the one case they cannot promise to draw. A walk from a sink source
        // restarts there forever, so its whole PPR mass is the source's own.
        let g = sink_bearing_graph(500);
        assert_eq!(g.out_degree(0), 0);
        let push = forward_push_ppr(&g, 0, 0.15, 1e-3);
        assert_eq!(push.frontier, [0]);
        // 0.85^k falls below 1e-3 at k = 43.
        assert_eq!(push.pushes, 43);
        assert!((push.estimate[0] + push.residual[0] - 1.0).abs() < 1e-12);
        assert!(push.residual[0] < 1e-3);
        assert!(push.estimate[1..].iter().all(|&x| x == 0.0));
        let dense: f64 = push.residual.iter().sum();
        assert_eq!(push.residual_mass().to_bits(), dense.to_bits());
    }

    #[test]
    fn push_at_a_sink_returns_to_the_source_and_brackets_exact_ppr() {
        // Graphs that keep their sinks: a walk at a sink restarts from the source, as
        // in power iteration and Monte Carlo, so exact PPR lies within the push's
        // estimate plus its residual mass at every vertex.
        let cases = [
            (DiGraph::from_edges(2, &[(0, 1)]), 0),
            (DiGraph::from_edges(5, &[(0, 1), (1, 2), (1, 3), (3, 0)]), 1),
            (DiGraph::from_edges(5, &[(0, 1), (1, 2), (1, 3), (3, 0)]), 4),
            (sink_bearing_graph(200), 4),
            (sink_bearing_graph(200), 17),
        ];
        for (g, source) in &cases {
            let restart = single_source_restart(g.num_vertices(), *source);
            let exact = personalized_pagerank(g, &restart, 0.15, 5_000, 1e-15).scores;
            for epsilon in [1e-3, 1e-6] {
                let push = forward_push_ppr(g, *source, 0.15, epsilon);
                let slack = push.residual_mass();
                for (v, (&e, &x)) in push.estimate.iter().zip(&exact).enumerate() {
                    let case = format!("source {source}, eps {epsilon}, vertex {v}");
                    assert!(e <= x + 1e-9, "{case}: estimate {e} > exact {x}");
                    assert!(x <= e + slack + 1e-9, "{case}: exact {x} > {e} + {slack}");
                }
            }
        }
        // The two-vertex path ranks its source first, as power iteration does.
        let push = forward_push_ppr(&cases[0].0, 0, 0.15, 1e-9);
        assert!(push.estimate[0] > push.estimate[1], "{:?}", push.estimate);
    }

    #[test]
    fn forward_push_work_shrinks_with_looser_epsilon() {
        let g = test_graph(500, 13);
        let tight = forward_push_ppr(&g, 3, 0.15, 1e-7);
        let loose = forward_push_ppr(&g, 3, 0.15, 1e-3);
        assert!(
            loose.pushes <= tight.pushes,
            "loose {} vs tight {}",
            loose.pushes,
            tight.pushes
        );
        assert!(loose.residual_mass() >= tight.residual_mass() - 1e-12);
    }

    #[test]
    fn forward_push_on_a_cycle_decays_with_distance() {
        let g = cycle(30);
        let push = forward_push_ppr(&g, 0, 0.2, 1e-10);
        // PPR mass decays geometrically along the only path.
        assert!(push.estimate[1] > push.estimate[5]);
        assert!(push.estimate[5] > push.estimate[15]);
    }

    #[test]
    fn monte_carlo_ppr_matches_exact_on_heavy_vertices() {
        let g = test_graph(300, 17);
        let source = 5;
        let exact = personalized_pagerank(
            &g,
            &single_source_restart(g.num_vertices(), source),
            0.15,
            300,
            1e-12,
        );
        let mut rng = SmallRng::seed_from_u64(99);
        let (mc, _) = monte_carlo_ppr_counted(&g, source, 60_000, 40, 0.15, &mut rng);
        let total: f64 = mc.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        let m = mass_captured(&mc, &exact.scores, 10);
        assert!(m.normalized() > 0.85, "captured {}", m.normalized());
    }

    #[test]
    fn monte_carlo_ppr_zero_walkers() {
        let g = star(10);
        let mut rng = SmallRng::seed_from_u64(1);
        let (mc, _) = monte_carlo_ppr_counted(&g, 0, 0, 10, 0.15, &mut rng);
        assert_eq!(mc, vec![0.0; 10]);
    }

    #[test]
    #[should_panic(expected = "restart vector must have positive mass")]
    fn rejects_zero_restart_vector() {
        let g = star(5);
        let _ = personalized_pagerank(&g, &[0.0; 5], 0.15, 10, 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn single_source_restart_rejects_bad_vertex() {
        let _ = single_source_restart(5, 9);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn forward_push_rejects_zero_epsilon() {
        let g = star(5);
        let _ = forward_push_ppr(&g, 0, 0.15, 0.0);
    }
}
