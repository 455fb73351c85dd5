//! R-MAT (recursive matrix) / stochastic-Kronecker graph generator.
//!
//! R-MAT recursively subdivides the adjacency matrix into quadrants and drops each edge
//! into quadrant `a`/`b`/`c`/`d` with the configured probabilities. With the usual skewed
//! parameters (`a` ≫ `d`) this yields heavy-tailed in- and out-degree distributions very
//! similar to web and social graphs, which is why Graph500 and the PowerGraph paper use
//! it for synthetic scaling studies. We use it here to stand in for the Twitter and
//! LiveJournal graphs of the paper's evaluation (the [`generators`](super) module docs
//! say which of their properties the analysis relies on).
//!
//! # Stream contract
//!
//! What a caller's seed buys is fixed by how the generator reads its `rng`, so this is
//! part of the interface: every golden, partition-layout pin and benchmark digest in the
//! repository rests on it. A graph of `n` vertices descends `scale = max(1, ⌈log₂ n⌉)`
//! levels per attempted edge. Each level draws five `gen::<f64>()` — one 64-bit word
//! each — in the order: the noise of `a`, of `b`, of `c`, of `d`, then the quadrant
//! pick `r`. An attempt therefore consumes exactly `5 · scale` words whether it is
//! accepted or rejected (an endpoint past `n`, or a self-loop), and attempts follow one
//! another with nothing drawn in between. A change to any of this is a change of every
//! generated graph.

use crate::builder::GraphBuilder;
use crate::csr::{DiGraph, VertexId};
use rand::Rng;

/// Parameters of the R-MAT recursion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatParams {
    /// Probability of the top-left quadrant (edges among "popular" vertices).
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// Average number of edges per vertex (the generator draws
    /// `edge_factor * num_vertices` edges before deduplication of exact duplicates is
    /// *not* applied — parallel edges are kept, as in the raw Graph500 output).
    pub edge_factor: f64,
    /// Noise added to the quadrant probabilities at every recursion level, which avoids
    /// the artificial "staircase" degree distribution of noiseless R-MAT.
    pub noise: f64,
}

impl Default for RmatParams {
    fn default() -> Self {
        // Graph500 defaults.
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            edge_factor: 16.0,
            noise: 0.05,
        }
    }
}

impl RmatParams {
    /// The implied probability of the bottom-right quadrant.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    /// Checks that the quadrant probabilities form a distribution that can leave the
    /// diagonal, and the edge factor is positive.
    pub fn validate(&self) -> Result<(), crate::Error> {
        let d = self.d();
        if self.a < 0.0 || self.b < 0.0 || self.c < 0.0 || d < -1e-9 {
            return Err(crate::Error::config(
                "RmatParams",
                format!(
                    "quadrant probabilities must be non-negative (a={}, b={}, c={}, d={})",
                    self.a, self.b, self.c, d
                ),
            ));
        }
        if self.b + self.c <= 0.0 {
            return Err(crate::Error::config(
                "RmatParams",
                "b + c must be positive: with both off-diagonal quadrants empty every draw \
                 is a self-loop, which the generator rejects",
            ));
        }
        if self.edge_factor <= 0.0 {
            return Err(crate::Error::config(
                "RmatParams",
                "edge_factor must be positive",
            ));
        }
        if !(0.0..0.5).contains(&self.noise) {
            return Err(crate::Error::config(
                "RmatParams",
                "noise must be in [0, 0.5)",
            ));
        }
        Ok(())
    }
}

/// Generates an R-MAT graph with `num_vertices` vertices (rounded up internally to a
/// power of two for the recursion, then mapped back down by rejection) and roughly
/// `edge_factor * num_vertices` directed edges. Dangling vertices receive self-loops.
///
/// Attempts are capped at 40 times the edge budget (1 000 at least). The cap is what
/// makes the loop end, not a budget: even just above a power of two, where three draws
/// in four land past `num_vertices`, a run stays far below it. Parameters that starve
/// acceptance — nearly all mass on the diagonal — meet it, and get fewer edges than
/// asked instead of a generator that never returns.
///
/// # Panics
///
/// Panics when `num_vertices` is zero or above `VertexId::MAX` (the ids would not fit
/// a [`VertexId`]), or when `params` does not [`validate`](RmatParams::validate).
pub fn rmat<R: Rng>(num_vertices: usize, params: RmatParams, rng: &mut R) -> DiGraph {
    assert!(num_vertices > 0, "rmat requires at least one vertex");
    assert!(
        num_vertices <= VertexId::MAX as usize,
        "rmat cannot name {num_vertices} vertices with 32-bit ids"
    );
    if let Err(e) = params.validate() {
        // lint:allow(panic, documented precondition: invalid generator parameters are a caller bug)
        panic!("{e}");
    }

    let scale = num_vertices.next_power_of_two().trailing_zeros().max(1);
    let num_edges = (params.edge_factor * num_vertices as f64).round() as usize;
    let n = num_vertices as VertexId;

    let mut b = GraphBuilder::new(num_vertices).with_edge_capacity(num_edges);
    let mut generated = 0usize;
    // Rejection sampling: the recursion works on the padded power-of-two id space; edges
    // that land outside the real vertex range are re-drawn. For typical sizes the
    // acceptance rate is >= 25% (both endpoints), so this terminates quickly.
    let mut attempts = 0usize;
    let max_attempts = num_edges.saturating_mul(40).max(1_000);
    while generated < num_edges && attempts < max_attempts {
        attempts += 1;
        let (src, dst) = sample_edge(scale, &params, rng);
        if src < n && dst < n && src != dst {
            b.add_edge(src, dst);
            generated += 1;
        }
    }
    // lint:allow(panic, generator edges are in range by construction)
    b.build().unwrap()
}

/// Draws one edge by descending `scale` levels of the recursion, reading `rng` as the
/// [module documentation](self) lays down. Ids are below `2^scale`, `scale <= 32`.
fn sample_edge<R: Rng>(scale: u32, params: &RmatParams, rng: &mut R) -> (VertexId, VertexId) {
    let noise = params.noise;
    let (pa, pb, pc, pd) = (params.a, params.b, params.c, params.d().max(0.0));
    // Per-level multiplicative noise keeps the degree distribution smooth.
    let jitter = |p: f64, u: f64| (p * (1.0 + noise * (2.0 * u - 1.0))).max(0.0);
    let (mut src, mut dst) = (0 as VertexId, 0 as VertexId);
    for _ in 0..scale {
        let a = jitter(pa, rng.gen::<f64>());
        let b = jitter(pb, rng.gen::<f64>());
        let c = jitter(pc, rng.gen::<f64>());
        let d = jitter(pd, rng.gen::<f64>());
        let total = a + b + c + d;
        let r = rng.gen::<f64>() * total;
        // The quadrant is the number of thresholds `r` has passed — 0 = a, 1 = b, 2 = c,
        // 3 = d: its high bit moves the source down, its low bit the target right.
        let below = u32::from(r < a) + u32::from(r < a + b) + u32::from(r < a + b + c);
        let q = 3 - below;
        src = src << 1 | q >> 1;
        dst = dst << 1 | q & 1;
    }
    (src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    /// The branching sampler this module started with, kept as the oracle: the
    /// branch-free one must read the same words and land on the same cell.
    fn reference_sample_edge<R: Rng>(
        scale: u32,
        padded: usize,
        params: &RmatParams,
        rng: &mut R,
    ) -> (usize, usize) {
        debug_assert!(padded == 1usize << scale);
        let mut src = 0usize;
        let mut dst = 0usize;
        let mut half = padded >> 1;
        for _ in 0..scale {
            let jitter = |p: f64, rng: &mut R| -> f64 {
                let factor = 1.0 + params.noise * (2.0 * rng.gen::<f64>() - 1.0);
                (p * factor).max(0.0)
            };
            let a = jitter(params.a, rng);
            let b = jitter(params.b, rng);
            let c = jitter(params.c, rng);
            let d = jitter(params.d().max(0.0), rng);
            let total = a + b + c + d;
            let r = rng.gen::<f64>() * total;
            let (down, right) = if r < a {
                (false, false)
            } else if r < a + b {
                (false, true)
            } else if r < a + b + c {
                (true, false)
            } else {
                (true, true)
            };
            if down {
                src += half;
            }
            if right {
                dst += half;
            }
            half >>= 1;
        }
        (src, dst)
    }

    #[test]
    fn branch_free_sampler_draws_what_the_branching_one_drew() {
        let mut cases = SmallRng::seed_from_u64(0x5A3E_D2A5);
        for case in 0..400 {
            let scale = cases.gen_range(1..=24u32);
            // A random point of the simplex, sometimes with an empty quadrant: the
            // thresholds then coincide, and `d` may come out a hair below zero.
            let mut cuts = [cases.gen::<f64>(), cases.gen::<f64>(), cases.gen::<f64>()];
            cuts.sort_by(f64::total_cmp);
            if case % 7 == 0 {
                cuts[cases.gen_range(0..3usize)] = if case % 2 == 0 { 0.0 } else { 1.0 };
                cuts.sort_by(f64::total_cmp);
            }
            let params = RmatParams {
                a: cuts[0],
                b: cuts[1] - cuts[0],
                c: cuts[2] - cuts[1],
                noise: [0.0, 0.49, 0.05, cases.gen_range(0.0..0.5)][case % 4],
                ..RmatParams::default()
            };
            let seed = cases.next_u64();
            let mut old_rng = SmallRng::seed_from_u64(seed);
            let mut new_rng = SmallRng::seed_from_u64(seed);
            for attempt in 0..8 {
                let old = reference_sample_edge(scale, 1usize << scale, &params, &mut old_rng);
                let new = sample_edge(scale, &params, &mut new_rng);
                assert_eq!(
                    (new.0 as usize, new.1 as usize),
                    old,
                    "case {case}, attempt {attempt}: scale {scale}, {params:?}, seed {seed}"
                );
            }
            assert_eq!(old_rng.next_u64(), new_rng.next_u64(), "case {case}");
        }
    }

    #[test]
    fn scale_is_the_ceiling_of_the_binary_logarithm() {
        // What `rmat` computes in integers, against the float expression it replaced.
        let sizes =
            (1..=4100usize).chain([1 << 20, (1 << 20) + 1, (1 << 31) + 1, u32::MAX as usize]);
        for n in sizes {
            let float = (n as f64).log2().ceil().max(1.0) as u32;
            assert_eq!(
                n.next_power_of_two().trailing_zeros().max(1),
                float,
                "n = {n}"
            );
        }
    }

    #[test]
    fn default_params_are_valid() {
        assert!(RmatParams::default().validate().is_ok());
        assert!((RmatParams::default().d() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn invalid_params_rejected() {
        let p = RmatParams {
            a: 0.8,
            b: 0.3,
            c: 0.3,
            ..RmatParams::default()
        };
        assert!(p.validate().is_err());
        let p = RmatParams {
            edge_factor: 0.0,
            ..RmatParams::default()
        };
        assert!(p.validate().is_err());
        let p = RmatParams {
            noise: 0.9,
            ..RmatParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn a_diagonal_only_distribution_is_rejected_not_sampled() {
        // Every draw would be a self-loop: the generator used to spend its whole attempt
        // budget and hand back a graph of nothing but dangling fix-ups.
        let p = RmatParams {
            a: 0.6,
            b: 0.0,
            c: 0.0,
            ..RmatParams::default()
        };
        let err = p.validate().unwrap_err();
        assert!(
            matches!(&err, crate::Error::InvalidConfig { context, .. } if *context == "RmatParams"),
            "{err:?}"
        );
        assert!(err.to_string().contains("b + c"), "{err}");
        // One empty off-diagonal quadrant is still a generator of edges.
        let one_sided = RmatParams {
            b: 0.0,
            ..RmatParams::default()
        };
        assert!(one_sided.validate().is_ok());
        let g = rmat(200, one_sided, &mut SmallRng::seed_from_u64(1));
        assert!(g.num_edges() >= 200 * 16);
    }

    #[test]
    #[should_panic(expected = "32-bit ids")]
    fn more_vertices_than_ids_is_refused_before_anything_is_allocated() {
        rmat(
            VertexId::MAX as usize + 1,
            RmatParams::default(),
            &mut SmallRng::seed_from_u64(1),
        );
    }

    #[test]
    fn generates_requested_scale() {
        let mut rng = SmallRng::seed_from_u64(123);
        let n = 1_000;
        let g = rmat(n, RmatParams::default(), &mut rng);
        assert_eq!(g.num_vertices(), n);
        let avg = g.num_edges() as f64 / n as f64;
        assert!(avg > 10.0 && avg < 20.0, "avg degree {avg}");
        assert!(g.has_no_dangling());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let mut rng = SmallRng::seed_from_u64(321);
        let n = 4_000;
        let g = rmat(n, RmatParams::default(), &mut rng);
        let mut in_degrees: Vec<usize> = g.vertices().map(|v| g.in_degree(v)).collect();
        in_degrees.sort_unstable_by(|a, b| b.cmp(a));
        let avg = g.num_edges() as f64 / n as f64;
        // The heaviest vertex should collect far more than the average in-degree, and
        // a large fraction of vertices should sit below the average (skew).
        assert!(in_degrees[0] as f64 > 8.0 * avg);
        let below = in_degrees.iter().filter(|&&d| (d as f64) < avg).count();
        assert!(below as f64 > 0.55 * n as f64);
    }

    #[test]
    fn reproducible_from_seed() {
        let g1 = rmat(300, RmatParams::default(), &mut SmallRng::seed_from_u64(5));
        let g2 = rmat(300, RmatParams::default(), &mut SmallRng::seed_from_u64(5));
        assert_eq!(g1, g2);
    }

    #[test]
    fn works_for_tiny_graphs() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = rmat(2, RmatParams::default(), &mut rng);
        assert_eq!(g.num_vertices(), 2);
        assert!(g.has_no_dangling());
        let g = rmat(1, RmatParams::default(), &mut rng);
        assert_eq!(g.num_vertices(), 1);
    }

    #[test]
    fn no_self_loops_except_dangling_fixups() {
        let mut rng = SmallRng::seed_from_u64(17);
        let g = rmat(500, RmatParams::default(), &mut rng);
        for v in g.vertices() {
            if g.has_edge(v, v) {
                // a self-loop may only exist if it was added as the sole out-edge
                assert_eq!(g.out_degree(v), 1, "vertex {v} has a spurious self-loop");
            }
        }
    }
}
