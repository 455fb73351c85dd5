//! The FrogWild! vertex program (Section 2.2 of the paper).
//!
//! Each vertex tracks two counters: `live`, the frogs that arrived in the current
//! superstep and survived teleportation, and `stopped`, the frogs that died here (their
//! final positions are the samples from π). During `apply` every incoming frog dies
//! with probability `p_T`; at the final superstep all arrivals are absorbed. During
//! `scatter` the surviving frogs are divided across the *participating* (synchronized)
//! replicas and spread over their locally-owned out-edges — either with the
//! deterministic split the paper's implementation uses, or with the idealized binomial
//! draw from the paper's algorithm box.

use frogwild_engine::{ApplyContext, ScatterContext, VertexProgram};
use frogwild_graph::VertexId;
use rand::Rng;

use crate::config::FrogWildConfig;
use crate::dist;

/// Per-vertex walker counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrogState {
    /// Frogs that arrived in the latest superstep and survived teleportation; they will
    /// be forwarded by the next scatter phase (`K(i)` in the paper).
    pub live: u64,
    /// Frogs that died (teleported or hit the step limit) on this vertex (`c(i)`); the
    /// estimator is `c(i) / N`.
    pub stopped: u64,
}

impl FrogState {
    /// Every frog currently attributable to this vertex.
    pub fn total(&self) -> u64 {
        self.live + self.stopped
    }
}

/// The FrogWild vertex program. Construct it from a [`FrogWildConfig`].
#[derive(Clone, Debug)]
pub struct FrogWildProgram {
    /// Walker death probability per step (`p_T`).
    teleport_probability: f64,
    /// Number of engine supersteps before every surviving walker is absorbed (`t`).
    iterations: usize,
    /// Use the idealized per-edge binomial scatter instead of the deterministic split.
    binomial_scatter: bool,
}

impl FrogWildProgram {
    /// Builds the program from an experiment configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`](crate::Error::InvalidConfig) when the
    /// configuration fails [`FrogWildConfig::validate`].
    pub fn new(config: &FrogWildConfig) -> Result<Self, crate::Error> {
        config.validate()?;
        Ok(FrogWildProgram {
            teleport_probability: config.teleport_probability,
            iterations: config.iterations,
            binomial_scatter: config.binomial_scatter,
        })
    }

    /// The configured number of supersteps.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

impl VertexProgram for FrogWildProgram {
    type State = FrogState;
    type Message = u64;
    type Accum = ();

    fn combine_messages(&self, a: u64, b: u64) -> u64 {
        a + b
    }

    fn combine_accums(&self, _a: (), _b: ()) {}

    fn apply(
        &self,
        ctx: &mut ApplyContext<'_>,
        _vertex: VertexId,
        state: &mut FrogState,
        _accum: Option<()>,
        message: Option<u64>,
    ) {
        let incoming = message.unwrap_or(0);
        if ctx.superstep + 1 >= self.iterations {
            // Final superstep: "If t steps have been performed, c(i) ← c(i) + K(i) and halt."
            state.stopped += incoming;
            state.live = 0;
            return;
        }
        // Each incoming frog dies (teleports away, i.e. is sampled here) with
        // probability p_T.
        let deaths = dist::binomial(incoming, self.teleport_probability, ctx.rng);
        state.stopped += deaths;
        state.live = incoming - deaths;
    }

    // The gated magnitude is the live-walker count: a vertex with no frog left to
    // forward (`live == 0`) is gated at every tolerance, the engine's default of 0
    // included, and a positive tolerance additionally parks near-empty vertices (their
    // walkers stay in `live` and still count toward the estimator).
    fn delta(&self, _old: &FrogState, new: &FrogState) -> f64 {
        new.live as f64
    }

    fn scatter_replica(
        &self,
        ctx: &mut ScatterContext<'_>,
        _vertex: VertexId,
        state: &FrogState,
        local_out_neighbors: &[VertexId],
        emit: &mut dyn FnMut(VertexId, u64),
    ) {
        if state.live == 0 || local_out_neighbors.is_empty() {
            return;
        }
        if self.binomial_scatter {
            // Paper's algorithm box: every out-edge incident to a synchronized replica
            // draws x ~ Bin(K(i), 1 / (d_out(i) · p_s)). Expectation over the random
            // synchronization equals K(i), matching a true random walk marginally.
            let p = 1.0
                / (ctx.global_out_degree.max(1) as f64
                    * ctx.sync_probability.max(f64::MIN_POSITIVE));
            let p = p.min(1.0);
            for &dst in local_out_neighbors {
                let x = dist::binomial(state.live, p, ctx.rng);
                if x > 0 {
                    emit(dst, x);
                }
            }
        } else {
            // Paper's implementation: divide K(i) evenly across the participating
            // replicas, then spread this replica's share uniformly over its local
            // out-edges, assigning the remainder to randomly chosen edges.
            let share = dist::even_split(state.live, ctx.num_participating, ctx.replica_rank);
            if share == 0 {
                return;
            }
            let len = local_out_neighbors.len();
            let per_edge = share / len as u64;
            let remainder = (share % len as u64) as usize;
            let offset = if remainder > 0 {
                ctx.rng.gen_range(0..len)
            } else {
                0
            };
            // The `remainder` edges starting at the random offset, wrapping past the
            // last edge, get one extra frog.
            let end = offset + remainder;
            let wrapped = end.saturating_sub(len);
            if per_edge == 0 {
                // Fewer frogs than edges (walkers ≪ vertices): only those edges emit,
                // in edge order — the wrapped part first.
                let head = local_out_neighbors.iter().take(wrapped);
                let tail = local_out_neighbors.iter().skip(offset);
                for &dst in head.chain(tail.take(remainder - wrapped)) {
                    emit(dst, 1);
                }
                return;
            }
            for (idx, &dst) in local_out_neighbors.iter().enumerate() {
                let extra = idx < wrapped || (offset..end).contains(&idx);
                emit(dst, per_edge + u64::from(extra));
            }
        }
    }

    fn state_bytes(&self) -> usize {
        // live + stopped counters
        16
    }

    fn message_bytes(&self) -> usize {
        // one combined frog count
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frogwild_engine::{ApplyContext, ScatterContext};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn config(iterations: usize) -> FrogWildConfig {
        FrogWildConfig {
            num_walkers: 1000,
            iterations,
            ..FrogWildConfig::default()
        }
    }

    fn apply_ctx<'a>(superstep: usize, rng: &'a mut SmallRng) -> ApplyContext<'a> {
        ApplyContext { superstep, rng }
    }

    #[test]
    fn apply_conserves_frogs() {
        let program = FrogWildProgram::new(&config(10)).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut state = FrogState::default();
        let mut ctx = apply_ctx(0, &mut rng);
        program.apply(&mut ctx, 0, &mut state, None, Some(10_000));
        assert_eq!(state.total(), 10_000);
        assert!(state.stopped > 0, "some frogs should die with p_T = 0.15");
        assert!(state.live > 0, "most frogs should survive");
        // The survivors are what the executor's gate is asked about.
        assert_eq!(
            program.delta(&FrogState::default(), &state),
            state.live as f64
        );
    }

    #[test]
    fn death_rate_matches_teleport_probability() {
        let program = FrogWildProgram::new(&config(10)).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        let mut total_dead = 0u64;
        let trials = 200u64;
        let per_trial = 1_000u64;
        for i in 0..trials {
            let mut state = FrogState::default();
            let mut ctx = apply_ctx((i % 5) as usize, &mut rng);
            program.apply(&mut ctx, 0, &mut state, None, Some(per_trial));
            total_dead += state.stopped;
        }
        let rate = total_dead as f64 / (trials * per_trial) as f64;
        assert!((rate - 0.15).abs() < 0.01, "death rate {rate}");
    }

    #[test]
    fn final_superstep_absorbs_everything() {
        let program = FrogWildProgram::new(&config(4)).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut state = FrogState {
            live: 0,
            stopped: 7,
        };
        let mut ctx = apply_ctx(3, &mut rng); // superstep 3 is the 4th and last
        program.apply(&mut ctx, 0, &mut state, None, Some(500));
        assert_eq!(state.live, 0);
        assert_eq!(state.stopped, 507);
        // Nothing left to forward: gated at every tolerance.
        assert_eq!(program.delta(&FrogState::default(), &state), 0.0);
    }

    #[test]
    fn no_message_means_no_change_except_absorption() {
        let program = FrogWildProgram::new(&config(4)).unwrap();
        let mut rng = SmallRng::seed_from_u64(6);
        let mut state = FrogState {
            live: 3,
            stopped: 2,
        };
        let mut ctx = apply_ctx(1, &mut rng);
        program.apply(&mut ctx, 0, &mut state, None, None);
        // no arrivals: the previous live frogs have already been forwarded, so live resets
        assert_eq!(state.live, 0);
        assert_eq!(state.stopped, 2);
    }

    fn scatter_ctx<'a>(
        rank: usize,
        participating: usize,
        global_deg: u32,
        ps: f64,
        rng: &'a mut SmallRng,
    ) -> ScatterContext<'a> {
        ScatterContext {
            replica_rank: rank,
            num_participating: participating,
            global_out_degree: global_deg,
            sync_probability: ps,
            rng,
        }
    }

    #[test]
    fn deterministic_scatter_conserves_share() {
        let program = FrogWildProgram::new(&config(10)).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let state = FrogState {
            live: 1_003,
            stopped: 0,
        };
        let neighbors: Vec<VertexId> = (10..17).collect();
        let mut total_sent = 0u64;
        for rank in 0..3 {
            let mut ctx = scatter_ctx(rank, 3, 21, 1.0, &mut rng);
            program.scatter_replica(&mut ctx, 0, &state, &neighbors, &mut |_dst, x| {
                total_sent += x;
            });
        }
        assert_eq!(total_sent, 1_003);
    }

    #[test]
    fn deterministic_scatter_spreads_over_local_edges() {
        let program = FrogWildProgram::new(&config(10)).unwrap();
        let mut rng = SmallRng::seed_from_u64(8);
        let state = FrogState {
            live: 700,
            stopped: 0,
        };
        let neighbors: Vec<VertexId> = (0..7).collect();
        let mut per_dst = vec![0u64; 7];
        let mut ctx = scatter_ctx(0, 1, 7, 1.0, &mut rng);
        program.scatter_replica(&mut ctx, 0, &state, &neighbors, &mut |dst, x| {
            per_dst[dst as usize] += x;
        });
        assert_eq!(per_dst.iter().sum::<u64>(), 700);
        for &count in &per_dst {
            assert_eq!(count, 100);
        }
    }

    /// The deterministic split as a loop over every neighbour with a `%` per edge —
    /// what `scatter_replica` ran before it short-circuited `share < local degree`.
    /// Kept as the reference the proptest below compares against.
    fn reference_split(
        ctx: &mut ScatterContext<'_>,
        live: u64,
        neighbors: &[VertexId],
    ) -> Vec<(VertexId, u64)> {
        let mut out = Vec::new();
        let share = dist::even_split(live, ctx.num_participating, ctx.replica_rank);
        if share == 0 || neighbors.is_empty() {
            return out;
        }
        let degree = neighbors.len() as u64;
        let per_edge = share / degree;
        let remainder = (share % degree) as usize;
        let offset = if remainder > 0 {
            ctx.rng.gen_range(0..neighbors.len())
        } else {
            0
        };
        for (idx, &dst) in neighbors.iter().enumerate() {
            let rotated = (idx + neighbors.len() - offset) % neighbors.len();
            let amount = per_edge + u64::from(rotated < remainder);
            if amount > 0 {
                out.push((dst, amount));
            }
        }
        out
    }

    type Emissions = Vec<(VertexId, u64)>;

    /// What `scatter_replica` emits and what the reference emits, from one rng seed.
    fn split_both_ways(
        live: u64,
        rank: usize,
        participating: usize,
        neighbors: &[VertexId],
        rng_seed: u64,
    ) -> (Emissions, Emissions) {
        let program = FrogWildProgram::new(&config(10)).unwrap();
        let state = FrogState { live, stopped: 0 };
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let mut ctx = scatter_ctx(rank, participating, 64, 1.0, &mut rng);
        let expected = reference_split(&mut ctx, live, neighbors);
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let mut ctx = scatter_ctx(rank, participating, 64, 1.0, &mut rng);
        let mut emitted = Vec::new();
        program.scatter_replica(&mut ctx, 0, &state, neighbors, &mut |dst, x| {
            emitted.push((dst, x));
        });
        (emitted, expected)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn deterministic_split_matches_the_per_neighbour_reference(
            // Three cases in four have fewer frogs than edges can carry (the
            // short-circuit); the fourth has `share >= degree`.
            few in 0u64..40,
            many in 0u64..5_000,
            pick in 0u8..4,
            participating in 1usize..5,
            rank_seed in any::<usize>(),
            degree in 0usize..48,
            rng_seed in any::<u64>(),
        ) {
            let live = if pick == 0 { many } else { few };
            let rank = rank_seed % participating;
            // Distinct destinations, so a sequence mismatch cannot hide.
            let neighbors: Vec<VertexId> = (0..degree as VertexId).map(|i| 7 * i + 3).collect();
            let (emitted, expected) =
                split_both_ways(live, rank, participating, &neighbors, rng_seed);
            prop_assert_eq!(&emitted, &expected);
            let total: u64 = emitted.iter().map(|&(_, x)| x).sum();
            let share = dist::even_split(live, participating, rank);
            prop_assert_eq!(total, if degree == 0 { 0 } else { share });
        }
    }

    #[test]
    fn deterministic_split_wraps_past_the_last_edge() {
        // Every remainder of a 5-edge replica under 200 rng seeds: splits whose extra
        // frogs wrap past the last edge (`offset + remainder > 5`) must be among them,
        // with and without a whole frog per edge.
        let neighbors: Vec<VertexId> = vec![10, 11, 12, 13, 14];
        let mut wrapped = [0usize; 2];
        for seed in 0..200u64 {
            for live in [1, 2, 3, 4, 6, 7, 8, 9u64] {
                let (emitted, expected) = split_both_ways(live, 0, 1, &neighbors, seed);
                assert_eq!(emitted, expected, "seed {seed} live {live}");
                // Wrapped: the first and the last edge both carry an extra frog (fewer
                // than 5 edges do, so one between them does not).
                let extra = live / 5 + 1;
                if emitted.first() == Some(&(10, extra)) && emitted.last() == Some(&(14, extra)) {
                    wrapped[usize::from(live > 5)] += 1;
                }
            }
        }
        assert!(
            wrapped[0] > 0 && wrapped[1] > 0,
            "no wrap-around split: {wrapped:?}"
        );
    }

    #[test]
    fn binomial_scatter_preserves_expectation() {
        let cfg = FrogWildConfig {
            binomial_scatter: true,
            ..config(10)
        };
        let program = FrogWildProgram::new(&cfg).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let state = FrogState {
            live: 1_000,
            stopped: 0,
        };
        // A vertex with 10 out-edges split over two replicas of 5 local edges each,
        // ps = 1: the expected total across both replicas is live (= 1000).
        let neighbors: Vec<VertexId> = (0..5).collect();
        let trials = 300;
        let mut grand_total = 0u64;
        for _ in 0..trials {
            for rank in 0..2 {
                let mut ctx = scatter_ctx(rank, 2, 10, 1.0, &mut rng);
                program.scatter_replica(&mut ctx, 0, &state, &neighbors, &mut |_d, x| {
                    grand_total += x;
                });
            }
        }
        let mean = grand_total as f64 / trials as f64;
        assert!(
            (mean - 1_000.0).abs() < 20.0,
            "expected ~1000 frogs forwarded on average, got {mean}"
        );
    }

    #[test]
    fn scatter_with_no_live_frogs_emits_nothing() {
        let program = FrogWildProgram::new(&config(4)).unwrap();
        let mut rng = SmallRng::seed_from_u64(10);
        let state = FrogState::default();
        let neighbors: Vec<VertexId> = vec![1, 2];
        let mut called = false;
        let mut ctx = scatter_ctx(0, 1, 2, 1.0, &mut rng);
        program.scatter_replica(&mut ctx, 0, &state, &neighbors, &mut |_d, _x| {
            called = true;
        });
        assert!(!called);
    }

    #[test]
    fn message_and_state_sizes() {
        let program = FrogWildProgram::new(&config(4)).unwrap();
        assert_eq!(program.state_bytes(), 16);
        assert_eq!(program.message_bytes(), 8);
        assert_eq!(program.iterations(), 4);
    }
}
