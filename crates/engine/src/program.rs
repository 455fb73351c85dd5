//! The gather–apply–scatter (GAS) vertex-program abstraction.
//!
//! A [`VertexProgram`] describes what each vertex does during a superstep. The engine
//! drives it through the PowerGraph execution model:
//!
//! 1. **message delivery** — signals emitted by `scatter` in the previous superstep are
//!    combined per destination vertex and delivered to the destination's *master*;
//! 2. **gather** — for programs that request it, each machine computes a partial
//!    accumulation over its locally-owned edges of every active vertex and sends the
//!    partial result to the vertex's master;
//! 3. **apply** — the master updates the authoritative vertex state;
//! 4. **sync** — the new state is pushed to mirrors, each mirror included only with
//!    probability `p_s` (the paper's partial-synchronization knob);
//! 5. **scatter** — every *participating* replica (the master's machine plus the synced
//!    mirrors) runs `scatter_replica` over the out-edges it owns locally, emitting
//!    signals for the next superstep.
//!
//! The split of `scatter` into per-replica calls (rather than per-edge calls) is what
//! lets the FrogWild program reproduce the paper's implementation exactly: the master
//! divides its surviving frogs across the participating replicas, and each replica then
//! spreads its allotment over its local out-edges.

use frogwild_graph::VertexId;
use rand::rngs::SmallRng;

/// Which edges a phase of the program touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeDirection {
    /// The phase is skipped entirely.
    None,
    /// The phase runs over in-edges.
    In,
}

/// Context available to [`VertexProgram::apply`], executed at the vertex's master.
pub struct ApplyContext<'a> {
    /// Current superstep index (0-based).
    pub superstep: usize,
    /// Deterministic per-(vertex, superstep) random number generator.
    pub rng: &'a mut SmallRng,
}

/// Context available to [`VertexProgram::scatter_replica`], executed on every
/// participating replica of an active vertex.
pub struct ScatterContext<'a> {
    /// Rank of this replica among the participating replicas of the vertex this
    /// superstep (0-based, in ascending machine order).
    pub replica_rank: usize,
    /// Total number of replicas participating for this vertex this superstep
    /// (the master's machine plus every synchronized mirror).
    pub num_participating: usize,
    /// Global out-degree of the vertex (over the whole graph).
    pub global_out_degree: u32,
    /// The synchronization probability currently in force (1.0 under full sync). The
    /// FrogWild binomial scatter uses it to keep the expected number of emitted frogs
    /// equal to the number of live frogs.
    pub sync_probability: f64,
    /// Deterministic per-(vertex, machine, superstep) random number generator.
    pub rng: &'a mut SmallRng,
}

/// A vertex program executed by the engine. See the module docs for the execution
/// model. All associated types must be cheap to clone; the engine clones states when
/// synchronizing mirrors (which is exactly the traffic it accounts for).
pub trait VertexProgram: Send + Sync {
    /// Per-vertex state. Held authoritatively at the master, cached at mirrors.
    type State: Clone + Default + Send + Sync;
    /// Signal messages sent vertex-to-vertex by scatter.
    type Message: Clone + Send + Sync;
    /// Partial gather accumulator sent mirror-to-master.
    type Accum: Clone + Send + Sync;

    /// Combines two messages destined for the same vertex. Must be associative and
    /// commutative (the engine folds `combine(so far, next)` in production order —
    /// sending machine, scatter task, edge — which is deterministic but arbitrary).
    fn combine_messages(&self, a: Self::Message, b: Self::Message) -> Self::Message;

    /// Combines two partial gather accumulations.
    fn combine_accums(&self, a: Self::Accum, b: Self::Accum) -> Self::Accum;

    /// Which edges gather runs over ([`EdgeDirection::None`] disables the phase).
    fn gather_direction(&self) -> EdgeDirection {
        EdgeDirection::None
    }

    /// Gather over a single edge owned by the executing machine. For
    /// [`EdgeDirection::In`], `(src, dst)` is an in-edge of the active vertex `dst`;
    /// `src_state`/`dst_state` are the machine's cached replica states.
    /// `src_out_degree` is the *global* out-degree of `src` (PageRank divides by it).
    #[allow(unused_variables)]
    fn gather_edge(
        &self,
        src: VertexId,
        dst: VertexId,
        src_state: &Self::State,
        dst_state: &Self::State,
        src_out_degree: u32,
    ) -> Option<Self::Accum> {
        None
    }

    /// Updates the authoritative state at the master. `accum` is the combined gather
    /// result (if the gather phase ran and produced anything), `message` the combined
    /// incoming signal (if any).
    fn apply(
        &self,
        ctx: &mut ApplyContext<'_>,
        vertex: VertexId,
        state: &mut Self::State,
        accum: Option<Self::Accum>,
        message: Option<Self::Message>,
    );

    /// How much the vertex has left to say after the last apply, as a non-negative
    /// magnitude the executor compares against its configured `tolerance`: a vertex
    /// whose delta is `<= tolerance` skips synchronization and scatter this superstep
    /// (saving the associated network traffic) and drops out of the frontier. It is
    /// the one scatter gate, so it carries structural quiet ("no live walkers left" is
    /// a delta of `0.0`, gated at every tolerance) as well as convergence (the
    /// delta-gating idiom of production PageRank implementations).
    ///
    /// The default returns `f64::INFINITY`, which is never `<=` any finite tolerance,
    /// so programs that do not opt in are never gated.
    #[allow(unused_variables)]
    fn delta(&self, old: &Self::State, new: &Self::State) -> f64 {
        f64::INFINITY
    }

    /// Scatter executed once per participating replica of an active vertex.
    /// `local_out_neighbors` is the shard's own slice, lent for the call: the global
    /// ids of the out-neighbors reachable through the out-edges the executing machine
    /// owns, in edge order. `emit(dst, msg)` queues a signal for `dst`, delivered to its
    /// master at the start of the next superstep (or up to `staleness` later); signals
    /// to one vertex are combined in the order they were emitted.
    fn scatter_replica(
        &self,
        ctx: &mut ScatterContext<'_>,
        vertex: VertexId,
        state: &Self::State,
        local_out_neighbors: &[VertexId],
        emit: &mut dyn FnMut(VertexId, Self::Message),
    );

    /// Size in bytes of one serialized vertex state, used for network accounting of the
    /// master→mirror synchronization. Defaults to the in-memory size.
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self::State>()
    }

    /// Size in bytes of one serialized signal message.
    fn message_bytes(&self) -> usize {
        std::mem::size_of::<Self::Message>()
    }

    /// Size in bytes of one serialized gather accumulator.
    fn accum_bytes(&self) -> usize {
        std::mem::size_of::<Self::Accum>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal program used to check the trait's default implementations.
    struct Noop;

    impl VertexProgram for Noop {
        type State = u32;
        type Message = u64;
        type Accum = f64;

        fn combine_messages(&self, a: u64, b: u64) -> u64 {
            a + b
        }
        fn combine_accums(&self, a: f64, b: f64) -> f64 {
            a + b
        }
        fn apply(
            &self,
            _ctx: &mut ApplyContext<'_>,
            _vertex: VertexId,
            state: &mut u32,
            _accum: Option<f64>,
            message: Option<u64>,
        ) {
            *state += message.unwrap_or(0) as u32;
        }
        fn scatter_replica(
            &self,
            _ctx: &mut ScatterContext<'_>,
            _vertex: VertexId,
            _state: &u32,
            local_out_neighbors: &[VertexId],
            emit: &mut dyn FnMut(VertexId, u64),
        ) {
            for &dst in local_out_neighbors {
                emit(dst, 1);
            }
        }
    }

    #[test]
    fn default_sizes_match_types() {
        let p = Noop;
        assert_eq!(p.state_bytes(), 4);
        assert_eq!(p.message_bytes(), 8);
        assert_eq!(p.accum_bytes(), 8);
    }

    #[test]
    fn default_gather_is_disabled() {
        let p = Noop;
        assert_eq!(p.gather_direction(), EdgeDirection::None);
        assert!(p.gather_edge(0, 1, &0, &0, 3).is_none());
    }

    #[test]
    fn default_delta_is_infinite_so_gating_never_triggers() {
        let p = Noop;
        let d = p.delta(&0, &7);
        assert_eq!(d, f64::INFINITY);
        // Never `<=` any finite tolerance, however large.
        assert!(d > 1e300);
    }
}
