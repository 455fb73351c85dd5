//! The GraphLab-toolkit PageRank vertex program the paper uses as its baseline.
//!
//! This follows GraphLab's `pagerank.cpp` conventions so that the 1- and 2-iteration
//! truncated baselines behave exactly as the paper describes (a single iteration
//! "actually estimates only the in-degree of a node"):
//!
//! * ranks are initialised to 1.0 and left unnormalised (the exact fixed point is
//!   `n · π`); the driver normalises before computing accuracy metrics;
//! * gather pulls `rank / out_degree` over in-edges;
//! * apply sets `rank = p_T + (1 - p_T) · Σ`;
//! * the program reports each apply's rank change through `delta`, and the executor
//!   signals out-neighbours only while that change exceeds its configured tolerance
//!   (GraphLab's dynamic scheduling, now enforced by the delta-gated frontier).
//!
//! Every iteration the updated rank must be pushed to all mirrors (the gather of a
//! neighbouring vertex reads the local cached copy), which is the per-iteration network
//! cost the paper's Figure 1(c) reports and FrogWild avoids.

use frogwild_engine::{ApplyContext, EdgeDirection, ScatterContext, VertexProgram};
use frogwild_graph::VertexId;

use crate::config::PageRankConfig;

/// Per-vertex PageRank state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankState {
    /// Current (unnormalised) rank. GraphLab convention: starts at 1.0, converges to
    /// `n · π(v)`.
    pub rank: f64,
}

impl Default for RankState {
    fn default() -> Self {
        RankState { rank: 1.0 }
    }
}

/// The baseline PageRank vertex program. The convergence tolerance itself lives in
/// the executor ([`EngineConfig::tolerance`](frogwild_engine::EngineConfig)); the
/// program only reports each vertex's rank change through
/// [`VertexProgram::delta`].
#[derive(Clone, Debug)]
pub struct PageRankProgram {
    teleport_probability: f64,
}

impl PageRankProgram {
    /// Builds the program from a [`PageRankConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`](crate::Error::InvalidConfig) when the
    /// configuration fails [`PageRankConfig::validate`].
    pub fn new(config: &PageRankConfig) -> Result<Self, crate::Error> {
        config.validate()?;
        Ok(PageRankProgram {
            teleport_probability: config.teleport_probability,
        })
    }
}

impl VertexProgram for PageRankProgram {
    type State = RankState;
    /// Activation signal; carries no payload (GraphLab signals are empty messages).
    type Message = ();
    /// Partial sum of `rank / out_degree` over locally-owned in-edges.
    type Accum = f64;

    fn combine_messages(&self, _a: (), _b: ()) {}

    fn combine_accums(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn gather_direction(&self) -> EdgeDirection {
        EdgeDirection::In
    }

    fn gather_edge(
        &self,
        _src: VertexId,
        _dst: VertexId,
        src_state: &RankState,
        _dst_state: &RankState,
        src_out_degree: u32,
    ) -> Option<f64> {
        Some(src_state.rank / src_out_degree.max(1) as f64)
    }

    fn apply(
        &self,
        _ctx: &mut ApplyContext<'_>,
        _vertex: VertexId,
        state: &mut RankState,
        accum: Option<f64>,
        _message: Option<()>,
    ) {
        let gathered = accum.unwrap_or(0.0);
        state.rank = self.teleport_probability + (1.0 - self.teleport_probability) * gathered;
    }

    fn delta(&self, old: &RankState, new: &RankState) -> f64 {
        (new.rank - old.rank).abs()
    }

    fn scatter_replica(
        &self,
        _ctx: &mut ScatterContext<'_>,
        _vertex: VertexId,
        _state: &RankState,
        local_out_neighbors: &[VertexId],
        emit: &mut dyn FnMut(VertexId, ()),
    ) {
        for &dst in local_out_neighbors {
            emit(dst, ());
        }
    }

    fn state_bytes(&self) -> usize {
        // the rank value is what travels to mirrors
        8
    }

    fn message_bytes(&self) -> usize {
        // an empty scheduling signal still costs its header; no payload
        0
    }

    fn accum_bytes(&self) -> usize {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn program() -> PageRankProgram {
        PageRankProgram::new(&PageRankConfig::default()).unwrap()
    }

    #[test]
    fn default_state_matches_graphlab_convention() {
        let s = RankState::default();
        assert_eq!(s.rank, 1.0);
    }

    #[test]
    fn gather_divides_by_out_degree() {
        let p = program();
        let src = RankState { rank: 2.0 };
        let dst = RankState::default();
        assert_eq!(p.gather_edge(0, 1, &src, &dst, 4), Some(0.5));
        // degree 0 is clamped to avoid division by zero (cannot occur on fixed graphs)
        assert_eq!(p.gather_edge(0, 1, &src, &dst, 0), Some(2.0));
    }

    #[test]
    fn apply_computes_graphlab_update() {
        let p = program();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut state = RankState::default();
        let mut ctx = ApplyContext {
            superstep: 0,
            rng: &mut rng,
        };
        p.apply(&mut ctx, 0, &mut state, Some(2.0), None);
        let expected = 0.15 + 0.85 * 2.0;
        assert!((state.rank - expected).abs() < 1e-12);
    }

    #[test]
    fn apply_without_gather_gives_teleport_floor() {
        let p = program();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut state = RankState::default();
        let mut ctx = ApplyContext {
            superstep: 0,
            rng: &mut rng,
        };
        p.apply(&mut ctx, 0, &mut state, None, None);
        assert!((state.rank - 0.15).abs() < 1e-12);
    }

    #[test]
    fn delta_reports_absolute_rank_change_for_the_executor_gate() {
        let p = program();
        let old = RankState { rank: 0.5 };
        let new = RankState { rank: 0.4997 };
        let d = p.delta(&old, &new);
        assert!((d - 3e-4).abs() < 1e-12);
        // The executor gates with `delta <= tolerance`.
        assert!(d <= 1e-3);
        assert!(p.delta(&new, &old) > 1e-4);
    }

    #[test]
    fn accum_combination_is_addition() {
        let p = program();
        assert_eq!(p.combine_accums(0.25, 0.5), 0.75);
    }

    #[test]
    fn sizes_for_network_accounting() {
        let p = program();
        assert_eq!(p.state_bytes(), 8);
        assert_eq!(p.message_bytes(), 0);
        assert_eq!(p.accum_bytes(), 8);
        assert_eq!(p.gather_direction(), EdgeDirection::In);
    }
}
