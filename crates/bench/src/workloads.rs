//! Experiment workloads: synthetic stand-ins for the paper's Twitter and LiveJournal
//! graphs, plus the scale knobs shared by every figure.

use frogwild::reference::exact_pagerank;
use frogwild_graph::generators::{livejournal_like, twitter_like};
use frogwild_graph::DiGraph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Scale of the experiment suite.
///
/// The paper runs on the real Twitter (41.6M vertices / 1.4B edges) and LiveJournal
/// (4.8M / 69M) graphs on clusters of 12–24 EC2 / VirtualBox machines. The harness
/// reproduces the *shape* of every figure on synthetic graphs that fit a single
/// machine; `Scale` controls how large they are. `FROGWILD_SCALE=tiny|small|medium`
/// selects a preset (default `small`).
#[derive(Clone, Debug, PartialEq)]
pub struct Scale {
    /// Vertices in the Twitter-shaped graph (average out-degree ≈ 34).
    pub twitter_vertices: usize,
    /// Vertices in the LiveJournal-shaped graph (average out-degree ≈ 14).
    pub livejournal_vertices: usize,
    /// Baseline number of walkers, playing the role of the paper's 800K.
    pub walkers: u64,
    /// Cluster sizes swept in Figure 1 (the paper uses 12, 16, 20, 24).
    pub machine_counts: Vec<usize>,
    /// Iteration cap used for the "exact" engine PageRank baseline.
    pub exact_pr_iterations: usize,
    /// Base random seed for graph generation and partitioning.
    pub seed: u64,
}

impl Scale {
    /// Minimal scale for unit tests and smoke benchmarks (seconds end-to-end).
    pub fn tiny() -> Self {
        Scale {
            twitter_vertices: 1_500,
            livejournal_vertices: 1_500,
            walkers: 1_000,
            machine_counts: vec![4, 8],
            exact_pr_iterations: 20,
            seed: 0xBEEF,
        }
    }

    /// Default scale: the full figure suite finishes in a few minutes on a laptop.
    ///
    /// The walker count keeps the paper's *regime* (walkers ≪ vertices, matching the
    /// LiveJournal ratio of roughly one walker per five vertices) rather than the
    /// paper's absolute 800K, so the per-iteration cost advantage the figures measure
    /// comes from the same mechanism as in the paper: only a small fraction of the
    /// vertices is active in any FrogWild superstep.
    pub fn small() -> Self {
        Scale {
            twitter_vertices: 40_000,
            livejournal_vertices: 40_000,
            walkers: 8_000,
            machine_counts: vec![12, 16, 20, 24],
            exact_pr_iterations: 30,
            seed: 0xF20C,
        }
    }

    /// Larger scale for overnight runs; still single-machine.
    pub fn medium() -> Self {
        Scale {
            twitter_vertices: 200_000,
            livejournal_vertices: 200_000,
            walkers: 40_000,
            machine_counts: vec![12, 16, 20, 24],
            exact_pr_iterations: 30,
            seed: 0xF20C,
        }
    }

    /// The preset a `FROGWILD_SCALE` value names: `tiny`, `small` or `medium`; unset
    /// (`None`) is [`Scale::small`]. Any other value is an error naming the presets.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            Some("tiny") => Ok(Scale::tiny()),
            None | Some("small") => Ok(Scale::small()),
            Some("medium") => Ok(Scale::medium()),
            Some(other) => Err(format!(
                "unknown FROGWILD_SCALE {other:?} (accepted: tiny, small, medium)"
            )),
        }
    }

    /// Reads `FROGWILD_SCALE` from the environment through [`Scale::parse`].
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("FROGWILD_SCALE") {
            Ok(value) => Scale::parse(Some(&value)),
            Err(std::env::VarError::NotPresent) => Scale::parse(None),
            Err(e) => Err(format!("FROGWILD_SCALE: {e}")),
        }
    }

    /// The walker counts swept in Figures 6 and 8 (the paper sweeps 400K–1.4M around
    /// its 800K baseline; we sweep the same multipliers around `walkers`).
    pub fn walker_sweep(&self) -> Vec<u64> {
        [0.5, 0.75, 1.0, 1.25, 1.5, 1.75]
            .iter()
            .map(|m| (self.walkers as f64 * m) as u64)
            .collect()
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::small()
    }
}

/// A generated workload: the graph plus its exact PageRank vector (the ground truth all
/// accuracy metrics are computed against).
pub struct Workload {
    /// Dataset label used in table titles ("Twitter-shaped", "LiveJournal-shaped").
    pub name: &'static str,
    /// The graph.
    pub graph: DiGraph,
    /// Exact PageRank of the graph (serial power iteration, tight tolerance).
    pub truth: Vec<f64>,
}

impl Workload {
    fn build(name: &'static str, graph: DiGraph) -> Self {
        let truth = exact_pagerank(&graph, 0.15, 200, 1e-10).scores;
        Workload { name, graph, truth }
    }
}

/// The Twitter-shaped workload for the given scale.
pub fn twitter_workload(scale: &Scale) -> Workload {
    let mut rng = SmallRng::seed_from_u64(scale.seed ^ 0x7017);
    Workload::build(
        "Twitter-shaped",
        twitter_like(scale.twitter_vertices, &mut rng),
    )
}

/// The LiveJournal-shaped workload for the given scale.
pub fn livejournal_workload(scale: &Scale) -> Workload {
    let mut rng = SmallRng::seed_from_u64(scale.seed ^ 0x11FE);
    Workload::build(
        "LiveJournal-shaped",
        livejournal_like(scale.livejournal_vertices, &mut rng),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_size() {
        let tiny = Scale::tiny();
        let small = Scale::small();
        let medium = Scale::medium();
        assert!(tiny.twitter_vertices < small.twitter_vertices);
        assert!(small.twitter_vertices < medium.twitter_vertices);
        assert_eq!(small.machine_counts, vec![12, 16, 20, 24]);
    }

    #[test]
    fn scale_names_parse_and_unknown_ones_are_rejected() {
        assert_eq!(Scale::parse(None), Ok(Scale::small()));
        assert_eq!(Scale::parse(Some("tiny")), Ok(Scale::tiny()));
        assert_eq!(Scale::parse(Some("small")), Ok(Scale::small()));
        assert_eq!(Scale::parse(Some("medium")), Ok(Scale::medium()));
        for bad in ["medum", "", "Tiny"] {
            let err = Scale::parse(Some(bad)).unwrap_err();
            assert!(err.contains("tiny, small, medium"), "{err}");
        }
    }

    #[test]
    fn walker_sweep_brackets_the_baseline() {
        let s = Scale::tiny();
        let sweep = s.walker_sweep();
        assert_eq!(sweep.len(), 6);
        assert!(sweep[0] < s.walkers);
        assert!(*sweep.last().unwrap() > s.walkers);
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn workloads_have_truth_vectors() {
        let w = twitter_workload(&Scale::tiny());
        assert_eq!(w.truth.len(), w.graph.num_vertices());
        let total: f64 = w.truth.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(w.graph.has_no_dangling());

        let lj = livejournal_workload(&Scale::tiny());
        assert_eq!(lj.name, "LiveJournal-shaped");
        assert!(lj.graph.num_edges() < w.graph.num_edges());
    }
}
