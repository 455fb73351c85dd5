//! Experiment workloads: the scale knobs shared by every figure, the synthetic stand-ins
//! for the paper's Twitter and LiveJournal graphs, and the [`Lab`] that builds each of
//! them once and runs each distinct experiment on them once.

use frogwild::prelude::{
    exact_pagerank, run_frogwild, run_graphlab_pr, run_sparsified_pr, ClusterConfig, DiGraph,
    ExecutionConfig, FrogWildConfig, PageRankConfig, PartitionerKind, RunReport, Tracer,
};
use frogwild_engine::PartitionedGraph;
use frogwild_graph::generators::watts_strogatz::{watts_strogatz, WattsStrogatzParams};
use frogwild_graph::generators::{livejournal_like, twitter_like};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::rc::Rc;

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

/// The graphs the figures run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// The stand-in for the paper's Twitter graph, [`Scale::twitter_vertices`] large.
    Twitter,
    /// The stand-in for the paper's LiveJournal graph, [`Scale::livejournal_vertices`]
    /// large.
    LiveJournal,
    /// A Watts–Strogatz small-world graph as large as the Twitter-shaped one: the
    /// flat-PageRank negative control of the estimator study.
    SmallWorld,
}

impl Dataset {
    fn generate(self, scale: &Scale) -> Workload {
        let rng = |tag: u64| SmallRng::seed_from_u64(scale.seed ^ tag);
        let (name, graph) = match self {
            Dataset::Twitter => (
                "Twitter-shaped",
                twitter_like(scale.twitter_vertices, &mut rng(0x7017)),
            ),
            Dataset::LiveJournal => (
                "LiveJournal-shaped",
                livejournal_like(scale.livejournal_vertices, &mut rng(0x11FE)),
            ),
            Dataset::SmallWorld => (
                "Watts-Strogatz",
                watts_strogatz(
                    scale.twitter_vertices,
                    WattsStrogatzParams::default(),
                    &mut rng(0x5A11),
                ),
            ),
        };
        let truth = exact_pagerank(&graph, 0.15, 200, 1e-10).scores;
        Workload { name, graph, truth }
    }
}

/// What an [`Experiment`] runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algorithm {
    /// FrogWild, [`run_frogwild`].
    FrogWild(FrogWildConfig),
    /// GraphLab PageRank, [`run_graphlab_pr`].
    PageRank(PageRankConfig),
    /// GraphLab PageRank on a copy of the graph that keeps each edge with probability
    /// `keep_probability`, partitioned afresh by the oblivious ingress under the default
    /// execution: [`run_sparsified_pr`], Figure 5's baseline.
    Sparsified {
        keep_probability: f64,
        config: PageRankConfig,
    },
}

impl From<FrogWildConfig> for Algorithm {
    fn from(config: FrogWildConfig) -> Self {
        Algorithm::FrogWild(config)
    }
}

impl From<PageRankConfig> for Algorithm {
    fn from(config: PageRankConfig) -> Self {
        Algorithm::PageRank(config)
    }
}

/// One engine run: the graph, the layout it is partitioned into (always with the
/// scale's seed), what runs on it and how. Two equal experiments are the same run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Experiment {
    /// The graph.
    pub dataset: Dataset,
    /// Simulated machines in the layout.
    pub machines: usize,
    /// The ingress that builds the layout.
    pub partitioner: PartitionerKind,
    /// What runs on the layout.
    pub algorithm: Algorithm,
    /// How the engine executes it.
    pub execution: ExecutionConfig,
}

impl Experiment {
    /// `algorithm` on `dataset` over `machines` machines of the oblivious ingress, under
    /// the default (synchronous) execution.
    pub fn new(dataset: Dataset, machines: usize, algorithm: impl Into<Algorithm>) -> Self {
        Experiment {
            dataset,
            machines,
            partitioner: PartitionerKind::Oblivious,
            algorithm: algorithm.into(),
            execution: ExecutionConfig::default(),
        }
    }
}

/// The figures' one laboratory: it generates each [`Dataset`] once and runs each
/// distinct [`Experiment`] once, answering a repeated request from its memo.
///
/// The evaluation is one grid of runs read many ways — Figure 2 reads Figure 1's runs at
/// 16 machines, Figure 8 a slice of Figure 6(a) — so a figure asks the lab for the runs
/// its tables read and never spells out a partition or a driver call. The memo compares
/// experiments with `==`; the lab keeps only the layout it partitioned last.
pub struct Lab {
    scale: Scale,
    workloads: Vec<(Dataset, Rc<Workload>)>,
    layout: Option<((Dataset, usize, PartitionerKind), PartitionedGraph)>,
    memo: Vec<(Experiment, Rc<RunReport>)>,
}

impl Lab {
    /// An empty lab at `scale`: nothing is generated or run until a figure asks.
    pub fn new(scale: Scale) -> Self {
        Lab {
            scale,
            workloads: Vec::new(),
            layout: None,
            memo: Vec::new(),
        }
    }

    /// The scale every workload and layout of this lab is built at.
    pub fn scale(&self) -> &Scale {
        &self.scale
    }

    /// The `dataset`'s workload, generated on first request.
    pub fn workload(&mut self, dataset: Dataset) -> Rc<Workload> {
        if let Some((_, workload)) = self.workloads.iter().find(|(d, _)| *d == dataset) {
            return Rc::clone(workload);
        }
        let workload = Rc::new(dataset.generate(&self.scale));
        self.workloads.push((dataset, Rc::clone(&workload)));
        workload
    }

    /// The layout `experiment` runs on — its dataset partitioned over its machines by
    /// its partitioner — built unless the lab partitioned it last (it keeps only that).
    pub fn layout(&mut self, experiment: &Experiment) -> &PartitionedGraph {
        let key = (
            experiment.dataset,
            experiment.machines,
            experiment.partitioner,
        );
        if self.layout.as_ref().is_none_or(|(built, _)| *built != key) {
            self.layout = None; // the old layout goes before the new one is built
            let graph = &self.workload(key.0).graph;
            let pg = PartitionedGraph::build(graph, key.1, key.2, self.scale.seed);
            self.layout = Some((key, pg));
        }
        let (_, pg) = self.layout.as_ref().expect("the layout was just built");
        pg
    }

    /// The report of `experiment`, run on first request.
    pub fn run(&mut self, experiment: Experiment) -> Rc<RunReport> {
        if let Some((_, report)) = self.memo.iter().find(|(e, _)| *e == experiment) {
            return Rc::clone(report);
        }
        #[cfg(test)]
        tests::DRIVER_CALLS.with(|calls| calls.set(calls.get() + 1));
        let (exec, off) = (experiment.execution, Tracer::disabled());
        let report = match experiment.algorithm {
            Algorithm::FrogWild(c) => run_frogwild(self.layout(&experiment), &c, &exec, &off),
            Algorithm::PageRank(c) => run_graphlab_pr(self.layout(&experiment), &c, &exec, &off),
            Algorithm::Sparsified {
                keep_probability,
                config,
            } => {
                let cluster = ClusterConfig::new(experiment.machines, self.scale.seed);
                let graph = &self.workload(experiment.dataset).graph;
                run_sparsified_pr(graph, &cluster, keep_probability, &config)
            }
        };
        let report = Rc::new(report.expect("valid figure configuration"));
        self.memo.push((experiment, Rc::clone(&report)));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Driver calls made on this thread by any [`Lab`].
        pub(super) static DRIVER_CALLS: Cell<usize> = const { Cell::new(0) };
    }

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
        let mut lab = Lab::new(Scale::tiny());
        let w = lab.workload(Dataset::Twitter);
        assert_eq!(w.truth.len(), w.graph.num_vertices());
        let total: f64 = w.truth.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(w.graph.has_no_dangling());
        assert!(
            Rc::ptr_eq(&w, &lab.workload(Dataset::Twitter)),
            "built twice"
        );

        let lj = lab.workload(Dataset::LiveJournal);
        assert_eq!(lj.name, "LiveJournal-shaped");
        assert!(lj.graph.num_edges() < w.graph.num_edges());
    }

    #[test]
    fn a_figures_run_asks_the_driver_for_each_experiment_once() {
        let calls = || DRIVER_CALLS.with(Cell::get);
        let before = calls();
        let mut lab = Lab::new(Scale::tiny());
        for (names, run) in crate::FIGURES {
            let start = calls();
            run(&mut lab);
            // Figure 2 reads Figure 1's runs, and Figure 8 a slice of Figure 6(a).
            if names.contains(&"fig2") || names.contains(&"fig8") {
                assert_eq!(calls(), start, "{names:?} ran an experiment again");
            }
        }
        let keys: Vec<Experiment> = lab.memo.iter().map(|(key, _)| *key).collect();
        for (i, key) in keys.iter().enumerate() {
            assert!(!keys[..i].contains(key), "{key:?} ran twice");
        }
        // Every driver call went through this lab's memo: a figure that ran an
        // experiment past it would add a call and no key.
        assert_eq!(calls() - before, keys.len());
    }
}
