//! Vertex-cut partitioning: assigning every *edge* to a machine.
//!
//! PowerGraph-style engines split the graph by edges (a *vertex-cut*): each edge lives
//! on exactly one machine, and a vertex is replicated on every machine that owns at
//! least one of its edges. The quality metric is the **replication factor** — the
//! average number of replicas per vertex — because it determines how much master↔mirror
//! traffic every superstep generates (precisely the traffic the paper's `p_s` knob
//! attacks).
//!
//! Five ingress strategies are provided, named by [`PartitionerKind`] and run by
//! [`PartitionerKind::assign`]; each lives in a module of its own as one `assign`
//! function. The first three mirror the options PowerGraph ships; the last two are the
//! strongest published streaming heuristics and are used by the partitioner-ablation
//! benchmark:
//!
//! * [`PartitionerKind::Random`] — hash each edge to a machine. Simple, highest
//!   replication.
//! * [`PartitionerKind::Grid`] — constrain each vertex's replicas to a row+column of a
//!   machine grid, bounding the replication factor by `2√M`.
//! * [`PartitionerKind::Oblivious`] — the greedy heuristic from the PowerGraph paper:
//!   place each edge on a machine that already hosts its endpoints when possible,
//!   breaking ties by load. Used by GraphLab's default ingress and therefore the default
//!   for the experiments here.
//! * [`PartitionerKind::Hdrf`] — High-Degree Replicated First (Petroni et al.), at its
//!   recommended `λ = 1.1`: prefer splitting the hub endpoint of each edge, keeping the
//!   long tail of low-degree vertices whole.
//! * [`PartitionerKind::Hybrid`] — PowerLyra-style hybrid cut: co-locate the in-edges of
//!   vertices of in-degree at most 48, scatter only the hubs.

mod grid;
mod hdrf;
mod hybrid;
mod oblivious;
mod random;

use crate::cluster::MachineId;
use frogwild_graph::DiGraph;

/// Assignment of every edge (in `graph.edges()` iteration order) to a machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeAssignment {
    /// `machines[i]` is the machine owning the `i`-th edge of `graph.edges()`.
    pub machines: Vec<MachineId>,
    /// Number of machines the assignment targets.
    pub num_machines: usize,
}

impl EdgeAssignment {
    /// Number of edges assigned to each machine.
    pub fn edges_per_machine(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_machines];
        for m in &self.machines {
            // lint:allow(indexing, machine indices are below num_machines by construction)
            counts[m.index()] += 1;
        }
        counts
    }

    /// The load-imbalance factor: max edges on a machine divided by the mean.
    /// 1.0 means perfectly balanced.
    // lint:allow(orphan-pub, oracle for load_stays_balanced)
    pub fn imbalance(&self) -> f64 {
        let counts = self.edges_per_machine();
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        let mean = self.machines.len() as f64 / self.num_machines as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// The indices of the set bits of a multi-word mask (bit `i` of word `w` is index
/// `64 w + i`), ascending: how a replica set kept as a bitmask is walked.
pub(crate) fn set_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(w, mut word)| {
        std::iter::from_fn(move || {
            let lowest = (word != 0).then(|| word.trailing_zeros() as usize)?;
            word &= word - 1;
            Some(64 * w + lowest)
        })
    })
}

/// The five ingress strategies: the one way to name a partitioner — in
/// [`PartitionedGraph::build`](crate::PartitionedGraph::build),
/// [`Session::builder(..).partitioner(..)`](https://docs.rs/frogwild) and the CLI's
/// `--partitioner` option — and, through [`assign`](PartitionerKind::assign), to run it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PartitionerKind {
    /// Hash every edge to a machine.
    Random,
    /// Constrained 2D grid ingress.
    Grid,
    /// PowerGraph's greedy default — also the default here.
    #[default]
    Oblivious,
    /// High-Degree Replicated First.
    Hdrf,
    /// PowerLyra-style hybrid cut.
    Hybrid,
}

impl PartitionerKind {
    /// All five strategies, in ablation order.
    pub const ALL: [PartitionerKind; 5] = [
        PartitionerKind::Random,
        PartitionerKind::Grid,
        PartitionerKind::Oblivious,
        PartitionerKind::Hdrf,
        PartitionerKind::Hybrid,
    ];

    /// Human-readable name used in reports, and what [`FromStr`](std::str::FromStr)
    /// parses back.
    pub fn name(self) -> &'static str {
        match self {
            PartitionerKind::Random => "random",
            PartitionerKind::Grid => "grid",
            PartitionerKind::Oblivious => "oblivious",
            PartitionerKind::Hdrf => "hdrf",
            PartitionerKind::Hybrid => "hybrid",
        }
    }

    /// Assigns every edge of `graph` to one of `num_machines` machines: a deterministic
    /// function of `(graph, num_machines, seed)`.
    pub fn assign(self, graph: &DiGraph, num_machines: usize, seed: u64) -> EdgeAssignment {
        assert!(num_machines > 0, "need at least one machine");
        let assign = match self {
            PartitionerKind::Random => random::assign,
            PartitionerKind::Grid => grid::assign,
            PartitionerKind::Oblivious => oblivious::assign,
            PartitionerKind::Hdrf => hdrf::assign,
            PartitionerKind::Hybrid => hybrid::assign,
        };
        assign(graph, num_machines, seed)
    }
}

impl std::fmt::Display for PartitionerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PartitionerKind {
    type Err = frogwild_graph::Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "random" => Ok(PartitionerKind::Random),
            "grid" => Ok(PartitionerKind::Grid),
            "oblivious" => Ok(PartitionerKind::Oblivious),
            "hdrf" => Ok(PartitionerKind::Hdrf),
            "hybrid" => Ok(PartitionerKind::Hybrid),
            other => Err(frogwild_graph::Error::config(
                "PartitionerKind",
                format!("unknown partitioner {other:?} (expected random, grid, oblivious, hdrf or hybrid)"),
            )),
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use frogwild_graph::generators::{rmat, RmatParams};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A mid-sized heavy-tailed test graph shared by the partitioner tests.
    pub fn test_graph() -> DiGraph {
        let mut rng = SmallRng::seed_from_u64(42);
        rmat(800, RmatParams::default(), &mut rng)
    }

    /// Asserts the basic contract every partitioner must satisfy.
    pub fn check_partitioner_contract(p: PartitionerKind, machines: usize) {
        let g = test_graph();
        let a = p.assign(&g, machines, 7);
        assert_eq!(
            a.machines.len(),
            g.num_edges(),
            "{}: one machine per edge",
            p.name()
        );
        assert_eq!(a.num_machines, machines);
        assert!(
            a.machines.iter().all(|m| m.index() < machines),
            "{}: machine ids in range",
            p.name()
        );
        // determinism
        let b = p.assign(&g, machines, 7);
        assert_eq!(a, b, "{}: deterministic for fixed seed", p.name());
        // every machine gets at least one edge on this size of graph
        let counts = a.edges_per_machine();
        assert!(
            counts.iter().all(|&c| c > 0),
            "{}: no empty machines on a dense-enough graph (counts {counts:?})",
            p.name()
        );
        // The layout built on it is consistent, replica edge flags included.
        let layout = crate::placement::PartitionedGraph::from_assignment(&g, &a, 7);
        layout
            .validate()
            .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_assignment_stats() {
        let a = EdgeAssignment {
            machines: vec![MachineId(0), MachineId(0), MachineId(1), MachineId(1)],
            num_machines: 2,
        };
        assert_eq!(a.edges_per_machine(), vec![2, 2]);
        assert!((a.imbalance() - 1.0).abs() < 1e-12);

        let skewed = EdgeAssignment {
            machines: vec![MachineId(0), MachineId(0), MachineId(0), MachineId(1)],
            num_machines: 2,
        };
        assert_eq!(skewed.edges_per_machine(), vec![3, 1]);
        assert!((skewed.imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn partitioner_kind_round_trips_and_delegates() {
        for kind in PartitionerKind::ALL {
            let parsed: PartitionerKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!("nonsense".parse::<PartitionerKind>().is_err());
        assert_eq!(PartitionerKind::default(), PartitionerKind::Oblivious);
    }

    #[test]
    fn empty_assignment_is_well_defined() {
        let a = EdgeAssignment {
            machines: vec![],
            num_machines: 3,
        };
        assert_eq!(a.edges_per_machine(), vec![0, 0, 0]);
        assert_eq!(a.imbalance(), 1.0);
    }
}
