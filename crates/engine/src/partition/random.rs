//! Random (hashed) edge placement.

use super::EdgeAssignment;
use crate::cluster::MachineId;
use crate::rng;
use frogwild_graph::DiGraph;

/// Assigns each edge to a machine by hashing the edge endpoints with the seed.
///
/// This is PowerGraph's `random` ingress: embarrassingly parallel and perfectly
/// load-balanced in expectation, but with the highest replication factor of the
/// available strategies (a vertex of degree `d` is expected to appear on
/// `M(1 - (1 - 1/M)^d)` machines).
pub(super) fn assign(graph: &DiGraph, num_machines: usize, seed: u64) -> EdgeAssignment {
    let machines = graph
        .edges()
        .enumerate()
        .map(|(idx, (src, dst))| {
            // Include the edge index so parallel (duplicate) edges can land on
            // different machines, matching how a real ingress streams edges.
            let h = rng::mix(&[seed, src as u64, dst as u64, idx as u64]);
            MachineId::from((h % num_machines as u64) as usize)
        })
        .collect();
    EdgeAssignment {
        machines,
        num_machines,
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{check_partitioner_contract, test_graph};
    use super::super::PartitionerKind;
    use super::*;

    /// Expected replication factor for random edge placement on a graph with the given
    /// degree sequence: `E[replicas(v)] = M (1 - (1 - 1/M)^{deg(v)})`, summed over vertices
    /// and divided by `n`.
    fn expected_random_replication(graph: &DiGraph, num_machines: usize) -> f64 {
        let m = num_machines as f64;
        let n = graph.num_vertices().max(1) as f64;
        let total: f64 = graph
            .vertices()
            .map(|v| {
                let deg = (graph.out_degree(v) + graph.in_degree(v)) as f64;
                if deg == 0.0 {
                    // isolated vertices still get a master replica
                    1.0
                } else {
                    m * (1.0 - (1.0 - 1.0 / m).powf(deg))
                }
            })
            .sum();
        total / n
    }

    #[test]
    fn satisfies_partitioner_contract() {
        check_partitioner_contract(PartitionerKind::Random, 8);
        check_partitioner_contract(PartitionerKind::Random, 1);
    }

    #[test]
    fn different_seeds_give_different_assignments() {
        let g = test_graph();
        let a = assign(&g, 8, 1);
        let b = assign(&g, 8, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn load_is_roughly_balanced() {
        let g = test_graph();
        let a = assign(&g, 8, 3);
        assert!(a.imbalance() < 1.25, "imbalance {}", a.imbalance());
    }

    #[test]
    fn single_machine_gets_everything() {
        let g = test_graph();
        let a = assign(&g, 1, 3);
        assert_eq!(a.edges_per_machine(), vec![g.num_edges()]);
    }

    #[test]
    fn expected_replication_bounds() {
        let g = test_graph();
        let expected = expected_random_replication(&g, 8);
        // between 1 (no replication) and the machine count
        assert!(expected > 1.0 && expected <= 8.0, "expected {expected}");
    }
}
