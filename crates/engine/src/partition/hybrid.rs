//! Hybrid vertex-cut (PowerLyra-style) edge placement.
//!
//! PowerLyra's observation is that vertex-cuts only pay off for *high*-degree vertices:
//! replicating a ten-follower account across sixteen machines buys no parallelism and
//! costs fifteen synchronization messages per superstep. The hybrid cut therefore treats
//! the two populations differently:
//!
//! * edges pointing at a **low in-degree** destination are placed by hashing the
//!   destination, so all of a low-degree vertex's in-edges (the edges PageRank gathers
//!   over) live on one machine and the vertex needs no mirrors for the gather phase;
//! * edges pointing at a **high in-degree** destination fall back to hashing the source,
//!   accepting replication for the hubs where it genuinely buys parallelism.
//!
//! On heavy-tailed graphs this cuts the replication factor of the long tail to ≈ 1 while
//! keeping hub edges spread out — the partitioner-ablation benchmark compares it against
//! random, oblivious and HDRF placement under both full and partial synchronization.

use super::EdgeAssignment;
use crate::cluster::MachineId;
use crate::rng;
use frogwild_graph::DiGraph;

/// In-degree above which a destination vertex is treated as a hub and its in-edges are
/// scattered by source hash. PowerLyra's default is 100; the synthetic graphs used here
/// are smaller, so the threshold is lower.
const DEGREE_THRESHOLD: usize = 48;

/// The hybrid cut: an edge into a hub goes where its source hashes, any other edge where
/// its destination hashes.
pub(super) fn assign(graph: &DiGraph, num_machines: usize, seed: u64) -> EdgeAssignment {
    let machines = graph
        .edges()
        .map(|(src, dst)| {
            let hub = graph.in_degree(dst) > DEGREE_THRESHOLD;
            let h = if hub {
                // High-degree destination: spread its in-edges by source.
                rng::mix(&[seed, 0x48_55_42, src as u64])
            } else {
                // Low-degree destination: co-locate all of its in-edges.
                rng::mix(&[seed, 0x4C_4F_57, dst as u64])
            };
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
    use crate::placement::PartitionedGraph;

    #[test]
    fn satisfies_partitioner_contract() {
        check_partitioner_contract(PartitionerKind::Hybrid, 8);
        check_partitioner_contract(PartitionerKind::Hybrid, 24);
    }

    #[test]
    fn low_degree_vertices_keep_their_in_edges_together() {
        let g = test_graph();
        let a = assign(&g, 16, 7);
        // Collect, for every low-degree destination, the set of machines its in-edges
        // landed on; the hybrid rule forces that set to a single machine.
        let mut owner: Vec<Option<MachineId>> = vec![None; g.num_vertices()];
        for ((_, dst), &machine) in g.edges().zip(a.machines.iter()) {
            if g.in_degree(dst) > DEGREE_THRESHOLD {
                continue;
            }
            match owner[dst as usize] {
                None => owner[dst as usize] = Some(machine),
                Some(prev) => assert_eq!(
                    prev, machine,
                    "low-degree vertex {dst} has in-edges on two machines"
                ),
            }
        }
    }

    #[test]
    fn replication_is_lower_than_random_on_power_law_graphs() {
        let g = test_graph();
        let hybrid = PartitionedGraph::build(&g, 16, PartitionerKind::Hybrid, 3);
        let random = PartitionedGraph::build(&g, 16, PartitionerKind::Random, 3);
        assert!(
            hybrid.placement().replication_factor() < random.placement().replication_factor(),
            "hybrid {} vs random {}",
            hybrid.placement().replication_factor(),
            random.placement().replication_factor()
        );
    }

    #[test]
    fn deterministic_in_seed_and_sensitive_to_it() {
        let g = test_graph();
        assert_eq!(assign(&g, 8, 1), assign(&g, 8, 1));
        assert_ne!(assign(&g, 8, 1), assign(&g, 8, 2));
    }

    #[test]
    fn single_machine_case() {
        let g = test_graph();
        let a = assign(&g, 1, 3);
        assert!(a.machines.iter().all(|m| m.index() == 0));
    }
}
