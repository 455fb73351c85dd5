//! Grid-constrained (2D) edge placement.

use super::EdgeAssignment;
use crate::cluster::MachineId;
use crate::rng;
use frogwild_graph::DiGraph;

/// Chooses grid dimensions `rows × cols = machines` with `rows ≤ cols` and the two as
/// close as possible (falls back to `1 × machines` for primes).
fn grid_dims(machines: usize) -> (usize, usize) {
    let mut best = (1, machines);
    let mut r = 1usize;
    while r * r <= machines {
        if machines.is_multiple_of(r) {
            best = (r, machines / r);
        }
        r += 1;
    }
    best
}

/// Grid / constrained random vertex-cut.
///
/// Machines are arranged in an `rows × cols` grid. Every vertex is hashed to a grid
/// cell; its *constraint set* is the union of that cell's row and column. An edge is
/// placed on a machine in the intersection of its endpoints' constraint sets (which is
/// always non-empty and has at most two candidates for distinct cells), choosing the
/// less-loaded candidate. This bounds the replication factor of any vertex by
/// `rows + cols - 1 ≈ 2√M`, trading a small amount of balance for much less replication
/// than fully random placement.
pub(super) fn assign(graph: &DiGraph, num_machines: usize, seed: u64) -> EdgeAssignment {
    let (_rows, cols) = grid_dims(num_machines);
    let cell = |v: u64| -> (usize, usize) {
        let h = rng::mix(&[seed, 0xC0FFEE, v]);
        let idx = (h % num_machines as u64) as usize;
        (idx / cols, idx % cols)
    };
    let mut load = vec![0usize; num_machines];
    let machines = graph
        .edges()
        .map(|(src, dst)| {
            let (sr, sc) = cell(src as u64);
            let (dr, dc) = cell(dst as u64);
            // Candidates in the intersection of the two constraint sets: the grid
            // cells (sr, dc) and (dr, sc). For vertices in the same row or column
            // these coincide or fall inside both sets anyway.
            let cand_a = sr * cols + dc;
            let cand_b = dr * cols + sc;
            // lint:allow(indexing, grid candidates are machine ids below num_machines)
            let chosen = if load[cand_a] <= load[cand_b] {
                cand_a
            } else {
                cand_b
            };
            // lint:allow(indexing, grid candidates are machine ids below num_machines)
            load[chosen] += 1;
            MachineId::from(chosen.min(num_machines - 1))
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
    fn grid_dims_factorizations() {
        assert_eq!(grid_dims(16), (4, 4));
        assert_eq!(grid_dims(12), (3, 4));
        assert_eq!(grid_dims(24), (4, 6));
        assert_eq!(grid_dims(7), (1, 7));
        assert_eq!(grid_dims(1), (1, 1));
    }

    #[test]
    fn satisfies_partitioner_contract() {
        check_partitioner_contract(PartitionerKind::Grid, 16);
        check_partitioner_contract(PartitionerKind::Grid, 12);
    }

    #[test]
    fn replication_is_lower_than_random() {
        let g = test_graph();
        let grid = PartitionedGraph::build(&g, 16, PartitionerKind::Grid, 9);
        let random = PartitionedGraph::build(&g, 16, PartitionerKind::Random, 9);
        assert!(
            grid.placement().replication_factor() < random.placement().replication_factor(),
            "grid {} vs random {}",
            grid.placement().replication_factor(),
            random.placement().replication_factor()
        );
    }

    #[test]
    fn replication_respects_grid_bound() {
        let g = test_graph();
        let pg = PartitionedGraph::build(&g, 16, PartitionerKind::Grid, 5);
        // every vertex's replica set must fit within a row + column: 4 + 4 - 1 = 7
        let max_replicas = g
            .vertices()
            .map(|v| pg.placement().replicas(v).len())
            .max()
            .unwrap();
        assert!(max_replicas <= 7, "max replicas {max_replicas}");
    }

    #[test]
    fn reasonably_balanced() {
        let g = test_graph();
        let a = assign(&g, 16, 11);
        assert!(a.imbalance() < 2.0, "imbalance {}", a.imbalance());
    }
}
