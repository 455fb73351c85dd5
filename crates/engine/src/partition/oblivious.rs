//! Greedy ("oblivious") edge placement — PowerGraph's default ingress heuristic.

// lint:allow-file(indexing, per-machine load tables indexed by machine ids below num_machines)

use super::{set_bits, EdgeAssignment};
use crate::cluster::MachineId;
use crate::rng;
use frogwild_graph::DiGraph;

/// Maximum tolerated ratio between the chosen machine's load and the average load
/// before the balance fallback kicks in.
const BALANCE_SLACK: f64 = 1.25;

/// Greedy vertex-cut placement following the PowerGraph heuristic:
///
/// For each edge `(u, v)` in arrival order, with `A(u)`/`A(v)` the machine sets already
/// hosting a replica of `u`/`v`:
///
/// 1. if `A(u) ∩ A(v)` is non-empty, place the edge on the least-loaded machine of the
///    intersection;
/// 2. else if both sets are non-empty, place the edge on the least-loaded machine of
///    `A(u) ∪ A(v)`;
/// 3. else if exactly one set is non-empty, use its least-loaded machine;
/// 4. else place the edge on the globally least-loaded machine.
///
/// The sets are bitmasks, so a rule's candidates are walked by set bit and rules 2 and 3
/// are one union. Ties in load are broken deterministically by a seed-derived hash —
/// computed for the tied candidates only — so that the assignment is a pure function of
/// `(graph, num_machines, seed)`.
///
/// In addition a **load-balance cap** is enforced, as production ingress
/// implementations do: if the greedy choice is already carrying more than
/// `BALANCE_SLACK ×` the average load, the edge falls back to the globally
/// least-loaded machine instead. Without the cap the pure greedy rule degenerates on
/// graphs streamed in source order (all of a vertex's edges chase its first replica),
/// which would distort the replication/traffic trade-off the experiments measure.
///
/// This is the strategy GraphLab's default ingress uses and therefore the default for
/// every experiment in the workspace; it yields the lowest replication factor of the
/// three partitioners, which in turn sets the master↔mirror traffic that the paper's
/// `p_s` parameter reduces.
pub(super) fn assign(graph: &DiGraph, num_machines: usize, seed: u64) -> EdgeAssignment {
    let n = graph.num_vertices();
    // Replica sets as bitmasks, `words` u64 words a vertex (one up to 64 machines).
    let words = num_machines.div_ceil(64);
    let mut replicas = vec![0u64; n * words];
    let mut load = vec![0usize; num_machines];
    // The mask of the whole cluster: rule 4's candidates, and the balance fallback's.
    let everywhere: Vec<u64> = (0..words)
        .map(|w| u64::MAX >> (64 - (num_machines - 64 * w).min(64)))
        .collect();

    let mut machines = Vec::with_capacity(graph.num_edges());
    for (idx, (u, v)) in graph.edges().enumerate() {
        let ui = u as usize * words;
        let vi = v as usize * words;
        let a_u = &replicas[ui..ui + words];
        let a_v = &replicas[vi..vi + words];
        let shared = a_u.iter().zip(a_v).map(|(a, b)| a & b);
        // Rules 2 and 3 are one: the union of two sets of which one may be empty.
        let either = a_u.iter().zip(a_v).map(|(a, b)| a | b);
        let anywhere = || {
            least_loaded(everywhere.iter().copied(), &load, seed, idx)
                // lint:allow(panic, `everywhere` has a bit for each of the num_machines > 0 machines)
                .expect("a cluster has at least one machine")
        };
        let mut chosen = least_loaded(shared, &load, seed, idx)
            .or_else(|| least_loaded(either, &load, seed, idx))
            .unwrap_or_else(anywhere);

        // Balance cap: if the greedy pick is already overloaded relative to the
        // average, fall back to the globally least-loaded machine.
        let average = (idx as f64 + 1.0) / num_machines as f64;
        if load[chosen] as f64 > BALANCE_SLACK * average + 1.0 {
            chosen = anywhere();
        }

        load[chosen] += 1;
        let word = chosen / 64;
        let bit = chosen % 64;
        replicas[ui + word] |= 1u64 << bit;
        replicas[vi + word] |= 1u64 << bit;
        machines.push(MachineId::from(chosen));
    }

    EdgeAssignment {
        machines,
        num_machines,
    }
}

/// The least-loaded machine among the set bits of `mask`, `None` if it has none. Only a
/// tie in load is hashed: it goes to the machine with the smaller hash of
/// `(seed, edge, machine)`, as if every candidate of every edge had drawn one.
fn least_loaded(
    mask: impl Iterator<Item = u64>,
    load: &[usize],
    seed: u64,
    edge: usize,
) -> Option<usize> {
    let tie_hash = |m: usize| rng::mix(&[rng::mix(&[seed, edge as u64]), m as u64]);
    let mut best: Option<(usize, Option<u64>)> = None;
    for m in set_bits(mask) {
        best = Some(match best {
            Some((b, _)) if load[m] < load[b] => (m, None),
            Some((b, hash)) if load[m] == load[b] => {
                let (hash_b, hash_m) = (hash.unwrap_or_else(|| tie_hash(b)), tie_hash(m));
                if hash_m < hash_b {
                    (m, Some(hash_m))
                } else {
                    (b, Some(hash_b))
                }
            }
            Some(keep) => keep,
            None => (m, None),
        });
    }
    best.map(|(m, _)| m)
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{check_partitioner_contract, test_graph};
    use super::super::PartitionerKind;
    use super::*;
    use crate::placement::PartitionedGraph;

    #[test]
    fn satisfies_partitioner_contract() {
        check_partitioner_contract(PartitionerKind::Oblivious, 8);
        check_partitioner_contract(PartitionerKind::Oblivious, 24);
    }

    #[test]
    fn replication_is_lower_than_random() {
        let g = test_graph();
        let greedy = PartitionedGraph::build(&g, 16, PartitionerKind::Oblivious, 3);
        let random = PartitionedGraph::build(&g, 16, PartitionerKind::Random, 3);
        assert!(
            greedy.placement().replication_factor() < random.placement().replication_factor(),
            "oblivious {} vs random {}",
            greedy.placement().replication_factor(),
            random.placement().replication_factor()
        );
    }

    #[test]
    fn load_stays_balanced() {
        let g = test_graph();
        let a = assign(&g, 8, 3);
        assert!(a.imbalance() < 1.6, "imbalance {}", a.imbalance());
    }

    #[test]
    fn many_machines_still_work() {
        // more machines than 64-bit word boundary exercises the multi-word path
        let g = test_graph();
        let a = assign(&g, 96, 3);
        assert_eq!(a.num_machines, 96);
        assert!(a.machines.iter().all(|m| m.index() < 96));
    }

    #[test]
    fn single_machine_case() {
        let g = test_graph();
        let a = assign(&g, 1, 3);
        assert!(a.machines.iter().all(|m| m.index() == 0));
    }
}
