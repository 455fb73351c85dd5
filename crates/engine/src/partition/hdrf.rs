//! HDRF — High-Degree (are) Replicated First streaming edge placement.
//!
//! HDRF (Petroni et al., CIKM 2015) is the best-known streaming vertex-cut heuristic for
//! power-law graphs: when an edge must split one of its endpoints across machines, it
//! prefers to split the endpoint with the *higher* (partial) degree, because high-degree
//! vertices will inevitably be replicated anyway, while low-degree vertices can often be
//! kept whole. On the heavy-tailed graphs the FrogWild paper targets this yields
//! noticeably lower replication factors than both random and plain greedy placement,
//! which directly lowers the mirror-synchronization traffic the `p_s` knob then reduces
//! further — the ablation benchmark quantifies how the two savings compose.

// lint:allow-file(indexing, per-machine score tables indexed by machine ids below num_machines)

use super::EdgeAssignment;
use crate::cluster::MachineId;
use crate::rng;
use frogwild_graph::DiGraph;

/// Balance weight `λ`. The HDRF paper recommends values slightly above 1; larger values
/// trade replication factor for better load balance.
const LAMBDA: f64 = 1.1;

/// The HDRF streaming partitioner.
///
/// For every streamed edge `(u, v)` and every machine `p`, HDRF scores
///
/// ```text
/// C(u, v, p) = C_rep(u, v, p) + λ · C_bal(p)
/// ```
///
/// where the replication term rewards machines that already host a replica of `u` or
/// `v`, weighted so that the *lower*-degree endpoint counts more (keeping it whole), and
/// the balance term rewards lightly loaded machines. The edge goes to the
/// highest-scoring machine; ties are broken by a seed-derived hash so the assignment is
/// a pure function of `(graph, num_machines, seed)`.
pub(super) fn assign(graph: &DiGraph, num_machines: usize, seed: u64) -> EdgeAssignment {
    let n = graph.num_vertices();
    let words = num_machines.div_ceil(64);
    // Replica bitsets, one u64-word group per vertex (same layout as the oblivious
    // partitioner; clusters here are small so `words` is almost always 1).
    let mut replicas = vec![0u64; n * words];
    // Partial degrees: how many streamed edges have touched each vertex so far. HDRF
    // is defined over these rather than the final degrees so it stays a one-pass
    // streaming algorithm.
    let mut partial_degree = vec![0u32; n];
    let mut load = vec![0usize; num_machines];

    let mut machines = Vec::with_capacity(graph.num_edges());
    for (idx, (u, v)) in graph.edges().enumerate() {
        let ui = u as usize;
        let vi = v as usize;
        partial_degree[ui] += 1;
        partial_degree[vi] += 1;
        let du = partial_degree[ui] as f64;
        let dv = partial_degree[vi] as f64;
        // Normalised degrees: θ(u) + θ(v) = 1.
        let theta_u = du / (du + dv);
        let theta_v = 1.0 - theta_u;

        let max_load = load.iter().copied().max().unwrap_or(0) as f64;
        let min_load = load.iter().copied().min().unwrap_or(0) as f64;
        let balance_denominator = 1.0 + max_load - min_load;
        let tie_seed = rng::mix(&[seed, idx as u64]);

        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        let mut best_tie = 0u64;
        for (p, &load_p) in load.iter().enumerate() {
            let word = p / 64;
            let bit = 1u64 << (p % 64);
            let hosts_u = replicas[ui * words + word] & bit != 0;
            let hosts_v = replicas[vi * words + word] & bit != 0;
            // g(u, p) = 1 + (1 - θ(u)) when p already hosts u: splitting the
            // low-degree endpoint is penalised more than splitting the hub.
            let rep_score = if hosts_u { 1.0 + (1.0 - theta_u) } else { 0.0 }
                + if hosts_v { 1.0 + (1.0 - theta_v) } else { 0.0 };
            let bal_score = (max_load - load_p as f64) / balance_denominator;
            let score = rep_score + LAMBDA * bal_score;
            let tie = rng::mix(&[tie_seed, p as u64]);
            if score > best_score || (score == best_score && tie < best_tie) {
                best = p;
                best_score = score;
                best_tie = tie;
            }
        }

        load[best] += 1;
        let word = best / 64;
        let bit = 1u64 << (best % 64);
        replicas[ui * words + word] |= bit;
        replicas[vi * words + word] |= bit;
        machines.push(MachineId::from(best));
    }

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
        check_partitioner_contract(PartitionerKind::Hdrf, 8);
        check_partitioner_contract(PartitionerKind::Hdrf, 24);
    }

    #[test]
    fn replication_is_lower_than_random() {
        let g = test_graph();
        let hdrf = PartitionedGraph::build(&g, 16, PartitionerKind::Hdrf, 3);
        let random = PartitionedGraph::build(&g, 16, PartitionerKind::Random, 3);
        assert!(
            hdrf.placement().replication_factor() < random.placement().replication_factor(),
            "hdrf {} vs random {}",
            hdrf.placement().replication_factor(),
            random.placement().replication_factor()
        );
    }

    #[test]
    fn load_stays_balanced() {
        let g = test_graph();
        let a = assign(&g, 8, 3);
        assert!(a.imbalance() < 1.5, "imbalance {}", a.imbalance());
    }

    #[test]
    fn single_machine_case() {
        let g = test_graph();
        let a = assign(&g, 1, 3);
        assert!(a.machines.iter().all(|m| m.index() == 0));
    }

    #[test]
    fn many_machines_exercise_multiword_bitsets() {
        let g = test_graph();
        let a = assign(&g, 96, 3);
        assert_eq!(a.num_machines, 96);
        assert!(a.machines.iter().all(|m| m.index() < 96));
    }
}
