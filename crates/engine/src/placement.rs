//! Master/mirror placement and per-machine graph shards.
//!
//! Given an edge-to-machine assignment (a vertex-cut), this module derives the data
//! layout a PowerGraph-like engine works with:
//!
//! * every vertex has a replica on each machine owning at least one of its edges;
//! * exactly one replica is designated the **master** (it holds the authoritative vertex
//!   state, runs `apply`, and pushes updates to the mirrors);
//! * every machine holds a [`Shard`]: its local edges in CSR form by *local* vertex
//!   index, plus lookup tables between local and global ids.
//!
//! The replication factor reported by [`VertexPlacement::replication_factor`] is the
//! quantity that drives the per-iteration network cost of the standard PageRank — the
//! cost the paper's partial synchronization reduces.

// lint:allow-file(indexing, build-time CSR assembly; every local index is created by the counting pass right above its use)

use crate::cluster::MachineId;
use crate::partition::{set_bits, EdgeAssignment, PartitionerKind};
use crate::rng;
use frogwild_graph::{row_ranges, run_batched, setup_width, split_lengths, DiGraph, VertexId};
use std::ops::Range;

/// Where every replica of every vertex lives: the machine holding it and its slot
/// (local index) in that machine's [`Shard`]. This table is the one way the engine
/// finds a vertex's state; [`Shard::local_index`] recovers the same slot by search.
#[derive(Clone, Debug)]
pub struct VertexPlacement {
    /// Master machine of every vertex, and the master replica's slot on it.
    master: Vec<MachineId>,
    master_local: Vec<u32>,
    /// The replica table in CSR form: the replicas of `v` are entries
    /// `offsets[v]..offsets[v + 1]` of `machines` (ascending, always containing the
    /// master's machine) and of `locals`, the slot of `v` on that machine below
    /// [`SLOT_MASK`], with [`OWNS_OUT_EDGE`] and [`OWNS_IN_EDGE`] set when the machine
    /// owns an out-edge or an in-edge of `v`.
    offsets: Vec<usize>,
    machines: Vec<MachineId>,
    locals: Vec<u32>,
}

/// The flag bits of a replica table word, above the slot.
const OWNS_OUT_EDGE: u32 = 1 << 31;
const OWNS_IN_EDGE: u32 = 1 << 30;
const SLOT_MASK: u32 = OWNS_IN_EDGE - 1;

/// One replica of a vertex, as the placement table records it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Replica {
    pub(crate) machine: MachineId,
    /// The vertex's slot in that machine's shard.
    pub(crate) slot: u32,
    /// Whether the machine owns at least one out-edge of the vertex (it can scatter).
    pub(crate) owns_out_edge: bool,
    /// Whether the machine owns at least one in-edge of the vertex (it can gather).
    pub(crate) owns_in_edge: bool,
}

impl VertexPlacement {
    /// Master machine of `v`.
    #[inline]
    pub fn master(&self, v: VertexId) -> MachineId {
        self.master[v as usize]
    }

    /// Master machine of `v` and the slot of `v` in that machine's shard.
    #[inline]
    pub fn master_slot(&self, v: VertexId) -> (MachineId, u32) {
        (self.master[v as usize], self.master_local[v as usize])
    }

    /// Machines holding a replica of `v` (sorted, includes the master's machine).
    #[inline]
    pub fn replicas(&self, v: VertexId) -> &[MachineId] {
        &self.machines[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Every replica of `v` as `(machine, slot in that machine's shard)`, in
    /// ascending machine order.
    #[inline]
    pub fn replica_slots(
        &self,
        v: VertexId,
    ) -> impl ExactSizeIterator<Item = (MachineId, u32)> + Clone + '_ {
        self.replicas_of(v).map(|r| (r.machine, r.slot))
    }

    /// Every replica of `v`, with which edge directions its machine owns, in ascending
    /// machine order.
    #[inline]
    pub(crate) fn replicas_of(
        &self,
        v: VertexId,
    ) -> impl ExactSizeIterator<Item = Replica> + Clone + '_ {
        let range = self.offsets[v as usize]..self.offsets[v as usize + 1];
        let machines = self.machines[range.clone()].iter().copied();
        (machines.zip(self.locals[range].iter().copied())).map(|(machine, word)| Replica {
            machine,
            slot: word & SLOT_MASK,
            owns_out_edge: word & OWNS_OUT_EDGE != 0,
            owns_in_edge: word & OWNS_IN_EDGE != 0,
        })
    }

    /// Number of vertices placed.
    pub fn num_vertices(&self) -> usize {
        self.master.len()
    }

    /// Average number of replicas per vertex — the key cost metric of a vertex-cut.
    pub fn replication_factor(&self) -> f64 {
        if self.master.is_empty() {
            return 0.0;
        }
        self.machines.len() as f64 / self.master.len() as f64
    }
}

/// The slice of the graph owned by one machine. Both edge tables are indexed by local
/// vertex index; out-edge targets are stored as *global* ids, because scatter is their
/// only reader and lends the stored slice to the program as message destinations, while
/// in-edge sources stay local indices, which gather reads the replica cache through.
#[derive(Clone, Debug)]
pub struct Shard {
    /// The machine this shard belongs to.
    pub machine: MachineId,
    /// Global ids of the vertices with a replica on this machine, sorted ascending.
    /// Local vertex index `i` refers to `vertices[i]`.
    pub vertices: Vec<VertexId>,
    /// Local edges in CSR form by *source* local index, global targets (used by scatter).
    out_offsets: Vec<usize>,
    out_targets: Vec<VertexId>,
    /// Local edges in CSR form by *destination* local index (used by gather).
    in_offsets: Vec<usize>,
    in_sources_local: Vec<u32>,
}

impl Shard {
    /// Number of local vertex replicas.
    pub fn num_local_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges owned by this machine.
    pub fn num_local_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Local index of a global vertex id, if the vertex has a replica here. A binary
    /// search, for [`PartitionedGraph::validate`] and tests to check the recorded slots
    /// against: building the layout and running on it both read the slots
    /// [`VertexPlacement`] holds instead.
    #[inline]
    pub fn local_index(&self, v: VertexId) -> Option<u32> {
        // `vertices` is sorted ascending, so the local index is its rank.
        self.vertices.binary_search(&v).ok().map(|i| i as u32)
    }

    /// Global id of a local index.
    #[inline]
    pub fn global_id(&self, local: u32) -> VertexId {
        self.vertices[local as usize]
    }

    /// Out-neighbors (as *global* ids, in edge order) of the vertex with local index
    /// `local` over the out-edges this machine owns: the shard's own slice.
    #[inline]
    pub fn local_out_neighbors(&self, local: u32) -> &[VertexId] {
        let l = local as usize;
        &self.out_targets[self.out_offsets[l]..self.out_offsets[l + 1]]
    }

    /// Local in-neighbors (as local indices) of the vertex with local index `local`.
    #[inline]
    pub fn local_in_neighbors(&self, local: u32) -> &[u32] {
        let l = local as usize;
        &self.in_sources_local[self.in_offsets[l]..self.in_offsets[l + 1]]
    }

    /// Number of out-edges of `local` owned by this machine.
    #[inline]
    pub fn local_out_degree(&self, local: u32) -> usize {
        let l = local as usize;
        self.out_offsets[l + 1] - self.out_offsets[l]
    }

    /// Number of in-edges of `local` owned by this machine.
    #[inline]
    pub fn local_in_degree(&self, local: u32) -> usize {
        let l = local as usize;
        self.in_offsets[l + 1] - self.in_offsets[l]
    }
}

/// A graph partitioned across a simulated cluster: per-machine shards plus the global
/// placement and degree tables the engine needs.
#[derive(Clone, Debug)]
pub struct PartitionedGraph {
    num_vertices: usize,
    num_edges: usize,
    shards: Vec<Shard>,
    placement: VertexPlacement,
    /// Global out-degree of every vertex (the full graph's out-degree, which the random
    /// walk transition probabilities are defined over).
    out_degrees: Vec<u32>,
}

impl PartitionedGraph {
    /// Partitions `graph` across `num_machines` machines using `partitioner`.
    ///
    /// Master assignment follows PowerGraph: the master of a vertex is chosen by a
    /// seed-derived hash among the machines holding a replica of that vertex (isolated
    /// vertices are hashed across all machines). The edge assignment runs on the
    /// calling thread; the layout is built from it on the host's threads (see
    /// [`from_assignment`](Self::from_assignment)), and is the same at any width.
    pub fn build(
        graph: &DiGraph,
        num_machines: usize,
        partitioner: PartitionerKind,
        seed: u64,
    ) -> Self {
        let assignment = partitioner.assign(graph, num_machines, seed);
        Self::from_assignment(graph, &assignment, seed)
    }

    /// Builds the partitioned layout from an explicit edge assignment, on
    /// [`setup_width`] threads — the host's for a large graph, the calling thread for a
    /// small one — in passes that search for nothing. The layout is the same at any
    /// width.
    ///
    /// On the calling thread, replica sets are gathered as one bitmask a vertex, and an
    /// ascending sweep over the vertices reads machines off the masks in bit order,
    /// picking masters and filling the placement table and the shards' vertex lists
    /// together. Then, on the pool: contiguous edge ranges count their edges per
    /// machine, and localise them through the slots that sweep recorded, each into its
    /// own part of every machine's list, so a list holds its machine's edges in edge
    /// order; the shards' CSRs are built one machine a unit, in waves of as many
    /// machines as threads, each wave freeing its lists as it finishes; and the replica
    /// table's edge flags are read off the shards' local degrees, a vertex range a unit.
    /// Every array a pass fills is allocated on the calling thread.
    pub fn from_assignment(graph: &DiGraph, assignment: &EdgeAssignment, seed: u64) -> Self {
        Self::from_assignment_on(setup_width(graph.num_edges()), graph, assignment, seed)
    }

    /// [`from_assignment`](Self::from_assignment) on `width` threads.
    fn from_assignment_on(
        width: usize,
        graph: &DiGraph,
        assignment: &EdgeAssignment,
        seed: u64,
    ) -> Self {
        let n = graph.num_vertices();
        let num_machines = assignment.num_machines;
        let width = width.max(1);
        let lanes = &mut vec![(); width];
        assert_eq!(
            assignment.machines.len(),
            graph.num_edges(),
            "assignment must cover every edge"
        );

        // --- replica sets -------------------------------------------------------
        // Bit `m` of vertex `v`'s `words`-word mask: machine `m` owns an edge of `v`.
        // (At least one word, so that an empty graph over no machine still chunks.)
        let words = num_machines.div_ceil(64).max(1);
        let mut masks = vec![0u64; n * words];
        let word_and_bit = |v: VertexId, m: usize| (v as usize * words + m / 64, 1u64 << (m % 64));
        for ((src, dst), &machine) in graph.edges().zip(assignment.machines.iter()) {
            for v in [src, dst] {
                let (word, bit) = word_and_bit(v, machine.index());
                masks[word] |= bit;
            }
        }

        // --- masters, replica table and per-machine vertex tables ----------------
        // Vertices are visited in ascending order, so a replica's slot is the length
        // of its machine's vertex table at the moment the vertex joins it.
        let mut shards: Vec<Shard> = (0..num_machines)
            .map(|m| Shard {
                machine: MachineId::from(m),
                vertices: Vec::new(),
                out_offsets: Vec::new(),
                out_targets: Vec::new(),
                in_offsets: Vec::new(),
                in_sources_local: Vec::new(),
            })
            .collect();
        // Short only of the isolated vertices, which are given a home below.
        let num_replicas: usize = masks.iter().map(|w| w.count_ones() as usize).sum();
        let mut placement = VertexPlacement {
            master: Vec::with_capacity(n),
            master_local: Vec::with_capacity(n),
            offsets: Vec::with_capacity(n + 1),
            machines: Vec::with_capacity(num_replicas),
            locals: Vec::with_capacity(num_replicas),
        };
        placement.offsets.push(0);
        for (v, mask) in masks.chunks_exact_mut(words).enumerate() {
            let mut replicas = mask.iter().map(|w| w.count_ones() as usize).sum();
            if replicas == 0 {
                // Isolated vertices (no edges at all) still need a home for their master.
                let m = rng::pick_index(num_machines, &[seed, 0x150AA7ED, v as u64]);
                mask[m / 64] |= 1u64 << (m % 64);
                replicas = 1;
            }
            let master = rng::pick_index(replicas, &[seed, 0x4A57E2, v as u64]);
            for (rank, m) in set_bits(mask.iter().copied()).enumerate() {
                let shard = &mut shards[m];
                let local = shard.vertices.len() as u32;
                shard.vertices.push(v as VertexId);
                if rank == master {
                    placement.master.push(shard.machine);
                    placement.master_local.push(local);
                }
                placement.machines.push(shard.machine);
                placement.locals.push(local);
            }
            placement.offsets.push(placement.machines.len());
        }
        assert!(
            shards
                .iter()
                .all(|s| s.vertices.len() <= SLOT_MASK as usize),
            "a machine holds more replicas than a replica table word can slot"
        );

        // --- local edge lists ---------------------------------------------------
        // Each edge range counts its edges per machine, so that it can own a part of
        // every machine's list: the ranges' parts follow one another in range order.
        let ranges = row_ranges(graph.out_offsets(), width);
        let edge_range =
            |r: &Range<usize>| graph.out_offsets()[r.start]..graph.out_offsets()[r.end];
        let mut counts: Vec<Vec<usize>> = ranges.iter().map(|_| vec![0; num_machines]).collect();
        let mut units: Vec<_> = ranges.iter().zip(&mut counts).collect();
        run_batched(&mut units, lanes, |_, (range, counts), _| {
            for machine in &assignment.machines[edge_range(range)] {
                counts[machine.index()] += 1;
            }
        });
        let mut lists: Vec<Vec<(u32, u32)>> = (0..num_machines)
            .map(|m| vec![(0, 0); counts.iter().map(|c| c[m]).sum()])
            .collect();
        let mut parts: Vec<Vec<&mut [(u32, u32)]>> = ranges.iter().map(|_| Vec::new()).collect();
        for (m, list) in lists.iter_mut().enumerate() {
            let pieces = split_lengths(list, counts.iter().map(|c| c[m]));
            for (part, piece) in parts.iter_mut().zip(pieces) {
                part.push(piece);
            }
        }
        // Replicas are tabled in bit order, so the entry of `v` on machine `m` is the one
        // as far into `v`'s as `v`'s mask has bits below `m`; it holds `v`'s slot there.
        // A source's slots are read off once for all its edges, a destination's each time.
        let (offsets, locals) = (&placement.offsets, &placement.locals);
        let slot = |v: VertexId, m: usize| {
            let (word, bit) = word_and_bit(v, m);
            let below: u32 = masks[v as usize * words..word]
                .iter()
                .map(|w| w.count_ones())
                .sum();
            let rank = below + (masks[word] & (bit - 1)).count_ones();
            locals[offsets[v as usize] + rank as usize]
        };
        let mut units: Vec<_> = ranges.iter().zip(parts).collect();
        run_batched(&mut units, lanes, |_, (range, parts), _| {
            // How far each part is filled, and the current source's slot on each machine
            // it is on, kept on this thread: the units' lists of parts lie side by side,
            // and writing them would share cache lines across threads.
            let mut filled = vec![0; num_machines];
            let mut source_slots = vec![0; num_machines];
            let machines = &assignment.machines[edge_range(range)];
            let mut e = 0;
            for v in range.clone() {
                let on = set_bits(masks[v * words..(v + 1) * words].iter().copied());
                for (m, &slot) in on.zip(&locals[offsets[v]..offsets[v + 1]]) {
                    source_slots[m] = slot;
                }
                for &dst in graph.out_neighbors(v as VertexId) {
                    let m = machines[e].index();
                    e += 1;
                    parts[m][filled[m]] = (source_slots[m], slot(dst, m));
                    filled[m] += 1;
                }
            }
        });
        drop(units);
        // The masks have done their work, and what follows is the build's memory peak.
        drop(masks);

        // --- shards -------------------------------------------------------------
        let mut lists = lists.into_iter();
        for wave in shards.chunks_mut(width) {
            let edges: Vec<Vec<(u32, u32)>> = lists.by_ref().take(wave.len()).collect();
            let mut units: Vec<_> = wave
                .iter_mut()
                .zip(&edges)
                .map(|(shard, edges)| {
                    let (locals, count) = (shard.vertices.len(), edges.len());
                    shard.out_offsets = vec![0; locals + 1];
                    shard.out_targets = vec![0; count];
                    shard.in_offsets = vec![0; locals + 1];
                    shard.in_sources_local = vec![0; count];
                    (shard, edges)
                })
                .collect();
            run_batched(&mut units, lanes, |_, (shard, edges), _| {
                let vertices = &shard.vertices;
                fill_local_csr(
                    &mut shard.out_offsets,
                    &mut shard.out_targets,
                    edges.iter().map(|&(s, d)| (s, vertices[d as usize])),
                );
                fill_local_csr(
                    &mut shard.in_offsets,
                    &mut shard.in_sources_local,
                    edges.iter().map(|&(s, d)| (d, s)),
                );
            });
        }

        // --- edge flags ---------------------------------------------------------
        // A machine owns an out-edge (in-edge) of a vertex if the vertex's row in its
        // shard's out-CSR (in-CSR) is not empty.
        let ranges = row_ranges(&placement.offsets, width);
        let offsets = &placement.offsets;
        let entries = ranges.iter().map(|r| offsets[r.end] - offsets[r.start]);
        let flags = split_lengths(&mut placement.locals, entries);
        let mut units: Vec<_> = ranges.iter().zip(flags).collect();
        let (machines, all) = (&placement.machines, &shards);
        run_batched(&mut units, lanes, |_, (range, words), _| {
            let entries = offsets[range.start]..offsets[range.end];
            for (word, machine) in words.iter_mut().zip(&machines[entries]) {
                let (shard, slot) = (&all[machine.index()], *word);
                if shard.local_out_degree(slot) > 0 {
                    *word |= OWNS_OUT_EDGE;
                }
                if shard.local_in_degree(slot) > 0 {
                    *word |= OWNS_IN_EDGE;
                }
            }
        });
        drop(units);

        let out_degrees = (0..n as VertexId)
            .map(|v| graph.out_degree(v) as u32)
            .collect();

        PartitionedGraph {
            num_vertices: n,
            num_edges: graph.num_edges(),
            shards,
            placement,
            out_degrees,
        }
    }

    /// Number of vertices in the underlying graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges in the underlying graph.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of machines in the cluster.
    pub fn num_machines(&self) -> usize {
        self.shards.len()
    }

    /// The per-machine shards.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// One shard by machine id.
    pub fn shard(&self, machine: MachineId) -> &Shard {
        &self.shards[machine.index()]
    }

    /// Master/replica placement tables.
    pub fn placement(&self) -> &VertexPlacement {
        &self.placement
    }

    /// Global out-degree of a vertex (over the whole graph, not just local edges).
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.out_degrees[v as usize]
    }

    /// Consistency check used by tests: every edge appears on exactly one machine, every
    /// endpoint of a local edge has a local replica, local degree sums match global
    /// degrees, the master of every vertex is one of its replicas, every slot the
    /// placement table records is the vertex's local index on that machine and carries
    /// the out- and in-edge flags that machine's local degrees call for, and every
    /// stored out-edge target is the global id of a vertex replicated on that shard.
    pub fn validate(&self) -> Result<(), frogwild_graph::Error> {
        let total_local_edges: usize = self.shards.iter().map(|s| s.num_local_edges()).sum();
        if total_local_edges != self.num_edges {
            return Err(frogwild_graph::Error::partition(format!(
                "local edges {} do not sum to global edge count {}",
                total_local_edges, self.num_edges
            )));
        }
        for v in 0..self.num_vertices as VertexId {
            let master_slot = self.placement.master_slot(v);
            if !self
                .placement
                .replica_slots(v)
                .any(|slot| slot == master_slot)
            {
                return Err(frogwild_graph::Error::partition(format!(
                    "master of vertex {v} is not among its replicas"
                )));
            }
            let mut local_out_total = 0usize;
            for replica in self.placement.replicas_of(v) {
                let (m, local) = (replica.machine, replica.slot);
                let shard = self.shard(m);
                // lint:allow(forbidden, validate checks each recorded slot against a search)
                if shard.local_index(v) != Some(local) {
                    return Err(frogwild_graph::Error::partition(format!(
                        "vertex {v}: recorded slot {local} on {m} is not its local index"
                    )));
                }
                let (out_degree, in_degree) =
                    (shard.local_out_degree(local), shard.local_in_degree(local));
                if replica.owns_out_edge != (out_degree > 0)
                    || replica.owns_in_edge != (in_degree > 0)
                {
                    return Err(frogwild_graph::Error::partition(format!(
                        "vertex {v} on {m}: edge flags (out {}, in {}) disagree with local \
                         degrees (out {out_degree}, in {in_degree})",
                        replica.owns_out_edge, replica.owns_in_edge
                    )));
                }
                local_out_total += out_degree;
            }
            if local_out_total != self.out_degrees[v as usize] as usize {
                return Err(frogwild_graph::Error::partition(format!(
                    "vertex {v}: local out-degrees sum to {local_out_total}, global is {}",
                    self.out_degrees[v as usize]
                )));
            }
        }
        for shard in &self.shards {
            for (i, &v) in shard.vertices.iter().enumerate() {
                // lint:allow(forbidden, validate checks the lookup table against a search)
                if shard.local_index(v) != Some(i as u32) {
                    return Err(frogwild_graph::Error::partition(format!(
                        "shard {}: lookup table inconsistent for vertex {v}",
                        shard.machine
                    )));
                }
            }
            for &t in shard.out_targets.iter() {
                // lint:allow(forbidden, validate checks each edge target against a search)
                if shard.local_index(t).is_none() {
                    return Err(frogwild_graph::Error::partition(format!(
                        "shard {}: out-edge target {t} is not the id of a local replica",
                        shard.machine
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Counting-sort CSR by local row index into `offsets` (one more than the rows, zeroed)
/// and `targets` (one per edge); the column values are stored as given, each row in
/// edge order. `offsets` is its own cursor: row `s` is counted into `offsets[s + 1]`,
/// summed so that `offsets[s]` is where the row starts, advanced past each edge placed,
/// and so left holding where each row ends — the start of the next — until it is
/// shifted back by one.
fn fill_local_csr(
    offsets: &mut [usize],
    targets: &mut [u32],
    edges: impl Iterator<Item = (u32, u32)> + Clone,
) {
    for (s, _) in edges.clone() {
        offsets[s as usize + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    for (s, d) in edges {
        let cursor = &mut offsets[s as usize];
        targets[*cursor] = d;
        *cursor += 1;
    }
    let rows = offsets.len() - 1;
    offsets.copy_within(0..rows, 1);
    offsets[0] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use frogwild_graph::generators::simple::{complete, cycle, star};
    use frogwild_graph::generators::{rmat, RmatParams};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_rmat() -> DiGraph {
        let mut rng = SmallRng::seed_from_u64(77);
        rmat(400, RmatParams::default(), &mut rng)
    }

    #[test]
    fn partitioned_graph_is_consistent() {
        let g = small_rmat();
        for machines in [1usize, 4, 16] {
            let pg = PartitionedGraph::build(&g, machines, PartitionerKind::Oblivious, 5);
            assert_eq!(pg.num_machines(), machines);
            assert_eq!(pg.num_vertices(), g.num_vertices());
            assert_eq!(pg.num_edges(), g.num_edges());
            pg.validate().unwrap();
        }
    }

    #[test]
    fn random_partition_is_consistent_too() {
        let g = small_rmat();
        let pg = PartitionedGraph::build(&g, 8, PartitionerKind::Random, 5);
        pg.validate().unwrap();
    }

    #[test]
    fn single_machine_has_no_mirrors() {
        let g = cycle(20);
        let pg = PartitionedGraph::build(&g, 1, PartitionerKind::Oblivious, 1);
        assert!((pg.placement().replication_factor() - 1.0).abs() < 1e-12);
        for v in g.vertices() {
            assert_eq!(pg.placement().replicas(v), [pg.placement().master(v)]);
        }
    }

    #[test]
    fn replication_factor_bounds() {
        let g = small_rmat();
        let pg = PartitionedGraph::build(&g, 8, PartitionerKind::Random, 2);
        let rf = pg.placement().replication_factor();
        assert!((1.0..=8.0).contains(&rf), "replication factor {rf}");
    }

    #[test]
    fn high_degree_hub_is_replicated_widely() {
        let g = star(200);
        let pg = PartitionedGraph::build(&g, 8, PartitionerKind::Random, 2);
        // the hub touches every edge so it should be on (almost) every machine
        assert!(pg.placement().replicas(0).len() >= 7);
        // leaves have degree 2, so at most 2 replicas
        for v in 1..200u32 {
            assert!(pg.placement().replicas(v).len() <= 2);
        }
    }

    #[test]
    fn masters_are_unique_and_on_replicas() {
        let g = small_rmat();
        let pg = PartitionedGraph::build(&g, 6, PartitionerKind::Oblivious, 3);
        for v in g.vertices() {
            let master = pg.placement().master(v);
            assert!(pg.placement().replicas(v).contains(&master));
            // exactly one shard holds it in the slot the placement calls the master's
            let master_slot = pg.placement().master_slot(v);
            let master_count = pg
                .shards()
                .iter()
                .filter(|s| s.local_index(v).map(|l| (s.machine, l)) == Some(master_slot))
                .count();
            assert_eq!(master_count, 1, "vertex {v}");
        }
    }

    #[test]
    fn isolated_vertices_get_a_master() {
        let mut edges = vec![(0u32, 1u32), (1, 0)];
        edges.push((2, 3));
        edges.push((3, 2));
        // vertex 4 is isolated
        let g = DiGraph::from_edges(5, &edges);
        let pg = PartitionedGraph::build(&g, 4, PartitionerKind::Random, 9);
        assert_eq!(pg.placement().replicas(4).len(), 1);
        pg.validate().unwrap();
    }

    #[test]
    fn shard_local_edges_match_global_edges() {
        let g = complete(12);
        let pg = PartitionedGraph::build(&g, 4, PartitionerKind::Oblivious, 8);
        // reconstruct the multiset of global edges from the shards
        let mut reconstructed: Vec<(u32, u32)> = Vec::new();
        for shard in pg.shards() {
            for local in 0..shard.num_local_vertices() as u32 {
                let src = shard.global_id(local);
                for &dst in shard.local_out_neighbors(local) {
                    reconstructed.push((src, dst));
                }
            }
        }
        reconstructed.sort_unstable();
        let mut expected = g.edge_vec();
        expected.sort_unstable();
        assert_eq!(reconstructed, expected);
    }

    #[test]
    fn validate_rejects_an_out_target_that_is_not_a_local_replicas_global_id() {
        let g = small_rmat();
        let mut pg = PartitionedGraph::build(&g, 4, PartitionerKind::Oblivious, 8);
        pg.validate().unwrap();
        // A local index where a global id belongs: some vertex of the graph, but (on a
        // four-machine cut of 400 vertices) not one replicated on this shard.
        let shard = &mut pg.shards[0];
        let stray = (0..400).find(|&v| shard.local_index(v).is_none()).unwrap();
        shard.out_targets[0] = stray;
        assert!(matches!(
            pg.validate(),
            Err(frogwild_graph::Error::Partition { .. })
        ));
    }

    #[test]
    fn validate_rejects_a_replica_edge_flag_that_disagrees_with_the_shard() {
        let g = small_rmat();
        for (flag, entry) in [
            (OWNS_OUT_EDGE, 0usize),
            (OWNS_IN_EDGE, 0),
            (OWNS_OUT_EDGE, 7),
        ] {
            let mut pg = PartitionedGraph::build(&g, 4, PartitionerKind::Oblivious, 8);
            pg.validate().unwrap();
            pg.placement.locals[entry] ^= flag;
            assert!(
                matches!(pg.validate(), Err(frogwild_graph::Error::Partition { .. })),
                "flag {flag:#x} flipped on entry {entry}"
            );
        }
    }

    #[test]
    fn local_in_and_out_edge_counts_agree() {
        let g = small_rmat();
        let pg = PartitionedGraph::build(&g, 5, PartitionerKind::Oblivious, 8);
        for shard in pg.shards() {
            let out_total: usize = (0..shard.num_local_vertices() as u32)
                .map(|l| shard.local_out_degree(l))
                .sum();
            let in_total: usize = (0..shard.num_local_vertices() as u32)
                .map(|l| shard.local_in_degree(l))
                .sum();
            assert_eq!(out_total, shard.num_local_edges());
            assert_eq!(in_total, shard.num_local_edges());
        }
    }

    #[test]
    fn every_width_builds_the_same_layout() {
        let g = small_rmat();
        // A graph with isolated vertices too, and one with no edge at all.
        let sparse = DiGraph::from_edges(9, &[(0, 1), (1, 0), (4, 7), (7, 7)]);
        for graph in [&g, &sparse, &DiGraph::empty(5)] {
            for kind in PartitionerKind::ALL {
                // Seventy machines take two mask words.
                for machines in [1usize, 3, 16, 70] {
                    let assignment = kind.assign(graph, machines, 13);
                    let build =
                        |width| PartitionedGraph::from_assignment_on(width, graph, &assignment, 13);
                    let one = build(1);
                    one.validate().unwrap();
                    let layout = format!("{one:?}");
                    for width in [2, 8] {
                        let wide = build(width);
                        wide.validate().unwrap();
                        assert!(
                            format!("{wide:?}") == layout,
                            "{kind:?} on {machines} machines at width {width}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = small_rmat();
        let a = PartitionedGraph::build(&g, 8, PartitionerKind::Oblivious, 11);
        let b = PartitionedGraph::build(&g, 8, PartitionerKind::Oblivious, 11);
        assert_eq!(
            a.placement().replication_factor(),
            b.placement().replication_factor()
        );
        for v in g.vertices() {
            assert_eq!(a.placement().master(v), b.placement().master(v));
            assert_eq!(a.placement().replicas(v), b.placement().replicas(v));
        }
    }
}
