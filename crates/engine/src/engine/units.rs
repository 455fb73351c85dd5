//! The bodies of a superstep's work units, and what they work in and hand back. Each
//! runs on one pool thread: a frontier range or drain span over its own slots of the
//! vertex-indexed arrays, a batch of one machine's gather list over the read-only
//! caches, or a machine over its own replica cache.

// lint:allow-file(indexing, hot path: every index is a vertex id, a slot the placement table recorded at build time, or a position in a list built for it)

use frogwild_graph::VertexId;

use super::{deposit, ApplyTask, Engine, Gathered, TAG_APPLY, TAG_FORCE, TAG_SCATTER, TAG_SYNC};
use crate::cluster::MachineId;
use crate::placement::Replica;
use crate::program::{ApplyContext, ScatterContext, VertexProgram};
use crate::rng;

/// What one pool thread works in for a whole run: the vertex-indexed outgoing slots
/// its machine units fold emissions into and the bitmap of which are occupied (both
/// sized by the first unit that needs them, and empty between units), and the list of
/// a vertex's participating replicas its sync decisions reuse.
pub(super) struct Lane<M> {
    outgoing: Vec<Option<M>>,
    marks: Vec<u64>,
    participating: Vec<Replica>,
}

impl<M> Default for Lane<M> {
    fn default() -> Self {
        Lane {
            outgoing: Vec::new(),
            marks: Vec::new(),
            participating: Vec::new(),
        }
    }
}

/// Sets bit `i` of a bitmap.
pub(super) fn mark(marks: &mut [u64], i: usize) {
    marks[i / 64] |= 1 << (i % 64);
}

/// Calls `f` with the index of every set bit of a bitmap, ascending, and clears it.
pub(super) fn drain_marks(marks: &mut [u64], mut f: impl FnMut(usize)) {
    for (w, word) in marks.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// `machines` empty lists with room for `room` entries each. Unit outputs are made
/// this way, on the driver thread, at about the size they will reach: glibc serves a
/// pool thread from an arena of its own and keeps what is freed there out of reach of
/// the driver, so lists born on the pool would add a superstep's worth of them to the
/// process's resident set. A list that outgrows its room is reallocated in the arena
/// it was born in.
pub(super) fn machine_lists<T>(machines: usize, room: usize) -> Vec<Vec<T>> {
    (0..machines).map(|_| Vec::with_capacity(room)).collect()
}

/// A frontier range and its slots of one vertex-indexed array: `slots[i]` is vertex
/// `base + i`'s, and every vertex of the range is among them.
pub(super) struct RangeSlots<'a, T> {
    pub(super) vertices: &'a [VertexId],
    pub(super) base: usize,
    pub(super) slots: &'a mut [T],
}

/// A span of vertex ids the drain fills: its inbox slots (`slots[i]` is vertex
/// `base + i`'s) and its words of the arrivals bitmap.
pub(super) struct DrainSpan<'a, M> {
    pub(super) base: usize,
    pub(super) slots: &'a mut [Option<M>],
    pub(super) marks: &'a mut [u64],
}

/// A frontier range as its sync decision sees it: its inbox and accumulator slots,
/// which apply has read, and the decision it fills in.
pub(super) struct SyncRange<'a, P: VertexProgram> {
    pub(super) mail: RangeSlots<'a, Option<P::Message>>,
    pub(super) accums: &'a mut [Option<P::Accum>],
    pub(super) out: Synced<P::State>,
}

/// One machine as its apply or scatter unit owns it.
pub(super) struct MachineUnit<'a, S> {
    pub(super) machine: usize,
    pub(super) cache: &'a mut Vec<S>,
    /// Its tasks in the phase, and — when there are any — the 1-based number of its
    /// first unit span among the phase's, which keys it.
    pub(super) tasks: u64,
    pub(super) ordinal: u32,
}

/// One gather batch's partial accumulations, ascending by vertex, the first and last
/// vertex they are for (kept beside the list, so that a commit that has no use for the
/// list never reads it), and how many of them travel to a master on another machine.
pub(super) struct Partials<A> {
    list: Vec<(VertexId, A)>,
    bounds: Option<(VertexId, VertexId)>,
    pub(super) remote: u64,
}

/// One replica of a vertex that passed the scatter gate and owns an out-edge, queued
/// on the replica's machine by the sync decision.
struct ScatterItem {
    slot: u32,
    /// Rank among the vertex's scattering replicas, ascending by machine, and their
    /// number.
    rank: u32,
    scattering: u32,
}

/// What one frontier range's sync decision hands on.
pub(super) struct Synced<S> {
    /// Per machine, in frontier order: its synchronized mirrors' slots with the
    /// master's fresh state, and its replicas to scatter.
    refreshes: Vec<Vec<(u32, S)>>,
    scatters: Vec<Vec<ScatterItem>>,
    /// Per machine, the mirror synchronizations charged to it as master.
    pub(super) syncs: Vec<u64>,
    pub(super) skipped_syncs: u64,
    pub(super) skipped_scatters: u64,
}

impl<S> Synced<S> {
    /// An empty decision over `machines` machines, with room for `refreshes` and
    /// `scatters` entries a machine (see [`machine_lists`]).
    pub(super) fn new(machines: usize, refreshes: usize, scatters: usize) -> Self {
        Synced {
            refreshes: machine_lists(machines, refreshes),
            scatters: machine_lists(machines, scatters),
            syncs: Vec::new(),
            skipped_syncs: 0,
            skipped_scatters: 0,
        }
    }

    /// The replicas this range has machine `m` scatter.
    pub(super) fn scatters_on(&self, m: usize) -> u64 {
        self.scatters[m].len() as u64
    }
}

/// One machine's combined outgoing mail, as its scatter unit hands it to the driver.
pub(super) struct Mail<M> {
    /// The messages by the ring slot they are staged in (their lag), each list in
    /// ascending destination order; messages past the superstep horizon are dropped.
    pub(super) slots: Vec<Vec<(VertexId, M)>>,
    /// Distinct destinations, and those whose master is another machine.
    pub(super) routed: u64,
    pub(super) remote: u64,
}

impl<P: VertexProgram> Engine<'_, P> {
    /// One drain span: folds each run's messages to the span into its inbox slots, run
    /// by run — each run ascending, so its share is one binary search away — and
    /// returns the span's recipients, ascending.
    pub(super) fn drain_range(
        &self,
        runs: &[Vec<(VertexId, P::Message)>],
        unit: &mut DrainSpan<'_, P::Message>,
    ) -> Vec<VertexId> {
        let (lo, hi) = (unit.base, unit.base + unit.slots.len());
        for run in runs {
            debug_assert!(run.windows(2).all(|w| w[0].0 < w[1].0), "mail out of order");
            let start = run.partition_point(|(v, _)| (*v as usize) < lo);
            let len = run[start..].partition_point(|(v, _)| (*v as usize) < hi);
            for (vertex, message) in &run[start..start + len] {
                let slot = *vertex as usize - lo;
                deposit(&mut unit.slots[slot], message.clone(), |a, b| {
                    self.program.combine_messages(a, b)
                });
                mark(unit.marks, slot);
            }
        }
        let mut recipients = Vec::new();
        drain_marks(unit.marks, |slot| recipients.push((lo + slot) as VertexId));
        recipients
    }

    /// One gather batch on `machine`: partial accumulations over the locally-owned
    /// in-edges of the listed slots, in list order. Returns them plus the number of
    /// edge operations.
    pub(super) fn gather_batch(
        &self,
        machine: usize,
        cache: &[P::State],
        locals: &[u32],
    ) -> (Partials<P::Accum>, u64) {
        let shard = self.graph.shard(MachineId::from(machine));
        let placement = self.graph.placement();
        let mut out = Partials {
            list: Vec::with_capacity(locals.len()),
            bounds: None,
            remote: 0,
        };
        let mut ops = 0u64;
        for &local in locals {
            let vertex = shard.global_id(local);
            let dst_state = &cache[local as usize];
            let mut acc: Option<P::Accum> = None;
            for &src_local in shard.local_in_neighbors(local) {
                ops += 1;
                let src = shard.global_id(src_local);
                let src_state = &cache[src_local as usize];
                let src_degree = self.graph.out_degree(src);
                if let Some(partial) = self
                    .program
                    .gather_edge(src, vertex, src_state, dst_state, src_degree)
                {
                    deposit(&mut acc, partial, |a, b| self.program.combine_accums(a, b));
                }
            }
            if let Some(acc) = acc {
                out.remote += u64::from(placement.master(vertex).index() != machine);
                out.list.push((vertex, acc));
            }
        }
        if let (Some(&(first, _)), Some(&(last, _))) = (out.list.first(), out.list.last()) {
            out.bounds = Some((first, last));
        }
        (out, ops)
    }

    /// One frontier range's gather commit: folds the partials addressed to its
    /// vertices into its accumulator slots, machine by machine in ascending order — the
    /// order `gathered` is in. A machine's partials are ascending, so each batch's share
    /// of them is one binary search away.
    pub(super) fn commit_partials(
        &self,
        unit: &mut RangeSlots<'_, Option<P::Accum>>,
        gathered: &[Gathered<P::Accum>],
    ) {
        let (Some(&lo), Some(&last)) = (unit.vertices.first(), unit.vertices.last()) else {
            return;
        };
        for (_, (partials, _)) in gathered {
            match partials.bounds {
                Some((first, end)) if first <= last && end >= lo => {}
                _ => continue,
            }
            let list = &partials.list;
            let start = list.partition_point(|(v, _)| *v < lo);
            let len = list[start..].partition_point(|(v, _)| *v <= last);
            for (vertex, partial) in &list[start..start + len] {
                deposit(
                    &mut unit.slots[*vertex as usize - unit.base],
                    partial.clone(),
                    |a, b| self.program.combine_accums(a, b),
                );
            }
        }
    }

    /// One apply batch: runs `apply` for a key range of one machine's mastered active
    /// vertices, each against its own cache slot and combined mail, writes the fresh
    /// state back in place and appends the program's delta — its convergence magnitude
    /// for the executor's tolerance gate — to `deltas`, in task order.
    pub(super) fn apply_batch(
        &self,
        superstep: usize,
        cache: &mut [P::State],
        tasks: &[ApplyTask],
        inbox: &[Option<P::Message>],
        accums: &[Option<P::Accum>],
        deltas: &mut Vec<f64>,
    ) {
        for task in tasks {
            let slot = &mut cache[task.local as usize];
            let mut fresh = slot.clone();
            let mut task_rng = rng::derived_rng(&[
                self.config.seed,
                superstep as u64,
                task.vertex as u64,
                TAG_APPLY,
            ]);
            let mut ctx = ApplyContext {
                superstep,
                rng: &mut task_rng,
            };
            let v = task.vertex as usize;
            self.program.apply(
                &mut ctx,
                task.vertex,
                &mut fresh,
                accums[v].clone(),
                inbox[v].clone(),
            );
            deltas.push(self.program.delta(slot, &fresh));
            *slot = fresh;
        }
    }

    /// One frontier range's sync decision. It empties its vertices' mail slots, reads
    /// each vertex's delta where its master's apply list has it — the range's share of
    /// each list starts at its first vertex, the lists being ascending — and its fresh
    /// state from its master's cache, gates it, and decides which replicas are
    /// synchronized — and hence may scatter — queueing a refresh on the machine of every
    /// synchronized mirror and a scatter on the machine of every participating replica
    /// that owns an out-edge.
    pub(super) fn sync_range(
        &self,
        superstep: usize,
        unit: &mut SyncRange<'_, P>,
        apply_tasks: &[Vec<ApplyTask>],
        deltas: &[Vec<f64>],
        caches: &[Vec<P::State>],
        lane: &mut Lane<P::Message>,
    ) {
        let placement = self.graph.placement();
        let (seed, ps) = (self.config.seed, self.config.sync_probability);
        let first = unit.mail.vertices.first().copied().unwrap_or_default();
        let mut cursors: Vec<usize> = (apply_tasks.iter())
            .map(|tasks| tasks.partition_point(|t| t.vertex < first))
            .collect();
        // What the loop updates is kept off the unit and the lane, which share cache
        // lines with the ones another thread is working on: the counters are the
        // thread's own until the end.
        let mut syncs = vec![0u64; cursors.len()];
        let (mut skipped_syncs, mut skipped_scatters) = (0u64, 0u64);
        let mut participating = std::mem::take(&mut lane.participating);
        let Synced {
            refreshes,
            scatters,
            ..
        } = &mut unit.out;
        let mail = &mut unit.mail;
        for &v in mail.vertices {
            let slot = v as usize - mail.base;
            mail.slots[slot] = None;
            unit.accums[slot] = None;
            let (master, master_slot) = placement.master_slot(v);
            let task = cursors[master.index()];
            cursors[master.index()] += 1;
            let delta = deltas[master.index()][task];
            // The scatter gate: a vertex that is quiet or converged schedules no
            // synchronization and no scatter, so it falls out of the frontier. A
            // program that does not implement `delta` reports infinity, which no
            // finite tolerance gates.
            if delta <= self.config.tolerance {
                skipped_scatters += 1;
                continue;
            }
            participating.clear();
            for replica in placement.replicas_of(v) {
                // At `p_s = 1` the coin is heads without a hash: every mirror is synchronized.
                let synced = replica.machine == master
                    || rng::coin(
                        ps,
                        &[
                            seed,
                            superstep as u64,
                            v as u64,
                            replica.machine.index() as u64,
                            TAG_SYNC,
                        ],
                    );
                if !synced {
                    skipped_syncs += 1;
                    continue;
                }
                participating.push(replica);
                if replica.machine != master {
                    syncs[master.index()] += 1;
                }
            }

            // "At least one out-edge per node": if no participating replica owns an
            // out-edge while some replica does, force-sync one that does. It was a
            // skipped mirror: the master participates. Where it joins the list does not
            // matter: it is the one replica that scatters, and every replica's items go
            // to its own machine.
            if !participating.iter().any(|r| r.owns_out_edge) {
                let mut owners = placement.replicas_of(v).filter(|r| r.owns_out_edge);
                let count = owners.clone().count();
                let key = [seed, superstep as u64, v as u64, TAG_FORCE];
                if let Some(pick) = (count > 0)
                    .then(|| rng::pick_index(count, &key))
                    .and_then(|i| owners.nth(i))
                {
                    participating.push(pick);
                    if pick.machine != master {
                        syncs[master.index()] += 1;
                        skipped_syncs = skipped_syncs.saturating_sub(1);
                    }
                }
            }

            let fresh = &caches[master.index()][master_slot as usize];
            let scattering = participating.iter().filter(|r| r.owns_out_edge).count() as u32;
            let mut rank = 0;
            for replica in participating.iter() {
                let m = replica.machine.index();
                if replica.machine != master {
                    refreshes[m].push((replica.slot, fresh.clone()));
                }
                if replica.owns_out_edge {
                    scatters[m].push(ScatterItem {
                        slot: replica.slot,
                        rank,
                        scattering,
                    });
                    rank += 1;
                }
            }
        }
        lane.participating = participating;
        unit.out.syncs = syncs;
        unit.out.skipped_syncs = skipped_syncs;
        unit.out.skipped_scatters = skipped_scatters;
    }

    /// One machine's refresh, scatter and combine, in `lane`: writes its synchronized
    /// mirrors into its cache, which its replicas then scatter from in range order,
    /// folding each emission into the lane's outgoing slot for its destination as it is
    /// produced, and hands back the distinct destinations' combined messages in
    /// ascending order, each in the ring slot its channel's delay picks. Returns that
    /// mail plus the number of edge operations considered.
    pub(super) fn scatter_machine(
        &self,
        superstep: usize,
        unit: &mut MachineUnit<'_, P::State>,
        synced: &[Synced<P::State>],
        lane: &mut Lane<P::Message>,
    ) -> (Mail<P::Message>, u64) {
        let machine = unit.machine;
        let cache = &mut *unit.cache;
        for (slot, fresh) in synced.iter().flat_map(|range| &range.refreshes[machine]) {
            cache[*slot as usize] = fresh.clone();
        }

        let num_vertices = self.graph.num_vertices();
        if lane.outgoing.is_empty() {
            lane.outgoing.resize_with(num_vertices, || None);
            lane.marks.resize(num_vertices.div_ceil(64), 0);
        }
        let Lane {
            outgoing, marks, ..
        } = lane;
        let mut emit = |dst: VertexId, message: P::Message| {
            let d = dst as usize;
            deposit(&mut outgoing[d], message, |a, b| {
                self.program.combine_messages(a, b)
            });
            mark(marks, d);
        };
        let shard = self.graph.shard(MachineId::from(machine));
        let mut ops = 0u64;
        for item in synced.iter().flat_map(|range| &range.scatters[machine]) {
            let vertex = shard.global_id(item.slot);
            let local_neighbors = shard.local_out_neighbors(item.slot);
            ops += local_neighbors.len() as u64;
            let mut task_rng = rng::derived_rng(&[
                self.config.seed,
                superstep as u64,
                vertex as u64,
                machine as u64,
                TAG_SCATTER,
            ]);
            let mut ctx = ScatterContext {
                replica_rank: item.rank as usize,
                num_participating: item.scattering as usize,
                global_out_degree: self.graph.out_degree(vertex),
                sync_probability: self.config.sync_probability,
                rng: &mut task_rng,
            };
            self.program.scatter_replica(
                &mut ctx,
                vertex,
                &cache[item.slot as usize],
                local_neighbors,
                &mut emit,
            );
        }

        // Undelayed, every message lands in the ring's front slot.
        let distinct: u32 = marks.iter().map(|w| w.count_ones()).sum();
        let mut mail = Mail {
            slots: vec![Vec::with_capacity(distinct as usize)],
            routed: u64::from(distinct),
            remote: 0,
        };
        let placement = self.graph.placement();
        drain_marks(marks, |v| {
            let Some(message) = outgoing[v].take() else {
                return;
            };
            let vertex = v as VertexId;
            let master = placement.master(vertex).index();
            mail.remote += u64::from(master != machine);
            if let Some(lag) = self.visibility(superstep, machine, master) {
                if mail.slots.len() <= lag {
                    mail.slots.resize_with(lag + 1, Vec::new);
                }
                mail.slots[lag].push((vertex, message));
            }
        });
        (mail, ops)
    }
}
