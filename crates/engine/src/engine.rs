//! The superstep engine executing vertex programs over a partitioned graph —
//! synchronous (BSP) by default, bounded-staleness asynchronous when
//! [`EngineConfig::staleness`] is raised above zero.
//!
//! Each superstep proceeds through the phases described in [`crate::program`]:
//! gather → apply → sync → scatter → message routing. All cross-machine data movement
//! is accounted in [`RunMetrics`]; [`EngineConfig::sync_probability`] — the paper's
//! `p_s` — decides which mirrors receive fresh state and may therefore participate in
//! scatter.
//!
//! The engine only counts: the run loop hands each superstep's record, in order, to the
//! one clock of [`crate::metrics`], which prices it and whose per-machine progress the
//! loop traces as `watermark` events.
//!
//! A vertex is addressed one way. Its *mail* lives in per-run arrays indexed by global
//! vertex id (a vertex has one master, so nothing else is needed to address it),
//! allocated once: the combined incoming message and the combined gather accumulator,
//! occupied only where the frontier says and emptied after apply, and, one per pool
//! thread, the combined *outgoing* message of the machine that thread is scattering.
//! Its *state* lives in per-machine replica caches, and the slot of every replica —
//! with whether its machine owns an out-edge or an in-edge of the vertex — comes from
//! the table [`VertexPlacement`](crate::placement::VertexPlacement) recorded when the
//! graph was partitioned; nothing in a run searches for a vertex.
//!
//! Walkers headed to the same vertex travel as one message (the paper's first
//! optimization), and each machine combines its own mail, as GraphLab's machines do.
//! One machine's scatter is one work unit: the thread that runs it folds each emission,
//! where it is produced, into its lane's outgoing slot for the destination —
//! `combine(so far, next)` in production order, task order then edge order — and marks
//! the destination in the lane's bitmap; reading the bitmap back hands the combined
//! messages over in ascending destination order, with no copy and no sort.
//!
//! Inter-machine messages flow through a **bounded-staleness staging inbox**: a
//! message produced in superstep `t` on the channel from machine `a` to machine `b`
//! becomes visible at superstep `t + 1 + d`, where the delay `d ∈ [0, staleness]` is
//! a counter-mode hash of `(seed, t, a, b)` — a fixed, configuration-only function,
//! never a function of thread scheduling. Same-machine deliveries are always
//! immediate. A machine may therefore begin gather/apply for superstep `t` once its
//! inbox holds every message due by `t`, which by construction includes everything
//! produced at or before `t − 1 − staleness`: the engine's per-machine progress
//! watermark. The staging area is a ring of `staleness + 1` slots whose front is the
//! next visibility superstep. Messages are drained in `(visibility superstep,
//! production order)` order — production order being `(producing superstep, sending
//! machine, destination key)` — and folded into the inbox the same way, so results
//! are bit-identical across worker counts for any fixed staleness bound, and
//! `staleness = 0` reproduces the synchronous engine bit-for-bit.
//!
//! The superstep operates on an explicit frontier — the ascending set of vertices
//! activated by last superstep's messages. One gate shrinks it: after apply the
//! executor asks the program for `delta(old, new)` and drops any vertex whose delta is
//! at or below [`EngineConfig::tolerance`] out of the frontier, skipping its
//! synchronization and scatter entirely (the production PageRank idiom of gating
//! scatter on `delta > tolerance`). A vertex with nothing left to send reports a delta
//! of zero and is gated at every tolerance; `tolerance = 0` never gates a vertex that
//! still changes, and reproduces the ungated engine bit-for-bit.
//!
//! The driver thread walks no vertex, replica, partial or message. Every such loop runs
//! on a worker pool of [`EngineConfig::workers`] threads — never more than the host has
//! or the phase has units, each thread in its own lane — in one of three kinds of unit:
//!
//! * a **frontier range** of `RANGE_SIZE` consecutive frontier vertices, owning their
//!   slots of the inbox and the accumulators: it lists its vertices' gather and apply
//!   tasks per machine, folds the gather partials addressed to it machine by machine,
//!   and decides its vertices' synchronization, queueing a refresh for every
//!   synchronized mirror and a scatter for every scattering replica on the replica's
//!   machine. The drain runs on spans of vertex ids the same way, before the frontier
//!   is known;
//! * a **gather batch** of `BATCH_SIZE` consecutive tasks of one machine's gather
//!   list, which only reads the caches;
//! * a **machine**, owning its replica cache: in apply it updates its masters in
//!   place, `BATCH_SIZE` tasks to a span; in scatter it refreshes its synchronized
//!   mirrors and scatters its replicas, in range order.
//!
//! The driver only concatenates unit outputs in canonical (range, machine) order and
//! sums counters. Every fold keeps production order — a vertex's partials and mail are
//! folded machine by machine, each machine's list ascending — and every random decision
//! is a counter-mode hash of `(seed, superstep, vertex, machine)`, so any worker count
//! produces identical results for identical configurations.

// lint:allow-file(indexing, hot path: every index is a vertex id or a slot the placement table recorded at build time)

mod units;

use std::collections::VecDeque;
use std::time::Instant;

use frogwild_graph::{run_batched, worker_threads, VertexId};
use frogwild_obs::{span_meta, SpanKey, SpanSink, Tracer};

use crate::metrics::{ClusterClock, QueryCost, RunMetrics, SuperstepMetrics, MESSAGE_HEADER_BYTES};
use crate::placement::PartitionedGraph;
use crate::program::{EdgeDirection, VertexProgram};
use crate::rng;

use units::{
    drain_marks, mark, DrainSpan, Lane, MachineUnit, Partials, RangeSlots, SyncRange, Synced,
};

/// Domain-separation tags for the deterministic randomness streams.
const TAG_APPLY: u64 = 0xA111;
const TAG_SYNC: u64 = 0x5C2;
const TAG_SCATTER: u64 = 0x5CA3;
const TAG_FORCE: u64 = 0xF0C4;
const TAG_STALE: u64 = 0x57A1;

/// Trace-timeline lanes (the `lane` component of [`SpanKey`]) for the engine's
/// phases. Distinct lanes keep records of distinct sinks totally ordered even when
/// they share `(superstep, machine, batch)`.
const LANE_STEP: u16 = 0;
const LANE_GATHER: u16 = 1;
const LANE_APPLY: u16 = 2;
const LANE_SYNC: u16 = 3;
const LANE_SCATTER: u16 = 4;
const LANE_ROUTE: u16 = 5;
const LANE_WATERMARK: u16 = 6;

/// Tasks per gather unit, and per apply span: one contiguous key range of one machine's
/// list.
const BATCH_SIZE: usize = 512;

/// Frontier vertices per range unit, and the staged messages a drain unit is cut for.
const RANGE_SIZE: usize = 2048;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The paper's `p_s`, in `[0, 1]`: after apply, each mirror of an active vertex is
    /// synchronized — and may scatter — with this probability, independently, by a
    /// coin hashed from `(seed, superstep, vertex, machine)`. `1.0` (the default) is
    /// the unmodified engine: every mirror is synchronized and no coin is flipped.
    /// Below `1.0` the erasure model is the one the paper's experiments run, "at least
    /// one out-edge per node" (Appendix A, Example 10): when no synchronized replica of
    /// a vertex with out-edges owns one, one that does is force-synchronized, so
    /// walkers are never stranded. It thins *which* mirrors see an update;
    /// [`staleness`](EngineConfig::staleness) delays *when* a message is seen, and the
    /// two compose.
    pub sync_probability: f64,
    /// Maximum number of supersteps to execute.
    pub max_supersteps: usize,
    /// Seed for all engine randomness.
    pub seed: u64,
    /// Delta-gating threshold: after apply, a vertex whose `program.delta(old, new)`
    /// is `<= tolerance` skips synchronization and scatter and drops out of the
    /// frontier. `0.0` (the default) reproduces the ungated engine bit-for-bit for
    /// every shipped program. Must be a non-negative number.
    pub tolerance: f64,
    /// Threads serving each phase's work units: `1` (the default) runs everything
    /// on the calling thread, `n > 1` is a pool of `n` capped at the host's available
    /// parallelism, and `0` is a pool of exactly that. No phase starts more threads
    /// than it has units. The thread count is independent of the simulated machine
    /// count, and results are bit-identical for any value. The `frogwild` drivers set
    /// it from `ExecutionConfig::workers`, the one pool setting of every FrogWild and
    /// PageRank run.
    pub workers: usize,
    /// Bounded staleness for inter-machine messages, in supersteps. `0` (the default)
    /// is fully synchronous BSP: every message produced in superstep `t` is visible
    /// at `t + 1`, bit-for-bit identical to the barriered executor. With `staleness =
    /// s > 0`, each cross-machine channel's messages from superstep `t` arrive at a
    /// deterministically delayed superstep in `[t + 1, t + 1 + s]` (hash of `(seed,
    /// t, sender, receiver)`), machines overlap supersteps up to `s` deep, and the
    /// clock of [`crate::metrics`] prices the run on its pipelined per-machine
    /// watermark model instead of the barriered one. Results remain bit-identical
    /// across worker counts for any fixed `s`. Delays near the superstep horizon are
    /// clamped so late messages are still delivered in the final superstep rather than
    /// lost, so any `s` is meaningful, however large.
    pub staleness: usize,
    /// Structured-tracing handle. The default ([`Tracer::disabled`]) records nothing
    /// and costs nothing; an enabled tracer records per-phase spans keyed by
    /// `(superstep, machine, batch)` — tracing never changes results, only observes
    /// them.
    pub tracer: Tracer,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            sync_probability: 1.0,
            max_supersteps: 100,
            seed: 0xF20C,
            tolerance: 0.0,
            workers: 1,
            staleness: 0,
            tracer: Tracer::disabled(),
        }
    }
}

/// How the first superstep's active set is formed.
pub enum InitialActivation<M> {
    /// Every vertex is active in superstep 0 with no incoming message
    /// (how the standard PageRank starts).
    AllVertices,
    /// The listed messages are delivered before superstep 0; their recipients form the
    /// initial active set (how FrogWild seeds its walkers). Delivery is local — it does
    /// not count as network traffic, matching the paper's implementation where each
    /// machine births its own share of the walkers.
    Messages(Vec<(VertexId, M)>),
}

/// Result of an engine run.
pub struct EngineOutput<S> {
    /// Final state of every vertex, indexed by vertex id (taken from the masters).
    pub states: Vec<S>,
    /// Cost metrics of the run.
    pub metrics: RunMetrics,
}

/// A contiguous range of one machine's gather task list, executed as a unit by the
/// worker pool (the key-range scheduling idiom: each unit touches one shard only,
/// so workers never contend on a machine's data).
#[derive(Clone, Copy, Debug)]
struct BatchRange {
    machine: usize,
    start: usize,
    end: usize,
}

/// A gather batch as `gather_batches` hands it back: its key range, its partials and
/// its edge operations.
type Gathered<A> = (BatchRange, (Partials<A>, u64));

/// One active vertex's apply, queued on its master's machine: the vertex and its slot
/// in the master's cache.
#[derive(Clone, Copy)]
struct ApplyTask {
    local: u32,
    vertex: VertexId,
}

/// The combined messages staged for one visibility superstep: one run per (producing
/// superstep, sending machine), in that order, each ascending by destination — the
/// production order they are drained in.
struct StagedSlot<M> {
    runs: Vec<Vec<(VertexId, M)>>,
    /// Summed supersteps of delay relative to synchronous (next-superstep) delivery.
    lag: u64,
}

impl<M> StagedSlot<M> {
    fn len(&self) -> usize {
        self.runs.iter().map(Vec::len).sum()
    }
}

/// Everything a run mutates, allocated once by [`Engine::run`].
struct RunState<P: VertexProgram> {
    /// Replica state caches: `caches[machine][slot]`.
    caches: Vec<Vec<P::State>>,
    /// The combined incoming message of every vertex, by vertex id. Occupied only for
    /// vertices of the current frontier; emptied once apply has read it.
    inbox: Vec<Option<P::Message>>,
    /// The combined gather accumulator of every vertex, by vertex id. Filled by the
    /// gather commit and emptied once apply has read it, within one superstep.
    accums: Vec<Option<P::Accum>>,
    /// One bit per vertex: the inbox slots a drain has filled. Clear between drains.
    arrivals: Vec<u64>,
    /// One lane per pool thread: never more than the host has threads.
    lanes: Vec<Lane<P::Message>>,
    /// The bounded-staleness staging inbox, a ring whose front becomes visible at the
    /// next superstep to run: one slot per possible delay, and no delay outlasts the
    /// superstep horizon. The drain schedule is a pure function of the configuration —
    /// worker counts never reorder it.
    staged: VecDeque<StagedSlot<P::Message>>,
    /// Per-machine task lists of gather and apply: cleared every superstep, never
    /// reallocated.
    gather_tasks: Vec<Vec<u32>>,
    apply_tasks: Vec<Vec<ApplyTask>>,
}

/// Puts `value` into `slot`, folding it into what is already there (`combine(old,
/// value)`). Returns whether the slot was empty.
fn deposit<T>(slot: &mut Option<T>, value: T, combine: impl FnOnce(T, T) -> T) -> bool {
    match slot.take() {
        Some(existing) => {
            *slot = Some(combine(existing, value));
            false
        }
        None => {
            *slot = Some(value);
            true
        }
    }
}

/// The engine: a superstep scheduler over a partitioned graph. Borrows the graph;
/// owns the program and config. Each [`run`](Engine::run) allocates its replica
/// caches and vertex-indexed mailboxes once and then drives supersteps off the
/// frontier, synchronously or within the configured staleness bound.
pub struct Engine<'g, P: VertexProgram> {
    graph: &'g PartitionedGraph,
    program: P,
    config: EngineConfig,
}

impl<'g, P: VertexProgram> Engine<'g, P> {
    /// Creates an engine for `program` over `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`](frogwild_graph::Error::InvalidConfig) when
    /// [`EngineConfig::sync_probability`] is not a number in `[0, 1]`, or
    /// [`EngineConfig::tolerance`] is negative or not a number (the gate
    /// `delta <= tolerance` would then never close, however converged the run).
    pub fn new(
        graph: &'g PartitionedGraph,
        program: P,
        config: EngineConfig,
    ) -> Result<Self, frogwild_graph::Error> {
        let ps = config.sync_probability;
        if !(0.0..=1.0).contains(&ps) {
            return Err(frogwild_graph::Error::config(
                "EngineConfig",
                format!("synchronization probability {ps} outside [0, 1]"),
            ));
        }
        let tolerance = config.tolerance;
        if tolerance.is_nan() || tolerance < 0.0 {
            return Err(frogwild_graph::Error::config(
                "EngineConfig",
                format!("tolerance {tolerance} is not a non-negative number"),
            ));
        }
        Ok(Engine {
            graph,
            program,
            config,
        })
    }

    /// Runs the program to completion (quiescence or `max_supersteps`) and returns the
    /// final per-vertex states plus the run metrics.
    pub fn run(&self, initial: InitialActivation<P::Message>) -> EngineOutput<P::State> {
        let num_machines = self.graph.num_machines();
        let num_vertices = self.graph.num_vertices();
        // The pool is never wider than the host: a thread past its cores only adds a lane.
        let threads = match self.config.workers {
            1 => 1,
            workers => worker_threads(workers).min(worker_threads(0)),
        };

        let mut state: RunState<P> = RunState {
            caches: self
                .graph
                .shards()
                .iter()
                .map(|s| vec![P::State::default(); s.num_local_vertices()])
                .collect(),
            inbox: (0..num_vertices).map(|_| None).collect(),
            accums: (0..num_vertices).map(|_| None).collect(),
            arrivals: vec![0; num_vertices.div_ceil(64)],
            lanes: (0..threads).map(|_| Lane::default()).collect(),
            // `visibility` clamps every delivery to the superstep horizon, so a window
            // wider than the run needs no more slots than the run has supersteps.
            staged: (0..=self.config.staleness.min(self.config.max_supersteps))
                .map(|_| StagedSlot {
                    runs: Vec::new(),
                    lag: 0,
                })
                .collect(),
            gather_tasks: vec![Vec::new(); num_machines],
            apply_tasks: vec![Vec::new(); num_machines],
        };

        // Initial frontier.
        let mut frontier: Vec<VertexId> = match initial {
            InitialActivation::AllVertices => (0..num_vertices as VertexId).collect(),
            InitialActivation::Messages(messages) => {
                // Combine per destination, delivering to the masters locally, and read
                // the recipients back in ascending order.
                for (vertex, message) in messages {
                    let slot = &mut state.inbox[vertex as usize];
                    deposit(slot, message, |a, b| self.program.combine_messages(a, b));
                    mark(&mut state.arrivals, vertex as usize);
                }
                let mut recipients = Vec::new();
                drain_marks(&mut state.arrivals, |v| recipients.push(v as VertexId));
                recipients
            }
        };

        let staleness = self.config.staleness;
        let mut metrics = RunMetrics {
            replication_factor: self.graph.placement().replication_factor(),
            num_machines,
            staleness,
            ..RunMetrics::default()
        };
        let mut clock = ClusterClock::new(num_machines, staleness, &[]);

        // One sink for the serial driver loop; per-batch sinks are created inside
        // the worker closures. Inert (no allocation, no clock reads) when tracing
        // is disabled.
        let loop_sink = self.config.tracer.sink();

        let mut superstep = 0usize;
        while superstep < self.config.max_supersteps {
            if frontier.is_empty() {
                // Quiescent right now, but messages may still be in flight: jump to
                // the earliest staged visibility instead of idling through empty
                // supersteps. No staged work at all means the run is finished.
                match state.staged.iter().position(|s| !s.runs.is_empty()) {
                    Some(ahead) if superstep + ahead < self.config.max_supersteps => {
                        state.staged.rotate_left(ahead);
                        superstep += ahead;
                    }
                    _ => break,
                }
            }
            // Drain everything due at this superstep into the inbox; its recipients are
            // the frontier. Only superstep 0 starts with a frontier of its own, and
            // nothing is staged before it.
            let (drained, lag) = self.drain_staged(&mut state);
            if !drained.is_empty() {
                frontier = drained;
            }

            let mut step_span = loop_sink.span(
                span_meta!("superstep"),
                SpanKey::new(superstep as u64, 0, 0, LANE_STEP),
            );
            let start = Instant::now(); // lint:allow(timing, host-seconds telemetry only; never feeds results)
            let mut step = self.superstep(superstep, &frontier, &mut state, &loop_sink);
            step.cost.host_seconds = start.elapsed().as_secs_f64();
            step.cost.staleness_lag = lag;
            // Everything staged past the next superstep (the ring's front).
            step.cost.max_inbox_depth = (state.staged.iter().skip(1))
                .map(|slot| slot.len() as u64)
                .sum();

            clock.price(&mut step);
            if loop_sink.is_enabled() {
                // Per-machine watermark progress under staleness: when machine `m`
                // finishes this superstep on the pipelined simulated clock.
                for (m, &(finish, own)) in clock.progress().iter().enumerate() {
                    let (finish_us, own_us) = ((finish * 1e6) as u64, (own * 1e6) as u64);
                    loop_sink.event_with(
                        span_meta!("watermark"),
                        SpanKey::new(superstep as u64, m as u32 + 1, 0, LANE_WATERMARK),
                        &[("finish_us", finish_us), ("own_us", own_us)],
                    );
                }
            }

            let cost = &step.cost;
            step_span.counter("frontier", cost.active_vertices);
            step_span.counter("routed", cost.routed_messages);
            step_span.counter("inbox_depth", cost.max_inbox_depth);
            step_span.counter("staleness_lag", cost.staleness_lag);
            step_span.counter_seconds("simulated", cost.simulated_seconds);
            step_span.wall_counter_seconds("host", cost.host_seconds);
            if staleness > 0 {
                step_span
                    .counter_seconds("barrier_wait_avoided", cost.barrier_wait_avoided_seconds);
            }
            drop(step_span);

            metrics.supersteps.push(step);
            frontier.clear();
            superstep += 1;
        }
        metrics.machine_finish_seconds = clock.into_finish_seconds();

        // Collect final states from the masters.
        let placement = self.graph.placement();
        let states: Vec<P::State> = (0..num_vertices as VertexId)
            .map(|v| {
                let (master, local) = placement.master_slot(v);
                state.caches[master.index()][local as usize].clone()
            })
            .collect();

        EngineOutput { states, metrics }
    }

    /// The staging-ring slot of a message produced in `superstep` on the channel from
    /// machine `sender` to machine `receiver`: its delay past the next superstep, the
    /// ring's front. Synchronous runs and same-machine deliveries are never delayed;
    /// otherwise the delay is a counter-mode hash of `(seed, superstep, sender,
    /// receiver)` in `[0, staleness]`, clamped to the superstep horizon (late walkers
    /// are absorbed in the final superstep, not lost). `None` when even the next
    /// superstep lies past the horizon: the message can never be drained, and is
    /// dropped exactly like the synchronous engine drops the final superstep's.
    fn visibility(&self, superstep: usize, sender: usize, receiver: usize) -> Option<usize> {
        let latest = self.config.max_supersteps.checked_sub(superstep + 2)?;
        let staleness = self.config.staleness;
        if staleness == 0 || sender == receiver {
            return Some(0);
        }
        let delay = rng::pick_index(
            staleness.saturating_add(1),
            &[
                self.config.seed,
                superstep as u64,
                sender as u64,
                receiver as u64,
                TAG_STALE,
            ],
        );
        Some(delay.min(latest))
    }

    /// Drains the ring's front slot — every staged message due at the superstep about
    /// to run — into the inbox, in production order: the fixed drain schedule that
    /// makes bounded-staleness runs deterministic. Units are spans of whole bitmap words
    /// of vertex ids, cut for about `RANGE_SIZE` messages each; each folds the runs'
    /// messages to its span run by run. The emptied slot goes round to the back.
    /// Returns the recipients, ascending, and the summed delivery lag in supersteps.
    fn drain_staged(&self, state: &mut RunState<P>) -> (Vec<VertexId>, u64) {
        state.staged.rotate_left(1);
        let Some(slot) = state.staged.back_mut() else {
            return (Vec::new(), 0);
        };
        let lag = std::mem::take(&mut slot.lag);
        let runs = std::mem::take(&mut slot.runs);
        let due: usize = runs.iter().map(Vec::len).sum();
        if due == 0 {
            return (Vec::new(), lag);
        }
        let span = (state.inbox.len())
            .div_ceil(due.div_ceil(RANGE_SIZE))
            .next_multiple_of(64);
        let mut units: Vec<DrainSpan<'_, P::Message>> = (state.inbox.chunks_mut(span))
            .zip(state.arrivals.chunks_mut(span / 64))
            .enumerate()
            .map(|(i, (slots, marks))| DrainSpan {
                base: i * span,
                slots,
                marks,
            })
            .collect();
        let recipients = run_batched(&mut units, &mut state.lanes, |_, unit, _| {
            self.drain_range(&runs, unit)
        });
        (recipients.concat(), lag)
    }

    /// Executes one superstep: takes the frontier's mail, commits fresh states to
    /// the caches and stages the routed messages (in canonical production order) for
    /// delivery. Returns the superstep's record, counted but not priced; the caller
    /// adds what only the run loop knows (host time, staleness lag, inbox depth) and
    /// prices it on the run's clock.
    fn superstep(
        &self,
        superstep: usize,
        active: &[VertexId],
        state: &mut RunState<P>,
        sink: &SpanSink,
    ) -> SuperstepMetrics {
        let RunState {
            caches,
            inbox,
            accums,
            lanes,
            staged,
            gather_tasks,
            apply_tasks,
            ..
        } = state;
        let num_machines = self.graph.num_machines();
        let placement = self.graph.placement();
        let mut record = SuperstepMetrics {
            superstep,
            cost: QueryCost {
                replication_factor: placement.replication_factor(),
                supersteps: 1,
                active_vertices: active.len() as u64,
                ..QueryCost::default()
            },
            ops_per_machine: vec![0; num_machines],
            bytes_per_machine: vec![0; num_machines],
        };
        let header_bytes = MESSAGE_HEADER_BYTES;
        let step = superstep as u64;
        let ranges: Vec<&[VertexId]> = active.chunks(RANGE_SIZE).collect();
        let replicas = placement.replication_factor();

        // ------------------------------------------------------------------ gather --
        let mut gather_span =
            sink.span(span_meta!("gather"), SpanKey::new(step, 0, 0, LANE_GATHER));
        if self.program.gather_direction() == EdgeDirection::In {
            // Which slots must gather on each machine: the replicas owning an in-edge.
            self.machine_lists(&ranges, lanes, gather_tasks, replicas, |v, lists| {
                for replica in placement.replicas_of(v).filter(|r| r.owns_in_edge) {
                    lists[replica.machine.index()].push(replica.slot);
                }
            });
            let gathered = self.gather_batches(step, caches, gather_tasks, lanes);
            let accum_bytes = (self.program.accum_bytes() + header_bytes) as u64;
            for (BatchRange { machine, .. }, (partials, ops)) in &gathered {
                record.cost.gather_ops += ops;
                record.ops_per_machine[*machine] += ops;
                record.send(*machine, partials.remote, accum_bytes);
            }
            // Each range folds the partials addressed to its vertices, machine by
            // machine: the units are in (machine, range) order.
            let mut units = range_slots(&ranges, accums);
            run_batched(&mut units, lanes, |_, unit, _| {
                self.commit_partials(unit, &gathered);
            });
        }
        gather_span.counter("edge_ops", record.cost.gather_ops);
        drop(gather_span);

        // ------------------------------------------------------------------- apply --
        let mut apply_span = sink.span(span_meta!("apply"), SpanKey::new(step, 0, 0, LANE_APPLY));
        self.machine_lists(&ranges, lanes, apply_tasks, 1.0, |v, lists| {
            let (master, local) = placement.master_slot(v);
            lists[master.index()].push(ApplyTask { local, vertex: v });
        });
        // One unit per machine, owning its cache: it applies its masters in place, in
        // key ranges of `BATCH_SIZE` tasks that keep a span each, numbered across the
        // machines in (machine, range) order. Each apply reads only its own vertex's
        // slot and mail, so any worker count observes identical inputs.
        let mut batches = 0u32;
        let mut units: Vec<MachineUnit<'_, P::State>> = (caches.iter_mut().enumerate())
            .map(|(machine, cache)| {
                let tasks = apply_tasks[machine].len();
                let ordinal = batches + 1;
                batches += tasks.div_ceil(BATCH_SIZE) as u32;
                MachineUnit {
                    machine,
                    cache,
                    tasks: tasks as u64,
                    ordinal,
                }
            })
            .collect();
        let (mail_in, gathered_in) = (&inbox[..], &accums[..]);
        let deltas: Vec<Vec<f64>> = run_batched(&mut units, lanes, |_, unit, _| {
            let tasks = &apply_tasks[unit.machine];
            let mut deltas = Vec::with_capacity(tasks.len());
            for (ordinal, batch) in (unit.ordinal..).zip(tasks.chunks(BATCH_SIZE)) {
                let unit_sink = self.config.tracer.sink();
                let key = SpanKey::new(step, unit.machine as u32 + 1, ordinal, LANE_APPLY);
                let mut span = unit_sink.span(span_meta!("apply_batch"), key);
                let cache = &mut *unit.cache;
                self.apply_batch(superstep, cache, batch, mail_in, gathered_in, &mut deltas);
                span.counter("tasks", batch.len() as u64);
            }
            deltas
        });
        for (m, machine_deltas) in deltas.iter().enumerate() {
            record.cost.apply_ops += machine_deltas.len() as u64;
            record.ops_per_machine[m] += machine_deltas.len() as u64;
        }
        apply_span.counter("tasks", active.len() as u64);
        drop(apply_span);

        // ----------------------------------------------------------- sync decision --
        let mut sync_span = sink.span(span_meta!("sync"), SpanKey::new(step, 0, 0, LANE_SYNC));
        // A vertex that passes the gate queues about `mirrors · p_s` refreshes and, at
        // most, a scatter for its master and each of them.
        let (mirrors, ps) = (replicas - 1.0, self.config.sync_probability);
        let caches_in = &caches[..];
        let mut units: Vec<SyncRange<'_, P>> = (range_slots(&ranges, inbox))
            .into_iter()
            .zip(range_slots(&ranges, accums))
            .map(|(mail, gathered)| SyncRange {
                out: Synced::new(
                    num_machines,
                    room(mail.vertices, mirrors * ps, num_machines),
                    room(mail.vertices, 1.0 + mirrors * ps, num_machines),
                ),
                mail,
                accums: gathered.slots,
            })
            .collect();
        run_batched(&mut units, lanes, |_, unit, lane| {
            self.sync_range(superstep, unit, apply_tasks, &deltas, caches_in, lane);
        });
        let synced: Vec<Synced<P::State>> = units.into_iter().map(|unit| unit.out).collect();
        let state_bytes = (self.program.state_bytes() + header_bytes) as u64;
        let mut scatter_tasks = vec![0u64; num_machines];
        for range in &synced {
            record.cost.skipped_syncs += range.skipped_syncs;
            record.cost.skipped_scatters += range.skipped_scatters;
            for (m, &syncs) in range.syncs.iter().enumerate() {
                record.cost.sync_ops += syncs;
                record.ops_per_machine[m] += syncs;
                record.send(m, syncs, state_bytes);
            }
            for (m, total) in scatter_tasks.iter_mut().enumerate() {
                *total += range.scatters_on(m);
            }
        }
        sync_span.counter("sync_ops", record.cost.sync_ops);
        sync_span.counter("skipped_syncs", record.cost.skipped_syncs);
        sync_span.counter("skipped_scatters", record.cost.skipped_scatters);
        drop(sync_span);

        // ----------------------------------------------------------------- scatter --
        // One unit per machine: it refreshes its mirrors and then scatters and combines
        // that machine's mail in its own lane. Machines with something to scatter are
        // numbered for their spans in machine order.
        let mut scatter_span = sink.span(
            span_meta!("scatter"),
            SpanKey::new(step, 0, 0, LANE_SCATTER),
        );
        let mut scattering = 0u32;
        let mut units: Vec<MachineUnit<'_, P::State>> = (caches.iter_mut().enumerate())
            .map(|(machine, cache)| {
                let tasks = scatter_tasks[machine];
                scattering += u32::from(tasks > 0);
                MachineUnit {
                    machine,
                    cache,
                    tasks,
                    ordinal: scattering,
                }
            })
            .collect();
        let scattered = run_batched(&mut units, lanes, |_, unit, lane| {
            let unit_sink = self.config.tracer.sink();
            let mut span = (unit.tasks > 0).then(|| {
                let key = SpanKey::new(step, unit.machine as u32 + 1, unit.ordinal, LANE_SCATTER);
                unit_sink.span(span_meta!("scatter_batch"), key)
            });
            let result = self.scatter_machine(superstep, unit, &synced, lane);
            if let Some(span) = &mut span {
                span.counter("tasks", unit.tasks);
                span.counter("edge_ops", result.1);
            }
            result
        });
        scatter_span.counter("tasks", scatter_tasks.iter().sum::<u64>());
        drop(scatter_span);

        // ----------------------------------------------------------- route messages --
        // Stage each machine's combined messages, in machine order, and charge the sends.
        let mut route_span = sink.span(span_meta!("route"), SpanKey::new(step, 0, 0, LANE_ROUTE));
        let message_bytes = (self.program.message_bytes() + header_bytes) as u64;
        for (machine, (mail, ops)) in scattered.into_iter().enumerate() {
            record.cost.scatter_ops += ops;
            record.ops_per_machine[machine] += ops;
            record.cost.routed_messages += mail.routed;
            record.send(machine, mail.remote, message_bytes);
            for (lag, messages) in mail.slots.into_iter().enumerate() {
                if messages.is_empty() {
                    continue;
                }
                let slot = &mut staged[lag];
                slot.lag += (lag * messages.len()) as u64;
                slot.runs.push(messages);
            }
        }
        route_span.counter("messages", record.cost.routed_messages);
        drop(route_span);
        record
    }

    /// Builds one task list per machine from the frontier ranges: each range lists its
    /// vertices' tasks machine by machine, in frontier order, through `tasks_of`, and
    /// the ranges' lists — made with room for `per_vertex` tasks a vertex — are
    /// concatenated in range order.
    fn machine_lists<T, F>(
        &self,
        ranges: &[&[VertexId]],
        lanes: &mut [Lane<P::Message>],
        lists: &mut [Vec<T>],
        per_vertex: f64,
        tasks_of: F,
    ) where
        T: Copy + Send,
        F: Fn(VertexId, &mut [Vec<T>]) + Sync,
    {
        let machines = lists.len();
        let mut units: Vec<(&[VertexId], Vec<Vec<T>>)> = (ranges.iter())
            .map(|&vertices| {
                let room = room(vertices, per_vertex, machines);
                (vertices, units::machine_lists(machines, room))
            })
            .collect();
        run_batched(&mut units, lanes, |_, (vertices, out), _| {
            vertices.iter().for_each(|&v| tasks_of(v, out));
        });
        lists.iter_mut().for_each(Vec::clear);
        for (_, range) in &units {
            for (list, share) in lists.iter_mut().zip(range) {
                list.extend_from_slice(share);
            }
        }
    }

    /// Runs gather over its per-machine task lists: cuts each list into key ranges of
    /// `BATCH_SIZE` tasks and serves them through the worker pool, each under a unit
    /// span keyed `(step, machine + 1, unit + 1, LANE_GATHER)` that counts its tasks
    /// and edge operations. Returns every unit with its partials, in canonical
    /// (machine, range) order.
    fn gather_batches(
        &self,
        step: u64,
        caches: &[Vec<P::State>],
        tasks: &[Vec<u32>],
        lanes: &mut [Lane<P::Message>],
    ) -> Vec<Gathered<P::Accum>> {
        let mut units = Vec::new();
        for (machine, list) in tasks.iter().enumerate() {
            for start in (0..list.len()).step_by(BATCH_SIZE) {
                let end = (start + BATCH_SIZE).min(list.len());
                units.push(BatchRange {
                    machine,
                    start,
                    end,
                });
            }
        }
        let results = run_batched(&mut units, lanes, |i, u, _| {
            let unit_sink = self.config.tracer.sink();
            let key = SpanKey::new(step, u.machine as u32 + 1, i as u32 + 1, LANE_GATHER);
            let mut span = unit_sink.span(span_meta!("gather_batch"), key);
            let locals = &tasks[u.machine][u.start..u.end];
            let result = self.gather_batch(u.machine, &caches[u.machine], locals);
            span.counter("tasks", locals.len() as u64);
            span.counter("edge_ops", result.1);
            result
        });
        units.into_iter().zip(results).collect()
    }
}

/// The room a range's per-machine output lists are made with: their expected length,
/// at `per_vertex` entries a vertex of the range spread evenly over the machines.
fn room(vertices: &[VertexId], per_vertex: f64, machines: usize) -> usize {
    (vertices.len() as f64 * per_vertex / machines as f64).ceil() as usize
}

/// One unit per frontier range over the vertex-indexed `slots`: they are cut at the
/// first vertex of every range after the first, so that unit `r` holds every slot of
/// range `r`'s vertices.
fn range_slots<'a, T>(ranges: &[&'a [VertexId]], slots: &'a mut [T]) -> Vec<RangeSlots<'a, T>> {
    let mut units = Vec::with_capacity(ranges.len());
    let (mut base, mut rest) = (0usize, slots);
    for (i, &vertices) in ranges.iter().enumerate() {
        let end = ranges
            .get(i + 1)
            .map_or(base + rest.len(), |next| next[0] as usize);
        let (slots, tail) = std::mem::take(&mut rest).split_at_mut(end - base);
        units.push(RangeSlots {
            vertices,
            base,
            slots,
        });
        (base, rest) = (end, tail);
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::MachineId;
    use crate::partition::PartitionerKind;
    use crate::program::{ApplyContext, ScatterContext};
    use frogwild_graph::generators::simple::{cycle, star};
    use frogwild_graph::generators::{rmat, RmatParams};
    use frogwild_graph::DiGraph;
    use frogwild_obs::TraceConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A token-passing program: each vertex forwards the tokens it received to its
    /// out-neighbors; at the final step tokens are absorbed into `arrived`. On any
    /// graph with full out-edge coverage the total arrived count equals the number of
    /// tokens injected, which pins down the engine's message routing, splitting and
    /// activation logic.
    struct TokenForward {
        steps: usize,
    }

    #[derive(Clone, Default, Debug, PartialEq)]
    struct TokenState {
        /// Tokens this vertex will forward during the current superstep's scatter.
        forwarding: u64,
        /// Tokens absorbed at the final step.
        arrived: u64,
    }

    impl VertexProgram for TokenForward {
        type State = TokenState;
        type Message = u64;
        type Accum = ();

        fn combine_messages(&self, a: u64, b: u64) -> u64 {
            a + b
        }
        fn combine_accums(&self, _a: (), _b: ()) {}

        fn apply(
            &self,
            ctx: &mut ApplyContext<'_>,
            _vertex: VertexId,
            state: &mut TokenState,
            _accum: Option<()>,
            message: Option<u64>,
        ) {
            let incoming = message.unwrap_or(0);
            if ctx.superstep + 1 >= self.steps {
                state.arrived += incoming;
                state.forwarding = 0;
            } else {
                state.forwarding = incoming;
            }
        }

        // Gates a vertex with nothing to forward at tolerance 0 (`x as f64 <= 0` iff
        // `x == 0`), and lets tests gate away low-token vertices with a positive one.
        fn delta(&self, _old: &TokenState, new: &TokenState) -> f64 {
            new.forwarding as f64
        }

        fn scatter_replica(
            &self,
            ctx: &mut ScatterContext<'_>,
            _vertex: VertexId,
            state: &TokenState,
            local_out_neighbors: &[VertexId],
            emit: &mut dyn FnMut(VertexId, u64),
        ) {
            // Split the tokens across the participating replicas, then evenly across
            // this replica's local out-edges (remainder to the first edges).
            if local_out_neighbors.is_empty() {
                return;
            }
            let share = split_share(state.forwarding, ctx.num_participating, ctx.replica_rank);
            if share == 0 {
                return;
            }
            let per_edge = share / local_out_neighbors.len() as u64;
            let mut remainder = share % local_out_neighbors.len() as u64;
            for &dst in local_out_neighbors {
                let mut amount = per_edge;
                if remainder > 0 {
                    amount += 1;
                    remainder -= 1;
                }
                if amount > 0 {
                    emit(dst, amount);
                }
            }
        }
    }

    /// Evenly splits `total` across `parts`, returning the share of `index`.
    fn split_share(total: u64, parts: usize, index: usize) -> u64 {
        let parts = parts as u64;
        let base = total / parts;
        let extra = total % parts;
        base + if (index as u64) < extra { 1 } else { 0 }
    }

    /// `P` with a gather phase: every in-edge of an active vertex contributes a value
    /// naming the edge, combined order-*sensitively* and chained into a digest kept
    /// beside `P`'s state, so a gather batch that is dropped, repeated or re-assembled
    /// out of place shows in the states. `P` itself runs unchanged.
    struct Gathering<P>(P);

    #[derive(Clone, Default, Debug, PartialEq)]
    struct Gathered<S> {
        inner: S,
        digest: u64,
    }

    impl<P: VertexProgram> VertexProgram for Gathering<P> {
        type State = Gathered<P::State>;
        type Message = P::Message;
        type Accum = u64;

        fn combine_messages(&self, a: P::Message, b: P::Message) -> P::Message {
            self.0.combine_messages(a, b)
        }
        fn combine_accums(&self, a: u64, b: u64) -> u64 {
            ordered_combine(a, b)
        }
        fn gather_direction(&self) -> EdgeDirection {
            EdgeDirection::In
        }
        fn gather_edge(
            &self,
            src: VertexId,
            dst: VertexId,
            _src_state: &Self::State,
            _dst_state: &Self::State,
            _src_out_degree: u32,
        ) -> Option<u64> {
            Some(u64::from(src) << 32 | u64::from(dst))
        }
        fn apply(
            &self,
            ctx: &mut ApplyContext<'_>,
            vertex: VertexId,
            state: &mut Self::State,
            accum: Option<u64>,
            message: Option<P::Message>,
        ) {
            state.digest = ordered_apply(state.digest, accum.unwrap_or(0));
            self.0.apply(ctx, vertex, &mut state.inner, None, message);
        }
        fn delta(&self, old: &Self::State, new: &Self::State) -> f64 {
            self.0.delta(&old.inner, &new.inner)
        }
        fn scatter_replica(
            &self,
            ctx: &mut ScatterContext<'_>,
            vertex: VertexId,
            state: &Self::State,
            local_out_neighbors: &[VertexId],
            emit: &mut dyn FnMut(VertexId, P::Message),
        ) {
            self.0
                .scatter_replica(ctx, vertex, &state.inner, local_out_neighbors, emit);
        }
    }

    /// What gives a sweep over worker counts something to schedule differently: in the
    /// run `tracer` recorded, some machine's gather and apply task lists of some
    /// superstep were each cut into at least three batches, while every machine's
    /// scatter list was one unit — so a machine with more than `BATCH_SIZE` scatter
    /// tasks was one unit too — keyed `(superstep, machine + 1, ordinal among the
    /// superstep's non-empty units + 1)`.
    fn assert_every_phase_is_cut_into_its_units(tracer: &Tracer) {
        let timeline = tracer.finish();
        // Unit spans are keyed (superstep, machine + 1, unit + 1).
        let units = |phase: &str| {
            let mut units = std::collections::BTreeMap::<(u64, u32), Vec<u32>>::new();
            for entry in timeline.entries().iter().filter(|e| e.name == phase) {
                let tasks = entry.counters.iter().find(|(name, _)| *name == "tasks");
                assert!(tasks.is_some_and(|&(_, t)| t > 0), "{phase}: an empty unit");
                let key = (entry.key.seq, entry.key.pid);
                units.entry(key).or_default().push(entry.key.tid);
            }
            units
        };
        for phase in ["gather_batch", "apply_batch"] {
            let most = units(phase).values().map(Vec::len).max().unwrap_or(0);
            assert!(
                most >= 3,
                "{phase}: no task list spans more than {most} batches"
            );
        }
        let scatter = units("scatter_batch");
        let mut ordinals = std::collections::BTreeMap::<u64, Vec<u32>>::new();
        for (&(step, machine), tids) in &scatter {
            assert_eq!(
                tids.len(),
                1,
                "superstep {step}, machine {machine}: {tids:?}"
            );
            ordinals.entry(step).or_default().push(tids[0]);
        }
        for (step, tids) in ordinals {
            let expected: Vec<u32> = (1..=tids.len() as u32).collect();
            assert_eq!(tids, expected, "superstep {step}");
        }
        let largest = (timeline.entries().iter())
            .filter(|e| e.name == "scatter_batch")
            .flat_map(|e| e.counters.iter().filter(|(name, _)| *name == "tasks"))
            .map(|&(_, tasks)| tasks)
            .max();
        assert!(largest > Some(BATCH_SIZE as u64), "{largest:?}");
    }

    fn partitioned(graph: &DiGraph, machines: usize) -> PartitionedGraph {
        PartitionedGraph::build(graph, machines, PartitionerKind::Oblivious, 99)
    }

    /// Two runs went through the same supersteps with bit-identical records: every
    /// counter and simulated second, and the per-machine work and traffic.
    fn assert_same_supersteps(a: &RunMetrics, b: &RunMetrics, label: &str) {
        assert_eq!(a.supersteps.len(), b.supersteps.len(), "{label}");
        for (a, b) in a.supersteps.iter().zip(&b.supersteps) {
            assert_eq!(a.superstep, b.superstep, "{label}");
            assert_eq!(a.cost, b.cost, "{label}");
            assert_eq!(a.ops_per_machine, b.ops_per_machine, "{label}");
            assert_eq!(a.bytes_per_machine, b.bytes_per_machine, "{label}");
        }
    }

    /// The operations the CPU model prices: gather + apply + scatter.
    fn work_ops(cost: &QueryCost) -> u64 {
        cost.gather_ops + cost.apply_ops + cost.scatter_ops
    }

    /// Vertices of the R-MAT graphs the worker-count sweeps run on: enough that, over
    /// five or six machines, what those tests inject keeps more than two full batches
    /// of vertices a machine busy in every phase.
    const N_BATCHED: usize = 12_000;

    fn total_tokens(states: &[TokenState]) -> u64 {
        states.iter().map(|s| s.arrived).sum()
    }

    #[test]
    fn tokens_are_conserved_on_a_cycle() {
        let graph = cycle(50);
        let pg = partitioned(&graph, 4);
        let engine = Engine::new(
            &pg,
            TokenForward { steps: 10 },
            EngineConfig {
                max_supersteps: 10,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let initial = vec![(0u32, 1000u64), (25u32, 500u64)];
        let out = engine.run(InitialActivation::Messages(initial));
        assert_eq!(total_tokens(&out.states), 1500);
        assert_eq!(out.metrics.supersteps.len(), 10);
    }

    #[test]
    fn tokens_move_along_the_cycle() {
        let graph = cycle(10);
        let pg = partitioned(&graph, 2);
        let engine = Engine::new(
            &pg,
            TokenForward { steps: 3 },
            EngineConfig {
                max_supersteps: 3,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let out = engine.run(InitialActivation::Messages(vec![(0u32, 7u64)]));
        // The tokens are injected at vertex 0, forwarded twice, and absorbed at the
        // final superstep two hops downstream.
        assert_eq!(out.states[2].arrived, 7);
        assert_eq!(total_tokens(&out.states), 7);
    }

    #[test]
    fn engine_stops_when_quiescent() {
        let graph = cycle(10);
        let pg = partitioned(&graph, 2);
        let engine = Engine::new(
            &pg,
            TokenForward { steps: 2 },
            EngineConfig {
                max_supersteps: 50,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let out = engine.run(InitialActivation::Messages(vec![(0u32, 5u64)]));
        // steps=2 means the program stops scattering after superstep 1; one more
        // superstep delivers the final messages and then the engine finds no work.
        assert!(out.metrics.supersteps.len() <= 3);
    }

    #[test]
    fn no_initial_messages_means_no_work() {
        let graph = cycle(10);
        let pg = partitioned(&graph, 2);
        let engine = Engine::new(&pg, TokenForward { steps: 5 }, EngineConfig::default()).unwrap();
        let out = engine.run(InitialActivation::Messages(vec![]));
        assert_eq!(out.metrics.supersteps.len(), 0);
        assert_eq!(total_tokens(&out.states), 0);
    }

    #[test]
    fn single_machine_run_has_no_network_traffic() {
        let graph = cycle(30);
        let pg = partitioned(&graph, 1);
        let engine = Engine::new(
            &pg,
            TokenForward { steps: 5 },
            EngineConfig {
                max_supersteps: 5,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let out = engine.run(InitialActivation::Messages(vec![(0u32, 100u64)]));
        assert_eq!(out.metrics.totals().network_bytes, 0);
        assert_eq!(total_tokens(&out.states), 100);
    }

    #[test]
    fn multi_machine_run_counts_network_traffic() {
        let graph = cycle(30);
        let pg = partitioned(&graph, 6);
        let engine = Engine::new(
            &pg,
            TokenForward { steps: 5 },
            EngineConfig {
                max_supersteps: 5,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let out = engine.run(InitialActivation::Messages(vec![(0u32, 100u64)]));
        assert!(out.metrics.totals().network_bytes > 0);
        assert!(out.metrics.totals().network_messages > 0);
        assert!(out.metrics.totals().simulated_seconds > 0.0);
    }

    #[test]
    fn parallel_and_serial_execution_agree() {
        let mut rng = SmallRng::seed_from_u64(5);
        let graph = rmat(300, RmatParams::default(), &mut rng);
        let pg = partitioned(&graph, 4);
        let run = |workers: usize| {
            let engine = Engine::new(
                &pg,
                TokenForward { steps: 6 },
                EngineConfig {
                    max_supersteps: 6,
                    workers,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            engine.run(InitialActivation::Messages(vec![
                (0u32, 5000u64),
                (7u32, 300u64),
            ]))
        };
        let serial = run(1);
        let parallel = run(0); // a pool sized from the host
        let serial_tokens: Vec<u64> = serial
            .states
            .iter()
            .map(|s| s.arrived + s.forwarding)
            .collect();
        let parallel_tokens: Vec<u64> = parallel
            .states
            .iter()
            .map(|s| s.arrived + s.forwarding)
            .collect();
        assert_eq!(serial_tokens, parallel_tokens);
        assert_eq!(
            serial.metrics.totals().network_bytes,
            parallel.metrics.totals().network_bytes
        );
        assert_eq!(
            work_ops(&serial.metrics.totals()),
            work_ops(&parallel.metrics.totals())
        );
    }

    #[test]
    fn partial_sync_reduces_synchronizations_and_traffic() {
        let graph = star(400);
        let pg = partitioned(&graph, 8);
        let run = |sync_probability: f64| {
            let engine = Engine::new(
                &pg,
                TokenForward { steps: 4 },
                EngineConfig {
                    max_supersteps: 4,
                    sync_probability,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            engine.run(InitialActivation::Messages(vec![(0u32, 10_000u64)]))
        };
        let full = run(1.0);
        let partial = run(0.1);
        assert!(partial.metrics.totals().sync_ops < full.metrics.totals().sync_ops);
        assert!(partial.metrics.totals().network_bytes < full.metrics.totals().network_bytes);
        assert_eq!(full.metrics.totals().skipped_syncs, 0);
        assert!(partial.metrics.totals().skipped_syncs > 0);
        // tokens are conserved regardless of the sync probability
        assert_eq!(total_tokens(&full.states), 10_000);
        assert_eq!(total_tokens(&partial.states), 10_000);
    }

    #[test]
    fn full_sync_flips_no_coin_and_just_below_it_matches_the_at_least_one_out_edge_model() {
        let mut rng = SmallRng::seed_from_u64(61);
        let graph = rmat(600, RmatParams::default(), &mut rng);
        let pg = partitioned(&graph, 8);
        let run = |sync_probability: f64| {
            let engine = Engine::new(
                &pg,
                TokenForward { steps: 5 },
                EngineConfig {
                    max_supersteps: 5,
                    sync_probability,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            let out = engine.run(InitialActivation::Messages(vec![
                (0u32, 50_000u64),
                (3u32, 1_000u64),
            ]));
            assert_eq!(total_tokens(&out.states), 51_000);
            let totals = out.metrics.totals();
            (
                totals.sync_ops,
                totals.skipped_syncs,
                totals.network_bytes,
                totals.network_messages,
                totals.routed_messages,
                totals.scatter_ops,
            )
        };
        // Pinned on the commit before `SyncPolicy` was deleted, from `SyncPolicy::Full`
        // and `SyncPolicy::AtLeastOneOutEdge { ps: 0.999 }`. At 1.0 every mirror is
        // synchronized, so no sync is skipped; at 0.999 four coins of 2 694 come up
        // tails, and every walker still finds an out-edge.
        assert_eq!(run(1.0), (2_694, 0, 130_572, 5_451, 4_171, 28_161));
        assert_eq!(run(0.999), (2_690, 4, 130_460, 5_447, 4_171, 28_145));
    }

    #[test]
    fn sync_probabilities_that_are_not_probabilities_are_a_typed_error() {
        let pg = partitioned(&cycle(6), 2);
        for bad in [f64::NAN, -0.1, 1.5] {
            let config = EngineConfig {
                sync_probability: bad,
                ..EngineConfig::default()
            };
            assert!(
                matches!(
                    Engine::new(&pg, TokenForward { steps: 1 }, config),
                    Err(frogwild_graph::Error::InvalidConfig { .. })
                ),
                "sync_probability {bad} accepted"
            );
        }
        for good in [0.0, 0.5, 1.0] {
            let config = EngineConfig {
                sync_probability: good,
                ..EngineConfig::default()
            };
            assert!(Engine::new(&pg, TokenForward { steps: 1 }, config).is_ok());
        }
    }

    #[test]
    fn tolerances_the_gate_cannot_compare_against_are_a_typed_error() {
        let pg = partitioned(&cycle(6), 2);
        for (tolerance, valid) in [(f64::NAN, false), (-1.0, false), (0.0, true), (1e-3, true)] {
            let config = EngineConfig {
                tolerance,
                ..EngineConfig::default()
            };
            let built = Engine::new(&pg, TokenForward { steps: 1 }, config);
            assert_eq!(built.is_ok(), valid, "tolerance {tolerance}");
            let typed = matches!(built, Err(frogwild_graph::Error::InvalidConfig { .. }));
            assert!(valid || typed, "tolerance {tolerance}");
        }
    }

    #[test]
    fn all_vertices_activation_applies_everyone() {
        let graph = cycle(12);
        let pg = partitioned(&graph, 3);
        let engine = Engine::new(
            &pg,
            TokenForward { steps: 1 },
            EngineConfig {
                max_supersteps: 1,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let out = engine.run(InitialActivation::AllVertices);
        assert_eq!(out.metrics.supersteps[0].cost.active_vertices, 12);
        assert_eq!(out.metrics.supersteps[0].cost.apply_ops, 12);
    }

    #[test]
    fn frontier_sorts_dedups_and_reports_size() {
        // The bitmap a frontier is read back from: ascending, deduplicated, and clear
        // afterwards.
        let mut marks = vec![0u64; 4];
        for v in [5, 1, 3, 1, 5, 200, 64, 63] {
            mark(&mut marks, v);
        }
        let mut frontier = Vec::new();
        drain_marks(&mut marks, |v| frontier.push(v));
        assert_eq!(frontier, [1, 3, 5, 63, 64, 200]);
        assert!(marks.iter().all(|&w| w == 0));
        // A run's first frontier: the recipients of the initial messages, each once.
        let pg = partitioned(&cycle(10), 2);
        let engine = Engine::new(
            &pg,
            TokenForward { steps: 1 },
            EngineConfig {
                max_supersteps: 1,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let initial = vec![(5u32, 1u64), (1, 2), (3, 4), (1, 8), (5, 16)];
        let out = engine.run(InitialActivation::Messages(initial));
        assert_eq!(out.metrics.supersteps[0].cost.active_vertices, 3);
        let arrived: Vec<u64> = out.states.iter().map(|s| s.arrived).collect();
        assert_eq!(arrived, [0, 10, 0, 4, 0, 17, 0, 0, 0, 0]);
    }

    #[test]
    fn zero_tolerance_matches_the_ungated_run_exactly() {
        let mut rng = SmallRng::seed_from_u64(11);
        let graph = rmat(400, RmatParams::default(), &mut rng);
        let pg = partitioned(&graph, 5);
        let run = |tolerance: f64| {
            let engine = Engine::new(
                &pg,
                TokenForward { steps: 5 },
                EngineConfig {
                    max_supersteps: 5,
                    tolerance,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            engine.run(InitialActivation::Messages(vec![(0u32, 9000u64)]))
        };
        let gated = run(0.0);
        let baseline = run(0.0);
        let tokens = |out: &EngineOutput<TokenState>| {
            out.states
                .iter()
                .map(|s| (s.arrived, s.forwarding))
                .collect::<Vec<_>>()
        };
        assert_eq!(tokens(&gated), tokens(&baseline));
        assert_eq!(
            gated.metrics.totals().network_bytes,
            baseline.metrics.totals().network_bytes
        );
        assert_eq!(
            work_ops(&gated.metrics.totals()),
            work_ops(&baseline.metrics.totals())
        );
        assert_eq!(
            gated.metrics.totals().routed_messages,
            baseline.metrics.totals().routed_messages
        );
    }

    #[test]
    fn positive_tolerance_gates_low_delta_vertices_out_of_the_frontier() {
        let mut rng = SmallRng::seed_from_u64(23);
        let graph = rmat(400, RmatParams::default(), &mut rng);
        let pg = partitioned(&graph, 4);
        let run = |tolerance: f64| {
            let engine = Engine::new(
                &pg,
                TokenForward { steps: 8 },
                EngineConfig {
                    max_supersteps: 8,
                    tolerance,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            engine.run(InitialActivation::Messages(vec![(0u32, 2_000u64)]))
        };
        let ungated = run(0.0);
        let gated = run(3.0); // vertices forwarding <= 3 tokens go quiet
        assert!(
            gated.metrics.totals().skipped_scatters > ungated.metrics.totals().skipped_scatters,
            "gated {} vs ungated {}",
            gated.metrics.totals().skipped_scatters,
            ungated.metrics.totals().skipped_scatters
        );
        assert!(gated.metrics.totals().scatter_ops < ungated.metrics.totals().scatter_ops);
        assert!(gated.metrics.totals().routed_messages < ungated.metrics.totals().routed_messages);
        // Gated vertices can still be re-activated by messages from elsewhere, so the
        // frontier never grows but need not shrink strictly on a dense graph.
        assert!(gated.metrics.totals().active_vertices <= ungated.metrics.totals().active_vertices);
        // A positive tolerance is an approximation knob: small parcels stop moving,
        // so the gated run delivers at most what the ungated run delivers.
        assert!(total_tokens(&gated.states) <= total_tokens(&ungated.states));
        assert!(total_tokens(&gated.states) > 0);
    }

    #[test]
    fn worker_pool_and_batch_size_never_change_results() {
        let mut rng = SmallRng::seed_from_u64(31);
        let graph = rmat(N_BATCHED, RmatParams::default(), &mut rng);
        let pg = partitioned(&graph, 6);
        let run = |workers: usize, tracer: Tracer| {
            let engine = Engine::new(
                &pg,
                Gathering(TokenForward { steps: 6 }),
                EngineConfig {
                    max_supersteps: 6,
                    sync_probability: 0.5,
                    workers,
                    tracer,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            engine.run(InitialActivation::Messages(vec![
                (0u32, 400_000u64),
                (3u32, 10_000u64),
            ]))
        };
        let tracer = Tracer::new(TraceConfig::enabled());
        let baseline = run(1, tracer.clone());
        assert_every_phase_is_cut_into_its_units(&tracer);
        for workers in [2, 3, 8] {
            let other = run(workers, Tracer::disabled());
            assert_eq!(baseline.states, other.states, "workers={workers}");
            assert_eq!(
                baseline.metrics.totals().network_bytes,
                other.metrics.totals().network_bytes
            );
            assert_eq!(
                work_ops(&baseline.metrics.totals()),
                work_ops(&other.metrics.totals())
            );
            assert_eq!(
                baseline.metrics.totals().routed_messages,
                other.metrics.totals().routed_messages
            );
        }
    }

    #[test]
    fn a_machine_scatters_its_whole_list_as_one_unit_at_any_worker_count() {
        let mut rng = SmallRng::seed_from_u64(59);
        let graph = rmat(N_BATCHED, RmatParams::default(), &mut rng);
        let pg = partitioned(&graph, 3);
        // Every vertex applies and forwards in superstep 0 and every mirror is
        // synchronized, so a machine scatters each replica that owns an out-edge: its
        // share of the superstep's scatter operations is the edges it owns.
        let shards = pg.shards();
        let shares: Vec<u64> = shards.iter().map(|s| s.num_local_edges() as u64).collect();
        let tasks: Vec<u64> = (shards.iter())
            .map(|s| {
                let owns_an_out_edge = |&local: &u32| s.local_out_degree(local) > 0;
                (0..s.num_local_vertices() as u32)
                    .filter(owns_an_out_edge)
                    .count() as u64
            })
            .collect();
        assert!(tasks.iter().all(|&t| t > BATCH_SIZE as u64), "{tasks:?}");
        for workers in [1, 2, 8] {
            let tracer = Tracer::new(TraceConfig::enabled());
            let engine = Engine::new(
                &pg,
                OrderedMail {
                    steps: 2,
                    descending: false,
                },
                EngineConfig {
                    max_supersteps: 2,
                    workers,
                    tracer: tracer.clone(),
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            let out = engine.run(InitialActivation::AllVertices);
            let first = &out.metrics.supersteps[0].cost;
            assert_eq!(
                first.scatter_ops,
                shares.iter().sum::<u64>(),
                "workers {workers}"
            );
            // One `scatter_batch` span per machine, keyed (0, machine + 1, machine + 1),
            // counting the machine's whole task list and its whole share.
            let timeline = tracer.finish();
            let units: Vec<(u32, u32, u64, u64)> = (timeline.entries().iter())
                .filter(|e| e.name == "scatter_batch" && e.key.seq == 0)
                .map(|e| {
                    let counter = |name: &str| {
                        let found = e.counters.iter().find(|(n, _)| *n == name);
                        found.map_or(0, |&(_, value)| value)
                    };
                    (e.key.pid, e.key.tid, counter("tasks"), counter("edge_ops"))
                })
                .collect();
            let expected: Vec<(u32, u32, u64, u64)> = (0..shards.len())
                .map(|m| (m as u32 + 1, m as u32 + 1, tasks[m], shares[m]))
                .collect();
            assert_eq!(units, expected, "workers {workers}");
        }
    }

    #[test]
    fn staleness_zero_runs_are_bit_identical_to_the_default_config() {
        let mut rng = SmallRng::seed_from_u64(17);
        let graph = rmat(400, RmatParams::default(), &mut rng);
        let pg = partitioned(&graph, 5);
        let run = |staleness: usize| {
            let engine = Engine::new(
                &pg,
                TokenForward { steps: 6 },
                EngineConfig {
                    max_supersteps: 6,
                    sync_probability: 0.6,
                    staleness,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            engine.run(InitialActivation::Messages(vec![(0u32, 8_000u64)]))
        };
        let sync = run(0);
        let explicit = run(0);
        let tokens = |out: &EngineOutput<TokenState>| {
            out.states
                .iter()
                .map(|s| (s.arrived, s.forwarding))
                .collect::<Vec<_>>()
        };
        assert_eq!(tokens(&sync), tokens(&explicit));
        assert_eq!(
            sync.metrics.totals().network_bytes,
            explicit.metrics.totals().network_bytes
        );
        assert_eq!(sync.metrics.totals().staleness_lag, 0);
        assert_eq!(sync.metrics.totals().max_inbox_depth, 0);
        assert_eq!(sync.metrics.totals().barrier_wait_avoided_seconds, 0.0);
    }

    #[test]
    fn tokens_are_conserved_under_staleness() {
        let mut rng = SmallRng::seed_from_u64(29);
        let graph = rmat(350, RmatParams::default(), &mut rng);
        let pg = partitioned(&graph, 6);
        for staleness in [1usize, 2, 5] {
            let engine = Engine::new(
                &pg,
                TokenForward { steps: 8 },
                EngineConfig {
                    max_supersteps: 8,
                    staleness,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            let out = engine.run(InitialActivation::Messages(vec![
                (0u32, 10_000u64),
                (9u32, 500u64),
            ]));
            // Deliveries near the horizon are clamped into the final superstep, so
            // no token is ever lost to a late channel.
            assert_eq!(
                total_tokens(&out.states),
                10_500,
                "staleness {staleness} lost tokens"
            );
            // Superstep indices stay strictly increasing even when empty supersteps
            // are fast-forwarded over.
            assert!(out
                .metrics
                .supersteps
                .windows(2)
                .all(|w| w[0].superstep < w[1].superstep));
        }
    }

    #[test]
    fn a_staleness_window_wider_than_the_run_allocates_for_the_run_only() {
        let mut rng = SmallRng::seed_from_u64(43);
        let graph = rmat(350, RmatParams::default(), &mut rng);
        let pg = partitioned(&graph, 6);
        let run = |workers: usize, staleness: usize| {
            let engine = Engine::new(
                &pg,
                TokenForward { steps: 4 },
                EngineConfig {
                    max_supersteps: 4,
                    staleness,
                    workers,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            engine.run(InitialActivation::Messages(vec![
                (0u32, 10_000u64),
                (9u32, 500u64),
            ]))
        };
        let widest = run(1, usize::MAX);
        assert_eq!(total_tokens(&widest.states), 10_500);
        assert!(widest.metrics.totals().staleness_lag > 0);
        let pooled = run(3, usize::MAX);
        assert_eq!(widest.states, pooled.states);
        assert_same_supersteps(&widest.metrics, &pooled.metrics, "workers 1 vs 3");
    }

    #[test]
    fn fixed_staleness_is_bit_identical_across_worker_counts() {
        let mut rng = SmallRng::seed_from_u64(37);
        let graph = rmat(N_BATCHED, RmatParams::default(), &mut rng);
        let pg = partitioned(&graph, 6);
        let run = |workers: usize, tracer: Tracer| {
            let engine = Engine::new(
                &pg,
                Gathering(TokenForward { steps: 7 }),
                EngineConfig {
                    max_supersteps: 7,
                    sync_probability: 0.5,
                    staleness: 2,
                    workers,
                    tracer,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            engine.run(InitialActivation::Messages(vec![
                (0u32, 400_000u64),
                (3u32, 10_000u64),
            ]))
        };
        let tracer = Tracer::new(TraceConfig::enabled());
        let baseline = run(1, tracer.clone());
        assert_every_phase_is_cut_into_its_units(&tracer);
        for workers in [2, 3, 8] {
            let other = run(workers, Tracer::disabled());
            assert_eq!(baseline.states, other.states, "workers={workers}");
            assert_eq!(
                baseline.metrics.totals().network_bytes,
                other.metrics.totals().network_bytes
            );
            assert_eq!(
                work_ops(&baseline.metrics.totals()),
                work_ops(&other.metrics.totals())
            );
            assert_eq!(
                baseline.metrics.totals().staleness_lag,
                other.metrics.totals().staleness_lag
            );
            assert_eq!(
                baseline.metrics.totals().max_inbox_depth,
                other.metrics.totals().max_inbox_depth
            );
        }
    }

    #[test]
    fn mail_to_isolated_dangling_and_self_loop_vertices_is_conserved_and_deterministic() {
        // 0 loops on itself and feeds the ring; 1 feeds the dangling vertex 2 and the
        // ring, and nothing points at 1, so 2 is handed tokens once and keeps them;
        // 3 is isolated, its only replica the hashed master; from 4 on is a chorded
        // ring, long enough that a machine's share of it spans several batches.
        const RING: u32 = 6_000;
        let mut edges = vec![(0u32, 0u32), (0, 4), (1, 2), (1, 4)];
        for i in 0..RING {
            edges.push((4 + i, 4 + (i + 1) % RING));
            edges.push((4 + i, 4 + (i + 3) % RING));
        }
        let graph = DiGraph::from_edges(4 + RING as usize, &edges);
        let pg = partitioned(&graph, 4);
        pg.validate().unwrap();
        assert_eq!(pg.placement().replicas(3).len(), 1);
        // Duplicate destinations, the isolated vertex among them; then three tokens on
        // every ring vertex, which keeps the whole ring active.
        let mut initial: Vec<(VertexId, u64)> = vec![
            (3, 7),
            (0, 100),
            (1, 40),
            (3, 5),
            (4, 1000),
            (0, 11),
            (3, 1),
            (1, 2),
        ];
        initial.extend((0..RING).map(|i| (4 + i, 3)));
        let injected: u64 = initial.iter().map(|&(_, tokens)| tokens).sum();
        let run = |workers: usize, staleness: usize, tracer: Tracer| {
            let engine = Engine::new(
                &pg,
                Gathering(TokenForward { steps: 6 }),
                EngineConfig {
                    max_supersteps: 6,
                    sync_probability: 0.5,
                    workers,
                    staleness,
                    tracer,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            engine.run(InitialActivation::Messages(initial.clone()))
        };
        for staleness in [0usize, 2] {
            let tracer = Tracer::new(TraceConfig::enabled());
            let baseline = run(1, staleness, tracer.clone());
            assert_every_phase_is_cut_into_its_units(&tracer);
            let tokens: Vec<TokenState> = baseline.states.iter().map(|s| s.inner.clone()).collect();
            // Every token ends absorbed by the final superstep or parked on a vertex
            // with no out-edge (2 and 3, each handed tokens exactly once).
            let parked = tokens[2].forwarding + tokens[3].forwarding;
            assert_eq!(
                total_tokens(&tokens) + parked,
                injected,
                "staleness {staleness} lost tokens"
            );
            // The isolated vertex keeps the three parcels addressed to it.
            assert_eq!(tokens[3].forwarding, 13);
            assert!(tokens[2].arrived + tokens[2].forwarding > 0);
            for workers in [2, 3, 8] {
                let other = run(workers, staleness, Tracer::disabled());
                let label = format!("staleness={staleness} workers={workers}");
                assert_eq!(baseline.states, other.states, "{label}");
                assert_same_supersteps(&baseline.metrics, &other.metrics, &label);
            }
        }
    }

    /// A program whose message combine is order-*sensitive* (`a · 31 + b`, wrapping),
    /// so the fold order of every destination's messages shows in the states. A vertex
    /// chains what it receives into `value` and, until the last step, sends every
    /// out-neighbour a message naming the edge — in edge order, or in reverse when
    /// `descending`. A vertex applied without mail chains its own id. Its delta is
    /// `value % 8 + 1` while it forwards, so a tolerance of 3 gates about three
    /// vertices in eight and a tolerance of 0 gates none.
    struct OrderedMail {
        steps: usize,
        descending: bool,
    }

    #[derive(Clone, Default, Debug, PartialEq)]
    struct MailState {
        value: u64,
        forwards: bool,
    }

    fn ordered_combine(a: u64, b: u64) -> u64 {
        a.wrapping_mul(31).wrapping_add(b)
    }

    fn ordered_apply(value: u64, message: u64) -> u64 {
        value.wrapping_mul(131).wrapping_add(message)
    }

    fn ordered_message(value: u64, src: VertexId, dst: VertexId) -> u64 {
        value ^ (u64::from(src) << 32 | u64::from(dst))
    }

    impl VertexProgram for OrderedMail {
        type State = MailState;
        type Message = u64;
        type Accum = ();

        fn combine_messages(&self, a: u64, b: u64) -> u64 {
            ordered_combine(a, b)
        }
        fn combine_accums(&self, _a: (), _b: ()) {}

        fn apply(
            &self,
            ctx: &mut ApplyContext<'_>,
            vertex: VertexId,
            state: &mut MailState,
            _accum: Option<()>,
            message: Option<u64>,
        ) {
            let message = message.unwrap_or(u64::from(vertex));
            state.value = ordered_apply(state.value, message);
            state.forwards = ctx.superstep + 1 < self.steps;
        }

        fn delta(&self, _old: &MailState, new: &MailState) -> f64 {
            if new.forwards {
                (new.value % 8 + 1) as f64
            } else {
                0.0
            }
        }

        fn scatter_replica(
            &self,
            _ctx: &mut ScatterContext<'_>,
            vertex: VertexId,
            state: &MailState,
            local_out_neighbors: &[VertexId],
            emit: &mut dyn FnMut(VertexId, u64),
        ) {
            let mut send = |&dst: &VertexId| emit(dst, ordered_message(state.value, vertex, dst));
            if self.descending {
                local_out_neighbors.iter().rev().for_each(&mut send);
            } else {
                local_out_neighbors.iter().for_each(&mut send);
            }
        }
    }

    /// The synchronous full-sync run of [`OrderedMail`] worked out from the graph and
    /// the edge assignment alone, combining the way the executor is specified to: per
    /// sending machine a stable sort of its emissions by destination and a left fold
    /// of each run, emissions in (source ascending, edge order) order; then the
    /// machines' combined messages folded into the destination in machine order.
    fn ordered_mail_reference(
        graph: &DiGraph,
        assignment: &crate::partition::EdgeAssignment,
        initial: &[(VertexId, u64)],
        steps: usize,
    ) -> Vec<u64> {
        let fold_by_destination = |mut emissions: Vec<(VertexId, u64)>| {
            emissions.sort_by_key(|&(dst, _)| dst);
            let mut folded: Vec<(VertexId, u64)> = Vec::new();
            for (dst, message) in emissions {
                match folded.last_mut() {
                    Some((last, so_far)) if *last == dst => {
                        *so_far = ordered_combine(*so_far, message);
                    }
                    _ => folded.push((dst, message)),
                }
            }
            folded
        };
        let mut values = vec![0u64; graph.num_vertices()];
        let mut inbox = fold_by_destination(initial.to_vec());
        for step in 0..steps {
            for &(v, message) in &inbox {
                values[v as usize] = ordered_apply(values[v as usize], message);
            }
            if step + 1 == steps {
                break;
            }
            let mut active = vec![false; graph.num_vertices()];
            for &(v, _) in &inbox {
                active[v as usize] = true;
            }
            let mut delivered: Vec<(VertexId, u64)> = Vec::new();
            for machine in 0..assignment.num_machines {
                let emissions = graph
                    .edges()
                    .zip(&assignment.machines)
                    .filter(|&((src, _), m)| m.index() == machine && active[src as usize])
                    .map(|((src, dst), _)| (dst, ordered_message(values[src as usize], src, dst)))
                    .collect();
                delivered.extend(fold_by_destination(emissions));
            }
            // `delivered` is in (machine, destination) order, so the stable sort keeps
            // each destination's messages in machine order.
            inbox = fold_by_destination(delivered);
        }
        values
    }

    #[test]
    fn order_sensitive_message_combine_is_folded_in_production_order() {
        let mut rng = SmallRng::seed_from_u64(53);
        let graph = rmat(N_BATCHED, RmatParams::default(), &mut rng);
        let assignment = PartitionerKind::Oblivious.assign(&graph, 5, 99);
        let pg = PartitionedGraph::from_assignment(&graph, &assignment, 99);
        pg.validate().unwrap();
        // Duplicate destinations in the initial list; 0 and 1 are R-MAT hubs, so their
        // mail fans in from every machine.
        let initial: Vec<(VertexId, u64)> = vec![
            (0, 5),
            (17, 11),
            (1, 7),
            (0, 13),
            (64, 3),
            (17, 2),
            (0, 19),
            (1, 23),
        ];
        let steps = 5;
        let run = |workers: usize, staleness: usize, tracer: Tracer| {
            let engine = Engine::new(
                &pg,
                Gathering(OrderedMail {
                    steps,
                    descending: false,
                }),
                EngineConfig {
                    max_supersteps: steps,
                    workers,
                    staleness,
                    tracer,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            engine.run(InitialActivation::Messages(initial.clone()))
        };
        for staleness in [0usize, 2] {
            let tracer = Tracer::new(TraceConfig::enabled());
            let baseline = run(1, staleness, tracer.clone());
            assert_every_phase_is_cut_into_its_units(&tracer);
            if staleness == 0 {
                let expected = ordered_mail_reference(&graph, &assignment, &initial, steps);
                let values: Vec<u64> = baseline.states.iter().map(|s| s.inner.value).collect();
                assert_eq!(values, expected);
                // The fan-in the test is about: some vertex's mail came from several
                // machines, and some machine combined several messages for one vertex.
                let last = &baseline.metrics.supersteps[steps - 2];
                assert!(last.cost.scatter_ops > last.cost.routed_messages);
                assert!(
                    last.cost.routed_messages
                        > baseline.metrics.supersteps[steps - 1].cost.apply_ops
                );
            }
            for workers in [2, 3, 8] {
                let other = run(workers, staleness, Tracer::disabled());
                let label = format!("staleness={staleness} workers={workers}");
                assert_eq!(baseline.states, other.states, "{label}");
                assert_same_supersteps(&baseline.metrics, &other.metrics, &label);
            }
        }
    }

    #[test]
    fn staleness_defers_deliveries_and_avoids_barrier_wait() {
        let mut rng = SmallRng::seed_from_u64(41);
        let graph = rmat(400, RmatParams::default(), &mut rng);
        let pg = partitioned(&graph, 8);
        let run = |staleness: usize| {
            let engine = Engine::new(
                &pg,
                TokenForward { steps: 8 },
                EngineConfig {
                    max_supersteps: 8,
                    staleness,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            engine.run(InitialActivation::Messages(vec![(0u32, 20_000u64)]))
        };
        let stale = run(2);
        // With eight machines and two supersteps of slack, some channel is delayed…
        assert!(stale.metrics.totals().staleness_lag > 0);
        assert!(stale.metrics.totals().max_inbox_depth > 0);
        // …and the pipelined clock beats the barriered one on at least part of the run.
        assert!(stale.metrics.totals().barrier_wait_avoided_seconds > 0.0);
        // The per-superstep simulated times are watermark increments: non-negative,
        // summing to the run's makespan.
        assert!(stale
            .metrics
            .supersteps
            .iter()
            .all(|s| s.cost.simulated_seconds >= 0.0));
    }

    #[test]
    fn every_operation_and_byte_of_a_superstep_is_charged_to_one_machine() {
        let mut rng = SmallRng::seed_from_u64(47);
        let graph = rmat(600, RmatParams::default(), &mut rng);
        let pg = partitioned(&graph, 6);
        let engine = Engine::new(
            &pg,
            Gathering(TokenForward { steps: 5 }),
            EngineConfig {
                max_supersteps: 5,
                sync_probability: 0.5,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let out = engine.run(InitialActivation::Messages(vec![
            (0u32, 20_000u64),
            (5u32, 700u64),
        ]));
        assert_eq!(out.metrics.supersteps.len(), 5);
        for step in &out.metrics.supersteps {
            // A synchronised mirror is one operation on its master's count, but not CPU.
            let c = &step.cost;
            let ops = c.gather_ops + c.apply_ops + c.scatter_ops + c.sync_ops;
            assert_eq!(step.ops_per_machine.iter().sum::<u64>(), ops);
            assert_eq!(step.bytes_per_machine.iter().sum::<u64>(), c.network_bytes);
            assert_eq!(c.supersteps, 1);
        }
        // Every kind of operation happened, so the identities above are not 0 = 0.
        let totals = out.metrics.totals();
        assert!(totals.gather_ops > 0 && totals.apply_ops > 0 && totals.scatter_ops > 0);
        assert!(totals.sync_ops > 0 && totals.skipped_syncs > 0 && totals.network_bytes > 0);
    }

    /// The engine as it ran while the driver thread walked the frontier, kept to check
    /// the pooled one against: one thread; the drain folds the due messages into the
    /// inbox and sorts the frontier; gather folds each machine's partials in (machine,
    /// frontier) order; the sync decision runs in frontier order, refreshing mirrors as
    /// it goes; and each machine's emissions go to an outbox that is folded and whose
    /// distinct destinations are sorted before staging. Returns the final states and
    /// every superstep's record.
    fn serial_reference<P: VertexProgram>(
        engine: &Engine<'_, P>,
        initial: InitialActivation<P::Message>,
    ) -> (Vec<P::State>, Vec<SuperstepMetrics>) {
        let (graph, program, config) = (engine.graph, &engine.program, &engine.config);
        let placement = graph.placement();
        let (n, machines) = (graph.num_vertices(), graph.num_machines());
        let header = MESSAGE_HEADER_BYTES;
        let combine = |a, b| program.combine_messages(a, b);
        let mut caches: Vec<Vec<P::State>> = (graph.shards().iter())
            .map(|s| vec![P::State::default(); s.num_local_vertices()])
            .collect();
        let mut inbox: Vec<Option<P::Message>> = (0..n).map(|_| None).collect();
        let mut accums: Vec<Option<P::Accum>> = (0..n).map(|_| None).collect();
        // The ring: each slot's messages in production order, and its summed lag.
        let ring = config.staleness.min(config.max_supersteps) + 1;
        type Slot<M> = (Vec<(VertexId, M)>, u64);
        let mut staged: VecDeque<Slot<P::Message>> = (0..ring).map(|_| (Vec::new(), 0)).collect();
        let mut frontier: Vec<VertexId> = match initial {
            InitialActivation::AllVertices => (0..n as VertexId).collect(),
            InitialActivation::Messages(messages) => {
                let mut frontier = Vec::new();
                for (v, message) in messages {
                    if deposit(&mut inbox[v as usize], message, combine) {
                        frontier.push(v);
                    }
                }
                frontier
            }
        };
        let mut records = Vec::new();
        let mut clock = ClusterClock::new(machines, config.staleness, &[]);
        let mut superstep = 0;
        while superstep < config.max_supersteps {
            if frontier.is_empty() {
                match staged.iter().position(|slot| !slot.0.is_empty()) {
                    Some(ahead) if superstep + ahead < config.max_supersteps => {
                        staged.rotate_left(ahead);
                        superstep += ahead;
                    }
                    _ => break,
                }
            }
            staged.rotate_left(1);
            let (due, lag) = std::mem::take(staged.back_mut().unwrap());
            for (v, message) in due {
                if deposit(&mut inbox[v as usize], message, combine) {
                    frontier.push(v);
                }
            }
            frontier.sort_unstable();
            frontier.dedup();
            let mut record = SuperstepMetrics {
                superstep,
                cost: QueryCost {
                    replication_factor: placement.replication_factor(),
                    supersteps: 1,
                    active_vertices: frontier.len() as u64,
                    staleness_lag: lag,
                    ..QueryCost::default()
                },
                ops_per_machine: vec![0; machines],
                bytes_per_machine: vec![0; machines],
            };

            if program.gather_direction() == EdgeDirection::In {
                let accum_bytes = (program.accum_bytes() + header) as u64;
                for (m, shard) in graph.shards().iter().enumerate() {
                    for &v in &frontier {
                        let on_m = placement.replica_slots(v).find(|r| r.0.index() == m);
                        let Some((_, local)) = on_m else { continue };
                        let mut acc = None;
                        for &src_local in shard.local_in_neighbors(local) {
                            record.cost.gather_ops += 1;
                            record.ops_per_machine[m] += 1;
                            let src = shard.global_id(src_local);
                            let (src_state, dst_state) =
                                (&caches[m][src_local as usize], &caches[m][local as usize]);
                            let degree = graph.out_degree(src);
                            if let Some(partial) =
                                program.gather_edge(src, v, src_state, dst_state, degree)
                            {
                                deposit(&mut acc, partial, |a, b| program.combine_accums(a, b));
                            }
                        }
                        let Some(acc) = acc else { continue };
                        if placement.master(v).index() != m {
                            record.send(m, 1, accum_bytes);
                        }
                        deposit(&mut accums[v as usize], acc, |a, b| {
                            program.combine_accums(a, b)
                        });
                    }
                }
            }

            let mut deltas = Vec::with_capacity(frontier.len());
            for &v in &frontier {
                let (master, local) = placement.master_slot(v);
                let (m, local) = (master.index(), local as usize);
                let mut fresh = caches[m][local].clone();
                let key = [config.seed, superstep as u64, v as u64, TAG_APPLY];
                let mut ctx = ApplyContext {
                    superstep,
                    rng: &mut rng::derived_rng(&key),
                };
                let (accum, message) = (accums[v as usize].take(), inbox[v as usize].take());
                program.apply(&mut ctx, v, &mut fresh, accum, message);
                deltas.push(program.delta(&caches[m][local], &fresh));
                caches[m][local] = fresh;
                record.cost.apply_ops += 1;
                record.ops_per_machine[m] += 1;
            }

            let state_bytes = (program.state_bytes() + header) as u64;
            let has_out_edge =
                |&(m, local): &(MachineId, u32)| graph.shard(m).local_out_degree(local) > 0;
            let mut scatter_tasks: Vec<Vec<(u32, VertexId, usize, usize)>> =
                vec![Vec::new(); machines];
            for (&v, &delta) in frontier.iter().zip(&deltas) {
                if delta <= config.tolerance {
                    record.cost.skipped_scatters += 1;
                    continue;
                }
                let (master, master_local) = placement.master_slot(v);
                let replicas = placement.replica_slots(v);
                let mut participating = Vec::new();
                for replica in replicas.clone() {
                    let key = [
                        config.seed,
                        superstep as u64,
                        v as u64,
                        replica.0.index() as u64,
                        TAG_SYNC,
                    ];
                    if replica.0 != master && !rng::coin(config.sync_probability, &key) {
                        record.cost.skipped_syncs += 1;
                        continue;
                    }
                    participating.push(replica);
                    if replica.0 != master {
                        record.cost.sync_ops += 1;
                        record.ops_per_machine[master.index()] += 1;
                        record.send(master.index(), 1, state_bytes);
                    }
                }
                if graph.out_degree(v) > 0 && !participating.iter().any(has_out_edge) {
                    let candidates: Vec<_> = replicas.filter(has_out_edge).collect();
                    let key = [config.seed, superstep as u64, v as u64, TAG_FORCE];
                    let pick = candidates[rng::pick_index(candidates.len(), &key)];
                    participating.push(pick);
                    if pick.0 != master {
                        record.cost.sync_ops += 1;
                        record.cost.skipped_syncs -= 1;
                        record.ops_per_machine[master.index()] += 1;
                        record.send(master.index(), 1, state_bytes);
                    }
                    participating.sort_unstable();
                }
                for &(m, local) in &participating {
                    if m != master {
                        let fresh = caches[master.index()][master_local as usize].clone();
                        caches[m.index()][local as usize] = fresh;
                    }
                }
                participating.retain(has_out_edge);
                for (rank, &(m, local)) in participating.iter().enumerate() {
                    scatter_tasks[m.index()].push((local, v, rank, participating.len()));
                }
            }

            let message_bytes = (program.message_bytes() + header) as u64;
            for (m, tasks) in scatter_tasks.iter().enumerate() {
                let shard = graph.shard(MachineId::from(m));
                let mut outbox = Vec::new();
                for &(local, v, rank, count) in tasks {
                    let neighbors = shard.local_out_neighbors(local);
                    record.cost.scatter_ops += neighbors.len() as u64;
                    record.ops_per_machine[m] += neighbors.len() as u64;
                    let key = [
                        config.seed,
                        superstep as u64,
                        v as u64,
                        m as u64,
                        TAG_SCATTER,
                    ];
                    let mut ctx = ScatterContext {
                        replica_rank: rank,
                        num_participating: count,
                        global_out_degree: graph.out_degree(v),
                        sync_probability: config.sync_probability,
                        rng: &mut rng::derived_rng(&key),
                    };
                    let state = &caches[m][local as usize];
                    let mut emit = |dst, message| outbox.push((dst, message));
                    program.scatter_replica(&mut ctx, v, state, neighbors, &mut emit);
                }
                let mut outgoing: Vec<Option<P::Message>> = (0..n).map(|_| None).collect();
                let mut touched = Vec::new();
                for (dst, message) in outbox {
                    if deposit(&mut outgoing[dst as usize], message, combine) {
                        touched.push(dst);
                    }
                }
                touched.sort_unstable();
                record.cost.routed_messages += touched.len() as u64;
                let mut remote = 0;
                for dst in touched {
                    let message = outgoing[dst as usize].take().unwrap();
                    let master = placement.master(dst).index();
                    remote += u64::from(master != m);
                    if let Some(lag) = engine.visibility(superstep, m, master) {
                        staged[lag].0.push((dst, message));
                        staged[lag].1 += lag as u64;
                    }
                }
                record.send(m, remote, message_bytes);
            }

            record.cost.max_inbox_depth = staged.iter().skip(1).map(|s| s.0.len() as u64).sum();
            clock.price(&mut record);
            records.push(record);
            frontier.clear();
            superstep += 1;
        }
        let states = (0..n as VertexId)
            .map(|v| {
                let (master, local) = placement.master_slot(v);
                caches[master.index()][local as usize].clone()
            })
            .collect();
        (states, records)
    }

    /// Runs `program()` from `initial()` at workers {1, 2, 8} × staleness {0, 2} ×
    /// tolerance {0, 3}, partial sync, and asserts that every run equals the serial
    /// reference of its staleness and tolerance: states and every field of every
    /// superstep's record. The sweep has to reach something: tolerance 3 gates vertices
    /// tolerance 0 does not, staleness 2 delays some channel, and some mirror is skipped.
    fn assert_every_run_matches_the_serial_reference<P, F>(
        pg: &PartitionedGraph,
        program: F,
        initial: impl Fn() -> InitialActivation<P::Message>,
        steps: usize,
    ) where
        P: VertexProgram,
        P::State: PartialEq + std::fmt::Debug,
        F: Fn() -> P,
    {
        for staleness in [0usize, 2] {
            let mut ungated = None;
            for tolerance in [0.0, 3.0] {
                let config = |workers| EngineConfig {
                    max_supersteps: steps,
                    sync_probability: 0.5,
                    staleness,
                    tolerance,
                    workers,
                    ..EngineConfig::default()
                };
                let engine = Engine::new(pg, program(), config(1)).unwrap();
                let (states, supersteps) = serial_reference(&engine, initial());
                let expected = RunMetrics {
                    supersteps,
                    ..RunMetrics::default()
                };
                let totals = expected.totals();
                // Every vertex is gated once it stops forwarding; tolerance 3 gates more.
                let skipped = totals.skipped_scatters;
                assert!(ungated.is_none_or(|ungated| skipped > ungated), "{skipped}");
                ungated = Some(skipped);
                assert_eq!(totals.staleness_lag > 0, staleness > 0);
                assert!(
                    totals.skipped_syncs > 0 && totals.routed_messages > 0,
                    "{totals:?}"
                );
                for workers in [1, 2, 8] {
                    let out = Engine::new(pg, program(), config(workers))
                        .unwrap()
                        .run(initial());
                    let label =
                        format!("tolerance={tolerance} staleness={staleness} workers={workers}");
                    assert_eq!(out.states, states, "{label}");
                    assert_same_supersteps(&out.metrics, &expected, &label);
                }
            }
        }
    }

    #[test]
    fn pooled_ranges_reproduce_the_serial_sync_commit_and_drain_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(67);
        let graph = rmat(N_BATCHED, RmatParams::default(), &mut rng);
        let pg = partitioned(&graph, 5);
        let placement = pg.placement();
        // Superstep 0's frontier is every vertex: at least three ranges, and some
        // machine mirrors vertices of at least two of them, so its sync items come
        // from several ranges.
        let all: Vec<VertexId> = (0..N_BATCHED as VertexId).collect();
        let ranges: Vec<&[VertexId]> = all.chunks(RANGE_SIZE).collect();
        assert!(ranges.len() >= 3, "{} ranges", ranges.len());
        let mirrored = |m: MachineId| {
            let mirrors =
                |v: &VertexId| placement.master(*v) != m && placement.replicas(*v).contains(&m);
            ranges.iter().filter(|r| r.iter().any(mirrors)).count()
        };
        assert!((0..pg.num_machines()).any(|m| mirrored(MachineId::from(m)) >= 2));
        let steps = 4;
        for descending in [false, true] {
            let mail = move || OrderedMail { steps, descending };
            assert_every_run_matches_the_serial_reference(
                &pg,
                mail,
                || InitialActivation::AllVertices,
                steps,
            );
            assert_every_run_matches_the_serial_reference(
                &pg,
                || Gathering(mail()),
                || InitialActivation::AllVertices,
                steps,
            );
        }
        // Ranks and participant counts: tokens split across the scattering replicas.
        let tokens =
            || InitialActivation::Messages((0..N_BATCHED as VertexId).map(|v| (v, 7)).collect());
        assert_every_run_matches_the_serial_reference(
            &pg,
            || TokenForward { steps },
            tokens,
            steps,
        );
        // A sparse start: one range, and mail that reaches it through the drain.
        let initial = || InitialActivation::Messages(vec![(0, 5), (17, 11), (0, 13), (4_000, 3)]);
        let mail = || OrderedMail {
            steps: 6,
            descending: true,
        };
        assert_every_run_matches_the_serial_reference(&pg, mail, initial, 6);
    }

    #[test]
    fn metrics_record_replication_factor() {
        let graph = star(100);
        let pg = partitioned(&graph, 8);
        let engine = Engine::new(&pg, TokenForward { steps: 1 }, EngineConfig::default()).unwrap();
        let out = engine.run(InitialActivation::Messages(vec![(0u32, 1u64)]));
        assert!(out.metrics.replication_factor >= 1.0);
        assert_eq!(out.metrics.num_machines, 8);
    }
}
