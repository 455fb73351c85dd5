//! Cost accounting: one cost record, a per-machine profile, and the one clock that
//! prices them.
//!
//! The paper's Figure 1 reports four panels per configuration — time per iteration,
//! total time, network bytes sent, and CPU time. Wall-clock on the real 24-node EC2
//! cluster cannot be reproduced on a single host, so the engine only *counts* the
//! underlying quantities (bytes crossing machine boundaries, per-machine work
//! operations), and this module's one clock prices them with the constants of
//! m3.xlarge-class machines on 1 GbE: 10 ns per operation, 1 Gbit/s per machine, 1 ms
//! of barrier overhead per superstep, 12 header bytes per message. The *shape* of the
//! paper's results (orderings, ratios, scaling trends) depends only on the counts.
//!
//! The clock prices a run superstep by superstep. At staleness 0 it is barriered: the
//! busiest machine's compute plus the busiest machine's transfer plus the overhead.
//! Above 0 the machines pipeline up to the staleness window, and a superstep costs the
//! advance of the all-machine watermark. [`RunMetrics::reprice`] replays a run's clock
//! with some machines slowed.
//!
//! Every cost number is a [`QueryCost`]. The engine writes each superstep's counters
//! straight into the `cost` of a [`SuperstepMetrics`], next to the per-machine profile
//! the clock prices; [`RunMetrics::totals`] folds a run's records in superstep order
//! with [`QueryCost::absorb`], the one place two cost records are summed. The
//! `frogwild` crate reports the same type for a driver run, a session response and a
//! session's running totals.

/// Cost of one superstep, one engine run, or one answered query.
///
/// The engine fields are one row of the paper's Figure 1 (total time, network sent,
/// CPU usage; time per iteration is [`QueryCost::seconds_per_iteration`]) plus the
/// executor's work, frontier and staleness counters. The work-unit fields make the
/// serving paths comparable: `push_ops` and `walk_hops` count the local-push and
/// walk-sampling work of serial queries, and the `index_*` fields report the
/// cached-segment economics when a walk index answered the query. Partitioning never
/// appears here: a session pays for its vertex-cut once and reports it beside its
/// totals.
///
/// Equality ignores `host_seconds`: host time is wall-clock measurement noise, while
/// every other field is a deterministic function of the query and the session seed.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryCost {
    /// Replication factor of the vertex-cut the work ran on.
    pub replication_factor: f64,
    /// Engine supersteps executed: one in a superstep's record, zero for serial and
    /// index-served queries.
    pub supersteps: usize,
    /// Simulated bytes crossing machine boundaries (Figure 1c / "Network sent"): a
    /// gather partial sent to a remote master, a state copy pushed to a mirror, a
    /// combined message routed to a remote master — each with its header.
    pub network_bytes: u64,
    /// Simulated cross-machine messages, one per send `network_bytes` counts.
    pub network_messages: u64,
    /// Simulated cluster wall-clock seconds (Figure 1b / "Total time").
    pub simulated_seconds: f64,
    /// Simulated CPU seconds summed over machines (Figure 1d / "CPU usage"), priced
    /// from `gather_ops + apply_ops + scatter_ops`; `sync_ops` are not priced as CPU.
    pub simulated_cpu_seconds: f64,
    /// Gather operations: one per locally owned in-edge of a gathering replica.
    pub gather_ops: u64,
    /// Apply operations: one per active vertex, run at its master.
    pub apply_ops: u64,
    /// Scatter operations: one per local out-edge of a scattering replica, whether or
    /// not a message went down it.
    pub scatter_ops: u64,
    /// Mirror synchronizations performed: state copies a master pushed to a mirror,
    /// forced ones included.
    pub sync_ops: u64,
    /// Forward-push operations performed (serial PPR and index-served queries).
    pub push_ops: u64,
    /// Walk hops covered, freshly sampled or stitched from the index.
    pub walk_hops: u64,
    /// Walk segments served straight from the session's walk index.
    pub index_hits: u64,
    /// Segment requests the index could not serve (fresh hops were resampled).
    pub index_misses: u64,
    /// Whether the session's walk index answered this query (for a sum: any of them).
    pub index_served: bool,
    /// Frontier sizes summed over supersteps (engine-served queries only).
    pub active_vertices: u64,
    /// Mirror synchronizations partial synchronization avoided — the paper's `p_s`
    /// mechanism at work (engine-served queries only; zero at `p_s = 1`).
    pub skipped_syncs: u64,
    /// Active vertices that scheduled no scatter: the executor's delta gate, which
    /// closes on quiet and on converged vertices alike (engine-served queries only).
    pub skipped_scatters: u64,
    /// Post-combining message deliveries routed between scatter and the next gather,
    /// including machine-local ones (engine-served queries only).
    pub routed_messages: u64,
    /// Summed delivery lag (in supersteps) of messages the bounded-staleness
    /// executor deferred — zero for synchronous (`staleness == 0`) runs.
    pub staleness_lag: u64,
    /// Deepest staging inbox a superstep ended with (messages staged beyond the next
    /// superstep's drain point) — zero for synchronous runs.
    pub max_inbox_depth: u64,
    /// Simulated seconds of barrier wait the staleness window overlapped away,
    /// relative to fully barriered supersteps — zero for synchronous runs.
    pub barrier_wait_avoided_seconds: f64,
    /// Real (host) seconds spent: the engine's own for a superstep or a driver run,
    /// the whole query's for a session response. Excluded from equality.
    pub host_seconds: f64,
}

impl PartialEq for QueryCost {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive on purpose: a new field does not compile until it is compared
        // (or, like `host_seconds`, explicitly ignored) here.
        let QueryCost {
            replication_factor,
            supersteps,
            network_bytes,
            network_messages,
            simulated_seconds,
            simulated_cpu_seconds,
            gather_ops,
            apply_ops,
            scatter_ops,
            sync_ops,
            push_ops,
            walk_hops,
            index_hits,
            index_misses,
            index_served,
            active_vertices,
            skipped_syncs,
            skipped_scatters,
            routed_messages,
            staleness_lag,
            max_inbox_depth,
            barrier_wait_avoided_seconds,
            host_seconds: _,
        } = *self;
        replication_factor == other.replication_factor
            && supersteps == other.supersteps
            && network_bytes == other.network_bytes
            && network_messages == other.network_messages
            && simulated_seconds == other.simulated_seconds
            && simulated_cpu_seconds == other.simulated_cpu_seconds
            && gather_ops == other.gather_ops
            && apply_ops == other.apply_ops
            && scatter_ops == other.scatter_ops
            && sync_ops == other.sync_ops
            && push_ops == other.push_ops
            && walk_hops == other.walk_hops
            && index_hits == other.index_hits
            && index_misses == other.index_misses
            && index_served == other.index_served
            && active_vertices == other.active_vertices
            && skipped_syncs == other.skipped_syncs
            && skipped_scatters == other.skipped_scatters
            && routed_messages == other.routed_messages
            && staleness_lag == other.staleness_lag
            && max_inbox_depth == other.max_inbox_depth
            && barrier_wait_avoided_seconds == other.barrier_wait_avoided_seconds
    }
}

impl QueryCost {
    /// Adds `other` into `self` — the one place two cost records are summed (a
    /// run's supersteps, a session's running totals, an autotuned query's pilot).
    ///
    /// Integer counters saturate: a long-lived serving session must degrade to a
    /// pinned counter, never wrap around (or, in debug builds, panic) mid-stream.
    /// Seconds add, so a fold in superstep order reproduces a sum in that order to
    /// the last bit; `max_inbox_depth` takes the maximum; `index_served` becomes
    /// "any of them"; `replication_factor` describes the layout rather than work
    /// done on it, so `self` keeps its own.
    pub fn absorb(&mut self, other: &QueryCost) {
        // Exhaustive on purpose: a new field does not compile until it is summed here.
        let QueryCost {
            replication_factor: _,
            supersteps,
            network_bytes,
            network_messages,
            simulated_seconds,
            simulated_cpu_seconds,
            gather_ops,
            apply_ops,
            scatter_ops,
            sync_ops,
            push_ops,
            walk_hops,
            index_hits,
            index_misses,
            index_served,
            active_vertices,
            skipped_syncs,
            skipped_scatters,
            routed_messages,
            staleness_lag,
            max_inbox_depth,
            barrier_wait_avoided_seconds,
            host_seconds,
        } = self;
        *supersteps = supersteps.saturating_add(other.supersteps);
        *network_bytes = network_bytes.saturating_add(other.network_bytes);
        *network_messages = network_messages.saturating_add(other.network_messages);
        *simulated_seconds += other.simulated_seconds;
        *simulated_cpu_seconds += other.simulated_cpu_seconds;
        *gather_ops = gather_ops.saturating_add(other.gather_ops);
        *apply_ops = apply_ops.saturating_add(other.apply_ops);
        *scatter_ops = scatter_ops.saturating_add(other.scatter_ops);
        *sync_ops = sync_ops.saturating_add(other.sync_ops);
        *push_ops = push_ops.saturating_add(other.push_ops);
        *walk_hops = walk_hops.saturating_add(other.walk_hops);
        *index_hits = index_hits.saturating_add(other.index_hits);
        *index_misses = index_misses.saturating_add(other.index_misses);
        *index_served |= other.index_served;
        *active_vertices = active_vertices.saturating_add(other.active_vertices);
        *skipped_syncs = skipped_syncs.saturating_add(other.skipped_syncs);
        *skipped_scatters = skipped_scatters.saturating_add(other.skipped_scatters);
        *routed_messages = routed_messages.saturating_add(other.routed_messages);
        *staleness_lag = staleness_lag.saturating_add(other.staleness_lag);
        *max_inbox_depth = (*max_inbox_depth).max(other.max_inbox_depth);
        *barrier_wait_avoided_seconds += other.barrier_wait_avoided_seconds;
        *host_seconds += other.host_seconds;
    }

    /// Mean simulated seconds per superstep (Figure 1a / "Time per iteration"); zero
    /// when no superstep ran.
    pub fn seconds_per_iteration(&self) -> f64 {
        if self.supersteps == 0 {
            0.0
        } else {
            self.simulated_seconds / self.supersteps as f64
        }
    }

    /// Which path answered the query: `"index"`, `"engine"` or `"serial"`.
    pub fn served_by(&self) -> &'static str {
        if self.index_served {
            "index"
        } else if self.supersteps > 0 {
            "engine"
        } else {
            "serial"
        }
    }
}

impl std::fmt::Display for QueryCost {
    /// A compact per-query cost audit, mirroring the cumulative session display at
    /// single-query granularity.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cost: {}-served, {:.3}ms host",
            self.served_by(),
            self.host_seconds * 1e3
        )?;
        writeln!(
            f,
            "  work: {} push ops, {} walk hops, {} index hits / {} misses",
            self.push_ops, self.walk_hops, self.index_hits, self.index_misses
        )?;
        writeln!(
            f,
            "  engine: {} supersteps, {} active vertices, {} skipped syncs, \
             {} skipped scatters, {} routed messages",
            self.supersteps,
            self.active_vertices,
            self.skipped_syncs,
            self.skipped_scatters,
            self.routed_messages
        )?;
        writeln!(
            f,
            "  async: {} staleness lag, inbox depth {}, {:.4}s barrier wait avoided",
            self.staleness_lag, self.max_inbox_depth, self.barrier_wait_avoided_seconds
        )?;
        write!(
            f,
            "  network: {} bytes, {} messages; simulated {:.4}s wall, {:.4}s cpu",
            self.network_bytes,
            self.network_messages,
            self.simulated_seconds,
            self.simulated_cpu_seconds
        )
    }
}

/// Seconds of CPU time per work operation.
const SECONDS_PER_OP: f64 = 10e-9;
/// Usable network bandwidth per machine, in bytes per second: 1 Gbit/s.
const BYTES_PER_SECOND: f64 = 125_000_000.0;
/// Fixed per-superstep overhead (barrier, scheduling), in seconds.
const SUPERSTEP_OVERHEAD_SECONDS: f64 = 1e-3;
/// Fixed bytes of every message the engine charges (headers, vertex ids, routing),
/// on top of its payload.
pub(crate) const MESSAGE_HEADER_BYTES: usize = 12;

/// One superstep's record: its cost, and the per-machine profile the clock prices it
/// from.
#[derive(Clone, Debug, Default)]
pub struct SuperstepMetrics {
    /// Superstep index (0-based).
    pub superstep: usize,
    /// The superstep's counters. `supersteps` is 1, `max_inbox_depth` is the backlog
    /// this superstep ended with, and `staleness_lag` is the lag of the messages it
    /// drained when it started.
    pub cost: QueryCost,
    /// Work operations per machine: the gather, apply and scatter operations each
    /// machine executed, plus one per mirror synchronization, charged to the vertex's
    /// master. Summed over machines it is `gather_ops + apply_ops + scatter_ops +
    /// sync_ops`.
    pub ops_per_machine: Vec<u64>,
    /// Bytes each machine sent across machine boundaries; summed over machines it is
    /// `cost.network_bytes`.
    pub bytes_per_machine: Vec<u64>,
}

impl SuperstepMetrics {
    /// Charges `messages` messages of `bytes` each sent by `machine` to a different
    /// machine. Saturating, like every sum of these counters.
    pub(crate) fn send(&mut self, machine: usize, messages: u64, bytes: u64) {
        let bytes = messages.saturating_mul(bytes);
        let cost = &mut self.cost;
        cost.network_bytes = cost.network_bytes.saturating_add(bytes);
        cost.network_messages = cost.network_messages.saturating_add(messages);
        if let Some(sent) = self.bytes_per_machine.get_mut(machine) {
            *sent = sent.saturating_add(bytes);
        }
    }
}

/// Aggregated metrics for a full run.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// Per-superstep metrics in execution order.
    pub supersteps: Vec<SuperstepMetrics>,
    /// Replication factor of the partitioning used.
    pub replication_factor: f64,
    /// Number of machines in the simulated cluster.
    pub num_machines: usize,
    /// The staleness window the run executed under, which chose the clock that priced it.
    pub staleness: usize,
    /// Per-machine finish times on the pipelined watermark clock (simulated
    /// seconds), indexed by machine — the run's straggler profile. Empty for
    /// synchronous runs (`staleness = 0`), where every machine finishes each
    /// superstep together at the barrier.
    pub machine_finish_seconds: Vec<f64>,
}

impl RunMetrics {
    /// The run's cost: every superstep's record absorbed in superstep order into one
    /// that carries the run's replication factor, so `supersteps` counts the
    /// supersteps executed, `max_inbox_depth` is the deepest backlog any of them ended
    /// with, and every `f64` is the in-order sum.
    pub fn totals(&self) -> QueryCost {
        let mut total = QueryCost {
            replication_factor: self.replication_factor,
            ..QueryCost::default()
        };
        for step in &self.supersteps {
            total.absorb(&step.cost);
        }
        total
    }

    /// The run's simulated seconds with machine `m` `speed_factors[m]` times slower than
    /// nominal (2.0 is half as fast; machines past the slice's end are nominal): its own
    /// clock replayed over its per-machine counters, without re-executing the engine.
    /// At nominal speeds it is `totals().simulated_seconds` to the last bit.
    ///
    /// # Panics
    ///
    /// Panics if a speed factor is not strictly positive.
    pub fn reprice(&self, speed_factors: &[f64]) -> f64 {
        let mut clock = ClusterClock::new(self.num_machines, self.staleness, speed_factors);
        let mut total_seconds = 0.0;
        for step in &self.supersteps {
            total_seconds += clock.advance(step).0;
        }
        total_seconds
    }

    /// Ratio between the busiest and the average machine's total work over the run —
    /// 1.0 means perfectly balanced compute.
    pub fn work_imbalance(&self) -> f64 {
        if self.num_machines == 0 {
            return 1.0;
        }
        let mut per_machine = vec![0u64; self.num_machines];
        for step in &self.supersteps {
            for (sum, &ops) in per_machine.iter_mut().zip(&step.ops_per_machine) {
                *sum = sum.saturating_add(ops);
            }
        }
        let total = per_machine
            .iter()
            .fold(0u64, |sum, &ops| sum.saturating_add(ops));
        let mean = total as f64 / self.num_machines as f64;
        let busiest = per_machine.iter().copied().max().unwrap_or(0);
        if mean == 0.0 {
            1.0
        } else {
            busiest as f64 / mean
        }
    }
}

/// The simulated cluster clock: prices a run's supersteps, in order, by the rule of the
/// module doc. Machine `m` runs `speed_factors[m]` times slower than nominal: its
/// compute and transfer take that much longer, the per-superstep overhead does not.
pub(crate) struct ClusterClock {
    staleness: usize,
    speed_factors: Vec<f64>,
    /// Per machine, when it finished its latest superstep and what that superstep cost
    /// it alone. Empty on the barriered clock, whose machines finish together.
    progress: Vec<(f64, f64)>,
    /// Each superstep the pipelined clock priced, with its watermark: the time by which
    /// every machine had finished it.
    history: Vec<(usize, f64)>,
}

impl ClusterClock {
    /// A clock for `machines` machines under a staleness window of `staleness`
    /// supersteps. Machines past the end of `speed_factors` run at nominal speed.
    ///
    /// # Panics
    ///
    /// Panics if a speed factor is not strictly positive.
    pub(crate) fn new(machines: usize, staleness: usize, speed_factors: &[f64]) -> Self {
        assert!(
            speed_factors.iter().all(|&s| s > 0.0),
            "speed factors must be strictly positive"
        );
        let pipelined = if staleness > 0 { machines } else { 0 };
        ClusterClock {
            staleness,
            speed_factors: speed_factors.to_vec(),
            progress: vec![(0.0, 0.0); pipelined],
            history: Vec::new(),
        }
    }

    /// Prices `step`, the run's next superstep: sets its simulated, CPU and
    /// barrier-wait-avoided seconds. CPU seconds price its gather, apply and scatter
    /// operations at nominal speed, summed over machines like the paper's panel.
    pub(crate) fn price(&mut self, step: &mut SuperstepMetrics) {
        let (seconds, avoided) = self.advance(step);
        let cost = &mut step.cost;
        let ops = (cost.gather_ops)
            .saturating_add(cost.apply_ops)
            .saturating_add(cost.scatter_ops);
        cost.simulated_seconds = seconds;
        cost.simulated_cpu_seconds = ops as f64 * SECONDS_PER_OP;
        cost.barrier_wait_avoided_seconds = avoided;
    }

    /// Advances the clock past `step`: its simulated seconds, and the barrier wait the
    /// pipelined clock saved on it against the barriered one (zero at staleness 0).
    fn advance(&mut self, step: &SuperstepMetrics) -> (f64, f64) {
        // A machine may start this superstep once every machine has finished the one
        // `staleness + 1` before it: the latest such watermark gates it.
        let staleness = self.staleness;
        let gate = (self.history.iter().rev())
            .find(|&&(done, _)| (done + 1).saturating_add(staleness) <= step.superstep)
            .map_or(0.0, |&(_, watermark)| watermark);
        let (mut compute, mut transfer, mut watermark) = (0.0f64, 0.0f64, 0.0f64);
        let mut clocks = self.progress.iter_mut();
        let profile = step.ops_per_machine.iter().zip(&step.bytes_per_machine);
        for (m, (&ops, &bytes)) in profile.enumerate() {
            let factor = self.speed_factors.get(m).copied().unwrap_or(1.0);
            let machine_compute = ops as f64 * SECONDS_PER_OP * factor;
            let machine_transfer = bytes as f64 / BYTES_PER_SECOND * factor;
            compute = compute.max(machine_compute);
            transfer = transfer.max(machine_transfer);
            if let Some((finish, own)) = clocks.next() {
                *own = machine_compute + machine_transfer + SUPERSTEP_OVERHEAD_SECONDS;
                *finish = finish.max(gate) + *own;
                watermark = watermark.max(*finish);
            }
        }
        // Barriered, compute and communication do not overlap.
        let barriered = compute + transfer + SUPERSTEP_OVERHEAD_SECONDS;
        if staleness == 0 {
            return (barriered, 0.0);
        }
        // Pipelined, a superstep costs the watermark's advance, so the supersteps'
        // seconds still sum to the run's makespan.
        let previous = self.history.last().map_or(0.0, |&(_, watermark)| watermark);
        self.history.push((step.superstep, watermark));
        let seconds = watermark - previous;
        (seconds, (barriered - seconds).max(0.0))
    }

    /// Each machine's finish time and own time in the latest superstep, by machine
    /// (nothing on the barriered clock).
    pub(crate) fn progress(&self) -> &[(f64, f64)] {
        &self.progress
    }

    /// When each machine finished the run: [`RunMetrics::machine_finish_seconds`].
    pub(crate) fn into_finish_seconds(self) -> Vec<f64> {
        self.progress
            .into_iter()
            .map(|(finish, _)| finish)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A superstep record with the given per-machine profile and nothing counted yet.
    fn step(ops_per_machine: Vec<u64>, bytes_per_machine: Vec<u64>) -> SuperstepMetrics {
        SuperstepMetrics {
            cost: QueryCost {
                supersteps: 1,
                ..QueryCost::default()
            },
            ops_per_machine,
            bytes_per_machine,
            ..SuperstepMetrics::default()
        }
    }

    fn run_of(num_machines: usize, supersteps: Vec<SuperstepMetrics>) -> RunMetrics {
        RunMetrics {
            supersteps,
            num_machines,
            ..RunMetrics::default()
        }
    }

    /// `step` priced as the first superstep of a barriered run at nominal speeds.
    fn priced(mut step: SuperstepMetrics) -> SuperstepMetrics {
        let machines = step.ops_per_machine.len();
        ClusterClock::new(machines, 0, &[]).price(&mut step);
        step
    }

    #[test]
    fn network_record_and_merge() {
        let mut a = step(vec![0, 0], vec![0, 0]);
        a.send(0, 1, 100);
        a.send(1, 2, 25);
        assert_eq!(a.cost.network_bytes, 150);
        assert_eq!(a.cost.network_messages, 3);
        assert_eq!(a.bytes_per_machine, vec![100, 50]);

        let mut b = step(vec![0, 0], vec![0, 0]);
        b.send(1, 1, 25);
        b.send(0, 0, 999);
        let totals = run_of(2, vec![a, b]).totals();
        assert_eq!(totals.network_bytes, 175);
        assert_eq!(totals.network_messages, 4);
    }

    #[test]
    fn work_totals_and_merge() {
        let mut w = step(vec![30, 5], vec![0, 0]);
        w.cost.gather_ops = 10;
        w.cost.apply_ops = 5;
        w.cost.scatter_ops = 20;
        // CPU prices gather + apply + scatter: 35 operations.
        let w = priced(w);
        assert_eq!(w.cost.simulated_cpu_seconds, 35.0 * SECONDS_PER_OP);

        let mut other = step(vec![0, 7], vec![0, 0]);
        other.cost.scatter_ops = 7;
        other.cost.sync_ops = 2;
        other.cost.skipped_syncs = 3;
        other.cost.skipped_scatters = 4;
        let totals = run_of(2, vec![w, other]).totals();
        assert_eq!(totals.scatter_ops, 27);
        assert_eq!(totals.sync_ops, 2);
        assert_eq!(totals.skipped_syncs, 3);
        assert_eq!(totals.skipped_scatters, 4);
    }

    #[test]
    fn counters_saturate_near_u64_max() {
        // A long-lived serving session must degrade to pinned counters, never
        // wrap (or panic in debug builds) mid-stream.
        let mut net = step(vec![0], vec![u64::MAX - 10]);
        net.cost.network_bytes = u64::MAX - 10;
        net.send(0, 1, 100);
        assert_eq!(net.cost.network_bytes, u64::MAX);
        assert_eq!(net.bytes_per_machine[0], u64::MAX);
        net.cost.network_messages = u64::MAX;
        net.send(0, 1, 7);
        assert_eq!(net.cost.network_messages, u64::MAX);
        // A count times a size past the ceiling pins too.
        net.send(0, u64::MAX, 2);
        assert_eq!(net.cost.network_messages, u64::MAX);
        assert_eq!(net.bytes_per_machine[0], u64::MAX);

        let mut w = step(vec![u64::MAX - 2], vec![0]);
        w.cost.gather_ops = u64::MAX - 1;
        w.cost.scatter_ops = u64::MAX;
        // The pinned per-kind counters must not wrap when priced either.
        let cpu = priced(w.clone()).cost.simulated_cpu_seconds;
        assert_eq!(cpu, u64::MAX as f64 * SECONDS_PER_OP);

        let run = run_of(1, vec![net.clone(), w.clone(), net, w.clone()]);
        assert!((run.work_imbalance() - 1.0).abs() < 1e-12);
        // The run totals pin at the ceiling like the counters they fold.
        let totals = run.totals();
        assert_eq!(totals.network_bytes, u64::MAX);
        assert_eq!(totals.network_messages, u64::MAX);
        assert_eq!(totals.gather_ops, u64::MAX);
        assert_eq!(totals.scatter_ops, u64::MAX);

        // Two machines pinned at the ceiling: the cross-machine sum saturates too
        // (max = u64::MAX, mean = u64::MAX / 2).
        w.ops_per_machine = vec![u64::MAX, u64::MAX];
        assert!((run_of(2, vec![w]).work_imbalance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cost_model_superstep_time_components() {
        let mut s = step(vec![1_000_000], vec![125_000_000]);
        s.cost.apply_ops = 1_000_000;
        s.cost.network_bytes = 125_000_000;
        let cost = priced(s).cost;
        let t = cost.simulated_seconds;
        // 1e6 ops * 10ns = 0.01s; 125MB at 1Gbit/s = 1s; +1ms overhead
        assert!((t - (0.01 + 1.0 + 0.001)).abs() < 1e-9, "t = {t}");
        assert!((cost.simulated_cpu_seconds - 0.01).abs() < 1e-12);
        assert_eq!(cost.barrier_wait_avoided_seconds, 0.0);
    }

    #[test]
    fn run_metrics_aggregation() {
        let mut clock = ClusterClock::new(2, 0, &[]);
        let mut run = RunMetrics {
            num_machines: 2,
            replication_factor: 1.5,
            ..RunMetrics::default()
        };
        for i in 0..3 {
            let mut s = step(vec![10, 0], vec![0, 0]);
            s.superstep = i;
            s.send(0, 1, 1000);
            s.cost.apply_ops = 10;
            s.cost.scatter_ops = 7;
            s.cost.sync_ops = 4;
            s.cost.skipped_syncs = 6;
            s.cost.skipped_scatters = 2;
            s.cost.active_vertices = 10;
            s.cost.routed_messages = 5;
            clock.price(&mut s);
            s.cost.host_seconds = 0.25;
            s.cost.max_inbox_depth = 3 + i as u64;
            s.cost.staleness_lag = 2;
            s.cost.barrier_wait_avoided_seconds = 0.5;
            run.supersteps.push(s);
        }
        let totals = run.totals();
        assert_eq!(totals.supersteps, 3);
        assert_eq!(totals.replication_factor, 1.5);
        assert_eq!(totals.active_vertices, 30);
        assert_eq!(totals.routed_messages, 15);
        assert_eq!(totals.network_bytes, 3000);
        assert_eq!(totals.network_messages, 3);
        assert_eq!(totals.gather_ops, 0);
        assert_eq!(totals.apply_ops, 30);
        assert_eq!(totals.scatter_ops, 21);
        assert_eq!(totals.sync_ops, 12);
        assert_eq!(totals.skipped_syncs, 18);
        assert_eq!(totals.skipped_scatters, 6);
        assert_eq!(totals.staleness_lag, 6);
        // The deepest backlog, not the sum.
        assert_eq!(totals.max_inbox_depth, 5);
        // Floats are added from 0.0 in superstep order: equal to the last bit.
        let in_order = |field: fn(&QueryCost) -> f64| {
            let mut sum = 0.0;
            for step in &run.supersteps {
                sum += field(&step.cost);
            }
            sum
        };
        assert!(totals.simulated_seconds > 0.0);
        assert_eq!(totals.simulated_seconds, in_order(|c| c.simulated_seconds));
        assert!(totals.simulated_cpu_seconds > 0.0);
        assert_eq!(
            totals.simulated_cpu_seconds,
            in_order(|c| c.simulated_cpu_seconds)
        );
        assert_eq!(totals.host_seconds, in_order(|c| c.host_seconds));
        assert_eq!(totals.host_seconds, 0.75);
        assert_eq!(
            totals.barrier_wait_avoided_seconds,
            in_order(|c| c.barrier_wait_avoided_seconds)
        );
        assert_eq!(totals.barrier_wait_avoided_seconds, 1.5);
    }

    #[test]
    fn empty_run_metrics() {
        let run = RunMetrics::default();
        let totals = run.totals();
        assert_eq!(totals, QueryCost::default());
        assert_eq!(totals.supersteps, 0);
        assert_eq!(totals.network_bytes, 0);
        assert_eq!(totals.simulated_cpu_seconds, 0.0);
        assert_eq!(totals.staleness_lag, 0);
        assert_eq!(totals.max_inbox_depth, 0);
        assert_eq!(totals.barrier_wait_avoided_seconds, 0.0);
        assert_eq!(run.work_imbalance(), 1.0);
    }

    #[test]
    fn per_machine_superstep_seconds_never_exceed_the_barriered_maxima() {
        // One machine is compute-heavy, the other network-heavy: the barriered clock
        // charges max(ops) + max(bytes), the pipelined one charges each machine its own
        // combined cost, so every machine's clock advances by no more than the barriered
        // superstep time.
        let s = step(vec![1_000_000, 10_000], vec![1_000, 125_000_000]);
        let barriered = priced(s.clone()).cost.simulated_seconds;
        let mut clock = ClusterClock::new(2, 1, &[]);
        let mut pipelined = s;
        clock.price(&mut pipelined);
        for (m, &(finish, own)) in clock.progress().iter().enumerate() {
            assert!(own <= barriered, "machine {m}: {own} > {barriered}");
            // The first superstep starts at zero on every machine.
            assert_eq!(finish, own);
        }
        // And the components reconcile: 1e6 ops * 10ns + 1kB at 1Gbit/s + 1ms.
        let (_, m0) = clock.progress()[0];
        assert!((m0 - (0.01 + 1_000.0 / 125_000_000.0 + 0.001)).abs() < 1e-12);
        let cost = pipelined.cost;
        assert!(cost.simulated_seconds <= barriered);
        assert_eq!(
            cost.barrier_wait_avoided_seconds,
            barriered - cost.simulated_seconds
        );
    }

    #[test]
    fn pipelined_clock_overlaps_supersteps_and_waits_for_the_watermark() {
        // Two machines; 100 000 operations are 1 ms of compute, on top of the 1 ms every
        // superstep costs. Returns the priced run and each machine's finish time.
        let run = |staleness: usize, ops: &[[u64; 2]]| {
            let mut clock = ClusterClock::new(2, staleness, &[]);
            let mut supersteps = Vec::new();
            for (superstep, ops) in ops.iter().enumerate() {
                let mut s = SuperstepMetrics {
                    superstep,
                    ..step(ops.to_vec(), vec![0, 0])
                };
                clock.price(&mut s);
                supersteps.push(s);
            }
            let finish: Vec<f64> = clock.progress().iter().map(|p| p.0).collect();
            let run = RunMetrics {
                staleness,
                ..run_of(2, supersteps)
            };
            (run, finish)
        };
        let close = |a: f64, b: f64| (a - b).abs() < 1e-15;
        let seconds = |run: &RunMetrics, field: fn(&QueryCost) -> f64| -> Vec<f64> {
            run.supersteps.iter().map(|s| field(&s.cost)).collect()
        };

        // The load alternates between the machines. Barriered, every superstep waits
        // 2 ms for the loaded one; with one superstep of slack the idle machine runs
        // ahead, and the middle superstep only advances the watermark by 1 ms.
        let alternating = [[100_000, 0], [0, 100_000], [100_000, 0]];
        let (barriered, finish) = run(0, &alternating);
        assert!(finish.is_empty());
        assert!(close(barriered.totals().simulated_seconds, 6e-3));
        let (pipelined, finish) = run(1, &alternating);
        let expected = [(2e-3, 0.0), (1e-3, 1e-3), (2e-3, 0.0)];
        let charged = seconds(&pipelined, |c| c.simulated_seconds);
        let avoided = seconds(&pipelined, |c| c.barrier_wait_avoided_seconds);
        for (i, (seconds, saved)) in expected.into_iter().enumerate() {
            assert!(close(charged[i], seconds), "{charged:?}");
            assert!(close(avoided[i], saved), "{avoided:?}");
        }
        assert!(
            close(finish[0], 5e-3) && close(finish[1], 4e-3),
            "{finish:?}"
        );
        // Repricing at nominal speeds replays the run's own clock, to the bit.
        let totals = pipelined.totals();
        assert!(close(totals.simulated_seconds, 5e-3));
        assert_eq!(pipelined.reprice(&[1.0, 1.0]), totals.simulated_seconds);
        assert!(pipelined.reprice(&[2.0, 1.0]) > totals.simulated_seconds);

        // Machine 1 idles, but may start superstep 2 only once every machine has
        // finished superstep 0, at 11 ms: it finishes at 12 ms, not at 3 ms.
        let (gated, finish) = run(1, &[[1_000_000, 0], [0, 0], [0, 0]]);
        assert!(
            close(finish[0], 13e-3) && close(finish[1], 12e-3),
            "{finish:?}"
        );
        assert!(close(gated.totals().simulated_seconds, 13e-3));
    }

    #[test]
    fn heterogeneous_superstep_time_is_set_by_the_straggler() {
        let run = run_of(
            2,
            vec![priced(step(vec![1_000_000, 1_000_000], vec![0, 0]))],
        );

        let uniform = run.reprice(&[1.0, 1.0]);
        assert_eq!(uniform, run.totals().simulated_seconds);

        // Slowing down one machine by 4x inflates the barrier-to-barrier time by ~4x
        // of the compute component, even though half the work is unaffected.
        let straggler = run.reprice(&[1.0, 4.0]);
        let expected = 1_000_000.0 * SECONDS_PER_OP * 4.0 + SUPERSTEP_OVERHEAD_SECONDS;
        assert!(
            (straggler - expected).abs() < 1e-12,
            "straggler {straggler}"
        );
        // Missing entries default to nominal speed.
        let partial = run.reprice(&[2.0]);
        assert!(partial > uniform && partial < straggler);
    }

    #[test]
    #[should_panic(expected = "speed factors must be strictly positive")]
    fn heterogeneous_model_rejects_zero_speed() {
        let _ = run_of(1, vec![step(vec![0], vec![0])]).reprice(&[0.0]);
    }

    #[test]
    fn run_metrics_hetero_and_imbalance() {
        let mut s = step(vec![200, 100], vec![0, 0]);
        s.cost.apply_ops = 300;
        s.cost.active_vertices = 10;
        let run = RunMetrics {
            replication_factor: 1.0,
            ..run_of(2, vec![priced(s)])
        };

        // max = 200, mean = 150
        assert!((run.work_imbalance() - 200.0 / 150.0).abs() < 1e-12);
        let nominal = run.reprice(&[1.0, 1.0]);
        assert_eq!(nominal, run.totals().simulated_seconds);
        let slowed = run.reprice(&[10.0, 1.0]);
        assert!(slowed > nominal);
    }

    #[test]
    fn absorb_saturates_counters_and_takes_the_max_inbox_depth() {
        let mut total = QueryCost {
            replication_factor: 2.5,
            network_bytes: u64::MAX - 1,
            supersteps: usize::MAX,
            walk_hops: 5,
            max_inbox_depth: 4,
            ..QueryCost::default()
        };
        for (max_inbox_depth, index_served) in [(9, false), (6, true)] {
            total.absorb(&QueryCost {
                replication_factor: 1.0,
                network_bytes: 10,
                supersteps: 3,
                walk_hops: 7,
                simulated_seconds: 0.5,
                max_inbox_depth,
                index_served,
                ..QueryCost::default()
            });
        }
        // Pinned at the ceiling, not wrapped; everything else simply adds.
        assert_eq!(total.network_bytes, u64::MAX);
        assert_eq!(total.supersteps, usize::MAX);
        assert_eq!(total.walk_hops, 19);
        assert_eq!(total.simulated_seconds, 1.0);
        assert_eq!(total.max_inbox_depth, 9);
        assert!(total.index_served);
        assert_eq!(total.replication_factor, 2.5);
    }

    #[test]
    fn equality_ignores_host_seconds_only() {
        let cost = QueryCost {
            skipped_syncs: 3,
            host_seconds: 0.25,
            ..QueryCost::default()
        };
        assert_eq!(
            cost,
            QueryCost {
                host_seconds: 9.0,
                ..cost
            }
        );
        assert_ne!(
            cost,
            QueryCost {
                skipped_syncs: 4,
                ..cost
            }
        );
        assert_ne!(
            cost,
            QueryCost {
                sync_ops: 1,
                ..cost
            }
        );
    }

    #[test]
    fn seconds_per_iteration_is_the_mean_and_zero_without_supersteps() {
        let cost = QueryCost {
            supersteps: 4,
            simulated_seconds: 2.0,
            ..QueryCost::default()
        };
        assert_eq!(cost.seconds_per_iteration(), 0.5);
        assert_eq!(QueryCost::default().seconds_per_iteration(), 0.0);
    }
}
