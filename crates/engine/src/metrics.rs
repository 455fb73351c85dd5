//! Cost accounting: network traffic, per-machine work, and a simulated cluster-time
//! model.
//!
//! The paper's Figure 1 reports four panels per configuration — time per iteration,
//! total time, network bytes sent, and CPU time. Wall-clock on the real 24-node EC2
//! cluster cannot be reproduced on a single host, so the engine accounts the underlying
//! quantities exactly (bytes crossing machine boundaries, per-machine work operations)
//! and converts them to time through an explicit, documented [`CostModel`]. The *shape*
//! of the paper's results (orderings, ratios, scaling trends) depends only on these
//! counts, not on the absolute constants.

use serde::{Deserialize, Serialize};

/// Network traffic counters.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Total bytes sent across machine boundaries.
    pub bytes_sent: u64,
    /// Total number of point-to-point messages sent across machine boundaries
    /// (after per-machine combining).
    pub messages_sent: u64,
    /// Bytes sent by each machine.
    pub bytes_per_machine: Vec<u64>,
}

impl NetworkStats {
    /// Creates counters for a cluster of `num_machines`.
    pub fn new(num_machines: usize) -> Self {
        NetworkStats {
            bytes_sent: 0,
            messages_sent: 0,
            bytes_per_machine: vec![0; num_machines],
        }
    }

    /// Records `bytes` sent by `from_machine` to a different machine. Counters
    /// saturate: a long-lived accumulation pins at the ceiling, never wraps.
    pub fn record(&mut self, from_machine: usize, bytes: u64) {
        debug_assert!(from_machine < self.bytes_per_machine.len());
        self.bytes_sent = self.bytes_sent.saturating_add(bytes);
        self.messages_sent = self.messages_sent.saturating_add(1);
        if let Some(per) = self.bytes_per_machine.get_mut(from_machine) {
            *per = per.saturating_add(bytes);
        }
    }

    /// Merges another counter into this one (used when aggregating per-superstep stats).
    pub fn merge(&mut self, other: &NetworkStats) {
        self.bytes_sent = self.bytes_sent.saturating_add(other.bytes_sent);
        self.messages_sent = self.messages_sent.saturating_add(other.messages_sent);
        if self.bytes_per_machine.len() < other.bytes_per_machine.len() {
            self.bytes_per_machine
                .resize(other.bytes_per_machine.len(), 0);
        }
        for (a, b) in self
            .bytes_per_machine
            .iter_mut()
            .zip(&other.bytes_per_machine)
        {
            *a = a.saturating_add(*b);
        }
    }

    /// The largest per-machine byte count — the bottleneck link in a superstep.
    pub fn max_machine_bytes(&self) -> u64 {
        self.bytes_per_machine.iter().copied().max().unwrap_or(0)
    }
}

/// Per-machine computational work counters ("CPU usage" in the paper's terminology).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkStats {
    /// Edge gather operations executed.
    pub gather_ops: u64,
    /// Vertex apply operations executed.
    pub apply_ops: u64,
    /// Edge scatter operations executed (per emitted or considered out-edge).
    pub scatter_ops: u64,
    /// Mirror synchronizations performed (state copies pushed over the network).
    pub sync_ops: u64,
    /// Mirror synchronizations *skipped* because of partial synchronization.
    pub skipped_syncs: u64,
    /// Active vertices that scheduled no scatter this superstep because their delta
    /// fell at or below the executor's tolerance (delta gating; a vertex with nothing
    /// left to send reports zero).
    pub skipped_scatters: u64,
    /// Work operations per machine (gather + apply + scatter attributed to the machine
    /// that executed them).
    pub ops_per_machine: Vec<u64>,
}

impl WorkStats {
    /// Creates counters for a cluster of `num_machines`.
    pub fn new(num_machines: usize) -> Self {
        WorkStats {
            ops_per_machine: vec![0; num_machines],
            ..WorkStats::default()
        }
    }

    /// Total work operations across all machines. Saturating: three pinned
    /// counters must not wrap back past zero when summed.
    pub fn total_ops(&self) -> u64 {
        self.gather_ops
            .saturating_add(self.apply_ops)
            .saturating_add(self.scatter_ops)
    }

    /// The busiest machine's operation count — the compute critical path of a superstep.
    pub fn max_machine_ops(&self) -> u64 {
        self.ops_per_machine.iter().copied().max().unwrap_or(0)
    }

    /// Merges another counter into this one. Saturating, like
    /// [`NetworkStats::merge`].
    pub fn merge(&mut self, other: &WorkStats) {
        self.gather_ops = self.gather_ops.saturating_add(other.gather_ops);
        self.apply_ops = self.apply_ops.saturating_add(other.apply_ops);
        self.scatter_ops = self.scatter_ops.saturating_add(other.scatter_ops);
        self.sync_ops = self.sync_ops.saturating_add(other.sync_ops);
        self.skipped_syncs = self.skipped_syncs.saturating_add(other.skipped_syncs);
        self.skipped_scatters = self.skipped_scatters.saturating_add(other.skipped_scatters);
        if self.ops_per_machine.len() < other.ops_per_machine.len() {
            self.ops_per_machine.resize(other.ops_per_machine.len(), 0);
        }
        for (a, b) in self.ops_per_machine.iter_mut().zip(&other.ops_per_machine) {
            *a = a.saturating_add(*b);
        }
    }
}

/// Converts counted work and traffic into simulated seconds.
///
/// Default constants are calibrated to commodity hardware of the paper's era
/// (m3.xlarge-class machines on 1 GbE): ~10 ns per edge/vertex operation, 1 Gbit/s
/// usable per-machine bandwidth, 1 ms per-superstep barrier/latency overhead. The
/// absolute values only shift every series by a constant factor; comparisons between
/// algorithms use the same model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Seconds of CPU time per work operation (gather/apply/scatter op).
    pub seconds_per_op: f64,
    /// Usable network bandwidth per machine, bytes per second.
    pub bytes_per_second: f64,
    /// Fixed per-superstep overhead (barrier, scheduling), seconds.
    pub superstep_overhead: f64,
    /// Per-message fixed overhead in bytes (headers, vertex ids, routing).
    pub message_header_bytes: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            seconds_per_op: 10e-9,
            bytes_per_second: 125_000_000.0, // 1 Gbit/s
            superstep_overhead: 1e-3,
            message_header_bytes: 12,
        }
    }
}

impl CostModel {
    /// Simulated wall-clock seconds for one superstep: the busiest machine's compute
    /// time plus the bottleneck link's transfer time plus the barrier overhead.
    /// (Compute and communication are *not* overlapped, matching the synchronous
    /// engine the paper modifies.)
    pub fn superstep_seconds(&self, work: &WorkStats, net: &NetworkStats) -> f64 {
        let compute = work.max_machine_ops() as f64 * self.seconds_per_op;
        let transfer = net.max_machine_bytes() as f64 / self.bytes_per_second;
        compute + transfer + self.superstep_overhead
    }

    /// Simulated aggregate CPU seconds (summed over machines, like the paper's
    /// "CPU usage" panel which can exceed wall-clock time).
    pub fn cpu_seconds(&self, work: &WorkStats) -> f64 {
        work.total_ops() as f64 * self.seconds_per_op
    }

    /// Simulated seconds a **single machine** spends on one superstep: its own
    /// operations, its own outbound traffic, and the per-superstep scheduling
    /// overhead. This is the per-machine term the bounded-staleness executor
    /// pipelines (each machine advances on its own clock, gated only by the
    /// staleness watermark); the synchronous model instead takes the
    /// component-wise maxima across machines — see
    /// [`CostModel::superstep_seconds`].
    pub fn machine_superstep_seconds(&self, ops: u64, bytes: u64) -> f64 {
        ops as f64 * self.seconds_per_op
            + bytes as f64 / self.bytes_per_second
            + self.superstep_overhead
    }

    /// Simulated wall-clock seconds for one superstep on a **heterogeneous** cluster:
    /// machine `m` executes its operations `speed_factors[m]` times slower than the
    /// baseline (1.0 = nominal speed, 2.0 = half as fast). The synchronous barrier means
    /// the slowest machine sets the pace, so a single straggler inflates every
    /// superstep — the straggler-sensitivity ablation quantifies how much of that
    /// inflation each algorithm feels.
    ///
    /// Missing entries (machines beyond `speed_factors.len()`) run at nominal speed.
    ///
    /// # Panics
    ///
    /// Panics if any provided speed factor is not strictly positive.
    pub fn superstep_seconds_hetero(
        &self,
        work: &WorkStats,
        net: &NetworkStats,
        speed_factors: &[f64],
    ) -> f64 {
        assert!(
            speed_factors.iter().all(|&s| s > 0.0),
            "speed factors must be strictly positive"
        );
        let factor = |m: usize| speed_factors.get(m).copied().unwrap_or(1.0);
        let compute = work
            .ops_per_machine
            .iter()
            .enumerate()
            .map(|(m, &ops)| ops as f64 * self.seconds_per_op * factor(m))
            .fold(0.0f64, f64::max);
        let transfer = net
            .bytes_per_machine
            .iter()
            .enumerate()
            .map(|(m, &bytes)| bytes as f64 / self.bytes_per_second * factor(m))
            .fold(0.0f64, f64::max);
        compute + transfer + self.superstep_overhead
    }
}

/// Metrics for a single superstep.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SuperstepMetrics {
    /// Superstep index (0-based).
    pub superstep: usize,
    /// Number of active vertices at the start of the superstep (the frontier size).
    pub active_vertices: usize,
    /// Messages delivered to master inboxes at the end of the superstep, after
    /// per-machine combining — local deliveries included, unlike
    /// [`NetworkStats::messages_sent`] which counts only cross-machine traffic.
    pub routed_messages: u64,
    /// Network counters for the superstep.
    pub network: NetworkStats,
    /// Work counters for the superstep.
    pub work: WorkStats,
    /// Simulated wall-clock seconds for the superstep.
    pub simulated_seconds: f64,
    /// Real (host) seconds the simulator spent executing the superstep.
    pub host_seconds: f64,
    /// Messages sitting in the bounded-staleness staging inbox at the end of this
    /// superstep whose delivery is deferred *past* the next superstep's drain point.
    /// Always 0 under synchronous execution (`staleness = 0`), where every message
    /// becomes visible exactly one superstep after it was produced.
    pub inbox_depth: u64,
    /// Summed delivery lag, in supersteps, of the messages drained at the start of
    /// this superstep — how late each arrived relative to synchronous delivery.
    /// Always 0 under synchronous execution.
    pub staleness_lag: u64,
    /// Simulated barrier-wait seconds this superstep avoided relative to the
    /// synchronous cost model: the difference between the barriered superstep time
    /// and the pipelined watermark advance. Always 0 under synchronous execution.
    pub barrier_wait_avoided_seconds: f64,
}

/// Aggregated metrics for a full run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Per-superstep metrics in execution order.
    pub supersteps: Vec<SuperstepMetrics>,
    /// Replication factor of the partitioning used.
    pub replication_factor: f64,
    /// Number of machines in the simulated cluster.
    pub num_machines: usize,
    /// Per-machine finish times on the pipelined watermark clock (simulated
    /// seconds), indexed by machine — the run's straggler profile. Empty for
    /// synchronous runs (`staleness = 0`), where every machine finishes each
    /// superstep together at the barrier.
    pub machine_finish_seconds: Vec<f64>,
}

impl RunMetrics {
    /// The whole run folded into one [`SuperstepMetrics`]: `network` and `work`
    /// merged (saturating, like every counter here), `routed_messages`,
    /// `active_vertices` and `staleness_lag` summed (saturating), each `f64` field
    /// added up in superstep order, `inbox_depth` the deepest backlog any superstep
    /// ended with, and `superstep` the number of supersteps executed.
    pub fn totals(&self) -> SuperstepMetrics {
        let mut totals = SuperstepMetrics {
            superstep: self.supersteps.len(),
            ..SuperstepMetrics::default()
        };
        for step in &self.supersteps {
            totals.active_vertices = totals.active_vertices.saturating_add(step.active_vertices);
            totals.routed_messages = totals.routed_messages.saturating_add(step.routed_messages);
            totals.network.merge(&step.network);
            totals.work.merge(&step.work);
            totals.simulated_seconds += step.simulated_seconds;
            totals.host_seconds += step.host_seconds;
            totals.inbox_depth = totals.inbox_depth.max(step.inbox_depth);
            totals.staleness_lag = totals.staleness_lag.saturating_add(step.staleness_lag);
            totals.barrier_wait_avoided_seconds += step.barrier_wait_avoided_seconds;
        }
        totals
    }

    /// Total simulated CPU seconds under `model`, priced superstep by superstep.
    pub fn total_cpu_seconds(&self, model: &CostModel) -> f64 {
        self.supersteps
            .iter()
            .map(|s| model.cpu_seconds(&s.work))
            .sum()
    }

    /// Re-prices the whole run on a heterogeneous cluster where machine `m` runs
    /// `speed_factors[m]` times slower than nominal (see
    /// [`CostModel::superstep_seconds_hetero`]). Because the per-superstep counters are
    /// retained, the same run can be re-evaluated under any straggler scenario without
    /// re-executing the engine.
    pub fn total_simulated_seconds_hetero(&self, model: &CostModel, speed_factors: &[f64]) -> f64 {
        self.supersteps
            .iter()
            .map(|s| model.superstep_seconds_hetero(&s.work, &s.network, speed_factors))
            .sum()
    }

    /// Ratio between the busiest and the average machine's total work over the run —
    /// 1.0 means perfectly balanced compute.
    pub fn work_imbalance(&self) -> f64 {
        if self.num_machines == 0 {
            return 1.0;
        }
        let per_machine = self.totals().work.ops_per_machine;
        let max = per_machine.iter().copied().max().unwrap_or(0) as f64;
        let total = per_machine
            .iter()
            .fold(0u64, |sum, &ops| sum.saturating_add(ops));
        let mean = total as f64 / self.num_machines as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_record_and_merge() {
        let mut a = NetworkStats::new(2);
        a.record(0, 100);
        a.record(1, 50);
        assert_eq!(a.bytes_sent, 150);
        assert_eq!(a.messages_sent, 2);
        assert_eq!(a.bytes_per_machine, vec![100, 50]);
        assert_eq!(a.max_machine_bytes(), 100);

        let mut b = NetworkStats::new(2);
        b.record(1, 25);
        a.merge(&b);
        assert_eq!(a.bytes_sent, 175);
        assert_eq!(a.bytes_per_machine, vec![100, 75]);
    }

    #[test]
    fn work_totals_and_merge() {
        let mut w = WorkStats::new(2);
        w.gather_ops = 10;
        w.apply_ops = 5;
        w.scatter_ops = 20;
        w.ops_per_machine = vec![30, 5];
        assert_eq!(w.total_ops(), 35);
        assert_eq!(w.max_machine_ops(), 30);

        let mut other = WorkStats::new(2);
        other.scatter_ops = 7;
        other.skipped_syncs = 3;
        other.skipped_scatters = 4;
        other.ops_per_machine = vec![0, 7];
        w.merge(&other);
        assert_eq!(w.scatter_ops, 27);
        assert_eq!(w.skipped_syncs, 3);
        assert_eq!(w.skipped_scatters, 4);
        assert_eq!(w.ops_per_machine, vec![30, 12]);
    }

    #[test]
    fn counters_saturate_near_u64_max() {
        // A long-lived serving session must degrade to pinned counters, never
        // wrap (or panic in debug builds) mid-stream.
        let mut net = NetworkStats::new(1);
        net.bytes_sent = u64::MAX - 10;
        net.bytes_per_machine[0] = u64::MAX - 10;
        net.record(0, 100);
        assert_eq!(net.bytes_sent, u64::MAX);
        assert_eq!(net.bytes_per_machine[0], u64::MAX);
        let mut other = NetworkStats::new(1);
        other.bytes_sent = u64::MAX;
        other.messages_sent = u64::MAX;
        other.bytes_per_machine[0] = 7;
        net.merge(&other);
        assert_eq!(net.bytes_sent, u64::MAX);
        assert_eq!(net.messages_sent, u64::MAX);
        assert_eq!(net.bytes_per_machine[0], u64::MAX);

        let mut w = WorkStats::new(1);
        w.gather_ops = u64::MAX - 1;
        w.scatter_ops = u64::MAX;
        w.ops_per_machine[0] = u64::MAX - 2;
        let mut o = WorkStats::new(1);
        o.gather_ops = 5;
        o.apply_ops = 3;
        o.ops_per_machine = vec![100];
        w.merge(&o);
        assert_eq!(w.gather_ops, u64::MAX);
        assert_eq!(w.ops_per_machine[0], u64::MAX);
        // The pinned per-kind counters must not wrap when totalled either.
        assert_eq!(w.total_ops(), u64::MAX);

        let mut run = RunMetrics {
            num_machines: 1,
            ..RunMetrics::default()
        };
        run.supersteps.push(SuperstepMetrics {
            network: net.clone(),
            work: w.clone(),
            ..SuperstepMetrics::default()
        });
        run.supersteps.push(SuperstepMetrics {
            network: net,
            work: w.clone(),
            ..SuperstepMetrics::default()
        });
        assert!((run.work_imbalance() - 1.0).abs() < 1e-12);
        // The run totals pin at the ceiling like the counters they fold.
        let totals = run.totals();
        assert_eq!(totals.network.bytes_sent, u64::MAX);
        assert_eq!(totals.network.messages_sent, u64::MAX);
        assert_eq!(totals.work.total_ops(), u64::MAX);

        // Two machines pinned at the ceiling: the cross-machine sum saturates too
        // (max = u64::MAX, mean = u64::MAX / 2).
        w.ops_per_machine = vec![u64::MAX, u64::MAX];
        let two = RunMetrics {
            num_machines: 2,
            supersteps: vec![SuperstepMetrics {
                work: w,
                ..SuperstepMetrics::default()
            }],
            ..RunMetrics::default()
        };
        assert!((two.work_imbalance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cost_model_superstep_time_components() {
        let model = CostModel::default();
        let mut work = WorkStats::new(1);
        work.ops_per_machine = vec![1_000_000];
        work.apply_ops = 1_000_000;
        let mut net = NetworkStats::new(1);
        net.bytes_per_machine = vec![125_000_000];
        net.bytes_sent = 125_000_000;
        let t = model.superstep_seconds(&work, &net);
        // 1e6 ops * 10ns = 0.01s; 125MB at 1Gbit/s = 1s; +1ms overhead
        assert!((t - (0.01 + 1.0 + 0.001)).abs() < 1e-9, "t = {t}");
        assert!((model.cpu_seconds(&work) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn run_metrics_aggregation() {
        let model = CostModel::default();
        let mut run = RunMetrics {
            num_machines: 2,
            replication_factor: 1.5,
            ..RunMetrics::default()
        };
        for i in 0..3 {
            let mut net = NetworkStats::new(2);
            net.record(0, 1000);
            let mut work = WorkStats::new(2);
            work.apply_ops = 10;
            work.scatter_ops = 7;
            work.sync_ops = 4;
            work.skipped_syncs = 6;
            work.skipped_scatters = 2;
            work.ops_per_machine = vec![10, 0];
            let simulated = model.superstep_seconds(&work, &net);
            run.supersteps.push(SuperstepMetrics {
                superstep: i,
                active_vertices: 10,
                routed_messages: 5,
                network: net,
                work,
                simulated_seconds: simulated,
                host_seconds: 0.25,
                inbox_depth: 3 + i as u64,
                staleness_lag: 2,
                barrier_wait_avoided_seconds: 0.5,
            });
        }
        let totals = run.totals();
        assert_eq!(totals.superstep, 3);
        assert_eq!(totals.active_vertices, 30);
        assert_eq!(totals.routed_messages, 15);
        assert_eq!(totals.network.bytes_sent, 3000);
        assert_eq!(totals.network.messages_sent, 3);
        assert_eq!(totals.network.bytes_per_machine, vec![3000, 0]);
        assert_eq!(totals.work.total_ops(), 51);
        assert_eq!(totals.work.gather_ops, 0);
        assert_eq!(totals.work.apply_ops, 30);
        assert_eq!(totals.work.scatter_ops, 21);
        assert_eq!(totals.work.sync_ops, 12);
        assert_eq!(totals.work.skipped_syncs, 18);
        assert_eq!(totals.work.skipped_scatters, 6);
        assert_eq!(totals.work.ops_per_machine, vec![30, 0]);
        assert_eq!(totals.staleness_lag, 6);
        // The deepest backlog, not the sum.
        assert_eq!(totals.inbox_depth, 5);
        // Floats are added from 0.0 in superstep order: equal to the last bit.
        let in_order = |field: fn(&SuperstepMetrics) -> f64| {
            let mut sum = 0.0;
            for step in &run.supersteps {
                sum += field(step);
            }
            sum
        };
        assert!(totals.simulated_seconds > 0.0);
        assert_eq!(totals.simulated_seconds, in_order(|s| s.simulated_seconds));
        assert_eq!(totals.host_seconds, in_order(|s| s.host_seconds));
        assert_eq!(totals.host_seconds, 0.75);
        assert_eq!(
            totals.barrier_wait_avoided_seconds,
            in_order(|s| s.barrier_wait_avoided_seconds)
        );
        assert_eq!(totals.barrier_wait_avoided_seconds, 1.5);
        assert!(run.total_cpu_seconds(&model) > 0.0);
    }

    #[test]
    fn empty_run_metrics() {
        let run = RunMetrics::default();
        let totals = run.totals();
        assert_eq!(totals.superstep, 0);
        assert_eq!(totals.network, NetworkStats::default());
        assert_eq!(totals.work, WorkStats::default());
        assert_eq!(totals.staleness_lag, 0);
        assert_eq!(totals.inbox_depth, 0);
        assert_eq!(totals.barrier_wait_avoided_seconds, 0.0);
        assert_eq!(run.work_imbalance(), 1.0);
    }

    #[test]
    fn per_machine_superstep_seconds_never_exceed_the_barriered_maxima() {
        let model = CostModel::default();
        // One machine is compute-heavy, the other network-heavy: the synchronous
        // model charges max(ops) + max(bytes), the per-machine term charges each
        // machine its own combined cost, so every machine's clock advances by no
        // more than the barriered superstep time.
        let mut work = WorkStats::new(2);
        work.ops_per_machine = vec![1_000_000, 10_000];
        work.apply_ops = 1_010_000;
        let mut net = NetworkStats::new(2);
        net.bytes_per_machine = vec![1_000, 125_000_000];
        net.bytes_sent = 125_001_000;
        let sync = model.superstep_seconds(&work, &net);
        for m in 0..2 {
            let own =
                model.machine_superstep_seconds(work.ops_per_machine[m], net.bytes_per_machine[m]);
            assert!(own <= sync, "machine {m}: {own} > {sync}");
        }
        // And the components reconcile: 1e6 ops * 10ns + 1kB at 1Gbit/s + 1ms.
        let m0 = model.machine_superstep_seconds(1_000_000, 1_000);
        assert!((m0 - (0.01 + 1_000.0 / 125_000_000.0 + 0.001)).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_superstep_time_is_set_by_the_straggler() {
        let model = CostModel::default();
        let mut work = WorkStats::new(2);
        work.ops_per_machine = vec![1_000_000, 1_000_000];
        work.apply_ops = 2_000_000;
        let net = NetworkStats::new(2);

        let uniform = model.superstep_seconds_hetero(&work, &net, &[1.0, 1.0]);
        let homogeneous = model.superstep_seconds(&work, &net);
        assert!((uniform - homogeneous).abs() < 1e-12);

        // Slowing down one machine by 4x inflates the barrier-to-barrier time by ~4x
        // of the compute component, even though half the work is unaffected.
        let straggler = model.superstep_seconds_hetero(&work, &net, &[1.0, 4.0]);
        let expected = 1_000_000.0 * model.seconds_per_op * 4.0 + model.superstep_overhead;
        assert!(
            (straggler - expected).abs() < 1e-12,
            "straggler {straggler}"
        );
        // Missing entries default to nominal speed.
        let partial = model.superstep_seconds_hetero(&work, &net, &[2.0]);
        assert!(partial > uniform && partial < straggler);
    }

    #[test]
    #[should_panic(expected = "speed factors must be strictly positive")]
    fn heterogeneous_model_rejects_zero_speed() {
        let model = CostModel::default();
        let work = WorkStats::new(1);
        let net = NetworkStats::new(1);
        let _ = model.superstep_seconds_hetero(&work, &net, &[0.0]);
    }

    #[test]
    fn run_metrics_hetero_and_imbalance() {
        let model = CostModel::default();
        let mut run = RunMetrics {
            num_machines: 2,
            replication_factor: 1.0,
            ..RunMetrics::default()
        };
        let mut work = WorkStats::new(2);
        work.apply_ops = 300;
        work.ops_per_machine = vec![200, 100];
        let net = NetworkStats::new(2);
        let simulated = model.superstep_seconds(&work, &net);
        run.supersteps.push(SuperstepMetrics {
            superstep: 0,
            active_vertices: 10,
            routed_messages: 0,
            network: net,
            work,
            simulated_seconds: simulated,
            ..SuperstepMetrics::default()
        });

        // max = 200, mean = 150
        assert!((run.work_imbalance() - 200.0 / 150.0).abs() < 1e-12);
        let nominal = run.total_simulated_seconds_hetero(&model, &[1.0, 1.0]);
        assert!((nominal - run.totals().simulated_seconds).abs() < 1e-12);
        let slowed = run.total_simulated_seconds_hetero(&model, &[10.0, 1.0]);
        assert!(slowed > nominal);
    }
}
