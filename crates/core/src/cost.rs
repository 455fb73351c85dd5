//! The one cost record. The paper's result is a ratio of costs (FrogWild vs GraphLab
//! PR on time, network and CPU at matched accuracy), so every cost number in the crate
//! is a [`QueryCost`]: [`RunReport::cost`](crate::driver::RunReport::cost),
//! [`Response::cost`](crate::session::Response::cost) and
//! [`SessionStats::totals`](crate::session::SessionStats::totals).

use frogwild_engine::{CostModel, RunMetrics};

use crate::walkindex::IndexServeStats;

/// Cost of one run or one answered query.
///
/// The engine fields are one row of the paper's Figure 1 (total time, network sent,
/// CPU usage; time per iteration is [`QueryCost::seconds_per_iteration`]) plus the
/// executor's frontier and staleness counters. The work-unit fields make the serving
/// paths comparable: `push_ops` and `walk_hops` count the local-push and
/// walk-sampling work of serial queries, and the `index_*` fields report the
/// cached-segment economics when a [walk index](crate::walkindex) answered the query.
/// Partitioning never appears here: a session pays for its vertex-cut once, at
/// [`SessionBuilder::build`](crate::session::SessionBuilder::build), and reports it
/// in [`SessionStats`](crate::session::SessionStats).
///
/// Equality ignores `host_seconds`: host time is wall-clock measurement noise, while
/// every other field is a deterministic function of the query and the session seed.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryCost {
    /// Replication factor of the vertex-cut the work ran on.
    pub replication_factor: f64,
    /// Engine supersteps executed (zero for serial and index-served queries).
    pub supersteps: usize,
    /// Simulated bytes crossing machine boundaries (Figure 1c / "Network sent").
    pub network_bytes: u64,
    /// Simulated cross-machine messages after combining.
    pub network_messages: u64,
    /// Simulated cluster wall-clock seconds (Figure 1b / "Total time").
    pub simulated_seconds: f64,
    /// Simulated CPU seconds summed over machines (Figure 1d / "CPU usage").
    pub simulated_cpu_seconds: f64,
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
    /// Deepest staging inbox observed over the run's supersteps (messages staged
    /// beyond the next superstep's drain point) — zero for synchronous runs.
    pub max_inbox_depth: u64,
    /// Simulated seconds of barrier wait the staleness window overlapped away,
    /// relative to fully barriered supersteps — zero for synchronous runs.
    pub barrier_wait_avoided_seconds: f64,
    /// Real (host) seconds spent: the engine's own for a driver run, the whole
    /// query's for a session response. Excluded from equality.
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
    /// The cost of one engine run, priced under the model the engine itself prices
    /// with. `host_seconds` is the time the engine itself measured.
    pub(crate) fn from_metrics(metrics: &RunMetrics) -> Self {
        let totals = metrics.totals();
        QueryCost {
            replication_factor: metrics.replication_factor,
            supersteps: totals.superstep,
            network_bytes: totals.network.bytes_sent,
            network_messages: totals.network.messages_sent,
            simulated_seconds: totals.simulated_seconds,
            simulated_cpu_seconds: metrics.total_cpu_seconds(&CostModel::default()),
            active_vertices: totals.active_vertices as u64,
            skipped_syncs: totals.work.skipped_syncs,
            skipped_scatters: totals.work.skipped_scatters,
            routed_messages: totals.routed_messages,
            staleness_lag: totals.staleness_lag,
            max_inbox_depth: totals.inbox_depth,
            barrier_wait_avoided_seconds: totals.barrier_wait_avoided_seconds,
            host_seconds: totals.host_seconds,
            ..QueryCost::default()
        }
    }

    /// The cost of one index-served query on a layout with `replication_factor`.
    pub(crate) fn from_index_serve(stats: &IndexServeStats, replication_factor: f64) -> Self {
        QueryCost {
            replication_factor,
            push_ops: stats.pushes as u64,
            walk_hops: stats.walk_hops,
            index_hits: stats.segment_hits,
            index_misses: stats.segment_misses,
            index_served: true,
            ..QueryCost::default()
        }
    }

    /// Adds `other` into `self` — the one place two cost records are summed (a
    /// session's running totals, an autotuned query's pilot).
    ///
    /// Integer counters saturate: a long-lived serving session must degrade to a
    /// pinned counter, never wrap around (or, in debug builds, panic) mid-stream.
    /// Seconds add; `max_inbox_depth` takes the maximum; `index_served` becomes
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
    /// A compact per-query cost audit, mirroring the cumulative
    /// [`SessionStats`](crate::session::SessionStats) display at single-query
    /// granularity.
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

#[cfg(test)]
mod tests {
    use super::*;

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
