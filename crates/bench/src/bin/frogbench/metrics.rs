//! Metric names, the container a workload fills, and the small statistics the
//! harness needs (percentiles, an order-sensitive digest, peak RSS).

use crate::json::Json;

/// Which way a metric improves; `BENCHMARK.json` spells it `lower` or `higher`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}
use Better::{Higher, Lower};

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Lower => "lower",
            Higher => "higher",
        }
    }
}

/// A declared metric: `(name, unit, better, exact)`. An exact metric is a pure
/// function of `--seed` and enters the determinism digest.
type Declared = (&'static str, &'static str, Better, bool);

/// The end-to-end metrics `BENCHMARK.json` bounds: defined, and never zero, on
/// every workload.
pub const END_TO_END: &[Declared] = &[
    ("setup_s", "s", Lower, false),
    ("latency_s_p50", "s", Lower, false),
    ("throughput_qps", "ops/s", Higher, false),
    ("net_cost", "bytes", Lower, true),
    ("sim_cost", "sim_s", Lower, true),
    ("accuracy", "fraction", Higher, true),
    ("peak_rss_mib", "MiB", Lower, false),
];

/// End-to-end metrics that exist only on some workloads. The driver wants every
/// bounded metric from every workload, so these travel in the per-layer list
/// (reading 0 where a workload does not produce them); `net_cost`, `sim_cost` and
/// `accuracy` put the exact ones under a bound, the harness's own checks enforce
/// the rest.
pub const END_TO_END_PARTIAL: &[Declared] = &[
    ("latency_s_p99", "s", Lower, false),
    ("net_bytes_per_query", "bytes", Lower, true),
    ("sim_s_per_query", "sim_s", Lower, true),
    ("mass_captured_k100", "fraction", Higher, true),
    ("ppr_overlap_k20", "fraction", Higher, true),
    ("failed_share", "fraction", Lower, false),
];

/// The `p_s` sweep of `fw_topk_sweep`, with the suffix each value gets in a
/// metric name.
pub const SYNC_SWEEP: [(f64, &str); 4] =
    [(1.0, "ps1"), (0.7, "ps0.7"), (0.4, "ps0.4"), (0.1, "ps0.1")];

/// Per-layer metrics, `<module>.<metric>`.
pub const PER_LAYER: &[Declared] = &[
    ("graph.generate_s", "s", Lower, false),
    ("graph.parse_s", "s", Lower, false),
    ("graph.parse_edges_per_s", "edges/s", Higher, false),
    ("graph.oracle_pagerank_s", "s", Lower, false),
    ("engine.partition.build_s", "s", Lower, false),
    ("engine.partition.edges_per_s", "edges/s", Higher, false),
    ("engine.partition.replication_factor", "ratio", Lower, true),
    ("engine.supersteps", "count", Lower, true),
    ("engine.active_vertices", "count", Lower, true),
    ("engine.routed_messages", "count", Lower, true),
    ("engine.skipped_scatters", "count", Higher, true),
    ("engine.net_messages", "count", Lower, true),
    ("engine.sim_cpu_s", "sim_s", Lower, true),
    ("engine.host_s_per_superstep", "s", Lower, false),
    ("engine.host_ns_per_active_vertex", "ns", Lower, false),
    ("engine.phase.gather_s", "s", Lower, false),
    ("engine.phase.apply_s", "s", Lower, false),
    ("engine.phase.sync_s", "s", Lower, false),
    ("engine.phase.scatter_s", "s", Lower, false),
    ("engine.phase.route_s", "s", Lower, false),
    ("engine.phase.superstep_s", "s", Lower, false),
    ("engine.phase.other_s", "s", Lower, false),
    ("core.programs.fw_latency_s_p50.ps1", "s", Lower, false),
    ("core.programs.fw_latency_s_p50.ps0.7", "s", Lower, false),
    ("core.programs.fw_latency_s_p50.ps0.4", "s", Lower, false),
    ("core.programs.fw_latency_s_p50.ps0.1", "s", Lower, false),
    ("core.programs.fw_net_bytes.ps1", "bytes", Lower, true),
    ("core.programs.fw_net_bytes.ps0.7", "bytes", Lower, true),
    ("core.programs.fw_net_bytes.ps0.4", "bytes", Lower, true),
    ("core.programs.fw_net_bytes.ps0.1", "bytes", Lower, true),
    (
        "core.programs.fw_mass_captured.ps1",
        "fraction",
        Higher,
        true,
    ),
    (
        "core.programs.fw_mass_captured.ps0.7",
        "fraction",
        Higher,
        true,
    ),
    (
        "core.programs.fw_mass_captured.ps0.4",
        "fraction",
        Higher,
        true,
    ),
    (
        "core.programs.fw_mass_captured.ps0.1",
        "fraction",
        Higher,
        true,
    ),
    ("core.ppr.push_s_p50", "s", Lower, false),
    ("core.ppr.push_ops", "count", Lower, true),
    ("core.ppr.fresh_mc_s_p50", "s", Lower, false),
    ("core.walkindex.build_s", "s", Lower, false),
    ("core.walkindex.arena_mib", "MiB", Lower, true),
    ("core.walkindex.serve_s_p50", "s", Lower, false),
    ("core.walkindex.hit_rate", "fraction", Higher, true),
    ("core.walkindex.walk_hops", "count", Lower, true),
    ("core.walkindex.push_ops", "count", Lower, true),
    ("core.walkindex.hops_per_s", "hops/s", Higher, false),
    ("core.walkindex.speedup_vs_fresh", "ratio", Higher, false),
    ("core.session.overhead_s_p50", "s", Lower, false),
    ("core.serve.busy_share", "fraction", Higher, false),
    ("core.serve.queue_wait_s_mean", "s", Lower, false),
    ("core.serve.service_s_mean", "s", Lower, false),
    ("core.serve.pool_efficiency", "ratio", Higher, false),
    ("core.serve.rejected", "count", Lower, false),
    ("core.serve.failed", "count", Lower, false),
    ("obs.overhead_ratio", "ratio", Lower, false),
    ("obs.events_per_query", "count", Lower, true),
    ("obs.finish_s", "s", Lower, false),
];

/// Every declared metric: what the driver reads with `--trace 0`, then what it
/// reads with `--trace 1`.
fn all_declared() -> impl Iterator<Item = &'static Declared> {
    END_TO_END.iter().chain(END_TO_END_PARTIAL).chain(PER_LAYER)
}

fn declared(name: &str) -> Option<&'static Declared> {
    all_declared().find(|(n, ..)| *n == name)
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    /// Sample count behind a percentile.
    pub samples: Option<usize>,
}

/// The metrics one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: Vec<Metric>,
}

impl Metrics {
    /// Records `name`. The name must be declared in this module: a typo is a bug
    /// in the harness, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        self.insert(name, value, None);
    }

    /// Records the `q`-quantile of `samples` under `name`, with the sample count.
    pub fn set_quantile(&mut self, name: &str, samples: &[f64], q: f64) {
        self.insert(name, quantile(samples, q), Some(samples.len()));
    }

    fn insert(&mut self, name: &str, value: f64, samples: Option<usize>) {
        let Some(&(name, unit, better, _)) = declared(name) else {
            panic!("metric {name} is not declared in metrics.rs");
        };
        self.values.retain(|m| m.name != name);
        self.values.push(Metric {
            name,
            unit,
            better,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The metrics that were set, in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        all_declared().filter_map(|(name, ..)| self.values.iter().find(|m| m.name == *name))
    }

    /// Digest over every exact metric that was set, in declaration order, so two
    /// runs agree on it only if they agree on each exact value bit for bit.
    pub fn exact_digest(&self) -> u64 {
        let mut digest = Digest::new();
        for (name, _, _, exact) in all_declared() {
            if let (true, Some(value)) = (*exact, self.get(name)) {
                digest.word(value.to_bits());
            }
        }
        digest.finish()
    }

    /// The driver's view: `{"name": {"value": v, "unit": u}}` for exactly the
    /// names in `wanted`, reading 0 for a metric this workload never produced.
    pub fn driver_json(&self, wanted: &[&str]) -> Json {
        Json::obj(wanted.iter().map(|name| {
            let unit = declared(name).map_or("", |(_, unit, ..)| unit);
            let member = Json::obj([
                ("value", Json::Num(self.get(name).unwrap_or(0.0))),
                ("unit", Json::str(unit)),
            ]);
            (*name, member)
        }))
    }

    /// Every metric that was set, for the `--out` document.
    pub fn full_json(&self) -> Json {
        Json::obj(self.iter().map(|m| {
            let samples = m.samples.map(|n| ("samples", Json::Int(n as u64)));
            let member = [
                ("value", Json::Num(m.value)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ];
            (m.name, Json::obj(member.into_iter().chain(samples)))
        }))
    }
}

/// `(name, unit, better)` of every declared metric, as `BENCHMARK.json` must list
/// them.
#[cfg(test)]
pub fn declarations() -> impl Iterator<Item = (&'static str, &'static str, &'static str)> {
    all_declared().map(|(name, unit, better, _)| (*name, *unit, better.as_str()))
}

/// Names the driver reads with `--trace 0`.
pub fn end_to_end_names() -> Vec<&'static str> {
    END_TO_END.iter().map(|(n, ..)| *n).collect()
}

/// Names the driver reads with `--trace 1`.
pub fn per_layer_names() -> Vec<&'static str> {
    END_TO_END_PARTIAL
        .iter()
        .chain(PER_LAYER)
        .map(|(n, ..)| *n)
        .collect()
}

/// Nearest-rank quantile of unsorted `samples` (0 for an empty slice).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// FNV-1a over 64-bit words: an order-sensitive fingerprint of a response, cheap
/// enough to take of a 100 000-entry estimate after every op.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn declared_names_are_unique_and_well_formed() {
        let names: Vec<&str> = end_to_end_names()
            .into_iter()
            .chain(per_layer_names())
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} declared twice");
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        assert_eq!(PER_LAYER.len(), 55);
    }

    #[test]
    fn exact_digest_tracks_exact_metrics_only() {
        let mut a = Metrics::default();
        a.set("engine.supersteps", 4.0);
        a.set("setup_s", 1.0);
        let mut b = a.clone();
        b.set("setup_s", 2.0);
        assert_eq!(a.exact_digest(), b.exact_digest());
        b.set("engine.supersteps", 5.0);
        assert_ne!(a.exact_digest(), b.exact_digest());
    }

    #[test]
    fn driver_json_fills_missing_metrics_with_zero() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.5);
        let doc = m
            .driver_json(&["setup_s", "obs.finish_s"])
            .render()
            .unwrap();
        assert_eq!(
            doc,
            r#"{"setup_s":{"value":1.5,"unit":"s"},"obs.finish_s":{"value":0,"unit":"s"}}"#
        );
    }
}
