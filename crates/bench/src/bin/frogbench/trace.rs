//! The harness's own spans. It owns one `frogwild::obs::Tracer`, opens a span per
//! op and a child span around every call into a layer, and reads per-layer times
//! back out of the merged timeline — the harness is an obs consumer, not a second
//! set of timers. A disabled `Spans` records nothing, so the untraced pass runs
//! the same code with tracing off.

use std::cell::Cell;
use std::collections::BTreeMap;

use frogwild::obs::{
    span_meta, SpanGuard, SpanKey, SpanMeta, SpanSink, Timeline, TraceConfig, Tracer,
};

/// A layer boundary the harness calls across.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Op,
    Generate,
    WriteEdges,
    Parse,
    Oracle,
    PartitionGraph,
    BuildWalkIndex,
    SessionBuild,
    SessionQuery,
    SessionQueryProbe,
    IndexedPpr,
    ForwardPush,
    FreshMonteCarlo,
    Serve,
    ServeSerial,
}

impl Layer {
    fn meta(self) -> &'static SpanMeta {
        match self {
            Layer::Op => span_meta!("op"),
            Layer::Generate => span_meta!("generate"),
            Layer::WriteEdges => span_meta!("write_edge_list"),
            Layer::Parse => span_meta!("read_edge_list"),
            Layer::Oracle => span_meta!("oracle"),
            Layer::PartitionGraph => span_meta!("partition_graph"),
            Layer::BuildWalkIndex => span_meta!("build_walk_index"),
            Layer::SessionBuild => span_meta!("session_build"),
            Layer::SessionQuery => span_meta!("session_query"),
            Layer::SessionQueryProbe => span_meta!("session_query_probe"),
            Layer::IndexedPpr => span_meta!("indexed_ppr"),
            Layer::ForwardPush => span_meta!("forward_push_ppr"),
            Layer::FreshMonteCarlo => span_meta!("monte_carlo_ppr"),
            Layer::Serve => span_meta!("serve"),
            Layer::ServeSerial => span_meta!("serve_serial"),
        }
    }

    fn name(self) -> &'static str {
        self.meta().name
    }
}

/// Timeline lane (`SpanKey::pid`) of op spans and their children; `seq` is the op
/// index, so the spans of one op share an identifier.
const PID_OPS: u32 = 0;
/// Lane of set-up and probe calls made outside any op.
const PID_SETUP: u32 = 1;

/// The harness's tracer handle.
pub struct Spans {
    tracer: Tracer,
    next_setup_seq: Cell<u64>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        let config = if enabled {
            TraceConfig::enabled()
        } else {
            TraceConfig::disabled()
        };
        Spans {
            tracer: Tracer::new(config),
            next_setup_seq: Cell::new(0),
        }
    }

    /// Runs `f` — one call into a layer, outside any op — under a span.
    pub fn time<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.time_counted(layer, |_| f())
    }

    /// [`Spans::time`] for a call whose work counts belong on its span.
    pub fn time_counted<T>(&self, layer: Layer, f: impl FnOnce(&mut SpanGuard<'_>) -> T) -> T {
        let seq = self.next_setup_seq.get();
        self.next_setup_seq.set(seq + 1);
        let sink = self.tracer.sink();
        let mut span = sink.span(layer.meta(), SpanKey::new(seq, PID_SETUP, 0, 0));
        f(&mut span)
    }

    /// The span context of op number `seq`; open the op span with
    /// [`OpSpans::layer`]`(Layer::Op)` and keep it bound for the op's duration.
    pub fn op(&self, seq: u64) -> OpSpans {
        OpSpans {
            sink: self.tracer.sink(),
            seq,
        }
    }

    /// Drains everything recorded so far.
    pub fn finish(&self) -> Trace {
        Trace {
            timeline: self.tracer.finish(),
        }
    }
}

/// Spans of one op: the op span and a child per layer call, all keyed by the op's
/// sequence number.
pub struct OpSpans {
    sink: SpanSink,
    seq: u64,
}

impl OpSpans {
    #[must_use = "the span ends when the guard drops"]
    pub fn layer(&self, layer: Layer) -> SpanGuard<'_> {
        self.sink.span(
            layer.meta(),
            SpanKey::new(self.seq, PID_OPS, 0, layer as u16),
        )
    }
}

/// The harness's merged timeline.
pub struct Trace {
    timeline: Timeline,
}

impl Trace {
    /// Seconds of every span of `layer`, in timeline order.
    pub fn durations_s(&self, layer: Layer) -> Vec<f64> {
        self.timeline
            .entries()
            .iter()
            .filter(|e| !e.is_instant() && e.name == layer.name())
            .map(|e| e.dur_us as f64 * 1e-6)
            .collect()
    }

    pub fn total_s(&self, layer: Layer) -> f64 {
        self.durations_s(layer).iter().sum()
    }

    /// Sum of the work counter `counter` over every span of `layer`.
    pub fn counter_total(&self, layer: Layer, counter: &str) -> u64 {
        self.timeline
            .entries()
            .iter()
            .filter(|e| e.name == layer.name())
            .flat_map(|e| e.counters.iter())
            .filter(|(name, _)| *name == counter)
            .map(|(_, value)| *value)
            .sum()
    }

    /// Self time of the op spans — an op's duration minus the part its child
    /// spans cover — as a share of op time: `(over all ops, worst single op)`.
    /// `None` when no op was traced.
    pub fn op_self_share(&self) -> Option<(f64, f64)> {
        // Per op sequence number: (op span, sum of its child spans), microseconds.
        let mut ops: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for e in self.timeline.entries() {
            if e.key.pid != PID_OPS || e.is_instant() {
                continue;
            }
            let (op, children) = ops.entry(e.key.seq).or_default();
            if e.name == Layer::Op.name() {
                *op += e.dur_us;
            } else {
                *children += e.dur_us;
            }
        }
        let own = |&(op, children): &(u64, u64)| op.saturating_sub(children);
        let total_op: u64 = ops.values().map(|(op, _)| op).sum();
        let total_self: u64 = ops.values().map(own).sum();
        let worst = ops
            .values()
            .filter(|(op, _)| *op > 0)
            .map(|span| own(span) as f64 / span.0 as f64)
            .fold(0.0, f64::max);
        (total_op > 0).then(|| (total_self as f64 / total_op as f64, worst))
    }

    pub fn to_chrome_json(&self) -> String {
        self.timeline.to_chrome_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let spans = Spans::new(false);
        assert_eq!(spans.time(Layer::Generate, || 7), 7);
        let op = spans.op(0);
        drop(op.layer(Layer::Op));
        drop(op);
        let trace = spans.finish();
        assert!(trace.durations_s(Layer::Generate).is_empty());
        assert!(trace.op_self_share().is_none());
    }

    #[test]
    fn children_are_attributed_to_their_op() {
        let spans = Spans::new(true);
        for seq in 0..3 {
            let op = spans.op(seq);
            let _op_span = op.layer(Layer::Op);
            let _child = op.layer(Layer::SessionQuery);
            std::hint::black_box(seq);
        }
        spans.time(Layer::PartitionGraph, || ());
        let trace = spans.finish();
        assert_eq!(trace.durations_s(Layer::Op).len(), 3);
        assert_eq!(trace.durations_s(Layer::SessionQuery).len(), 3);
        assert_eq!(trace.durations_s(Layer::PartitionGraph).len(), 1);
        let (share, worst) = trace.op_self_share().unwrap_or((0.0, 0.0));
        assert!((0.0..=1.0).contains(&share) && (0.0..=1.0).contains(&worst));
    }
}
