//! `frogwild_obs` — dependency-free structured tracing for the FrogWild workspace.
//!
//! The crate provides a span/event API whose records merge into **one deterministic
//! timeline**: every record carries a logical [`SpanKey`] — `(seq, pid, tid, lane)`,
//! e.g. `(superstep, machine, batch, phase)` in the engine or `(sequence id, 0, 0,
//! stage)` in the serving front-end — and the merged order is a stable sort over that
//! key, the query it was recorded for ([`Tracer::for_query`]) and a per-sink ordinal,
//! **never** wall-clock order. Two runs with the same seed therefore produce the same
//! record order (and, under [`ClockMode::Logical`], byte-identical exports), so traces
//! are diffable across runs.
//!
//! ## Shape
//!
//! * [`Tracer`] — cheaply clonable handle shared by every instrumented layer. A
//!   disabled tracer ([`Tracer::disabled`], the default) carries no buffer, reads no
//!   clock and compiles down to a handful of branch-on-`None` checks.
//! * [`SpanSink`] — a per-work-unit append buffer obtained from [`Tracer::sink`].
//!   Sinks are `!Sync` on purpose: each worker closure / query makes its own, records
//!   lock-free into it, and flushes to the shared tracer buffer once on drop.
//! * [`SpanGuard`] — an RAII guard from [`SpanSink::span`]; records a complete span
//!   when dropped. Attach work counters with [`SpanGuard::counter`]. **Bind the
//!   guard** (`let _span = sink.span(..)`): an unbound `let _ = ...` drops
//!   immediately and silently records a zero-length span (`frogwild-lint`'s
//!   `span-guard` rule flags exactly that).
//! * [`Timeline`] — the merged, deterministically ordered trace from
//!   [`Tracer::finish`], exportable as Chrome trace-event JSON
//!   ([`Timeline::to_chrome_json`], loadable in `chrome://tracing` / Perfetto) or
//!   flat CSV ([`Timeline::to_csv`]), and summarizable as a [`TraceReport`].
//!
//! ## Timing discipline
//!
//! All wall-clock reads live in the one `clock` shim module — the single entry on
//! `frogwild-lint`'s `timing` allowlist for library code. [`ClockMode::Logical`]
//! performs **zero** clock reads: timestamps are assigned at merge time from the
//! deterministic record order.
//!
//! ```
//! use frogwild_obs::{span_meta, SpanKey, TraceConfig, Tracer};
//!
//! let tracer = Tracer::new(TraceConfig::logical());
//! {
//!     let sink = tracer.sink();
//!     let mut _span = sink.span(span_meta!("gather"), SpanKey::new(0, 1, 0, 0));
//!     _span.counter("edges", 42);
//! } // sink drops → records flush
//! let timeline = tracer.finish();
//! assert_eq!(timeline.entries().len(), 1);
//! assert!(timeline.to_chrome_json().contains("\"gather\""));
//! ```

#![warn(missing_docs)]

mod clock;
mod export;
mod sink;
mod timeline;

pub use export::validate_chrome_json;
pub use sink::{SpanGuard, SpanSink};
pub use timeline::{EntryKind, PhaseRow, SlowRow, Timeline, TimelineEntry, TraceReport};

use std::sync::{Arc, Mutex};

/// Where span timestamps come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockMode {
    /// Real host time (microseconds since the tracer was created), read through the
    /// crate's single allowlisted clock shim. Record *order* is still deterministic;
    /// only the `ts`/`dur` values vary run to run.
    Host,
    /// No clock reads at all: timestamps are synthesized at merge time from the
    /// deterministic record order, so the exported trace is byte-stable across runs.
    Logical,
}

/// Tracer configuration: enabled bit plus clock source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record spans at all? `false` makes [`Tracer::new`] return a disabled tracer.
    pub enabled: bool,
    /// Timestamp source for recorded spans.
    pub clock: ClockMode,
}

impl TraceConfig {
    /// Tracing on, real host timestamps — what `--trace` uses.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            clock: ClockMode::Host,
        }
    }

    /// Tracing on, synthesized timestamps — byte-stable exports for golden tests.
    pub fn logical() -> Self {
        TraceConfig {
            enabled: true,
            clock: ClockMode::Logical,
        }
    }

    /// Tracing off (the default): no buffers, no clock reads.
    pub fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            clock: ClockMode::Host,
        }
    }
}

impl Default for TraceConfig {
    /// Disabled.
    fn default() -> Self {
        TraceConfig::disabled()
    }
}

/// Static callsite metadata for a span or event, created with [`span_meta!`].
///
/// The macro expands to a `&'static SpanMeta`, so recording a span copies one
/// pointer — no per-record string allocation.
#[derive(Debug)]
pub struct SpanMeta {
    /// Span name, e.g. `"gather"`.
    pub name: &'static str,
    /// The `module_path!()` of the callsite.
    pub target: &'static str,
    /// The `file!()` of the callsite.
    pub file: &'static str,
    /// The `line!()` of the callsite.
    pub line: u32,
}

/// Expands to a `&'static` [`SpanMeta`] capturing the callsite's module path, file
/// and line alongside the given span name.
#[macro_export]
macro_rules! span_meta {
    ($name:expr) => {{
        static META: $crate::SpanMeta = $crate::SpanMeta {
            name: $name,
            target: module_path!(),
            file: file!(),
            line: line!(),
        };
        &META
    }};
}

/// The deterministic position of a record in the merged timeline.
///
/// The timeline is ordered by `(seq, pid, tid, lane)` and then the per-sink record
/// ordinal — never by wall-clock. Instrumentation must give **distinct sinks
/// distinct keys** (at least a distinct lane) so the merged order is independent of
/// which OS thread ran which work unit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanKey {
    /// Major order: superstep number in the engine, query sequence id in serve.
    pub seq: u64,
    /// Process lane in the Chrome export: `0` = driver/serve, `m + 1` = machine `m`.
    pub pid: u32,
    /// Thread lane in the Chrome export: `0` = the phase's own lane, `b + 1` =
    /// key-range batch `b`.
    pub tid: u32,
    /// Tie-breaker distinguishing sinks that share `(seq, pid, tid)` — e.g. the
    /// engine phase index. Not exported; ordering only.
    pub lane: u16,
}

impl SpanKey {
    /// A key from its four components.
    pub fn new(seq: u64, pid: u32, tid: u32, lane: u16) -> Self {
        SpanKey {
            seq,
            pid,
            tid,
            lane,
        }
    }
}

/// One recorded span or instant event, before merging.
#[derive(Clone, Debug)]
pub(crate) struct Record {
    pub(crate) meta: &'static SpanMeta,
    pub(crate) key: SpanKey,
    pub(crate) query: Option<u64>,
    pub(crate) ordinal: u32,
    pub(crate) start_us: u64,
    pub(crate) dur_us: u64,
    pub(crate) instant: bool,
    pub(crate) counters: Vec<(&'static str, u64)>,
}

pub(crate) struct Inner {
    clock: ClockMode,
    epoch: clock::Epoch,
    records: Mutex<Vec<Record>>,
}

impl Inner {
    pub(crate) fn clock(&self) -> ClockMode {
        self.clock
    }

    /// Microseconds since the tracer was created — only called in [`ClockMode::Host`].
    pub(crate) fn now_us(&self) -> u64 {
        self.epoch.micros()
    }

    pub(crate) fn absorb(&self, records: &mut Vec<Record>) {
        let mut shared = self
            .records
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        shared.append(records);
    }
}

/// The shared tracing handle: clone it into every layer that should record spans.
///
/// `Tracer::default()` is disabled — no buffer is allocated, [`Tracer::sink`] hands
/// out inert sinks, and no clock is ever read, so an untraced run pays only a few
/// `Option` checks.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
    query: Option<u64>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => write!(f, "Tracer {{ enabled, clock: {:?} }}", inner.clock),
            None => write!(f, "Tracer {{ disabled }}"),
        }
    }
}

impl Tracer {
    /// A tracer for `config` — disabled (zero-cost) when `config.enabled` is false.
    pub fn new(config: TraceConfig) -> Self {
        if !config.enabled {
            return Tracer::disabled();
        }
        Tracer {
            inner: Some(Arc::new(Inner {
                clock: config.clock,
                epoch: clock::Epoch::start(config.clock == ClockMode::Host),
                records: Mutex::new(Vec::new()),
            })),
            query: None,
        }
    }

    /// The zero-cost disabled tracer (same as `Tracer::default()`).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A handle onto the same buffer that stamps query `id` on every record its
    /// sinks make. Queries that run concurrently key their engine spans alike —
    /// `(superstep, machine, batch, phase)` — and the stamp is what orders such
    /// records deterministically in the merged timeline, after the key; it is also
    /// what [`TimelineEntry::query`] reads back.
    pub fn for_query(&self, id: u64) -> Tracer {
        Tracer {
            inner: self.inner.clone(),
            query: Some(id),
        }
    }

    /// `true` when spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A fresh per-work-unit sink. Create one per worker closure / query; it flushes
    /// its records to the shared buffer when dropped. For a disabled tracer the sink
    /// is inert and allocation-free.
    pub fn sink(&self) -> SpanSink {
        SpanSink::new(self.inner.clone(), self.query)
    }

    /// Drains everything recorded so far into a merged, deterministically ordered
    /// [`Timeline`]. Subsequent records start a fresh timeline.
    pub fn finish(&self) -> Timeline {
        match &self.inner {
            Some(inner) => {
                let records = {
                    let mut shared = inner
                        .records
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    std::mem::take(&mut *shared)
                };
                Timeline::merge(records, inner.clock)
            }
            None => Timeline::empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        {
            let sink = tracer.sink();
            let mut guard = sink.span(span_meta!("noop"), SpanKey::new(0, 0, 0, 0));
            guard.counter("ops", 7);
            sink.event(span_meta!("evt"), SpanKey::new(0, 0, 0, 0));
        }
        assert!(tracer.finish().entries().is_empty());
    }

    #[test]
    fn logical_clock_never_reads_time_and_is_deterministic() {
        let render = || {
            let tracer = Tracer::new(TraceConfig::logical());
            {
                let sink = tracer.sink();
                let mut a = sink.span(span_meta!("alpha"), SpanKey::new(1, 0, 0, 0));
                a.counter("n", 3);
                drop(a);
                let _b = sink.span(span_meta!("beta"), SpanKey::new(0, 0, 0, 0));
            }
            tracer.finish().to_chrome_json()
        };
        let one = render();
        let two = render();
        assert_eq!(one, two, "logical traces must be byte-stable");
        // seq=0 sorts before seq=1 regardless of recording order.
        let beta = one.find("beta").unwrap();
        let alpha = one.find("alpha").unwrap();
        assert!(beta < alpha);
    }

    #[test]
    fn merge_orders_by_key_not_by_flush_order() {
        let tracer = Tracer::new(TraceConfig::logical());
        {
            // Two sinks flushing in the "wrong" order still merge deterministically.
            let late = tracer.sink();
            let _s = late.span(span_meta!("late"), SpanKey::new(5, 2, 1, 0));
            drop(_s);
            drop(late);
            let early = tracer.sink();
            let _s = early.span(span_meta!("early"), SpanKey::new(5, 1, 1, 0));
        }
        let timeline = tracer.finish();
        let names: Vec<&str> = timeline.entries().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["early", "late"]);
    }

    #[test]
    fn a_key_tie_is_broken_by_the_query_stamp_not_by_flush_order() {
        let tracer = Tracer::new(TraceConfig::logical());
        let key = SpanKey::new(0, 1, 1, 2);
        for id in [7, 3] {
            let sink = tracer.for_query(id).sink();
            let _s = sink.span(span_meta!("gather_batch"), key);
        }
        let timeline = tracer.finish();
        let queries: Vec<Option<u64>> = timeline.entries().iter().map(|e| e.query).collect();
        assert_eq!(queries, vec![Some(3), Some(7)]);
    }

    #[test]
    fn finish_drains_the_buffer() {
        let tracer = Tracer::new(TraceConfig::logical());
        {
            let sink = tracer.sink();
            let _s = sink.span(span_meta!("only"), SpanKey::default());
        }
        assert_eq!(tracer.finish().entries().len(), 1);
        assert!(tracer.finish().entries().is_empty());
    }

    #[test]
    fn host_clock_records_monotonic_timestamps() {
        let tracer = Tracer::new(TraceConfig::enabled());
        {
            let sink = tracer.sink();
            let first = sink.span(span_meta!("first"), SpanKey::new(0, 0, 0, 0));
            drop(first);
            let _second = sink.span(span_meta!("second"), SpanKey::new(1, 0, 0, 0));
        }
        let timeline = tracer.finish();
        let entries = timeline.entries();
        assert_eq!(entries.len(), 2);
        assert!(entries[0].start_us <= entries[1].start_us);
    }
}
