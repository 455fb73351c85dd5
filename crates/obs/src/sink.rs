//! Per-work-unit record buffers ([`SpanSink`]) and RAII span guards ([`SpanGuard`]).

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use crate::{ClockMode, Inner, Record, SpanKey, SpanMeta};

/// A per-work-unit append buffer for trace records.
///
/// Obtained from [`Tracer::sink`](crate::Tracer::sink). Deliberately `!Sync`
/// (interior mutability via `RefCell`): each worker closure or served query creates
/// its own sink, records into it without locking, and the buffered records flush to
/// the shared tracer exactly once — when the sink drops. For a disabled tracer the
/// sink is inert: no buffer capacity is ever allocated and nothing is recorded.
pub struct SpanSink {
    shared: Option<Arc<Inner>>,
    /// The query stamp of the tracer this sink came from.
    query: Option<u64>,
    buf: RefCell<Vec<Record>>,
    next_ordinal: Cell<u32>,
}

impl std::fmt::Debug for SpanSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SpanSink {{ enabled: {}, buffered: {} }}",
            self.shared.is_some(),
            self.buf.borrow().len()
        )
    }
}

impl SpanSink {
    pub(crate) fn new(shared: Option<Arc<Inner>>, query: Option<u64>) -> Self {
        SpanSink {
            shared,
            query,
            buf: RefCell::new(Vec::new()),
            next_ordinal: Cell::new(0),
        }
    }

    /// `true` when this sink actually records (its tracer is enabled).
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Opens a span at `key`; the span is recorded when the returned guard drops.
    ///
    /// **Bind the guard** (`let _span = sink.span(..)`). `let _ = sink.span(..)`
    /// drops it immediately and silently records a zero-length span — the
    /// `frogwild-lint` `span-guard` rule flags that pattern.
    #[must_use = "the span ends (and is recorded) when the guard drops; bind it with `let _span = ...`"]
    pub fn span(&self, meta: &'static SpanMeta, key: SpanKey) -> SpanGuard<'_> {
        match &self.shared {
            Some(inner) => {
                let start_us = match inner.clock() {
                    ClockMode::Host => inner.now_us(),
                    ClockMode::Logical => 0,
                };
                SpanGuard {
                    sink: Some(self),
                    meta,
                    key,
                    start_us,
                    counters: Vec::new(),
                }
            }
            None => SpanGuard {
                sink: None,
                meta,
                key,
                start_us: 0,
                counters: Vec::new(),
            },
        }
    }

    /// Records an instant event (e.g. an admission rejection) at `key`.
    pub fn event(&self, meta: &'static SpanMeta, key: SpanKey) {
        self.event_with(meta, key, &[]);
    }

    /// Records an instant event carrying counters.
    pub fn event_with(
        &self,
        meta: &'static SpanMeta,
        key: SpanKey,
        counters: &[(&'static str, u64)],
    ) {
        let Some(inner) = &self.shared else {
            return;
        };
        let at_us = match inner.clock() {
            ClockMode::Host => inner.now_us(),
            ClockMode::Logical => 0,
        };
        self.push(Record {
            meta,
            key,
            query: self.query,
            ordinal: self.take_ordinal(),
            start_us: at_us,
            dur_us: 0,
            instant: true,
            counters: counters.to_vec(),
        });
    }

    fn take_ordinal(&self) -> u32 {
        let ordinal = self.next_ordinal.get();
        self.next_ordinal.set(ordinal.saturating_add(1));
        ordinal
    }

    fn push(&self, record: Record) {
        self.buf.borrow_mut().push(record);
    }

    fn end_span(
        &self,
        meta: &'static SpanMeta,
        key: SpanKey,
        start_us: u64,
        counters: Vec<(&'static str, u64)>,
    ) {
        let Some(inner) = &self.shared else {
            return;
        };
        let dur_us = match inner.clock() {
            ClockMode::Host => inner.now_us().saturating_sub(start_us),
            ClockMode::Logical => 0,
        };
        self.push(Record {
            meta,
            key,
            query: self.query,
            ordinal: self.take_ordinal(),
            start_us,
            dur_us,
            instant: false,
            counters,
        });
    }
}

impl Drop for SpanSink {
    /// Flushes the buffered records to the shared tracer (one lock per work unit).
    fn drop(&mut self) {
        if let Some(inner) = &self.shared {
            let buf = self.buf.get_mut();
            if !buf.is_empty() {
                inner.absorb(buf);
            }
        }
    }
}

/// An open span: created by [`SpanSink::span`], recorded when dropped.
///
/// For a disabled tracer the guard is inert — dropping it does nothing and
/// [`counter`](SpanGuard::counter) never allocates.
#[must_use = "the span ends (and is recorded) when the guard drops; bind it with `let _span = ...`"]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    sink: Option<&'a SpanSink>,
    meta: &'static SpanMeta,
    key: SpanKey,
    start_us: u64,
    counters: Vec<(&'static str, u64)>,
}

impl SpanGuard<'_> {
    /// Attaches a named work counter (frontier size, segment hits, …) to the span.
    /// Calling it again with the same name records both values.
    pub fn counter(&mut self, name: &'static str, value: u64) {
        if self.sink.is_some() {
            self.counters.push((name, value));
        }
    }

    /// Attaches a seconds-valued counter, stored as integer microseconds (the
    /// timeline's native unit — keeps exports free of float formatting).
    pub fn counter_seconds(&mut self, name: &'static str, seconds: f64) {
        if self.sink.is_some() {
            let clamped = if seconds > 0.0 { seconds * 1e6 } else { 0.0 };
            self.counters.push((name, clamped as u64));
        }
    }

    /// Like [`counter_seconds`](SpanGuard::counter_seconds), for values derived
    /// from the host wall clock (elapsed timers measured outside the tracer).
    /// Recorded only under [`ClockMode::Host`]: logical traces exclude
    /// wall-clock-derived values so their exports stay byte-stable across runs.
    pub fn wall_counter_seconds(&mut self, name: &'static str, seconds: f64) {
        let host = self
            .sink
            .and_then(|sink| sink.shared.as_ref())
            .is_some_and(|inner| inner.clock() == ClockMode::Host);
        if host {
            self.counter_seconds(name, seconds);
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(sink) = self.sink {
            sink.end_span(
                self.meta,
                self.key,
                self.start_us,
                std::mem::take(&mut self.counters),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{span_meta, SpanKey, TraceConfig, Tracer};

    #[test]
    fn counters_ride_on_the_span() {
        let tracer = Tracer::new(TraceConfig::logical());
        {
            let sink = tracer.sink();
            let mut span = sink.span(span_meta!("work"), SpanKey::new(2, 1, 1, 0));
            span.counter("hits", 5);
            span.counter_seconds("simulated", 0.25);
        }
        let timeline = tracer.finish();
        let entry = &timeline.entries()[0];
        assert_eq!(entry.counters, vec![("hits", 5), ("simulated", 250_000)]);
    }

    #[test]
    fn wall_counters_are_excluded_from_logical_traces() {
        for (config, expected) in [
            (TraceConfig::enabled(), vec![("host", 250_000)]),
            (TraceConfig::logical(), vec![]),
        ] {
            let tracer = Tracer::new(config);
            {
                let sink = tracer.sink();
                let mut span = sink.span(span_meta!("work"), SpanKey::new(0, 0, 0, 0));
                span.wall_counter_seconds("host", 0.25);
            }
            assert_eq!(tracer.finish().entries()[0].counters, expected);
        }
    }

    #[test]
    fn events_are_instant_records() {
        let tracer = Tracer::new(TraceConfig::logical());
        {
            let sink = tracer.sink();
            sink.event_with(
                span_meta!("rejected"),
                SpanKey::new(9, 0, 0, 3),
                &[("batch", 2)],
            );
        }
        let timeline = tracer.finish();
        let entry = &timeline.entries()[0];
        assert!(entry.is_instant());
        assert_eq!(entry.counters, vec![("batch", 2)]);
    }

    #[test]
    fn ordinals_preserve_in_sink_order_under_equal_keys() {
        let tracer = Tracer::new(TraceConfig::logical());
        {
            let sink = tracer.sink();
            let key = SpanKey::new(1, 1, 1, 1);
            drop(sink.span(span_meta!("one"), key));
            drop(sink.span(span_meta!("two"), key));
            drop(sink.span(span_meta!("three"), key));
        }
        let timeline = tracer.finish();
        let names: Vec<&str> = timeline.entries().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["one", "two", "three"]);
    }
}
