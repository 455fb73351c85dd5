//! The merged trace: deterministic ordering, logical timestamp assignment, and the
//! [`TraceReport`] summary (phase breakdown + top-N slowest spans).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{ClockMode, Record, SpanKey};

/// Whether a timeline entry is a complete span or an instant event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryKind {
    /// A duration span (`ph: "X"` in the Chrome export).
    Span,
    /// A point-in-time event (`ph: "i"` in the Chrome export), e.g. a rejection.
    Instant,
}

/// One merged record of a [`Timeline`].
#[derive(Clone, Debug)]
pub struct TimelineEntry {
    /// Span name from the callsite's [`span_meta!`](crate::span_meta).
    pub name: &'static str,
    /// The callsite's `module_path!()`.
    pub target: &'static str,
    /// The callsite's `file!()`.
    pub file: &'static str,
    /// The callsite's `line!()`.
    pub line: u32,
    /// The deterministic timeline position the record was keyed with.
    pub key: SpanKey,
    /// The query the record was made for, when its tracer came from
    /// [`Tracer::for_query`](crate::Tracer::for_query).
    pub query: Option<u64>,
    /// The record's ordinal within its sink (breaks ties under equal keys).
    pub ordinal: u32,
    /// Start timestamp, microseconds (host time or logical index).
    pub start_us: u64,
    /// Duration, microseconds (`0` for instants; logical spans report `1`).
    pub dur_us: u64,
    /// Span or instant event.
    pub kind: EntryKind,
    /// Named work counters attached to the record.
    pub counters: Vec<(&'static str, u64)>,
}

impl TimelineEntry {
    /// `true` for instant events.
    pub fn is_instant(&self) -> bool {
        self.kind == EntryKind::Instant
    }
}

/// The merged, deterministically ordered trace from [`Tracer::finish`](crate::Tracer::finish).
///
/// Entries are ordered by `(key, query, ordinal)` — a stable total order independent
/// of which OS thread recorded what when — so two same-seed runs produce entries in
/// the same order (and byte-identical exports under [`ClockMode::Logical`]).
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    entries: Vec<TimelineEntry>,
}

impl Timeline {
    pub(crate) fn empty() -> Self {
        Timeline {
            entries: Vec::new(),
        }
    }

    pub(crate) fn merge(mut records: Vec<Record>, clock: ClockMode) -> Self {
        // The deterministic total order: key, then the query stamp (concurrent
        // queries key their engine spans alike), then per-sink ordinal, then callsite.
        // Wall-clock never participates. Callsite fields make the order total even
        // if two sinks (against the instrumentation contract) share a key+ordinal.
        records.sort_by_key(|r| {
            (
                r.key,
                r.query,
                r.ordinal,
                r.meta.name,
                r.meta.target,
                r.meta.line,
            )
        });
        let entries = records
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let (start_us, dur_us) = match clock {
                    ClockMode::Host => (r.start_us, r.dur_us),
                    // Logical time: synthesized from the merged order so exports
                    // are byte-stable. Spans get unit width, instants zero.
                    ClockMode::Logical => (i as u64 * 2, u64::from(!r.instant)),
                };
                TimelineEntry {
                    name: r.meta.name,
                    target: r.meta.target,
                    file: r.meta.file,
                    line: r.meta.line,
                    key: r.key,
                    query: r.query,
                    ordinal: r.ordinal,
                    start_us,
                    dur_us,
                    kind: if r.instant {
                        EntryKind::Instant
                    } else {
                        EntryKind::Span
                    },
                    counters: r.counters,
                }
            })
            .collect();
        Timeline { entries }
    }

    /// The merged entries, in deterministic timeline order.
    pub fn entries(&self) -> &[TimelineEntry] {
        &self.entries
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Summarizes the timeline: per-phase breakdown plus the `top_n` slowest spans.
    pub fn report(&self, top_n: usize) -> TraceReport {
        let mut phases: BTreeMap<&'static str, PhaseRow> = BTreeMap::new();
        for entry in &self.entries {
            if entry.is_instant() {
                continue;
            }
            let row = phases.entry(entry.name).or_insert(PhaseRow {
                name: entry.name,
                count: 0,
                total_us: 0,
                max_us: 0,
            });
            row.count = row.count.saturating_add(1);
            row.total_us = row.total_us.saturating_add(entry.dur_us);
            row.max_us = row.max_us.max(entry.dur_us);
        }
        let mut spans: Vec<&TimelineEntry> =
            self.entries.iter().filter(|e| !e.is_instant()).collect();
        // Slowest first; ties broken by the deterministic timeline position.
        spans.sort_by(|a, b| {
            b.dur_us
                .cmp(&a.dur_us)
                .then((a.key, a.ordinal).cmp(&(b.key, b.ordinal)))
        });
        let slowest = spans
            .into_iter()
            .take(top_n)
            .map(|e| SlowRow {
                name: e.name,
                key: e.key,
                dur_us: e.dur_us,
            })
            .collect();
        TraceReport {
            events: self.entries.len(),
            phases: phases.into_values().collect(),
            slowest,
        }
    }
}

/// Aggregate time spent under one span name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseRow {
    /// The span name ("gather", "service", …).
    pub name: &'static str,
    /// Spans recorded under this name.
    pub count: u64,
    /// Summed duration, microseconds.
    pub total_us: u64,
    /// Longest single span, microseconds.
    pub max_us: u64,
}

impl PhaseRow {
    /// Mean span duration, microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count > 0 {
            self.total_us as f64 / self.count as f64
        } else {
            0.0
        }
    }
}

/// One of the top-N slowest spans in a [`TraceReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlowRow {
    /// The span name.
    pub name: &'static str,
    /// Its deterministic timeline position.
    pub key: SpanKey,
    /// Its duration, microseconds.
    pub dur_us: u64,
}

/// A human-readable trace summary: phase breakdown table + top-N slowest spans.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    /// Total merged records (spans + instants).
    pub events: usize,
    /// Per-span-name aggregates, ordered by name.
    pub phases: Vec<PhaseRow>,
    /// The slowest individual spans, slowest first.
    pub slowest: Vec<SlowRow>,
}

impl std::fmt::Display for TraceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "trace: {} events", self.events)?;
        writeln!(
            f,
            "{:<18} {:>8} {:>12} {:>12} {:>12}",
            "phase", "count", "total_us", "mean_us", "max_us"
        )?;
        for row in &self.phases {
            writeln!(
                f,
                "{:<18} {:>8} {:>12} {:>12.1} {:>12}",
                row.name,
                row.count,
                row.total_us,
                row.mean_us(),
                row.max_us
            )?;
        }
        if !self.slowest.is_empty() {
            writeln!(f, "slowest spans:")?;
            for row in &self.slowest {
                let mut at = String::new();
                let _ = write!(
                    at,
                    "seq={} pid={} tid={} lane={}",
                    row.key.seq, row.key.pid, row.key.tid, row.key.lane
                );
                writeln!(f, "  {:<18} {:>12}us  ({at})", row.name, row.dur_us)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{span_meta, SpanKey, TraceConfig, Tracer};

    fn sample() -> crate::Timeline {
        let tracer = Tracer::new(TraceConfig::logical());
        {
            let sink = tracer.sink();
            for step in 0..3u64 {
                let mut span = sink.span(span_meta!("gather"), SpanKey::new(step, 1, 0, 0));
                span.counter("edges", 10 * (step + 1));
                drop(span);
                let _apply = sink.span(span_meta!("apply"), SpanKey::new(step, 1, 0, 1));
            }
            sink.event(span_meta!("rejected"), SpanKey::new(1, 0, 0, 9));
        }
        tracer.finish()
    }

    #[test]
    fn report_aggregates_by_phase() {
        let report = sample().report(2);
        assert_eq!(report.events, 7);
        let names: Vec<&str> = report.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["apply", "gather"]);
        assert!(report.phases.iter().all(|p| p.count == 3));
        assert_eq!(report.slowest.len(), 2);
        let rendered = report.to_string();
        assert!(rendered.contains("gather"));
        assert!(rendered.contains("slowest spans"));
    }

    #[test]
    fn logical_timestamps_follow_merge_order() {
        let timeline = sample();
        let mut last = None;
        for entry in timeline.entries() {
            if let Some(prev) = last {
                assert!(entry.start_us > prev);
            }
            last = Some(entry.start_us);
        }
    }
}
