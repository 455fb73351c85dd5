// Fixture: span-guard violation — the guard is dropped on arrival, so the
// span closes before the work it was supposed to cover.
pub fn traced(sink: &SpanSink, key: SpanKey) -> u64 {
    let _ = sink.span(META, key);
    expensive_work()
}
// lint:allow-file(orphan-pub, oracle for fixture_tree_produces_exactly_the_expected_findings)
