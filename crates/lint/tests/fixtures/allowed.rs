// Fixture: allow handling — a well-formed allow suppresses its finding, a
// reason-less allow is itself a finding and suppresses nothing.
pub fn g(xs: &[u32]) -> u32 {
    // lint:allow(panic, fixture: first element is guaranteed by the caller)
    *xs.first().unwrap()
}

pub fn h(x: Option<u32>) -> u32 {
    x.unwrap() // lint:allow(panic)
}
// lint:allow-file(orphan-pub, oracle for fixture_tree_produces_exactly_the_expected_findings)
