// Fixture: panic-freedom violations — unwrap, slice indexing, and panic!.
pub fn f(xs: &[u32]) -> u32 {
    let a = *xs.first().unwrap();
    let b = xs[0];
    if a > 3 {
        panic!("boom");
    }
    a + b
}
// lint:allow-file(orphan-pub, oracle for fixture_tree_produces_exactly_the_expected_findings)
