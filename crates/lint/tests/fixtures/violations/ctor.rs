// Fixture: API-hygiene violation — a #[non_exhaustive] pub type with no public
// constructor helper anywhere in its group.
#[non_exhaustive]
pub struct Widget {
    pub id: u32,
}
// lint:allow-file(orphan-pub, oracle for fixture_tree_produces_exactly_the_expected_findings)
