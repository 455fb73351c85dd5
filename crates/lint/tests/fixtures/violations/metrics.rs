// Fixture: overflow-hygiene violations — the file name marks it an accumulator
// file, so bare `+=` and narrowing casts are flagged.
pub struct Stats {
    pub total_ops: u64,
}

impl Stats {
    pub fn bump(&mut self, n: u64) {
        self.total_ops += n;
        let _small = n as u32;
    }
}
// lint:allow-file(orphan-pub, oracle for fixture_tree_produces_exactly_the_expected_findings)
