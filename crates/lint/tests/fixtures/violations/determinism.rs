// Fixture: determinism violations — a std hash container and a wall-clock read.
use std::collections::HashMap;

pub fn pick(map: &HashMap<u32, u32>) -> u64 {
    let _ = map.len();
    std::time::Instant::now().elapsed().as_secs()
}
// lint:allow-file(orphan-pub, oracle for fixture_tree_produces_exactly_the_expected_findings)
