// Fixture: clean library code — saturating arithmetic, no panics, a caller for its
// one pub item, and test-only unwraps that the scanner must skip.
pub fn add(a: u64, b: u64) -> u64 {
    a.saturating_add(b)
}

fn total(xs: &[u64]) -> u64 {
    xs.iter().fold(0, |sum, &x| add(sum, x))
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwraps_and_indexing_are_fine_in_tests() {
        let v = vec![1, 2];
        assert_eq!(v[0], 1);
        assert_eq!(Some(3).unwrap(), 3);
    }
}
