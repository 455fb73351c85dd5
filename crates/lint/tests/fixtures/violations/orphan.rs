// Fixture: orphan-pub — a pub item nothing outside tests calls is a finding; one
// a test uses to check other code carries an allow naming that test.
pub fn orphaned(x: u64) -> u64 {
    x.saturating_add(1)
}

// lint:allow(orphan-pub, oracle for estimator_matches_the_closed_form)
pub fn closed_form(n: u64) -> u64 {
    n.saturating_mul(2)
}

pub fn called(n: u64) -> u64 {
    n
}

fn caller() -> u64 {
    called(3)
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_test_is_not_a_caller() {
        assert_eq!(super::orphaned(1), 2);
    }
}
