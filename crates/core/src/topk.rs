//! Top-k selection utilities.

use std::cmp::Ordering;

use frogwild_graph::VertexId;

/// Returns the `k` vertices with the largest scores, best first.
///
/// The order is total, so the result is deterministic for any input: descending
/// score, every number before every NaN (a NaN score ranks below `-∞`, never above a
/// real estimate), ties — equal scores, or two NaNs — by ascending vertex id.
///
/// For `k` under half the vector this is one pass with one comparison per entry —
/// an entry is looked at again only if it beats the current `k`-th — which matters
/// when extracting a handful of vertices from multi-million-entry score vectors.
pub fn top_k(scores: &[f64], k: usize) -> Vec<VertexId> {
    if k == 0 || scores.is_empty() {
        return Vec::new();
    }
    let k = k.min(scores.len());
    if k >= scores.len() / 2 {
        let mut order: Vec<VertexId> = (0..scores.len() as VertexId).collect();
        order.sort_unstable_by(|&a, &b| compare(scores, a, b));
        order.truncate(k);
        return order;
    }
    // The best k so far, in order, seeded with the first k ids.
    let mut best: Vec<VertexId> = (0..k as VertexId).collect();
    best.sort_unstable_by(|&a, &b| compare(scores, a, b));
    // The current k-th and its score: the bar an entry has to clear.
    // lint:allow(indexing, best always holds k >= 1 ids of the scores slice)
    let kth = |best: &[VertexId]| (best[k - 1], scores[best[k - 1] as usize]);
    let (mut worst, mut threshold) = kth(&best);
    for (v, &score) in (k as VertexId..).zip(scores.get(k..).unwrap_or_default()) {
        // Ids arrive ascending, so a tie can never displace an earlier id: only a
        // strictly better score gets in, and nearly every entry stops here. A NaN on
        // either side fails the test and is settled by the full order below.
        if score <= threshold || compare(scores, v, worst) != Ordering::Less {
            continue;
        }
        let at = best.partition_point(|&x| compare(scores, x, v) == Ordering::Less);
        best.insert(at, v);
        best.pop();
        (worst, threshold) = kth(&best);
    }
    best
}

/// The ranking order as a comparison of two vertex ids: descending score, numbers
/// before NaNs, then ascending id. Total for every input, which `sort_unstable_by`
/// requires (it may panic on an inconsistent order).
fn compare(scores: &[f64], a: VertexId, b: VertexId) -> Ordering {
    // lint:allow(indexing, compare is only called with vertex ids of the scores slice)
    let (x, y) = (scores[a as usize], scores[b as usize]);
    y.partial_cmp(&x)
        .unwrap_or_else(|| x.is_nan().cmp(&y.is_nan()))
        .then(a.cmp(&b))
}

/// The total score mass of a set of vertices under `scores`.
pub fn set_mass(scores: &[f64], set: &[VertexId]) -> f64 {
    // lint:allow(indexing, callers pass vertex ids of the scores slice)
    set.iter().map(|&v| scores[v as usize]).sum()
}

/// Normalizes a non-negative score vector so it sums to one (a probability
/// distribution). Vectors with zero total mass are returned unchanged.
pub fn normalize(scores: &mut [f64]) {
    let total: f64 = scores.iter().sum();
    if total > 0.0 {
        for s in scores.iter_mut() {
            *s /= total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_selects_largest() {
        let scores = vec![0.1, 0.5, 0.3, 0.05, 0.05];
        assert_eq!(top_k(&scores, 2), vec![1, 2]);
        assert_eq!(top_k(&scores, 3), vec![1, 2, 0]);
    }

    #[test]
    fn top_k_ties_break_by_id() {
        let scores = vec![0.25, 0.25, 0.25, 0.25];
        assert_eq!(top_k(&scores, 2), vec![0, 1]);
    }

    #[test]
    fn top_k_k_larger_than_n() {
        let scores = vec![0.3, 0.7];
        assert_eq!(top_k(&scores, 10), vec![1, 0]);
    }

    #[test]
    fn top_k_zero_and_empty() {
        assert!(top_k(&[0.5, 0.5], 0).is_empty());
        assert!(top_k(&[], 3).is_empty());
    }

    #[test]
    fn heap_path_matches_sort_path() {
        // Construct enough elements that k < n/2 triggers the bounded-heap path, and
        // compare against the straightforward full sort.
        let scores: Vec<f64> = (0..500)
            .map(|i| ((i * 7919) % 1000) as f64 / 1000.0)
            .collect();
        let k = 25;
        let fast = top_k(&scores, k);
        let mut order: Vec<VertexId> = (0..scores.len() as VertexId).collect();
        order.sort_unstable_by(|&a, &b| compare(&scores, a, b));
        order.truncate(k);
        assert_eq!(fast, order);
    }

    /// The documented order, spelled without `compare`: numbers descending, then NaNs,
    /// ids ascending within a tie.
    fn naive_order(scores: &[f64], k: usize) -> Vec<VertexId> {
        let mut numbers: Vec<VertexId> = (0..scores.len() as VertexId)
            .filter(|&v| !scores[v as usize].is_nan())
            .collect();
        // A stable sort keeps ascending ids among equal scores.
        numbers.sort_by(|&a, &b| scores[b as usize].partial_cmp(&scores[a as usize]).unwrap());
        let nans = (0..scores.len() as VertexId).filter(|&v| scores[v as usize].is_nan());
        numbers.extend(nans);
        numbers.truncate(k);
        numbers
    }

    #[test]
    fn nan_scores_rank_below_every_number_on_both_paths() {
        let n = 40;
        let base: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64 / 7.0).collect();
        // NaN at the front, in the middle, at the end, and all three at once.
        for nan_at in [
            vec![0],
            vec![n / 2],
            vec![n - 1],
            vec![0, 1, n / 2, n - 2, n - 1],
        ] {
            let mut scores = base.clone();
            for &i in &nan_at {
                scores[i] = f64::NAN;
            }
            // k < n / 2 takes the selection path, k >= n / 2 the sort path.
            for k in [1, 3, n / 2 - 1, n / 2, n - 1, n] {
                let got = top_k(&scores, k);
                assert_eq!(got, naive_order(&scores, k), "nan_at={nan_at:?} k={k}");
                let numbers = n - nan_at.len();
                assert!(
                    got.iter()
                        .take(numbers)
                        .all(|&v| !scores[v as usize].is_nan()),
                    "a NaN outranked a number: nan_at={nan_at:?} k={k}"
                );
            }
        }
        // -inf is a number: it still beats NaN, on the selection path too.
        let mut low = vec![f64::NAN; 10];
        low[7] = f64::NEG_INFINITY;
        low[9] = 0.0;
        assert_eq!(top_k(&low, 3), vec![9, 7, 0]);
        // Nothing but NaN: ids ascending.
        assert_eq!(top_k(&[f64::NAN; 9], 2), vec![0, 1]);
    }

    #[test]
    fn sorting_a_nan_bearing_vector_does_not_panic() {
        // `sort_unstable_by` checks its comparator: an order in which NaN ties with
        // everything aborts with "does not correctly implement a total order".
        let scores: Vec<f64> = (0..2_000)
            .map(|i| {
                if i % 7 == 0 {
                    f64::NAN
                } else {
                    ((i * 7919) % 1000) as f64
                }
            })
            .collect();
        for k in [20, 1_000, 2_000] {
            assert_eq!(top_k(&scores, k), naive_order(&scores, k), "k={k}");
        }
    }

    #[test]
    fn selection_admits_only_strictly_better_scores() {
        // Mostly zeros with a few repeated positives, like a PPR estimate: zero-score
        // ids fill the tail in id order, and equal positives keep id order.
        let mut scores = vec![0.0; 200];
        for (i, s) in [(150, 0.5), (20, 0.25), (90, 0.5), (199, 0.25), (60, 0.125)] {
            scores[i] = s;
        }
        assert_eq!(top_k(&scores, 8), vec![90, 150, 20, 199, 60, 0, 1, 2]);
    }

    #[test]
    fn set_mass_sums_scores() {
        let scores = vec![0.1, 0.2, 0.3, 0.4];
        assert!((set_mass(&scores, &[1, 3]) - 0.6).abs() < 1e-12);
        assert_eq!(set_mass(&scores, &[]), 0.0);
    }

    #[test]
    fn normalize_makes_distribution() {
        let mut scores = vec![2.0, 3.0, 5.0];
        normalize(&mut scores);
        assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((scores[2] - 0.5).abs() < 1e-12);
        // zero vector unchanged
        let mut zeros = vec![0.0, 0.0];
        normalize(&mut zeros);
        assert_eq!(zeros, vec![0.0, 0.0]);
    }
}
