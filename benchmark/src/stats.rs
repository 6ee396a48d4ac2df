//! Order statistics over timing samples.

/// Percentile `p` (0..=100) of `samples` by linear interpolation between
/// the two closest ranks. Sorts a copy; panics on an empty slice, which
/// would be a harness bug (every round runs at least one op).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `(max - min) / median` of the per-round values: how far the rounds of
/// one run disagree. Reported so a reader can tell "unchanged" from
/// "unresolved".
pub fn round_spread(rounds: &[f64]) -> f64 {
    let max = rounds.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = rounds.iter().copied().fold(f64::INFINITY, f64::min);
    (max - min) / median(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        // rank = 0.95 * 3 = 2.85 → between 3.0 and 4.0
        assert!((percentile(&s, 95.0) - 3.85).abs() < 1e-12);
    }

    #[test]
    fn round_spread_is_range_over_median() {
        let rounds = [10.5, 12.0, 10.1, 18.0, 11.0];
        assert!((round_spread(&rounds) - (18.0 - 10.1) / 11.0).abs() < 1e-12);
    }
}
