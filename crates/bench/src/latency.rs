//! The latency percentile `cheribench` reports.
//!
//! One definition, stated explicitly: the **nearest-rank** percentile.
//! For a sorted sample of `N` values, the p-th percentile is the value
//! at 1-based rank `ceil(p · N / 100)` (clamped to `[1, N]`). This is
//! the textbook definition — no interpolation, always an observed
//! value, p100 = max — and it replaces an earlier rounded-interpolation
//! formula whose p50 of a 2-sample `[10, 20]` was 20, not 10. The unit
//! tests pin the small-N cases exactly so the definition cannot drift
//! silently again.

/// Nearest-rank percentile of an ascending-sorted slice: the value at
/// 1-based rank `ceil(pct · N / 100)`, clamped to the sample. Returns 0
/// for an empty slice; `pct` is clamped to 100.
#[must_use]
pub fn nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (pct.min(100) * n).div_ceil(100).clamp(1, n);
    sorted[(rank - 1) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_sample_is_every_percentile() {
        let s = [42];
        for pct in [0, 1, 50, 95, 99, 100] {
            assert_eq!(nearest_rank(&s, pct), 42, "p{pct}");
        }
    }

    #[test]
    fn two_samples_split_at_p50() {
        // ceil(50·2/100) = 1 → the *lower* value; anything past 50%
        // needs rank 2. The old interpolating formula got this wrong.
        let s = [10, 20];
        assert_eq!(nearest_rank(&s, 50), 10);
        assert_eq!(nearest_rank(&s, 51), 20);
        assert_eq!(nearest_rank(&s, 95), 20);
        assert_eq!(nearest_rank(&s, 99), 20);
        assert_eq!(nearest_rank(&s, 100), 20);
    }

    #[test]
    fn four_samples_pin_every_quartile() {
        let s = [1, 2, 3, 4];
        assert_eq!(nearest_rank(&s, 25), 1); // ceil(25·4/100) = 1
        assert_eq!(nearest_rank(&s, 50), 2); // ceil(50·4/100) = 2
        assert_eq!(nearest_rank(&s, 75), 3);
        assert_eq!(nearest_rank(&s, 95), 4); // ceil(95·4/100) = 4
        assert_eq!(nearest_rank(&s, 99), 4);
    }

    #[test]
    fn hundred_samples_map_pct_to_rank_directly() {
        // With N = 100, rank = pct exactly: p50 is the 50th value.
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 50), 50);
        assert_eq!(nearest_rank(&s, 95), 95);
        assert_eq!(nearest_rank(&s, 99), 99);
        assert_eq!(nearest_rank(&s, 100), 100);
        assert_eq!(nearest_rank(&s, 1), 1);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(nearest_rank(&[], 50), 0);
        assert_eq!(nearest_rank(&[7], 0), 7, "p0 clamps to rank 1");
        assert_eq!(nearest_rank(&[1, 2], 200), 2, "pct clamps to 100");
    }
}
