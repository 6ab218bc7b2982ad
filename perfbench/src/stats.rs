//! Order statistics shared by every metric.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median (mean of the middle pair for an even count). `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// A latency tail: the highest whole percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it, by nearest rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile read (100 = the maximum, used only when too few
    /// samples exist for any percentile to have ten beyond it).
    pub pct: u32,
    pub value: f64,
    /// Sample count the percentile was read from.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The tail rule. Percentile `p` reads the sample at nearest rank
/// `r = ceil(p·n/100)`; it qualifies when `n − r ≥ 10`. With fewer than
/// 20 samples not even the median qualifies, and the maximum is
/// reported instead as `pct = 100`, `beyond = 0`.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for pct in (50..=99u32).rev() {
        let rank = (pct as usize * n).div_ceil(100);
        if rank >= 1 && n - rank >= TAIL_BEYOND {
            return Tail {
                pct,
                value: v[rank - 1],
                samples: n,
                beyond: n - rank,
            };
        }
    }
    Tail {
        pct: 100,
        value: v.last().copied().unwrap_or(f64::NAN),
        samples: n,
        beyond: 0,
    }
}

/// Median of `runs` timed calls of `f`, in seconds.
pub fn timed_median(runs: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 100 samples 1..=100: p90 has rank 90 and exactly 10 beyond.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.samples, t.beyond), (90, 90.0, 100, 10));
        // 1000 samples: p99 has rank 990 and 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.beyond), (99, 990.0, 10));
    }

    #[test]
    fn tail_reports_the_highest_qualifying_percentile() {
        // 37 samples: p72 → rank ceil(26.64) = 27, 10 beyond; p73 →
        // rank 28, only 9 beyond.
        let xs: Vec<f64> = (1..=37).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.samples, t.beyond), (72, 27.0, 37, 10));
        assert!(t.beyond >= TAIL_BEYOND);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut xs: Vec<f64> = (1..=50).map(f64::from).collect();
        let sorted = tail(&xs);
        xs.reverse();
        assert_eq!(tail(&xs), sorted);
    }

    #[test]
    fn short_series_fall_back_to_the_maximum() {
        let t = tail(&[2.0, 5.0, 3.0]);
        assert_eq!((t.pct, t.value, t.samples, t.beyond), (100, 5.0, 3, 0));
        // 20 samples is the smallest count where the median qualifies.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).pct, 50);
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs).pct, 100);
    }
}
