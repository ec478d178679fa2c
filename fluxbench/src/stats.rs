//! Order statistics over measured samples.

use std::ops::Range;

/// Percentiles a tail is reported at, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `pct` percent of all samples at or below it.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(pct, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of `pct` among `n` samples. The epsilon keeps
/// exact products such as 99.99 % of 240 000 from rounding up a rank.
fn rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Median over `windows` contiguous windows of the keys `0..keys` (ticks
/// or periods) of `stat(window)`, skipping windows where it is `None`.
/// A slowdown of the host during part of a run moves only the windows it
/// covers, so the median stays with the rest of the run.
pub fn window_median(
    keys: usize,
    windows: usize,
    stat: impl Fn(Range<usize>) -> Option<f64>,
) -> f64 {
    let windows = windows.clamp(1, keys.max(1));
    let values: Vec<f64> = (0..windows)
        .filter_map(|w| stat(w * keys / windows..(w + 1) * keys / windows))
        .collect();
    median(&values)
}

/// The values of `keyed` (sorted by key) whose key falls in `keys`.
pub fn keyed_in(keyed: &[(u32, f64)], keys: Range<usize>) -> impl Iterator<Item = f64> + '_ {
    let from = keyed.partition_point(|&(k, _)| (k as usize) < keys.start);
    let to = keyed.partition_point(|&(k, _)| (k as usize) < keys.end);
    keyed[from..to].iter().map(|&(_, v)| v)
}

/// The highest reportable percentile of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. `99.99`.
    pub pct: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// How many samples the distribution holds.
    pub samples: usize,
}

/// The highest percentile on the 50/90/99/99.9/… ladder with at least
/// ten samples beyond it, so a tail is never one unlucky sample. With
/// fewer than twenty samples no percentile qualifies and the median is
/// reported.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let pct = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n - n.min(rank(p, n)) >= TAIL_BEYOND)
        .unwrap_or(50.0);
    Tail {
        pct,
        value: percentile(sorted, pct),
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1000));
        assert_eq!((t.pct, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples: p99 would leave 9 beyond, so p90 is reported.
        let t = tail(&ramp(999));
        assert_eq!((t.pct, t.samples), (90.0, 999));
        assert_eq!(sorted_beyond(&ramp(999), t.value), 99);
        // 240k samples reach p99.99 (24 beyond) but not p99.999.
        let t = tail(&ramp(240_000));
        assert_eq!((t.pct, t.value), (99.99, 239_976.0));
        assert_eq!(sorted_beyond(&ramp(240_000), t.value), 24);
        // Too few samples for any tail: the median stands in.
        let t = tail(&ramp(12));
        assert_eq!((t.pct, t.value, t.samples), (50.0, 6.0, 12));
        assert_eq!(tail(&[]).samples, 0);
    }

    fn sorted_beyond(sorted: &[f64], value: f64) -> usize {
        sorted.iter().filter(|&&v| v > value).count()
    }
}
