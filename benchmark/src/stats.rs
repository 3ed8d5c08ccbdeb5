//! Order statistics and the slice-rate estimator.

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One job's service interval on the region clock, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub start: f64,
    pub end: f64,
}

/// Work done in each of `slices` equal parts of `[0, region)`, as a rate.
///
/// A job's `work` is spread evenly over its interval, so a job that
/// straddles a boundary contributes to both slices in proportion. Counting
/// whole completions instead would quantize a slice holding a handful of
/// jobs to steps of one job — coarser than the bounds this feeds.
pub fn slice_rates(jobs: &[Interval], work: f64, region: f64, slices: usize) -> Vec<f64> {
    let len = region / slices as f64;
    (0..slices)
        .map(|s| {
            let (lo, hi) = (s as f64 * len, (s + 1) as f64 * len);
            let done: f64 = jobs
                .iter()
                .map(|j| {
                    let overlap = (j.end.min(hi) - j.start.max(lo)).max(0.0);
                    let span = j.end - j.start;
                    if span > 0.0 {
                        work * overlap / span
                    } else if j.end >= lo && j.end < hi {
                        work
                    } else {
                        0.0
                    }
                })
                .sum();
            done / len
        })
        .collect()
}

/// `(max − min) / median` of the slice rates: how uneven the region was.
pub fn spread(rates: &[f64]) -> f64 {
    let max = rates.iter().copied().fold(f64::MIN, f64::max);
    let min = rates.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn back_to_back_jobs_give_a_flat_rate() {
        // Ten sequential 1 s jobs of 8 units: 8 units/s in every slice,
        // although the 2.5 s slices hold 2.5 jobs each.
        let jobs: Vec<Interval> = (0..10)
            .map(|i| Interval {
                start: i as f64,
                end: i as f64 + 1.0,
            })
            .collect();
        for r in slice_rates(&jobs, 8.0, 10.0, 4) {
            assert!((r - 8.0).abs() < 1e-9, "{r}");
        }
    }

    #[test]
    fn work_outside_the_region_is_not_counted() {
        // One job runs 1 s before to 1 s after a 2 s region: half its work
        // falls inside.
        let jobs = [Interval {
            start: -1.0,
            end: 3.0,
        }];
        let rates = slice_rates(&jobs, 4.0, 2.0, 2);
        assert!((rates[0] - 1.0).abs() < 1e-9 && (rates[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_stalled_slice_shows_in_the_spread_but_not_the_median() {
        let rates = [10.0, 10.0, 5.0, 10.0, 10.0];
        assert_eq!(median(&rates), 10.0);
        assert!((spread(&rates) - 0.5).abs() < 1e-12);
    }
}
