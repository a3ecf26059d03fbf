//! Order statistics for repeats (median, quartiles) and a tick-latency
//! histogram with percentiles.

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the driver's spread is their distance over the median).
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it among `n` samples; `None` below twenty samples.
pub fn highest_resolved_percentile(n: u64) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9, 0.5].into_iter().find(|p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
}

/// Latencies in whole virtual ticks, one bin per tick value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    bins: Vec<u64>,
    count: u64,
}

impl Histogram {
    pub fn record(&mut self, ticks: u64) {
        let i = ticks as usize;
        if i >= self.bins.len() {
            self.bins.resize(i + 1, 0);
        }
        self.bins[i] += 1;
        self.count += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
        self.count += other.count;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// `(ticks, samples)` of every occupied bin, ascending.
    pub fn occupied(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bins.iter().enumerate().filter(|(_, &c)| c > 0).map(|(t, &c)| (t as u64, c))
    }

    /// The `p`-th percentile (`0 < p < 1`), 0 when empty. A latency is
    /// observed at the harvest after the reply arrived, so a sample of `v`
    /// ticks completed somewhere in `(v - resolution, v]`; the percentile
    /// is interpolated linearly inside that interval, which keeps it from
    /// jumping a whole harvest quantum when one sample changes bins.
    pub fn percentile(&self, p: f64, resolution: u64) -> f64 {
        let target = p * self.count as f64;
        let mut below = 0u64;
        for (ticks, c) in self.occupied() {
            if (below + c) as f64 >= target {
                let width = resolution.min(ticks) as f64;
                return ticks as f64 - width + width * (target - below as f64) / c as f64;
            }
            below += c;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_resolved_percentile(19), None);
        assert_eq!(highest_resolved_percentile(20), Some(0.5));
        assert_eq!(highest_resolved_percentile(999), Some(0.9));
        assert_eq!(highest_resolved_percentile(1_000), Some(0.99));
        assert_eq!(highest_resolved_percentile(9_999), Some(0.99));
        assert_eq!(highest_resolved_percentile(10_000), Some(0.999));
        assert_eq!(highest_resolved_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn percentiles_interpolate_inside_the_harvest_interval() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(20);
        }
        assert_eq!(h.count(), 100);
        // Tick resolution: the median sits half-way through the 10-tick bin.
        assert!((h.percentile(0.5, 1) - (9.0 + 50.0 / 90.0)).abs() < 1e-12);
        assert!((h.percentile(0.95, 1) - 19.5).abs() < 1e-12);
        // A 10-tick harvest quantum spreads each bin over ten ticks.
        assert!((h.percentile(0.95, 10) - 15.0).abs() < 1e-12);
        // The interval never reaches below tick zero.
        assert!(h.percentile(0.5, 25) > 0.0 && h.percentile(0.5, 25) <= 10.0);
        assert_eq!(Histogram::default().percentile(0.5, 1), 0.0);
    }

    #[test]
    fn merging_adds_bins_of_unequal_length() {
        let mut a = Histogram::default();
        a.record(2);
        let mut b = Histogram::default();
        b.record(2);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.occupied().collect::<Vec<_>>(), vec![(2, 2), (7, 1)]);
    }
}
