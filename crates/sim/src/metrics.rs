//! Lightweight metrics: named counters and value series.
//!
//! Experiments read these after a run to produce the rows of each
//! table/figure. Keys are `&'static str` to keep the hot path
//! allocation-free.
//!
//! Names are interned: counters and series live in dense `Vec`s, and a
//! name-ordered map from name *text* to slot serves the readers
//! ([`Metrics::counter`], [`Metrics::series`], [`Metrics::summary`], …),
//! [`Metrics::merge`] and [`Metrics::counters`]. The recording calls —
//! `add`, `incr`, `observe`, several per delivered message — skip the
//! string compare: they look the slot up by the name's `(address,
//! length)` in a small hash map with a multiplicative hasher. An address
//! not seen before is resolved once by its text and then cached, so two
//! copies of the same text at different addresses are still one counter;
//! nothing relies on the linker merging equal literals. The cache cannot
//! alias: a `&'static str` is never freed or written, so an address seen
//! with a length names the same text for the rest of the program.
//!
//! Series are **O(1) per observation and bounded in memory**: every
//! series keeps streaming aggregates (count, running sum, min, max — all
//! exact regardless of length) plus a [`Reservoir`] of retained samples
//! for quantiles. Below [`RESERVOIR_CAP`] observations the reservoir
//! holds the series verbatim, so short runs report *exactly* what an
//! unbounded `Vec` would have — quantiles, means and summaries are
//! byte-identical, which the determinism replay suite depends on. Beyond
//! the cap the reservoir degrades gracefully to a uniform subsample
//! (classic algorithm R) driven by a self-contained xorshift, never the
//! simulation RNG, so metrics can never perturb a run.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Samples a series retains for quantile queries. Below this count a
/// series is stored exactly; beyond it, a uniform reservoir subsample.
pub const RESERVOIR_CAP: usize = 4096;

/// Seed of every reservoir's private xorshift. A fixed constant: the
/// replacement pattern is deterministic per series, independent of the
/// simulation seed and of every other series.
const RESERVOIR_RNG_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A bounded value series: exact streaming aggregates plus a capped
/// sample set for quantiles. The building block behind [`Metrics`]
/// series, also usable standalone (e.g. per-phase latency accounting).
#[derive(Debug, Clone, PartialEq)]
pub struct Reservoir {
    n: u64,
    sum: f64,
    min: f64,
    max: f64,
    samples: Vec<f64>,
    rng: u64,
}

impl Default for Reservoir {
    fn default() -> Self {
        Reservoir::new()
    }
}

impl Reservoir {
    /// An empty reservoir.
    #[must_use]
    pub fn new() -> Self {
        Reservoir {
            n: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            samples: Vec::new(),
            rng: RESERVOIR_RNG_SEED,
        }
    }

    /// Records one observation: O(1), no allocation once the sample
    /// buffer has grown to its bound.
    pub fn observe(&mut self, v: f64) {
        self.n += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if self.samples.len() < RESERVOIR_CAP {
            self.samples.push(v);
        } else {
            // Algorithm R: keep each of the n observations with equal
            // probability CAP/n.
            let j = (xorshift(&mut self.rng) % self.n) as usize;
            if j < RESERVOIR_CAP {
                self.samples[j] = v;
            }
        }
    }

    /// Observations recorded (the true count, not the retained count).
    #[must_use]
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True when nothing has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether the retained samples are the full series (true until the
    /// series outgrows [`RESERVOIR_CAP`]).
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.n as usize <= RESERVOIR_CAP
    }

    /// The retained samples: the whole series while [`Reservoir::is_exact`],
    /// a uniform subsample after.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mean of *all* observations (exact at any length), `None` when
    /// empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }

    /// Nearest-rank quantiles over the retained samples — exact while
    /// the series is, approximate beyond the cap except for the extremes
    /// (p = 0 and p = 1 answer from the exact streaming min/max).
    #[must_use]
    pub fn quantiles(&self, ps: &[f64]) -> Vec<Option<f64>> {
        let mut qs = quantiles_of(&self.samples, ps);
        if !self.is_exact() {
            for (q, &p) in qs.iter_mut().zip(ps) {
                if p <= 0.0 {
                    *q = Some(self.min);
                } else if p >= 1.0 {
                    *q = Some(self.max);
                }
            }
        }
        qs
    }

    /// Summary statistics: `n`, `mean`, `min`, `max` are exact at any
    /// length; `std_dev` is computed over the retained samples around the
    /// exact mean (so it too is exact while the series is).
    #[must_use]
    pub fn summary(&self) -> Summary {
        if self.n == 0 {
            return Summary { n: 0, mean: 0.0, std_dev: 0.0, min: 0.0, max: 0.0 };
        }
        let mean = self.sum / self.n as f64;
        let var = if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
                / self.samples.len() as f64
        };
        Summary { n: self.n as usize, mean, std_dev: var.sqrt(), min: self.min, max: self.max }
    }

    /// Folds another reservoir in. Aggregates (`n`, sum, min, max) merge
    /// exactly; samples concatenate while the result stays within the
    /// cap (matching what a `Vec` concatenation would retain), then
    /// degrade to reservoir replacement.
    pub fn merge(&mut self, other: &Reservoir) {
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for &v in &other.samples {
            self.n += 1;
            if self.samples.len() < RESERVOIR_CAP {
                self.samples.push(v);
            } else {
                let j = (xorshift(&mut self.rng) % self.n) as usize;
                if j < RESERVOIR_CAP {
                    self.samples[j] = v;
                }
            }
        }
        // Observations the other side had already downsampled away still
        // count toward n (their sum/min/max merged above).
        self.n += other.n - other.samples.len() as u64;
    }
}

/// Aggregates of one window of a series — everything observed since the
/// last [`Metrics::take_window`]. Mean and max are exact: the window
/// accumulates as observations arrive, so no samples are retained or
/// re-scanned (the O(1)-per-op replacement for slicing a series by
/// remembered offsets).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Window {
    /// Observations in the window.
    pub n: u64,
    /// Their running sum (left-to-right, matching what summing a slice
    /// of the old unbounded series produced).
    pub sum: f64,
    /// Their maximum (0 for an empty window, like [`Summary::of`] on an
    /// empty slice).
    pub max: f64,
}

impl Window {
    /// Mean of the window, 0 when empty (mirroring [`Summary::of`]).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// One named series: the run-wide reservoir plus the open window.
#[derive(Debug, Clone)]
struct SeriesCell {
    res: Reservoir,
    win_n: u64,
    win_sum: f64,
    win_max: f64,
}

impl Default for SeriesCell {
    fn default() -> Self {
        SeriesCell { res: Reservoir::new(), win_n: 0, win_sum: 0.0, win_max: f64::NEG_INFINITY }
    }
}

/// Multiplicative hash of a name's `(address, length)` — a multiply and
/// a rotate per word. Plenty for the few dozen names a sink holds, and a
/// fraction of what std's `SipHash` costs on the recording path.
#[derive(Default, Clone, Copy)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its best bits on top; the table indexes by
        // the low ones.
        self.0.rotate_left(26)
    }
}

/// One kind of named cell (counters, or series) in a dense `Vec`.
#[derive(Debug, Clone, Default)]
struct Interned<T> {
    cells: Vec<T>,
    /// Name text → slot, in name order: the readers, `merge` and export.
    by_name: BTreeMap<&'static str, usize>,
    /// `(address, length)` of every name recorded through → slot.
    by_addr: HashMap<(usize, usize), usize, BuildHasherDefault<AddrHasher>>,
}

impl<T: Default> Interned<T> {
    /// The cell named `name`, created at `T::default()` on first use.
    fn cell(&mut self, name: &'static str) -> &mut T {
        let key = (name.as_ptr() as usize, name.len());
        let slot = match self.by_addr.get(&key) {
            Some(&slot) => slot,
            None => self.intern(name, key),
        };
        &mut self.cells[slot]
    }

    /// Resolves a name seen at a new address by its text, creating the
    /// cell if the text is new too, and caches the address.
    #[cold]
    fn intern(&mut self, name: &'static str, key: (usize, usize)) -> usize {
        let fresh = self.cells.len();
        let slot = *self.by_name.entry(name).or_insert(fresh);
        if slot == fresh {
            self.cells.push(T::default());
        }
        self.by_addr.insert(key, slot);
        slot
    }

    fn get(&self, name: &str) -> Option<&T> {
        self.by_name.get(name).map(|&slot| &self.cells[slot])
    }

    fn get_mut(&mut self, name: &str) -> Option<&mut T> {
        self.by_name.get(name).map(|&slot| &mut self.cells[slot])
    }

    /// Every cell with its name, in name order.
    fn iter(&self) -> impl Iterator<Item = (&'static str, &T)> + '_ {
        self.by_name.iter().map(|(&name, &slot)| (name, &self.cells[slot]))
    }

    fn clear(&mut self) {
        self.cells.clear();
        self.by_name.clear();
        self.by_addr.clear();
    }
}

/// Counter and series sink shared by the kernel and the protocols.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    counters: Interned<u64>,
    series: Interned<SeriesCell>,
}

impl Metrics {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the named counter (creating it at zero).
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.counters.cell(name) += v;
    }

    /// Increments the named counter by one.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value of a counter (zero if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Appends an observation to the named series: O(1) and, once the
    /// series buffer reaches [`RESERVOIR_CAP`], allocation-free.
    pub fn observe(&mut self, name: &'static str, v: f64) {
        let cell = self.series.cell(name);
        cell.res.observe(v);
        cell.win_n += 1;
        cell.win_sum += v;
        cell.win_max = cell.win_max.max(v);
    }

    /// The retained samples of a series (empty slice if absent): the
    /// full series while it fits [`RESERVOIR_CAP`], a uniform subsample
    /// beyond.
    #[must_use]
    pub fn series(&self, name: &str) -> &[f64] {
        self.series.get(name).map_or(&[], |c| c.res.samples())
    }

    /// The named series' reservoir, if it exists.
    #[must_use]
    pub fn reservoir(&self, name: &str) -> Option<&Reservoir> {
        self.series.get(name).map(|c| &c.res)
    }

    /// Closes the named series' current window and opens a fresh one:
    /// returns the exact count/sum/max of everything observed since the
    /// last take (or series creation). A `Window` for an absent series
    /// is empty. This is how phase-scoped accounting stays O(1): callers
    /// cut windows at phase boundaries instead of slicing an unbounded
    /// series by remembered offsets.
    pub fn take_window(&mut self, name: &'static str) -> Window {
        match self.series.get_mut(name) {
            Some(cell) => {
                let w = Window {
                    n: cell.win_n,
                    sum: cell.win_sum,
                    max: if cell.win_n == 0 { 0.0 } else { cell.win_max },
                };
                cell.win_n = 0;
                cell.win_sum = 0.0;
                cell.win_max = f64::NEG_INFINITY;
                w
            }
            None => Window::default(),
        }
    }

    /// Mean of a series — exact at any length — or `None` when empty.
    #[must_use]
    pub fn mean(&self, name: &str) -> Option<f64> {
        self.series.get(name).and_then(|c| c.res.mean())
    }

    /// `p`-quantile (0..=1) of a series using nearest-rank, or `None` when
    /// empty.
    #[must_use]
    pub fn quantile(&self, name: &str, p: f64) -> Option<f64> {
        self.quantiles(name, std::slice::from_ref(&p))[0]
    }

    /// Several `p`-quantiles of a series at once, sorting it a single
    /// time — the per-operation latency reporting path (e.g. p50/p95/p99
    /// of `client.op_ticks`) reads them together. Each entry is `None`
    /// when the series is empty. Exact while the series fits
    /// [`RESERVOIR_CAP`]; computed over a uniform subsample beyond.
    #[must_use]
    pub fn quantiles(&self, name: &str, ps: &[f64]) -> Vec<Option<f64>> {
        match self.series.get(name) {
            Some(cell) => cell.res.quantiles(ps),
            None => vec![None; ps.len()],
        }
    }

    /// Summary statistics of the named series (zeroed when the series is
    /// empty or absent). Per-operation accounting — e.g. nodes contacted
    /// per multi-tuple read — is recorded with [`Metrics::observe`] and
    /// read back through this in one call. `n`, `mean`, `min`, `max` are
    /// exact at any series length.
    #[must_use]
    pub fn summary(&self, name: &str) -> Summary {
        self.series.get(name).map_or_else(|| Summary::of(&[]), |c| c.res.summary())
    }

    /// Iterates over all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(name, &v)| (name, v))
    }

    /// Merges another sink into this one (counters add, series fold
    /// together; see [`Reservoir::merge`]). The other sink's open
    /// windows fold into this one's.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, v) in other.counters.iter() {
            *self.counters.cell(name) += v;
        }
        for (name, cell) in other.series.iter() {
            let mine = self.series.cell(name);
            mine.res.merge(&cell.res);
            mine.win_n += cell.win_n;
            mine.win_sum += cell.win_sum;
            mine.win_max = mine.win_max.max(cell.win_max);
        }
    }

    /// Clears all recorded data.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.series.clear();
    }
}

/// Nearest-rank `p`-quantiles (each `p` clamped to `0.0..=1.0`) of a raw
/// slice, sorting once for all of them; every entry is `None` when `xs`
/// is empty. The standalone core of [`Metrics::quantiles`], for callers
/// holding raw observations rather than a named series.
#[must_use]
pub fn quantiles_of(xs: &[f64], ps: &[f64]) -> Vec<Option<f64>> {
    if xs.is_empty() {
        return vec![None; ps.len()];
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    ps.iter()
        .map(|p| {
            let rank = ((p.clamp(0.0, 1.0) * s.len() as f64).ceil() as usize).clamp(1, s.len());
            Some(s[rank - 1])
        })
        .collect()
}

/// Summary statistics for a slice of observations.
///
/// ```
/// let s = dd_sim::metrics::Summary::of(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.max, 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean (0 for an empty slice).
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum value (0 for an empty slice).
    pub min: f64,
    /// Maximum value (0 for an empty slice).
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics of `xs`.
    #[must_use]
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary { n: 0, mean: 0.0, std_dev: 0.0, min: 0.0, max: 0.0 };
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in xs {
            min = min.min(x);
            max = max.max(x);
        }
        Summary { n: xs.len(), mean, std_dev: var.sqrt(), min, max }
    }

    /// Coefficient of variation (`std_dev / mean`), the load-balance measure
    /// used by experiment E8; zero when the mean is zero.
    #[must_use]
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("sent");
        m.add("sent", 4);
        assert_eq!(m.counter("sent"), 5);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn series_mean_and_quantile() {
        let mut m = Metrics::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            m.observe("lat", v);
        }
        assert_eq!(m.mean("lat"), Some(2.5));
        assert_eq!(m.quantile("lat", 0.5), Some(2.0));
        assert_eq!(m.quantile("lat", 1.0), Some(4.0));
        assert_eq!(m.quantile("lat", 0.0), Some(1.0));
        assert_eq!(m.mean("absent"), None);
    }

    #[test]
    fn batch_quantiles_match_single_quantiles() {
        let mut m = Metrics::new();
        for v in [9.0, 1.0, 5.0, 3.0, 7.0] {
            m.observe("lat", v);
        }
        let ps = [0.0, 0.5, 0.95, 1.0];
        let batch = m.quantiles("lat", &ps);
        let singly: Vec<Option<f64>> = ps.iter().map(|&p| m.quantile("lat", p)).collect();
        assert_eq!(batch, singly);
        assert_eq!(m.quantiles("absent", &ps), vec![None; 4]);
    }

    #[test]
    fn quantiles_of_empty_series_is_all_none() {
        assert_eq!(quantiles_of(&[], &[0.0, 0.5, 1.0]), vec![None; 3]);
        let m = Metrics::new();
        assert_eq!(m.quantiles("never-observed", &[0.5, 0.95]), vec![None; 2]);
    }

    #[test]
    fn quantiles_of_single_sample_answers_every_p() {
        // One observation is every quantile of itself, including the
        // extremes and out-of-range p (clamped).
        assert_eq!(quantiles_of(&[7.5], &[-0.5, 0.0, 0.25, 0.5, 1.0, 2.0]), vec![Some(7.5); 6]);
    }

    #[test]
    fn quantile_extremes_are_min_and_max() {
        let xs = [9.0, -2.0, 4.0, 4.0, 0.5];
        let q = quantiles_of(&xs, &[0.0, 1.0]);
        assert_eq!(q, vec![Some(-2.0), Some(9.0)]);
        // p beyond the unit interval clamps rather than panicking.
        assert_eq!(quantiles_of(&xs, &[-1.0, 1.5]), vec![Some(-2.0), Some(9.0)]);
    }

    #[test]
    fn series_summary_matches_direct_computation() {
        let mut m = Metrics::new();
        for v in [3.0, 5.0, 7.0] {
            m.observe("op.contacts", v);
        }
        let s = m.summary("op.contacts");
        assert_eq!(s.n, 3);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(m.summary("absent").n, 0);
    }

    #[test]
    fn merge_adds_counters_and_extends_series() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.add("x", 2);
        b.add("x", 3);
        b.observe("s", 1.0);
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.series("s"), &[1.0]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = Metrics::new();
        m.incr("x");
        m.observe("s", 1.0);
        m.reset();
        assert_eq!(m.counter("x"), 0);
        assert!(m.series("s").is_empty());
    }

    #[test]
    fn summary_statistics_are_correct() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean, 5.0);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.cv() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_slice_is_zeroed() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn counters_iterate_in_name_order() {
        let mut m = Metrics::new();
        m.incr("b");
        m.incr("a");
        let names: Vec<_> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn small_series_report_exactly_what_a_vec_would() {
        // Below the cap, every reported statistic equals the unbounded-
        // Vec computation bit for bit.
        let xs: Vec<f64> = (0..1_000).map(|i| f64::from((i * 37) % 101)).collect();
        let mut m = Metrics::new();
        for &v in &xs {
            m.observe("s", v);
        }
        assert_eq!(m.series("s"), xs.as_slice());
        assert_eq!(m.mean("s"), Some(xs.iter().sum::<f64>() / xs.len() as f64));
        assert_eq!(m.quantiles("s", &[0.5, 0.95]), quantiles_of(&xs, &[0.5, 0.95]));
        assert_eq!(m.summary("s"), Summary::of(&xs));
    }

    #[test]
    fn reservoir_stays_bounded_with_exact_aggregates() {
        let mut r = Reservoir::new();
        let n = RESERVOIR_CAP * 4;
        for i in 0..n {
            r.observe(i as f64);
        }
        assert_eq!(r.len(), n);
        assert!(!r.is_exact());
        assert_eq!(r.samples().len(), RESERVOIR_CAP, "memory is bounded");
        // Aggregates never degrade.
        let s = r.summary();
        assert_eq!(s.n, n);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, (n - 1) as f64);
        let expected_mean = (n - 1) as f64 / 2.0;
        assert!((s.mean - expected_mean).abs() < 1e-9);
        // Quantile extremes answer from streaming min/max; the median is
        // a uniform-subsample estimate, loose-bounded here.
        let q = r.quantiles(&[0.0, 0.5, 1.0]);
        assert_eq!(q[0], Some(0.0));
        assert_eq!(q[2], Some((n - 1) as f64));
        let med = q[1].unwrap();
        assert!((med - expected_mean).abs() < n as f64 * 0.1, "median estimate {med}");
    }

    #[test]
    fn reservoir_replacement_is_deterministic() {
        let run = || {
            let mut r = Reservoir::new();
            for i in 0..(RESERVOIR_CAP * 2) {
                r.observe(i as f64);
            }
            r
        };
        assert_eq!(run(), run(), "same observations, same retained samples");
    }

    #[test]
    fn windows_cut_series_without_retaining_samples() {
        let mut m = Metrics::new();
        for v in [2.0, 4.0, 9.0] {
            m.observe("w", v);
        }
        let first = m.take_window("w");
        assert_eq!(first.n, 3);
        assert_eq!(first.mean(), 5.0);
        assert_eq!(first.max, 9.0);
        // The next window starts empty; the run-wide series is untouched.
        m.observe("w", 1.0);
        let second = m.take_window("w");
        assert_eq!((second.n, second.mean(), second.max), (1, 1.0, 1.0));
        assert_eq!(m.take_window("w"), Window::default(), "empty window is zeroed");
        assert_eq!(m.take_window("absent"), Window::default());
        assert_eq!(m.summary("w").n, 4, "windows don't consume the series");
    }

    #[test]
    fn window_mean_matches_slice_mean_bitwise() {
        // The window's running sum accumulates in observation order, so
        // its mean is bit-identical to summing the equivalent slice.
        let xs = [0.1, 0.2, 0.3, 0.7, 1.9, 2.2];
        let mut m = Metrics::new();
        for &v in &xs[..4] {
            m.observe("w", v);
        }
        let w = m.take_window("w");
        assert_eq!(w.mean(), xs[..4].iter().sum::<f64>() / 4.0);
        for &v in &xs[4..] {
            m.observe("w", v);
        }
        let w = m.take_window("w");
        assert_eq!(w.mean(), xs[4..].iter().sum::<f64>() / 2.0);
    }

    #[test]
    fn p99_of_empty_tiny_and_subsampled_series() {
        // Empty: no answer, not a zero.
        let m = Metrics::new();
        assert_eq!(m.quantile("lat", 0.99), None);

        // Tiny: nearest-rank at p99 lands on the last sorted sample, so
        // 1–3 observations all answer with their maximum.
        let mut m = Metrics::new();
        m.observe("lat", 42.0);
        assert_eq!(m.quantile("lat", 0.99), Some(42.0));
        m.observe("lat", 7.0);
        m.observe("lat", 99.0);
        assert_eq!(m.quantile("lat", 0.99), Some(99.0));
        assert_eq!(m.quantiles("lat", &[0.99]), quantiles_of(&[42.0, 7.0, 99.0], &[0.99]));

        // Subsampled: past the cap the p99 is a uniform-reservoir
        // estimate — still inside the observed range and near the true
        // rank for a uniform ramp — while p100 stays exact (streaming
        // max).
        let mut m = Metrics::new();
        let n = RESERVOIR_CAP * 8;
        for i in 0..n {
            m.observe("lat", i as f64);
        }
        assert!(!m.reservoir("lat").unwrap().is_exact());
        let q = m.quantiles("lat", &[0.99, 1.0]);
        let p99 = q[0].unwrap();
        let truth = 0.99 * (n - 1) as f64;
        assert!((p99 - truth).abs() < n as f64 * 0.02, "p99 estimate {p99} vs {truth}");
        assert_eq!(q[1], Some((n - 1) as f64), "p100 answers from the exact max");
    }

    #[test]
    fn windows_and_quantiles_are_independent_views() {
        // Cutting windows mid-series never perturbs the quantile view,
        // and each window sees exactly its own observations.
        let mut m = Metrics::new();
        for v in [5.0, 1.0, 3.0] {
            m.observe("lat", v);
        }
        let before = m.quantiles("lat", &[0.5, 0.99]);
        let w = m.take_window("lat");
        assert_eq!((w.n, w.max), (3, 5.0));
        assert_eq!(m.quantiles("lat", &[0.5, 0.99]), before);
        for v in [9.0, 2.0] {
            m.observe("lat", v);
        }
        let w = m.take_window("lat");
        assert_eq!((w.n, w.sum, w.max), (2, 11.0, 9.0));
        assert_eq!(m.quantile("lat", 0.99), Some(9.0), "run-wide view spans both windows");
    }

    #[test]
    fn take_window_past_the_cap_stays_exact() {
        // Windows accumulate streaming aggregates, so they are exact even
        // after the run-wide reservoir has started subsampling.
        let mut m = Metrics::new();
        for i in 0..RESERVOIR_CAP {
            m.observe("lat", i as f64);
        }
        m.take_window("lat");
        for i in 0..100 {
            m.observe("lat", (RESERVOIR_CAP + i) as f64);
        }
        let w = m.take_window("lat");
        assert_eq!(w.n, 100);
        assert_eq!(w.max, (RESERVOIR_CAP + 99) as f64);
        let expected: f64 = (0..100).map(|i| (RESERVOIR_CAP + i) as f64).sum();
        assert_eq!(w.sum, expected);
    }

    #[test]
    fn reservoir_merge_concatenates_while_exact() {
        let mut a = Reservoir::new();
        let mut b = Reservoir::new();
        for v in [1.0, 2.0] {
            a.observe(v);
        }
        for v in [3.0, 4.0, 5.0] {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.samples(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a.len(), 5);
        assert_eq!(a.mean(), Some(3.0));
        assert_eq!(a.summary().max, 5.0);
    }

    #[test]
    fn reservoir_merge_keeps_exact_aggregates_past_the_cap() {
        let mut a = Reservoir::new();
        let mut b = Reservoir::new();
        for i in 0..RESERVOIR_CAP {
            a.observe(i as f64);
            b.observe((RESERVOIR_CAP + i) as f64);
        }
        a.merge(&b);
        assert_eq!(a.len(), RESERVOIR_CAP * 2);
        assert_eq!(a.samples().len(), RESERVOIR_CAP);
        assert_eq!(a.summary().min, 0.0);
        assert_eq!(a.summary().max, (2 * RESERVOIR_CAP - 1) as f64);
        assert_eq!(a.summary().n, RESERVOIR_CAP * 2);
    }
}
