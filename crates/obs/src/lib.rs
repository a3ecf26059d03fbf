//! # dd-obs — the continuous telemetry plane
//!
//! The audit plane answers *was the run correct?* and the trace plane
//! answers *why was this op slow?*; this crate answers *what was the
//! system doing over time?* A [`Telemetry`] collector samples gauges
//! every K virtual ticks into bounded ring-buffer time series — event
//! queue depth, in-flight messages by kind, completion-log occupancy,
//! store and tombstone growth, repair-round outcomes, failure-detector
//! live sets — and [`TelemetryReport`] summarises each series and runs
//! three built-in detectors over the result:
//!
//! * **monotonic growth (leak)** — a series that never shrinks and is
//!   still climbing at the end of the run (a completion log nobody
//!   harvests, an unbounded backlog);
//! * **sustained backlog** — a series that ends far above its run-long
//!   median and stays there (an event queue that stopped draining);
//! * **repair divergence** — anti-entropy rounds staying dirty while
//!   recovering nothing (summaries that disagree forever).
//!
//! The collector is sampled through the kernel's one observer hook
//! ([`dd_sim::Observer::sample`]), so it is read-only by construction: an
//! instrumented run replays byte-identically, and when nothing samples
//! the hook costs one compare per event.
//!
//! Runs export two ways: [`Telemetry::to_prometheus`] renders the final
//! sample in Prometheus text-exposition format (promtool/Grafana), and
//! [`Telemetry::to_csv`] dumps every point of every series for
//! spreadsheets and plotting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dd_sim::json_escape;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Virtual ticks between samples. At the stock drills' 24k–34k tick
/// horizons this yields ~100–140 points per series.
pub const DEFAULT_SAMPLE_PERIOD: u64 = 250;

/// Ring-buffer capacity per series: past this many points the oldest are
/// dropped (and counted in [`Series::dropped`]).
pub const DEFAULT_SERIES_CAP: usize = 4096;

// Detector thresholds, tuned for the stock drills' scale; the benches
// seeding deliberate regressions are judged by the same values.

/// Leak: minimum total growth (absolute) before a series qualifies.
const LEAK_MIN_GROWTH: f64 = 16.0;
/// Leak: the final quarter of samples must still have grown by at least
/// this fraction of the total growth (and by at least 1.0).
const LEAK_TAIL_SHARE: f64 = 0.05;
/// Backlog: the trailing window must sit at or above this multiple of
/// the run-long median.
const BACKLOG_FACTOR: f64 = 4.0;
/// Backlog: absolute floor for the trailing window.
const BACKLOG_MIN_DEPTH: f64 = 64.0;
/// Backlog: trailing samples that must all violate the bound.
const BACKLOG_WINDOW: usize = 8;
/// Divergence: minimum mean dirty-round rate over the last half.
const DIVERGENCE_MIN_RATE: f64 = 0.5;
/// Divergence: a recovery rate at or below this is "recovering nothing".
const DIVERGENCE_RECOVERED_EPS: f64 = 0.05;

/// Well-known series names shared between the collector installed by
/// `dd-core` and the consumers (detectors, report digests, benches).
pub mod names {
    /// Engine event-queue depth (scheduled deliveries + timers).
    pub const QUEUE_DEPTH: &str = "sim.queue_depth";
    /// Total messages in flight, all kinds.
    pub const IN_FLIGHT: &str = "msg.in_flight";
    /// Cluster-wide un-harvested completion records (soft tier).
    pub const COMPLETION_BACKLOG: &str = "cluster.completion_backlog";
    /// Cluster-wide in-progress client operations (soft tier).
    pub const PENDING_OPS: &str = "cluster.pending_ops";
    /// Cluster-wide acked-but-undelivered writes (soft tier).
    pub const UNDELIVERED: &str = "cluster.undelivered";
    /// Cluster-wide stored entries, tombstones included (persist tier).
    pub const STORE_TUPLES: &str = "cluster.store_tuples";
    /// Cluster-wide stored payload bytes (persist tier).
    pub const STORE_BYTES: &str = "cluster.store_bytes";
    /// Cluster-wide tombstones retained (persist tier).
    pub const TOMBSTONES: &str = "cluster.tombstones";
    /// Soft-tier failure detectors' mean live-set size.
    pub const FD_LIVE: &str = "cluster.fd_live_mean";
    /// Anti-entropy rounds answered since the previous sample.
    pub const REPAIR_ROUNDS: &str = "rate.repair_rounds";
    /// Anti-entropy rounds that compared clean since the previous sample.
    pub const REPAIR_CLEAN: &str = "rate.repair_clean";
    /// Entries recovered by repair since the previous sample.
    pub const REPAIR_RECOVERED: &str = "rate.repair_recovered";
    /// Messages sent since the previous sample.
    pub const NET_SENT: &str = "rate.net_sent";
    /// Completion records retired by the cap since the previous sample.
    pub const COMPLETIONS_RETIRED: &str = "rate.completions_retired";
}

/// What a series is keyed by beyond its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Label {
    /// A cluster- or engine-level series.
    None,
    /// A per-node series.
    Node(u64),
    /// A per-kind breakdown (e.g. in-flight messages by variant).
    Kind(&'static str),
}

impl Label {
    /// Renders the label as a Prometheus label set (`{node="3"}`), or
    /// `""` for [`Label::None`].
    fn prometheus(&self) -> String {
        match self {
            Label::None => String::new(),
            Label::Node(n) => format!("{{node=\"{n}\"}}"),
            Label::Kind(k) => format!("{{kind=\"{}\"}}", json_escape(k)),
        }
    }

    /// Renders the label for CSV (`node=3`, `kind=Fetch`, or empty).
    fn csv(&self) -> String {
        match self {
            Label::None => String::new(),
            Label::Node(n) => format!("node={n}"),
            Label::Kind(k) => format!("kind={k}"),
        }
    }
}

/// Identity of one time series: a static metric name plus a [`Label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Dotted metric name (`sim.queue_depth`).
    pub name: &'static str,
    /// Node/kind dimension, when the metric has one.
    pub label: Label,
}

impl fmt::Display for SeriesKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let l = self.label.csv();
        if l.is_empty() {
            write!(f, "{}", self.name)
        } else {
            write!(f, "{}[{l}]", self.name)
        }
    }
}

/// One bounded time series: `(tick, value)` points in sample order.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// The series identity.
    pub key: SeriesKey,
    points: VecDeque<(u64, f64)>,
    /// Points discarded from the front once the ring filled.
    pub dropped: u64,
}

impl Series {
    fn new(key: SeriesKey) -> Self {
        Series { key, points: VecDeque::new(), dropped: 0 }
    }

    fn push(&mut self, tick: u64, value: f64) {
        if self.points.len() == DEFAULT_SERIES_CAP {
            self.points.pop_front();
            self.dropped += 1;
        }
        self.points.push_back((tick, value));
    }

    /// Number of retained points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no point has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The retained points, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.points.iter().copied()
    }

    /// The most recent `(tick, value)` point.
    #[must_use]
    pub fn last(&self) -> Option<(u64, f64)> {
        self.points.back().copied()
    }

    /// Largest recorded value.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest recorded value.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min)
    }

    /// Mean of the recorded values.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Sum of the recorded values (the natural total for rate series).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).sum()
    }

    /// Median of the recorded values.
    #[must_use]
    pub fn median(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let mut vs: Vec<f64> = self.points.iter().map(|&(_, v)| v).collect();
        vs.sort_by(f64::total_cmp);
        vs[vs.len() / 2]
    }

    fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }
}

/// The sampling collector, sampled every [`DEFAULT_SAMPLE_PERIOD`]
/// ticks: a set of bounded time series plus the counter baselines used to
/// turn cumulative counters into per-sample rates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Telemetry {
    series: BTreeMap<SeriesKey, Series>,
    prev_counters: BTreeMap<&'static str, u64>,
    samples: u64,
}

impl Telemetry {
    /// Number of sampling sweeps taken ([`Telemetry::mark_sample`] calls).
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Records one gauge observation at `tick`.
    pub fn gauge(&mut self, tick: u64, name: &'static str, label: Label, value: f64) {
        let key = SeriesKey { name, label };
        self.series.entry(key).or_insert_with(|| Series::new(key)).push(tick, value);
    }

    /// Records a cumulative counter as a per-sample *rate*: the point
    /// stored is the delta since the previous call for `name`. The first
    /// observation records 0 and sets the baseline, so counter history
    /// from before instrumentation began (e.g. the settle window) is not
    /// attributed to the first interval.
    pub fn rate(&mut self, tick: u64, name: &'static str, current: u64) {
        let delta = match self.prev_counters.insert(name, current) {
            Some(prev) => current.saturating_sub(prev) as f64,
            None => 0.0,
        };
        self.gauge(tick, name, Label::None, delta);
    }

    /// Marks the end of one sampling sweep.
    pub fn mark_sample(&mut self) {
        self.samples += 1;
    }

    /// All series, ordered by key.
    pub fn series(&self) -> impl Iterator<Item = &Series> {
        self.series.values()
    }

    /// Looks up one series.
    #[must_use]
    pub fn get(&self, name: &str, label: Label) -> Option<&Series> {
        // Keys are &'static str but lookup only needs equality on content.
        self.series.iter().find(|(k, _)| k.name == name && k.label == label).map(|(_, s)| s)
    }

    /// Renders the *final* sample of every series in Prometheus text
    /// exposition format: one `# TYPE` line per metric name, one sample
    /// line per label combination, dots mapped to underscores and a
    /// `dd_` prefix (`cluster.store_bytes` → `dd_cluster_store_bytes`).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for s in self.series.values() {
            let Some((_, value)) = s.last() else { continue };
            let sanitized = format!("dd_{}", s.key.name.replace('.', "_"));
            if s.key.name != last_name {
                out.push_str(&format!("# TYPE {sanitized} gauge\n"));
                last_name = s.key.name;
            }
            out.push_str(&format!("{sanitized}{} {value}\n", s.key.label.prometheus()));
        }
        out
    }

    /// Dumps every point of every series as CSV with the header
    /// `series,label,tick,value` — the full time-series export.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,label,tick,value\n");
        for s in self.series.values() {
            for (tick, value) in s.iter() {
                out.push_str(&format!("{},{},{tick},{value}\n", s.key.name, s.key.label.csv()));
            }
        }
        out
    }
}

/// Which detector produced a [`Finding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detector {
    /// Monotonic growth that never stops: the leak signature.
    Leak,
    /// A series holding far above its run-long median at the end.
    Backlog,
    /// Repair rounds staying dirty while recovering nothing.
    RepairDivergence,
}

impl fmt::Display for Detector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detector::Leak => write!(f, "leak"),
            Detector::Backlog => write!(f, "backlog"),
            Detector::RepairDivergence => write!(f, "repair-divergence"),
        }
    }
}

/// One detector verdict against one series.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The detector that fired.
    pub detector: Detector,
    /// The offending series, rendered (`cluster.completion_backlog`).
    pub series: String,
    /// Human-readable evidence.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.detector, self.series, self.detail)
    }
}

/// Per-series digest in a [`TelemetryReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSummary {
    /// The series, rendered (`persist.store_tuples[node=12]`).
    pub series: String,
    /// Retained points.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Mean value.
    pub mean: f64,
    /// Final value.
    pub last: f64,
}

/// The analysis layer over a finished [`Telemetry`] collection:
/// per-series summaries plus the detector verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Sampling sweeps taken.
    pub samples: u64,
    /// Virtual ticks between samples.
    pub period: u64,
    /// One digest per series, in key order.
    pub summaries: Vec<SeriesSummary>,
    /// Detector verdicts, in detector-then-series order.
    pub findings: Vec<Finding>,
    /// The full collected data (exporters live here).
    pub data: Telemetry,
}

impl TelemetryReport {
    /// Builds the report: summarises every series and runs the detectors.
    #[must_use]
    pub fn build(data: Telemetry) -> Self {
        let summaries = data
            .series()
            .filter(|s| !s.is_empty())
            .map(|s| SeriesSummary {
                series: s.key.to_string(),
                n: s.len(),
                min: s.min(),
                max: s.max(),
                mean: s.mean(),
                last: s.last().map_or(0.0, |(_, v)| v),
            })
            .collect();
        let mut findings = Vec::new();
        // Detectors scan the cluster/engine-level series only: per-node
        // series are exported raw, but a leak that matters shows in the
        // aggregate, and aggregate verdicts stay O(metrics) not O(nodes).
        for s in data.series().filter(|s| s.key.label == Label::None) {
            if let Some(f) = detect_leak(s) {
                findings.push(f);
            }
            if let Some(f) = detect_backlog(s) {
                findings.push(f);
            }
        }
        if let Some(f) = detect_divergence(&data) {
            findings.push(f);
        }
        TelemetryReport {
            samples: data.samples(),
            period: DEFAULT_SAMPLE_PERIOD,
            summaries,
            findings,
            data,
        }
    }

    /// True when no detector fired.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings from one detector.
    pub fn findings_of(&self, d: Detector) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.detector == d)
    }

    /// The one-line digest the scenario report prints: peak queue depth,
    /// peak store bytes, total repair rounds.
    #[must_use]
    pub fn digest(&self) -> String {
        let peak = |name: &str| self.data.get(name, Label::None).map_or(0.0, Series::max);
        let rounds = self.data.get(names::REPAIR_ROUNDS, Label::None).map_or(0.0, Series::sum);
        format!(
            "telemetry: {} samples every {} ticks, peak queue depth {}, \
             peak store bytes {}, repair rounds {}, findings {}",
            self.samples,
            self.period,
            peak(names::QUEUE_DEPTH),
            peak(names::STORE_BYTES),
            rounds,
            self.findings.len(),
        )
    }

    /// A multi-line text block: the digest, the cluster-level series
    /// table, and every finding.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.digest());
        out.push('\n');
        out.push_str("cluster series (min/mean/max/last):\n");
        for s in self.summaries.iter().filter(|s| !s.series.contains('[')) {
            out.push_str(&format!(
                "  {:<28} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
                s.series, s.min, s.mean, s.max, s.last
            ));
        }
        if self.findings.is_empty() {
            out.push_str("detectors: clean\n");
        } else {
            for f in &self.findings {
                out.push_str(&format!("detector {f}\n"));
            }
        }
        out
    }
}

/// Leak: the series never decreases, its total growth is material, and
/// it is *still* growing across the final quarter of the run — which
/// separates a leak from load-then-plateau shapes like store size.
fn detect_leak(s: &Series) -> Option<Finding> {
    let vs = s.values();
    let n = vs.len();
    if n < 8 {
        return None;
    }
    if vs.windows(2).any(|w| w[1] < w[0] - 1e-9) {
        return None;
    }
    let growth = vs[n - 1] - vs[0];
    if growth < LEAK_MIN_GROWTH {
        return None;
    }
    let tail_start = n - (n / 4).max(2);
    let tail_growth = vs[n - 1] - vs[tail_start];
    if tail_growth < (growth * LEAK_TAIL_SHARE).max(1.0) {
        return None;
    }
    Some(Finding {
        detector: Detector::Leak,
        series: s.key.to_string(),
        detail: format!(
            "monotonic growth {:.0} → {:.0} over {n} samples, still +{tail_growth:.0} \
             across the final quarter",
            vs[0],
            vs[n - 1],
        ),
    })
}

/// Backlog: the trailing window sits entirely at or above both the
/// absolute floor and `BACKLOG_FACTOR ×` the run-long median — the
/// series stopped draining.
fn detect_backlog(s: &Series) -> Option<Finding> {
    let vs = s.values();
    let n = vs.len();
    if n < BACKLOG_WINDOW.max(8) {
        return None;
    }
    let bound = (s.median() * BACKLOG_FACTOR).max(BACKLOG_MIN_DEPTH);
    let tail = &vs[n - BACKLOG_WINDOW..];
    if tail.iter().any(|&v| v < bound) {
        return None;
    }
    Some(Finding {
        detector: Detector::Backlog,
        series: s.key.to_string(),
        detail: format!(
            "last {} samples all ≥ {bound:.0} (median {:.0}) — not draining",
            BACKLOG_WINDOW,
            s.median(),
        ),
    })
}

/// Divergence: over the last half of the run, repair rounds keep
/// comparing dirty while recovering ~nothing — the summaries disagree
/// but no deltas flow, so they will disagree forever.
fn detect_divergence(data: &Telemetry) -> Option<Finding> {
    let rounds = data.get(names::REPAIR_ROUNDS, Label::None)?;
    let clean = data.get(names::REPAIR_CLEAN, Label::None)?;
    let recovered = data.get(names::REPAIR_RECOVERED, Label::None)?;
    // Align the three series from the tail (they may have started on
    // different sweeps) and look at the last half.
    let n = rounds.len().min(clean.len()).min(recovered.len());
    if n < 8 {
        return None;
    }
    let half = n / 2;
    let tail_mean = |s: &Series| {
        let vs = s.values();
        let t = &vs[vs.len() - half..];
        t.iter().sum::<f64>() / half as f64
    };
    let dirty_rate = tail_mean(rounds) - tail_mean(clean);
    let recovery_rate = tail_mean(recovered);
    if dirty_rate < DIVERGENCE_MIN_RATE || recovery_rate > DIVERGENCE_RECOVERED_EPS {
        return None;
    }
    Some(Finding {
        detector: Detector::RepairDivergence,
        series: names::REPAIR_ROUNDS.to_string(),
        detail: format!(
            "mean {dirty_rate:.2} dirty rounds/sample over the last half while \
             recovering {recovery_rate:.2} entries/sample — rounds climb, deltas flat",
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gauge_series(values: &[f64]) -> Telemetry {
        let mut t = Telemetry::default();
        for (i, &v) in values.iter().enumerate() {
            t.gauge(i as u64 * 10, "test.series", Label::None, v);
            t.mark_sample();
        }
        t
    }

    fn leak_findings(values: &[f64]) -> Vec<Finding> {
        let report = TelemetryReport::build(gauge_series(values));
        report.findings_of(Detector::Leak).cloned().collect()
    }

    #[test]
    fn ring_buffer_caps_and_counts_drops() {
        let mut t = Telemetry::default();
        let total = DEFAULT_SERIES_CAP as u64 + 6;
        for i in 0..total {
            t.gauge(i, "x", Label::None, i as f64);
        }
        let s = t.get("x", Label::None).unwrap();
        assert_eq!(s.len(), DEFAULT_SERIES_CAP);
        assert_eq!(s.dropped, 6);
        assert_eq!(s.iter().next(), Some((6, 6.0)));
        assert_eq!(s.last(), Some((total - 1, (total - 1) as f64)));
    }

    #[test]
    fn rates_baseline_on_first_observation() {
        let mut t = Telemetry::default();
        t.rate(0, "rate.x", 400); // settle-era count: baseline, not a spike
        t.rate(10, "rate.x", 430);
        t.rate(20, "rate.x", 430);
        let s = t.get("rate.x", Label::None).unwrap();
        let pts: Vec<f64> = s.iter().map(|(_, v)| v).collect();
        assert_eq!(pts, vec![0.0, 30.0, 0.0]);
        assert_eq!(s.sum(), 30.0);
    }

    #[test]
    fn leak_detector_flags_unbroken_growth() {
        let values: Vec<f64> = (0..32).map(|i| (i * 8) as f64).collect();
        let fs = leak_findings(&values);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].series, "test.series");
    }

    #[test]
    fn leak_detector_ignores_load_then_plateau() {
        // Grows fast for the first quarter, then flat: store-size shape.
        let values: Vec<f64> =
            (0..32).map(|i| if i < 8 { (i * 50) as f64 } else { 350.0 }).collect();
        assert!(leak_findings(&values).is_empty());
    }

    #[test]
    fn leak_detector_ignores_fluctuating_series() {
        let values: Vec<f64> = (0..32).map(|i| if i % 2 == 0 { 100.0 } else { 40.0 }).collect();
        assert!(leak_findings(&values).is_empty());
    }

    #[test]
    fn leak_detector_ignores_tiny_growth() {
        let values: Vec<f64> = (0..32).map(|i| (i as f64) * 0.25).collect();
        assert!(leak_findings(&values).is_empty(), "total growth 7.75 < min 16");
    }

    #[test]
    fn backlog_detector_flags_a_queue_that_stopped_draining() {
        // Low for most of the run, then pinned high for the tail.
        let values: Vec<f64> = (0..40).map(|i| if i < 30 { 20.0 } else { 500.0 }).collect();
        let report = TelemetryReport::build(gauge_series(&values));
        let fs: Vec<_> = report.findings_of(Detector::Backlog).collect();
        assert_eq!(fs.len(), 1);
    }

    #[test]
    fn backlog_detector_ignores_a_drained_queue() {
        // Bursty mid-run, empty at the end — healthy drill shape.
        let values: Vec<f64> = (0..40).map(|i| if i < 30 { 300.0 } else { 2.0 }).collect();
        let report = TelemetryReport::build(gauge_series(&values));
        assert_eq!(report.findings_of(Detector::Backlog).count(), 0);
    }

    fn repair_telemetry(rounds: &[f64], clean: &[f64], recovered: &[f64]) -> Telemetry {
        let mut t = Telemetry::default();
        for i in 0..rounds.len() {
            t.gauge(i as u64, names::REPAIR_ROUNDS, Label::None, rounds[i]);
            t.gauge(i as u64, names::REPAIR_CLEAN, Label::None, clean[i]);
            t.gauge(i as u64, names::REPAIR_RECOVERED, Label::None, recovered[i]);
            t.mark_sample();
        }
        t
    }

    #[test]
    fn divergence_detector_flags_dirty_rounds_with_no_deltas() {
        let n = 16;
        let rounds = vec![4.0; n];
        let clean = vec![1.0; n]; // 3 dirty rounds per sample…
        let recovered = vec![0.0; n]; // …recovering nothing
        let report = TelemetryReport::build(repair_telemetry(&rounds, &clean, &recovered));
        assert_eq!(report.findings_of(Detector::RepairDivergence).count(), 1);
    }

    #[test]
    fn divergence_detector_ignores_dirty_rounds_that_recover() {
        let n = 16;
        let rounds = vec![4.0; n];
        let clean = vec![1.0; n];
        let recovered = vec![2.0; n]; // deltas are flowing: catching up
        let report = TelemetryReport::build(repair_telemetry(&rounds, &clean, &recovered));
        assert_eq!(report.findings_of(Detector::RepairDivergence).count(), 0);
    }

    #[test]
    fn divergence_detector_ignores_steady_state_clean_rounds() {
        let n = 16;
        let rounds = vec![4.0; n];
        let clean = vec![4.0; n];
        let recovered = vec![0.0; n];
        let report = TelemetryReport::build(repair_telemetry(&rounds, &clean, &recovered));
        assert_eq!(report.findings_of(Detector::RepairDivergence).count(), 0);
    }

    #[test]
    fn prometheus_export_renders_last_sample_with_labels() {
        let mut t = Telemetry::default();
        t.gauge(0, "sim.queue_depth", Label::None, 5.0);
        t.gauge(10, "sim.queue_depth", Label::None, 9.0);
        t.gauge(10, "persist.store_tuples", Label::Node(3), 120.0);
        t.gauge(10, "msg.in_flight", Label::Kind("Fetch"), 2.0);
        let text = t.to_prometheus();
        assert!(text.contains("# TYPE dd_sim_queue_depth gauge\n"));
        assert!(text.contains("dd_sim_queue_depth 9\n"), "last value wins:\n{text}");
        assert!(text.contains("dd_persist_store_tuples{node=\"3\"} 120\n"));
        assert!(text.contains("dd_msg_in_flight{kind=\"Fetch\"} 2\n"));
        // One TYPE line per metric name, not per label combination.
        assert_eq!(text.matches("# TYPE").count(), 3);
    }

    #[test]
    fn csv_export_dumps_every_point() {
        let mut t = Telemetry::default();
        t.gauge(0, "a.b", Label::None, 1.0);
        t.gauge(10, "a.b", Label::None, 2.0);
        t.gauge(10, "c.d", Label::Node(7), 3.5);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "series,label,tick,value");
        assert_eq!(lines[1], "a.b,,0,1");
        assert_eq!(lines[2], "a.b,,10,2");
        assert_eq!(lines[3], "c.d,node=7,10,3.5");
    }

    #[test]
    fn digest_reads_the_well_known_series() {
        let mut t = Telemetry::default();
        t.gauge(0, names::QUEUE_DEPTH, Label::None, 40.0);
        t.gauge(10, names::QUEUE_DEPTH, Label::None, 90.0);
        t.gauge(10, names::STORE_BYTES, Label::None, 4096.0);
        t.rate(0, names::REPAIR_ROUNDS, 10);
        t.rate(10, names::REPAIR_ROUNDS, 16);
        t.mark_sample();
        t.mark_sample();
        let report = TelemetryReport::build(t);
        let d = report.digest();
        assert!(d.contains("peak queue depth 90"), "{d}");
        assert!(d.contains("peak store bytes 4096"), "{d}");
        assert!(d.contains("repair rounds 6"), "{d}");
    }

    #[test]
    fn report_summary_lists_findings() {
        let values: Vec<f64> = (0..32).map(|i| (i * 8) as f64).collect();
        let report = TelemetryReport::build(gauge_series(&values));
        assert!(!report.is_clean());
        let s = report.summary();
        assert!(s.contains("[leak] test.series"), "{s}");
    }
}
