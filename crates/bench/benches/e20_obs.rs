//! E20 — the telemetry plane: passive sampling, and detectors that stay
//! quiet on healthy drills and catch a seeded regression.
//!
//! Each stock dependability drill runs twice against identical clusters —
//! plain, then [`Scenario::instrumented`] — and the bench asserts the
//! three acceptance gates:
//!
//! 1. **Sampling off = 0% regression.** The instrumented run's report
//!    core (with the attached [`dd_obs::TelemetryReport`] detached) is
//!    bit-for-bit the plain run's report: gauges read state the run
//!    already computes, on the virtual-time axis, so the executed run is
//!    byte-identical.
//! 2. **Healthy drills are leak-clean** (wall-clock sampling cost is
//!    reported per row but not gated).
//! 3. **The leak detector catches a seeded regression.** A session that
//!    reads for a whole instrumented run and never harvests — what the
//!    coordinators' completion cap guards against — must be flagged on
//!    `cluster.completion_backlog` and nothing else.
//!
//! Emits `BENCH_obs.json` and a `BENCH_obs.csv` sample dump at the
//! workspace root.

use criterion::{criterion_group, criterion_main, Criterion};
use dd_bench::planes::{self, json_str, Cell, SEED};
use dd_bench::{f, n, table_header, table_row};
use dd_core::scenario::library;
use dd_core::{Cluster, ClusterConfig, Detector, Placement, Planes, Scenario};
use dd_obs::{names, Label, Series, TelemetryReport};

fn telemetry(cell: &Cell) -> &TelemetryReport {
    cell.observed.telemetry.as_ref().expect("instrumented run attaches telemetry")
}

fn peak(t: &TelemetryReport, name: &'static str) -> f64 {
    t.data.get(name, Label::None).map_or(0.0, Series::max)
}

fn matrix() -> Vec<Cell> {
    [
        library::calm(SEED),
        library::churn_storm(SEED),
        library::partition_heal(SEED),
        library::cascading_crash(SEED),
    ]
    .into_iter()
    .map(|drill| Cell::run(drill, Scenario::instrumented))
    .collect()
}

/// Reads the abandoned session issues: few enough that no coordinator
/// reaches `COMPLETION_RETENTION`, so the backlog is still climbing when
/// sampling stops — the leak signature. (Past the cap it would plateau and
/// `rate.completions_retired` would show instead.)
const LEAK_READS: u64 = 300;
/// Ticks between those reads; 300 × 80 is the calm drill's length.
const LEAK_PACE: u64 = 80;

/// Gate 3's seeded regression: one session reads steadily through an
/// instrumented run and never harvests, so every reply stays parked at its
/// coordinator.
fn leaky_run() -> TelemetryReport {
    let mut c = planes::cluster();
    let mut abandoned = c.client();
    c.observe(Planes { telemetry: true, ..Planes::default() });
    for i in 0..LEAK_READS {
        let _ = abandoned.get(&mut c, format!("never-harvested:{i}"));
        c.pump(LEAK_PACE);
    }
    TelemetryReport::build(c.stop_observing().telemetry.expect("telemetry was on"))
}

fn write_summary(cells: &[Cell], leaky: &TelemetryReport) {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            let t = telemetry(c);
            c.row(
                "instrumented",
                &[
                    ("samples", t.samples.to_string()),
                    ("series", t.summaries.len().to_string()),
                    ("peak_queue_depth", format!("{:.0}", peak(t, names::QUEUE_DEPTH))),
                    ("peak_store_bytes", format!("{:.0}", peak(t, names::STORE_BYTES))),
                    ("findings", t.findings.len().to_string()),
                ],
            )
        })
        .collect();
    let flagged: Vec<String> =
        leaky.findings_of(Detector::Leak).map(|f| json_str(&f.series)).collect();
    let flagged = format!("[{}]", flagged.join(", "));
    planes::write_json("e20_obs", "obs", &[("seeded_leak_flagged", flagged)], &rows);
}

/// The full sample dump of the churn-storm drill, for offline plotting.
fn write_csv(cells: &[Cell]) {
    let storm = cells.iter().find(|c| c.name == "churn-storm").expect("storm cell");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.csv");
    if let Err(e) = std::fs::write(path, telemetry(storm).data.to_csv()) {
        eprintln!("e20: could not write {path}: {e}");
    } else {
        println!("wrote churn-storm sample dump to BENCH_obs.csv");
    }
}

fn experiment() {
    let cells = matrix();
    table_header(
        "E20: instrumented dependability drills — overhead and detectors",
        &["scenario", "issued", "samples", "series", "peak q", "findings", "wall_ms"],
    );
    for c in &cells {
        let t = telemetry(c);
        table_row(&[
            c.name.clone(),
            n(c.observed.issued()),
            n(t.samples),
            n(t.summaries.len() as u64),
            f(peak(t, names::QUEUE_DEPTH)),
            n(t.findings.len() as u64),
            f(c.wall_observed_ms),
        ]);
    }
    for c in &cells {
        let t = telemetry(c);
        // Gate 1 — passivity: detach the telemetry and the report core
        // must equal the plain run bit for bit (f64 Debug is shortest-
        // roundtrip, so Debug-equality below means bit-equality).
        let mut core = c.observed.clone();
        core.telemetry = None;
        assert_eq!(core, c.plain, "{}: sampler hooks perturbed the run", c.name);
        assert_eq!(
            format!("{core:?}"),
            format!("{:?}", c.plain),
            "{}: instrumented replay is not byte-identical",
            c.name
        );
        assert!(t.samples > 0, "{}: sampler fired", c.name);
        assert!(
            t.data.get(names::QUEUE_DEPTH, Label::None).is_some(),
            "{}: engine gauges sampled",
            c.name
        );
        // Gate 2 — healthy drills are leak-clean: load-then-plateau
        // store growth and churn-driven queue wobble must not trip the
        // monotonic-growth detector.
        let leaks: Vec<_> = t.findings_of(Detector::Leak).collect();
        assert!(
            leaks.is_empty(),
            "acceptance: {} flagged a leak in a healthy run: {leaks:?}",
            c.name,
        );
    }
    // Gate 3 — the seeded regression: the never-harvesting session must
    // be flagged as a leak on exactly the backlog gauge, nothing else.
    let t = leaky_run();
    let flagged: Vec<&str> = t.findings_of(Detector::Leak).map(|f| f.series.as_str()).collect();
    assert_eq!(
        flagged,
        vec![names::COMPLETION_BACKLOG],
        "acceptance: abandoned session's completions not pinned on the \
         backlog gauge\n{}",
        t.summary()
    );
    println!("\n{}", t.summary());
    println!(
        "\nshape check: sampling is free on the virtual-time axis (the \
         instrumented report core is byte-identical), healthy drills carry \
         no leak findings, and a session that never harvests is flagged on \
         exactly cluster.completion_backlog."
    );
    write_summary(&cells, &t);
    write_csv(&cells);
}

/// A captured storm telemetry set for the export-kernel benchmarks.
fn kernel_input() -> dd_obs::Telemetry {
    let config = ClusterConfig::small().persist_n(12).placement(Placement::TagCollocation);
    let mut c = Cluster::new(config, SEED);
    c.settle();
    c.observe(Planes { telemetry: true, ..Planes::default() });
    let report = c.run_scenario(&library::churn_storm(SEED));
    assert!(report.issued() > 0);
    c.stop_observing().telemetry.expect("telemetry was on")
}

fn bench(c: &mut Criterion) {
    experiment();
    let mut g = c.benchmark_group("e20");
    g.sample_size(10);
    let telemetry = kernel_input();
    // The analysis kernel: summaries + detectors over a real storm's
    // sampled series.
    g.bench_function("build_storm_report", |b| {
        b.iter(|| TelemetryReport::build(telemetry.clone()).summaries.len());
    });
    // The export kernels: Prometheus text exposition and the full CSV
    // dump.
    g.bench_function("prometheus_storm", |b| {
        b.iter(|| telemetry.to_prometheus().len());
    });
    g.bench_function("csv_storm", |b| {
        b.iter(|| telemetry.to_csv().len());
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
