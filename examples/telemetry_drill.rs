//! Telemetry drill: run a dependability scenario with the telemetry plane
//! on, read the detector verdicts, and export the series for dashboards.
//!
//! Act 1 runs the churn-storm drill instrumented: a sampler sweeps the
//! cluster every few hundred virtual ticks, recording per-node gauges
//! (event-queue depth, in-flight messages, pending ops, store occupancy)
//! and counter rates (repair rounds, deltas recovered) into bounded time
//! series, and the attached [`dd_core::TelemetryReport`] summarises each
//! series and runs the leak / backlog / repair-divergence detectors. A
//! healthy storm must come out clean.
//!
//! Act 2 seeds a regression from outside the store: a session that reads
//! through a whole instrumented run and never harvests its replies. The
//! monotonic-growth detector pins the leak on exactly
//! `cluster.completion_backlog`.
//!
//! Act 3 exports the healthy run in both wire formats: Prometheus text
//! exposition (last value per series, ready for a scrape endpoint) and a
//! full CSV sample dump for offline plotting.
//!
//! ```sh
//! cargo run --release --example telemetry_drill
//! ```

use dd_core::scenario::library;
use dd_core::{Cluster, ClusterConfig, Detector, Placement, TelemetryReport};

fn cluster() -> Cluster {
    let config =
        ClusterConfig::small().persist_n(36).replication(3).placement(Placement::TagCollocation);
    let mut c = Cluster::new(config, 2_027);
    c.settle();
    c
}

fn main() {
    // Act 1 — the stock churn-storm drill, instrumented.
    let mut healthy = cluster();
    let report = healthy.run_scenario(&library::churn_storm(2_027).instrumented());
    let telemetry = report.telemetry.as_ref().expect("instrumented run attaches telemetry");

    println!("{report}\n");
    println!("{}", telemetry.summary());
    assert!(telemetry.is_clean(), "a healthy storm must pass every detector");

    // Act 2 — the seeded regression: a session reads every 80 ticks for
    // the calm drill's 24 000 and never harvests, so each reply stays
    // parked at its coordinator. 300 reads keep every coordinator below
    // its retention cap: the backlog is still climbing when sampling
    // stops, and the leak detector must say exactly that.
    let mut leaky = cluster();
    let mut abandoned = leaky.client();
    leaky.begin_instrument();
    for i in 0..300 {
        let _ = abandoned.get(&mut leaky, format!("never-harvested:{i}"));
        leaky.pump(80);
    }
    let verdict = TelemetryReport::build(leaky.end_instrument().expect("sampler installed"));
    println!("seeded regression verdicts:");
    for finding in &verdict.findings {
        println!("  detector {finding}");
    }
    let flagged: Vec<&str> =
        verdict.findings_of(Detector::Leak).map(|f| f.series.as_str()).collect();
    assert_eq!(flagged, vec!["cluster.completion_backlog"], "leak pinned on the backlog gauge");

    // Act 3 — export the healthy run for dashboards.
    let prom = telemetry.data.to_prometheus();
    let csv = telemetry.data.to_csv();
    let prom_path = std::env::temp_dir().join("dd_telemetry_drill.prom");
    let csv_path = std::env::temp_dir().join("dd_telemetry_drill.csv");
    std::fs::write(&prom_path, &prom).expect("write prometheus exposition");
    std::fs::write(&csv_path, &csv).expect("write csv dump");
    println!(
        "\nwrote {} series ({} bytes) to {}",
        telemetry.summaries.len(),
        prom.len(),
        prom_path.display()
    );
    println!("wrote {} samples ({} bytes) to {}", telemetry.samples, csv.len(), csv_path.display());
    println!("point a Prometheus file exporter at the .prom file, or plot the CSV.");
}
