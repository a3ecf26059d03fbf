//! E16 — the audit plane: soundness and overhead of history capture +
//! consistency checking over the four stock dependability drills.
//!
//! Each drill runs twice against identical clusters — plain, then
//! [`Scenario::audited`] — and the bench asserts the two acceptance
//! criteria: the calm drill audits *spotless* (no violations at all, not
//! even durability warnings) and every drill audits with **zero safety
//! violations**; and capture is passive — the audited run's report core
//! equals the plain run's bit for bit. Wall-clock overhead (recording +
//! convergence settling + checking) is reported per row.
//! Emits `BENCH_audit.json` at the workspace root.

use criterion::{criterion_group, criterion_main, Criterion};
use dd_audit::{AuditReport, History, ReplicaTuple};
use dd_bench::planes::{self, Cell, SEED};
use dd_bench::{f, n, table_header, table_row};
use dd_core::scenario::library;
use dd_core::{Cluster, ClusterConfig, Placement, Planes, Scenario};

fn audit(cell: &Cell) -> &AuditReport {
    cell.observed.audit.as_ref().expect("audited run attaches a verdict")
}

fn matrix() -> Vec<Cell> {
    [
        library::calm(SEED),
        library::churn_storm(SEED),
        library::partition_heal(SEED),
        library::cascading_crash(SEED),
    ]
    .into_iter()
    .map(|drill| Cell::run(drill, Scenario::audited))
    .collect()
}

fn write_summary(cells: &[Cell]) {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            let a = audit(c);
            c.row(
                "audited",
                &[
                    ("safety_violations", a.safety_count().to_string()),
                    ("warnings", a.warning_count().to_string()),
                    ("ops_recorded", a.ops.to_string()),
                ],
            )
        })
        .collect();
    planes::write_json("e16_audit", "audit", &[], &rows);
}

fn experiment() {
    let cells = matrix();
    table_header(
        "E16: audited dependability drills — soundness and overhead",
        &["scenario", "issued", "recorded", "safety", "warn", "wall_ms"],
    );
    for c in &cells {
        let a = audit(c);
        table_row(&[
            c.name.clone(),
            n(c.observed.issued()),
            n(a.ops),
            n(a.safety_count() as u64),
            n(a.warning_count() as u64),
            f(c.wall_observed_ms),
        ]);
    }
    for c in &cells {
        let a = audit(c);
        // Acceptance 1 — soundness: zero safety violations on every
        // drill; the fault-free baseline is spotless.
        assert_eq!(
            a.safety_count(),
            0,
            "acceptance: {} audited with safety violations:\n{a}",
            c.name
        );
        if c.name == "calm" {
            assert!(a.violations.is_empty(), "calm drill must be spotless:\n{a}");
        }
        assert_eq!(a.ops, c.observed.issued(), "{}: every issued op recorded", c.name);
        // Acceptance 2 — passivity: detach the verdict and the report
        // core must equal the plain run's.
        let mut audited_core = c.observed.clone();
        audited_core.audit = None;
        assert_eq!(audited_core, c.plain, "{}: audit hooks perturbed the run", c.name);
    }
    println!(
        "\nshape check: every drill upholds the audited guarantees \
         (read-your-writes, monotonic reads, tombstone safety, multi-op \
         atomicity, convergence) under churn, partitions and crash waves, \
         and the history capture is free on the virtual-time axis."
    );
    write_summary(&cells);
}

/// A recorded history + snapshot for the checker kernel benchmark.
fn checker_input() -> (History, Vec<ReplicaTuple>) {
    let config = ClusterConfig::small().persist_n(12).placement(Placement::TagCollocation);
    let mut c = Cluster::new(config, SEED);
    c.settle();
    c.observe(Planes { audit: true, ..Planes::default() });
    let report = c.run_scenario(&library::calm(SEED));
    assert!(report.issued() > 0);
    (c.stop_observing().audit.expect("the audit was on"), c.audit_snapshot())
}

fn bench(c: &mut Criterion) {
    experiment();
    let mut g = c.benchmark_group("e16");
    g.sample_size(10);
    // The audit kernel: the full checker suite over a real drill history.
    let (history, snapshot) = checker_input();
    g.bench_function("check_calm_history", |b| {
        b.iter(|| dd_audit::check(&history, &snapshot).violations.len());
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
