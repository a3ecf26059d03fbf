//! E17 — Message amplification of the write/repair plane: msgs per
//! operation across the E15 dependability matrix (placement × {calm,
//! churn-storm, partition+heal, cascading-crash}).
//!
//! The blind anti-entropy protocol shipped whole digests and re-pushed
//! every rumor epidemically; the digest-first protocol (constant-size
//! summary → bucket pull → delta items) plus sieve-routed batched
//! delivery and adaptive fanout must cut the per-operation message cost
//! by at least [`REDUCTION_GATE`]× in every cell, *without* giving back
//! availability. The baseline numbers are the measured matrix of the
//! pre-digest-first tree (seed 2026, issued 860 ops per cell); they are
//! frozen here so a regression in message cost fails the bench (and the
//! CI bench-smoke step) loudly. Emits `BENCH_msgs.json` at the workspace
//! root for trend tracking.

use criterion::{criterion_group, criterion_main, Criterion};
use dd_bench::{f, n, table_header, table_row};
use dd_core::scenario::library;
use dd_core::{Cluster, ClusterConfig, Placement, Scenario, ScenarioReport};

const PERSIST_N: u64 = 36;
const REPLICATION: u32 = 3;
const SEED: u64 = 2_026;

/// Minimum msgs/op improvement over the blind-exchange baseline.
const REDUCTION_GATE: f64 = 5.0;

/// Storm availability may trail calm by at most this much (the same
/// margin E15 enforces): the message savings must not cost dependability.
const AVAILABILITY_MARGIN: f64 = 0.10;

/// Measured msgs for the blind-exchange protocol, per (placement,
/// scenario) cell — 860 issued ops each.
const BASELINE: &[(&str, &str, u64)] = &[
    ("range", "calm", 198_717),
    ("range", "churn-storm", 195_800),
    ("range", "partition-heal", 185_976),
    ("range", "cascading-crash", 199_498),
    ("tag", "calm", 192_233),
    ("tag", "churn-storm", 190_915),
    ("tag", "partition-heal", 180_262),
    ("tag", "cascading-crash", 192_862),
];
const BASELINE_ISSUED: u64 = 860;

struct Cell {
    placement: &'static str,
    report: ScenarioReport,
    baseline_per_op: f64,
    reduction: f64,
}

fn run(placement: Placement, scenario: &Scenario) -> ScenarioReport {
    let config =
        ClusterConfig::small().persist_n(PERSIST_N).replication(REPLICATION).placement(placement);
    let mut c = Cluster::new(config, SEED);
    c.settle();
    c.run_scenario(scenario)
}

fn matrix() -> Vec<Cell> {
    let scenarios = [
        library::calm(SEED),
        library::churn_storm(SEED),
        library::partition_heal(SEED),
        library::cascading_crash(SEED),
    ];
    let mut cells = Vec::new();
    for (placement, name) in
        [(Placement::RangePartition, "range"), (Placement::TagCollocation, "tag")]
    {
        for scenario in &scenarios {
            let report = run(placement, scenario);
            let baseline = BASELINE
                .iter()
                .find(|(p, s, _)| *p == name && *s == report.name)
                .map(|(_, _, m)| *m)
                .expect("baseline cell present");
            let baseline_per_op = baseline as f64 / BASELINE_ISSUED as f64;
            let per_op = report.msgs as f64 / report.issued() as f64;
            cells.push(Cell {
                placement: name,
                baseline_per_op,
                reduction: baseline_per_op / per_op,
                report,
            });
        }
    }
    cells
}

/// Writes the summary JSON (hand-rolled: the workspace has no serde);
/// one object per (scenario, placement) cell.
fn write_summary(cells: &[Cell]) {
    let entries: Vec<String> = cells
        .iter()
        .map(|c| {
            let r = &c.report;
            format!(
                "    {{\"scenario\": \"{}\", \"placement\": \"{}\", \"issued\": {}, \
                 \"msgs\": {}, \"msgs_per_op\": {:.1}, \"baseline_msgs_per_op\": {:.1}, \
                 \"reduction\": {:.1}, \"availability\": {:.4}, \"staleness\": {:.4}}}",
                dd_sim::json_escape(&r.name),
                dd_sim::json_escape(c.placement),
                r.issued(),
                r.msgs,
                r.msgs as f64 / r.issued() as f64,
                c.baseline_per_op,
                c.reduction,
                r.availability(),
                r.staleness(),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"e17_msgs\",\n  \"gate\": {REDUCTION_GATE},\n  \"cluster\": \
         {{\"persist_n\": {PERSIST_N}, \"replication\": {REPLICATION}, \"seed\": {SEED}}},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_msgs.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("e17: could not write {path}: {e}");
    } else {
        println!("\nwrote machine-readable summary to BENCH_msgs.json");
    }
}

fn experiment() {
    let cells = matrix();
    table_header(
        "E17: message amplification — msgs/op vs blind-exchange baseline",
        &["scenario", "placement", "issued", "msgs", "msgs/op", "base/op", "x-cut", "avail"],
    );
    for c in &cells {
        let r = &c.report;
        table_row(&[
            r.name.clone(),
            c.placement.to_owned(),
            n(r.issued()),
            n(r.msgs),
            f(r.msgs as f64 / r.issued() as f64),
            f(c.baseline_per_op),
            f(c.reduction),
            f(r.availability()),
        ]);
    }
    for placement in ["range", "tag"] {
        let calm = cells
            .iter()
            .find(|c| c.placement == placement && c.report.name == "calm")
            .map(|c| c.report.availability())
            .expect("calm cell present");
        assert!(calm >= 0.99, "calm baseline must stay near-perfect, got {calm:.4} ({placement})");
        for c in cells.iter().filter(|c| c.placement == placement) {
            assert!(
                c.reduction >= REDUCTION_GATE,
                "acceptance: {} ({placement}) cut msgs/op only {:.1}x, gate is \
                 {REDUCTION_GATE}x (baseline {:.1}, now {:.1})",
                c.report.name,
                c.reduction,
                c.baseline_per_op,
                c.report.msgs as f64 / c.report.issued() as f64,
            );
            assert!(
                c.report.availability() >= calm - AVAILABILITY_MARGIN,
                "acceptance: {} ({placement}) availability {:.4} paid for the \
                 message savings (calm {calm:.4})",
                c.report.name,
                c.report.availability(),
            );
        }
    }
    println!(
        "\nshape check: digest-first anti-entropy (summary -> bucket pull -> \
         delta), sieve-routed batched delivery and estimate-driven fanout \
         cut every cell's message cost >= {REDUCTION_GATE}x while availability \
         holds the E15 margins — amplification was protocol waste, not \
         redundancy the storms were spending."
    );
    write_summary(&cells);
}

fn bench(c: &mut Criterion) {
    experiment();
    let mut g = c.benchmark_group("e17");
    g.sample_size(10);
    // The repair-plane kernel: one digest-first round between two nodes.
    g.bench_function("digest_first_round", |b| {
        use dd_core::persist::PersistNode;
        use dd_core::{SieveSpec, StoredTuple};
        use dd_dht::Version;
        let all = SieveSpec::Range { index: 0, of: 1, r: 1 };
        let mut x = PersistNode::new(all, vec![], None);
        let mut y = PersistNode::new(all, vec![], None);
        for i in 0..512 {
            let t = StoredTuple::new(
                format!("k{i}").as_str().into(),
                Version(1),
                b"v".to_vec(),
                Some(i as f64),
                None,
            );
            x.apply(t.clone());
            if i % 7 != 0 {
                y.apply(t);
            }
        }
        b.iter(|| {
            let diff = x.shared_summary(&all).diff(&y.shared_summary(&all));
            let ids = x.shared_ids_in(&all, &diff);
            let (items, want) = y.repair_delta(&all, &diff, &ids);
            (items.len(), want.len())
        });
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
