//! E15 — The dependability story as one table: a scenario matrix sweeping
//! placement × {calm, churn-storm, partition+heal, cascading-crash}.
//!
//! Each cell is a stock [`dd_core::scenario::library`] drill run against
//! a fresh cluster: load a social-feed dataset, serve mixed traffic while
//! the fault/environment timeline plays out, then read the dataset back.
//! The paper's claim (§I, §III-A) is that the epidemic substrate *masks*
//! churn: availability under the storm scenarios must stay within a
//! small margin of the calm baseline, and the acceptance assertion below
//! fails the bench (and the CI bench-smoke step) if it does not.
//!
//! The same matrix measures the message amplification of the write/repair
//! plane. The blind anti-entropy protocol shipped whole digests and
//! re-pushed every rumor epidemically; the digest-first protocol
//! (constant-size summary → bucket pull → delta items) plus sieve-routed
//! batched delivery and adaptive fanout must cut the per-operation message
//! cost by at least [`REDUCTION_GATE`]× in every cell, while the
//! availability checks above hold. The baseline numbers are the measured
//! matrix of the pre-digest-first tree (seed 2026, issued 860 ops per
//! cell), frozen here so a regression in message cost fails the bench
//! loudly.
//!
//! Emits machine-readable summaries to `BENCH_scenarios.json` and
//! `BENCH_msgs.json` at the workspace root so the dependability and
//! message-cost trajectories accumulate across runs.

use criterion::{criterion_group, criterion_main, Criterion};
use dd_bench::{f, n, table_header, table_row};
use dd_core::scenario::library;
use dd_core::{
    Cluster, ClusterConfig, OpMix, Phase, Placement, Scenario, ScenarioReport, WorkloadKind,
};

const PERSIST_N: u64 = 36;
const REPLICATION: u32 = 3;
const SEED: u64 = 2_026;

/// Availability under any storm may trail the calm baseline by at most
/// this much — the paper-consistent margin: churn is masked, not merely
/// survived.
const AVAILABILITY_MARGIN: f64 = 0.10;

/// Minimum msgs/op improvement over the blind-exchange baseline.
const REDUCTION_GATE: f64 = 5.0;

/// Measured msgs for the blind-exchange protocol, per (placement,
/// scenario) cell — [`BASELINE_ISSUED`] issued ops each.
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
}

impl Cell {
    fn msgs_per_op(&self) -> f64 {
        self.report.msgs as f64 / self.report.issued() as f64
    }

    /// The blind-exchange protocol's msgs/op in this cell.
    fn baseline_per_op(&self) -> f64 {
        let (_, _, msgs) = BASELINE
            .iter()
            .find(|(p, s, _)| *p == self.placement && *s == self.report.name)
            .expect("baseline cell present");
        *msgs as f64 / BASELINE_ISSUED as f64
    }

    fn reduction(&self) -> f64 {
        self.baseline_per_op() / self.msgs_per_op()
    }
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
            cells.push(Cell { placement: name, report: run(placement, scenario) });
        }
    }
    cells
}

/// Writes `json` to `file` at the workspace root.
fn write_json(file: &str, json: &str) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("e15: could not write {path}: {e}");
    } else {
        println!("\nwrote machine-readable summary to {file}");
    }
}

/// Writes the summary JSONs (hand-rolled: the workspace has no serde) for
/// trend tracking; one object per (scenario, placement) cell.
fn write_summary(cells: &[Cell]) {
    let entries: Vec<String> = cells
        .iter()
        .map(|c| {
            let r = &c.report;
            let e = r.errors();
            format!(
                "    {{\"scenario\": \"{}\", \"placement\": \"{}\", \"issued\": {}, \
                 \"availability\": {:.4}, \"staleness\": {:.4}, \"timeouts\": {}, \
                 \"partials\": {}, \"no_live_entry\": {}, \"latency_p50_ticks\": {:.1}, \
                 \"latency_p95_ticks\": {:.1}, \"latency_p99_ticks\": {:.1}, \"msgs\": {}}}",
                dd_sim::json_escape(&r.name),
                dd_sim::json_escape(c.placement),
                r.issued(),
                r.availability(),
                r.staleness(),
                e.timeouts,
                e.partials,
                e.no_entry,
                r.latency_p50,
                r.latency_p95,
                r.latency_p99,
                r.msgs
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"e15_scenarios\",\n  \"cluster\": {{\"persist_n\": {PERSIST_N}, \
         \"replication\": {REPLICATION}, \"seed\": {SEED}}},\n  \"rows\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    write_json("BENCH_scenarios.json", &json);

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
                c.msgs_per_op(),
                c.baseline_per_op(),
                c.reduction(),
                r.availability(),
                r.staleness(),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"e15_scenarios\",\n  \"gate\": {REDUCTION_GATE},\n  \"cluster\": \
         {{\"persist_n\": {PERSIST_N}, \"replication\": {REPLICATION}, \"seed\": {SEED}}},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    write_json("BENCH_msgs.json", &json);
}

fn experiment() {
    let cells = matrix();
    table_header(
        "E15: dependability matrix — placement x scenario (social-feed workload)",
        &["scenario", "placement", "issued", "avail", "stale", "t/o", "part", "p50", "p95", "p99"],
    );
    for c in &cells {
        let r = &c.report;
        let e = r.errors();
        table_row(&[
            r.name.clone(),
            c.placement.to_owned(),
            n(r.issued()),
            f(r.availability()),
            f(r.staleness()),
            n(e.timeouts),
            n(e.partials),
            f(r.latency_p50),
            f(r.latency_p95),
            f(r.latency_p99),
        ]);
    }
    table_header(
        "E15: message amplification — msgs/op vs blind-exchange baseline",
        &["scenario", "placement", "issued", "msgs", "msgs/op", "base/op", "x-cut"],
    );
    for c in &cells {
        table_row(&[
            c.report.name.clone(),
            c.placement.to_owned(),
            n(c.report.issued()),
            n(c.report.msgs),
            f(c.msgs_per_op()),
            f(c.baseline_per_op()),
            f(c.reduction()),
        ]);
    }
    for c in &cells {
        assert!(
            c.reduction() >= REDUCTION_GATE,
            "acceptance: {} ({}) cut msgs/op only {:.1}x, gate is {REDUCTION_GATE}x \
             (baseline {:.1}, now {:.1})",
            c.report.name,
            c.placement,
            c.reduction(),
            c.baseline_per_op(),
            c.msgs_per_op(),
        );
    }
    for placement in ["range", "tag"] {
        let avail = |name: &str| {
            cells
                .iter()
                .find(|c| c.placement == placement && c.report.name == name)
                .map(|c| c.report.availability())
                .expect("cell present")
        };
        let calm = avail("calm");
        assert!(calm >= 0.99, "calm baseline must be near-perfect, got {calm:.4} ({placement})");
        for storm in ["churn-storm", "partition-heal", "cascading-crash"] {
            let a = avail(storm);
            assert!(
                a >= calm - AVAILABILITY_MARGIN,
                "acceptance: {storm} availability {a:.4} fell more than \
                 {AVAILABILITY_MARGIN} below the calm baseline {calm:.4} ({placement})"
            );
        }
        // The read-back phase is the data-loss check: after repair, the
        // dataset is still served.
        for name in ["churn-storm", "partition-heal", "cascading-crash"] {
            let cell =
                cells.iter().find(|c| c.placement == placement && c.report.name == name).unwrap();
            let readback = cell.report.phases.last().expect("readback phase");
            assert!(
                readback.availability() >= 0.99,
                "{name} read-back availability {:.4} ({placement})",
                readback.availability()
            );
        }
    }
    println!(
        "\nshape check (paper §I/§III-A): the storms dent availability only \
         within the margin while they rage, and the post-repair read-back \
         phase serves the full dataset — churn is masked by proactive \
         epidemic redundancy, not repaired reactively. Digest-first \
         anti-entropy, sieve-routed batched delivery and estimate-driven \
         fanout cut every cell's message cost >= {REDUCTION_GATE}x: \
         amplification was protocol waste, not redundancy the storms were \
         spending."
    );
    write_summary(&cells);
}

fn bench(c: &mut Criterion) {
    experiment();
    let mut g = c.benchmark_group("e15");
    g.sample_size(10);
    // The scenario-plane kernel: schedule + run a short declarative drill.
    g.bench_function("one_phase_drill", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let mut c = Cluster::new(ClusterConfig::small().persist_n(12), seed);
            c.settle();
            let sc = Scenario::new("kernel", WorkloadKind::Uniform, seed)
                .phase(Phase::new("puts", 400).mix(OpMix::puts()).sessions(2).depth(8).quantum(5));
            c.run_scenario(&sc).phases[0].ok
        });
    });
    // The repair-plane kernel: one digest-first round between two nodes.
    g.bench_function("digest_first_round", |b| {
        use dd_core::persist::PersistNode;
        use dd_core::{SieveSpec, StoredTuple};
        use dd_dht::Version;
        let all = SieveSpec::Range { index: 0, of: 1, r: 1 };
        let mut x = PersistNode::new(all, None);
        let mut y = PersistNode::new(all, None);
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
