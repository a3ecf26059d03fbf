//! E19 — the tracing plane: zero cost when off, bounded overhead when on,
//! and critical-path attribution that explains the tail.
//!
//! Each stock dependability drill runs twice against identical clusters —
//! plain, then [`Scenario::traced`] — and the bench asserts the three
//! acceptance gates:
//!
//! 1. **Tracing off = 0% regression.** The traced run's report core (with
//!    the attached [`dd_trace::TraceReport`] detached) is bit-for-bit the
//!    plain run's report: span capture is passive on the virtual-time
//!    axis, so the executed run is byte-identical.
//! 2. **Every op is traced** into a span tree (wall-clock recording cost
//!    is reported per row but not gated).
//! 3. **Attribution pins the tail on the fault.** In the churn-storm
//!    drill the slowest ops' critical paths must be dominated by a wait
//!    hop that was *never answered* — the replica the failure detector
//!    eventually struck — not by healthy forwarding hops.
//!
//! Emits `BENCH_trace.json` at the workspace root.

use criterion::{criterion_group, criterion_main, Criterion};
use dd_bench::planes::{self, json_str, Cell, SEED};
use dd_bench::{f, n, table_header, table_row};
use dd_core::scenario::library;
use dd_core::{
    Cluster, ClusterConfig, EnvChange, OpMix, Phase, Placement, Planes, Scenario, WorkloadKind,
};
use dd_trace::TraceReport;

fn trace(cell: &Cell) -> &TraceReport {
    cell.observed.trace.as_ref().expect("traced run attaches a trace report")
}

/// The attribution showcase: a loss episode the failure detector cannot
/// see. Crashes and partitions are detected within one pump quantum and
/// routed around, but a silently dropped fetch (or its reply) leaves the
/// coordinator waiting on a healthy-looking replica until the multi-op
/// deadline sweep / client timeout fires — so tail ops' critical paths
/// must be one long never-answered wait on the replica whose message was
/// lost.
fn drop_storm(seed: u64) -> Scenario {
    Scenario::new("drop-storm", WorkloadKind::SocialFeed { users: 8 }, seed)
        .phase(Phase::new("load", 6_000).mix(OpMix::idle().put(3).multi_put(1).batch(4)).ops(240))
        .env(6_000, EnvChange::DropProb(0.15))
        .phase(Phase::new("serve", 10_000).mix(OpMix::idle().get(3).multi_get(2)).ops(300))
        .env(16_000, EnvChange::DropProb(0.0))
}

fn matrix() -> Vec<Cell> {
    [
        library::calm(SEED),
        library::churn_storm(SEED),
        library::partition_heal(SEED),
        library::cascading_crash(SEED),
        drop_storm(SEED),
    ]
    .into_iter()
    .map(|drill| Cell::run(drill, Scenario::traced))
    .collect()
}

fn write_summary(cells: &[Cell]) {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            let t = trace(c);
            let top = t.hops.first();
            c.row(
                "traced",
                &[
                    ("ops_traced", t.ops.to_string()),
                    ("spans", t.spans.to_string()),
                    ("top_hop", json_str(top.map_or("-", |h| h.label.as_str()))),
                    ("top_hop_share", format!("{:.4}", top.map_or(0.0, |h| h.share))),
                    ("slowest_op_ticks", t.slowest.first().map_or(0, |s| s.ticks).to_string()),
                    ("latency_p99_ticks", format!("{:.1}", c.observed.latency_p99)),
                ],
            )
        })
        .collect();
    planes::write_json("e19_trace", "trace", &[], &rows);
}

fn experiment() {
    let cells = matrix();
    table_header(
        "E19: traced dependability drills — overhead and attribution",
        &["scenario", "issued", "ops", "spans", "top hop", "share%", "wall_ms"],
    );
    for c in &cells {
        let t = trace(c);
        let top = t.hops.first();
        table_row(&[
            c.name.clone(),
            n(c.observed.issued()),
            n(t.ops),
            n(t.spans),
            top.map(|h| h.label.clone()).unwrap_or_else(|| "-".into()),
            f(top.map(|h| h.share * 100.0).unwrap_or(0.0)),
            f(c.wall_observed_ms),
        ]);
    }
    for c in &cells {
        let t = trace(c);
        // Gate 1 — passivity: detach the trace and the report core must
        // equal the plain run bit for bit (f64 Debug is shortest-
        // roundtrip, so Debug-equality below means bit-equality).
        let mut core = c.observed.clone();
        core.trace = None;
        assert_eq!(core, c.plain, "{}: trace hooks perturbed the run", c.name);
        assert_eq!(
            format!("{core:?}"),
            format!("{:?}", c.plain),
            "{}: traced replay is not byte-identical",
            c.name
        );
        // Gate 2 — coverage: every op decomposed into a span tree.
        assert_eq!(t.ops, c.observed.issued(), "{}: every issued op traced", c.name);
        assert!(t.spans > t.ops, "{}: ops decomposed into span trees", c.name);
    }
    // Gate 3 — attribution: tail latency must be blamed on a wait for
    // the replica that never replied (the churned/dead node), not on a
    // healthy forwarding hop.
    //
    // 3a: the churn storm masks faults well, but its single slowest op —
    // the p95+ tail — must still be pinned on an unanswered wait.
    let storm = cells.iter().find(|c| c.name == "churn-storm").expect("storm cell");
    let t = trace(storm);
    let tail = t.slowest.first().expect("storm produced a slowest-ops digest");
    let dom = tail.dominant().expect("tail op has a critical path");
    assert!(
        !dom.answered && dom.label.ends_with("_wait"),
        "acceptance: storm tail op {} not pinned on a dead replica's wait \
         (dominant hop {} on node {}, answered: {})\n{}",
        tail.op,
        dom.label,
        dom.node,
        dom.answered,
        t.summary()
    );
    // 3b: under silent loss the blame must be unambiguous. Every slowest
    // op's dominant step must be *never answered* (a request that
    // vanished, or a wait on a replica whose reply was lost), the tail op
    // must spend the majority of its life in that one step, and the set
    // must contain deadline-length waits pinned on specific replicas.
    let ds = cells.iter().find(|c| c.name == "drop-storm").expect("drop-storm cell");
    let t = trace(ds);
    let pinned =
        t.slowest.iter().filter(|d| d.dominant().is_some_and(|step| !step.answered)).count();
    assert!(
        pinned * 2 > t.slowest.len(),
        "acceptance: drop-storm tail not pinned on lost messages \
         (only {pinned}/{} slowest ops dominated by a never-answered step)\n{}",
        t.slowest.len(),
        t.summary()
    );
    let tail = t.slowest.first().expect("drop-storm slowest op");
    let dom = tail.dominant().expect("tail op has a critical path");
    assert!(
        dom.ticks() * 2 >= tail.ticks,
        "acceptance: drop-storm tail op {} dominant hop {} covers only \
         {}/{} ticks",
        tail.op,
        dom.label,
        dom.ticks(),
        tail.ticks
    );
    // The node-level blame: coordinators that lost a fetch (or its reply)
    // sat out the full multi-op deadline waiting on one named replica —
    // the span record the hedged-request work will key off.
    let lost_waits = t
        .set
        .traces
        .iter()
        .flat_map(|tr| tr.spans.iter())
        .filter(|s| s.label.ends_with("_wait") && !s.answered && s.ticks() >= 1_000)
        .count();
    assert!(
        lost_waits > 0,
        "acceptance: drop-storm recorded no deadline-length unanswered \
         replica wait\n{}",
        t.summary()
    );
    println!("\n{}", t.summary());
    println!(
        "\nshape check: tracing is free on the virtual-time axis (the traced \
         report core is byte-identical), and the storm's tail latency is \
         attributed to unanswered waits on churned replicas — exactly the \
         per-hop evidence the hedged-request work needs."
    );
    write_summary(&cells);
}

/// A captured storm trace set for the analysis-kernel benchmarks.
fn kernel_input() -> dd_trace::TraceSet {
    let config = ClusterConfig::small().persist_n(12).placement(Placement::TagCollocation);
    let mut c = Cluster::new(config, SEED);
    c.settle();
    c.observe(Planes { trace: true, ..Planes::default() });
    let report = c.run_scenario(&library::churn_storm(SEED));
    assert!(report.issued() > 0);
    c.stop_observing().trace.expect("the trace was on")
}

fn bench(c: &mut Criterion) {
    experiment();
    let mut g = c.benchmark_group("e19");
    g.sample_size(10);
    let set = kernel_input();
    // The analysis kernel: critical paths + hop/tier aggregation over a
    // real storm's span trees.
    g.bench_function("build_storm_report", |b| {
        b.iter(|| TraceReport::build(set.clone()).spans);
    });
    // The export kernel: Chrome trace-event JSON for the whole run.
    g.bench_function("chrome_json_storm", |b| {
        b.iter(|| set.to_chrome_json().len());
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
