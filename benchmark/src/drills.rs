//! The `drills` workload: the scenario library's four dependability
//! drills, audited, each on a fresh 36-node cluster, for consecutive
//! seeds and both placements. The only workload that injects faults.

use crate::alloc;
use crate::outcome::{AfterRun, HostStats, Pass, SimStats, ANY};
use crate::spans::{Recorder, NO_REQ};
use dd_core::scenario::library;
use dd_core::{Cluster, ClusterConfig, Placement, Scenario, ScenarioReport};
use std::collections::BTreeMap;
use std::time::Instant;

/// Consecutive seeds per pass: the issue's 50, divided by the common
/// scale factor 4 and rounded up.
pub const SEEDS: u64 = 13;

const PLACEMENTS: [Placement; 2] = [Placement::RangePartition, Placement::TagCollocation];

const DRILLS: [fn(u64) -> Scenario; 4] =
    [library::calm, library::churn_storm, library::partition_heal, library::cascading_crash];

/// Observer planes a drill can run under, in `HostStats::plane_s` order.
const PLAIN: usize = 0;
const AUDITED: usize = 1;
const TRACED: usize = 2;
const INSTRUMENTED: usize = 3;

fn with_plane(drill: Scenario, plane: usize) -> Scenario {
    match plane {
        PLAIN => drill,
        AUDITED => drill.audited(),
        TRACED => drill.traced(),
        _ => drill.instrumented(),
    }
}

/// One drill on a fresh cluster; returns the report, the cluster it ran
/// on, and the wall seconds of set-up and of `run_scenario`.
fn run_one(
    placement: Placement,
    drill: &Scenario,
    seed: u64,
    rec: &mut Option<Recorder>,
) -> (ScenarioReport, Cluster, f64, f64) {
    let config = ClusterConfig::small().persist_n(36).replication(3).placement(placement);
    let started = Instant::now();
    if let Some(r) = rec {
        r.open("core.cluster.new", 0, NO_REQ);
    }
    let mut cluster = Cluster::new(config, seed);
    if let Some(r) = rec {
        r.close(0);
        r.open("core.cluster.settle", 0, NO_REQ);
    }
    cluster.settle();
    let tick = cluster.sim.now().0;
    if let Some(r) = rec {
        r.close(tick);
        r.open("core.scenario.run", tick, NO_REQ);
    }
    let setup_s = started.elapsed().as_secs_f64();
    let report = cluster.run_scenario(drill);
    let run_s = started.elapsed().as_secs_f64() - setup_s;
    if let Some(r) = rec {
        r.close(cluster.sim.now().0);
    }
    (report, cluster, setup_s, run_s)
}

/// One pass over `seeds` consecutive seeds. A traced pass also runs every
/// drill under each other observer plane, back to back with the audited
/// run, so the planes' wall-clock ratios see the same machine state.
pub fn run(seed: u64, seeds: u64, traced: bool) -> Pass {
    let mut sim = SimStats::default();
    let mut after = AfterRun::default();
    let mut host = HostStats::default();
    let mut rec = traced.then(Recorder::new);
    let alloc_before = alloc::snapshot();
    if let Some(r) = &mut rec {
        r.open("bench.timed_section", 0, NO_REQ);
    }
    for s in 0..seeds {
        let seed = seed.wrapping_add(s);
        for placement in PLACEMENTS {
            for (d, make) in DRILLS.iter().enumerate() {
                if let Some(r) = &mut rec {
                    r.open("bench.other_planes", 0, NO_REQ);
                    for plane in [PLAIN, TRACED, INSTRUMENTED] {
                        let drill = with_plane(make(seed), plane);
                        host.plane_s[plane] += run_one(placement, &drill, seed, &mut None).3;
                    }
                    r.close(0);
                }
                alloc::reset_peak();
                let drill = with_plane(make(seed), AUDITED);
                let (report, cluster, setup_s, run_s) = run_one(placement, &drill, seed, &mut rec);
                host.peak_alloc_bytes = host.peak_alloc_bytes.max(alloc::peak());
                host.setup_s += setup_s;
                host.timed_s += run_s;
                host.plane_s[AUDITED] += run_s;
                host.scenario_ms[d] += run_s * 1e3 / (seeds * PLACEMENTS.len() as u64) as f64;
                fold(&mut sim, &mut after, &report, &cluster);
            }
        }
    }
    if let Some(r) = &mut rec {
        r.close(0);
    }
    let alloc_after = alloc::snapshot();
    host.allocs = alloc_after.allocs - alloc_before.allocs;
    host.alloc_bytes = alloc_after.bytes - alloc_before.bytes;
    host.keep_spans(rec);
    Pass { sim, host, after: Some(after) }
}

/// Adds one audited drill's report to the pass.
fn fold(sim: &mut SimStats, after: &mut AfterRun, report: &ScenarioReport, cluster: &Cluster) {
    let errors = report.errors();
    sim.attempted += report.issued();
    sim.ok += report.phases.iter().map(|p| p.ok).sum::<u64>();
    sim.timeouts += errors.timeouts;
    sim.partials += errors.partials;
    sim.no_live_entry += errors.no_entry;
    sim.found_reads += report.phases.iter().map(|p| p.reads_found).sum::<u64>();
    sim.stale_reads += report.phases.iter().map(|p| p.stale_reads).sum::<u64>();
    sim.ticks += report.ticks;
    sim.final_tick += cluster.sim.now().0;
    sim.net_sent += report.msgs;
    // A fresh cluster per drill: its counters and its latency series hold
    // this drill only (860 ops, below the reservoir's exact limit).
    let metrics = cluster.sim.metrics();
    sim.add_counter_deltas(&BTreeMap::new(), metrics);
    let latencies = metrics.reservoir("client.op_ticks").expect("the drill completed ops");
    assert!(latencies.is_exact(), "every latency of the drill was kept");
    for &ticks in latencies.samples() {
        sim.record_latency(ANY, ticks as u64);
    }
    let audit = report.audit.as_ref().expect("the drill ran audited");
    sim.audit_ops += audit.ops;
    sim.checked_results += audit.ops;
    sim.safety_violations += audit.safety_count() as u64;
    sim.audit_warnings += audit.warning_count() as u64;
    after.lost_writes += audit.warning_count() as u64;
    after.durability_checked += metrics.counter("soft.writes");
}
