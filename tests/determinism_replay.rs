//! Determinism regression for the interning/scaling refactor (PR 7).
//!
//! The expected strings below are the *frozen* `Debug` renderings of three
//! scenario reports, captured on the `String`-keyed, pre-optimisation tree
//! (commit f511943). Interned keys, cached hashes, the epoch-gated failure
//! detector and the pre-sized event heap must all be behaviour-preserving:
//! a seed-replayed scenario has to produce the same report *byte for byte*
//! (f64 `Debug` is shortest-roundtrip, so equal text means bit-equal
//! floats, not approximately-equal ones).
//!
//! If one of these asserts fires, a hot-path "optimisation" changed
//! observable behaviour — RNG draw order, hash values, routing, or metrics
//! windowing — and is a correctness bug, not a perf trade-off.

use dd_core::scenario::library;
use dd_core::{
    Cluster, ClusterConfig, OpMix, Phase, Placement, Planes, Scenario, TraceSet, WorkloadKind,
};

/// `stable_hash` of the Chrome export of the `mixed` scenario's traced run.
const MIXED_SEED9_SPANS: u64 = 11_762_620_794_387_712_866;

/// `stable_hash` of the Chrome export of the scan/aggregate/fetch session.
const SCAN_AGGREGATE_SEED26_SPANS: u64 = 7_437_639_137_172_933_408;

const CALM_SEED42: &str = "ScenarioReport { name: \"calm\", phases: [PhaseReport { name: \"load\", ticks: 6000, issued: 240, ok: 240, errors: ErrorCounts { timeouts: 0, partials: 0, no_entry: 0 }, reads_found: 0, reads_absent: 0, stale_reads: 0, tuples_read: 0, latency_p50: 25.0, latency_p95: 25.0, latency_p99: 25.0, msgs: 2944, contacts_mean: 0.0, contacts_max: 0.0 }, PhaseReport { name: \"serve\", ticks: 10000, issued: 420, ok: 420, errors: ErrorCounts { timeouts: 0, partials: 0, no_entry: 0 }, reads_found: 307, reads_absent: 0, stale_reads: 0, tuples_read: 3079, latency_p50: 25.0, latency_p95: 25.0, latency_p99: 25.0, msgs: 5347, contacts_mean: 32.0, contacts_max: 32.0 }, PhaseReport { name: \"readback\", ticks: 8000, issued: 200, ok: 200, errors: ErrorCounts { timeouts: 0, partials: 0, no_entry: 0 }, reads_found: 159, reads_absent: 0, stale_reads: 0, tuples_read: 2359, latency_p50: 25.0, latency_p95: 25.0, latency_p99: 25.0, msgs: 3520, contacts_mean: 32.0, contacts_max: 32.0 }], ticks: 24000, msgs: 11811, latency_p50: 25.0, latency_p95: 25.0, latency_p99: 25.0, audit: None, trace: None, telemetry: None }";

const PARTITION_SEED7: &str = "ScenarioReport { name: \"partition-heal\", phases: [PhaseReport { name: \"load\", ticks: 6000, issued: 240, ok: 240, errors: ErrorCounts { timeouts: 0, partials: 0, no_entry: 0 }, reads_found: 0, reads_absent: 0, stale_reads: 0, tuples_read: 0, latency_p50: 25.0, latency_p95: 25.0, latency_p99: 25.0, msgs: 3338, contacts_mean: 0.0, contacts_max: 0.0 }, PhaseReport { name: \"serve\", ticks: 10000, issued: 420, ok: 420, errors: ErrorCounts { timeouts: 0, partials: 0, no_entry: 0 }, reads_found: 308, reads_absent: 0, stale_reads: 0, tuples_read: 1587, latency_p50: 25.0, latency_p95: 25.0, latency_p99: 25.0, msgs: 2118, contacts_mean: 1.421875, contacts_max: 3.0 }, PhaseReport { name: \"repair\", ticks: 10000, issued: 0, ok: 0, errors: ErrorCounts { timeouts: 0, partials: 0, no_entry: 0 }, reads_found: 0, reads_absent: 0, stale_reads: 0, tuples_read: 0, latency_p50: 0.0, latency_p95: 0.0, latency_p99: 0.0, msgs: 1718, contacts_mean: 0.0, contacts_max: 0.0 }, PhaseReport { name: \"readback\", ticks: 8000, issued: 200, ok: 200, errors: ErrorCounts { timeouts: 0, partials: 0, no_entry: 0 }, reads_found: 158, reads_absent: 0, stale_reads: 0, tuples_read: 2586, latency_p50: 25.0, latency_p95: 25.0, latency_p99: 25.0, msgs: 1138, contacts_mean: 3.0, contacts_max: 3.0 }], ticks: 34000, msgs: 8312, latency_p50: 25.0, latency_p95: 25.0, latency_p99: 25.0, audit: None, trace: None, telemetry: None }";

const MIXED_SEED9: &str = "ScenarioReport { name: \"mixed\", phases: [PhaseReport { name: \"load\", ticks: 4000, issued: 120, ok: 120, errors: ErrorCounts { timeouts: 0, partials: 0, no_entry: 0 }, reads_found: 0, reads_absent: 0, stale_reads: 0, tuples_read: 0, latency_p50: 25.0, latency_p95: 25.0, latency_p99: 25.0, msgs: 1610, contacts_mean: 0.0, contacts_max: 0.0 }, PhaseReport { name: \"serve\", ticks: 6000, issued: 200, ok: 200, errors: ErrorCounts { timeouts: 0, partials: 0, no_entry: 0 }, reads_found: 103, reads_absent: 5, stale_reads: 1, tuples_read: 1639, latency_p50: 25.0, latency_p95: 25.0, latency_p99: 25.0, msgs: 6146, contacts_mean: 32.0, contacts_max: 32.0 }], ticks: 10000, msgs: 7756, latency_p50: 25.0, latency_p95: 25.0, latency_p99: 25.0, audit: None, trace: None, telemetry: None }";

#[test]
fn calm_scenario_replays_byte_identically_to_pre_interning_report() {
    let mut c = Cluster::new(ClusterConfig::small(), 42);
    c.settle();
    let report = c.run_scenario(&library::calm(11));
    assert_eq!(format!("{report:?}"), CALM_SEED42);
}

#[test]
fn partition_heal_scenario_replays_byte_identically_under_tag_placement() {
    let mut c = Cluster::new(ClusterConfig::small().placement(Placement::TagCollocation), 7);
    c.settle();
    let report = c.run_scenario(&library::partition_heal(13));
    assert_eq!(format!("{report:?}"), PARTITION_SEED7);
}

#[test]
fn mixed_workload_scenario_replays_byte_identically() {
    let mut c = Cluster::new(ClusterConfig::small(), 9);
    c.settle();
    let report = c.run_scenario(&mixed_scenario());
    assert_eq!(format!("{report:?}"), MIXED_SEED9);
}

/// Social-feed load, then gets, deletes, scans and multi-gets.
fn mixed_scenario() -> Scenario {
    Scenario::new("mixed", WorkloadKind::SocialFeed { users: 6 }, 21)
        .phase(Phase::new("load", 4_000).mix(OpMix::idle().put(2).multi_put(1).batch(4)).ops(120))
        .phase(
            Phase::new("serve", 6_000)
                .mix(OpMix::idle().get(4).multi_get(1).scan(1).delete(1))
                .ops(200),
        )
}

/// Tracing must be passive: a traced run's report core (and the run it
/// measures) is bit-for-bit the untraced run — only the attached
/// [`dd_core::TraceReport`] differs from `None`.
#[test]
fn traced_run_core_is_bit_for_bit_the_untraced_run() {
    let mut c = Cluster::new(ClusterConfig::small(), 42);
    c.settle();
    let plain = c.run_scenario(&library::calm(11));

    let mut c = Cluster::new(ClusterConfig::small(), 42);
    c.settle();
    let mut traced = c.run_scenario(&library::calm(11).traced());
    let tr = traced.trace.take().expect("traced run attaches a trace report");
    assert!(tr.ops > 0 && tr.spans > tr.ops, "span trees recorded");
    // With the trace detached, the Debug rendering equals the frozen
    // pre-trace string exactly (f64 Debug is shortest-roundtrip, so equal
    // text means bit-equal floats).
    assert_eq!(format!("{traced:?}"), CALM_SEED42);
    assert_eq!(traced, plain);
}

/// Traced runs are themselves deterministic: same seed, same spans, same
/// critical paths, byte for byte.
#[test]
fn traced_scenario_replays_byte_identically() {
    let run = || {
        let mut c = Cluster::new(ClusterConfig::small().placement(Placement::TagCollocation), 7);
        c.settle();
        c.run_scenario(&library::partition_heal(13).traced())
    };
    let (a, b) = (run(), run());
    assert!(a.trace.is_some());
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// Stable digest of a trace set's Chrome export, which records every
/// span's label, node, start, duration, parent and `answered` flag.
fn chrome_digest(set: &TraceSet) -> u64 {
    dd_sim::rng::stable_hash(set.to_chrome_json().as_bytes())
}

/// The spans of gets, deletes, scans and multi-gets are frozen: the
/// `mixed` scenario's traced run exports the same Chrome JSON byte for
/// byte.
#[test]
fn mixed_scenario_spans_are_frozen() {
    let mut c = Cluster::new(ClusterConfig::small(), 9);
    c.settle();
    let report = c.run_scenario(&mixed_scenario().traced());
    let trace = report.trace.expect("traced run attaches a trace report");
    assert_eq!(chrome_digest(&trace.set), MIXED_SEED9_SPANS);
}

/// The spans of scans and aggregates behind a dead replica, and of a read
/// that misses the cache, are frozen.
#[test]
fn scan_aggregate_and_fetch_spans_are_frozen() {
    // A one-entry cache: a later write at the same coordinator evicts an
    // earlier one, so a read of it goes to the persist layer.
    let mut config = ClusterConfig::small();
    config.cache_capacity = 1;
    let mut c = Cluster::new(config, 26);
    c.settle();
    c.observe(Planes { trace: true, ..Planes::default() });
    let mut s = c.client();
    for i in 0..8 {
        let w = s.put(&mut c, format!("k{i}"), vec![1], Some(f64::from(i) / 8.0), None);
        s.recv(&mut c, w).expect("write ordered");
    }
    c.run_for(500);
    let r = s.get(&mut c, "k0");
    assert!(s.recv(&mut c, r).expect("read completes").is_some());
    assert_eq!(c.sim.metrics().counter("soft.cache_misses"), 1, "the read missed the cache");
    c.sim.kill(c.persist_ids()[5]);
    // One pair is on its way before any detector has noticed (and is
    // struck once it does), one goes out to a peer known to be dead.
    let early = (s.scan(&mut c, 0.0, 1.0), s.aggregate(&mut c));
    c.run_for(200);
    let late = (s.scan(&mut c, 0.0, 1.0), s.aggregate(&mut c));
    // Every tuple keeps two live owners, so both pairs complete whole.
    for (scan, aggregate) in [early, late] {
        assert_eq!(s.recv(&mut c, scan).expect("scan covered").len(), 8);
        assert!(s.recv(&mut c, aggregate).is_ok());
    }
    let set = c.stop_observing().trace.expect("trace plane on");
    let json = set.to_chrome_json();
    for label in ["soft.fetch_wait", "soft.scan_wait", "soft.agg_wait", "persist.serve"] {
        assert!(json.contains(label), "no {label} span");
    }
    assert_eq!(chrome_digest(&set), SCAN_AGGREGATE_SEED26_SPANS);
}

/// Telemetry sampling must be passive: an instrumented run's report core
/// (and the run it measures) is bit-for-bit the uninstrumented run — only
/// the attached [`dd_core::TelemetryReport`] differs from `None`.
#[test]
fn instrumented_run_core_is_bit_for_bit_the_uninstrumented_run() {
    let mut c = Cluster::new(ClusterConfig::small(), 42);
    c.settle();
    let plain = c.run_scenario(&library::calm(11));

    let mut c = Cluster::new(ClusterConfig::small(), 42);
    c.settle();
    let mut instrumented = c.run_scenario(&library::calm(11).instrumented());
    let tel = instrumented.telemetry.take().expect("instrumented run attaches telemetry");
    assert!(tel.samples > 0, "sampler fired");
    // With the telemetry detached, the Debug rendering equals the frozen
    // pre-telemetry string exactly (f64 Debug is shortest-roundtrip, so
    // equal text means bit-equal floats).
    assert_eq!(format!("{instrumented:?}"), CALM_SEED42);
    assert_eq!(instrumented, plain);
}

/// Instrumented runs are themselves deterministic: same seed, same
/// samples, same detector verdicts, byte for byte.
#[test]
fn instrumented_scenario_replays_byte_identically() {
    let run = || {
        let mut c = Cluster::new(ClusterConfig::small().placement(Placement::TagCollocation), 7);
        c.settle();
        c.run_scenario(&library::partition_heal(13).instrumented())
    };
    let (a, b) = (run(), run());
    assert!(a.telemetry.is_some());
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
