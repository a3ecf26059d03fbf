//! Turns the passes over one workload into the named metrics: host-clock
//! numbers as medians over the passes, sim-clock numbers from the first
//! pass (the determinism guard has shown the others equal).

use crate::outcome::{AfterRun, Pass, KIND_NAMES};
use crate::spans::NameTotal;
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    /// Samples behind the value: passes for a host-clock median,
    /// operations or events for a sim-clock number.
    pub n: u64,
    /// First and third quartile over the passes (host-clock medians only).
    pub quartiles: Option<(f64, f64)>,
}

pub type Metrics = BTreeMap<String, Measured>;

fn exact(value: f64, n: u64) -> Measured {
    Measured { value, n, quartiles: None }
}

fn over_passes(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> Measured {
    let values: Vec<f64> = passes.iter().map(f).collect();
    Measured { value: median(&values), n: values.len() as u64, quartiles: Some(quartiles(&values)) }
}

/// `part / whole`, or 0 when there is no whole to take a share of.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn ops_per_sec(pass: &Pass) -> f64 {
    pass.sim.resolved() as f64 / pass.host.timed_s
}

/// What the first pass, the one that inspects its cluster, left behind.
fn after_run(passes: &[Pass]) -> &AfterRun {
    passes[0].after.as_ref().expect("the first pass inspects what it left behind")
}

pub fn end_to_end(passes: &[Pass], resolution: u64) -> Metrics {
    let sim = &passes[0].sim;
    let after = after_run(passes);
    let latency = sim.latency_all();
    let share_kept = |lost: u64, of: u64| exact(1.0 - ratio(lost as f64, of as f64), of);
    let mut m = Metrics::new();
    let mut put = |name: &str, v: Measured| {
        m.insert(name.to_owned(), v);
    };
    put("ops_per_sec", over_passes(passes, ops_per_sec));
    put("setup_s", over_passes(passes, |p| p.host.setup_s));
    for (name, p) in
        [("latency_p50_ticks", 0.5), ("latency_p99_ticks", 0.99), ("latency_p999_ticks", 0.999)]
    {
        put(name, exact(latency.percentile(p, resolution), latency.count()));
    }
    put("msgs_per_op", exact(sim.net_sent as f64 / sim.resolved() as f64, sim.resolved()));
    put("ok_ops_share", share_kept(sim.attempted - sim.ok, sim.attempted));
    put("fresh_read_share", share_kept(sim.stale_reads, sim.found_reads));
    put("durable_write_share", share_kept(after.lost_writes, after.durability_checked));
    put("safe_result_share", share_kept(sim.safety_violations, sim.checked_results));
    put("peak_alloc_mib", over_passes(passes, |p| p.host.peak_alloc_bytes as f64 / 1_048_576.0));
    m
}

/// The raw counts behind the shares, for the printed lines only.
pub fn counts(passes: &[Pass]) -> Vec<(&'static str, u64)> {
    let sim = &passes[0].sim;
    vec![
        ("failed_ops", sim.failed()),
        ("stale_reads", sim.stale_reads),
        ("lost_writes", after_run(passes).lost_writes),
        ("safety_violations", sim.safety_violations),
    ]
}

fn span_total(pass: &Pass, name: &str) -> NameTotal {
    pass.host.span_totals.get(name).copied().unwrap_or_default()
}

/// Share of the timed section's wall that spans named `name` spent in
/// themselves.
fn self_share(pass: &Pass, name: &str) -> f64 {
    let timed = span_total(pass, "bench.timed_section").total_ns;
    ratio(span_total(pass, name).self_ns as f64, timed as f64)
}

/// Mean nanoseconds of one span named `name`.
fn mean_ns(pass: &Pass, name: &str) -> f64 {
    let t = span_total(pass, name);
    ratio(t.total_ns as f64, t.count as f64)
}

/// Generator time plus the timed section's own time (issue-tick map,
/// value oracle, span pushes), as a share of the timed section's wall.
fn harness_share(pass: &Pass) -> f64 {
    let timed_ns = span_total(pass, "bench.timed_section").total_ns as f64;
    let gen_ns = span_total(pass, "core.workload.gen").total_ns as f64;
    self_share(pass, "bench.timed_section") + ratio(gen_ns, timed_ns)
}

/// Every per-layer metric. A metric that does not exist for a workload
/// (client spans on the drills, drill walls elsewhere) reads 0.
pub fn per_layer(
    untraced: &[Pass],
    traced: &[Pass],
    micro: &BTreeMap<&'static str, f64>,
    idle_empty_us_per_tick: f64,
    resolution: u64,
) -> Metrics {
    let sim = &traced[0].sim;
    let after = after_run(traced);
    let c = |name: &str| sim.counter(name) as f64;
    let mut m = Metrics::new();
    let mut put = |name: &str, v: Measured| {
        m.insert(name.to_owned(), v);
    };
    let host = |f: &dyn Fn(&Pass) -> f64| over_passes(traced, f);

    for (&name, &value) in micro {
        put(name, exact(value, 3));
    }
    put("core.cluster.new_s", host(&|p| mean_ns(p, "core.cluster.new") / 1e9));
    put("core.cluster.settle_s", host(&|p| mean_ns(p, "core.cluster.settle") / 1e9));
    put("core.cluster.pump_share", host(&|p| self_share(p, "core.cluster.pump")));
    put(
        "core.cluster.pump_us_per_tick",
        host(&|p| {
            ratio(span_total(p, "core.cluster.pump").total_ns as f64 / 1e3, p.sim.ticks as f64)
        }),
    );
    put(
        "core.cluster.msgs_per_pump_sec",
        host(&|p| {
            ratio(p.sim.net_sent as f64, span_total(p, "core.cluster.pump").total_ns as f64 / 1e9)
        }),
    );
    put("core.cluster.idle_us_per_tick_empty", exact(idle_empty_us_per_tick, 1));
    put("core.cluster.idle_us_per_tick_loaded", exact(after.idle_loaded_us_per_tick, 1));
    put("core.cluster.late_early_rate_ratio", host(&|p| p.host.late_early_rate_ratio));
    put("core.cluster.repair_sweep_ms", exact(after.repair_sweep_ms, 1));
    put("core.cluster.fd_notices", exact(c("fd.notices"), sim.ticks));

    put("core.client.submit_ns_per_op", host(&|p| mean_ns(p, "core.client.submit")));
    put("core.client.submit_share", host(&|p| self_share(p, "core.client.submit")));
    put("core.client.drain_us_per_call", host(&|p| mean_ns(p, "core.client.drain") / 1e3));
    put("core.client.drain_share", host(&|p| self_share(p, "core.client.drain")));
    put(
        "core.client.harvest_hit_share",
        exact(ratio(sim.resolved() as f64, sim.probed as f64), sim.drains),
    );
    put("core.client.stuck_ops_share", exact(ratio(sim.stuck_ops as f64, sim.ok as f64), sim.ok));
    for (kind, name) in KIND_NAMES.iter().enumerate() {
        let h = &sim.latency[kind];
        put(
            &format!("core.client.{name}_p50_ticks"),
            exact(h.percentile(0.5, resolution), h.count()),
        );
        put(
            &format!("core.client.{name}_p99_ticks"),
            exact(h.percentile(0.99, resolution), h.count()),
        );
    }

    let reads = c("soft.reads");
    let writes = c("soft.writes");
    put("core.soft.cache_hit_share", exact(ratio(c("soft.cache_hits"), reads), reads as u64));
    put(
        "core.soft.fallback_fetch_share",
        exact(ratio(c("soft.fallback_fetches"), reads), reads as u64),
    );
    let read_ops = reads + c("soft.multi_gets");
    put(
        "core.soft.contacts_per_op",
        exact(ratio(c("persist.fetches") + c("persist.tag_fetches"), read_ops), read_ops as u64),
    );
    put(
        "core.soft.disseminations_per_put",
        exact(ratio(c("soft.disseminations"), writes), writes as u64),
    );
    put(
        "core.persist.received_per_put",
        exact(ratio(c("persist.received"), writes), writes as u64),
    );
    put(
        "core.persist.store_accept_share",
        exact(ratio(c("persist.stored"), c("persist.received")), c("persist.received") as u64),
    );
    put("core.persist.relays_per_put", exact(ratio(c("persist.relays"), writes), writes as u64));
    let syncs = c("repair.syncs");
    put(
        "core.persist.repair_syncs_per_ktick",
        exact(ratio(syncs, sim.ticks as f64 / 1e3), sim.ticks),
    );
    put("core.persist.repair_clean_share", exact(ratio(c("repair.clean"), syncs), syncs as u64));
    put("core.persist.repair_recovered", exact(c("repair.recovered"), syncs as u64));
    put("core.persist.digest_us", exact(after.digest_us, 1));
    put("core.persist.shared_summary_us", exact(after.shared_summary_us, 1));
    put("core.persist.store_bytes_per_user_byte", exact(after.store_bytes_per_user_byte, 1));

    for (d, name) in ["calm", "churn_storm", "partition_heal", "cascading_crash"].iter().enumerate()
    {
        put(&format!("core.scenario.{name}_ms"), host(&|p| p.host.scenario_ms[d]));
    }
    put("core.scenario.timeouts", exact(sim.timeouts as f64, sim.attempted));
    put("core.scenario.partials", exact(sim.partials as f64, sim.attempted));
    put("core.scenario.no_live_entry", exact(sim.no_live_entry as f64, sim.attempted));
    for (plane, name) in [(1, "audit"), (2, "trace"), (3, "obs")] {
        put(
            &format!("{name}.wall_ratio"),
            host(&|p| ratio(p.host.plane_s[plane], p.host.plane_s[0])),
        );
    }
    put("audit.ops_recorded", exact(sim.audit_ops as f64, sim.attempted));
    put("audit.warnings", exact(sim.audit_warnings as f64, sim.audit_ops));

    put("core.workload.gen_ns_per_op", host(&|p| p.host.gen_ns_per_op));
    put("bench.harness_share", host(&harness_share));
    put(
        "bench.allocs_per_op",
        over_passes(untraced, |p| p.host.allocs as f64 / p.sim.resolved() as f64),
    );
    put(
        "bench.alloc_bytes_per_op",
        over_passes(untraced, |p| p.host.alloc_bytes as f64 / p.sim.resolved() as f64),
    );
    let base = over_passes(untraced, ops_per_sec).value;
    let mut overhead = over_passes(traced, ops_per_sec);
    overhead.value = 1.0 - overhead.value / base;
    overhead.quartiles = None;
    put("bench.trace_overhead_share", overhead);
    m
}
