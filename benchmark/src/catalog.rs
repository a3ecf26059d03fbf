//! The names the benchmark reports: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the end-to-end
//! metric and workload each one is predicted to move. `BENCHMARK.json` is
//! generated from these tables (`-- manifest`) and a test keeps the two in
//! step.

use dd_sim::json_escape;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what it stresses and why it exists.
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "rw-small",
        why: "40 persist/4 soft, r=3, range sieves, ring repair; closed loop 8x32, put/get \
              alternating, harvest per 25 ticks; default net 1-5 ticks, no loss. Store \
              growth and anti-entropy dominate pump.",
    },
    WorkloadDef {
        name: "rw-large",
        why: "2000 persist/16 soft, else as rw-small. Per-op work grows with node count \
              (about 2000 allocations, 98 kB per op); idle background is 1% of wall. \
              Per-node tables must show here, not on rw-small.",
    },
    WorkloadDef {
        name: "read-small",
        why: "rw-small's cluster, puts preloaded, then 1 put : 19 gets, 8x32, harvest \
              every tick. Store nearly static; client submit and drain take their largest \
              share; latency exact to one tick.",
    },
    WorkloadDef {
        name: "feed-fine",
        why: "36 persist/4 soft, tag collocation, social feed of 64 users; \
              put/get/delete/scan/multi_put(8)/multi_get mix, 4x8, harvest every tick. Tag \
              routing, batches, scans, tombstones; cost grows with feeds.",
    },
    WorkloadDef {
        name: "drills",
        why: "Seeds x {range, tag} x {calm, churn_storm, partition_heal, cascading_crash} \
              audited library drills on fresh 36-node clusters. The only workload with \
              faults: scenario plane, detector, audit.",
    },
];

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen. The host-clock
    /// bounds are as wide as the contract allows because the sandbox's
    /// speed drifts by more than 10% between runs of one seed; the
    /// sim-clock bounds are three times the spread seen between seeds.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEndDef] = &[
    EndToEndDef { name: "ops_per_sec", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEndDef { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "latency_p50_ticks", unit: "ticks", better: Better::Lower, bound: 0.10 },
    EndToEndDef { name: "latency_p99_ticks", unit: "ticks", better: Better::Lower, bound: 0.10 },
    EndToEndDef { name: "latency_p999_ticks", unit: "ticks", better: Better::Lower, bound: 0.10 },
    EndToEndDef { name: "msgs_per_op", unit: "msgs/op", better: Better::Lower, bound: 0.10 },
    EndToEndDef { name: "ok_ops_share", unit: "share", better: Better::Higher, bound: 0.001 },
    EndToEndDef { name: "fresh_read_share", unit: "share", better: Better::Higher, bound: 0.0005 },
    EndToEndDef { name: "durable_write_share", unit: "share", better: Better::Higher, bound: 0.02 },
    EndToEndDef { name: "safe_result_share", unit: "share", better: Better::Higher, bound: 0.0001 },
    EndToEndDef { name: "peak_alloc_mib", unit: "MiB", better: Better::Lower, bound: 0.10 },
];

pub struct PerLayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload it should move, and where the
    /// prediction is no change.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayerDef {
    PerLayerDef { name, unit, better, moves }
}

use Better::{Higher, Lower};

const KERNEL_SMALL: &str =
    "ops_per_sec on rw-small, read-small, feed-fine, drills; flat on rw-large";
const KERNEL_LARGE: &str = "ops_per_sec on rw-large; flat on the 40-node workloads";
const PER_MSG: &str = "ops_per_sec on every workload, in proportion to msgs_per_op";
const SETUP_LARGE: &str = "setup_s on rw-large; flat elsewhere";
const PUMP: &str = "ops_per_sec on every workload";
const CLIENT: &str = "ops_per_sec on read-small, feed-fine; flat on rw-small, rw-large";
const KIND_LATENCY: &str = "latency_* on read-small, feed-fine; unresolved at 25-tick harvests";
const SOFT: &str = "latency_p50_ticks, msgs_per_op on read-small, feed-fine; flat on rw-large";
const WRITE_PATH: &str = "msgs_per_op on rw-small; flat on read-small";
const REPAIR: &str = "msgs_per_op, durable_write_share on drills; flat on read-small";
const STORE_WALK: &str = "ops_per_sec, peak_alloc_mib on rw-small; flat on read-small";
const DRILL_WALL: &str = "ops_per_sec on drills only";
const DRILL_ERRORS: &str = "ok_ops_share on drills; zero elsewhere";
const PLANE: &str = "ops_per_sec on drills only (planes are off elsewhere)";
const LOSSY: &str = "ops_per_sec on drills (loss is injected only there)";
const IDLE_LOADED: &str = "ops_per_sec on rw-small; flat on read-small";
const GROWTH: &str = "ops_per_sec on rw-small, feed-fine; near 1 on read-small";
const SWEEP: &str = "ops_per_sec, ok_ops_share on drills";
const DETECTOR: &str = "ops_per_sec, ok_ops_share on drills; zero elsewhere";
const STUCK: &str =
    "none: ops that sat out a drill's outage, kept out of latency_*; zero off the drills";
const WARNINGS: &str = "durable_write_share on drills";
const ALLOCS: &str = "ops_per_sec, peak_alloc_mib on every workload";
const HARNESS: &str = "none: cost of the benchmark itself, must stay under 10% of wall";

pub const PER_LAYER: &[PerLayerDef] = &[
    layer("sim.engine.events_per_sec_n40", "1/s", Higher, KERNEL_SMALL),
    layer("sim.engine.events_per_sec_n2000", "1/s", Higher, KERNEL_LARGE),
    layer("sim.net.route_ns", "ns", Lower, PER_MSG),
    layer("sim.net.route_lossy_ns", "ns", Lower, LOSSY),
    layer("sim.metrics.incr_ns", "ns", Lower, PER_MSG),
    layer("sim.metrics.observe_ns", "ns", Lower, PER_MSG),
    layer("core.cluster.new_s", "s", Lower, SETUP_LARGE),
    layer("core.cluster.settle_s", "s", Lower, SETUP_LARGE),
    layer("core.cluster.pump_share", "share", Lower, PUMP),
    layer("core.cluster.pump_us_per_tick", "us", Lower, PUMP),
    layer("core.cluster.msgs_per_pump_sec", "1/s", Higher, PUMP),
    layer("core.cluster.idle_us_per_tick_empty", "us", Lower, KERNEL_LARGE),
    layer("core.cluster.idle_us_per_tick_loaded", "us", Lower, IDLE_LOADED),
    layer("core.cluster.late_early_rate_ratio", "ratio", Higher, GROWTH),
    layer("core.cluster.repair_sweep_ms", "ms", Lower, SWEEP),
    layer("core.cluster.fd_notices", "count", Lower, DETECTOR),
    layer("core.client.submit_ns_per_op", "ns", Lower, CLIENT),
    layer("core.client.submit_share", "share", Lower, CLIENT),
    layer("core.client.drain_us_per_call", "us", Lower, CLIENT),
    layer("core.client.drain_share", "share", Lower, CLIENT),
    layer("core.client.harvest_hit_share", "share", Higher, CLIENT),
    layer("core.client.stuck_ops_share", "share", Lower, STUCK),
    layer("core.client.put_p50_ticks", "ticks", Lower, KIND_LATENCY),
    layer("core.client.put_p99_ticks", "ticks", Lower, KIND_LATENCY),
    layer("core.client.get_p50_ticks", "ticks", Lower, KIND_LATENCY),
    layer("core.client.get_p99_ticks", "ticks", Lower, KIND_LATENCY),
    layer("core.client.delete_p50_ticks", "ticks", Lower, KIND_LATENCY),
    layer("core.client.delete_p99_ticks", "ticks", Lower, KIND_LATENCY),
    layer("core.client.scan_p50_ticks", "ticks", Lower, KIND_LATENCY),
    layer("core.client.scan_p99_ticks", "ticks", Lower, KIND_LATENCY),
    layer("core.client.mput_p50_ticks", "ticks", Lower, KIND_LATENCY),
    layer("core.client.mput_p99_ticks", "ticks", Lower, KIND_LATENCY),
    layer("core.client.mget_p50_ticks", "ticks", Lower, KIND_LATENCY),
    layer("core.client.mget_p99_ticks", "ticks", Lower, KIND_LATENCY),
    layer("core.soft.cache_hit_share", "share", Higher, SOFT),
    layer("core.soft.fallback_fetch_share", "share", Lower, SOFT),
    layer("core.soft.contacts_per_op", "1/op", Lower, SOFT),
    layer("core.soft.disseminations_per_put", "1/op", Lower, SOFT),
    layer("core.persist.received_per_put", "1/op", Lower, WRITE_PATH),
    layer("core.persist.store_accept_share", "share", Higher, WRITE_PATH),
    layer("core.persist.relays_per_put", "1/op", Lower, WRITE_PATH),
    layer("core.persist.repair_syncs_per_ktick", "1/ktick", Lower, REPAIR),
    layer("core.persist.repair_clean_share", "share", Higher, REPAIR),
    layer("core.persist.repair_recovered", "count", Lower, REPAIR),
    layer("core.persist.digest_us", "us", Lower, STORE_WALK),
    layer("core.persist.shared_summary_us", "us", Lower, STORE_WALK),
    layer("core.persist.store_bytes_per_user_byte", "ratio", Lower, STORE_WALK),
    layer("epidemic.antientropy.summary_diff_us", "us", Lower, STORE_WALK),
    layer("epidemic.antientropy.digest_missing_us", "us", Lower, STORE_WALK),
    layer("core.sieve_spec.accepts_ns", "ns", Lower, STORE_WALK),
    layer("core.scenario.calm_ms", "ms", Lower, DRILL_WALL),
    layer("core.scenario.churn_storm_ms", "ms", Lower, DRILL_WALL),
    layer("core.scenario.partition_heal_ms", "ms", Lower, DRILL_WALL),
    layer("core.scenario.cascading_crash_ms", "ms", Lower, DRILL_WALL),
    layer("core.scenario.timeouts", "count", Lower, DRILL_ERRORS),
    layer("core.scenario.partials", "count", Lower, DRILL_ERRORS),
    layer("core.scenario.no_live_entry", "count", Lower, DRILL_ERRORS),
    layer("audit.wall_ratio", "ratio", Lower, PLANE),
    layer("trace.wall_ratio", "ratio", Lower, PLANE),
    layer("obs.wall_ratio", "ratio", Lower, PLANE),
    layer("audit.ops_recorded", "count", Higher, PLANE),
    layer("audit.warnings", "count", Lower, WARNINGS),
    layer("core.workload.gen_ns_per_op", "ns", Lower, HARNESS),
    layer("bench.harness_share", "share", Lower, HARNESS),
    layer("bench.allocs_per_op", "1/op", Lower, ALLOCS),
    layer("bench.alloc_bytes_per_op", "B/op", Lower, ALLOCS),
    layer("bench.trace_overhead_share", "share", Lower, HARNESS),
];

/// How long one driver run measures, in seconds. Twenty rather than ten:
/// the sandbox slows down for a minute at a time, and the fewer of a
/// workload's ten runs one such minute covers, the less it moves their
/// quartiles. 114 runs of about 23 s fit the driver's 3420 s.
pub const RUN_SECONDS: u32 = 20;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let q = |s: &str| format!("\"{}\"", json_escape(s));
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", q(w.name), q(w.why)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better.label()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better.label())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.map(q).join(", "),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// The layer ledger as a Markdown table, for the README.
pub fn layer_table() -> String {
    let mut out =
        String::from("| per-layer metric | unit | better | should move |\n|---|---|---|---|\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.label(),
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_stay_inside_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(well_formed(name), "bad name {name:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?}");
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert_eq!((WORKLOADS.len(), END_TO_END.len()), (5, 11));
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is listed");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }
    }

    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        let generated = manifest();
        assert!(generated.len() <= 64 * 1024);
        let doc = parse(&generated).expect("manifest is valid JSON");
        let keys = ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"];
        let Json::Object(map) = &doc else { panic!("manifest is an object") };
        assert_eq!(map.keys().map(String::as_str).collect::<Vec<_>>(), {
            let mut sorted = keys.to_vec();
            sorted.sort_unstable();
            sorted
        });
        let layers = doc.get("per_layer").and_then(Json::as_array).expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, generated, "regenerate with `-- manifest > BENCHMARK.json`");
    }

    #[test]
    fn the_readme_holds_the_layer_ledger() {
        let readme = include_str!("../README.md");
        assert!(readme.contains(&layer_table()), "paste `-- layers` into README.md");
    }
}
