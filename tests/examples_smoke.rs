//! Smoke test: every example under `examples/` must build and run to
//! completion with a zero exit status. The examples double as executable
//! documentation, so a broken one is a broken doc — this catches it in
//! plain `cargo test` without requiring a separate CI step.

use std::path::Path;
use std::process::Command;

/// Runs `cargo run --example <name>` with the same cargo that is driving
/// this test, and returns the example's stdout (panicking with the
/// combined output on failure).
fn run_example(name: &str) -> String {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let output = Command::new(cargo)
        .current_dir(manifest_dir)
        .args(["run", "--quiet", "--example", name])
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn cargo for example {name}: {e}"));
    assert!(
        output.status.success(),
        "example {name} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn every_example_is_covered_here() {
    // If a new example lands without a smoke test below, fail loudly.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut found: Vec<String> = std::fs::read_dir(dir)
        .expect("examples/ directory exists")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".rs").map(str::to_owned)
        })
        .collect();
    found.sort();
    assert_eq!(
        found,
        vec![
            "analytics_scan",
            "audited_drill",
            "outage_drill",
            "quickstart",
            "social_feed",
            "telemetry_drill",
            "threaded_gossip",
            "traced_drill"
        ],
        "examples/ changed — update examples_smoke.rs to cover the new set"
    );
}

#[test]
fn quickstart_runs() {
    run_example("quickstart");
}

#[test]
fn social_feed_runs_and_exercises_multi_ops() {
    // The example must drive the real multi-tuple operation plane
    // (multi_put batches, tag-routed multi_get) — not a static sieve
    // analysis — and report the measured contact accounting.
    let out = run_example("social_feed");
    assert!(
        out.contains("multi_put") && out.contains("multi_get"),
        "social_feed must exercise the multi-op path; got:\n{out}"
    );
    assert!(
        out.contains("tag sieves") && out.contains("uniform"),
        "social_feed must compare placements; got:\n{out}"
    );
}

#[test]
fn analytics_scan_runs() {
    run_example("analytics_scan");
}

#[test]
fn outage_drill_runs_pure_scenarios() {
    // The drill must be a pure-Scenario program: both acts print the
    // standard per-phase report (availability line included) and end with
    // a served read-back.
    let out = run_example("outage_drill");
    assert!(
        out.contains("partition-heal") && out.contains("compound-outage"),
        "outage_drill must run both drills; got:\n{out}"
    );
    assert!(out.matches("availability").count() >= 2, "per-scenario availability reported");
    assert!(out.contains("readback"), "phase table includes the read-back phase");
}

#[test]
fn threaded_gossip_runs() {
    run_example("threaded_gossip");
}

#[test]
fn traced_drill_runs_the_tracing_plane() {
    // The example must run a stock drill traced, pin the tail op on a
    // never-answered wait, and export a Chrome trace file.
    let out = run_example("traced_drill");
    assert!(
        out.contains("critical-path time by hop"),
        "traced drill must print the per-hop breakdown; got:\n{out}"
    );
    assert!(
        out.contains("never answered"),
        "traced drill must pin the tail on an unanswered wait; got:\n{out}"
    );
    assert!(
        out.contains("chrome://tracing"),
        "traced drill must export a Chrome trace; got:\n{out}"
    );
}

#[test]
fn telemetry_drill_runs_the_telemetry_plane() {
    // The example must run a stock drill instrumented (clean detectors),
    // catch the never-harvesting session's leak on the backlog gauge —
    // and on nothing else — and export both wire formats.
    let out = run_example("telemetry_drill");
    assert!(
        out.contains("cluster series (min/mean/max/last)"),
        "telemetry drill must print the series table; got:\n{out}"
    );
    assert!(
        out.contains("detectors: clean"),
        "telemetry drill's healthy run must come out clean; got:\n{out}"
    );
    let verdicts: Vec<&str> = out.lines().filter(|l| l.contains("detector [")).collect();
    assert!(
        matches!(verdicts[..], [v] if v.contains("[leak] cluster.completion_backlog")),
        "telemetry drill must pin the seeded leak on the backlog gauge alone; got:\n{out}"
    );
    assert!(
        out.contains("Prometheus") && out.contains("CSV"),
        "telemetry drill must export both formats; got:\n{out}"
    );
}

#[test]
fn audited_drill_runs_the_audit_plane() {
    // The example must run a stock drill audited (clean verdict) and
    // demonstrate a structured violation with its witness sub-history.
    let out = run_example("audited_drill");
    assert!(
        out.contains("0 safety violation(s)"),
        "audited drill must report a clean verdict; got:\n{out}"
    );
    assert!(
        out.contains("[read-your-writes]") && out.contains("witness sub-history"),
        "example must demonstrate reading a violation witness; got:\n{out}"
    );
}
