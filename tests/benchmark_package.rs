//! Guard: the repository benchmark (`benchmark/`, declared by
//! `BENCHMARK.json`) must build against the crates as they are now and
//! pass its own smoke run. It is a package outside the workspace, so
//! nothing else in `cargo build --release && cargo test -q` compiles it —
//! an API it uses can move and leave it broken until something tries to
//! measure with it.
//!
//! Untraced only: the traced smoke also aborts on `bench.harness_share`,
//! a host-clock ratio close enough to its limit to flake here.

use std::path::Path;
use std::process::Command;

#[test]
fn benchmark_package_builds_and_passes_its_smoke_run() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let output = Command::new(cargo)
        .current_dir(root)
        .args(["run", "--release", "--offline", "--quiet"])
        .args(["--manifest-path", "benchmark/Cargo.toml", "--", "run", "--smoke"])
        // Never inherited: the package builds where a plain run of the
        // benchmark command would, not into whatever drives this test.
        .env("CARGO_TARGET_DIR", root.join("benchmark/target"))
        .output()
        .expect("spawn cargo for the benchmark package");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "benchmark smoke run exited with {:?}\n--- stdout ---\n{stdout}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr),
    );
    // One result object per workload closes its block of metric lines.
    let results: Vec<&str> = stdout.lines().filter(|line| line.starts_with('{')).collect();
    assert_eq!(results.len(), 5, "one result object per workload:\n{stdout}");
    for result in results {
        assert!(result.contains(r#""correct": true"#), "workload failed its oracle: {result}");
    }
}
