//! Guard: the repository benchmark (`benchmark/`, declared by
//! `BENCHMARK.json`) must build against the crates as they are now and
//! pass its own smoke run. It is a package outside the workspace, so
//! nothing else in `cargo build --release && cargo test -q` compiles it —
//! an API it uses can move and leave it broken until something tries to
//! measure with it.
//!
//! The smoke run also pins behaviour: each workload's `sim_fingerprint`
//! and failed-op count are frozen in [`FROZEN`]. A change that claims
//! "same behaviour" gets that claim checked here; a change that moves
//! behaviour on purpose edits the table and says why.
//!
//! Untraced only: the traced smoke also aborts on `bench.harness_share`,
//! a host-clock ratio close enough to its limit to flake here.

use std::path::Path;
use std::process::Command;

/// `(workload, sim_fingerprint, failed ops, why)` of `run --smoke` (seed
/// 2011, every count divided by 20), in the order the run prints them.
const FROZEN: [(&str, &str, u64, &str); 5] = [
    ("rw-small", "3ca541cbeb87042d", 0, "range sieves, no faults: every put and get completes"),
    ("rw-large", "c552442f1ec9685e", 0, "rw-small's protocol on 2000 nodes, still fault-free"),
    ("read-small", "51071d19cecf6f77", 0, "preloaded store, 1 put : 19 gets, no faults"),
    ("feed-fine", "c75fdfd715a28c8e", 0, "tag collocation with scans and batches, no faults"),
    ("drills", "a84f2cd66225361c", 4, "the one faulted workload: 4 ops time out or end partial"),
];

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
    // Each workload prints `<workload> sim_fingerprint <hex> …` among its
    // metric lines, and one result object closes the block.
    let mut fingerprint = None;
    let mut seen = Vec::new();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [workload, "sim_fingerprint", hex, ..] = fields[..] {
            fingerprint = Some((workload, hex));
        } else if line.starts_with('{') {
            assert!(line.contains(r#""correct": true"#), "workload failed its oracle: {line}");
            let (workload, hex) = fingerprint.take().expect("a fingerprint line before the result");
            seen.push((workload, hex, failed_ops(line)));
        }
    }
    let frozen: Vec<_> = FROZEN.iter().map(|&(w, hex, failed, _)| (w, hex, failed)).collect();
    assert_eq!(seen, frozen, "smoke behaviour moved; edit FROZEN and say why\n{stdout}");
}

/// The `"failed": <n>` field of a result object.
fn failed_ops(result: &str) -> u64 {
    let (_, rest) = result.split_once(r#""failed": "#).expect("a failed field");
    let digits = rest.split(|c: char| !c.is_ascii_digit()).next().unwrap_or_default();
    digits.parse().expect("failed is a count")
}
