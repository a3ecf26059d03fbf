//! The `dd-fuzz` soak binary: sweep a seed range (optionally sharded),
//! shrink every finding, write a JSON campaign summary, and exit nonzero
//! if any safety violation or panic survives shrinking. Each finding is
//! re-run with every observer plane on; its Chrome trace and telemetry CSV
//! land in `<stem>_findings/` beside `--out <stem>.json`, replacing those
//! of an earlier run's findings.
//!
//! ```text
//! dd-fuzz [--config smoke|soak] [--seed-start N] [--seeds N]
//!         [--budget-secs N] [--shard I:K] [--out PATH] [--quiet]
//! ```

use dd_fuzz::{run_campaign, CampaignPlan, Finding, FuzzConfig, Verdict};
use std::path::{Path, PathBuf};
use std::time::Duration;

struct Args {
    config_name: String,
    seed_start: u64,
    seeds: u64,
    budget_secs: Option<u64>,
    shard: Option<(u64, u64)>,
    out: String,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: dd-fuzz [--config smoke|soak] [--seed-start N] [--seeds N]\n\
         \x20              [--budget-secs N] [--shard I:K] [--out PATH] [--quiet]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        config_name: "soak".to_string(),
        seed_start: 0,
        seeds: 1_000,
        budget_secs: None,
        shard: None,
        out: "BENCH_fuzz.json".to_string(),
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--config" => args.config_name = value("--config"),
            "--seed-start" => {
                args.seed_start = value("--seed-start").parse().unwrap_or_else(|_| usage())
            }
            "--seeds" => args.seeds = value("--seeds").parse().unwrap_or_else(|_| usage()),
            "--budget-secs" => {
                args.budget_secs = Some(value("--budget-secs").parse().unwrap_or_else(|_| usage()))
            }
            "--shard" => {
                let spec = value("--shard");
                let (i, k) = spec.split_once(':').unwrap_or_else(|| usage());
                let i: u64 = i.parse().unwrap_or_else(|_| usage());
                let k: u64 = k.parse().unwrap_or_else(|_| usage());
                if k == 0 || i >= k {
                    eprintln!("--shard {spec}: need I < K, K > 0");
                    usage();
                }
                args.shard = Some((i, k));
            }
            "--out" => args.out = value("--out"),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    args
}

/// Where each finding's trace and telemetry go: `<stem>_findings` beside
/// `--out <stem>.json`.
fn findings_dir(out: &str) -> PathBuf {
    let out = Path::new(out);
    let stem = out.file_stem().unwrap_or_default().to_string_lossy();
    out.with_file_name(format!("{stem}_findings"))
}

/// Re-runs each finding observed and writes its `seed-<N>.trace.json` and
/// `seed-<N>.telemetry.csv` into `dir`, after removing those of earlier
/// campaigns, so the directory holds this campaign's findings alone.
fn write_observations(dir: &Path, findings: &[Finding]) -> std::io::Result<()> {
    if dir.is_dir() {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.file_name().and_then(|n| n.to_str()).is_some_and(is_finding_file) {
                std::fs::remove_file(path)?;
            }
        }
    }
    if findings.is_empty() {
        return Ok(());
    }
    std::fs::create_dir_all(dir)?;
    for finding in findings {
        let (seed, seen) = (finding.seed, finding.observe());
        std::fs::write(dir.join(format!("seed-{seed}.trace.json")), &seen.trace_json)?;
        std::fs::write(dir.join(format!("seed-{seed}.telemetry.csv")), &seen.telemetry_csv)?;
    }
    Ok(())
}

/// Whether `name` is a file [`write_observations`] writes:
/// `seed-<N>.trace.json` or `seed-<N>.telemetry.csv`.
fn is_finding_file(name: &str) -> bool {
    let Some(rest) = name.strip_prefix("seed-") else { return false };
    let seed = rest.strip_suffix(".trace.json").or_else(|| rest.strip_suffix(".telemetry.csv"));
    seed.is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

fn main() {
    let args = parse_args();
    let cfg = match args.config_name.as_str() {
        "smoke" => FuzzConfig::smoke(),
        "soak" => FuzzConfig::soak(),
        other => {
            eprintln!("unknown config {other} (want smoke or soak)");
            usage();
        }
    };
    let mut plan = CampaignPlan::sweep(args.seed_start, args.seeds);
    if let Some(secs) = args.budget_secs {
        plan = plan.budget(Duration::from_secs(secs));
    }
    if let Some((i, k)) = args.shard {
        plan = plan.shard(i, k);
    }

    // The campaign catches engine panics and classifies them; silence the
    // default hook so a panicking case prints one census line instead of a
    // backtrace per replay (this binary is single-threaded, so the global
    // hook swap races nothing).
    if args.quiet {
        std::panic::set_hook(Box::new(|_| {}));
    }
    let summary = run_campaign(&cfg, &plan);

    println!(
        "dd-fuzz {}: {} seeds in {:.1}s ({:.1} scenarios/s)",
        args.config_name,
        summary.seeds_run,
        summary.elapsed.as_secs_f64(),
        summary.scenarios_per_sec(),
    );
    println!(
        "  clean {}  durability {}  safety {}  panics {}  rejected {}",
        summary.clean, summary.durability, summary.safety, summary.panics, summary.rejected
    );
    for (kind, n) in &summary.kind_census {
        println!("  census {kind}: {n} violations");
    }
    for (cause, n) in &summary.cause_census {
        let cause = cause.map_or("unattributed", dd_core::LostCause::label);
        println!("  lost writes {cause}: {n}");
    }
    let lost: u64 = summary.cause_census.iter().map(|&(_, n)| n).sum();
    let per_kop = if summary.ops_issued == 0 {
        0.0
    } else {
        lost as f64 * 1_000.0 / summary.ops_issued as f64
    };
    println!("  ops issued {}  lost writes per 1000 ops {per_kop:.2}", summary.ops_issued);
    for finding in &summary.findings {
        let label = match finding.verdict {
            Verdict::Violating(kind) => format!("{kind}"),
            Verdict::Panicked => "panic".to_string(),
            _ => continue,
        };
        println!(
            "  finding seed {} [{}]: size {} -> {} ({} evals)",
            finding.seed,
            label,
            finding.stats.original_size,
            finding.stats.final_size,
            finding.stats.evaluations
        );
        if finding.verdict.is_safety_failure() {
            println!("--- minimal repro ---\n{}---", finding.snippet());
        }
    }

    if let Err(e) = std::fs::write(&args.out, summary.to_json(&args.config_name)) {
        eprintln!("dd-fuzz: could not write {}: {e}", args.out);
        std::process::exit(2);
    }
    println!("wrote {}", args.out);
    let dir = findings_dir(&args.out);
    if let Err(e) = write_observations(&dir, &summary.findings) {
        eprintln!("dd-fuzz: could not write {}: {e}", dir.display());
        std::process::exit(2);
    }
    if !summary.findings.is_empty() {
        println!("wrote the trace and telemetry of each finding to {}", dir.display());
    }
    let _ = std::panic::take_hook();

    let safety_findings = summary.safety_findings();
    if !safety_findings.is_empty() {
        eprintln!(
            "dd-fuzz: {} safety finding(s) survived shrinking — failing",
            safety_findings.len()
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_campaign_removes_earlier_findings_files_and_nothing_else() {
        let dir = std::env::temp_dir().join(format!("dd-fuzz-findings-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stale = ["seed-13.trace.json", "seed-13.telemetry.csv", "seed-3.trace.json"];
        let kept = ["notes.txt", "seed-13.json", "seed-x.trace.json", "seed-.telemetry.csv"];
        for name in stale.iter().chain(&kept) {
            std::fs::write(dir.join(name), "x").unwrap();
        }
        write_observations(&dir, &[]).unwrap();
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        std::fs::remove_dir_all(&dir).unwrap();
        let mut want = kept.map(String::from).to_vec();
        want.sort();
        assert_eq!(left, want);
    }
}
