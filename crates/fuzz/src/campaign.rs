//! The campaign driver: sweep a seed range, census every verdict, shrink
//! the findings to minimal witnesses, and summarise the whole run as a
//! machine-readable JSON artifact (`BENCH_fuzz.json` in CI).

use crate::config::FuzzConfig;
use crate::gen::{generate, Case};
use crate::run::{run_case, Verdict};
use crate::shrink::{shrink, ShrinkStats};
use dd_core::{LostCause, Planes, ScenarioReport, Violation, ViolationKind};
use std::time::{Duration, Instant};

/// How a campaign walks the seed space and when it stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignPlan {
    /// First seed swept.
    pub seed_start: u64,
    /// Seeds attempted (before the wall budget cuts in).
    pub seeds: u64,
    /// Sweep every `stride`-th seed — `shard i of k` soak runs use
    /// `seed_start = base + i`, `stride = k`.
    pub stride: u64,
    /// Wall-clock budget; the sweep stops early (but finishes the current
    /// case and its shrink) once it is spent. `None` means unbounded.
    pub wall_budget: Option<Duration>,
}

impl CampaignPlan {
    /// A plan sweeping `seeds` consecutive seeds from `seed_start`.
    #[must_use]
    pub fn sweep(seed_start: u64, seeds: u64) -> Self {
        CampaignPlan { seed_start, seeds, stride: 1, wall_budget: None }
    }

    /// Builder: stop after `budget` of wall clock.
    #[must_use]
    pub fn budget(mut self, budget: Duration) -> Self {
        self.wall_budget = Some(budget);
        self
    }

    /// Builder: shard `i` of `k` — offsets the start and strides by `k`.
    ///
    /// # Panics
    /// Panics if `i >= k` or `k == 0`.
    #[must_use]
    pub fn shard(mut self, i: u64, k: u64) -> Self {
        assert!(k > 0 && i < k, "shard {i}:{k} is not a valid partition");
        self.seed_start += i;
        self.stride = k;
        self.seeds = self.seeds / k + u64::from(i < self.seeds % k);
        self
    }
}

/// One shrunk finding: the seed, what it witnesses, and the minimal repro.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The generator seed that produced the original failing case.
    pub seed: u64,
    /// The preserved verdict.
    pub verdict: Verdict,
    /// Shrink bookkeeping (sizes, evaluations).
    pub stats: ShrinkStats,
    /// The minimal case.
    pub case: Case,
}

impl Finding {
    /// The runnable Rust repro snippet of the minimal case.
    #[must_use]
    pub fn snippet(&self) -> String {
        self.case.snippet()
    }

    /// Re-runs the minimal case with the audit, trace and telemetry planes
    /// on, so a finding arrives with its own diagnosis attached. Every
    /// plane is passive: the re-run witnesses the same verdict.
    #[must_use]
    pub fn observe(&self) -> Observation {
        let mut case = self.case.clone();
        case.scenario.planes = Planes { audit: true, trace: true, telemetry: true };
        let result = run_case(&case);
        let report = result.report.as_ref();
        Observation {
            verdict: result.verdict,
            trace_json: report
                .and_then(|r| r.trace.as_ref())
                .map_or_else(String::new, |t| t.set.to_chrome_json()),
            telemetry_csv: report
                .and_then(|r| r.telemetry.as_ref())
                .map_or_else(String::new, |t| t.data.to_csv()),
        }
    }
}

/// What an observed re-run of a finding exports ([`Finding::observe`]).
/// Both exports are empty when the re-run panicked.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The re-run's verdict.
    pub verdict: Verdict,
    /// Every op's span tree as Chrome trace-event JSON.
    pub trace_json: String,
    /// Every sampled telemetry series as CSV.
    pub telemetry_csv: String,
}

/// Everything a campaign learned, censused.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// Seeds actually swept (≤ planned when the wall budget cut in).
    pub seeds_run: u64,
    /// Runs with a clean audit.
    pub clean: u64,
    /// Runs whose only violations were durability warnings.
    pub durability: u64,
    /// Runs with at least one safety violation.
    pub safety: u64,
    /// Runs that panicked inside the engine.
    pub panics: u64,
    /// Generated cases rejected by validation (generator bug if ever > 0).
    pub rejected: u64,
    /// Client operations the completed runs issued: the traffic behind
    /// the census, so a census move shows whether the load moved with it.
    pub ops_issued: u64,
    /// `(kind, violations)` across all runs, in first-appearance order.
    pub kind_census: Vec<(ViolationKind, u64)>,
    /// `(cause, lost writes)` across all runs, in first-appearance order
    /// (`None`: a lost write the audit could not attribute).
    pub cause_census: Vec<(Option<LostCause>, u64)>,
    /// Shrunk findings (every safety/panic finding, plus the first
    /// [`FuzzConfig::shrink_findings`] durability findings).
    pub findings: Vec<Finding>,
    /// Wall-clock the sweep took.
    pub elapsed: Duration,
}

impl CampaignSummary {
    /// Scenarios executed per wall-clock second.
    #[must_use]
    pub fn scenarios_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.seeds_run as f64 / secs
        }
    }

    /// Mean shrink ratio over the shrunk findings (1.0 when none).
    #[must_use]
    pub fn mean_shrink_ratio(&self) -> f64 {
        if self.findings.is_empty() {
            1.0
        } else {
            self.findings.iter().map(|f| f.stats.ratio()).sum::<f64>() / self.findings.len() as f64
        }
    }

    /// Findings that must fail a CI campaign: safety violations or panics
    /// that survived shrinking.
    #[must_use]
    pub fn safety_findings(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.verdict.is_safety_failure()).collect()
    }

    /// The summary as a hand-rolled JSON document (the workspace has no
    /// serde), stable enough for CI artifact diffing.
    #[must_use]
    pub fn to_json(&self, config_name: &str) -> String {
        let census: Vec<String> = self
            .kind_census
            .iter()
            .map(|(k, n)| format!("    {{\"kind\": \"{k}\", \"violations\": {n}}}"))
            .collect();
        let causes: Vec<String> = self
            .cause_census
            .iter()
            .map(|(cause, n)| {
                let cause = cause.map_or("unattributed", LostCause::label);
                format!("    {{\"cause\": \"{cause}\", \"lost_writes\": {n}}}")
            })
            .collect();
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                let verdict = match f.verdict {
                    Verdict::Violating(kind) => format!("violation:{kind}"),
                    Verdict::Panicked => "panic".to_string(),
                    Verdict::Clean => "clean".to_string(),
                    Verdict::Rejected => "rejected".to_string(),
                };
                format!(
                    "    {{\"seed\": {}, \"verdict\": \"{}\", \"original_size\": {}, \
                     \"shrunk_size\": {}, \"shrink_ratio\": {:.4}, \"evaluations\": {}, \
                     \"snippet\": {}}}",
                    f.seed,
                    verdict,
                    f.stats.original_size,
                    f.stats.final_size,
                    f.stats.ratio(),
                    f.stats.evaluations,
                    json_string(&f.snippet()),
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"fuzz_campaign\",\n  \"config\": {},\n  \
             \"seeds_run\": {},\n  \"clean\": {},\n  \"durability\": {},\n  \"safety\": {},\n  \
             \"panics\": {},\n  \"rejected\": {},\n  \"ops_issued\": {},\n  \
             \"scenarios_per_sec\": {:.2},\n  \
             \"mean_shrink_ratio\": {:.4},\n  \"elapsed_ms\": {},\n  \
             \"kind_census\": [\n{}\n  ],\n  \"cause_census\": [\n{}\n  ],\n  \
             \"findings\": [\n{}\n  ]\n}}\n",
            json_string(config_name),
            self.seeds_run,
            self.clean,
            self.durability,
            self.safety,
            self.panics,
            self.rejected,
            self.ops_issued,
            self.scenarios_per_sec(),
            self.mean_shrink_ratio(),
            self.elapsed.as_millis(),
            census.join(",\n"),
            causes.join(",\n"),
            findings.join(",\n"),
        )
    }
}

/// Adds `n` to `key`'s count, appending `key` on its first appearance.
fn tally<K: PartialEq>(census: &mut Vec<(K, u64)>, key: K, n: u64) {
    match census.iter_mut().find(|(k, _)| *k == key) {
        Some((_, total)) => *total += n,
        None => census.push((key, n)),
    }
}

/// A quoted JSON string literal for `s` (escaping via the workspace-wide
/// [`dd_sim::json_escape`], shared with the bench emitters).
fn json_string(s: &str) -> String {
    format!("\"{}\"", dd_sim::json_escape(s))
}

/// Sweeps the plan's seed range under `cfg`: generate → run → classify,
/// shrinking findings per the config's policy (safety violations and
/// panics always; durability warnings up to `cfg.shrink_findings`).
/// Deterministic given the same plan, config and an unbounded budget.
#[must_use]
pub fn run_campaign(cfg: &FuzzConfig, plan: &CampaignPlan) -> CampaignSummary {
    let started = Instant::now();
    let mut summary = CampaignSummary {
        seeds_run: 0,
        clean: 0,
        durability: 0,
        safety: 0,
        panics: 0,
        rejected: 0,
        ops_issued: 0,
        kind_census: Vec::new(),
        cause_census: Vec::new(),
        findings: Vec::new(),
        elapsed: Duration::ZERO,
    };
    let mut durability_shrunk = 0u32;
    for i in 0..plan.seeds {
        if let Some(budget) = plan.wall_budget {
            if started.elapsed() >= budget {
                break;
            }
        }
        let seed = plan.seed_start + i * plan.stride;
        let case = generate(cfg, seed);
        let result = run_case(&case);
        summary.seeds_run += 1;
        summary.ops_issued += result.report.as_ref().map_or(0, ScenarioReport::issued);
        for &(kind, n) in &result.kinds {
            tally(&mut summary.kind_census, kind, n);
        }
        let audit = result.report.as_ref().and_then(|r| r.audit.as_ref());
        for violation in audit.map_or(&[][..], |a| &a.violations) {
            if let Violation::LostWrite { cause, .. } = violation {
                tally(&mut summary.cause_census, *cause, 1);
            }
        }
        let shrink_this = match result.verdict {
            Verdict::Clean => {
                summary.clean += 1;
                false
            }
            Verdict::Rejected => {
                summary.rejected += 1;
                false
            }
            Verdict::Panicked => {
                summary.panics += 1;
                true
            }
            Verdict::Violating(kind) if kind.is_safety() => {
                summary.safety += 1;
                true
            }
            Verdict::Violating(_) => {
                summary.durability += 1;
                durability_shrunk += 1;
                durability_shrunk <= cfg.shrink_findings
            }
        };
        if shrink_this {
            let shrunk = shrink(&case, result.verdict, cfg.shrink_budget);
            summary.findings.push(Finding {
                seed,
                verdict: result.verdict,
                stats: shrunk.stats,
                case: shrunk.case,
            });
        }
    }
    summary.elapsed = started.elapsed();
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_partitions_the_seed_space_exactly() {
        let base = CampaignPlan::sweep(100, 10);
        let mut seen = Vec::new();
        for i in 0..3 {
            let plan = base.shard(i, 3);
            for j in 0..plan.seeds {
                seen.push(plan.seed_start + j * plan.stride);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (100..110).collect::<Vec<u64>>());
    }

    #[test]
    fn json_escaping_survives_snippets() {
        let s = json_string("a \"quoted\"\nline\\end");
        assert_eq!(s, "\"a \\\"quoted\\\"\\nline\\\\end\"");
    }

    #[test]
    fn a_tiny_campaign_censuses_every_seed() {
        let mut cfg = FuzzConfig::smoke();
        cfg.shrink_budget = 10;
        let summary = run_campaign(&cfg, &CampaignPlan::sweep(0, 4));
        assert_eq!(summary.seeds_run, 4);
        assert_eq!(
            summary.clean + summary.durability + summary.safety + summary.panics + summary.rejected,
            4
        );
        assert_eq!(summary.rejected, 0, "generated cases are valid by construction");
        let json = summary.to_json("smoke");
        assert!(json.contains("\"bench\": \"fuzz_campaign\""));
        assert!(json.contains("\"seeds_run\": 4"));
    }
}
