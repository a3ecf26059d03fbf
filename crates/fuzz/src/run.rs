//! Case execution: run one [`Case`] audited, catch anything the engine
//! throws, and classify the outcome.

use crate::gen::Case;
use dd_core::{Cluster, ScenarioReport, ViolationKind};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How a fuzz case came out, in severity order. `Violating` carries the
/// *dominant* kind — the first safety violation's kind, or the first
/// warning's if the run produced only durability warnings — and two cases
/// compare equal exactly when they witness the same kind, which is the
/// invariant the shrinker preserves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The run completed and the audit found nothing.
    Clean,
    /// The audit reported at least one violation of this kind.
    Violating(ViolationKind),
    /// The engine panicked mid-run (always a bug: generated scenarios are
    /// validated before execution).
    Panicked,
    /// The scenario failed [`dd_core::Scenario::validate`] and never ran
    /// (never produced by the generator; shrink candidates are screened
    /// with it).
    Rejected,
}

impl Verdict {
    /// Whether this verdict is a finding worth shrinking: a safety
    /// violation or a panic (true), a durability warning (also true but
    /// lower priority), or nothing (false).
    #[must_use]
    pub fn is_finding(&self) -> bool {
        !matches!(self, Verdict::Clean | Verdict::Rejected)
    }

    /// Whether this verdict must fail a CI campaign: safety violations
    /// and panics do; clean runs and durability warnings (expected under
    /// unrevived crashes of whole replica groups) do not.
    #[must_use]
    pub fn is_safety_failure(&self) -> bool {
        match self {
            Verdict::Violating(kind) => kind.is_safety(),
            Verdict::Panicked => true,
            Verdict::Clean | Verdict::Rejected => false,
        }
    }
}

/// The full outcome of one case execution.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Classified outcome.
    pub verdict: Verdict,
    /// Violation census of the audit: `(kind, count)` for every kind that
    /// appeared, in first-appearance order.
    pub kinds: Vec<(ViolationKind, u64)>,
    /// Safety violations found.
    pub safety: u64,
    /// Durability warnings found.
    pub warnings: u64,
    /// The panic payload, when the verdict is [`Verdict::Panicked`].
    pub panic_msg: Option<String>,
    /// The scenario report, when the run completed.
    pub report: Option<ScenarioReport>,
}

fn panic_payload(err: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = err.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = err.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one case end to end: validate, build the cluster, settle, execute
/// the audited scenario, classify. Engine panics are caught and
/// classified rather than unwinding into the campaign loop.
#[must_use]
pub fn run_case(case: &Case) -> RunResult {
    if case.scenario.validate().is_err() {
        return RunResult {
            verdict: Verdict::Rejected,
            kinds: Vec::new(),
            safety: 0,
            warnings: 0,
            panic_msg: None,
            report: None,
        };
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut cluster = Cluster::new(case.cluster_config(), case.seed);
        cluster.settle();
        cluster.run_scenario(&case.scenario)
    }));
    match outcome {
        Err(err) => RunResult {
            verdict: Verdict::Panicked,
            kinds: Vec::new(),
            safety: 0,
            warnings: 0,
            panic_msg: Some(panic_payload(err)),
            report: None,
        },
        Ok(report) => {
            let mut kinds: Vec<(ViolationKind, u64)> = Vec::new();
            let mut safety = 0u64;
            let mut warnings = 0u64;
            let mut dominant: Option<ViolationKind> = None;
            if let Some(audit) = &report.audit {
                for v in &audit.violations {
                    let kind = v.kind();
                    if kind.is_safety() {
                        safety += 1;
                    } else {
                        warnings += 1;
                    }
                    // Dominant kind: the first safety kind seen, or the
                    // first kind at all when only warnings appear.
                    match dominant {
                        None => dominant = Some(kind),
                        Some(d) if !d.is_safety() && kind.is_safety() => dominant = Some(kind),
                        Some(_) => {}
                    }
                    match kinds.iter_mut().find(|(k, _)| *k == kind) {
                        Some((_, n)) => *n += 1,
                        None => kinds.push((kind, 1)),
                    }
                }
            }
            let verdict = match dominant {
                Some(kind) => Verdict::Violating(kind),
                None => Verdict::Clean,
            };
            RunResult { verdict, kinds, safety, warnings, panic_msg: None, report: Some(report) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FuzzConfig;
    use crate::gen::generate;
    use dd_core::{Fault, Phase, Scenario, Tier, WorkloadKind};

    #[test]
    fn verdict_severity_classification() {
        assert!(!Verdict::Clean.is_finding());
        assert!(!Verdict::Rejected.is_finding());
        assert!(Verdict::Panicked.is_finding());
        assert!(Verdict::Violating(ViolationKind::LostWrite).is_finding());
        assert!(!Verdict::Violating(ViolationKind::LostWrite).is_safety_failure());
        assert!(Verdict::Violating(ViolationKind::Divergence).is_safety_failure());
        assert!(Verdict::Panicked.is_safety_failure());
    }

    #[test]
    fn an_invalid_case_is_rejected_not_run() {
        let mut case = generate(&FuzzConfig::smoke(), 0);
        case.scenario.phases.clear();
        let result = run_case(&case);
        assert_eq!(result.verdict, Verdict::Rejected);
        assert!(result.report.is_none());
    }

    #[test]
    fn a_quiet_scenario_runs_clean_and_replays_byte_identically() {
        let scenario = Scenario::new("quiet", WorkloadKind::Uniform, 3)
            .audited()
            .phase(Phase::new("load", 800).mix(dd_core::OpMix::puts()).ops(6).sessions(1));
        let case = Case {
            seed: 3,
            persist_n: 8,
            replication: 2,
            placement: dd_core::Placement::RangePartition,
            scenario,
        };
        let a = run_case(&case);
        let b = run_case(&case);
        assert_eq!(a.verdict, Verdict::Clean);
        assert_eq!(a.report, b.report, "replay must be byte-identical");
    }

    #[test]
    fn crashing_every_replica_yields_a_durability_verdict() {
        // All persist nodes die right after the load phase and stay dead:
        // the audit settle can only conclude the writes are gone.
        let scenario = Scenario::new("total-loss", WorkloadKind::Uniform, 11)
            .audited()
            .phase(Phase::new("load", 1_000).mix(dd_core::OpMix::puts()).ops(8).sessions(1))
            .phase(Phase::new("wait", 600))
            .fault(1_000, Fault::Crash { tier: Tier::Persist, count: 8 });
        let case = Case {
            seed: 11,
            persist_n: 8,
            replication: 2,
            placement: dd_core::Placement::RangePartition,
            scenario,
        };
        let result = run_case(&case);
        assert_eq!(result.verdict, Verdict::Violating(ViolationKind::LostWrite));
        assert!(result.warnings > 0);
        assert_eq!(result.safety, 0, "losing every replica is a durability story, not safety");
    }
}
