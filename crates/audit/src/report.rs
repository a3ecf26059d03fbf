//! The aggregate result of auditing one run.

use crate::check::Violation;
use std::fmt;

/// What the checker suite concluded about one recorded run. `PartialEq`
/// (and a deterministic `Debug`/`Display`) so a replay-determinism check
/// is a single assertion.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Operations recorded (invocations).
    pub ops: u64,
    /// Operations never resolved by the end of the run.
    pub unresolved: u64,
    /// Distinct client sessions observed.
    pub sessions: u64,
    /// Replica observations in the convergence snapshot.
    pub replicas: u64,
    /// Every violation found, in checker order (safety and warnings).
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// Violations that break a safety guarantee.
    pub fn safety_violations(&self) -> impl Iterator<Item = &Violation> + '_ {
        self.violations.iter().filter(|v| v.is_safety())
    }

    /// Number of safety violations.
    #[must_use]
    pub fn safety_count(&self) -> usize {
        self.safety_violations().count()
    }

    /// Number of non-safety warnings (e.g. durability loss under
    /// permanent churn).
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.violations.len() - self.safety_count()
    }

    /// Whether the run upheld every safety guarantee.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.safety_count() == 0
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audited {} ops ({} unresolved) across {} sessions, {} replica observations: \
             {} safety violation(s), {} warning(s)",
            self.ops,
            self.unresolved,
            self.sessions,
            self.replicas,
            self.safety_count(),
            self.warning_count()
        )?;
        for v in &self.violations {
            write!(f, "\n  [{}] {v:?}", v.kind())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_dht::Version;

    #[test]
    fn counts_split_safety_from_warnings() {
        let report = AuditReport {
            ops: 10,
            unresolved: 1,
            sessions: 2,
            replicas: 4,
            violations: vec![
                Violation::LostWrite {
                    key: "k".into(),
                    acked: Version(2),
                    converged: None,
                    cause: None,
                },
                Violation::Fabrication { key: "k".into(), version: Version(9), writes: 1 },
            ],
        };
        assert_eq!(report.safety_count(), 1);
        assert_eq!(report.warning_count(), 1);
        assert!(!report.is_clean());
        let text = report.to_string();
        assert!(text.contains("1 safety violation(s)"));
        assert!(text.contains("[fabrication]"));
    }
}
