//! Greedy delta-debugging shrinker: given a violating [`Case`], search
//! for a smaller case with the *same verdict* — same violation kind, or
//! still panicking — by replaying mutated copies deterministically.
//!
//! The passes, applied to fixpoint under an evaluation budget:
//! fault-schedule deltas (drop all, drop one), environment deltas,
//! phase drops, phase shortening (halve ticks), op-budget halving,
//! concurrency collapse (sessions/depth → 1), batch halving, and
//! cluster downsizing (halve `persist_n` toward the replication floor).
//! Every candidate is validated before it is run, so the shrinker never
//! wanders into rejected territory.

use crate::gen::Case;
use crate::run::{run_case, Verdict};
use dd_core::Phase;

/// Bookkeeping of one shrink: how much work it did and how far it got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Oracle evaluations (full scenario re-runs) spent.
    pub evaluations: u32,
    /// Candidates accepted (each one strictly shrank the case).
    pub accepted: u32,
    /// [`Case::size`] of the original case.
    pub original_size: u64,
    /// [`Case::size`] of the minimal case.
    pub final_size: u64,
}

impl ShrinkStats {
    /// `final_size / original_size` — 1.0 means nothing shrank, 0.1 means
    /// the witness is a tenth of the original.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.original_size == 0 {
            1.0
        } else {
            self.final_size as f64 / self.original_size as f64
        }
    }
}

/// The outcome of a shrink: the minimal witnessing case plus stats.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The smallest case found that still witnesses the target verdict.
    pub case: Case,
    /// How the search went.
    pub stats: ShrinkStats,
}

fn candidates(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    let scenario = &case.scenario;

    // Fault-schedule deltas: all gone, then each clause alone removed.
    if !scenario.faults.is_empty() {
        let mut c = case.clone();
        c.scenario.faults.clear();
        out.push(c);
        for i in 0..scenario.faults.len() {
            let mut c = case.clone();
            c.scenario.faults.remove(i);
            out.push(c);
        }
    }

    // Environment deltas, same shape.
    if !scenario.env.is_empty() {
        let mut c = case.clone();
        c.scenario.env.clear();
        out.push(c);
        for i in 0..scenario.env.len() {
            let mut c = case.clone();
            c.scenario.env.remove(i);
            out.push(c);
        }
    }

    // Phase drops (a scenario keeps at least one phase).
    if scenario.phases.len() > 1 {
        for i in 0..scenario.phases.len() {
            let mut c = case.clone();
            c.scenario.phases.remove(i);
            out.push(c);
        }
    }

    // Per-phase value shrinks: shorter, fewer ops, less concurrency.
    for (i, p) in scenario.phases.iter().enumerate() {
        let mut variants: Vec<Phase> = Vec::new();
        if p.ticks > 200 {
            variants.push(Phase { ticks: (p.ticks / 2).max(200), ..p.clone() });
        }
        if let Some(ops) = p.ops {
            if ops > 1 {
                variants.push(p.clone().ops((ops / 2).max(1)));
            }
        }
        if p.sessions > 1 {
            variants.push(p.clone().sessions(1));
        }
        if p.depth > 1 {
            variants.push(p.clone().depth(1));
        }
        if p.mix.multi_put > 0 && p.mix.batch > 1 {
            variants.push(p.clone().mix(p.mix.batch(p.mix.batch / 2)));
        }
        for variant in variants {
            let mut c = case.clone();
            c.scenario.phases[i] = variant;
            out.push(c);
        }
    }

    // Cluster downsizing: halve the persist layer toward the replication
    // floor, and relax replication toward 2.
    let floor = u64::from(case.replication).max(2);
    if case.persist_n > floor {
        let mut c = case.clone();
        c.persist_n = (case.persist_n / 2).max(floor);
        out.push(c);
    }
    if case.replication > 2 {
        let mut c = case.clone();
        c.replication = 2;
        out.push(c);
    }

    out
}

/// Shrinks `case` toward the smallest case whose oracle verdict equals
/// `target`, spending at most `budget` oracle evaluations. The oracle is
/// any deterministic `Case → Verdict` function; campaigns pass the real
/// pipeline ([`run_case`]), tests can inject a synthetic bug.
pub fn shrink_with<F>(case: &Case, target: Verdict, budget: u32, mut oracle: F) -> Shrunk
where
    F: FnMut(&Case) -> Verdict,
{
    let original_size = case.size();
    let mut best = case.clone();
    let mut evaluations = 0u32;
    let mut accepted = 0u32;
    'outer: loop {
        let mut improved = false;
        for mut candidate in candidates(&best) {
            if evaluations >= budget {
                break 'outer;
            }
            if candidate.size() >= best.size() || candidate.scenario.validate().is_err() {
                continue;
            }
            evaluations += 1;
            if oracle(&candidate) == target {
                if !candidate.scenario.name.ends_with("-min") {
                    candidate.scenario.name.push_str("-min");
                }
                best = candidate;
                accepted += 1;
                improved = true;
                // Restart the pass list from the (smaller) new best: the
                // greedy fixpoint loop.
                break;
            }
        }
        if !improved {
            break;
        }
    }
    let final_size = best.size();
    Shrunk { case: best, stats: ShrinkStats { evaluations, accepted, original_size, final_size } }
}

/// Shrinks `case` with the real execution pipeline as the oracle,
/// preserving `target` (the verdict `case` itself produced).
#[must_use]
pub fn shrink(case: &Case, target: Verdict, budget: u32) -> Shrunk {
    shrink_with(case, target, budget, |c| run_case(c).verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FuzzConfig;
    use crate::gen::generate;
    use dd_core::{Fault, ViolationKind};

    /// A synthetic bug: the "system" violates Divergence exactly when the
    /// scenario still schedules a Crash fault, budgets at least 8 ops and
    /// keeps at least 8 persist nodes. The shrinker must strip everything
    /// else while keeping those three witnesses alive.
    fn injected_oracle(case: &Case) -> Verdict {
        let has_crash = case.scenario.faults.iter().any(|(_, f)| matches!(f, Fault::Crash { .. }));
        let ops: u64 = case.scenario.phases.iter().filter_map(|p| p.ops).sum();
        if has_crash && ops >= 8 && case.persist_n >= 8 {
            Verdict::Violating(ViolationKind::Divergence)
        } else {
            Verdict::Clean
        }
    }

    fn case_with_injected_bug() -> Case {
        // Deterministically find a generated case the injected oracle
        // flags — plenty of smoke seeds schedule a Crash.
        let cfg = FuzzConfig::smoke();
        (0..500)
            .map(|seed| generate(&cfg, seed))
            .find(|c| injected_oracle(c).is_finding() && c.size() >= 60)
            .expect("some smoke seed schedules a crash with >= 8 ops and a meaty size")
    }

    #[test]
    fn shrinker_halves_an_injected_failure_while_preserving_its_kind() {
        let case = case_with_injected_bug();
        let target = injected_oracle(&case);
        let shrunk = shrink_with(&case, target, 500, injected_oracle);
        assert_eq!(injected_oracle(&shrunk.case), target, "kind must be preserved");
        assert_eq!(shrunk.case.scenario.validate(), Ok(()), "minimal case must stay valid");
        assert!(
            shrunk.stats.ratio() <= 0.5,
            "expected >= 50% reduction, got {} -> {} (ratio {:.2})",
            shrunk.stats.original_size,
            shrunk.stats.final_size,
            shrunk.stats.ratio()
        );
        // The witnesses the oracle needs must survive verbatim.
        assert!(shrunk.case.scenario.faults.iter().any(|(_, f)| matches!(f, Fault::Crash { .. })));
        let ops: u64 = shrunk.case.scenario.phases.iter().filter_map(|p| p.ops).sum();
        assert!(ops >= 8, "ops shrank below the witness threshold");
        assert!(shrunk.case.persist_n >= 8);
        assert!(shrunk.case.scenario.name.ends_with("-min"));
    }

    #[test]
    fn shrinking_a_clean_case_is_a_noop_against_a_clean_target() {
        let case = generate(&FuzzConfig::smoke(), 1);
        let shrunk = shrink_with(&case, Verdict::Panicked, 40, |_| Verdict::Clean);
        assert_eq!(shrunk.case, case, "no candidate matches an impossible target");
        assert_eq!(shrunk.stats.accepted, 0);
    }

    #[test]
    fn budget_caps_oracle_evaluations() {
        let case = case_with_injected_bug();
        let shrunk = shrink_with(&case, injected_oracle(&case), 3, injected_oracle);
        assert!(shrunk.stats.evaluations <= 3);
    }
}
