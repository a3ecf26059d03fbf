//! # dd-fuzz — randomized scenario fuzzing with automatic shrinking
//!
//! The scenario plane (PR 4) made whole experiments *values*; the audit
//! plane (PR 5) made their correctness *checkable*. This crate closes the
//! loop: it **searches** the scenario space for histories the checkers
//! reject, then shrinks each find to a minimal witnessing fault schedule.
//!
//! The pipeline, one seed at a time:
//!
//! 1. **Generate** ([`generate`]): a seeded RNG draws a [`Case`] — cluster
//!    spec (persist size, replication, placement) × audited
//!    [`dd_core::Scenario`] (op mixes × phases × fault schedule ×
//!    environment timeline) — from the declarative bounds and weights of a
//!    [`FuzzConfig`]. Generated cases are valid by construction (episodes
//!    pair spikes with recoveries; partitions never overlap).
//! 2. **Execute** ([`run_case`]): build the cluster, settle, run the
//!    scenario with history capture, classify the outcome as a
//!    [`Verdict`] — clean, violating (with the dominant
//!    [`dd_core::ViolationKind`]), panicked (caught), or rejected.
//! 3. **Shrink** ([`shrink()`]): greedy delta-debugging over the case —
//!    drop faults and environment clauses, drop and shorten phases, halve
//!    op budgets, collapse concurrency, downsize the cluster — accepting
//!    only strictly smaller candidates that reproduce the *same* verdict,
//!    replayed deterministically from the same seed.
//! 4. **Report** ([`run_campaign`]): census verdicts across a seed range,
//!    emit every shrunk finding as a self-contained runnable Rust snippet
//!    ([`Case::snippet`]), and summarise the campaign as JSON
//!    ([`CampaignSummary::to_json`] → `BENCH_fuzz.json`). The binary
//!    re-runs each finding with every observer plane on
//!    ([`Finding::observe`]) and writes its Chrome trace and telemetry CSV
//!    beside the summary.
//!
//! Two stock profiles: [`FuzzConfig::smoke`] is the CI tier (hundreds of
//! small seeds in seconds, see `tests/smoke.rs`), [`FuzzConfig::soak`] the
//! long campaign behind the `dd-fuzz` binary, which shards seed ranges
//! across parallel invocations (`--shard i:k`).
//!
//! ```
//! use dd_fuzz::{generate, run_case, FuzzConfig, Verdict};
//!
//! let case = generate(&FuzzConfig::smoke(), 42);
//! assert_eq!(case.scenario.validate(), Ok(()));
//! let result = run_case(&case);
//! assert!(matches!(result.verdict, Verdict::Clean | Verdict::Violating(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod config;
pub mod gen;
pub mod run;
pub mod shrink;

pub use campaign::{run_campaign, CampaignPlan, CampaignSummary, Finding, Observation};
pub use config::{Bounds, EnvWeights, FaultWeights, FuzzConfig};
pub use gen::{generate, Case};
pub use run::{run_case, RunResult, Verdict};
pub use shrink::{shrink, shrink_with, ShrinkStats, Shrunk};
