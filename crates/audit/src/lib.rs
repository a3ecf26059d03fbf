//! # dd-audit — history capture and consistency checking
//!
//! The paper's claims are *dependability* claims: the epidemic soft/persist
//! design keeps its guarantees under churn, crashes and partitions. The
//! scenario plane can inject all of those faults — this crate is the
//! subsystem that machine-checks what the store promised while they raged.
//!
//! It has three parts:
//!
//! * **Capture** — a [`Recorder`] accumulates every client operation as an
//!   invocation/completion pair (op kind, keys/tag, returned versions,
//!   issuing session and workload phase, virtual-time interval) into an
//!   append-only [`History`]. Recording is passive: it never touches the
//!   simulation's RNG or message flow, so an audited run replays
//!   byte-identically to an unaudited one.
//! * **Checking** — [`check()`] (or the per-guarantee `check_*` functions)
//!   walks a [`History`] plus a post-settle [`ReplicaTuple`] snapshot and
//!   emits structured [`Violation`]s, each carrying the minimal witnessing
//!   sub-history.
//! * **Shared bookkeeping** — [`VersionOracle`], the per-key
//!   latest-acknowledged-version table used both by the scenario plane's
//!   staleness attribution and by the convergence checker.
//!
//! The checkers are *sound* for the DataDroplets protocols: on a fault-free
//! run every violation is a real bug, and under injected faults only the
//! anomalies the design actually rules out are flagged (availability loss —
//! timeouts, absent reads, partial feeds — is reported by the scenario
//! plane, not here). See [`check()`] for the exact guarantees audited.
//!
//! ```
//! use dd_audit::{History, Op, OpDesc, Outcome, Recorder};
//! use dd_dht::Version;
//!
//! let mut rec = Recorder::new();
//! rec.set_phase(Some(0));
//! rec.invoke(1, 7, 100, OpDesc::Put { key: "k".into(), tag: None });
//! rec.complete(1, 140, Outcome::Write { version: Version(1) });
//! let history: History = rec.finish();
//! assert_eq!(history.ops().len(), 1);
//! let report = dd_audit::check(&history, &[]);
//! assert!(report.is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod history;
pub mod oracle;
pub mod report;

pub use check::{
    check, check_atomic_visibility, check_convergence, check_monotonic_reads,
    check_read_your_writes, check_tombstone_safety, snapshot_converged, LostCause, ReplicaTuple,
    Violation, ViolationKind,
};
pub use history::{History, Op, OpDesc, OpFailure, Outcome, Recorder};
pub use oracle::VersionOracle;
pub use report::AuditReport;
