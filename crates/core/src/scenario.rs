//! The declarative scenario plane: one composable API for workloads,
//! faults and environment timelines.
//!
//! The paper's claims are *scenario* claims — the epidemic tuple store
//! stays dependable under massive churn, node loss and partitions while
//! tag collocation keeps request fan-out flat. A [`Scenario`] makes such
//! an experiment a seedable **value** instead of a bespoke driver loop:
//!
//! * a **workload program** — [`Phase`]s of typed op mixes
//!   ([`crate::OpMix`]) at chosen session counts, pipeline depths and
//!   target rates, executed over the PR-3 [`crate::Client`] sessions by
//!   the phase engine;
//! * a **fault schedule** — [`Fault`]s at virtual times: churn bursts
//!   (compiled from [`dd_sim::churn::ChurnSchedule`]), correlated
//!   crashes, node flaps, soft-layer wipes and rebuilds;
//! * an **environment timeline** — [`EnvChange`]s routed through the
//!   engine's scheduled network mutations ([`dd_sim::NetChange`]):
//!   latency shifts, loss spikes, partition and heal events.
//!
//! [`Scenario`], [`Phase`] and [`crate::OpMix`] are plain data: public
//! fields plus builders, with [`Scenario::validate`] as the one gate
//! between a value and a run.
//!
//! [`Cluster::run_scenario`] merges the three timelines, executes them
//! deterministically from the scenario seed, and returns a
//! [`ScenarioReport`]: per-phase availability, staleness, error taxonomy,
//! latency quantiles and message/contact accounting. Same scenario, same
//! seed — byte-identical report.
//!
//! ```
//! use dd_core::{Cluster, ClusterConfig, OpMix, Phase, Scenario, WorkloadKind};
//!
//! let mut cluster = Cluster::new(ClusterConfig::small(), 42);
//! cluster.settle();
//! let drill = Scenario::new("smoke", WorkloadKind::Uniform, 7)
//!     .phase(Phase::new("load", 2_000).mix(OpMix::puts()).ops(40))
//!     .phase(Phase::new("read", 2_000).mix(OpMix::gets()).ops(40));
//! let report = cluster.run_scenario(&drill);
//! assert_eq!(report.availability(), 1.0);
//! assert_eq!(report.phases[1].reads_found, 40);
//! ```

use crate::cluster::{Cluster, Observed, Planes};
use crate::driver::{Engine, OpMix};
use crate::tuple::StoredTuple;
use crate::workload::{Workload, WorkloadKind};
use dd_audit::LostCause;
use dd_dht::Version;
use dd_sim::churn::{ChurnEvent, ChurnModel, ChurnSchedule};
use dd_sim::metrics::{Reservoir, Window};
use dd_sim::rng::{mix, stream_rng};
use dd_sim::{Duration, LatencyModel, NetChange, NodeId, Time};
use rand::seq::SliceRandom;

/// Which layer of the deployment a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The soft-state (coordinator) layer.
    Soft,
    /// The persistent-state (storage) layer.
    Persist,
}

/// One fault clause of a scenario's fault schedule. Scheduled at a
/// virtual time relative to the scenario start with [`Scenario::fault`].
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// A churn storm: a [`ChurnSchedule`] generated from `model` over
    /// `span` ticks, mapped onto the tier's nodes — transient downs/ups
    /// plus the model's fraction of permanent departures.
    ChurnBurst {
        /// Layer the storm hits.
        tier: Tier,
        /// Session-length model the schedule is drawn from.
        model: ChurnModel,
        /// Storm duration in ticks (events beyond it are cut off).
        span: u64,
    },
    /// Correlated crash: `count` distinct nodes (scenario-seed-chosen) go
    /// down at once and stay down until revived.
    Crash {
        /// Layer the crash hits.
        tier: Tier,
        /// Number of simultaneous victims.
        count: usize,
    },
    /// Transient flap: `count` nodes go down and come back `down_for`
    /// ticks later.
    Flap {
        /// Layer the flap hits.
        tier: Tier,
        /// Number of flapping nodes.
        count: usize,
        /// Downtime of each victim.
        down_for: u64,
    },
    /// Brings every currently-dead node of the tier back up.
    ReviveAll {
        /// Layer to revive.
        tier: Tier,
    },
    /// Catastrophic soft-state loss: wipes every soft node's metadata,
    /// cache and version authority ([`Cluster::wipe_soft_layer`]).
    WipeSoftLayer,
    /// Reconstructs soft-layer metadata from a persistent-layer scan
    /// ([`Cluster::rebuild_soft_layer`]).
    RebuildSoftLayer,
}

/// One clause of a scenario's environment timeline. Scheduled with
/// [`Scenario::env`]; applied by the simulation engine at its virtual
/// time via [`dd_sim::Sim::schedule_net`].
#[derive(Debug, Clone, PartialEq)]
pub enum EnvChange {
    /// Replace the latency model (e.g. a slow-network episode).
    Latency(LatencyModel),
    /// Set the message-loss probability (a loss spike, or recovery).
    DropProb(f64),
    /// Partition a contiguous `fraction` of the persistent layer away
    /// from everything else (the soft layer keeps the main colour).
    PartitionPersist {
        /// Fraction of persist nodes moved behind the partition.
        fraction: f64,
    },
    /// Heal all partitions.
    Heal,
}

/// One phase of a scenario's workload program: plain data, built with the
/// builders below or edited field by field (the dd-fuzz shrinker rewrites
/// phases in place). [`Scenario::validate`] is the gate a value passes
/// before it runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Name carried into the phase's [`PhaseReport`].
    pub name: String,
    /// Scheduled duration in ticks.
    pub ticks: u64,
    /// Concurrent client sessions.
    pub sessions: usize,
    /// Operations each session keeps in flight.
    pub depth: usize,
    /// Virtual ticks pumped between harvest rounds.
    pub quantum: u64,
    /// The op mix this phase offers.
    pub mix: OpMix,
    /// Open-loop cap in operations per tick, on top of the closed-loop
    /// depth bound.
    pub rate: Option<f64>,
    /// Total operation budget; once issued, the phase idles out its
    /// remaining ticks.
    pub ops: Option<u64>,
    /// Phase-local workload generator, instead of the scenario-shared one.
    pub workload: Option<WorkloadKind>,
}

impl Phase {
    /// A phase named `name` lasting `ticks` of virtual time. Defaults:
    /// idle mix (no traffic), 4 sessions, depth 8, quantum 25.
    ///
    /// Degenerate values (zero ticks, sessions, depth or quantum) are
    /// accepted here so programmatic mutation can pass through them; they
    /// are rejected by [`Scenario::validate`] before a run.
    #[must_use]
    pub fn new(name: impl Into<String>, ticks: u64) -> Self {
        Phase {
            name: name.into(),
            ticks,
            sessions: 4,
            depth: 8,
            quantum: 25,
            mix: OpMix::idle(),
            rate: None,
            ops: None,
            workload: None,
        }
    }

    /// Builder: the op mix this phase offers.
    #[must_use]
    pub fn mix(mut self, mix: OpMix) -> Self {
        self.mix = mix;
        self
    }

    /// Builder: concurrent client sessions.
    #[must_use]
    pub fn sessions(mut self, n: usize) -> Self {
        self.sessions = n;
        self
    }

    /// Builder: operations each session keeps in flight.
    #[must_use]
    pub fn depth(mut self, d: usize) -> Self {
        self.depth = d;
        self
    }

    /// Builder: virtual ticks pumped between harvest rounds.
    #[must_use]
    pub fn quantum(mut self, q: u64) -> Self {
        self.quantum = q;
        self
    }

    /// Builder: target offered rate in operations per tick (open-loop
    /// cap on top of the closed-loop depth bound).
    #[must_use]
    pub fn rate(mut self, ops_per_tick: f64) -> Self {
        self.rate = Some(ops_per_tick);
        self
    }

    /// Builder: total operation budget for the phase; once issued, the
    /// phase idles out its remaining ticks.
    #[must_use]
    pub fn ops(mut self, total: u64) -> Self {
        self.ops = Some(total);
        self
    }

    /// Builder: use a phase-local workload generator of this kind
    /// instead of the scenario-shared one (e.g. Zipf reads over a
    /// uniformly loaded population).
    #[must_use]
    pub fn workload(mut self, kind: WorkloadKind) -> Self {
        self.workload = Some(kind);
        self
    }
}

/// A complete experiment, as a value: workload program, fault schedule
/// and environment timeline, all replayable from `seed`.
///
/// Plain data (`Clone + Debug + PartialEq`): build it with the builders
/// below, edit the public fields directly, and let [`Scenario::validate`]
/// reject what cannot run. Its [`std::fmt::Display`] prints the scenario
/// as a runnable Rust constructor snippet — the repro artifact dd-fuzz
/// emits for every shrunk finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Name carried into the [`ScenarioReport`].
    pub name: String,
    /// The seed every random choice of the run (op picking, fault
    /// victims, churn draws) derives from.
    pub seed: u64,
    /// The scenario-shared workload shape.
    pub workload: WorkloadKind,
    /// The workload program; phases run back to back.
    pub phases: Vec<Phase>,
    /// The fault schedule: `(at, fault)` clauses, `at` ticks after the
    /// scenario starts, in declaration order.
    pub faults: Vec<(u64, Fault)>,
    /// The environment timeline: `(at, change)` clauses, in declaration
    /// order.
    pub env: Vec<(u64, EnvChange)>,
    /// The observer planes the run records with.
    pub planes: Planes,
}

impl Scenario {
    /// A scenario named `name`, generating traffic from `workload`, with
    /// all random choices (op picking, fault victims, churn draws)
    /// derived from `seed`.
    #[must_use]
    pub fn new(name: impl Into<String>, workload: WorkloadKind, seed: u64) -> Self {
        Scenario {
            name: name.into(),
            seed,
            workload,
            phases: Vec::new(),
            faults: Vec::new(),
            env: Vec::new(),
            planes: Planes::default(),
        }
    }

    /// Turns on history capture and consistency checking for this
    /// scenario: the run records every operation into a
    /// [`dd_audit::History`], settles the cluster after the final drain
    /// until the live replicas stop changing, and attaches the checker
    /// suite's verdict as [`ScenarioReport::audit`]. Recording is passive
    /// — the executed run (and the rest of the report) is byte-identical
    /// to the unaudited one. Auditing assumes the scenario's writes are
    /// the cluster's only writes, so run it against a fresh cluster.
    #[must_use]
    pub fn audited(mut self) -> Self {
        self.planes.audit = true;
        self
    }

    /// Turns on causal tracing for this scenario: the run records every
    /// client operation as a span tree (client root → coordinator hops →
    /// per-replica waits → persist stores/serves) and attaches the
    /// critical-path analysis as [`ScenarioReport::trace`]. Recording is
    /// passive — the executed run (and the rest of the report) is
    /// byte-identical to the untraced one.
    #[must_use]
    pub fn traced(mut self) -> Self {
        self.planes.trace = true;
        self
    }

    /// Turns on continuous telemetry for this scenario: the run samples
    /// per-node gauges (queue depth, in-flight messages, pending ops,
    /// store occupancy, repair rates, …) every sampling period and
    /// attaches the detector verdicts and exportable series as
    /// [`ScenarioReport::telemetry`]. Sampling is passive — the executed
    /// run (and the rest of the report) is byte-identical to the
    /// uninstrumented one.
    #[must_use]
    pub fn instrumented(mut self) -> Self {
        self.planes.telemetry = true;
        self
    }

    /// Appends a workload phase (phases run back to back).
    #[must_use]
    pub fn phase(mut self, phase: Phase) -> Self {
        self.phases.push(phase);
        self
    }

    /// Schedules a fault `at` ticks after the scenario starts.
    #[must_use]
    pub fn fault(mut self, at: u64, fault: Fault) -> Self {
        self.faults.push((at, fault));
        self
    }

    /// Schedules an environment change `at` ticks after the scenario
    /// starts.
    #[must_use]
    pub fn env(mut self, at: u64, change: EnvChange) -> Self {
        self.env.push((at, change));
        self
    }

    /// Total scheduled duration: the sum of the phase ticks.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.phases.iter().map(|p| p.ticks).sum()
    }
}

/// Why a [`Scenario`] failed validation. Produced by
/// [`Scenario::validate`]; a run entry point rejects the scenario with
/// these instead of panicking somewhere inside the engine — fuzz-generated
/// and shrinker-mutated scenarios routinely explore the degenerate corners
/// (zero-length phases, empty batches, out-of-range probabilities,
/// overlapping partitions) that hand-written drills never hit.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The scenario has no phases at all: nothing to run.
    NoPhases,
    /// A phase lasts zero ticks.
    EmptyPhase {
        /// Index of the offending phase.
        phase: usize,
    },
    /// A traffic-offering phase has zero sessions: its mix can never
    /// issue.
    NoSessions {
        /// Index of the offending phase.
        phase: usize,
    },
    /// A traffic-offering phase has zero pipeline depth: its mix can
    /// never issue.
    NoDepth {
        /// Index of the offending phase.
        phase: usize,
    },
    /// A phase pumps zero ticks between harvests.
    ZeroQuantum {
        /// Index of the offending phase.
        phase: usize,
    },
    /// A phase weights batched writes but batches zero items.
    EmptyBatch {
        /// Index of the offending phase.
        phase: usize,
    },
    /// A phase's rate cap is not a finite positive number of ops per tick:
    /// zero, negative or NaN would never issue, infinite caps nothing.
    BadRate {
        /// Index of the offending phase.
        phase: usize,
        /// The offending rate.
        rate: f64,
    },
    /// A workload's parameters cannot generate (zero key/user
    /// populations, non-finite distribution parameters).
    BadWorkload {
        /// Offending phase-local override, or `None` for the
        /// scenario-shared workload.
        phase: Option<usize>,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// A churn model's parameters cannot generate a schedule.
    BadChurnModel {
        /// The fault's scheduled time.
        at: u64,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// A message-loss probability outside `[0, 1]`.
    BadDropProb {
        /// The change's scheduled time.
        at: u64,
        /// The offending probability.
        prob: f64,
    },
    /// A partition fraction outside `[0, 1]`.
    BadPartitionFraction {
        /// The change's scheduled time.
        at: u64,
        /// The offending fraction.
        fraction: f64,
    },
    /// A second persist-layer partition scheduled while an earlier one is
    /// still unhealed (re-colouring mid-partition silently rewires the
    /// first split — almost certainly not what the scenario meant).
    OverlappingPartition {
        /// When the first partition was scheduled.
        first: u64,
        /// When the overlapping one was scheduled.
        second: u64,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::NoPhases => write!(f, "scenario has no phases"),
            ScenarioError::EmptyPhase { phase } => write!(f, "phase {phase} lasts zero ticks"),
            ScenarioError::NoSessions { phase } => {
                write!(f, "phase {phase} offers traffic with zero sessions")
            }
            ScenarioError::NoDepth { phase } => {
                write!(f, "phase {phase} offers traffic with zero pipeline depth")
            }
            ScenarioError::ZeroQuantum { phase } => {
                write!(f, "phase {phase} pumps zero ticks between harvests")
            }
            ScenarioError::EmptyBatch { phase } => {
                write!(f, "phase {phase} weights batched writes of zero items")
            }
            ScenarioError::BadRate { phase, rate } => {
                write!(f, "phase {phase} rate {rate} is not a finite positive ops/tick")
            }
            ScenarioError::BadWorkload { phase: Some(p), reason } => {
                write!(f, "phase {p} workload: {reason}")
            }
            ScenarioError::BadWorkload { phase: None, reason } => {
                write!(f, "scenario workload: {reason}")
            }
            ScenarioError::BadChurnModel { at, reason } => {
                write!(f, "churn burst at {at}: {reason}")
            }
            ScenarioError::BadDropProb { at, prob } => {
                write!(f, "drop probability {prob} at {at} outside [0, 1]")
            }
            ScenarioError::BadPartitionFraction { at, fraction } => {
                write!(f, "partition fraction {fraction} at {at} outside [0, 1]")
            }
            ScenarioError::OverlappingPartition { first, second } => {
                write!(f, "partition at {second} overlaps unhealed partition at {first}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl Scenario {
    /// Checks that this scenario can run without tripping an internal
    /// panic: phases are non-degenerate, workload and churn parameters
    /// can generate, probabilities are probabilities, and partitions
    /// never overlap. Returns every problem found, in schedule order.
    ///
    /// Hand-written drills rarely need this (the builders make the sane
    /// thing easy), but fuzz-generated and shrinker-mutated scenarios are
    /// validated before every run, and [`Cluster::run_scenario`] rejects
    /// invalid scenarios up front.
    pub fn validate(&self) -> Result<(), Vec<ScenarioError>> {
        let mut errs = Vec::new();
        if self.phases.is_empty() {
            errs.push(ScenarioError::NoPhases);
        }
        for (i, p) in self.phases.iter().enumerate() {
            if p.ticks == 0 {
                errs.push(ScenarioError::EmptyPhase { phase: i });
            }
            if p.quantum == 0 {
                errs.push(ScenarioError::ZeroQuantum { phase: i });
            }
            if !p.mix.is_idle() {
                if p.sessions == 0 {
                    errs.push(ScenarioError::NoSessions { phase: i });
                }
                if p.depth == 0 {
                    errs.push(ScenarioError::NoDepth { phase: i });
                }
                if p.mix.multi_put > 0 && p.mix.batch == 0 {
                    errs.push(ScenarioError::EmptyBatch { phase: i });
                }
            }
            if let Some(rate) = p.rate.filter(|r| !(r.is_finite() && *r > 0.0)) {
                errs.push(ScenarioError::BadRate { phase: i, rate });
            }
            if let Some(kind) = p.workload {
                if let Err(reason) = kind.validate() {
                    errs.push(ScenarioError::BadWorkload { phase: Some(i), reason });
                }
            }
        }
        if let Err(reason) = self.workload.validate() {
            errs.push(ScenarioError::BadWorkload { phase: None, reason });
        }
        for (at, fault) in &self.faults {
            if let Fault::ChurnBurst { model, .. } = fault {
                if !(model.failure_rate.is_finite() && model.failure_rate >= 0.0) {
                    errs.push(ScenarioError::BadChurnModel {
                        at: *at,
                        reason: "failure_rate must be finite and non-negative",
                    });
                } else if model.period == 0 && model.failure_rate > 0.0 {
                    errs.push(ScenarioError::BadChurnModel {
                        at: *at,
                        reason: "period must be positive",
                    });
                }
                if !(0.0..=1.0).contains(&model.permanent_prob) {
                    errs.push(ScenarioError::BadChurnModel {
                        at: *at,
                        reason: "permanent_prob must be in [0, 1]",
                    });
                }
            }
        }
        // Environment clauses are applied in time order regardless of
        // declaration order; audit partitions the same way.
        let mut timeline: Vec<(u64, usize)> =
            self.env.iter().enumerate().map(|(i, (at, _))| (*at, i)).collect();
        timeline.sort_unstable();
        let mut open_partition: Option<u64> = None;
        for (at, i) in timeline {
            match &self.env[i].1 {
                EnvChange::DropProb(p) => {
                    if !(0.0..=1.0).contains(p) {
                        errs.push(ScenarioError::BadDropProb { at, prob: *p });
                    }
                }
                EnvChange::PartitionPersist { fraction } => {
                    if !(0.0..=1.0).contains(fraction) {
                        errs.push(ScenarioError::BadPartitionFraction { at, fraction: *fraction });
                    }
                    if let Some(first) = open_partition {
                        errs.push(ScenarioError::OverlappingPartition { first, second: at });
                    }
                    open_partition = Some(at);
                }
                EnvChange::Heal => open_partition = None,
                EnvChange::Latency(_) => {}
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }
}

/// `Display` renders the tier as a pasteable Rust path
/// (`Tier::Persist`), the building block of scenario repro snippets.
impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tier::Soft => f.write_str("Tier::Soft"),
            Tier::Persist => f.write_str("Tier::Persist"),
        }
    }
}

/// `Display` renders the fault as a pasteable Rust constructor
/// expression (nested enums get their full paths — derived `Debug`
/// would drop them).
impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::ChurnBurst { tier, model, span } => {
                write!(f, "Fault::ChurnBurst {{ tier: {tier}, model: {model:?}, span: {span} }}")
            }
            Fault::Crash { tier, count } => {
                write!(f, "Fault::Crash {{ tier: {tier}, count: {count} }}")
            }
            Fault::Flap { tier, count, down_for } => {
                write!(f, "Fault::Flap {{ tier: {tier}, count: {count}, down_for: {down_for} }}")
            }
            Fault::ReviveAll { tier } => write!(f, "Fault::ReviveAll {{ tier: {tier} }}"),
            Fault::WipeSoftLayer => f.write_str("Fault::WipeSoftLayer"),
            Fault::RebuildSoftLayer => f.write_str("Fault::RebuildSoftLayer"),
        }
    }
}

/// `Display` renders the change as a pasteable Rust constructor
/// expression.
impl std::fmt::Display for EnvChange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvChange::Latency(m) => write!(f, "EnvChange::Latency(LatencyModel::{m:?})"),
            EnvChange::DropProb(p) => write!(f, "EnvChange::DropProb({p:?})"),
            EnvChange::PartitionPersist { fraction } => {
                write!(f, "EnvChange::PartitionPersist {{ fraction: {fraction:?} }}")
            }
            EnvChange::Heal => f.write_str("EnvChange::Heal"),
        }
    }
}

/// `Display` renders the mix as the builder chain that reconstructs it:
/// `OpMix::idle()` plus one call per non-default knob.
impl std::fmt::Display for OpMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OpMix::idle()")?;
        for (weight, method) in [
            (self.put, "put"),
            (self.get, "get"),
            (self.delete, "delete"),
            (self.scan, "scan"),
            (self.multi_put, "multi_put"),
            (self.multi_get, "multi_get"),
        ] {
            if weight > 0 {
                write!(f, ".{method}({weight})")?;
            }
        }
        if self.batch != OpMix::idle().batch {
            write!(f, ".batch({})", self.batch)?;
        }
        Ok(())
    }
}

/// `Display` renders the phase as the builder chain that reconstructs
/// it: `Phase::new(..)` plus one call per non-default knob.
impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Phase::new({:?}, {})", self.name, self.ticks)?;
        if !self.mix.is_idle() {
            write!(f, ".mix({})", self.mix)?;
        }
        let defaults = Phase::new("", 1);
        if self.sessions != defaults.sessions {
            write!(f, ".sessions({})", self.sessions)?;
        }
        if self.depth != defaults.depth {
            write!(f, ".depth({})", self.depth)?;
        }
        if self.quantum != defaults.quantum {
            write!(f, ".quantum({})", self.quantum)?;
        }
        if let Some(rate) = self.rate {
            write!(f, ".rate({rate:?})")?;
        }
        if let Some(ops) = self.ops {
            write!(f, ".ops({ops})")?;
        }
        if let Some(kind) = self.workload {
            write!(f, ".workload(WorkloadKind::{kind:?})")?;
        }
        Ok(())
    }
}

/// `Display` renders the whole scenario as a runnable Rust constructor
/// snippet — dd-fuzz's repro artifact: paste it into a test, run it
/// against a fresh cluster, and the finding replays byte-identically.
impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Scenario::new({:?}, WorkloadKind::{:?}, {})",
            self.name, self.workload, self.seed
        )?;
        for phase in &self.phases {
            write!(f, "\n    .phase({phase})")?;
        }
        for (at, fault) in &self.faults {
            write!(f, "\n    .fault({at}, {fault})")?;
        }
        for (at, change) in &self.env {
            write!(f, "\n    .env({at}, {change})")?;
        }
        if self.planes.audit {
            f.write_str("\n    .audited()")?;
        }
        if self.planes.trace {
            f.write_str("\n    .traced()")?;
        }
        if self.planes.telemetry {
            f.write_str("\n    .instrumented()")?;
        }
        Ok(())
    }
}

/// Error taxonomy of resolved operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ErrorCounts {
    /// Operations that exceeded [`crate::OP_TIMEOUT`] unanswered.
    pub timeouts: u64,
    /// Batched writes that ordered only part of their items.
    pub partials: u64,
    /// Operations submitted while no soft node was alive.
    pub no_entry: u64,
}

impl ErrorCounts {
    /// Total failed operations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.timeouts + self.partials + self.no_entry
    }
}

/// What one phase achieved. Every operation is attributed to the phase
/// that *issued* it, even when it resolved later (or only in the
/// scenario's final drain).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseReport {
    /// Phase name.
    pub name: String,
    /// Scheduled phase duration in ticks.
    pub ticks: u64,
    /// Operations issued.
    pub issued: u64,
    /// Operations that completed successfully (`Ok(None)` reads count:
    /// "key absent" is an available answer).
    pub ok: u64,
    /// Failed operations, by kind.
    pub errors: ErrorCounts,
    /// Reads that found a tuple.
    pub reads_found: u64,
    /// Reads that found nothing.
    pub reads_absent: u64,
    /// Reads that returned a version older than one already acknowledged
    /// to this scenario's clients.
    pub stale_reads: u64,
    /// Tuples returned by scans and tag-scoped reads.
    pub tuples_read: u64,
    /// Median completion latency of successful ops, in ticks.
    pub latency_p50: f64,
    /// 95th-percentile completion latency, in ticks.
    pub latency_p95: f64,
    /// 99th-percentile completion latency, in ticks.
    pub latency_p99: f64,
    /// Messages sent cluster-wide in the phase window (the last phase's
    /// window extends through the scenario's final drain).
    pub msgs: u64,
    /// Mean persist nodes contacted per tag-scoped read in the window.
    pub contacts_mean: f64,
    /// Max persist nodes contacted per tag-scoped read in the window.
    pub contacts_max: f64,
}

impl PhaseReport {
    /// Fraction of resolved operations that succeeded (1.0 for an idle
    /// phase).
    #[must_use]
    pub fn availability(&self) -> f64 {
        let resolved = self.ok + self.errors.total();
        if resolved == 0 {
            1.0
        } else {
            self.ok as f64 / resolved as f64
        }
    }

    /// Fraction of found reads that were stale (0.0 when nothing was
    /// found).
    #[must_use]
    pub fn staleness(&self) -> f64 {
        if self.reads_found == 0 {
            0.0
        } else {
            self.stale_reads as f64 / self.reads_found as f64
        }
    }
}

/// What a whole scenario achieved: the per-phase reports plus run-wide
/// aggregates. `PartialEq` so a determinism check is one assertion.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Per-phase outcomes, in program order.
    pub phases: Vec<PhaseReport>,
    /// Virtual ticks the run consumed, including the final drain.
    pub ticks: u64,
    /// Messages sent cluster-wide over the whole run.
    pub msgs: u64,
    /// Median completion latency across all phases, in ticks.
    pub latency_p50: f64,
    /// 95th-percentile completion latency across all phases.
    pub latency_p95: f64,
    /// 99th-percentile completion latency across all phases.
    pub latency_p99: f64,
    /// The consistency-checker verdict, when the scenario ran
    /// [`Scenario::audited`]; `None` otherwise.
    pub audit: Option<dd_audit::AuditReport>,
    /// The critical-path latency attribution, when the scenario ran
    /// [`Scenario::traced`]; `None` otherwise.
    pub trace: Option<dd_trace::TraceReport>,
    /// The sampled time-series and detector verdicts, when the scenario
    /// ran [`Scenario::instrumented`]; `None` otherwise.
    pub telemetry: Option<dd_obs::TelemetryReport>,
}

impl ScenarioReport {
    /// Run-wide availability: successes over resolved operations.
    #[must_use]
    pub fn availability(&self) -> f64 {
        let ok: u64 = self.phases.iter().map(|p| p.ok).sum();
        let resolved: u64 = ok + self.errors().total();
        if resolved == 0 {
            1.0
        } else {
            ok as f64 / resolved as f64
        }
    }

    /// Run-wide staleness: stale reads over found reads.
    #[must_use]
    pub fn staleness(&self) -> f64 {
        let found: u64 = self.phases.iter().map(|p| p.reads_found).sum();
        let stale: u64 = self.phases.iter().map(|p| p.stale_reads).sum();
        if found == 0 {
            0.0
        } else {
            stale as f64 / found as f64
        }
    }

    /// Run-wide error taxonomy.
    #[must_use]
    pub fn errors(&self) -> ErrorCounts {
        let mut total = ErrorCounts::default();
        for p in &self.phases {
            total.timeouts += p.errors.timeouts;
            total.partials += p.errors.partials;
            total.no_entry += p.errors.no_entry;
        }
        total
    }

    /// Total operations issued.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.phases.iter().map(|p| p.issued).sum()
    }
}

impl std::fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scenario {:?}: {} ops over {} ticks, availability {:.2}%, \
             staleness {:.2}%, p50/p95/p99 {:.0}/{:.0}/{:.0} ticks, {} msgs",
            self.name,
            self.issued(),
            self.ticks,
            self.availability() * 100.0,
            self.staleness() * 100.0,
            self.latency_p50,
            self.latency_p95,
            self.latency_p99,
            self.msgs,
        )?;
        for p in &self.phases {
            write!(
                f,
                "\n  phase {:?}: {} issued, {} ok, {} failed, p99 {:.0}",
                p.name,
                p.issued,
                p.ok,
                p.errors.total(),
                p.latency_p99,
            )?;
        }
        if let Some(audit) = &self.audit {
            write!(f, "\n  audit: {}", if audit.is_clean() { "clean" } else { "VIOLATIONS" })?;
        }
        if let Some(telemetry) = &self.telemetry {
            write!(f, "\n  {}", telemetry.digest())?;
        }
        Ok(())
    }
}

impl Cluster {
    /// Executes `scenario` against this cluster: merges its workload
    /// program, fault schedule and environment timeline into one
    /// deterministic run and reports what happened. The run starts at
    /// the current virtual time (callers usually [`Cluster::settle`]
    /// first) and ends when every phase has elapsed and every issued
    /// operation has resolved.
    ///
    /// # Panics
    /// Panics if the scenario fails [`Scenario::validate`]; callers
    /// holding machine-generated scenarios should prefer
    /// [`Cluster::try_run_scenario`].
    pub fn run_scenario(&mut self, scenario: &Scenario) -> ScenarioReport {
        match self.try_run_scenario(scenario) {
            Ok(report) => report,
            Err(errs) => {
                let list: Vec<String> = errs.iter().map(ScenarioError::to_string).collect();
                panic!("invalid scenario {:?}: {}", scenario.name, list.join("; "));
            }
        }
    }

    /// [`Cluster::run_scenario`], but rejecting an invalid scenario as a
    /// [`ScenarioError`] list instead of panicking — the entry point for
    /// machine-generated scenarios (dd-fuzz validates every generated
    /// and shrunk candidate through this).
    pub fn try_run_scenario(
        &mut self,
        scenario: &Scenario,
    ) -> Result<ScenarioReport, Vec<ScenarioError>> {
        scenario.validate()?;
        let start = self.sim.now();
        let msgs_at_start = self.sim.metrics().counter("net.sent");
        // A scenario with no plane on leaves whatever its caller observes
        // running, so a hand-started recording can span the run.
        let observing = scenario.planes != Planes::default();
        if observing {
            self.observe(scenario.planes);
        }
        let harness = self.schedule_faults(scenario, start);
        let mut harness = harness.as_slice();
        self.schedule_env(scenario, start);

        let mut engine = Engine::new(stream_rng(scenario.seed ^ 0x0E15_0E15, 0));
        let mut shared = Workload::new(scenario.workload, mix(scenario.seed, 0x3057));
        // Each phase's report, counted into as its ops resolve, beside the
        // latencies of its successful ops.
        let mut phases: Vec<(PhaseReport, Reservoir)> = scenario
            .phases
            .iter()
            .map(|p| {
                let report =
                    PhaseReport { name: p.name.clone(), ticks: p.ticks, ..PhaseReport::default() };
                (report, Reservoir::new())
            })
            .collect();
        // Per-phase net.sent at phase start; the windows are cut after
        // the final drain so the last phase's accounting includes what
        // its stragglers sent. Contact accounting rides the metrics
        // sink's O(1) windows: taking the window at each phase boundary
        // yields the finished phase's exact count/sum/max without ever
        // slicing (or retaining) an unbounded series.
        let mut starts: Vec<u64> = Vec::with_capacity(phases.len());
        let mut contact_windows: Vec<Window> = Vec::with_capacity(phases.len());

        for (pi, phase) in scenario.phases.iter().enumerate() {
            if let Some(a) = self.observers().and_then(|o| o.audit.as_mut()) {
                a.set_phase(Some(pi as u32));
            }
            let phase_start = self.sim.now();
            let phase_end = phase_start + Duration(phase.ticks);
            starts.push(self.sim.metrics().counter("net.sent"));
            // The take at phase 0 discards pre-scenario accumulation;
            // every later take closes out the previous phase's window.
            let w = self.sim.metrics_mut().take_window("multi_get.contacted_nodes");
            if pi > 0 {
                contact_windows.push(w);
            }
            if !phase.mix.is_idle() {
                engine.open_sessions(self, phase.sessions);
            }
            let mut local = phase
                .workload
                .map(|kind| Workload::new(kind, mix(scenario.seed, 0x9100 + pi as u64)));
            loop {
                harness = self.apply_due(harness);
                let now = self.sim.now();
                if now >= phase_end {
                    break;
                }
                let budget = phase_budget(phase, phases[pi].0.issued, now.since(phase_start).0);
                if budget > 0 {
                    let workload = local.as_mut().unwrap_or(&mut shared);
                    phases[pi].0.issued +=
                        engine.refill(self, workload, pi, &phase.mix, phase.depth, budget);
                }
                let stop = harness.first().map_or(phase_end, |&(at, _)| at.min(phase_end));
                self.pump(stop.since(now).0.min(phase.quantum).max(1));
                engine.harvest(self, &mut phases);
            }
        }

        // Final drain: resolve every straggler (bounded — the client
        // retires anything older than OP_TIMEOUT) while still firing any
        // harness fault scheduled at or past the last phase boundary at
        // its declared tick, not early.
        if let Some(a) = self.observers().and_then(|o| o.audit.as_mut()) {
            a.set_phase(None);
        }
        loop {
            harness = self.apply_due(harness);
            if engine.in_flight() == 0 && harness.is_empty() {
                break;
            }
            let now = self.sim.now();
            let step = harness.first().map_or(50, |&(at, _)| at.since(now).0.min(50));
            self.pump(step.max(1));
            engine.harvest(self, &mut phases);
        }

        // Cut the per-phase message/contact windows: each phase ends
        // where the next begins; the last extends through the drain.
        // Everything the *report core* measures — ticks, messages,
        // contact windows — is captured here, before the audit's
        // convergence settling, so the core of an audited report equals
        // the unaudited one exactly.
        let msgs_end = self.sim.metrics().counter("net.sent");
        contact_windows.push(self.sim.metrics_mut().take_window("multi_get.contacted_nodes"));
        let run_ticks = self.sim.now().since(start).0;
        // Every plane stops with the drain, before the audit's settling, so
        // span trees and series cover exactly the run the report counts.
        let observed = if observing { self.stop_observing() } else { Observed::default() };
        let trace = observed.trace.map(dd_trace::TraceReport::build);
        let telemetry = observed.telemetry.map(dd_obs::TelemetryReport::build);
        let audit = observed.audit.map(|history| self.finish_audit(&history));
        let mut all_latencies = Reservoir::new();
        let phases = phases
            .into_iter()
            .enumerate()
            .map(|(pi, (mut report, latencies))| {
                [report.latency_p50, report.latency_p95, report.latency_p99] =
                    latency_quantiles(&latencies);
                all_latencies.merge(&latencies);
                report.msgs = starts.get(pi + 1).copied().unwrap_or(msgs_end) - starts[pi];
                report.contacts_mean = contact_windows[pi].mean();
                report.contacts_max = contact_windows[pi].max;
                report
            })
            .collect();
        let [latency_p50, latency_p95, latency_p99] = latency_quantiles(&all_latencies);
        Ok(ScenarioReport {
            name: scenario.name.clone(),
            phases,
            ticks: run_ticks,
            msgs: msgs_end - msgs_at_start,
            latency_p50,
            latency_p95,
            latency_p99,
            audit,
            trace,
            telemetry,
        })
    }

    /// Closes out an audited run: settles the cluster until the
    /// live-replica snapshot agrees per key (bounded at
    /// [`MAX_AUDIT_SETTLES`] rounds), then runs the checker suite over
    /// `history`.
    ///
    /// Each unconverged round drives a deterministic
    /// [`Cluster::repair_sweep`] before settling. Periodic repair picks
    /// one partner per round by lottery, and fuzzing showed that when
    /// exactly two replicas hold a diverged key (and no other node's
    /// sieve accepts it to relay), the pair can take far longer than any
    /// fixed settle bound to meet — the audit would then report
    /// transient lag as divergence. The sweep makes the measurement
    /// procedure deterministic: what remains after full pairwise
    /// anti-entropy is divergence the protocol itself cannot repair (and
    /// with repair disabled the sweep is a no-op, so lingering
    /// divergence still surfaces).
    fn finish_audit(&mut self, history: &dd_audit::History) -> dd_audit::AuditReport {
        let mut snapshot = self.audit_snapshot();
        for _ in 0..MAX_AUDIT_SETTLES {
            if dd_audit::snapshot_converged(&snapshot) {
                break;
            }
            self.repair_sweep();
            self.settle();
            snapshot = self.audit_snapshot();
        }
        let mut report = dd_audit::check(history, &snapshot);
        for violation in &mut report.violations {
            if let dd_audit::Violation::LostWrite { key, acked, cause, .. } = violation {
                *cause = Some(self.lost_cause(history, key, *acked));
            }
        }
        report
    }

    /// Why the write of `key` acknowledged at `acked` is on no live
    /// replica: every owner of that write (its tag read from `history`) is
    /// down, or one is live yet lacks it.
    fn lost_cause(&self, history: &dd_audit::History, key: &str, acked: Version) -> LostCause {
        use dd_audit::OpDesc;
        let write =
            history.acked_write(key, acked).expect("the audit read `acked` off this history");
        let tuple = match write {
            OpDesc::Delete { .. } => StoredTuple::tombstone(key.into(), acked),
            OpDesc::Put { tag, .. } | OpDesc::MultiPut { tag, .. } => {
                StoredTuple::new(key.into(), acked, Vec::new(), None, tag.as_deref())
            }
            other => unreachable!("{other:?} acknowledges no write"),
        };
        if self.persist.owners_of(&tuple).iter().any(|&owner| self.sim.is_alive(owner)) {
            LostCause::LiveOwnerMissing
        } else {
            LostCause::AllOwnersDown
        }
    }

    fn tier_ids(&self, tier: Tier) -> Vec<NodeId> {
        match tier {
            Tier::Soft => self.soft_ids().to_vec(),
            Tier::Persist => self.persist_ids().to_vec(),
        }
    }

    /// Compiles the fault schedule: simulator-schedulable faults are
    /// queued on the engine up front; the soft-layer wipes and rebuilds
    /// come back as the harness list, sorted by time (stable, so clauses
    /// due at the same tick keep their declaration order).
    fn schedule_faults(&mut self, scenario: &Scenario, start: Time) -> Vec<(Time, Fault)> {
        let mut victims_rng = stream_rng(scenario.seed ^ 0xFA01_7FA0, 1);
        let mut harness = Vec::new();
        for (idx, (at, fault)) in scenario.faults.iter().enumerate() {
            let t = start + Duration(*at);
            match fault {
                Fault::ChurnBurst { tier, model, span } => {
                    let ids = self.tier_ids(*tier);
                    let schedule = ChurnSchedule::generate(
                        model,
                        ids.len() as u64,
                        Time(*span),
                        mix(scenario.seed ^ 0xC4C4, idx as u64),
                    );
                    for ev in schedule.events() {
                        let id = ids[ev.node().0 as usize];
                        let when = t + Duration(ev.at().0);
                        match ev {
                            ChurnEvent::Down(..) | ChurnEvent::Leave(..) => {
                                self.sim.schedule_down(when, id);
                            }
                            ChurnEvent::Up(..) => self.sim.schedule_up(when, id),
                        }
                    }
                }
                Fault::Crash { tier, count } => {
                    for id in self.pick_victims(*tier, *count, &mut victims_rng) {
                        self.sim.schedule_down(t, id);
                    }
                }
                Fault::Flap { tier, count, down_for } => {
                    for id in self.pick_victims(*tier, *count, &mut victims_rng) {
                        self.sim.schedule_down(t, id);
                        self.sim.schedule_up(t + Duration(*down_for), id);
                    }
                }
                Fault::ReviveAll { tier } => {
                    for id in self.tier_ids(*tier) {
                        // Up events are no-ops on nodes already alive.
                        self.sim.schedule_up(t, id);
                    }
                }
                Fault::WipeSoftLayer | Fault::RebuildSoftLayer => harness.push((t, fault.clone())),
            }
        }
        harness.sort_by_key(|&(t, _)| t);
        harness
    }

    fn pick_victims(
        &self,
        tier: Tier,
        count: usize,
        rng: &mut rand::rngs::SmallRng,
    ) -> Vec<NodeId> {
        let mut ids = self.tier_ids(tier);
        ids.shuffle(rng);
        ids.truncate(count);
        ids
    }

    fn schedule_env(&mut self, scenario: &Scenario, start: Time) {
        for (at, change) in &scenario.env {
            let t = start + Duration(*at);
            match change {
                EnvChange::Latency(latency) => {
                    self.sim.schedule_net(t, NetChange::Latency(*latency));
                }
                EnvChange::DropProb(p) => self.sim.schedule_net(t, NetChange::DropProb(*p)),
                EnvChange::PartitionPersist { fraction } => {
                    let ids = self.persist_ids().to_vec();
                    let dark = ((fraction.clamp(0.0, 1.0) * ids.len() as f64).round() as usize)
                        .min(ids.len());
                    for (i, id) in ids.into_iter().enumerate() {
                        let colour = u32::from(i < dark);
                        self.sim.schedule_net(t, NetChange::Partition(id, colour));
                    }
                }
                EnvChange::Heal => self.sim.schedule_net(t, NetChange::Heal),
            }
        }
    }

    /// Applies every harness clause due by now, in schedule order, and
    /// returns the clauses still to come. A wipe or rebuild reaches into
    /// node state, so it cannot ride the simulator's event queue: the run
    /// loops cut their pump quanta at these clauses' times instead.
    fn apply_due<'h>(&mut self, harness: &'h [(Time, Fault)]) -> &'h [(Time, Fault)] {
        let due = harness.partition_point(|&(at, _)| at <= self.sim.now());
        for (_, fault) in &harness[..due] {
            match fault {
                Fault::WipeSoftLayer => self.wipe_soft_layer(),
                Fault::RebuildSoftLayer => self.rebuild_soft_layer(),
                _ => unreachable!("every other fault rides the event queue"),
            }
        }
        &harness[due..]
    }
}

/// Upper bound on the settle rounds an audited run spends waiting for
/// the live replicas to agree before the convergence check. Each round is
/// one [`Cluster::settle`] horizon (at least a full repair period), and
/// anti-entropy pairs nodes randomly, so agreement normally lands within
/// a handful of rounds; the bound only stops a pathological run from
/// settling forever.
const MAX_AUDIT_SETTLES: u32 = 32;

/// How many more operations the phase may issue right now, given its op
/// budget, its target rate and the `issued` count so far.
fn phase_budget(phase: &Phase, issued: u64, elapsed: u64) -> u64 {
    let mut budget = u64::MAX;
    if let Some(cap) = phase.ops {
        budget = budget.min(cap.saturating_sub(issued));
    }
    if let Some(rate) = phase.rate {
        let allowed = (rate * (elapsed + 1) as f64).ceil() as u64;
        budget = budget.min(allowed.saturating_sub(issued));
    }
    budget
}

/// The p50 / p95 / p99 of `latencies`, 0 for an empty sample.
fn latency_quantiles(latencies: &Reservoir) -> [f64; 3] {
    let q = latencies.quantiles(&[0.5, 0.95, 0.99]);
    [0, 1, 2].map(|i| q[i].unwrap_or(0.0))
}

/// The scenario library: the dependability drills the benches, tests and
/// examples share (and E15 sweeps against placements). All of them load
/// a social-feed dataset, serve mixed traffic while the fault/environment
/// timeline plays out, then read the dataset back.
pub mod library {
    use super::*;

    const LOAD: u64 = 6_000;
    const SERVE: u64 = 10_000;
    const REPAIR: u64 = 10_000;
    const READBACK: u64 = 8_000;

    fn load_phase() -> Phase {
        Phase::new("load", LOAD)
            .mix(OpMix::idle().put(3).multi_put(1).batch(4))
            .sessions(3)
            .depth(8)
            .ops(240)
    }

    fn serve_phase() -> Phase {
        Phase::new("serve", SERVE)
            .mix(OpMix::idle().put(1).get(5).multi_get(1))
            .sessions(4)
            .depth(8)
            .ops(420)
    }

    fn readback_phase() -> Phase {
        Phase::new("readback", READBACK)
            .mix(OpMix::idle().get(4).multi_get(1))
            .sessions(2)
            .depth(4)
            .ops(200)
    }

    /// No faults, no environment events: the baseline every drill is
    /// compared against.
    #[must_use]
    pub fn calm(seed: u64) -> Scenario {
        Scenario::new("calm", WorkloadKind::SocialFeed { users: 8 }, seed)
            .phase(load_phase())
            .phase(serve_phase())
            .phase(readback_phase())
    }

    /// A churn storm rages across the persistent layer for the whole
    /// serve window (§III-A: transient failures dominate, a few
    /// permanent), then a repair window, then read-back.
    #[must_use]
    pub fn churn_storm(seed: u64) -> Scenario {
        let model =
            ChurnModel::default().failure_rate(0.08).mean_downtime(4_000).permanent_prob(0.05);
        Scenario::new("churn-storm", WorkloadKind::SocialFeed { users: 8 }, seed)
            .phase(load_phase())
            .phase(serve_phase())
            .phase(Phase::new("repair", REPAIR))
            .phase(readback_phase())
            .fault(LOAD, Fault::ChurnBurst { tier: Tier::Persist, model, span: SERVE })
    }

    /// Half the persistent layer is partitioned away during the serve
    /// window, then the partition heals and repair catches up.
    #[must_use]
    pub fn partition_heal(seed: u64) -> Scenario {
        Scenario::new("partition-heal", WorkloadKind::SocialFeed { users: 8 }, seed)
            .phase(load_phase())
            .phase(serve_phase())
            .phase(Phase::new("repair", REPAIR))
            .phase(readback_phase())
            .env(LOAD, EnvChange::PartitionPersist { fraction: 0.5 })
            .env(LOAD + SERVE, EnvChange::Heal)
    }

    /// Three correlated crash waves roll through the persistent layer
    /// mid-serve; everything revives at the start of the repair window.
    #[must_use]
    pub fn cascading_crash(seed: u64) -> Scenario {
        Scenario::new("cascading-crash", WorkloadKind::SocialFeed { users: 8 }, seed)
            .phase(load_phase())
            .phase(serve_phase())
            .phase(Phase::new("repair", REPAIR))
            .phase(readback_phase())
            .fault(LOAD + 1_000, Fault::Crash { tier: Tier::Persist, count: 4 })
            .fault(LOAD + 3_000, Fault::Crash { tier: Tier::Persist, count: 4 })
            .fault(LOAD + 5_000, Fault::Crash { tier: Tier::Persist, count: 4 })
            .fault(LOAD + SERVE, Fault::ReviveAll { tier: Tier::Persist })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    fn settled(seed: u64) -> Cluster {
        let mut c = Cluster::new(ClusterConfig::small(), seed);
        c.settle();
        c
    }

    #[test]
    fn a_two_phase_scenario_loads_and_reads_back() {
        let mut c = settled(1);
        let sc = Scenario::new("roundtrip", WorkloadKind::Uniform, 5)
            .phase(Phase::new("load", 3_000).mix(OpMix::puts()).ops(50))
            .phase(Phase::new("settle", 2_000))
            .phase(Phase::new("read", 3_000).mix(OpMix::gets()).ops(50));
        let r = c.run_scenario(&sc);
        assert_eq!(r.phases.len(), 3);
        assert_eq!(r.phases[0].issued, 50);
        assert_eq!(r.phases[0].ok, 50, "all writes acknowledged");
        assert_eq!(r.phases[1].issued, 0, "idle phase offers nothing");
        assert_eq!(r.phases[2].reads_found, 50, "every read finds its key");
        assert_eq!(r.availability(), 1.0);
        assert_eq!(r.errors(), ErrorCounts::default());
        assert!(r.latency_p50 > 0.0 && r.latency_p95 >= r.latency_p50);
        assert!(r.msgs > 0 && r.ticks >= sc.duration());
    }

    #[test]
    fn rate_caps_spread_issuance_across_the_phase() {
        let mut c = settled(2);
        let sc = Scenario::new("paced", WorkloadKind::Uniform, 6)
            .phase(Phase::new("write", 10_000).mix(OpMix::puts()).sessions(1).rate(0.002));
        let r = c.run_scenario(&sc);
        // 0.002 ops/tick over 10k ticks = 20 ops, pipeline-independent.
        assert_eq!(r.phases[0].issued, 20);
        assert_eq!(r.phases[0].ok, 20);
    }

    #[test]
    fn crash_fault_drops_live_nodes_and_revive_restores_them() {
        let mut c = settled(3);
        let persist_n = c.persist_ids().len();
        let sc = Scenario::new("crashes", WorkloadKind::Uniform, 7)
            .phase(Phase::new("quiet", 2_000))
            .fault(100, Fault::Crash { tier: Tier::Persist, count: 5 })
            .fault(1_000, Fault::ReviveAll { tier: Tier::Persist });
        // Probe liveness mid-run by splitting the scenario at the fault
        // times: run it, then check the sim's churn accounting.
        let _ = c.run_scenario(&sc);
        assert_eq!(c.sim.metrics().counter("churn.down"), 5);
        assert_eq!(c.sim.metrics().counter("churn.up"), 5);
        assert_eq!(c.sim.alive_count(), persist_n + c.soft_ids().len());
    }

    #[test]
    fn wipe_without_rebuild_loses_reads_rebuild_restores_them() {
        let run = |rebuild: bool| {
            let mut c = settled(4);
            let mut sc = Scenario::new("wipe", WorkloadKind::Uniform, 9)
                .phase(Phase::new("load", 3_000).mix(OpMix::puts()).ops(30))
                .phase(Phase::new("settle", 3_000))
                .phase(Phase::new("read", 3_000).mix(OpMix::gets()).ops(30))
                .fault(6_000, Fault::WipeSoftLayer);
            if rebuild {
                sc = sc.fault(6_000, Fault::RebuildSoftLayer);
            }
            let r = c.run_scenario(&sc);
            (r.phases[2].reads_found, r.phases[2].reads_absent)
        };
        let (found_wiped, absent_wiped) = run(false);
        assert_eq!(found_wiped, 0, "wiped metadata answers nothing");
        assert_eq!(absent_wiped, 30);
        let (found_rebuilt, _) = run(true);
        assert_eq!(found_rebuilt, 30, "reconstruction recovers every key");
    }

    #[test]
    fn a_fault_past_the_last_phase_fires_at_its_declared_tick() {
        let mut c = settled(7);
        let sc = Scenario::new("late-wipe", WorkloadKind::Uniform, 15)
            .phase(Phase::new("load", 2_000).mix(OpMix::puts()).ops(20))
            .fault(5_000, Fault::WipeSoftLayer);
        let r = c.run_scenario(&sc);
        // The wipe must not fire early (at the 2_000-tick phase boundary):
        // every write's completion is harvested intact, and the run
        // extends to the fault's declared time.
        assert_eq!(r.phases[0].ok, 20, "completions survive until the declared wipe tick");
        assert!(r.ticks >= 5_000, "run extends to the late fault, got {} ticks", r.ticks);
        // And the wipe did apply: soft metadata is gone afterwards.
        let mut s = c.client();
        let g = s.get(&mut c, "key:1");
        assert_eq!(s.recv(&mut c, g), Ok(None), "wiped soft layer has no metadata");
    }

    #[test]
    fn library_scenarios_are_well_formed() {
        for sc in [
            library::calm(1),
            library::churn_storm(1),
            library::partition_heal(1),
            library::cascading_crash(1),
        ] {
            assert!(!sc.phases.is_empty());
            assert!(sc.duration() >= 20_000);
            assert!(sc.phases.iter().any(|p| !p.mix.is_idle()));
        }
    }

    #[test]
    fn validate_rejects_degenerate_scenarios() {
        // Every reject is a value the builders happily construct (the
        // fuzzer's shrinker mutates through these corners) but that
        // would previously have panicked somewhere inside the engine.
        let base = || Scenario::new("bad", WorkloadKind::Uniform, 1);
        let cases: Vec<(Scenario, ScenarioError)> = vec![
            (base(), ScenarioError::NoPhases),
            (base().phase(Phase::new("p", 0)), ScenarioError::EmptyPhase { phase: 0 }),
            (
                base().phase(Phase::new("p", 10).mix(OpMix::puts()).sessions(0)),
                ScenarioError::NoSessions { phase: 0 },
            ),
            (
                base().phase(Phase::new("p", 10).mix(OpMix::puts()).depth(0)),
                ScenarioError::NoDepth { phase: 0 },
            ),
            (base().phase(Phase::new("p", 10).quantum(0)), ScenarioError::ZeroQuantum { phase: 0 }),
            (
                base().phase(Phase::new("p", 10).mix(OpMix::multi_puts(0))),
                ScenarioError::EmptyBatch { phase: 0 },
            ),
            (
                base().phase(Phase::new("p", 10).rate(0.0)),
                ScenarioError::BadRate { phase: 0, rate: 0.0 },
            ),
            (
                base().phase(Phase::new("p", 10).rate(-1.0)),
                ScenarioError::BadRate { phase: 0, rate: -1.0 },
            ),
            (
                base().phase(Phase::new("p", 10).rate(f64::INFINITY)),
                ScenarioError::BadRate { phase: 0, rate: f64::INFINITY },
            ),
            (
                base().phase(Phase::new("p", 10)).env(5, EnvChange::DropProb(1.5)),
                ScenarioError::BadDropProb { at: 5, prob: 1.5 },
            ),
            (
                base()
                    .phase(Phase::new("p", 10))
                    .env(5, EnvChange::PartitionPersist { fraction: -0.25 }),
                ScenarioError::BadPartitionFraction { at: 5, fraction: -0.25 },
            ),
            (
                base()
                    .phase(Phase::new("p", 100))
                    .env(10, EnvChange::PartitionPersist { fraction: 0.5 })
                    .env(20, EnvChange::PartitionPersist { fraction: 0.3 }),
                ScenarioError::OverlappingPartition { first: 10, second: 20 },
            ),
        ];
        for (sc, want) in cases {
            let errs = sc.validate().expect_err("scenario should be rejected");
            assert!(errs.contains(&want), "expected {want:?} in {errs:?}");
        }
        // NaN equals nothing, so its reject is matched by shape.
        let sc = base().phase(Phase::new("p", 10).rate(f64::NAN));
        assert!(matches!(
            sc.validate().unwrap_err()[..],
            [ScenarioError::BadRate { phase: 0, rate }] if rate.is_nan()
        ));
        // Degenerate workload populations are rejected wherever declared.
        let sc = Scenario::new("bad", WorkloadKind::SocialFeed { users: 0 }, 1)
            .phase(Phase::new("p", 10));
        assert!(matches!(
            sc.validate().unwrap_err()[0],
            ScenarioError::BadWorkload { phase: None, .. }
        ));
        let sc = base()
            .phase(Phase::new("p", 10).workload(WorkloadKind::ZipfKeys { keys: 0, exponent: 1.0 }));
        assert!(matches!(
            sc.validate().unwrap_err()[0],
            ScenarioError::BadWorkload { phase: Some(0), .. }
        ));
        let sc = base().phase(Phase::new("p", 10)).fault(
            0,
            Fault::ChurnBurst {
                tier: Tier::Persist,
                model: ChurnModel { failure_rate: 0.1, period: 0, ..ChurnModel::default() },
                span: 10,
            },
        );
        assert!(matches!(sc.validate().unwrap_err()[0], ScenarioError::BadChurnModel { .. }));
    }

    #[test]
    fn try_run_rejects_and_run_scenario_panics_on_invalid() {
        let mut c = settled(11);
        let sc = Scenario::new("empty", WorkloadKind::Uniform, 1);
        let errs = c.try_run_scenario(&sc).expect_err("no phases is invalid");
        assert_eq!(errs, vec![ScenarioError::NoPhases]);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut c = settled(11);
            c.run_scenario(&sc)
        }));
        assert!(caught.is_err(), "run_scenario panics on invalid scenarios");
        // Healed partition sequences and partial heals stay valid.
        let ok = Scenario::new("ok", WorkloadKind::Uniform, 1)
            .phase(Phase::new("p", 100))
            .env(10, EnvChange::PartitionPersist { fraction: 0.5 })
            .env(20, EnvChange::Heal)
            .env(30, EnvChange::PartitionPersist { fraction: 0.5 });
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn scenario_types_are_value_types() {
        let make = || {
            library::churn_storm(3)
                .env(100, EnvChange::Latency(LatencyModel::Uniform { min: 2, max: 9 }))
        };
        assert_eq!(make(), make(), "structural equality over the whole timeline");
        let mut other = make();
        other.faults.clear();
        assert_ne!(make(), other);
        // The fields hold what the builders set.
        let sc = make();
        assert_eq!(sc.seed, 3);
        assert_eq!(sc.workload, WorkloadKind::SocialFeed { users: 8 });
        assert_eq!((sc.phases.len(), sc.faults.len(), sc.env.len()), (4, 1, 1));
        let p = &sc.phases[0];
        assert_eq!((p.name.as_str(), p.ticks), ("load", 6_000));
        assert_eq!((p.sessions, p.depth, p.ops, p.mix.put), (3, 8, Some(240), 3));
    }

    #[test]
    fn display_prints_a_runnable_constructor_snippet() {
        let sc = Scenario::new("repro", WorkloadKind::SocialFeed { users: 4 }, 99)
            .phase(Phase::new("load", 2_000).mix(OpMix::idle().put(3).multi_put(1)).ops(40))
            .phase(Phase::new("read", 1_500).mix(OpMix::gets()).sessions(2).depth(4))
            .fault(500, Fault::Crash { tier: Tier::Persist, count: 2 })
            .env(800, EnvChange::DropProb(0.05))
            .audited()
            .traced();
        let snippet = sc.to_string();
        assert_eq!(
            snippet,
            "Scenario::new(\"repro\", WorkloadKind::SocialFeed { users: 4 }, 99)\n    \
             .phase(Phase::new(\"load\", 2000).mix(OpMix::idle().put(3).multi_put(1)).ops(40))\n    \
             .phase(Phase::new(\"read\", 1500).mix(OpMix::idle().get(1)).sessions(2).depth(4))\n    \
             .fault(500, Fault::Crash { tier: Tier::Persist, count: 2 })\n    \
             .env(800, EnvChange::DropProb(0.05))\n    \
             .audited()\n    \
             .traced()"
        );
        // The churn/latency forms carry their full constructor paths.
        let stormy = library::churn_storm(1)
            .env(7, EnvChange::Latency(LatencyModel::Constant(3)))
            .to_string();
        assert!(stormy.contains("Fault::ChurnBurst { tier: Tier::Persist, model: ChurnModel {"));
        assert!(stormy.contains("EnvChange::Latency(LatencyModel::Constant(3))"));
    }

    #[test]
    fn phase_report_math() {
        let p = PhaseReport {
            name: "x".into(),
            ticks: 10,
            issued: 10,
            ok: 8,
            errors: ErrorCounts { timeouts: 1, partials: 1, no_entry: 0 },
            reads_found: 4,
            reads_absent: 1,
            stale_reads: 1,
            tuples_read: 0,
            latency_p50: 1.0,
            latency_p95: 2.0,
            latency_p99: 3.0,
            msgs: 0,
            contacts_mean: 0.0,
            contacts_max: 0.0,
        };
        assert_eq!(p.availability(), 0.8);
        assert_eq!(p.staleness(), 0.25);
        assert_eq!(p.errors.total(), 2);
    }
}
