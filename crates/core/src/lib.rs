//! # dd-core — DataDroplets
//!
//! The paper's system (Figure 1): a two-layer key-value (tuple) store.
//! Clients talk to the **soft-state layer** — a moderately sized,
//! DHT-organised tier that orders requests, assigns versions, caches tuples
//! and keeps location hints — which delegates storage to the
//! **persistent-state layer**, a large, churn-ridden population where
//! writes spread epidemically and each node's local *sieve* decides what it
//! retains (§II–III).
//!
//! Clients talk to the store through typed, pipelined sessions: every
//! operation returns a [`Pending`] handle immediately, completions are
//! `Result<T, OpError>` values harvested while [`Cluster::pump`] advances
//! virtual time — so one session can hold thousands of operations in
//! flight:
//!
//! ```
//! use dd_core::{Cluster, ClusterConfig};
//!
//! let mut cluster = Cluster::new(ClusterConfig::small(), 42);
//! cluster.settle();
//! let mut client = cluster.client();
//! let w = client.put(&mut cluster, "user:1", b"alice".to_vec(), Some(31.0), None);
//! let put = client.recv(&mut cluster, w).expect("write acknowledged");
//! assert!(put.acks >= 1);
//! let r = client.get(&mut cluster, "user:1");
//! let got = client.recv(&mut cluster, r).expect("read done");
//! assert_eq!(got.unwrap().value, b"alice".to_vec());
//! ```
//!
//! ## Multi-tuple operations
//!
//! Correlated tuples are written as one batch (`multi_put`) and read back
//! by tag (`multi_get`) — the social-feed `mput`/`mget` of the paper's
//! evaluation workload \[18\]. Under [`cluster::Placement::TagCollocation`]
//! the tag's tuples co-locate on `replication` slot-owners and a
//! `multi_get` contacts exactly those nodes; under uniform or range
//! placement a tag has no home, so it asks every persist peer directly
//! ([`OwnerIndex::tag_targets`]):
//!
//! ```
//! use dd_core::{Cluster, ClusterConfig, Placement, TupleSpec};
//!
//! let config = ClusterConfig::small().placement(Placement::TagCollocation);
//! let mut cluster = Cluster::new(config, 7);
//! cluster.settle();
//! let mut client = cluster.client();
//! let batch: Vec<TupleSpec> = (0..3u8)
//!     .map(|i| {
//!         TupleSpec::new(format!("post:{i}"), vec![i], Some(f64::from(i)), Some("feed:a"))
//!     })
//!     .collect();
//! let w = client.multi_put(&mut cluster, batch);
//! assert_eq!(client.recv(&mut cluster, w).expect("batch ordered").items, 3);
//! cluster.run_for(2_000);
//! let r = client.multi_get(&mut cluster, "feed:a");
//! let feed = client.recv(&mut cluster, r).expect("feed read");
//! assert_eq!(feed.len(), 3, "all posts of the tag come back");
//! // The tag's r owners answered — not the whole persistent layer.
//! let contacted = cluster.sim.metrics().summary("multi_get.contacted_nodes").max;
//! assert!(contacted <= f64::from(cluster.config().replication));
//! ```
//!
//! ## Scenarios
//!
//! Whole experiments — workload phases, fault schedules and environment
//! timelines — are declared as [`Scenario`] values and executed with
//! [`Cluster::run_scenario`], which returns a [`ScenarioReport`] of
//! per-phase availability, staleness, error taxonomy and latency
//! quantiles. See [`scenario`] for the vocabulary and
//! [`scenario::library`] for the stock dependability drills:
//!
//! ```
//! use dd_core::{Cluster, ClusterConfig, EnvChange, OpMix, Phase, Scenario, WorkloadKind};
//!
//! let mut cluster = Cluster::new(ClusterConfig::small(), 9);
//! cluster.settle();
//! let drill = Scenario::new("loss-spike", WorkloadKind::Uniform, 3)
//!     .phase(Phase::new("load", 2_000).mix(OpMix::puts()).ops(30))
//!     .phase(Phase::new("read", 2_000).mix(OpMix::gets()).ops(30))
//!     .env(2_000, EnvChange::DropProb(0.05))
//!     .env(3_000, EnvChange::DropProb(0.0));
//! let report = cluster.run_scenario(&drill);
//! assert!(report.availability() > 0.9);
//! ```
//!
//! Modules: `tuple` (data model), [`sieve_spec`] (wire-format sieves),
//! [`msg`] (the composite protocol), [`soft`] and [`persist`] (the two
//! node roles), [`cluster`] (whole-system harness), [`client`] (typed
//! pipelined sessions), [`driver`] (the phase engine: sessions × depth ×
//! op mixes), [`scenario`] (declarative workload/fault/environment
//! timelines), [`workload`] (synthetic workloads for the experiments).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod driver;
pub mod msg;
pub mod persist;
pub mod scenario;
pub mod sieve_spec;
pub mod soft;
pub mod tuple;
pub mod workload;

pub use client::{ops, Client, Completion, OpError, OpKind, Pending, OP_TIMEOUT};
pub use cluster::{
    AggregateResult, Cluster, ClusterConfig, GetResult, MultiGetResult, MultiPutResult, Observed,
    Placement, Planes, PutResult,
};
pub use dd_audit::{AuditReport, History, Violation, ViolationKind};
pub use dd_obs::{Detector, Finding, Telemetry, TelemetryReport};
pub use dd_trace::{PathStep, Recorder, Trace, TraceReport, TraceSet};
pub use driver::OpMix;
pub use msg::{Answer, ClientOp, DropletMsg, Query};
pub use persist::{PersistNode, RepairPeering};
pub use scenario::{
    EnvChange, ErrorCounts, Fault, Phase, PhaseReport, Scenario, ScenarioError, ScenarioReport,
    Tier,
};
pub use sieve_spec::{OwnerIndex, SieveSpec};
pub use soft::MultiPutStatus;
pub use tuple::{Key, StoredTuple, Tag, TupleSpec};
pub use workload::{MultiPutOp, Workload, WorkloadKind};
