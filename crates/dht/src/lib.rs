//! # dd-dht — the structured tier: soft-state layer machinery and the
//! Cassandra-style baseline
//!
//! The paper's architecture (§II) keeps a *structured* DHT-governed
//! soft-state layer on top of the epidemic persistent layer: requests
//! "require a careful ordering … which is best achieved by a structured
//! DHT-based approach where nodes partition the key-space among themselves"
//! — and that layer is expected to be "moderately sized and thus manageable
//! with a structured approach". This crate provides:
//!
//! * [`ring`] — consistent hashing with virtual nodes and successor lists.
//! * [`ordering`] — the per-key write [`Version`] ("write operations are
//!   correctly ordered by the soft-state layer", §II).
//! * [`cache`] — the tuple cache: "we take advantage of spare capacity to
//!   serve as a tuple cache … as the soft-layer always knows the most
//!   recent version of an item, cache inconsistency issues are eliminated".
//! * [`metadata`] — per-key latest version + location hints. It orders
//!   writes ([`Metadata::assign`]) and folds in a persistent-layer scan
//!   ("on the event of a catastrophic failure … metadata can be
//!   reconstructed from the data reliably stored at the underlying
//!   persistent-state layer").
//! * [`baseline`] — the incumbent the paper argues against (§I): a
//!   Dynamo/Cassandra-style store replicating at ring successors with
//!   heartbeat failure detection and *reactive* repair, whose churn cost
//!   experiment E11 measures against the epidemic substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cache;
pub mod metadata;
pub mod ordering;
pub mod ring;

pub use baseline::{BaselineConfig, BaselineMsg, BaselineNode};
pub use cache::TupleCache;
pub use metadata::{MetaEntry, Metadata};
pub use ordering::Version;
pub use ring::HashRing;
