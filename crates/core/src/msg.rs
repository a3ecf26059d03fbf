//! The composite DataDroplets protocol: one message enum spanning both
//! layers (the simulator hosts one process type per run).
//!
//! A client operation travels as one [`ClientOp`] inside
//! [`DropletMsg::Client`]: the session injects it at any soft node, which
//! forwards it once to the soft coordinator of its key or tag or, for a
//! scan, aggregate or multi-put, coordinates it itself. A coordinator asks
//! persist replicas with one [`Query`] inside [`DropletMsg::Ask`], and
//! every reply it waits for — a replica's read of its store, or a key
//! coordinator's ack of a [`DropletMsg::SubPut`] — is one [`Answer`]
//! inside [`DropletMsg::Reply`], folded into the pending operation its
//! request id names. The rest is write delivery, anti-entropy and
//! failure-detector notices.

use crate::sieve_spec::SieveSpec;
use crate::tuple::{Key, StoredTuple, Tag, TupleSpec};
use dd_dht::Version;
use dd_epidemic::antientropy::Summary;
use dd_epidemic::push::RumorId;
use dd_estimation::DistSketch;
use dd_sim::{NodeId, TraceCtx};

/// One client operation, as submitted by a session and carried to its
/// coordinator by [`DropletMsg::Client`].
#[derive(Debug, Clone, PartialEq)]
pub enum ClientOp {
    /// Write one tuple.
    Put(TupleSpec),
    /// Delete a key (a versioned tombstone).
    Delete(Key),
    /// Read a key.
    Get(Key),
    /// Range scan over the attribute domain `[lo, hi]`.
    Scan {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// Aggregate over all stored tuples.
    Aggregate,
    /// Batched write (the social-feed `mput`): the entry node becomes the
    /// multi-op coordinator, splits the batch by key and routes each item
    /// to its key coordinator.
    MultiPut(Vec<TupleSpec>),
    /// Tag-scoped read (the social-feed `mget`): every live tuple carrying
    /// the tag, read from the persist peers
    /// [`crate::OwnerIndex::tag_targets`] names.
    MultiGet(Tag),
}

impl ClientOp {
    /// The key a put, delete or get writes or reads.
    pub(crate) fn key(&self) -> Option<&Key> {
        match self {
            ClientOp::Put(item) => Some(&item.key),
            ClientOp::Delete(key) | ClientOp::Get(key) => Some(key),
            _ => None,
        }
    }

    /// Where on the soft ring the op is coordinated: its key's hash, or a
    /// multi-get's tag hash. `None` for scans, aggregates and multi-puts,
    /// which the entry node coordinates.
    pub(crate) fn route(&self) -> Option<u64> {
        match self {
            ClientOp::MultiGet(tag) => Some(tag.hash()),
            _ => self.key().map(Key::hash),
        }
    }

    /// The name [`DropletMsg::kind`] reports for a message carrying this
    /// op (telemetry labels in-flight messages by it).
    pub(crate) fn wire_name(&self) -> &'static str {
        match self {
            ClientOp::Put(_) => "ClientPut",
            ClientOp::Delete(_) => "ClientDelete",
            ClientOp::Get(_) => "ClientGet",
            ClientOp::Scan { .. } => "ClientScan",
            ClientOp::Aggregate => "ClientAggregate",
            ClientOp::MultiPut(_) => "ClientMultiPut",
            ClientOp::MultiGet(_) => "ClientMultiGet",
        }
    }
}

/// Capacity of the bottom-k sketch in an [`Answer::Summary`]. Replicas
/// and the coordinator merging their answers share it: the union of
/// per-replica bottom-k sets, cut back to k, is then exactly the global
/// bottom-k, however many tuples each replica holds.
pub(crate) const SKETCH_K: usize = 256;

/// What a coordinator asks a persist replica, carried by
/// [`DropletMsg::Ask`]: one read of the replica's local store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// The tuple of `key_hash`, if held at `version` or newer (a tombstone
    /// counts).
    Get {
        /// Key hash.
        key_hash: u64,
        /// Version required (the metadata's latest).
        version: Version,
    },
    /// Every live tuple carrying the tag of this hash (served from the
    /// secondary tag index).
    Tag(u64),
    /// Every live tuple with its attribute in `[lo, hi]`.
    Range {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// A duplicate-tolerant summary of the live tuples with an attribute.
    Aggregate,
}

/// A reply a coordinator folds into its pending operation, carried by
/// [`DropletMsg::Reply`]: a replica's answer to a [`Query`], or a key
/// coordinator's ack of a [`DropletMsg::SubPut`].
#[derive(Debug, Clone)]
pub enum Answer {
    /// To [`Query::Get`]: the tuple, if held at a sufficient version.
    Found(Option<StoredTuple>),
    /// To [`Query::Tag`]: the matching live tuples.
    Tagged(Vec<StoredTuple>),
    /// To [`Query::Range`]: the matching live tuples.
    InRange(Vec<StoredTuple>),
    /// To [`Query::Aggregate`].
    Summary {
        /// Bottom-k sketch of the locally held distinct items (the same k
        /// at every replica and at the coordinator).
        sketch: DistSketch,
        /// Local minimum attribute (idempotent under replication).
        min: f64,
        /// Local maximum attribute.
        max: f64,
    },
    /// To a [`DropletMsg::SubPut`]: the item was ordered (a version is
    /// assigned and dissemination has started).
    Ordered {
        /// Key hash of the ordered item.
        key_hash: u64,
        /// Version the item was ordered at.
        version: Version,
    },
}

/// All DataDroplets messages.
#[derive(Debug, Clone)]
pub enum DropletMsg {
    /// A client operation, injected at any soft node and forwarded at most
    /// once, to the soft coordinator of its key or tag.
    Client {
        /// Request id (cluster-unique; allocated at submission by the
        /// issuing client session, which harvests the completion).
        req: u64,
        /// The operation.
        op: ClientOp,
        /// Causal trace context (traced runs only; `None` otherwise).
        trace: Option<TraceCtx>,
    },

    // ------------------------------------------------------------------
    // Coordination: multi-put items, replica queries, and their replies.
    // ------------------------------------------------------------------
    /// Multi-op coordinator → key coordinator: order and disseminate one
    /// batch item of a multi-put, and reply [`Answer::Ordered`] to the
    /// sender.
    SubPut {
        /// Multi-op request id.
        req: u64,
        /// The batch item.
        item: TupleSpec,
        /// Causal trace context (traced runs only; `None` otherwise).
        trace: Option<TraceCtx>,
    },
    /// Coordinator → persist: one read of the local store, answered by one
    /// [`DropletMsg::Reply`].
    Ask {
        /// Request id.
        req: u64,
        /// What to read.
        query: Query,
        /// Causal trace context (traced runs only; `None` otherwise).
        trace: Option<TraceCtx>,
    },
    /// Persist or key coordinator → coordinator: the answer to an
    /// [`DropletMsg::Ask`] or a [`DropletMsg::SubPut`].
    Reply {
        /// Request id.
        req: u64,
        /// The answer.
        answer: Answer,
    },

    // ------------------------------------------------------------------
    // Write path: sieve-routed delivery into the persistent layer.
    // ------------------------------------------------------------------
    /// Coordinator → persist: a batch of tuples delivered directly to the
    /// nodes whose sieves accept them (sieve acceptance is deterministic,
    /// so targeted delivery stores exactly the same set a full epidemic
    /// broadcast would, at ~`r` messages per tuple instead of
    /// `fanout × N`).
    DeliverBatch {
        /// The tuples (each carries its own rumor id); the sender is the
        /// coordinator awaiting their storage acks.
        tuples: Vec<StoredTuple>,
        /// Per-tuple causal trace contexts, parallel to `tuples` (empty in
        /// untraced runs).
        traces: Vec<Option<TraceCtx>>,
    },
    /// Persist → coordinator: batched storage acks for a
    /// [`DropletMsg::DeliverBatch`], one `(key_hash, version)` per tuple
    /// the sieve accepted.
    StoredAckBatch {
        /// Accepted `(key_hash, version)` pairs.
        acked: Vec<(u64, Version)>,
    },

    // ------------------------------------------------------------------
    // Redundancy maintenance (same-class anti-entropy, §III-A), digest
    // first: the steady-state round is two constant-size messages; items
    // only cross the wire for buckets whose fingerprints disagree.
    // ------------------------------------------------------------------
    /// Step 1, initiator → responder: "compare stores with me". Carries
    /// only the initiator's sieve (evaluable remotely; §III-A repair
    /// pairs nodes covering the same key-space portion).
    RepairDigest {
        /// Initiator's sieve.
        sieve: SieveSpec,
    },
    /// Step 2, responder → initiator: constant-size summary of the
    /// responder's store projected through the *initiator's* sieve (plus
    /// all tombstones). Both sides summarise the shared projection —
    /// everything the other's sieve wants — so equal summaries mean the
    /// pair is converged on their common key-space.
    RepairSummary {
        /// Responder's sieve (so the initiator can project symmetrically).
        sieve: SieveSpec,
        /// Summary over the responder's shared projection.
        summary: Summary,
    },
    /// Step 3, initiator → responder: summaries disagreed; here are the
    /// initiator's rumor ids in the differing buckets.
    RepairPull {
        /// Initiator's sieve (repeated — nodes keep no per-peer state).
        sieve: SieveSpec,
        /// Bucket indices whose fingerprints differed.
        buckets: Vec<u32>,
        /// The initiator's ids in those buckets (shared projection).
        ids: Vec<RumorId>,
    },
    /// Steps 4/5: delta items, plus the ids the sender itself lacks
    /// (`want` non-empty triggers one reciprocal `RepairItems` with the
    /// wanted tuples and an empty `want`).
    RepairItems {
        /// Tuples the receiver was missing.
        items: Vec<StoredTuple>,
        /// Ids the sender is missing and wants back.
        want: Vec<RumorId>,
    },

    // ------------------------------------------------------------------
    // Failure-detector notices, injected locally by the cluster harness
    // (self-sends modelling each node's own failure detector firing).
    // ------------------------------------------------------------------
    /// The local failure detector now considers `NodeId` unreachable.
    PeerDown(
        /// The peer.
        NodeId,
    ),
    /// The local failure detector now considers `NodeId` reachable again
    /// (heal or revival).
    PeerUp(
        /// The peer.
        NodeId,
    ),
}

impl DropletMsg {
    /// The message's name for per-kind accounting (the telemetry plane's
    /// in-flight-messages-by-kind series): the variant's, except that a
    /// client message is named by its operation (`ClientPut` …
    /// `ClientMultiGet`), an ask by its query (`Fetch`, `TagFetch`,
    /// `ScanReq`, `AggReq`) and a reply by its answer (`FetchReply`,
    /// `TagFetchReply`, `ScanReply`, `AggReply`, `SubPutAck`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            DropletMsg::Client { op, .. } => op.wire_name(),
            DropletMsg::Ask { query: Query::Get { .. }, .. } => "Fetch",
            DropletMsg::Ask { query: Query::Tag(_), .. } => "TagFetch",
            DropletMsg::Ask { query: Query::Range { .. }, .. } => "ScanReq",
            DropletMsg::Ask { query: Query::Aggregate, .. } => "AggReq",
            DropletMsg::Reply { answer: Answer::Found(_), .. } => "FetchReply",
            DropletMsg::Reply { answer: Answer::Tagged(_), .. } => "TagFetchReply",
            DropletMsg::Reply { answer: Answer::InRange(_), .. } => "ScanReply",
            DropletMsg::Reply { answer: Answer::Summary { .. }, .. } => "AggReply",
            DropletMsg::Reply { answer: Answer::Ordered { .. }, .. } => "SubPutAck",
            DropletMsg::SubPut { .. } => "SubPut",
            DropletMsg::DeliverBatch { .. } => "DeliverBatch",
            DropletMsg::StoredAckBatch { .. } => "StoredAckBatch",
            DropletMsg::RepairDigest { .. } => "RepairDigest",
            DropletMsg::RepairSummary { .. } => "RepairSummary",
            DropletMsg::RepairPull { .. } => "RepairPull",
            DropletMsg::RepairItems { .. } => "RepairItems",
            DropletMsg::PeerDown(_) => "PeerDown",
            DropletMsg::PeerUp(_) => "PeerUp",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_client_op_keeps_its_wire_name_and_routes_by_key_or_tag() {
        let (key, tag) = (Key::from("k"), Tag::from("t"));
        let item = TupleSpec::new("k", Vec::new(), None, Some("t"));
        let ops = [
            (ClientOp::Put(item.clone()), "ClientPut", Some(key.hash())),
            (ClientOp::Get(key.clone()), "ClientGet", Some(key.hash())),
            (ClientOp::Delete(key.clone()), "ClientDelete", Some(key.hash())),
            (ClientOp::Scan { lo: 0.0, hi: 1.0 }, "ClientScan", None),
            (ClientOp::Aggregate, "ClientAggregate", None),
            (ClientOp::MultiPut(vec![item]), "ClientMultiPut", None),
            (ClientOp::MultiGet(tag.clone()), "ClientMultiGet", Some(tag.hash())),
        ];
        for (op, name, route) in ops {
            assert_eq!(op.route(), route, "{name}");
            assert_eq!(DropletMsg::Client { req: 1, op, trace: None }.kind(), name);
        }
        // Asks and replies are named by their query and answer: telemetry
        // labels in-flight messages by these names (BENCH_obs.csv).
        let queries = [
            (Query::Get { key_hash: key.hash(), version: Version(1) }, "Fetch"),
            (Query::Tag(tag.hash()), "TagFetch"),
            (Query::Range { lo: 0.0, hi: 1.0 }, "ScanReq"),
            (Query::Aggregate, "AggReq"),
        ];
        for (query, name) in queries {
            assert_eq!(DropletMsg::Ask { req: 1, query, trace: None }.kind(), name);
        }
        let (min, max) = (0.0, 1.0);
        let answers = [
            (Answer::Found(None), "FetchReply"),
            (Answer::Tagged(Vec::new()), "TagFetchReply"),
            (Answer::InRange(Vec::new()), "ScanReply"),
            (Answer::Summary { sketch: DistSketch::new(SKETCH_K), min, max }, "AggReply"),
            (Answer::Ordered { key_hash: key.hash(), version: Version(1) }, "SubPutAck"),
        ];
        for (answer, name) in answers {
            assert_eq!(DropletMsg::Reply { req: 1, answer }.kind(), name);
        }
    }

    #[test]
    fn a_message_fits_in_120_bytes() {
        assert!(std::mem::size_of::<DropletMsg>() <= 120, "{}", std::mem::size_of::<DropletMsg>());
    }
}
