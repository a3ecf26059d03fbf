//! The composite DataDroplets protocol: one message enum spanning both
//! layers (the simulator hosts one process type per run).
//!
//! A client operation travels as one [`ClientOp`] value inside
//! [`DropletMsg::Client`]: the session injects it at any soft node, which
//! forwards it once to the soft coordinator of its key or tag or, for a
//! scan, aggregate or multi-put, coordinates it itself. Every other
//! variant is soft ↔ soft or soft ↔ persist traffic that a coordinator or
//! a persist node originates.

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
    // Multi-op plane: soft-layer routing and tag-scoped persistent reads.
    // ------------------------------------------------------------------
    /// Multi-op coordinator → key coordinator: order and disseminate one
    /// batch item on behalf of `origin`'s multi-put.
    SubPut {
        /// Multi-op request id.
        req: u64,
        /// The multi-op coordinator awaiting [`DropletMsg::SubPutAck`].
        origin: NodeId,
        /// The batch item.
        item: TupleSpec,
        /// Causal trace context (traced runs only; `None` otherwise).
        trace: Option<TraceCtx>,
    },
    /// Key coordinator → multi-op coordinator: the item was ordered (a
    /// version is assigned and dissemination has started).
    SubPutAck {
        /// Multi-op request id.
        req: u64,
        /// Key hash of the ordered item.
        key_hash: u64,
        /// Version the item was ordered at.
        version: Version,
    },
    /// Coordinator → persist: report every live tuple carrying the tag
    /// (served from the secondary tag index).
    TagFetch {
        /// Request id.
        req: u64,
        /// Hash of the correlation tag.
        tag_hash: u64,
        /// Causal trace context (traced runs only; `None` otherwise).
        trace: Option<TraceCtx>,
    },
    /// Persist → coordinator: local live tuples with the tag.
    TagFetchReply {
        /// Request id.
        req: u64,
        /// Matching live tuples.
        items: Vec<StoredTuple>,
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
        /// The tuples (each carries its own rumor id).
        tuples: Vec<StoredTuple>,
        /// Coordinator awaiting storage acks.
        coordinator: NodeId,
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
    // Read path.
    // ------------------------------------------------------------------
    /// Coordinator → persist: fetch a tuple at (at least) a version.
    Fetch {
        /// Request id.
        req: u64,
        /// Key hash.
        key_hash: u64,
        /// Version required (the metadata's latest).
        version: Version,
        /// Causal trace context (traced runs only; `None` otherwise).
        trace: Option<TraceCtx>,
    },
    /// Persist → coordinator: fetch result.
    FetchReply {
        /// Request id.
        req: u64,
        /// The tuple, if held at a sufficient version.
        found: Option<StoredTuple>,
    },

    // ------------------------------------------------------------------
    // Scan / aggregate paths.
    // ------------------------------------------------------------------
    /// Coordinator → persist: report tuples with attr in `[lo, hi]`.
    ScanReq {
        /// Request id.
        req: u64,
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
        /// Causal trace context (traced runs only; `None` otherwise).
        trace: Option<TraceCtx>,
    },
    /// Persist → coordinator: local matches.
    ScanReply {
        /// Request id.
        req: u64,
        /// Matching live tuples.
        items: Vec<StoredTuple>,
    },
    /// Coordinator → persist: send your local aggregate contribution.
    AggReq {
        /// Request id.
        req: u64,
        /// Causal trace context (traced runs only; `None` otherwise).
        trace: Option<TraceCtx>,
    },
    /// Persist → coordinator: duplicate-tolerant local summary.
    AggReply {
        /// Request id.
        req: u64,
        /// Bottom-k sketch of locally held (distinct) items.
        sketch: DistSketch,
        /// Local minimum attribute (idempotent under replication).
        min: f64,
        /// Local maximum attribute.
        max: f64,
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
    /// The variant's name — `ClientPut` … `ClientMultiGet` for a client
    /// message, by its operation — for per-kind accounting (the telemetry
    /// plane's in-flight-messages-by-kind series).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            DropletMsg::Client { op, .. } => op.wire_name(),
            DropletMsg::SubPut { .. } => "SubPut",
            DropletMsg::SubPutAck { .. } => "SubPutAck",
            DropletMsg::TagFetch { .. } => "TagFetch",
            DropletMsg::TagFetchReply { .. } => "TagFetchReply",
            DropletMsg::DeliverBatch { .. } => "DeliverBatch",
            DropletMsg::StoredAckBatch { .. } => "StoredAckBatch",
            DropletMsg::Fetch { .. } => "Fetch",
            DropletMsg::FetchReply { .. } => "FetchReply",
            DropletMsg::ScanReq { .. } => "ScanReq",
            DropletMsg::ScanReply { .. } => "ScanReply",
            DropletMsg::AggReq { .. } => "AggReq",
            DropletMsg::AggReply { .. } => "AggReply",
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
    }
}
