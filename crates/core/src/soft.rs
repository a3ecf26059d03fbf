//! The soft-state layer node: request ordering, versions, tuple cache,
//! metadata and read/write coordination (§II of the paper).

use crate::msg::DropletMsg;
use crate::sieve_spec::OwnerIndex;
use crate::tuple::{Key, StoredTuple, TupleSpec};
use dd_dht::{HashRing, Metadata, TupleCache, Version, VersionAuthority};
use dd_sieve::TagSieve;
use dd_sim::{Ctx, Duration, NodeId, Time, TimerTag, TraceCtx};
use rand::seq::SliceRandom;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Timer tag for the multi-op deadline sweep.
pub const MULTI_OP_TIMER: TimerTag = TimerTag(0x4D47);

/// Timer tag for flushing the per-target dissemination outbox.
pub const BATCH_TIMER: TimerTag = TimerTag(0xBA7C);

/// Ticks an enqueued tuple waits for batch-mates before the outbox
/// flushes. Small enough to be invisible next to network latency; large
/// enough that a multi-put's items to the same owner share one message.
pub const BATCH_FLUSH_TICKS: u64 = 2;

/// Tuples per dissemination batch before an eager flush.
pub const BATCH_MAX: usize = 32;

/// Acked-but-undelivered writes a coordinator remembers per node: writes
/// whose owners were unreachable at dissemination time are re-delivered
/// when the owner comes back ([`DropletMsg::PeerUp`]); beyond this cap the
/// oldest entry is forgotten and the periodic repair plane is the
/// remaining safety net.
pub const UNDELIVERED_RETENTION: usize = 4096;

/// Completion records a soft node retains, across every operation kind it
/// coordinates. Harvested completions are retired immediately; this cap
/// bounds what *abandoned* sessions can leave behind — once exceeded, the
/// oldest un-harvested record is retired, so sustained traffic from
/// clients that never poll cannot grow node state without bound.
pub const COMPLETION_RETENTION: usize = 512;

/// Bounded completion store: a map plus insertion-order retirement.
///
/// A record is written exactly once, when its operation completes (later
/// acks update in place), so insertion order is age order and retiring
/// from the front retires the oldest completion, whatever its kind.
/// [`CompletionLog::take`] is the harvest path — clients remove what they
/// consume, so under a well-behaved session the log stays near-empty and
/// the cap never bites.
#[derive(Debug, Clone)]
struct CompletionLog<T> {
    cap: usize,
    map: HashMap<u64, T>,
    order: VecDeque<u64>,
    /// Records retired by the cap over the log's lifetime (telemetry: the
    /// leak guard firing; 0 under well-behaved sessions).
    retired: u64,
}

impl<T> CompletionLog<T> {
    fn new(cap: usize) -> Self {
        CompletionLog { cap, map: HashMap::new(), order: VecDeque::new(), retired: 0 }
    }

    /// Records a completion; returns the record retired to stay within the
    /// cap, if any, so the caller can release auxiliary state.
    fn insert(&mut self, req: u64, v: T) -> Option<(u64, T)> {
        if self.map.insert(req, v).is_none() {
            self.order.push_back(req);
        }
        if self.map.len() <= self.cap {
            return None;
        }
        while let Some(old) = self.order.pop_front() {
            if let Some(v) = self.map.remove(&old) {
                self.retired += 1;
                return Some((old, v));
            }
        }
        None
    }

    /// Harvests (removes) the completion for `req`. The order queue is
    /// compacted lazily once it outgrows the live map.
    fn take(&mut self, req: u64) -> Option<T> {
        let v = self.map.remove(&req);
        if self.order.len() > 2 * self.map.len() + 16 {
            self.order.retain(|id| self.map.contains_key(id));
        }
        v
    }

    fn get_mut(&mut self, req: u64) -> Option<&mut T> {
        self.map.get_mut(&req)
    }

    /// Number of retained (un-harvested) completions.
    fn len(&self) -> usize {
        self.map.len()
    }
}

/// What a coordinator parks for the session that issued a request, until
/// [`SoftNode::take`] harvests it: one variant per reply shape.
#[derive(Debug, Clone)]
pub(crate) enum Done {
    /// A write or delete was ordered. `status.acks` keeps counting in place
    /// while the record is parked; `key_hash` routes those late acks.
    Write { status: PutStatus, key_hash: u64 },
    /// A read: `None` = unknown key, deleted, or not found.
    Read(Option<StoredTuple>),
    /// A scan's matching tuples.
    Scan(Vec<StoredTuple>),
    /// An aggregate's merged sketch and exact attribute bounds.
    Aggregate { sketch: dd_estimation::DistSketch, min: f64, max: f64 },
    /// A batched write.
    MultiPut(MultiPutStatus),
    /// A tag-scoped read: the deduplicated live tuples, and whether every
    /// contacted replica answered before the deadline.
    MultiGet { items: Vec<StoredTuple>, complete: bool },
}

/// Ticks a multi-tuple operation waits for stragglers before completing
/// with what it has. A dead slot-owner never answers a `TagFetch`, and a
/// dead key coordinator never acks a `SubPut`; without this deadline one
/// failed node would hang every `multi_get` on its tags (even though the
/// surviving replicas hold the full tuple set) and every `multi_put`
/// containing one of its keys.
pub const MULTI_OP_TIMEOUT: u64 = 2_000;

/// Outcome of a write, as tracked by its coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutStatus {
    /// Version the write was ordered at.
    pub version: Version,
    /// Storage acks received from the persistent layer so far.
    pub acks: u32,
}

/// Outcome of a batched write: the ordered items (version assigned by
/// their key coordinator) have been handed to dissemination.
/// `items` equals the batch size when the whole batch ordered; a smaller
/// count means the deadline sweep completed the op without acks from
/// dead/unreachable key coordinators.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiPutStatus {
    /// Number of batch items ordered so far.
    pub items: usize,
    /// `(key_hash, version)` per ordered item, in ack-arrival order.
    pub versions: Vec<(u64, Version)>,
}

/// Tag placement parameters mirrored into the soft layer so coordinators
/// can route a tag-scoped read to the tag's `r` slot-owners directly
/// (the slot order matches the persist-peer order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagRouting {
    /// Number of tag slots (the persist population size).
    pub slots: u64,
    /// Tag replication degree.
    pub r: u32,
}

/// An operation in flight at its coordinator, awaiting replies.
#[derive(Debug, Clone)]
struct Pending {
    /// The nodes still owing a reply, one entry per outstanding request (a
    /// multi-put lists a key coordinator once per item it owns).
    waiting: Vec<NodeId>,
    /// When the op started, for the deadline sweep ([`MULTI_OP_TIMER`]).
    started: Time,
    op: PendingOp,
}

/// What differs between the kinds of pending operation: the reply folded
/// so far, and what a death notice or the deadline does to the op.
#[derive(Debug, Clone)]
enum PendingOp {
    /// A single read of `key_hash` at `version`. `unreached` holds the
    /// replicas that were dark when the fetch went out or have been declared
    /// dead since, re-fetched on [`DropletMsg::PeerUp`] — a read must never
    /// conclude "not found" while a replica it couldn't reach may hold the
    /// write.
    Get { key_hash: u64, version: Version, unreached: Vec<NodeId> },
    /// A scan: the raw replica items gathered so far.
    Scan { items: Vec<StoredTuple> },
    /// An aggregate: the merged sketch and attribute bounds so far.
    Aggregate { sketch: dd_estimation::DistSketch, min: f64, max: f64 },
    /// A batched write: the versions ordered so far, and the batch size for
    /// partial accounting.
    MultiPut { versions: Vec<(u64, Version)>, want: usize },
    /// A tag-scoped read: the gathered items, and whether every slot-owner
    /// could be contacted and has been waited for.
    MultiGet { items: Vec<StoredTuple>, full: bool },
}

impl PendingOp {
    /// Multi-ops complete with what they have at [`MULTI_OP_TIMEOUT`]; the
    /// other kinds are left to their session's own timeout.
    fn has_deadline(&self) -> bool {
        matches!(self, PendingOp::MultiPut { .. } | PendingOp::MultiGet { .. })
    }
}

/// A write acked to the client whose delivery to some owners is still
/// unconfirmed (they were unreachable, or the ack is simply in flight).
#[derive(Debug, Clone)]
struct Undelivered {
    tuple: StoredTuple,
    pending: Vec<NodeId>,
}

/// Soft-state layer node.
#[derive(Debug, Clone)]
pub struct SoftNode {
    /// Ring over the *soft* nodes only (the moderately sized tier).
    pub ring: HashRing,
    /// Per-key version authority (coordinator role).
    pub authority: VersionAuthority,
    /// Latest-version + location-hint metadata.
    pub metadata: Metadata,
    /// The tuple cache.
    pub cache: TupleCache<StoredTuple>,
    /// Every persist node's id and sieve, shared by all soft nodes. Sieve
    /// acceptance is deterministic, so a write goes *directly* to the nodes
    /// that will store it (batched [`DropletMsg::DeliverBatch`]) instead of
    /// being broadcast epidemically.
    pub persist: Arc<OwnerIndex>,
    /// Fallback fetch width when no location hints exist.
    pub fallback_fetches: usize,
    /// Tag placement parameters when the persistent layer runs tag
    /// sieves; `None` means tag-scoped reads fan out epidemically.
    pub tag_routing: Option<TagRouting>,

    /// Completed operations of every kind: req → reply. Written only by
    /// [`SoftNode::complete`], harvested (and retired) only by
    /// [`SoftNode::take`].
    completed: CompletionLog<Done>,
    /// Ack routing for parked writes: `(key_hash, version)` → req. An entry
    /// lives exactly as long as its [`Done::Write`] record.
    put_index: HashMap<(u64, Version), u64>,
    /// Operations of every kind awaiting replies: req → what is still owed.
    pending: HashMap<u64, Pending>,

    /// Everyone this node's failure detector watches (soft members and
    /// persist peers); the baseline `reachable` resets to after a wipe.
    known_peers: Vec<NodeId>,
    /// Peers the local failure detector currently trusts. Maintained by
    /// [`DropletMsg::PeerDown`] / [`DropletMsg::PeerUp`] notices.
    reachable: HashSet<NodeId>,
    /// Per-target dissemination batches awaiting a flush, each tuple with
    /// the trace context of the op that wrote it (`None` when untraced).
    outbox: HashMap<NodeId, Vec<(StoredTuple, Option<TraceCtx>)>>,
    outbox_armed: bool,
    /// Open coordinator span per in-flight traced op (req → span id).
    /// Empty in untraced runs, so every tracing hook costs one emptiness
    /// check when tracing is off.
    trace_ops: HashMap<u64, u32>,
    /// Open per-target wait spans per traced op, as `(target, span)` pairs
    /// (a multi-put may wait on the same coordinator for several items).
    trace_waits: HashMap<u64, Vec<(NodeId, u32)>>,
    /// Acked writes not yet confirmed stored at every owner, keyed by
    /// `(key_hash, version)`, plus insertion order for cap retirement.
    undelivered: HashMap<(u64, Version), Undelivered>,
    undelivered_order: VecDeque<(u64, Version)>,
}

impl SoftNode {
    /// Creates a soft node.
    #[must_use]
    pub fn new(soft_members: &[NodeId], persist: Arc<OwnerIndex>, cache_capacity: usize) -> Self {
        let mut ring = HashRing::new();
        for &m in soft_members {
            ring.add(m, 16);
        }
        let known_peers: Vec<NodeId> =
            soft_members.iter().copied().chain(persist.peers.iter().copied()).collect();
        let reachable: HashSet<NodeId> = known_peers.iter().copied().collect();
        SoftNode {
            ring,
            authority: VersionAuthority::new(),
            metadata: Metadata::new(8),
            cache: TupleCache::new(cache_capacity),
            persist,
            fallback_fetches: 5,
            tag_routing: None,
            completed: CompletionLog::new(COMPLETION_RETENTION),
            put_index: HashMap::new(),
            pending: HashMap::new(),
            known_peers,
            reachable,
            outbox: HashMap::new(),
            outbox_armed: false,
            trace_ops: HashMap::new(),
            trace_waits: HashMap::new(),
            undelivered: HashMap::new(),
            undelivered_order: VecDeque::new(),
        }
    }

    /// Builder: enables tag-aware routing for tag-scoped reads. `slots`
    /// and `r` must match the persistent layer's tag-sieve parameters,
    /// and `persist.peers[s]` must be the node running slot `s`.
    #[must_use]
    pub fn with_tag_routing(mut self, slots: u64, r: u32) -> Self {
        self.tag_routing = Some(TagRouting { slots, r });
        self
    }

    /// Peers the local failure detector currently trusts.
    #[must_use]
    pub fn reachable_peers(&self) -> &HashSet<NodeId> {
        &self.reachable
    }

    /// Acked writes not yet confirmed at every owner (re-delivery queue
    /// depth) — exposed for tests and debugging.
    #[must_use]
    pub fn undelivered_backlog(&self) -> usize {
        self.undelivered.len()
    }

    /// The coordinator for a key: the primary soft-ring owner.
    #[must_use]
    pub fn coordinator_of(&self, key_hash: u64) -> Option<NodeId> {
        self.ring.primary(key_hash)
    }

    /// Parks the reply to `req` for its session and closes the op's
    /// coordinator span (`answered` = nothing was given up on). The record
    /// the cap retires to make room, if any, takes its ack route with it.
    fn complete(&mut self, ctx: &mut Ctx<'_, DropletMsg>, req: u64, done: Done, answered: bool) {
        self.trace_finish_op(ctx, req, answered);
        if let Some((_, Done::Write { status, key_hash })) = self.completed.insert(req, done) {
            self.put_index.remove(&(key_hash, status.version));
        }
    }

    /// Harvests the reply to `req`, retiring the record (and, for a write,
    /// its ack route — late storage acks still update metadata).
    pub(crate) fn take(&mut self, req: u64) -> Option<Done> {
        let done = self.completed.take(req)?;
        if let Done::Write { status, key_hash } = &done {
            self.put_index.remove(&(*key_hash, status.version));
        }
        Some(done)
    }

    /// Completion records currently retained. Bounded by
    /// [`COMPLETION_RETENTION`] even when no session ever harvests — the
    /// leak guard for abandoned clients.
    #[must_use]
    pub fn completion_backlog(&self) -> usize {
        self.completed.len()
    }

    /// Completion records the retention cap has retired over this node's
    /// lifetime (the leak guard firing; 0 under well-behaved sessions).
    #[must_use]
    pub fn completions_retired(&self) -> u64 {
        self.completed.retired
    }

    /// Client operations currently in flight on this coordinator (pending
    /// reads, scans, aggregates and multi-ops awaiting replica replies).
    #[must_use]
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }

    /// Tuples queued in the per-target dissemination outbox awaiting a
    /// batch flush.
    #[must_use]
    pub fn outbox_depth(&self) -> usize {
        self.outbox.values().map(Vec::len).sum()
    }

    fn is_coordinator(&self, me: NodeId, key_hash: u64) -> bool {
        self.coordinator_of(key_hash) == Some(me)
    }

    /// Remembers a write until every owner has confirmed storage, so a
    /// heal or revival can re-deliver it (the acked-while-owners-dark
    /// lost-write case). Bounded by [`UNDELIVERED_RETENTION`].
    fn track_undelivered(&mut self, tuple: &StoredTuple, owners: &[NodeId]) {
        if owners.is_empty() {
            return;
        }
        let id = (tuple.key_hash, tuple.version);
        self.undelivered.insert(id, Undelivered { tuple: tuple.clone(), pending: owners.to_vec() });
        self.undelivered_order.push_back(id);
        while self.undelivered.len() > UNDELIVERED_RETENTION {
            match self.undelivered_order.pop_front() {
                Some(old) => {
                    self.undelivered.remove(&old);
                }
                None => break,
            }
        }
        if self.undelivered_order.len() > 2 * self.undelivered.len() + 16 {
            let live = &self.undelivered;
            self.undelivered_order.retain(|id| live.contains_key(id));
        }
    }

    /// Queues one tuple for a target; flushes eagerly at [`BATCH_MAX`],
    /// otherwise arms the short batch timer once.
    fn enqueue_delivery(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        target: NodeId,
        tuple: StoredTuple,
        trace: Option<TraceCtx>,
    ) {
        let queue = self.outbox.entry(target).or_default();
        queue.push((tuple, trace));
        if queue.len() >= BATCH_MAX {
            let batch = self.outbox.remove(&target).expect("present");
            self.send_batch(ctx, target, batch);
        } else if !self.outbox_armed {
            self.outbox_armed = true;
            ctx.set_timer(Duration(BATCH_FLUSH_TICKS), BATCH_TIMER);
        }
    }

    fn send_batch(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        target: NodeId,
        batch: Vec<(StoredTuple, Option<TraceCtx>)>,
    ) {
        let me = ctx.id();
        ctx.metrics().incr("soft.deliveries");
        ctx.metrics().observe("soft.batch", batch.len() as f64);
        // The trace vec stays empty in untraced runs (no per-batch
        // allocation on the zero-cost-when-off path).
        let traced = batch.iter().any(|(_, t)| t.is_some());
        let mut tuples = Vec::with_capacity(batch.len());
        let mut traces = Vec::new();
        for (tuple, trace) in batch {
            if traced {
                traces.push(trace);
            }
            tuples.push(tuple);
        }
        ctx.send(target, DropletMsg::DeliverBatch { tuples, coordinator: me, traces });
    }

    /// Flushes every queued batch, in sorted target order (hash-map
    /// iteration order must never reach the wire).
    fn flush_outbox(&mut self, ctx: &mut Ctx<'_, DropletMsg>) {
        self.outbox_armed = false;
        let mut targets: Vec<NodeId> = self.outbox.keys().copied().collect();
        targets.sort_unstable();
        for target in targets {
            let batch = self.outbox.remove(&target).expect("present");
            self.send_batch(ctx, target, batch);
        }
    }

    fn disseminate(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        tuple: StoredTuple,
        trace: Option<TraceCtx>,
    ) {
        // Sieve-routed direct delivery: acceptance is deterministic, so
        // sending only to the owners stores exactly the set a full
        // broadcast would, at ~replication-degree messages per tuple.
        let owners = self.persist.owners_of(&tuple);
        self.track_undelivered(&tuple, &owners);
        for owner in owners {
            if self.reachable.contains(&owner) {
                self.enqueue_delivery(ctx, owner, tuple.clone(), trace);
            }
        }
    }

    /// Orders one write at this (key-coordinator) node — assigns the
    /// version, records metadata, caches, disseminates — and returns the
    /// assigned identity. Completion tracking is the caller's business:
    /// single puts index the request, batch sub-puts ack their origin.
    fn order_and_disseminate(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        item: TupleSpec,
        delete: bool,
        trace: Option<TraceCtx>,
    ) -> (u64, Version) {
        let key_hash = item.key.hash();
        let version = self.authority.assign(key_hash);
        let tuple = if delete {
            StoredTuple::tombstone(item.key, version)
        } else {
            StoredTuple::from_spec(item, version)
        };
        self.metadata.record_write(key_hash, version, &[]);
        self.cache.put(key_hash, version, tuple.clone());
        ctx.metrics().incr("soft.writes");
        let order = self.trace_hop(ctx, trace, "soft.order");
        self.disseminate(ctx, tuple, order);
        (key_hash, version)
    }

    fn start_write(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        req: u64,
        item: TupleSpec,
        delete: bool,
        trace: Option<TraceCtx>,
    ) {
        let (key_hash, version) = self.order_and_disseminate(ctx, item, delete, trace);
        self.put_index.insert((key_hash, version), req);
        let status = PutStatus { version, acks: 0 };
        self.complete(ctx, req, Done::Write { status, key_hash }, true);
    }

    /// Completes `req` with what its pending entry gathered, whichever path
    /// got here — last reply, death notice, or the deadline sweep. A
    /// multi-op that gave up on somebody counts as a partial.
    fn finish(&mut self, ctx: &mut Ctx<'_, DropletMsg>, req: u64, p: Pending) {
        match p.op {
            PendingOp::Get { .. } => self.complete(ctx, req, Done::Read(None), true),
            PendingOp::Scan { items } => {
                self.complete(ctx, req, Done::Scan(Self::finalize_gather(items)), true);
            }
            PendingOp::Aggregate { sketch, min, max } => {
                self.complete(ctx, req, Done::Aggregate { sketch, min, max }, true);
            }
            PendingOp::MultiPut { versions, want } => {
                let ordered = versions.len() >= want;
                if !ordered {
                    ctx.metrics().incr("soft.multi_put_partials");
                }
                let status = MultiPutStatus { items: versions.len(), versions };
                self.complete(ctx, req, Done::MultiPut(status), ordered);
            }
            PendingOp::MultiGet { items, full } => {
                if !full {
                    ctx.metrics().incr("soft.multi_get_partials");
                }
                let items = Self::finalize_gather(items);
                self.complete(ctx, req, Done::MultiGet { items, complete: full }, full);
            }
        }
    }

    /// A reply to pending `req` landed from `from`: stop waiting on it, let
    /// `fold` merge the payload, and finish the op once nobody owes a reply
    /// (for a read: nobody reachable *or* dark — a dark replica may hold the
    /// write, read-your-writes over availability).
    fn on_reply(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        req: u64,
        from: NodeId,
        fold: impl FnOnce(&mut PendingOp),
    ) {
        // Before the lookup: a scan this node gave up on still shows which
        // replicas answered it.
        self.trace_reply(ctx, req, from);
        let Some(p) = self.pending.get_mut(&req) else { return };
        if let Some(pos) = p.waiting.iter().position(|&n| n == from) {
            p.waiting.remove(pos);
        }
        fold(&mut p.op);
        let parked = matches!(&p.op, PendingOp::Get { unreached, .. } if !unreached.is_empty());
        if p.waiting.is_empty() && !parked {
            let p = self.pending.remove(&req).expect("present");
            self.finish(ctx, req, p);
        }
    }

    /// A persist node confirmed storage of `(key_hash, version)`: record
    /// the location hint, bump the put's ack count, and clear the
    /// re-delivery obligation for that node.
    fn note_stored(&mut self, from: NodeId, key_hash: u64, version: Version) {
        self.metadata.add_holder(key_hash, version, from);
        if let Some(&req) = self.put_index.get(&(key_hash, version)) {
            if let Some(Done::Write { status, .. }) = self.completed.get_mut(req) {
                status.acks += 1;
            }
        }
        if let Some(u) = self.undelivered.get_mut(&(key_hash, version)) {
            u.pending.retain(|&n| n != from);
            if u.pending.is_empty() {
                self.undelivered.remove(&(key_hash, version));
            }
        }
    }

    // ------------------------------------------------------------------
    // Tracing hooks (dd-trace). Every hook is a no-op in untraced runs:
    // no recorder is installed, the `trace` fields on messages are `None`,
    // and the two span maps stay empty — so traced and untraced runs walk
    // byte-identical protocol states.
    // ------------------------------------------------------------------

    /// Opens an instantaneous hop span (forwarding, ordering) under
    /// `parent` and returns the re-parented context for downstream
    /// messages.
    fn trace_hop(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        parent: Option<TraceCtx>,
        label: &'static str,
    ) -> Option<TraceCtx> {
        let p = parent?;
        let now = ctx.now();
        let me = ctx.id();
        let tr = ctx.tracer()?;
        let span = tr.open(now, me, p.op, Some(p.span), label);
        tr.close(now, p.op, span, true);
        Some(TraceCtx { op: p.op, span })
    }

    /// Opens the coordinator span of a traced op at this node; it stays
    /// open until [`SoftNode::trace_finish_op`].
    fn trace_coord(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        req: u64,
        parent: Option<TraceCtx>,
        label: &'static str,
    ) {
        let Some(p) = parent else { return };
        let now = ctx.now();
        let me = ctx.id();
        let Some(tr) = ctx.tracer() else { return };
        let span = tr.open(now, me, req, Some(p.span), label);
        self.trace_ops.insert(req, span);
    }

    /// The op's open coordinator span as a context (`None` when untraced).
    fn trace_ctx_of(&self, req: u64) -> Option<TraceCtx> {
        self.trace_ops.get(&req).map(|&span| TraceCtx { op: req, span })
    }

    /// Opens a wait span on `target` under the op's coordinator span and
    /// returns the context to embed in the outgoing request (`None` when
    /// the op is untraced). The span closes when the reply lands, when the
    /// op stops waiting, or — for a reply that never comes — at the trace
    /// horizon, which is exactly what pins a timeout on the silent node.
    fn trace_wait(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        req: u64,
        target: NodeId,
        label: &'static str,
    ) -> Option<TraceCtx> {
        let parent = *self.trace_ops.get(&req)?;
        let now = ctx.now();
        let tr = ctx.tracer()?;
        let span = tr.open(now, target, req, Some(parent), label);
        self.trace_waits.entry(req).or_default().push((target, span));
        Some(TraceCtx { op: req, span })
    }

    /// A reply from `from` landed: closes one of the op's wait spans on it
    /// as answered.
    fn trace_reply(&mut self, ctx: &mut Ctx<'_, DropletMsg>, req: u64, from: NodeId) {
        if self.trace_waits.is_empty() {
            return;
        }
        let Some(waits) = self.trace_waits.get_mut(&req) else { return };
        let Some(pos) = waits.iter().position(|&(n, _)| n == from) else { return };
        let (_, span) = waits.remove(pos);
        let empty = waits.is_empty();
        if empty {
            self.trace_waits.remove(&req);
        }
        let now = ctx.now();
        if let Some(tr) = ctx.tracer() {
            tr.close(now, req, span, true);
        }
    }

    /// The op stopped waiting on `peer` specifically (a death notice
    /// struck it from the waiting list): closes its wait spans on that
    /// peer as unanswered.
    fn trace_unwait(&mut self, ctx: &mut Ctx<'_, DropletMsg>, req: u64, peer: NodeId) {
        if self.trace_waits.is_empty() {
            return;
        }
        let Some(waits) = self.trace_waits.get_mut(&req) else { return };
        let now = ctx.now();
        let Some(tr) = ctx.tracer() else { return };
        waits.retain(|&(n, span)| {
            if n == peer {
                tr.close(now, req, span, false);
                false
            } else {
                true
            }
        });
        let empty = waits.is_empty();
        if empty {
            self.trace_waits.remove(&req);
        }
    }

    /// The op completed at this coordinator: closes any wait span still
    /// open as unanswered (deadline-swept stragglers), then the
    /// coordinator span itself.
    fn trace_finish_op(&mut self, ctx: &mut Ctx<'_, DropletMsg>, req: u64, answered: bool) {
        if self.trace_ops.is_empty() && self.trace_waits.is_empty() {
            return;
        }
        let waits = self.trace_waits.remove(&req);
        let coord = self.trace_ops.remove(&req);
        let now = ctx.now();
        let Some(tr) = ctx.tracer() else { return };
        for (_, span) in waits.into_iter().flatten() {
            tr.close(now, req, span, false);
        }
        if let Some(span) = coord {
            tr.close(now, req, span, answered);
        }
    }

    /// The replica this node is still waiting on for `req`, if the op is
    /// pending here — threaded into [`crate::OpError::Timeout`] so a
    /// timed-out client learns *which* node never replied.
    pub(crate) fn blame(&self, req: u64) -> Option<NodeId> {
        let p = self.pending.get(&req)?;
        let dark = match &p.op {
            PendingOp::Get { unreached, .. } => unreached.first(),
            _ => None,
        };
        p.waiting.first().or(dark).copied()
    }

    /// The failure detector declared `peer` dead: every pending op stops
    /// waiting on it, in request order — completions enter the retention
    /// log (whose cap retires by age) and close trace spans, so hash-map
    /// order must not reach them.
    fn strike_peer(&mut self, ctx: &mut Ctx<'_, DropletMsg>, peer: NodeId) {
        let mut struck: Vec<u64> = Vec::new();
        for (&req, p) in &mut self.pending {
            let before = p.waiting.len();
            p.waiting.retain(|&n| n != peer);
            if p.waiting.len() < before {
                struck.push(req);
            }
        }
        struck.sort_unstable();
        for req in struck {
            let p = self.pending.get_mut(&req).expect("struck above");
            let idle = p.waiting.is_empty();
            match &mut p.op {
                // A read is still semantically waiting: a heal re-fetches,
                // and its wait span stays open so a never-healed replica
                // shows as the hop that never answered.
                PendingOp::Get { unreached, .. } => {
                    unreached.push(peer);
                    continue;
                }
                // Neither has a partial result to report, and a revived
                // node never answers the old request: forget the op and
                // leave its session to time out. The trace keeps the wait
                // on `peer` open, as for a read.
                PendingOp::Scan { .. } | PendingOp::Aggregate { .. } => {
                    self.pending.remove(&req);
                    continue;
                }
                PendingOp::MultiGet { full, .. } => *full = false,
                PendingOp::MultiPut { .. } => {}
            }
            // Multi-ops genuinely stop waiting — their span on `peer`
            // closes unanswered now — and one whose last outstanding reply
            // was on it completes instead of sitting out the deadline.
            self.trace_unwait(ctx, req, peer);
            if idle {
                let p = self.pending.remove(&req).expect("struck above");
                self.finish(ctx, req, p);
            }
        }
    }

    /// The failure detector declared `peer` reachable again: re-fetch
    /// every read that was missing it, and re-deliver every acked write
    /// it still owes a storage confirmation for (the heal-recovery path —
    /// repair alone cannot restore a write no live owner ever received).
    fn peer_restored(&mut self, ctx: &mut Ctx<'_, DropletMsg>, peer: NodeId) {
        let mut refetches: Vec<(u64, u64, Version)> = Vec::new();
        for (&req, p) in &mut self.pending {
            let PendingOp::Get { key_hash, version, unreached } = &mut p.op else { continue };
            if let Some(pos) = unreached.iter().position(|&n| n == peer) {
                unreached.remove(pos);
                p.waiting.push(peer);
                refetches.push((req, *key_hash, *version));
            }
        }
        refetches.sort_unstable_by_key(|&(req, ..)| req);
        for (req, key_hash, version) in refetches {
            // A traced re-fetch opens a fresh wait span (the critical-path
            // walk credits the retry, not the first attempt).
            let trace = self.trace_wait(ctx, req, peer, "soft.fetch_wait");
            ctx.send(peer, DropletMsg::Fetch { req, key_hash, version, trace });
        }
        let mut owed: Vec<(u64, Version)> = self
            .undelivered
            .iter()
            .filter(|(_, u)| u.pending.contains(&peer))
            .map(|(&id, _)| id)
            .collect();
        // Deterministic order: versions of the same key must apply oldest
        // first so the receiver's store-changed accounting is replayable.
        owed.sort_unstable_by_key(|&(kh, v)| (kh, v.0));
        for id in owed {
            let tuple = self.undelivered[&id].tuple.clone();
            // Re-deliveries are untraced: the originating op was acked
            // (and its trace closed) long before the heal.
            self.enqueue_delivery(ctx, peer, tuple, None);
        }
    }

    /// Deduplicates gathered replica replies — latest version per key,
    /// tombstones dropped — and orders by attribute then key (the reply
    /// order of scans and tag-scoped reads alike).
    fn finalize_gather(items: Vec<StoredTuple>) -> Vec<StoredTuple> {
        let mut latest: HashMap<u64, StoredTuple> = HashMap::with_capacity(items.len());
        for t in items {
            match latest.get(&t.key_hash) {
                Some(e) if !t.supersedes(e) => {}
                _ => {
                    latest.insert(t.key_hash, t);
                }
            }
        }
        let mut out: Vec<StoredTuple> = latest.into_values().filter(|t| !t.deleted).collect();
        out.sort_by(|a, b| {
            a.attr
                .unwrap_or(f64::NAN)
                .total_cmp(&b.attr.unwrap_or(f64::NAN))
                .then(a.key.cmp(&b.key))
        });
        out
    }

    /// The persist nodes a tag-scoped read must contact: the tag's `r`
    /// slot-owners under tag placement, every persist peer otherwise.
    fn tag_read_targets(&self, tag_hash: u64) -> Vec<NodeId> {
        match self.tag_routing {
            Some(rt) => TagSieve::tag_slots(tag_hash, rt.slots, rt.r)
                .into_iter()
                .filter_map(|slot| self.persist.peers.get(slot as usize).copied())
                .collect(),
            None => self.persist.peers.clone(),
        }
    }

    /// Registers a scan or aggregate that went out to every persist peer —
    /// unless one of them is already known dead: it will never answer and
    /// neither op has a partial result to report, so the session times out
    /// on its own and the replies that do come find no entry.
    fn await_every_peer(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        req: u64,
        targets: Vec<NodeId>,
        op: PendingOp,
    ) {
        if targets.iter().all(|t| self.reachable.contains(t)) {
            self.pending.insert(req, Pending { waiting: targets, started: ctx.now(), op });
        }
    }

    /// Registers a multi-op under the deadline sweep, or completes it on
    /// the spot when there is nobody to wait for.
    fn await_multi_op(&mut self, ctx: &mut Ctx<'_, DropletMsg>, req: u64, p: Pending) {
        if p.waiting.is_empty() {
            self.finish(ctx, req, p);
            return;
        }
        self.pending.insert(req, p);
        // When this fires, this request (and any older one) is past its
        // timeout and completes with whatever arrived — a silently lost
        // reply must not hang the op.
        ctx.set_timer(Duration(MULTI_OP_TIMEOUT), MULTI_OP_TIMER);
    }

    fn start_read(&mut self, ctx: &mut Ctx<'_, DropletMsg>, req: u64, key: &Key) {
        let key_hash = key.hash();
        let latest = self.metadata.latest(key_hash);
        ctx.metrics().incr("soft.reads");
        if latest == Version::ZERO {
            // Key never written through this (healthy) soft layer.
            self.complete(ctx, req, Done::Read(None), true);
            return;
        }
        // §II: "the soft-layer always knows the most recent version … the
        // use of quorums at the persistent-state layer is not necessary."
        if let Some(t) = self.cache.get(key_hash, latest) {
            ctx.metrics().incr("soft.cache_hits");
            self.complete(ctx, req, Done::Read((!t.deleted).then_some(t)), true);
            return;
        }
        ctx.metrics().incr("soft.cache_misses");
        // Location hints first; random fallback otherwise.
        let mut targets: Vec<NodeId> = self.metadata.holders(key_hash).to_vec();
        if targets.is_empty() {
            let mut pool = self.persist.peers.clone();
            pool.shuffle(ctx.rng());
            pool.truncate(self.fallback_fetches);
            targets = pool;
            ctx.metrics().incr("soft.fallback_fetches");
        }
        if targets.is_empty() {
            self.complete(ctx, req, Done::Read(None), true);
            return;
        }
        // Fetch from the reachable replicas now; remember the unreachable
        // ones so a heal re-fetches instead of letting the op time out —
        // and never answer "not found" while one of them may hold the key.
        let (waiting, unreached): (Vec<NodeId>, Vec<NodeId>) =
            targets.into_iter().partition(|t| self.reachable.contains(t));
        for &t in &waiting {
            let trace = self.trace_wait(ctx, req, t, "soft.fetch_wait");
            ctx.send(t, DropletMsg::Fetch { req, key_hash, version: latest, trace });
        }
        let op = PendingOp::Get { key_hash, version: latest, unreached };
        self.pending.insert(req, Pending { waiting, started: ctx.now(), op });
    }

    /// Handles soft-layer messages; shared by the composite process.
    pub fn on_message(&mut self, ctx: &mut Ctx<'_, DropletMsg>, from: NodeId, msg: DropletMsg) {
        let me = ctx.id();
        match msg {
            DropletMsg::ClientPut { req, key, value, attr, tag, trace } => {
                if self.is_coordinator(me, key.hash()) {
                    let item = TupleSpec { key, value, attr, tag };
                    self.start_write(ctx, req, item, false, trace);
                } else if let Some(c) = self.coordinator_of(key.hash()) {
                    let trace = self.trace_hop(ctx, trace, "soft.forward");
                    ctx.send(c, DropletMsg::ClientPut { req, key, value, attr, tag, trace });
                }
            }
            DropletMsg::ClientDelete { req, key, trace } => {
                if self.is_coordinator(me, key.hash()) {
                    let item = TupleSpec { key, value: bytes::Bytes::new(), attr: None, tag: None };
                    self.start_write(ctx, req, item, true, trace);
                } else if let Some(c) = self.coordinator_of(key.hash()) {
                    let trace = self.trace_hop(ctx, trace, "soft.forward");
                    ctx.send(c, DropletMsg::ClientDelete { req, key, trace });
                }
            }
            DropletMsg::ClientGet { req, key, trace } => {
                if self.is_coordinator(me, key.hash()) {
                    self.trace_coord(ctx, req, trace, "soft.get");
                    self.start_read(ctx, req, &key);
                } else if let Some(c) = self.coordinator_of(key.hash()) {
                    let trace = self.trace_hop(ctx, trace, "soft.forward");
                    ctx.send(c, DropletMsg::ClientGet { req, key, trace });
                }
            }
            DropletMsg::ClientScan { req, lo, hi, trace } => {
                let targets = self.persist.peers.clone();
                self.trace_coord(ctx, req, trace, "soft.scan");
                if targets.is_empty() {
                    self.complete(ctx, req, Done::Scan(Vec::new()), true);
                    return;
                }
                for &t in &targets {
                    let trace = self.trace_wait(ctx, req, t, "soft.scan_wait");
                    ctx.send(t, DropletMsg::ScanReq { req, lo, hi, trace });
                }
                let op = PendingOp::Scan { items: Vec::new() };
                self.await_every_peer(ctx, req, targets, op);
            }
            DropletMsg::ClientMultiPut { req, items, trace } => {
                ctx.metrics().incr("soft.multi_puts");
                ctx.metrics().observe("multi_put.batch", items.len() as f64);
                self.trace_coord(ctx, req, trace, "soft.multi_put");
                if items.is_empty() {
                    self.complete(ctx, req, Done::MultiPut(MultiPutStatus::default()), true);
                    return;
                }
                let want = items.len();
                let coord_trace = self.trace_ctx_of(req);
                let mut versions = Vec::new();
                let mut waiting = Vec::new();
                let mut forwards = 0u64;
                for item in items {
                    let key_hash = item.key.hash();
                    if self.is_coordinator(me, key_hash) {
                        let (kh, version) =
                            self.order_and_disseminate(ctx, item, false, coord_trace);
                        versions.push((kh, version));
                    } else if let Some(c) = self.coordinator_of(key_hash) {
                        if self.reachable.contains(&c) {
                            forwards += 1;
                            waiting.push(c);
                            let trace = self.trace_wait(ctx, req, c, "soft.subput_wait");
                            ctx.send(c, DropletMsg::SubPut { req, origin: me, item, trace });
                        }
                        // Known-dead coordinator: its items cannot be
                        // ordered now — don't wait out the deadline for
                        // an ack that will never come.
                    }
                }
                ctx.metrics().add("multi_put.msgs", forwards);
                let op = PendingOp::MultiPut { versions, want };
                self.await_multi_op(ctx, req, Pending { waiting, started: ctx.now(), op });
            }
            DropletMsg::ClientMultiGet { req, tag, trace } => {
                let tag_hash = tag.hash();
                // Tag-scoped reads have a deterministic coordinator, like
                // keys: route by the tag's position in the soft ring.
                if !self.is_coordinator(me, tag_hash) {
                    if let Some(c) = self.coordinator_of(tag_hash) {
                        ctx.metrics().incr("soft.multi_get_forwards");
                        let trace = self.trace_hop(ctx, trace, "soft.forward");
                        ctx.send(c, DropletMsg::ClientMultiGet { req, tag, trace });
                    }
                    return;
                }
                ctx.metrics().incr("soft.multi_gets");
                self.trace_coord(ctx, req, trace, "soft.multi_get");
                let targets = self.tag_read_targets(tag_hash);
                // Only reachable slot-owners are contacted; skipping a
                // known-dead one marks the result partial immediately
                // instead of waiting out the deadline for it.
                let (waiting, skipped): (Vec<NodeId>, Vec<NodeId>) =
                    targets.into_iter().partition(|t| self.reachable.contains(t));
                ctx.metrics().observe("multi_get.contacted_nodes", waiting.len() as f64);
                ctx.metrics().add("multi_get.msgs", waiting.len() as u64);
                for &t in &waiting {
                    let trace = self.trace_wait(ctx, req, t, "soft.tagfetch_wait");
                    ctx.send(t, DropletMsg::TagFetch { req, tag_hash, trace });
                }
                // With nothing answerable the result is empty, and full
                // only when there were no owners at all to ask.
                let op = PendingOp::MultiGet { items: Vec::new(), full: skipped.is_empty() };
                self.await_multi_op(ctx, req, Pending { waiting, started: ctx.now(), op });
            }
            DropletMsg::SubPut { req, origin, item, trace } => {
                ctx.metrics().incr("soft.sub_puts");
                let (key_hash, version) = self.order_and_disseminate(ctx, item, false, trace);
                ctx.send(origin, DropletMsg::SubPutAck { req, key_hash, version });
            }
            DropletMsg::SubPutAck { req, key_hash, version } => {
                self.on_reply(ctx, req, from, |op| {
                    if let PendingOp::MultiPut { versions, .. } = op {
                        versions.push((key_hash, version));
                    }
                });
            }
            DropletMsg::TagFetchReply { req, items: found }
            | DropletMsg::ScanReply { req, items: found } => {
                self.on_reply(ctx, req, from, |op| {
                    if let PendingOp::MultiGet { items, .. } | PendingOp::Scan { items } = op {
                        items.extend(found);
                    }
                });
            }
            DropletMsg::ClientAggregate { req, trace } => {
                let targets = self.persist.peers.clone();
                self.trace_coord(ctx, req, trace, "soft.agg");
                if targets.is_empty() {
                    let sketch = dd_estimation::DistSketch::new(16);
                    let (min, max) = (f64::INFINITY, f64::NEG_INFINITY);
                    self.complete(ctx, req, Done::Aggregate { sketch, min, max }, true);
                    return;
                }
                for &t in &targets {
                    let trace = self.trace_wait(ctx, req, t, "soft.agg_wait");
                    ctx.send(t, DropletMsg::AggReq { req, trace });
                }
                let op = PendingOp::Aggregate {
                    sketch: dd_estimation::DistSketch::new(512),
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                };
                self.await_every_peer(ctx, req, targets, op);
            }
            DropletMsg::StoredAckBatch { acked } => {
                for (key_hash, version) in acked {
                    self.note_stored(from, key_hash, version);
                }
            }
            DropletMsg::FetchReply { req, found: Some(t) } => {
                // The first replica holding the version answers the read.
                if self.pending.remove(&req).is_none() {
                    return;
                }
                self.trace_reply(ctx, req, from);
                self.metadata.add_holder(t.key_hash, t.version, from);
                self.cache.put(t.key_hash, t.version, t.clone());
                self.complete(ctx, req, Done::Read((!t.deleted).then_some(t)), true);
            }
            DropletMsg::FetchReply { req, found: None } => self.on_reply(ctx, req, from, |_| {}),
            DropletMsg::PeerDown(peer) if self.reachable.remove(&peer) => {
                self.strike_peer(ctx, peer);
            }
            DropletMsg::PeerUp(peer) if self.reachable.insert(peer) => {
                self.peer_restored(ctx, peer);
            }
            DropletMsg::AggReply { req, sketch: theirs, min: lo, max: hi } => {
                self.on_reply(ctx, req, from, |op| {
                    if let PendingOp::Aggregate { sketch, min, max } = op {
                        sketch.merge(&theirs);
                        *min = min.min(lo);
                        *max = max.max(hi);
                    }
                });
            }
            _ => {}
        }
    }

    /// Handles the multi-op deadline sweep: every pending multi-get and
    /// multi-put older than [`MULTI_OP_TIMEOUT`] completes with what it
    /// gathered so far (each op's own timer fires exactly at its expiry,
    /// so this never cuts a request short).
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_, DropletMsg>, tag: TimerTag) {
        if tag == BATCH_TIMER {
            self.flush_outbox(ctx);
            return;
        }
        if tag != MULTI_OP_TIMER {
            return;
        }
        let now = ctx.now();
        let mut expired: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.op.has_deadline())
            .filter(|(_, p)| now.0.saturating_sub(p.started.0) >= MULTI_OP_TIMEOUT)
            .map(|(&req, _)| req)
            .collect();
        // Request order, never hash-map order (see `strike_peer`).
        expired.sort_unstable();
        for req in expired {
            let mut p = self.pending.remove(&req).expect("present");
            if let PendingOp::MultiGet { full, .. } = &mut p.op {
                *full = false;
            }
            self.finish(ctx, req, p);
        }
    }

    /// Re-arms the multi-op deadline sweep after a reboot: armed timers
    /// do not survive a crash, but pending multi-ops do (node state is
    /// retained), so without this any op in flight at crash time would
    /// neither complete nor expire.
    pub fn arm_timers(&mut self, ctx: &mut Ctx<'_, DropletMsg>) {
        if self.pending.values().any(|p| p.op.has_deadline()) {
            ctx.set_timer(Duration(MULTI_OP_TIMEOUT), MULTI_OP_TIMER);
        }
        if !self.outbox.is_empty() {
            self.outbox_armed = true;
            ctx.set_timer(Duration(BATCH_FLUSH_TICKS), BATCH_TIMER);
        } else {
            self.outbox_armed = false;
        }
    }

    /// Wipes all soft state (catastrophic failure, §II) — versions,
    /// metadata, cache, pending operations, delivery queues — and resets
    /// the failure-detector view to its optimistic baseline (the harness
    /// re-injects down notices for anything still dead).
    pub fn wipe(&mut self) {
        self.authority = VersionAuthority::new();
        self.metadata = Metadata::new(8);
        self.cache.clear();
        self.put_index.clear();
        self.pending.clear();
        self.outbox.clear();
        self.outbox_armed = false;
        self.trace_ops.clear();
        self.trace_waits.clear();
        self.undelivered.clear();
        self.undelivered_order.clear();
        self.reachable = self.known_peers.iter().copied().collect();
    }

    /// Reconstructs metadata and version counters from a persistent-layer
    /// scan (§II: "metadata can be reconstructed from the data reliably
    /// stored at the underlying persistent-state layer").
    pub fn reconstruct(&mut self, scan: impl IntoIterator<Item = (u64, Version, NodeId)>) {
        let scan: Vec<(u64, Version, NodeId)> = scan.into_iter().collect();
        self.metadata = Metadata::rebuild(8, scan.iter().copied());
        for &(key, version, _) in &scan {
            self.authority.observe(key, version);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinator_is_consistent_across_nodes() {
        let members: Vec<NodeId> = (0..4).map(NodeId).collect();
        let nodes: Vec<SoftNode> =
            (0..4).map(|_| SoftNode::new(&members, Arc::default(), 16)).collect();
        for k in 0..100u64 {
            let c0 = nodes[0].coordinator_of(k);
            for n in &nodes {
                assert_eq!(n.coordinator_of(k), c0);
            }
        }
    }

    #[test]
    fn completion_log_retires_oldest_beyond_cap() {
        let mut log = CompletionLog::new(4);
        for req in 1..=10u64 {
            let evicted = log.insert(req, req * 10);
            if req > 4 {
                assert_eq!(evicted, Some((req - 4, (req - 4) * 10)), "oldest entry retires");
            } else {
                assert_eq!(evicted, None);
            }
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.take(9), Some(90));
        assert_eq!(log.take(9), None, "harvest retires the record");
        assert_eq!(log.take(1), None, "pre-cap entries were retired");
    }

    #[test]
    fn completion_log_order_queue_stays_compact_under_harvest() {
        let mut log = CompletionLog::new(64);
        for req in 0..10_000u64 {
            log.insert(req, req);
            assert_eq!(log.take(req), Some(req));
            assert!(log.order.len() <= 2 * log.map.len() + 17, "lazy compaction bounds the queue");
        }
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn retiring_a_put_completion_releases_its_ack_route() {
        use rand::SeedableRng;
        let members = vec![NodeId(0)];
        let mut n = SoftNode::new(&members, Arc::default(), 16);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let mut metrics = dd_sim::Metrics::new();
        let spec = |i: u64| crate::tuple::TupleSpec::new(format!("k{i}"), vec![], None, None);
        let first = Key::from("k0").hash();
        dd_sim::engine::with_adhoc_ctx::<DropletMsg, _>(
            NodeId(0),
            Time(0),
            &mut rng,
            &mut metrics,
            |ctx| {
                // Drive writes far past the cap without ever harvesting.
                let writes = COMPLETION_RETENTION as u64 + 100;
                for i in 0..writes {
                    n.start_write(ctx, i, spec(i), false, None);
                }
                assert_eq!(n.completion_backlog(), COMPLETION_RETENTION, "completions capped");
                assert_eq!(n.put_index.len(), COMPLETION_RETENTION, "ack index retired with them");
                assert_eq!(n.completions_retired(), 100);

                // The cap is per coordinator, not per kind: reads and scans
                // age out an old *write* record, ack route included.
                let oldest = writes - COMPLETION_RETENTION as u64;
                let route = (Key::from(format!("k{oldest}").as_str()).hash(), Version(1));
                assert_eq!(n.put_index.get(&route), Some(&oldest));
                n.start_read(ctx, writes, &Key::from("never-written"));
                let scan =
                    DropletMsg::ClientScan { req: writes + 1, lo: 0.0, hi: 1.0, trace: None };
                n.on_message(ctx, NodeId(0), scan);
                assert_eq!(n.completion_backlog(), COMPLETION_RETENTION);
                assert_eq!(n.put_index.len(), COMPLETION_RETENTION - 2);
                assert!(!n.put_index.contains_key(&route), "evicted write lost its route");
                assert!(n.take(oldest).is_none() && n.take(oldest + 1).is_none());
                assert!(matches!(n.take(writes), Some(Done::Read(None))));
                assert!(matches!(n.take(writes + 1), Some(Done::Scan(items)) if items.is_empty()));

                // A late storage ack for the evicted write finds no record.
                let parked = n.completion_backlog();
                let ack = DropletMsg::StoredAckBatch { acked: vec![route] };
                n.on_message(ctx, NodeId(9), ack);
                assert_eq!(n.completion_backlog(), parked);
                assert!(!n.put_index.contains_key(&route));
                // …while one for a parked write still counts in place.
                let live = oldest + 2;
                let kh = Key::from(format!("k{live}").as_str()).hash();
                let ack = DropletMsg::StoredAckBatch { acked: vec![(kh, Version(1))] };
                n.on_message(ctx, NodeId(9), ack);
                assert!(
                    matches!(n.take(live), Some(Done::Write { status, .. }) if status.acks == 1)
                );
                assert!(!n.put_index.contains_key(&(kh, Version(1))), "harvest drops the route");
            },
        );
        assert_eq!(n.metadata.latest(first), Version(1), "eviction never touches metadata");
    }

    /// Runs `f` on `n` inside a detached context at virtual time `now`;
    /// returns the messages it sent.
    fn drive(
        n: &mut SoftNode,
        now: u64,
        f: impl FnOnce(&mut SoftNode, &mut Ctx<'_, DropletMsg>),
    ) -> Vec<(NodeId, DropletMsg)> {
        use dd_sim::engine::AdhocEffect;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let mut metrics = dd_sim::Metrics::new();
        let (_, effects) =
            dd_sim::engine::with_adhoc_ctx(NodeId(0), Time(now), &mut rng, &mut metrics, |ctx| {
                f(n, ctx);
            });
        effects
            .into_iter()
            .filter_map(|e| match e {
                AdhocEffect::Send { to, msg } => Some((to, msg)),
                AdhocEffect::Timer { .. } => None,
            })
            .collect()
    }

    #[test]
    fn a_coordinator_over_no_persist_layer_orders_writes_and_sends_nothing() {
        let mut n = SoftNode::new(&[NodeId(0)], Arc::default(), 16);
        let sent = drive(&mut n, 0, |n, ctx| {
            let (key, value) = (Key::from("k"), bytes::Bytes::new());
            let put =
                DropletMsg::ClientPut { req: 1, key, value, attr: None, tag: None, trace: None };
            n.on_message(ctx, NodeId(0), put);
            // A tombstone is wanted by every peer there is: still nobody.
            let delete = DropletMsg::ClientDelete { req: 2, key: Key::from("k"), trace: None };
            n.on_message(ctx, NodeId(0), delete);
            n.on_timer(ctx, BATCH_TIMER);
        });
        assert!(sent.is_empty(), "{sent:?}");
        for (req, version) in [(1, Version(1)), (2, Version(2))] {
            assert!(
                matches!(n.take(req), Some(Done::Write { status, .. }) if status.version == version)
            );
        }
        assert_eq!((n.undelivered_backlog(), n.outbox_depth()), (0, 0));
    }

    #[test]
    fn multi_gets_struck_or_expired_together_complete_in_request_order() {
        // Node 10 is the one persist owner *and* a soft member, so it owes
        // every kind of reply: fetches, tag fetches, scans and aggregates
        // as the owner, sub-put acks as a key coordinator.
        let (me, peer) = (NodeId(0), NodeId(10));
        let all = crate::sieve_spec::SieveSpec::Range { index: 0, of: 1, r: 1 };
        let persist = Arc::new(OwnerIndex::new(vec![peer], vec![all]));
        let reqs: Vec<u64> = (1..=15).collect();
        let of_kind = |kind: u64| reqs.iter().copied().filter(move |req| req % 5 == kind);
        let multi_ops: Vec<u64> = reqs.iter().copied().filter(|req| req % 5 < 2).collect();
        let with_pending_ops = || {
            let mut n = SoftNode::new(&[me, peer], Arc::clone(&persist), 16);
            // The `req`-th name the soft ring routes to coordinator `who`.
            let routed = |n: &SoftNode, who: NodeId, req: u64| {
                (0..)
                    .map(|i| format!("{req}:{i}"))
                    .find(|name| n.coordinator_of(Key::from(name.as_str()).hash()) == Some(who))
            };
            drive(&mut n, 0, |n, ctx| {
                for &req in &reqs {
                    let op = match req % 5 {
                        0 => {
                            let tag = crate::tuple::Tag::new(routed(n, me, req).unwrap());
                            DropletMsg::ClientMultiGet { req, tag, trace: None }
                        }
                        1 => {
                            let item =
                                TupleSpec::new(routed(n, peer, req).unwrap(), vec![], None, None);
                            DropletMsg::ClientMultiPut { req, items: vec![item], trace: None }
                        }
                        2 => {
                            let key = Key::from(routed(n, me, req).unwrap().as_str());
                            n.metadata.record_write(key.hash(), Version(1), &[peer]);
                            DropletMsg::ClientGet { req, key, trace: None }
                        }
                        3 => DropletMsg::ClientScan { req, lo: 0.0, hi: 1.0, trace: None },
                        _ => DropletMsg::ClientAggregate { req, trace: None },
                    };
                    n.on_message(ctx, me, op);
                }
            });
            assert_eq!(n.pending_ops(), reqs.len());
            n
        };
        // The log's order queue is age order — what the retention cap
        // retires by — so it must not depend on hash-map iteration, nor on
        // which kind of op a request is.
        let mut struck = with_pending_ops();
        drive(&mut struck, 1, |n, ctx| n.on_message(ctx, me, DropletMsg::PeerDown(peer)));
        assert!(struck.completed.order.iter().eq(&multi_ops), "{:?}", struck.completed.order);
        // Scans and aggregates are forgotten, reads park on the dark peer…
        assert_eq!(struck.pending_ops(), of_kind(2).count());
        assert!(of_kind(2).all(|req| struck.blame(req) == Some(peer)));
        // …and are re-fetched, then answered, once it is back.
        let refetched = drive(&mut struck, 2, |n, ctx| {
            n.on_message(ctx, me, DropletMsg::PeerUp(peer));
        });
        let fetches = refetched.iter().filter_map(|(to, msg)| match msg {
            DropletMsg::Fetch { req, .. } if *to == peer => Some(*req),
            _ => None,
        });
        assert!(fetches.eq(of_kind(2)), "{refetched:?}");
        drive(&mut struck, 3, |n, ctx| {
            for req in of_kind(2) {
                n.on_message(ctx, peer, DropletMsg::FetchReply { req, found: None });
            }
        });
        assert_eq!(struck.pending_ops(), 0);
        let finished: Vec<u64> = multi_ops.iter().copied().chain(of_kind(2)).collect();
        assert!(struck.completed.order.iter().eq(&finished), "exactly once each");
        assert!(of_kind(3).chain(of_kind(4)).all(|req| struck.take(req).is_none()));

        // The deadline is the multi-ops' alone.
        let mut expired = with_pending_ops();
        drive(&mut expired, MULTI_OP_TIMEOUT, |n, ctx| n.on_timer(ctx, MULTI_OP_TIMER));
        assert!(expired.completed.order.iter().eq(&multi_ops), "{:?}", expired.completed.order);
        assert_eq!(expired.pending_ops(), reqs.len() - multi_ops.len());
    }

    #[test]
    fn wipe_and_reconstruct_restores_versions() {
        let members = vec![NodeId(0)];
        let mut n = SoftNode::new(&members, Arc::default(), 16);
        // Simulate three writes' worth of authority state.
        let kh = Key::from("k").hash();
        n.authority.assign(kh);
        n.authority.assign(kh);
        n.metadata.record_write(kh, Version(2), &[NodeId(7)]);
        n.wipe();
        assert_eq!(n.metadata.latest(kh), Version::ZERO);
        n.reconstruct(vec![(kh, Version(2), NodeId(7))]);
        assert_eq!(n.metadata.latest(kh), Version(2));
        assert_eq!(n.metadata.holders(kh), &[NodeId(7)]);
        assert_eq!(n.authority.assign(kh), Version(3), "versions continue after rebuild");
    }
}
