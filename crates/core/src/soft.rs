//! The soft-state layer node: request ordering, versions, tuple cache,
//! metadata and read/write coordination (§II of the paper).

use crate::msg::{Answer, ClientOp, DropletMsg, Query, SKETCH_K};
use crate::sieve_spec::OwnerIndex;
use crate::tuple::{Key, StoredTuple, TupleSpec};
use dd_dht::{HashRing, Metadata, TupleCache, Version};
use dd_estimation::DistSketch;
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

/// Persist peers a read without location hints fetches from, drawn at
/// random.
const FALLBACK_FETCHES: usize = 5;

/// Bounded insertion-ordered log: a map plus age-order retirement. It
/// holds a coordinator's completions (by request id) and its undelivered
/// writes (by `(key_hash, version)`).
///
/// An id enters at most once — a completion is written when its operation
/// completes (later acks update in place), a write is tracked once per
/// version — so insertion order is age order, and retiring from the front
/// retires the oldest live entry. [`CompletionLog::take`] is the removal
/// path (a harvest, a last storage ack), so under well-behaved sessions
/// the log stays near-empty and the cap never bites.
#[derive(Debug, Clone)]
struct CompletionLog<K, T> {
    cap: usize,
    map: HashMap<K, T>,
    order: VecDeque<K>,
    /// Entries retired by the cap over the log's lifetime (telemetry: the
    /// leak guard firing; 0 under well-behaved sessions).
    retired: u64,
}

impl<K: Copy + Eq + std::hash::Hash, T> CompletionLog<K, T> {
    fn new(cap: usize) -> Self {
        CompletionLog { cap, map: HashMap::new(), order: VecDeque::new(), retired: 0 }
    }

    /// Records an entry; returns the entry retired to stay within the
    /// cap, if any, so the caller can release auxiliary state.
    fn insert(&mut self, id: K, v: T) -> Option<(K, T)> {
        if self.map.insert(id, v).is_none() {
            self.order.push_back(id);
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

    /// Removes the entry for `id`. The order queue is compacted lazily
    /// once it outgrows the live map.
    fn take(&mut self, id: K) -> Option<T> {
        let v = self.map.remove(&id);
        if self.order.len() > 2 * self.map.len() + 16 {
            self.order.retain(|id| self.map.contains_key(id));
        }
        v
    }

    fn get_mut(&mut self, id: K) -> Option<&mut T> {
        self.map.get_mut(&id)
    }

    /// Live entries, in no particular order.
    fn values(&self) -> impl Iterator<Item = &T> {
        self.map.values()
    }

    /// Number of retained entries.
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
    Aggregate { sketch: DistSketch, min: f64, max: f64 },
    /// A batched write.
    MultiPut(MultiPutStatus),
    /// A tag-scoped read: the deduplicated live tuples, and whether every
    /// contacted replica answered before the deadline.
    MultiGet { items: Vec<StoredTuple>, complete: bool },
    /// A scan or aggregate whose answering replicas leave some owner run
    /// uncovered ([`OwnerIndex::covers`]): `got` of the `want` persist
    /// peers answered.
    Partial { got: usize, want: usize },
}

/// Ticks a multi-tuple operation waits for stragglers before completing
/// with what it has. A dead slot-owner never answers a tag query, and a
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

/// An operation in flight at its coordinator, awaiting replies. Every kind
/// waits by one rule ([`Pending::settled`]) and gives up on a peer one way:
/// a target dark when asked, struck by a death notice or outlived by the
/// deadline moves to `silent`.
#[derive(Debug, Clone)]
struct Pending {
    /// The nodes still owing a reply, one entry per outstanding request (a
    /// multi-put lists a key coordinator once per item it owns).
    waiting: Vec<NodeId>,
    /// Targets that were dark when asked, or have been struck since.
    silent: Vec<NodeId>,
    /// When the op started, for the deadline sweep ([`MULTI_OP_TIMER`]).
    started: Time,
    op: PendingOp,
    /// The op's open trace spans, closed by [`SoftNode::complete`].
    spans: OpSpans,
}

impl Pending {
    /// Nobody reachable owes a reply. A read also waits out its silent
    /// replicas — a heal re-fetches from them ([`DropletMsg::PeerUp`]), so
    /// it never concludes "not found" while one may hold the write.
    fn settled(&self) -> bool {
        self.waiting.is_empty()
            && (self.silent.is_empty() || !matches!(self.op, PendingOp::Get { .. }))
    }
}

/// What differs between the kinds of pending operation: the reply folded
/// so far. A scan or aggregate that finishes with silent peers is whole
/// only when the peers that answered still cover every owner run
/// ([`OwnerIndex::covers`]), else it completes as [`Done::Partial`]; a
/// multi-get with silent peers completes incomplete.
#[derive(Debug, Clone)]
enum PendingOp {
    /// A single read of `key_hash` at `version`.
    Get { key_hash: u64, version: Version },
    /// A scan: the raw replica items gathered so far.
    Scan { items: Vec<StoredTuple> },
    /// An aggregate: the merged sketch and attribute bounds so far.
    Aggregate { sketch: DistSketch, min: f64, max: f64 },
    /// A batched write: the versions ordered so far, and the batch size for
    /// partial accounting.
    MultiPut { versions: Vec<(u64, Version)>, want: usize },
    /// A tag-scoped read: the gathered items.
    MultiGet { items: Vec<StoredTuple> },
}

impl PendingOp {
    /// Multi-ops complete with what they have at [`MULTI_OP_TIMEOUT`]; the
    /// other kinds are left to their session's own timeout.
    fn has_deadline(&self) -> bool {
        matches!(self, PendingOp::MultiPut { .. } | PendingOp::MultiGet { .. })
    }
}

/// The trace spans of one op at its coordinator: the coordinator span and
/// the open wait spans, as `(target, span)` pairs (a multi-put may wait on
/// one key coordinator for several items). Both stay empty when the op or
/// the run is untraced, so traced and untraced runs walk byte-identical
/// protocol states.
#[derive(Debug, Clone, Default)]
struct OpSpans {
    coord: Option<TraceCtx>,
    waits: Vec<(NodeId, u32)>,
}

impl OpSpans {
    /// Opens the coordinator span of an op traced under `parent` at this
    /// node; it stays open until the op completes.
    fn open(ctx: &mut Ctx<'_, DropletMsg>, parent: Option<TraceCtx>, label: &'static str) -> Self {
        OpSpans { coord: ctx.trace_open(parent, ctx.id(), label), waits: Vec::new() }
    }

    /// Opens a wait span on `target` under the coordinator span and returns
    /// the context to embed in the outgoing request. The span closes when
    /// the reply lands, when the op stops waiting, or — for a reply that
    /// never comes — at the trace horizon, which is exactly what pins a
    /// timeout on the silent node.
    fn wait(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        target: NodeId,
        label: &'static str,
    ) -> Option<TraceCtx> {
        let span = ctx.trace_open(self.coord, target, label)?;
        self.waits.push((target, span.span));
        Some(span)
    }

    /// Closes wait spans on `peer`: the first one as answered when its
    /// reply landed, every one as unanswered when the op stopped waiting on
    /// it (a death notice).
    fn close_waits(&mut self, ctx: &mut Ctx<'_, DropletMsg>, peer: NodeId, answered: bool) {
        let Some(TraceCtx { op, .. }) = self.coord else { return };
        while let Some(pos) = self.waits.iter().position(|&(n, _)| n == peer) {
            let (_, span) = self.waits.remove(pos);
            ctx.trace_close(TraceCtx { op, span }, answered);
            if answered {
                break;
            }
        }
    }

    /// The op completed: closes any wait span still open as unanswered
    /// (deadline-swept stragglers), then the coordinator span.
    fn close(self, ctx: &mut Ctx<'_, DropletMsg>, answered: bool) {
        let Some(coord) = self.coord else { return };
        for (_, span) in self.waits {
            ctx.trace_close(TraceCtx { op: coord.op, span }, false);
        }
        ctx.trace_close(coord, answered);
    }
}

/// A write acked to the client whose delivery to some owners is still
/// unconfirmed (they were unreachable, or the ack is simply in flight). The
/// tuple is the write's one shared copy, the one its delivery batches carry.
#[derive(Debug, Clone)]
struct Undelivered {
    tuple: Arc<StoredTuple>,
    pending: Vec<NodeId>,
}

/// One target's queued deliveries: each write's shared copy with the trace
/// context of the op that wrote it (`None` when untraced).
type Outbound = Vec<(Arc<StoredTuple>, Option<TraceCtx>)>;

/// Soft-state layer node.
#[derive(Debug, Clone)]
pub struct SoftNode {
    /// Ring over the *soft* nodes only (the moderately sized tier).
    pub ring: HashRing,
    /// Per-key latest version and location hints. It orders this node's
    /// writes as key coordinator ([`Metadata::assign`]) and is what
    /// [`SoftNode::reconstruct`] rebuilds from the persistent layer.
    pub metadata: Metadata,
    /// The tuple cache.
    pub cache: TupleCache<StoredTuple>,
    /// Every persist node's id and sieve, shared by all soft nodes. Sieve
    /// acceptance is deterministic, so a write goes *directly* to the nodes
    /// that will store it (batched [`DropletMsg::DeliverBatch`]) instead of
    /// being broadcast epidemically.
    pub persist: Arc<OwnerIndex>,

    /// Completed operations of every kind: req → reply. Written only by
    /// [`SoftNode::complete`], harvested (and retired) only by
    /// [`SoftNode::take`].
    completed: CompletionLog<u64, Done>,
    /// Ack routing for parked writes: `(key_hash, version)` → req. An entry
    /// lives exactly as long as its [`Done::Write`] record.
    put_index: HashMap<(u64, Version), u64>,
    /// Operations of every kind awaiting replies: req → what is still owed.
    pending: HashMap<u64, Pending>,

    /// Watched peers (soft members and persist peers) the local failure
    /// detector currently disbelieves; every other one is trusted.
    /// Maintained by [`DropletMsg::PeerDown`] / [`DropletMsg::PeerUp`]
    /// notices, and empty again after a wipe.
    unreachable: HashSet<NodeId>,
    /// Per-target dissemination batches awaiting a flush.
    outbox: HashMap<NodeId, Outbound>,
    outbox_armed: bool,
    /// Acked writes not yet confirmed stored at every owner, keyed by
    /// `(key_hash, version)`.
    undelivered: CompletionLog<(u64, Version), Undelivered>,
}

impl SoftNode {
    /// Creates a soft node.
    #[must_use]
    pub fn new(soft_members: &[NodeId], persist: Arc<OwnerIndex>, cache_capacity: usize) -> Self {
        let mut ring = HashRing::new();
        for &m in soft_members {
            ring.add(m, 16);
        }
        SoftNode {
            ring,
            metadata: Metadata::new(8),
            cache: TupleCache::new(cache_capacity),
            persist,
            completed: CompletionLog::new(COMPLETION_RETENTION),
            put_index: HashMap::new(),
            pending: HashMap::new(),
            unreachable: HashSet::new(),
            outbox: HashMap::new(),
            outbox_armed: false,
            undelivered: CompletionLog::new(UNDELIVERED_RETENTION),
        }
    }

    /// Number of watched peers the local failure detector currently trusts.
    #[must_use]
    pub fn trusted_peers(&self) -> usize {
        self.ring.len() + self.persist.peers.len() - self.unreachable.len()
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
    /// `spans` (`answered` = the reply is whole). The record the cap
    /// retires to make room, if any, takes its ack route with it.
    fn complete(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        req: u64,
        done: Done,
        spans: OpSpans,
        answered: bool,
    ) {
        spans.close(ctx, answered);
        if let Some((old, retired)) = self.completed.insert(req, done) {
            self.release_route(old, &retired);
        }
    }

    /// Harvests the reply to `req`, retiring the record (and, for a write,
    /// its ack route — late storage acks still update metadata).
    pub(crate) fn take(&mut self, req: u64) -> Option<Done> {
        let done = self.completed.take(req)?;
        self.release_route(req, &done);
        Some(done)
    }

    /// Drops the ack route of retired write record `req` — unless it names
    /// a later request: after a wipe resets the key's versions, a new
    /// write of the same key is ordered at the same `(key_hash, version)`
    /// while the pre-wipe record may still be parked.
    fn release_route(&mut self, req: u64, done: &Done) {
        let Done::Write { status, key_hash } = done else { return };
        let id = (*key_hash, status.version);
        if self.put_index.get(&id) == Some(&req) {
            self.put_index.remove(&id);
        }
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

    /// Queues one tuple for a target; flushes eagerly at [`BATCH_MAX`],
    /// otherwise arms the short batch timer once.
    fn enqueue_delivery(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        target: NodeId,
        tuple: Arc<StoredTuple>,
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

    fn send_batch(&mut self, ctx: &mut Ctx<'_, DropletMsg>, target: NodeId, batch: Outbound) {
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
        ctx.send(target, DropletMsg::DeliverBatch { tuples, traces });
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

    /// Delivers one ordered write to its owners and remembers it until
    /// every owner has confirmed storage, so a heal or revival can
    /// re-deliver it (the acked-while-owners-dark lost-write case; bounded
    /// by [`UNDELIVERED_RETENTION`]). The tuple is wrapped once: every
    /// owner's batch and the re-delivery log share that one copy.
    fn disseminate(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        tuple: StoredTuple,
        trace: Option<TraceCtx>,
    ) {
        // Sieve-routed direct delivery: acceptance is deterministic, so
        // sending only to the owners stores exactly the set a full
        // broadcast would, at ~replication-degree messages per tuple.
        let tuple = Arc::new(tuple);
        let owners = self.persist.owners_of(&tuple);
        for &owner in &owners {
            if !self.unreachable.contains(&owner) {
                self.enqueue_delivery(ctx, owner, Arc::clone(&tuple), trace);
            }
        }
        if !owners.is_empty() {
            let id = (tuple.key_hash, tuple.version);
            self.undelivered.insert(id, Undelivered { tuple, pending: owners });
        }
    }

    /// Orders one write at this (key-coordinator) node — assigns the
    /// version, records metadata, caches, disseminates — and returns the
    /// assigned identity. Completion tracking is the caller's business:
    /// single puts index the request, batch sub-puts ack their sender.
    fn order_and_disseminate(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        item: TupleSpec,
        delete: bool,
        trace: Option<TraceCtx>,
    ) -> (u64, Version) {
        let key_hash = item.key.hash();
        let version = self.metadata.assign(key_hash);
        let tuple = if delete {
            StoredTuple::tombstone(item.key, version)
        } else {
            StoredTuple::from_spec(item, version)
        };
        self.cache.put(key_hash, version, tuple.clone());
        ctx.metrics().incr("soft.writes");
        let order = ctx.trace_instant(trace, "soft.order");
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
        self.complete(ctx, req, Done::Write { status, key_hash }, OpSpans::default(), true);
    }

    /// Completes `req` with what its pending entry gathered, whichever path
    /// got here — last reply, death notice, or the deadline sweep. An op
    /// that gave up on somebody counts as a partial, unless it is a scan or
    /// aggregate whose answers still cover every owner.
    fn finish(&mut self, ctx: &mut Ctx<'_, DropletMsg>, req: u64, p: Pending) {
        let (done, answered) = match p.op {
            PendingOp::Get { .. } => (Done::Read(None), true),
            PendingOp::Scan { .. } | PendingOp::Aggregate { .. }
                if !self.persist.covers(&p.silent) =>
            {
                let want = self.persist.peers.len();
                (Done::Partial { got: want - p.silent.len(), want }, false)
            }
            PendingOp::Scan { items } => (Done::Scan(Self::finalize_gather(items)), true),
            PendingOp::Aggregate { sketch, min, max } => {
                (Done::Aggregate { sketch, min, max }, true)
            }
            PendingOp::MultiPut { versions, want } => {
                let ordered = versions.len() >= want;
                if !ordered {
                    ctx.metrics().incr("soft.multi_put_partials");
                }
                (Done::MultiPut(MultiPutStatus { items: versions.len(), versions }), ordered)
            }
            PendingOp::MultiGet { items } => {
                let full = p.silent.is_empty();
                if !full {
                    ctx.metrics().incr("soft.multi_get_partials");
                }
                let items = Self::finalize_gather(items);
                (Done::MultiGet { items, complete: full }, full)
            }
        };
        self.complete(ctx, req, done, p.spans, answered);
    }

    /// A reply to pending `req` landed from `from`: stop waiting on it, fold
    /// the answer into the op, and finish the op once it is settled. A
    /// found tuple completes its read at once; a late one changes nothing.
    fn on_reply(&mut self, ctx: &mut Ctx<'_, DropletMsg>, req: u64, from: NodeId, answer: Answer) {
        let Some(p) = self.pending.get_mut(&req) else { return };
        p.spans.close_waits(ctx, from, true);
        if let Answer::Found(Some(t)) = answer {
            // The first replica holding the version answers the read.
            let p = self.pending.remove(&req).expect("present");
            self.metadata.add_holder(t.key_hash, t.version, from);
            self.cache.put(t.key_hash, t.version, t.clone());
            self.complete(ctx, req, Done::Read((!t.deleted).then_some(t)), p.spans, true);
            return;
        }
        if let Some(pos) = p.waiting.iter().position(|&n| n == from) {
            p.waiting.remove(pos);
        }
        match (&mut p.op, answer) {
            (
                PendingOp::Scan { items } | PendingOp::MultiGet { items, .. },
                Answer::InRange(found) | Answer::Tagged(found),
            ) => items.extend(found),
            (
                PendingOp::Aggregate { sketch, min, max },
                Answer::Summary { sketch: theirs, min: lo, max: hi },
            ) => {
                sketch.merge(&theirs);
                *min = min.min(lo);
                *max = max.max(hi);
            }
            (PendingOp::MultiPut { versions, .. }, Answer::Ordered { key_hash, version }) => {
                versions.push((key_hash, version));
            }
            _ => {}
        }
        if p.settled() {
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
        if let Some(u) = self.undelivered.get_mut((key_hash, version)) {
            u.pending.retain(|&n| n != from);
            if u.pending.is_empty() {
                self.undelivered.take((key_hash, version));
            }
        }
    }

    /// The replica this node is still waiting on for `req`, if the op is
    /// pending here — threaded into [`crate::OpError::Timeout`] so a
    /// timed-out client learns *which* node never replied.
    pub(crate) fn blame(&self, req: u64) -> Option<NodeId> {
        let p = self.pending.get(&req)?;
        p.waiting.first().or(p.silent.first()).copied()
    }

    /// The failure detector declared `peer` dead: every pending op that
    /// waited on it moves it to `silent`, in request order — completions
    /// enter the retention log (whose cap retires by age) and close trace
    /// spans, so hash-map order must not reach them. A scan or aggregate
    /// then finishes once settled, whole if the peers that answered cover
    /// every owner and [`Done::Partial`] otherwise.
    fn strike_peer(&mut self, ctx: &mut Ctx<'_, DropletMsg>, peer: NodeId) {
        let mut struck: Vec<u64> = Vec::new();
        for (&req, p) in &mut self.pending {
            let before = p.waiting.len();
            p.waiting.retain(|&n| n != peer);
            if p.waiting.len() < before {
                p.silent.push(peer);
                struck.push(req);
            }
        }
        struck.sort_unstable();
        for req in struck {
            // A read is still semantically waiting: a heal re-fetches, and
            // its wait span stays open so a never-healed replica shows as
            // the hop that never answered. Any other op genuinely stops
            // waiting — its span on `peer` closes unanswered now.
            let p = self.pending.get_mut(&req).expect("struck above");
            if !matches!(p.op, PendingOp::Get { .. }) {
                p.spans.close_waits(ctx, peer, false);
            }
            if p.settled() {
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
        let mut refetches: Vec<(u64, Query)> = Vec::new();
        for (&req, p) in &mut self.pending {
            let PendingOp::Get { key_hash, version } = p.op else { continue };
            if let Some(pos) = p.silent.iter().position(|&n| n == peer) {
                p.silent.remove(pos);
                p.waiting.push(peer);
                refetches.push((req, Query::Get { key_hash, version }));
            }
        }
        refetches.sort_unstable_by_key(|&(req, _)| req);
        for (req, query) in refetches {
            // A traced re-fetch opens a fresh wait span (the critical-path
            // walk credits the retry, not the first attempt).
            let spans = &mut self.pending.get_mut(&req).expect("collected above").spans;
            Self::ask(ctx, req, spans, &[peer], query);
        }
        let mut owed: Vec<Arc<StoredTuple>> = self
            .undelivered
            .values()
            .filter(|u| u.pending.contains(&peer))
            .map(|u| Arc::clone(&u.tuple))
            .collect();
        // Deterministic order: versions of the same key must apply oldest
        // first so the receiver's store-changed accounting is replayable.
        owed.sort_unstable_by_key(|t| (t.key_hash, t.version.0));
        for tuple in owed {
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

    /// Sends `query` to each target, each under its own wait span.
    fn ask(
        ctx: &mut Ctx<'_, DropletMsg>,
        req: u64,
        spans: &mut OpSpans,
        targets: &[NodeId],
        query: Query,
    ) {
        let label = match query {
            Query::Get { .. } => "soft.fetch_wait",
            Query::Tag(_) => "soft.tagfetch_wait",
            Query::Range { .. } => "soft.scan_wait",
            Query::Aggregate => "soft.agg_wait",
        };
        for &t in targets {
            let trace = spans.wait(ctx, t, label);
            ctx.send(t, DropletMsg::Ask { req, query, trace });
        }
    }

    /// Asks the reachable `targets` `query` and registers the op, the
    /// unreachable ones silent from the start. Returns how many were asked.
    fn gather(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        req: u64,
        targets: Vec<NodeId>,
        query: Query,
        op: PendingOp,
        mut spans: OpSpans,
    ) -> usize {
        let (waiting, silent): (Vec<NodeId>, Vec<NodeId>) =
            targets.into_iter().partition(|t| !self.unreachable.contains(t));
        Self::ask(ctx, req, &mut spans, &waiting, query);
        let asked = waiting.len();
        self.register(ctx, req, Pending { waiting, silent, started: ctx.now(), op, spans });
        asked
    }

    /// Completes `p` on the spot when it is already settled; otherwise
    /// records it, a multi-op under the deadline sweep.
    fn register(&mut self, ctx: &mut Ctx<'_, DropletMsg>, req: u64, p: Pending) {
        if p.settled() {
            self.finish(ctx, req, p);
            return;
        }
        let deadline = p.op.has_deadline();
        self.pending.insert(req, p);
        if deadline {
            // When this fires, this request (and any older one) is past its
            // timeout and completes with whatever arrived — a silently lost
            // reply must not hang the op.
            ctx.set_timer(Duration(MULTI_OP_TIMEOUT), MULTI_OP_TIMER);
        }
    }

    fn start_read(&mut self, ctx: &mut Ctx<'_, DropletMsg>, req: u64, key: &Key, spans: OpSpans) {
        let key_hash = key.hash();
        let latest = self.metadata.latest(key_hash);
        ctx.metrics().incr("soft.reads");
        if latest == Version::ZERO {
            // Key never written through this (healthy) soft layer.
            self.complete(ctx, req, Done::Read(None), spans, true);
            return;
        }
        // §II: "the soft-layer always knows the most recent version … the
        // use of quorums at the persistent-state layer is not necessary."
        if let Some(t) = self.cache.get(key_hash, latest) {
            ctx.metrics().incr("soft.cache_hits");
            self.complete(ctx, req, Done::Read((!t.deleted).then_some(t)), spans, true);
            return;
        }
        ctx.metrics().incr("soft.cache_misses");
        // Location hints first; random fallback otherwise.
        let mut targets: Vec<NodeId> = self.metadata.holders(key_hash).to_vec();
        if targets.is_empty() {
            let mut pool = self.persist.peers.clone();
            pool.shuffle(ctx.rng());
            pool.truncate(FALLBACK_FETCHES);
            targets = pool;
            ctx.metrics().incr("soft.fallback_fetches");
        }
        let op = PendingOp::Get { key_hash, version: latest };
        self.gather(ctx, req, targets, Query::Get { key_hash, version: latest }, op, spans);
    }

    /// Coordinates client op `req` at this node, which is its key's or
    /// tag's coordinator or, for an op without a routing hash, the node it
    /// entered at.
    fn coordinate(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        req: u64,
        op: ClientOp,
        trace: Option<TraceCtx>,
    ) {
        match op {
            ClientOp::Put(item) => self.start_write(ctx, req, item, false, trace),
            ClientOp::Delete(key) => {
                let item = TupleSpec { key, value: bytes::Bytes::new(), attr: None, tag: None };
                self.start_write(ctx, req, item, true, trace);
            }
            ClientOp::Get(key) => {
                let spans = OpSpans::open(ctx, trace, "soft.get");
                self.start_read(ctx, req, &key, spans);
            }
            ClientOp::Scan { lo, hi } => {
                let spans = OpSpans::open(ctx, trace, "soft.scan");
                let op = PendingOp::Scan { items: Vec::new() };
                let targets = self.persist.peers.clone();
                self.gather(ctx, req, targets, Query::Range { lo, hi }, op, spans);
            }
            ClientOp::Aggregate => {
                let spans = OpSpans::open(ctx, trace, "soft.agg");
                let op = PendingOp::Aggregate {
                    sketch: DistSketch::new(SKETCH_K),
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                };
                self.gather(ctx, req, self.persist.peers.clone(), Query::Aggregate, op, spans);
            }
            ClientOp::MultiPut(items) => {
                ctx.metrics().incr("soft.multi_puts");
                ctx.metrics().observe("multi_put.batch", items.len() as f64);
                let mut spans = OpSpans::open(ctx, trace, "soft.multi_put");
                if items.is_empty() {
                    self.complete(ctx, req, Done::MultiPut(MultiPutStatus::default()), spans, true);
                    return;
                }
                let (me, want) = (ctx.id(), items.len());
                let (mut versions, mut waiting, mut silent) = (Vec::new(), Vec::new(), Vec::new());
                for item in items {
                    match self.coordinator_of(item.key.hash()) {
                        Some(c) if c == me => {
                            let ordered = self.order_and_disseminate(ctx, item, false, spans.coord);
                            versions.push(ordered);
                        }
                        // A known-dead coordinator cannot order its items
                        // now — don't wait out the deadline for an ack that
                        // will never come.
                        Some(c) if !self.unreachable.contains(&c) => {
                            waiting.push(c);
                            let trace = spans.wait(ctx, c, "soft.subput_wait");
                            ctx.send(c, DropletMsg::SubPut { req, item, trace });
                        }
                        Some(c) => silent.push(c),
                        None => {}
                    }
                }
                ctx.metrics().add("multi_put.msgs", waiting.len() as u64);
                let op = PendingOp::MultiPut { versions, want };
                self.register(ctx, req, Pending { waiting, silent, started: ctx.now(), op, spans });
            }
            ClientOp::MultiGet(tag) => {
                let tag_hash = tag.hash();
                ctx.metrics().incr("soft.multi_gets");
                let spans = OpSpans::open(ctx, trace, "soft.multi_get");
                // Skipping a known-dead slot-owner marks the result partial
                // at once instead of waiting out the deadline for it.
                let targets = self.persist.tag_targets(tag_hash);
                let op = PendingOp::MultiGet { items: Vec::new() };
                let asked = self.gather(ctx, req, targets, Query::Tag(tag_hash), op, spans);
                ctx.metrics().observe("multi_get.contacted_nodes", asked as f64);
                ctx.metrics().add("multi_get.msgs", asked as u64);
            }
        }
    }

    /// Handles soft-layer messages; shared by the composite process.
    pub fn on_message(&mut self, ctx: &mut Ctx<'_, DropletMsg>, from: NodeId, msg: DropletMsg) {
        match msg {
            DropletMsg::Client { req, op, trace } => {
                // A key or tag has one coordinator, the primary soft-ring
                // owner of its hash: an op that entered elsewhere is
                // forwarded there, once.
                match op.route().map(|hash| self.coordinator_of(hash)) {
                    Some(Some(c)) if c != ctx.id() => {
                        ctx.metrics().incr("soft.forwards");
                        let trace = ctx.trace_instant(trace, "soft.forward");
                        ctx.send(c, DropletMsg::Client { req, op, trace });
                    }
                    // An empty soft ring coordinates nothing.
                    Some(None) => {}
                    _ => self.coordinate(ctx, req, op, trace),
                }
            }
            DropletMsg::SubPut { req, item, trace } => {
                ctx.metrics().incr("soft.sub_puts");
                let (key_hash, version) = self.order_and_disseminate(ctx, item, false, trace);
                let answer = Answer::Ordered { key_hash, version };
                ctx.send(from, DropletMsg::Reply { req, answer });
            }
            DropletMsg::Reply { req, answer } => self.on_reply(ctx, req, from, answer),
            DropletMsg::StoredAckBatch { acked } => {
                for (key_hash, version) in acked {
                    self.note_stored(from, key_hash, version);
                }
            }
            DropletMsg::PeerDown(peer) if self.unreachable.insert(peer) => {
                self.strike_peer(ctx, peer);
            }
            DropletMsg::PeerUp(peer) if self.unreachable.remove(&peer) => {
                self.peer_restored(ctx, peer);
            }
            _ => {}
        }
    }

    /// Handles the multi-op deadline sweep: every pending multi-get and
    /// multi-put older than [`MULTI_OP_TIMEOUT`] gives up on whoever still
    /// owes a reply and completes with what it gathered so far (each op's
    /// own timer fires exactly at its expiry, so this never cuts a request
    /// short).
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
            p.silent.append(&mut p.waiting);
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

    /// Wipes all soft state (catastrophic failure, §II) — metadata and
    /// with it the versions, cache, pending operations and their trace
    /// spans (left open, so they close unanswered at the trace horizon),
    /// delivery queues — and resets the failure-detector view to its
    /// optimistic baseline (the harness re-injects down notices for
    /// anything still dead).
    pub fn wipe(&mut self) {
        self.metadata = Metadata::new(8);
        self.cache.clear();
        self.put_index.clear();
        self.pending.clear();
        self.outbox.clear();
        self.outbox_armed = false;
        self.undelivered = CompletionLog::new(UNDELIVERED_RETENTION);
        self.unreachable.clear();
    }

    /// Folds a persistent-layer scan into the metadata (§II: "metadata can
    /// be reconstructed from the data reliably stored at the underlying
    /// persistent-state layer"); later writes are ordered above every
    /// version it reports.
    pub fn reconstruct(&mut self, scan: impl IntoIterator<Item = (u64, Version, NodeId)>) {
        self.metadata.reconstruct(scan);
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
                n.start_read(ctx, writes, &Key::from("never-written"), OpSpans::default());
                let scan = client(writes + 1, ClientOp::Scan { lo: 0.0, hi: 1.0 });
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

    #[test]
    fn undelivered_writes_retire_oldest_live_first_and_redeliver_sorted() {
        let (me, peer) = (NodeId(0), NodeId(10));
        let mut n = SoftNode::new(
            &[me],
            Arc::new(OwnerIndex::new(vec![peer], crate::Placement::RangePartition, 1)),
            16,
        );
        let id = |i: u64| (Key::from(format!("k{i}").as_str()).hash(), Version(1));
        let write = |n: &mut SoftNode, ctx: &mut Ctx<'_, DropletMsg>, i: u64| {
            n.start_write(ctx, i, TupleSpec::new(format!("k{i}"), vec![], None, None), false, None);
        };
        // The only owner is dark: every write stays owed to it.
        let cap = UNDELIVERED_RETENTION as u64;
        let sent = drive(&mut n, 0, |n, ctx| {
            n.on_message(ctx, me, DropletMsg::PeerDown(peer));
            (0..cap + 3).for_each(|i| write(n, ctx, i));
        });
        assert!(sent.is_empty(), "nothing reaches a dark owner");
        assert_eq!(n.undelivered_backlog(), UNDELIVERED_RETENTION);
        assert!(
            (0..3).all(|i| !n.undelivered.map.contains_key(&id(i))),
            "the three oldest retired"
        );
        // A storage ack clears k3; past the cap again, the oldest *live*
        // entry (k4) retires, not k3's stale slot.
        drive(&mut n, 1, |n, ctx| {
            n.on_message(ctx, peer, DropletMsg::StoredAckBatch { acked: vec![id(3)] });
            (cap + 3..cap + 5).for_each(|i| write(n, ctx, i));
        });
        assert_eq!(n.undelivered_backlog(), UNDELIVERED_RETENTION);
        assert!(!n.undelivered.map.contains_key(&id(4)) && n.undelivered.map.contains_key(&id(5)));
        // The owner's return re-delivers everything still owed, in
        // `(key_hash, version)` order.
        let sent = drive(&mut n, 2, |n, ctx| {
            n.on_message(ctx, me, DropletMsg::PeerUp(peer));
            n.on_timer(ctx, BATCH_TIMER);
        });
        let redelivered: Vec<(u64, Version)> = sent
            .iter()
            .flat_map(|(_, msg)| match msg {
                DropletMsg::DeliverBatch { tuples, .. } => tuples.as_slice(),
                _ => &[],
            })
            .map(|t| (t.key_hash, t.version))
            .collect();
        assert_eq!(redelivered.len(), UNDELIVERED_RETENTION);
        assert!(redelivered.is_sorted(), "re-deliveries go out sorted");
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

    /// An untraced client message.
    fn client(req: u64, op: ClientOp) -> DropletMsg {
        DropletMsg::Client { req, op, trace: None }
    }

    /// A write of key `k`.
    fn put_k() -> ClientOp {
        ClientOp::Put(TupleSpec::new("k", vec![], None, None))
    }

    #[test]
    fn a_routed_op_is_forwarded_once_and_the_others_are_coordinated_at_entry() {
        let me = NodeId(0);
        let members: Vec<NodeId> = (0..4).map(NodeId).collect();
        let persist =
            Arc::new(OwnerIndex::new(vec![NodeId(10)], crate::Placement::RangePartition, 1));
        let mut n = SoftNode::new(&members, persist, 16);
        // A name the soft ring routes away from / to this node (a key and
        // a tag of the same text hash alike).
        let name = |n: &SoftNode, here: bool| {
            (0..)
                .map(|i| format!("x{i}"))
                .find(|s| (n.coordinator_of(Key::from(s.as_str()).hash()) == Some(me)) == here)
                .unwrap()
        };
        let routed = |name: &str| {
            [
                ClientOp::Put(TupleSpec::new(name, vec![], None, None)),
                ClientOp::Get(Key::from(name)),
                ClientOp::Delete(Key::from(name)),
                ClientOp::MultiGet(crate::tuple::Tag::from(name)),
            ]
        };
        for (req, op) in (1..).zip(routed(&name(&n, false))) {
            let hash = op.route().expect("routed");
            let sent = drive(&mut n, 0, |n, ctx| n.on_message(ctx, me, client(req, op.clone())));
            let [(to, DropletMsg::Client { req: fwd, op: fwd_op, .. })] = sent.as_slice() else {
                panic!("one forward expected: {sent:?}")
            };
            assert_eq!((Some(*to), *fwd, fwd_op), (n.ring.primary(hash), req, &op));
        }
        assert_eq!((n.pending_ops(), n.completion_backlog()), (0, 0), "nothing coordinated");
        // At its coordinator the same ops are not forwarded again; scans,
        // aggregates and multi-puts stay wherever they enter.
        let far = TupleSpec::new(name(&n, false), vec![], None, None);
        let local = [
            ClientOp::Scan { lo: 0.0, hi: 1.0 },
            ClientOp::Aggregate,
            ClientOp::MultiPut(vec![far]),
        ];
        let ops = routed(&name(&n, true)).into_iter().chain(local);
        let sent = drive(&mut n, 1, |n, ctx| {
            (10..).zip(ops).for_each(|(req, op)| n.on_message(ctx, me, client(req, op)));
        });
        assert!(sent.iter().all(|(_, m)| !matches!(m, DropletMsg::Client { .. })), "{sent:?}");
        // The put, the get (a cache hit) and the delete complete here; the
        // multi-get, scan, aggregate and multi-put await replies.
        assert_eq!((n.completion_backlog(), n.pending_ops()), (3, 4));
    }

    #[test]
    fn a_write_after_a_wipe_keeps_its_ack_route_when_the_older_record_is_harvested() {
        let (me, peer) = (NodeId(0), NodeId(10));
        let mut n = SoftNode::new(&[me], Arc::default(), 16);
        drive(&mut n, 0, |n, ctx| n.on_message(ctx, me, client(1, put_k())));
        n.wipe();
        drive(&mut n, 1, |n, ctx| n.on_message(ctx, me, client(2, put_k())));
        // The wipe reset the key's versions: both writes hold version 1.
        assert!(
            matches!(n.take(1), Some(Done::Write { status, .. }) if status.version == Version(1))
        );
        let acked = vec![(Key::from("k").hash(), Version(1))];
        drive(&mut n, 2, |n, ctx| n.on_message(ctx, peer, DropletMsg::StoredAckBatch { acked }));
        let second = n.take(2);
        assert!(
            matches!(second, Some(Done::Write { status, .. }) if status == PutStatus { version: Version(1), acks: 1 }),
            "{second:?}"
        );
    }

    #[test]
    fn a_coordinator_over_no_persist_layer_orders_writes_and_sends_nothing() {
        let mut n = SoftNode::new(&[NodeId(0)], Arc::default(), 16);
        let sent = drive(&mut n, 0, |n, ctx| {
            n.on_message(ctx, NodeId(0), client(1, put_k()));
            // A tombstone is wanted by every peer there is: still nobody.
            n.on_message(ctx, NodeId(0), client(2, ClientOp::Delete(Key::from("k"))));
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
        let persist = Arc::new(OwnerIndex::new(vec![peer], crate::Placement::RangePartition, 1));
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
                            ClientOp::MultiGet(crate::tuple::Tag::new(routed(n, me, req).unwrap()))
                        }
                        1 => {
                            let item =
                                TupleSpec::new(routed(n, peer, req).unwrap(), vec![], None, None);
                            ClientOp::MultiPut(vec![item])
                        }
                        2 => {
                            let key = Key::from(routed(n, me, req).unwrap().as_str());
                            n.reconstruct([(key.hash(), Version(1), peer)]);
                            ClientOp::Get(key)
                        }
                        3 => ClientOp::Scan { lo: 0.0, hi: 1.0 },
                        _ => ClientOp::Aggregate,
                    };
                    n.on_message(ctx, me, client(req, op));
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
        let unparked: Vec<u64> = reqs.iter().copied().filter(|req| req % 5 != 2).collect();
        assert!(struck.completed.order.iter().eq(&unparked), "{:?}", struck.completed.order);
        // Scans and aggregates lost their one owner and complete partial,
        // reads park on the dark peer…
        assert!(of_kind(3)
            .chain(of_kind(4))
            .all(|req| matches!(struck.completed.map[&req], Done::Partial { got: 0, want: 1 })));
        assert_eq!(struck.pending_ops(), of_kind(2).count());
        assert!(of_kind(2).all(|req| struck.blame(req) == Some(peer)));
        // …and are re-fetched, then answered, once it is back.
        let refetched = drive(&mut struck, 2, |n, ctx| {
            n.on_message(ctx, me, DropletMsg::PeerUp(peer));
        });
        let fetches = refetched.iter().filter_map(|(to, msg)| match msg {
            DropletMsg::Ask { req, query: Query::Get { .. }, .. } if *to == peer => Some(*req),
            _ => None,
        });
        assert!(fetches.eq(of_kind(2)), "{refetched:?}");
        drive(&mut struck, 3, |n, ctx| {
            for req in of_kind(2) {
                n.on_message(ctx, peer, DropletMsg::Reply { req, answer: Answer::Found(None) });
            }
        });
        assert_eq!(struck.pending_ops(), 0);
        let finished: Vec<u64> = unparked.iter().copied().chain(of_kind(2)).collect();
        assert!(struck.completed.order.iter().eq(&finished), "exactly once each");

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
        // Simulate two writes' worth of version state.
        let kh = Key::from("k").hash();
        n.metadata.assign(kh);
        n.metadata.assign(kh);
        n.metadata.add_holder(kh, Version(2), NodeId(7));
        n.wipe();
        assert_eq!(n.metadata.latest(kh), Version::ZERO);
        n.reconstruct(vec![(kh, Version(2), NodeId(7))]);
        assert_eq!(n.metadata.latest(kh), Version(2));
        assert_eq!(n.metadata.holders(kh), &[NodeId(7)]);
        assert_eq!(n.metadata.assign(kh), Version(3), "versions continue after rebuild");
    }
}
