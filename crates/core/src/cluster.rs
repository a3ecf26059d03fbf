//! Whole-system harness and public API.
//!
//! A [`Cluster`] hosts a complete DataDroplets deployment — `soft_n`
//! soft-state nodes and `persist_n` persistent-state nodes — inside one
//! deterministic simulation. Clients talk to it through typed, pipelined
//! sessions: [`Cluster::client`] opens a [`crate::Client`], whose
//! operations (`put` / `get` / `delete` / `scan` / `aggregate`, plus the
//! multi-tuple `multi_put` and tag-routed `multi_get`) return
//! [`crate::Pending`] handles immediately. [`Cluster::pump`] advances
//! virtual time while sessions harvest completions — which lets
//! experiments hold thousands of operations in flight and interleave
//! churn with traffic.

use crate::client::Client;
use crate::msg::DropletMsg;
use crate::persist::PersistNode;
use crate::sieve_spec::OwnerIndex;
pub use crate::sieve_spec::Placement;
use crate::soft::{MultiPutStatus, PutStatus, SoftNode};
use crate::tuple::{Key, StoredTuple};
use dd_dht::Version;
use dd_sim::rng::mix;
use dd_sim::{Ctx, Duration, NodeId, Process, Sim, SimConfig, TimerTag};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::Arc;

/// Result of a completed write.
pub type PutResult = PutStatus;

/// A successful read returns the stored tuple.
pub type GetResult = StoredTuple;

/// Result of a completed batched write.
pub type MultiPutResult = MultiPutStatus;

/// Result of a completed tag-scoped read: every live tuple carrying the
/// tag, deduplicated and attribute-ordered, plus whether the replica
/// union behind it was *complete*. Dereferences to the tuple slice, so
/// feed consumers index and iterate it directly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MultiGetResult {
    /// The live tuples carrying the tag.
    pub items: Vec<StoredTuple>,
    /// `true` when every contacted replica answered; `false` when the
    /// multi-op deadline completed the read without some replica (e.g. a
    /// dead slot-owner) — the feed may be missing that replica's tuples.
    pub complete: bool,
}

impl std::ops::Deref for MultiGetResult {
    type Target = [StoredTuple];
    fn deref(&self) -> &[StoredTuple] {
        &self.items
    }
}

impl IntoIterator for MultiGetResult {
    type Item = StoredTuple;
    type IntoIter = std::vec::IntoIter<StoredTuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

/// Result of an aggregate query (§III-C): duplicate-tolerant summaries
/// merged from every persistent node's bottom-k sketch.
#[derive(Debug, Clone)]
pub struct AggregateResult {
    sketch: dd_estimation::DistSketch,
    /// Minimum attribute value (exact; idempotent under replication).
    pub min: f64,
    /// Maximum attribute value (exact).
    pub max: f64,
}

impl AggregateResult {
    /// Assembles a result from a harvested completion record.
    pub(crate) fn from_parts(sketch: dd_estimation::DistSketch, min: f64, max: f64) -> Self {
        AggregateResult { sketch, min, max }
    }

    /// Estimated number of distinct tuples with attributes.
    #[must_use]
    pub fn distinct_estimate(&self) -> f64 {
        self.sketch.distinct_estimate()
    }

    /// Estimated `q`-quantile of the attribute distribution.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.sketch.quantile(q)
    }

    /// The underlying sketch.
    #[must_use]
    pub fn sketch(&self) -> &dd_estimation::DistSketch {
        &self.sketch
    }
}

/// Cluster topology and protocol parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of soft-state nodes (the "moderately sized" tier, §II).
    pub soft_n: u64,
    /// Number of persistent-state nodes.
    pub persist_n: u64,
    /// Target replication degree in the persistent layer.
    pub replication: u32,
    /// Soft-node tuple-cache capacity.
    pub cache_capacity: usize,
    /// Persistent-layer repair period in ticks; `None` disables repair.
    pub repair_period: Option<u64>,
    /// Persistent-layer placement strategy.
    pub placement: Placement,
    /// Topology-aware repair: periodic anti-entropy prefers ring
    /// neighbours over uniform random pairing. Off by default so recorded
    /// scenario seeds keep replaying byte-identically.
    pub ring_repair: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            soft_n: 4,
            persist_n: 32,
            replication: 3,
            cache_capacity: 128,
            repair_period: Some(1_000),
            placement: Placement::RangePartition,
            ring_repair: false,
        }
    }
}

impl ClusterConfig {
    /// A small cluster suitable for tests and examples.
    #[must_use]
    pub fn small() -> Self {
        Self::default()
    }

    /// Builder: persistent-layer size.
    #[must_use]
    pub fn persist_n(mut self, n: u64) -> Self {
        self.persist_n = n;
        self
    }

    /// Builder: replication degree.
    #[must_use]
    pub fn replication(mut self, r: u32) -> Self {
        self.replication = r;
        self
    }

    /// Builder: disable repair.
    #[must_use]
    pub fn no_repair(mut self) -> Self {
        self.repair_period = None;
        self
    }

    /// Builder: persistent-layer placement strategy. Tag collocation also
    /// enables tag-aware read routing in the soft layer (§III-B-1).
    #[must_use]
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Builder: prefer ring neighbours in periodic repair rounds.
    #[must_use]
    pub fn ring_repair(mut self) -> Self {
        self.ring_repair = true;
        self
    }
}

/// One simulated node: either a soft-layer or a persist-layer role.
// Soft nodes carry coordinator state and are much larger than persist
// nodes; the simulator stores nodes in one flat map, so the padding is a
// deliberate trade against boxing every soft-node access.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum DropletNode {
    /// Soft-state layer member.
    Soft(SoftNode),
    /// Persistent-state layer member.
    Persist(PersistNode),
}

impl DropletNode {
    /// The soft role, if this node has it.
    #[must_use]
    pub fn as_soft(&self) -> Option<&SoftNode> {
        match self {
            DropletNode::Soft(s) => Some(s),
            DropletNode::Persist(_) => None,
        }
    }

    /// The soft role, mutably (the client plane harvests through this).
    #[must_use]
    pub fn as_soft_mut(&mut self) -> Option<&mut SoftNode> {
        match self {
            DropletNode::Soft(s) => Some(s),
            DropletNode::Persist(_) => None,
        }
    }

    /// The persist role, if this node has it.
    #[must_use]
    pub fn as_persist(&self) -> Option<&PersistNode> {
        match self {
            DropletNode::Persist(p) => Some(p),
            DropletNode::Soft(_) => None,
        }
    }
}

impl Process for DropletNode {
    type Msg = DropletMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, DropletMsg>) {
        if let DropletNode::Persist(p) = self {
            p.arm_timers(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, DropletMsg>, from: NodeId, msg: DropletMsg) {
        match self {
            DropletNode::Soft(s) => s.on_message(ctx, from, msg),
            DropletNode::Persist(p) => p.on_message(ctx, from, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DropletMsg>, tag: TimerTag) {
        match self {
            DropletNode::Soft(s) => s.on_timer(ctx, tag),
            DropletNode::Persist(p) => p.on_timer(ctx, tag),
        }
    }

    fn on_up(&mut self, ctx: &mut Ctx<'_, DropletMsg>) {
        match self {
            DropletNode::Soft(s) => s.arm_timers(ctx),
            DropletNode::Persist(p) => {
                p.arm_timers(ctx);
                // A revived replica may have missed writes while down:
                // pull digests from a couple of peers straight away
                // instead of waiting out a full repair period.
                p.initiate_repair(ctx, 2);
            }
        }
    }
}

/// Which observer planes [`Cluster::observe`] records. The default is
/// none of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Planes {
    /// Record every client operation's invocation and completion into a
    /// [`dd_audit::History`].
    pub audit: bool,
    /// Record every client operation's causal span tree — client root,
    /// coordinator, per-replica waits, persist stores — into a
    /// [`dd_trace::TraceSet`].
    pub trace: bool,
    /// Sample per-node gauges, cluster aggregates, engine queue depth,
    /// in-flight messages by kind and counter rates into a
    /// [`dd_obs::Telemetry`] every [`dd_obs::DEFAULT_SAMPLE_PERIOD`] ticks.
    pub telemetry: bool,
}

/// What [`Cluster::stop_observing`] hands back: each plane's recording,
/// `None` for a plane that was off.
#[derive(Debug, Default)]
pub struct Observed {
    /// The invocation/completion history.
    pub audit: Option<dd_audit::History>,
    /// The span trees. Spans of ops still in flight are closed unanswered
    /// at their trace's horizon.
    pub trace: Option<dd_trace::TraceSet>,
    /// The sampled time series.
    pub telemetry: Option<dd_obs::Telemetry>,
}

/// The cluster's one observer: the recorder of each plane that is on.
/// The kernel hands the span recorder to every callback and samples the
/// telemetry collector; the client plane reaches the audit and span
/// recorders through [`Cluster::observers`]. Every plane only *reads* —
/// node state, RNGs, the queue and the network model are untouched — so
/// an observed run replays byte-identically.
#[derive(Default)]
pub(crate) struct Observers {
    pub(crate) audit: Option<dd_audit::Recorder>,
    pub(crate) trace: Option<dd_trace::Recorder>,
    telemetry: Option<dd_obs::Telemetry>,
}

impl dd_sim::Observer<DropletNode> for Observers {
    fn tracer(&mut self) -> Option<&mut (dyn dd_sim::Tracer + 'static)> {
        self.trace.as_mut().map(|r| r as _)
    }

    fn period(&self) -> Option<u64> {
        self.telemetry.as_ref().map(|_| dd_obs::DEFAULT_SAMPLE_PERIOD)
    }

    /// One telemetry sweep: walks the live nodes feeding per-node gauges,
    /// cluster aggregates and counter rates into the collector.
    fn sample(&mut self, sim: &Sim<DropletNode>) {
        use dd_obs::{names, Label};
        let Some(t) = self.telemetry.as_mut() else { return };
        let tick = sim.now().0;

        // Engine: event-queue depth and in-flight messages by kind.
        t.gauge(tick, names::QUEUE_DEPTH, Label::None, sim.queue_depth() as f64);
        let mut by_kind: std::collections::BTreeMap<&'static str, u64> = Default::default();
        let mut in_flight = 0u64;
        for m in sim.in_flight_msgs() {
            *by_kind.entry(m.kind()).or_insert(0) += 1;
            in_flight += 1;
        }
        t.gauge(tick, names::IN_FLIGHT, Label::None, in_flight as f64);
        for (kind, n) in by_kind {
            t.gauge(tick, names::IN_FLIGHT, Label::Kind(kind), n as f64);
        }

        // Counter rates: deltas since the previous sweep (the first sweep
        // records 0 and baselines, so settle-era counts don't spike).
        let m = sim.metrics();
        t.rate(tick, names::NET_SENT, m.counter("net.sent"));
        t.rate(tick, names::REPAIR_ROUNDS, m.counter("repair.syncs"));
        t.rate(tick, names::REPAIR_CLEAN, m.counter("repair.clean"));
        t.rate(tick, names::REPAIR_RECOVERED, m.counter("repair.recovered"));

        // Per-node gauges and their cluster aggregates.
        let mut backlog = 0u64;
        let mut pending = 0u64;
        let mut undelivered = 0u64;
        let mut retired = 0u64;
        let mut tuples = 0u64;
        let mut bytes = 0u64;
        let mut tombs = 0u64;
        let mut fd_sum = 0u64;
        let mut soft_n = 0u64;
        for id in sim.alive_ids() {
            let node = Label::Node(id.0);
            match sim.node(id) {
                Some(DropletNode::Soft(s)) => {
                    let b = s.completion_backlog() as u64;
                    let p = s.pending_ops() as u64;
                    let u = s.undelivered_backlog() as u64;
                    t.gauge(tick, "soft.completion_backlog", node, b as f64);
                    t.gauge(tick, "soft.pending_ops", node, p as f64);
                    t.gauge(tick, "soft.undelivered", node, u as f64);
                    t.gauge(tick, "soft.outbox", node, s.outbox_depth() as f64);
                    t.gauge(tick, "soft.fd_live", node, s.trusted_peers() as f64);
                    backlog += b;
                    pending += p;
                    undelivered += u;
                    retired += s.completions_retired();
                    fd_sum += s.trusted_peers() as u64;
                    soft_n += 1;
                }
                Some(DropletNode::Persist(p)) => {
                    let n = p.store.len() as u64;
                    let b = p.store_bytes() as u64;
                    let d = p.tombstone_count() as u64;
                    t.gauge(tick, "persist.store_tuples", node, n as f64);
                    t.gauge(tick, "persist.store_bytes", node, b as f64);
                    t.gauge(tick, "persist.tombstones", node, d as f64);
                    t.gauge(tick, "persist.summary_occupancy", node, p.summary_occupancy() as f64);
                    tuples += n;
                    bytes += b;
                    tombs += d;
                }
                None => {}
            }
        }
        t.gauge(tick, names::COMPLETION_BACKLOG, Label::None, backlog as f64);
        t.gauge(tick, names::PENDING_OPS, Label::None, pending as f64);
        t.gauge(tick, names::UNDELIVERED, Label::None, undelivered as f64);
        t.rate(tick, names::COMPLETIONS_RETIRED, retired);
        t.gauge(tick, names::STORE_TUPLES, Label::None, tuples as f64);
        t.gauge(tick, names::STORE_BYTES, Label::None, bytes as f64);
        t.gauge(tick, names::TOMBSTONES, Label::None, tombs as f64);
        if soft_n > 0 {
            t.gauge(tick, names::FD_LIVE, Label::None, fd_sum as f64 / soft_n as f64);
        }
        t.mark_sample();
    }
}

/// A complete simulated DataDroplets deployment.
pub struct Cluster {
    /// The underlying simulation (public for fault injection and metrics).
    pub sim: Sim<DropletNode>,
    config: ClusterConfig,
    soft_ids: Vec<NodeId>,
    /// The persist ids and their placement, shared with every soft node.
    pub(crate) persist: Arc<OwnerIndex>,
    seed: u64,
    next_req: u64,
    next_session: u64,
    /// The harness-side failure-detector ledger: the `(observer, watched)`
    /// pairs where the observer was last told the peer is unreachable.
    /// Disbelief only — an absent pair is believed reachable — so a healthy
    /// cluster's ledger is empty and a heal shrinks it again. Notices are
    /// injected only on belief changes, so steady state costs nothing.
    fd_view: HashSet<(NodeId, NodeId)>,
    /// What the last failure-detector sweep saw of each node, in
    /// `soft_ids ++ persist_ids` order: the partition colour of a live
    /// node, `None` for one that is down or removed. Reachability is a
    /// function of these alone, so the next sweep examines only the rows
    /// and columns of the nodes whose entry moved.
    fd_seen: Vec<Option<u32>>,
    /// [`Cluster::wipe_soft_layer`] reset the soft observers' ledger rows
    /// since the last sweep: the next one re-examines those rows in full.
    fd_soft_rows_reset: bool,
    /// `(liveness_epoch, topology_epoch)` at the last failure-detector
    /// sweep; `None` forces the next sweep. Ground-truth reachability is a
    /// pure function of liveness and partitions, so while both epochs are
    /// unchanged a sweep would find zero belief diffs — skipping it is
    /// exact, and keeps even the O(n) look at every node off the per-pump
    /// path.
    fd_epochs: Option<(u64, u64)>,
}

impl Cluster {
    /// Builds and starts a cluster.
    ///
    /// # Panics
    /// Panics if the configuration has zero soft or persist nodes.
    #[must_use]
    pub fn new(config: ClusterConfig, seed: u64) -> Self {
        assert!(config.soft_n > 0, "need at least one soft node");
        assert!(config.persist_n > 0, "need at least one persist node");
        let soft_ids: Vec<NodeId> = (0..config.soft_n).map(NodeId).collect();
        let persist_ids: Vec<NodeId> =
            (config.soft_n..config.soft_n + config.persist_n).map(NodeId).collect();
        // Sieve acceptance is deterministic from the placement, so the
        // coordinators share one owner index and route writes directly to
        // owners; the replicas share the same index, each holding a handle
        // and its own position in it.
        let persist = Arc::new(OwnerIndex::new(persist_ids, config.placement, config.replication));
        let persist_ids = &persist.peers;
        // Pre-size the event heap for the population's steady chatter
        // (start events, repair timers, dissemination bursts) so large
        // clusters don't regrow it through the opening storm.
        let queue_capacity = ((config.soft_n + config.persist_n) * 8 + 1024) as usize;
        let mut sim: Sim<DropletNode> =
            Sim::new(SimConfig::default().seed(seed).queue_capacity(queue_capacity));
        for &id in &soft_ids {
            let soft = SoftNode::new(&soft_ids, Arc::clone(&persist), config.cache_capacity);
            sim.add_node(id, DropletNode::Soft(soft));
        }
        for (i, &id) in persist_ids.iter().enumerate() {
            let mut node =
                PersistNode::member(Arc::clone(&persist), i, config.repair_period.map(Duration));
            node.ring_repair = config.ring_repair;
            sim.add_node(id, DropletNode::Persist(node));
        }
        // Everyone starts up, unpartitioned and believed reachable: the
        // empty ledger agrees with this view, so the first sweep of a
        // healthy cluster finds nothing moved and examines no pair.
        let fd_seen = vec![Some(0); soft_ids.len() + persist_ids.len()];
        Cluster {
            sim,
            config,
            soft_ids,
            persist,
            seed,
            next_req: 0,
            next_session: 0,
            fd_view: HashSet::new(),
            fd_seen,
            fd_soft_rows_reset: false,
            fd_epochs: None,
        }
    }

    /// Starts recording the observer planes `planes` turns on, replacing
    /// whatever was being recorded. Recording is passive — it never
    /// touches the simulation's RNG or message flow — so an observed run
    /// replays byte-identically to a plain one. The audit assumes its
    /// history covers *all* writes: start it before the first write of the
    /// run you intend to check.
    pub fn observe(&mut self, planes: Planes) {
        self.sim.set_observer(Box::new(Observers {
            audit: planes.audit.then(dd_audit::Recorder::default),
            trace: planes.trace.then(dd_trace::Recorder::default),
            telemetry: planes.telemetry.then(dd_obs::Telemetry::default),
        }));
    }

    /// Stops recording and hands back what each plane recorded (all `None`
    /// when [`Cluster::observe`] was never called).
    pub fn stop_observing(&mut self) -> Observed {
        let Some(o) = self.observers().map(std::mem::take) else { return Observed::default() };
        self.sim.take_observer();
        Observed {
            audit: o.audit.map(dd_audit::Recorder::finish),
            trace: o.trace.map(dd_trace::Recorder::finish),
            telemetry: o.telemetry,
        }
    }

    /// The recorders [`Cluster::observe`] installed, if any.
    pub(crate) fn observers(&mut self) -> Option<&mut Observers> {
        let observer: &mut dyn std::any::Any = self.sim.observer_mut()?;
        observer.downcast_mut()
    }

    /// Harvests the reply to `req` from whichever coordinator parked it.
    pub(crate) fn take_completion(&mut self, req: u64) -> Option<crate::soft::Done> {
        let Cluster { sim, soft_ids, .. } = self;
        soft_ids
            .iter()
            .find_map(|&id| sim.node_mut(id).and_then(DropletNode::as_soft_mut)?.take(req))
    }

    /// The replica a timed-out operation was still waiting on, per the
    /// soft tier's pending-op tables (`None` when no soft node holds
    /// pending state for it — e.g. the coordinator itself is dead).
    pub(crate) fn blame_for(&self, req: u64) -> Option<NodeId> {
        self.soft_ids.iter().find_map(|&id| {
            self.sim.node(id).and_then(DropletNode::as_soft).and_then(|s| s.blame(req))
        })
    }

    /// The convergence checker's input: every `(node, key_hash, version,
    /// deleted)` held by a *live* persist node, node- then key-ordered.
    #[must_use]
    pub fn audit_snapshot(&self) -> Vec<dd_audit::ReplicaTuple> {
        let mut out = Vec::new();
        for &id in &self.persist.peers {
            if !self.sim.is_alive(id) {
                continue;
            }
            if let Some(p) = self.sim.node(id).and_then(DropletNode::as_persist) {
                for t in p.store.values() {
                    out.push(dd_audit::ReplicaTuple {
                        node: id.0,
                        key_hash: t.key_hash,
                        version: t.version,
                        deleted: t.deleted,
                    });
                }
            }
        }
        out.sort_unstable_by_key(|t| (t.node, t.key_hash));
        out
    }

    /// Drives one deterministic full-fanout anti-entropy round: every
    /// live persist node opens a digest exchange with every live persist
    /// peer. Periodic repair picks one partner per round by lottery
    /// (uniform by default, ring-biased with rare far pulls under
    /// [`ClusterConfig::ring_repair`]), so when only two replicas hold a
    /// diverged key — and no third node's sieve accepts it to relay —
    /// reconciliation waits for that exact pair to be drawn, which can
    /// take dozens of rounds. The audit settle uses this sweep to turn
    /// "eventually" into "this round". No-op when repair is disabled —
    /// with anti-entropy off, lingering divergence is a real answer the
    /// audit must not mask.
    pub fn repair_sweep(&mut self) {
        if self.config.repair_period.is_none() {
            return;
        }
        let persist = Arc::clone(&self.persist);
        let ids = &persist.peers;
        for &a in ids {
            if !self.sim.is_alive(a) {
                continue;
            }
            let Some(sieve) = self.sim.node(a).and_then(DropletNode::as_persist).map(|p| p.sieve)
            else {
                continue;
            };
            for &b in ids {
                if b != a && self.sim.is_alive(b) {
                    self.sim.inject(a, b, DropletMsg::RepairDigest { sieve });
                }
            }
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Soft-layer node ids.
    #[must_use]
    pub fn soft_ids(&self) -> &[NodeId] {
        &self.soft_ids
    }

    /// Persistent-layer node ids.
    #[must_use]
    pub fn persist_ids(&self) -> &[NodeId] {
        &self.persist.peers
    }

    /// Runs the simulation for `ticks` of virtual time, bracketed by
    /// failure-detector sweeps: the leading sweep notices reachability
    /// changes made directly between runs (partitions set or healed on
    /// [`Sim::net`]) so notices deliver *within* this window; the trailing
    /// sweep notices kill/revive events that processed during it, so
    /// detection latency is bounded by the caller's pump quantum.
    pub fn run_for(&mut self, ticks: u64) {
        self.sync_failure_detector();
        self.sim.run_for(Duration(ticks));
        self.sync_failure_detector();
    }

    /// Models each node's local failure detector: wherever an observer's
    /// last-told belief about a watched peer differs from the simulation's
    /// ground truth (alive and connected), self-injects a
    /// [`DropletMsg::PeerDown`] / [`DropletMsg::PeerUp`] notice. Soft nodes
    /// watch their soft peers and the persist layer; persist nodes watch
    /// each other (their repair partners). Notices ride the simulated
    /// network from the node to itself, so they land a latency sample
    /// later — a detector, not an oracle.
    fn sync_failure_detector(&mut self) {
        for (observer, peer, reachable) in self.failure_detector_notices() {
            let msg = if reachable { DropletMsg::PeerUp(peer) } else { DropletMsg::PeerDown(peer) };
            self.sim.inject(observer, observer, msg);
        }
    }

    /// One failure-detector sweep: the `(observer, peer, reachable)` belief
    /// changes since the last one, recorded in the ledger and returned in
    /// injection order.
    ///
    /// The sweep is change-driven. A pair's ground truth depends only on
    /// the two nodes' `fd_seen` entries, and after every sweep each live
    /// observer's row agrees with it — so a belief can be out of date only
    /// in the row of an observer that itself moved (a revived node's row is
    /// as stale as its downtime was long) or was reset by a wipe, or in the
    /// column of a peer that moved. Only those are examined:
    /// O(moved × n), and O(n) with no pair work at all while nothing moved.
    /// The candidates are visited in the order of the exhaustive scan —
    /// observer position, then watched position, down observers skipped —
    /// because every injected notice draws a latency sample and takes a
    /// sequence number: notice order is part of the replay.
    fn failure_detector_notices(&mut self) -> Vec<(NodeId, NodeId, bool)> {
        // Reachability can only have changed if a node's liveness or the
        // partition map did; both bump an epoch counter.
        let epochs = (self.sim.liveness_epoch(), self.sim.net.topology_epoch());
        if self.fd_epochs == Some(epochs) {
            return Vec::new();
        }
        self.fd_epochs = Some(epochs);
        let rows_reset = std::mem::take(&mut self.fd_soft_rows_reset);
        let Cluster { sim, soft_ids, persist, fd_view, fd_seen, .. } = self;
        let (soft_n, n) = (soft_ids.len(), fd_seen.len());
        let id_at = |k: usize| if k < soft_n { soft_ids[k] } else { persist.peers[k - soft_n] };
        let mut moved: Vec<usize> = Vec::new();
        for (k, seen) in fd_seen.iter_mut().enumerate() {
            let id = id_at(k);
            let now = sim.is_alive(id).then(|| sim.net.colour(id));
            if *seen != now {
                *seen = now;
                moved.push(k);
            }
        }
        let mut notices = Vec::new();
        if !moved.is_empty() || rows_reset {
            for o in 0..n {
                let Some(colour) = fd_seen[o] else { continue };
                let observer = id_at(o);
                // Soft observers watch everyone, persist observers the
                // persist layer only.
                let soft_observer = o < soft_n;
                let watched_from = if soft_observer { 0 } else { soft_n };
                let whole_row = moved.binary_search(&o).is_ok() || (rows_reset && soft_observer);
                let (row, columns) = if whole_row {
                    (watched_from..n, &[][..])
                } else {
                    (0..0, &moved[moved.partition_point(|&p| p < watched_from)..])
                };
                for p in row.chain(columns.iter().copied()).filter(|&p| p != o) {
                    let pair = (observer, id_at(p));
                    let reach = fd_seen[p] == Some(colour);
                    // A belief flips exactly when its ledger entry does.
                    let flipped = if reach { fd_view.remove(&pair) } else { fd_view.insert(pair) };
                    if flipped {
                        notices.push((observer, pair.1, reach));
                    }
                }
            }
        }
        sim.metrics_mut().add("fd.notices", notices.len() as u64);
        notices
    }

    /// The exhaustive sweep [`Cluster::failure_detector_notices`] replaced,
    /// kept as its oracle: every (live observer, watched peer) pair, in
    /// nested-loop order, against the ledger as it stands. Reads only.
    #[cfg(test)]
    fn pair_scan_notices(&self) -> Vec<(NodeId, NodeId, bool)> {
        let mut notices = Vec::new();
        for (oi, &o) in self.soft_ids.iter().chain(self.persist.peers.iter()).enumerate() {
            if !self.sim.is_alive(o) {
                continue;
            }
            let watched: &[&[NodeId]] = if oi < self.soft_ids.len() {
                &[&self.soft_ids, &self.persist.peers]
            } else {
                &[&self.persist.peers]
            };
            for &p in watched.iter().copied().flatten() {
                if p == o {
                    continue;
                }
                let reach = self.sim.is_alive(p) && self.sim.net.connected(o, p);
                if reach == self.fd_view.contains(&(o, p)) {
                    notices.push((o, p, reach));
                }
            }
        }
        notices
    }

    /// Advances virtual time so in-flight client operations make
    /// progress — the verb of the pipelined harvest loop (submit via
    /// [`Client`], `pump`, then [`Client::poll`]/[`Client::drain`]).
    /// Identical to [`Cluster::run_for`]; the two names separate client
    /// loops from protocol settling in calling code.
    pub fn pump(&mut self, ticks: u64) {
        self.run_for(ticks);
    }

    /// Lets start-up timers and gossip settle. The quiescence horizon is
    /// derived from the network model and the repair cadence — one repair
    /// period plus a generous multiple of the worst-case message latency
    /// — so clusters configured with slow networks settle long enough
    /// instead of flaking on a hard-coded tick count.
    pub fn settle(&mut self) {
        let ticks = self.settle_horizon();
        self.run_for(ticks);
    }

    /// The quiescence horizon [`Cluster::settle`] runs for, in ticks.
    #[must_use]
    pub fn settle_horizon(&self) -> u64 {
        let latency_slack = 50 * self.sim.net.latency.max();
        self.config.repair_period.unwrap_or(1_000) + latency_slack
    }

    /// Opens a new client session. Each session pins its own RNG stream
    /// (split from the cluster seed and the session id, so concurrent
    /// sessions replay deterministically) and tracks its own outstanding
    /// operations — any number of sessions may be open at once.
    pub fn client(&mut self) -> Client {
        self.next_session += 1;
        let rng = SmallRng::seed_from_u64(mix(self.seed ^ 0x00C1_1E47, self.next_session));
        Client::new(self.next_session, rng)
    }

    pub(crate) fn fresh_req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// Picks a live entry node with the session's RNG stream; `None` when
    /// the whole soft tier is down.
    pub(crate) fn entry_for(&self, rng: &mut SmallRng) -> Option<NodeId> {
        use rand::Rng;
        // Count-then-select instead of collecting the alive set: one
        // `gen_range(0..alive)` draw either way (replay-identical to the
        // old `choose` over a collected Vec), but no per-op allocation.
        let alive = self.soft_ids.iter().filter(|&&s| self.sim.is_alive(s)).count();
        if alive == 0 {
            return None;
        }
        let pick = rng.gen_range(0..alive);
        self.soft_ids.iter().copied().filter(|&s| self.sim.is_alive(s)).nth(pick)
    }

    /// Number of live persist nodes currently holding the latest version
    /// of `key` — the availability measure of E3/E6.
    #[must_use]
    pub fn replica_count(&self, key: &Key) -> usize {
        let kh = key.hash();
        let latest = self
            .persist
            .peers
            .iter()
            .filter_map(|&id| self.sim.node(id).and_then(DropletNode::as_persist))
            .filter_map(|p| p.store.get(&kh))
            .map(|t| t.version)
            .max();
        let Some(latest) = latest else { return 0 };
        self.persist
            .peers
            .iter()
            .filter(|&&id| self.sim.is_alive(id))
            .filter_map(|&id| self.sim.node(id).and_then(DropletNode::as_persist))
            .filter_map(|p| p.store.get(&kh))
            .filter(|t| t.version == latest)
            .count()
    }

    /// Scans the persistent layer for `(key_hash, version, holder)` triples
    /// — the reconstruction input of §II / experiment E12.
    #[must_use]
    pub fn scan_persist_state(&self) -> Vec<(u64, Version, NodeId)> {
        let mut out = Vec::new();
        for &id in &self.persist.peers {
            if let Some(p) = self.sim.node(id).and_then(DropletNode::as_persist) {
                for t in p.store.values() {
                    out.push((t.key_hash, t.version, id));
                }
            }
        }
        out
    }

    /// Simulates catastrophic soft-layer failure: wipes every soft node's
    /// state.
    pub fn wipe_soft_layer(&mut self) {
        for &id in &self.soft_ids.clone() {
            if let Some(DropletNode::Soft(s)) = self.sim.node_mut(id) {
                s.wipe();
            }
        }
        // A wiped node believes everyone reachable again; reset its
        // failure-detector ledger rows to match, so the next sync re-tells
        // it about peers that are still down.
        self.fd_view.retain(|&(o, _)| !self.soft_ids.contains(&o));
        self.fd_soft_rows_reset = true;
        // The ledger changed without an epoch bump: force the next sweep.
        self.fd_epochs = None;
    }

    /// Rebuilds the soft layer's metadata from the persistent layer.
    pub fn rebuild_soft_layer(&mut self) {
        let scan = self.scan_persist_state();
        for &id in &self.soft_ids.clone() {
            if let Some(DropletNode::Soft(s)) = self.sim.node_mut(id) {
                s.reconstruct(scan.iter().copied());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Completion, OpError};
    use crate::tuple::TupleSpec;
    use proptest::prelude::*;

    fn cluster(seed: u64) -> Cluster {
        let mut c = Cluster::new(ClusterConfig::small(), seed);
        c.settle();
        c
    }

    #[test]
    fn stop_observing_hands_back_what_the_last_observe_turned_on() {
        let mut c = cluster(3);
        let none = c.stop_observing();
        assert!(none.audit.is_none() && none.trace.is_none() && none.telemetry.is_none());
        c.observe(Planes { audit: true, trace: true, telemetry: true });
        c.observe(Planes { trace: true, ..Planes::default() });
        let mut client = c.client();
        let w = client.put(&mut c, "k", b"v".to_vec(), None, None);
        client.recv(&mut c, w).expect("write ordered");
        let seen = c.stop_observing();
        assert!(seen.audit.is_none() && seen.telemetry.is_none(), "the second observe replaced");
        assert_eq!(seen.trace.expect("the trace was on").len(), 1);
        assert!(c.stop_observing().trace.is_none(), "stopping detached the recorder");
    }

    #[test]
    fn put_then_get_round_trips() {
        let mut c = cluster(1);
        let mut s = c.client();
        let w = s.put(&mut c, "user:1", b"alice".to_vec(), Some(30.0), None);
        let put = s.recv(&mut c, w).expect("put completes");
        assert_eq!(put.version, Version(1));
        c.run_for(2_000);
        let r = s.get(&mut c, "user:1");
        let got = s.recv(&mut c, r).expect("get completes").expect("key found");
        assert_eq!(got.value, b"alice".to_vec());
        assert_eq!(got.attr, Some(30.0));
    }

    #[test]
    fn writes_reach_the_replication_target() {
        let mut c = cluster(2);
        let mut s = c.client();
        let w = s.put(&mut c, "replicated", b"x".to_vec(), None, None);
        s.recv(&mut c, w).expect("put completes");
        c.run_for(5_000);
        let rc = c.replica_count(&Key::from("replicated"));
        assert!(rc >= 3, "replica count {rc}");
    }

    #[test]
    fn repair_sweep_pairs_every_live_node_and_respects_the_repair_gate() {
        // With repair configured, one sweep opens a digest exchange from
        // every live persist node to every live persist peer.
        let mut c = cluster(11);
        let before = c.sim.metrics().counter("repair.syncs");
        c.repair_sweep();
        c.run_for(500);
        let opened = c.sim.metrics().counter("repair.syncs") - before;
        let n = c.persist_ids().len() as u64;
        assert!(opened >= n * (n - 1), "sweep opened {opened} exchanges, want >= {}", n * (n - 1));

        // With repair disabled the sweep must stay a no-op: with
        // anti-entropy off, lingering divergence is a real audit answer.
        let mut quiet = Cluster::new(ClusterConfig::small().no_repair(), 11);
        quiet.settle();
        quiet.repair_sweep();
        quiet.run_for(500);
        assert_eq!(quiet.sim.metrics().counter("repair.syncs"), 0);
    }

    #[test]
    fn unknown_key_reads_ok_none() {
        let mut c = cluster(3);
        let mut s = c.client();
        let r = s.get(&mut c, "never-written");
        // Key absent is a *successful* read of nothing — not an error.
        assert_eq!(s.recv(&mut c, r), Ok(None));
    }

    #[test]
    fn delete_tombstones_the_key() {
        let mut c = cluster(4);
        let mut s = c.client();
        let w = s.put(&mut c, "temp", b"data".to_vec(), None, None);
        s.recv(&mut c, w).unwrap();
        c.run_for(2_000);
        let d = s.delete(&mut c, "temp");
        s.recv(&mut c, d).unwrap();
        c.run_for(2_000);
        let r = s.get(&mut c, "temp");
        assert_eq!(s.recv(&mut c, r), Ok(None), "deleted key reads as absent");
    }

    #[test]
    fn overwrites_read_latest_version() {
        let mut c = cluster(5);
        let mut s = c.client();
        let w1 = s.put(&mut c, "k", b"v1".to_vec(), None, None);
        s.recv(&mut c, w1).unwrap();
        c.run_for(1_000);
        let w2 = s.put(&mut c, "k", b"v2".to_vec(), None, None);
        let p2 = s.recv(&mut c, w2).unwrap();
        assert_eq!(p2.version, Version(2));
        c.run_for(2_000);
        let r = s.get(&mut c, "k");
        let got = s.recv(&mut c, r).unwrap().unwrap();
        assert_eq!(got.value, b"v2".to_vec());
        assert_eq!(got.version, Version(2));
    }

    #[test]
    fn scan_returns_attribute_range_sorted_and_deduplicated() {
        let mut c = cluster(6);
        let mut s = c.client();
        for i in 0..20 {
            let w = s.put(&mut c, format!("item:{i}"), vec![i as u8], Some(f64::from(i)), None);
            s.recv(&mut c, w).unwrap();
        }
        c.run_for(5_000);
        let scan = s.scan(&mut c, 5.0, 9.0);
        let items = s.recv(&mut c, scan).expect("scan completes");
        let attrs: Vec<f64> = items.iter().map(|t| t.attr.unwrap()).collect();
        assert_eq!(attrs, vec![5.0, 6.0, 7.0, 8.0, 9.0], "range, sorted, no duplicates");
    }

    #[test]
    fn aggregate_estimates_are_duplicate_tolerant() {
        let mut c = cluster(7);
        let mut s = c.client();
        let n = 40;
        for i in 0..n {
            let w = s.put(&mut c, format!("m:{i}"), vec![], Some(f64::from(i)), None);
            s.recv(&mut c, w).unwrap();
        }
        c.run_for(5_000);
        let a = s.aggregate(&mut c);
        let agg = s.recv(&mut c, a).expect("aggregate completes");
        assert_eq!(agg.min, 0.0);
        assert_eq!(agg.max, f64::from(n - 1));
        let est = agg.distinct_estimate();
        // Replication would triple a naive count; the sketch must not.
        assert!(
            (est - f64::from(n)).abs() / f64::from(n) < 0.2,
            "distinct estimate {est} for {n} tuples"
        );
    }

    #[test]
    fn repair_restores_replicas_after_transient_churn() {
        let mut c = cluster(8);
        let mut s = c.client();
        let w = s.put(&mut c, "churn-key", b"z".to_vec(), None, None);
        s.recv(&mut c, w).unwrap();
        c.run_for(3_000);
        let before = c.replica_count(&Key::from("churn-key"));
        assert!(before >= 3);
        // Knock out two of the replica holders transiently.
        let kh = Key::from("churn-key").hash();
        let holders: Vec<NodeId> = c
            .persist_ids()
            .iter()
            .copied()
            .filter(|&id| {
                c.sim
                    .node(id)
                    .and_then(DropletNode::as_persist)
                    .is_some_and(|p| p.store.contains_key(&kh))
            })
            .take(2)
            .collect();
        for &h in &holders {
            c.sim.kill(h);
        }
        c.run_for(1); // process the scheduled down events
        let during = c.replica_count(&Key::from("churn-key"));
        assert!(during < before, "kills reduce live replicas");
        for &h in &holders {
            c.sim.revive(h);
        }
        c.run_for(5_000);
        let after = c.replica_count(&Key::from("churn-key"));
        assert!(after >= before, "repair restores replication: {after} vs {before}");
    }

    #[test]
    fn ring_repair_restores_replicas_after_transient_churn() {
        // Same drill as above, with topology-aware peering: the far-pull
        // escape hatch must keep revival gaps converging even though most
        // rounds stay on the ring.
        let mut c = Cluster::new(ClusterConfig::small().ring_repair(), 8);
        c.settle();
        let mut s = c.client();
        let w = s.put(&mut c, "churn-key", b"z".to_vec(), None, None);
        s.recv(&mut c, w).unwrap();
        c.run_for(3_000);
        let before = c.replica_count(&Key::from("churn-key"));
        assert!(before >= 3);
        let kh = Key::from("churn-key").hash();
        let holders: Vec<NodeId> = c
            .persist_ids()
            .iter()
            .copied()
            .filter(|&id| {
                c.sim
                    .node(id)
                    .and_then(DropletNode::as_persist)
                    .is_some_and(|p| p.store.contains_key(&kh))
            })
            .take(2)
            .collect();
        for &h in &holders {
            c.sim.kill(h);
        }
        c.run_for(1);
        for &h in &holders {
            c.sim.revive(h);
        }
        c.run_for(5_000);
        let after = c.replica_count(&Key::from("churn-key"));
        assert!(after >= before, "ring-biased repair restores replication: {after} vs {before}");
    }

    #[test]
    fn reads_survive_soft_layer_catastrophe_after_rebuild() {
        let mut c = cluster(9);
        let mut s = c.client();
        for i in 0..10 {
            let w = s.put(&mut c, format!("p:{i}"), vec![i], Some(f64::from(i)), None);
            s.recv(&mut c, w).unwrap();
        }
        c.run_for(4_000);
        c.wipe_soft_layer();
        // Without metadata, reads of known keys return None (unknown key).
        let r = s.get(&mut c, "p:3");
        assert_eq!(s.recv(&mut c, r), Ok(None), "wiped soft layer has no metadata");
        // Rebuild from the persistent layer (§II) and read again.
        c.rebuild_soft_layer();
        let r2 = s.get(&mut c, "p:3");
        let got = s.recv(&mut c, r2).expect("completes").expect("found after rebuild");
        assert_eq!(got.value, vec![3u8]);
    }

    #[test]
    fn cache_serves_repeat_reads() {
        let mut c = cluster(10);
        let mut s = c.client();
        let w = s.put(&mut c, "hot", b"cached".to_vec(), None, None);
        s.recv(&mut c, w).unwrap();
        c.run_for(2_000);
        for _ in 0..5 {
            let r = s.get(&mut c, "hot");
            assert!(s.recv(&mut c, r).unwrap().is_some());
        }
        let hits: u64 = c.sim.metrics().counter("soft.cache_hits");
        assert!(hits >= 4, "cache hits {hits}");
    }

    #[test]
    fn uniform_sieve_cluster_also_round_trips() {
        let mut c =
            Cluster::new(ClusterConfig::small().placement(Placement::Uniform).replication(5), 11);
        c.settle();
        let mut s = c.client();
        let w = s.put(&mut c, "u", b"uniform".to_vec(), None, None);
        s.recv(&mut c, w).unwrap();
        c.run_for(3_000);
        let r = s.get(&mut c, "u");
        let got = s.recv(&mut c, r).expect("completes").expect("found");
        assert_eq!(got.value, b"uniform".to_vec());
    }

    #[test]
    fn pipelined_ops_overlap_in_one_session() {
        let mut c = cluster(12);
        let mut s = c.client();
        let pendings: Vec<_> =
            (0..32u8).map(|i| s.put(&mut c, format!("pipe:{i}"), vec![i], None, None)).collect();
        assert_eq!(s.in_flight(), 32, "all writes outstanding at once");
        for p in pendings {
            assert!(s.recv(&mut c, p).is_ok());
        }
        assert_eq!(s.in_flight(), 0, "every completion harvested");
        // Reads pipeline the same way, harvested in bulk via drain.
        c.run_for(3_000);
        for i in 0..32u8 {
            let _ = s.get(&mut c, format!("pipe:{i}"));
        }
        let mut got = 0;
        while s.in_flight() > 0 {
            c.pump(50);
            for (_req, completion) in s.drain(&mut c) {
                match completion {
                    Completion::Get(Ok(Some(_))) => got += 1,
                    other => panic!("unexpected completion {other:?}"),
                }
            }
        }
        assert_eq!(got, 32, "drain surfaces every pipelined read");
    }

    #[test]
    fn a_handle_swept_by_drain_reports_already_harvested() {
        let mut c = cluster(18);
        let mut s = c.client();
        let kept = s.put(&mut c, "kept", b"x".to_vec(), None, None);
        // A housekeeping drain loop harvests the completion first…
        while s.in_flight() > 0 {
            c.pump(50);
            let _ = s.drain(&mut c);
        }
        // …so the still-held typed handle yields a typed error, not a
        // panic — mixed drain + handle loops stay safe.
        assert_eq!(s.recv(&mut c, kept), Err(OpError::AlreadyHarvested));
        // Same for a handle from a different session.
        let mut other = c.client();
        let foreign = other.put(&mut c, "foreign", b"y".to_vec(), None, None);
        assert_eq!(s.poll(&mut c, &foreign), Some(Err(OpError::AlreadyHarvested)));
        assert!(other.recv(&mut c, foreign).is_ok(), "owning session still harvests it");
    }

    #[test]
    fn sessions_are_independent_streams() {
        let mut c = cluster(13);
        let mut a = c.client();
        let mut b = c.client();
        let wa = a.put(&mut c, "from:a", b"a".to_vec(), None, None);
        let wb = b.put(&mut c, "from:b", b"b".to_vec(), None, None);
        assert_ne!(wa.req(), wb.req(), "request ids are cluster-unique");
        assert!(a.recv(&mut c, wa).is_ok());
        assert!(b.recv(&mut c, wb).is_ok());
        assert_ne!(a.session(), b.session());
    }

    #[test]
    fn dead_coordinator_surfaces_as_timeout() {
        let mut c = cluster(14);
        let mut s = c.client();
        // Find a key whose soft coordinator is a specific victim node.
        let victim = c.soft_ids()[1];
        let ring = c.sim.node(victim).and_then(DropletNode::as_soft).unwrap().ring.clone();
        let key = (0..200u32)
            .map(|i| format!("orphan:{i}"))
            .find(|k| ring.primary(Key::from(k.as_str()).hash()) == Some(victim))
            .expect("some key maps to the victim");
        c.sim.kill(victim);
        c.run_for(10);
        let w = s.put(&mut c, key, b"lost".to_vec(), None, None);
        assert_eq!(
            s.recv(&mut c, w),
            Err(OpError::Timeout { waiting_on: None }),
            "dead coordinator = timeout"
        );
        assert_eq!(c.sim.metrics().counter("client.timeouts"), 1);
    }

    #[test]
    fn no_live_entry_is_an_error_not_a_panic() {
        let mut c = cluster(15);
        let mut s = c.client();
        for &id in &c.soft_ids().to_vec() {
            c.sim.kill(id);
        }
        c.run_for(10);
        let w = s.put(&mut c, "nowhere", b"x".to_vec(), None, None);
        assert_eq!(s.recv(&mut c, w), Err(OpError::NoLiveEntry));
    }

    #[test]
    fn abandoned_sessions_cannot_grow_soft_state_unboundedly() {
        use crate::soft::COMPLETION_RETENTION;
        // One soft node so every completion lands on the same log.
        let mut config = ClusterConfig::small();
        config.soft_n = 1;
        let mut c = Cluster::new(config, 16);
        c.settle();
        let mut abandoned = c.client();
        let total = COMPLETION_RETENTION as u64 + 200;
        for i in 0..total {
            // One cap per coordinator: a mix of kinds parks no more than
            // one kind would.
            let _ = match i % 3 {
                0 => abandoned.put(&mut c, format!("leak:{i}"), vec![], Some(0.5), None).req(),
                1 => abandoned.get(&mut c, format!("leak:{}", i - 1)).req(),
                _ => abandoned.scan(&mut c, 0.0, 1.0).req(),
            };
            if i % 64 == 0 {
                c.pump(200);
            }
        }
        c.run_for(5_000);
        drop(abandoned); // never harvests
        let backlog = c
            .sim
            .node(c.soft_ids()[0])
            .and_then(DropletNode::as_soft)
            .map(SoftNode::completion_backlog)
            .unwrap();
        assert_eq!(backlog, COMPLETION_RETENTION, "un-harvested completions capped, not leaked");
        // The node still serves fresh sessions.
        let mut fresh = c.client();
        let w = fresh.put(&mut c, "alive", b"y".to_vec(), None, None);
        assert!(fresh.recv(&mut c, w).is_ok());
    }

    /// Writes `batches` social-feed batches of `batch` posts each over
    /// the raw multi-op plane and returns the distinct tags.
    fn write_feed_batches(c: &mut Cluster, seed: u64, batches: usize, batch: usize) -> Vec<String> {
        let mut w = crate::Workload::new(crate::WorkloadKind::SocialFeed { users: 4 }, seed);
        let mut s = c.client();
        let mut tags = Vec::new();
        for _ in 0..batches {
            let m = w.next_multi_put(batch);
            if let Some(tag) = m.tag {
                if !tags.contains(&tag) {
                    tags.push(tag);
                }
            }
            let pending = s.multi_put(c, m.items.into_iter().map(TupleSpec::from));
            let status = s.recv(c, pending).expect("batch orders fully");
            assert_eq!(status.items, batch);
        }
        c.run_for(5_000);
        tags
    }

    /// Reads every tag back with `multi_get` and returns, per tag, the
    /// sorted key set retrieved.
    fn read_feeds(c: &mut Cluster, tags: &[String]) -> Vec<Vec<String>> {
        let mut s = c.client();
        tags.iter()
            .map(|tag| {
                let pending = s.multi_get(c, tag);
                let tuples = s.recv(c, pending).expect("multi_get completes");
                let mut keys: Vec<String> =
                    tuples.into_iter().map(|t| t.key.as_str().to_owned()).collect();
                keys.sort();
                keys
            })
            .collect()
    }

    #[test]
    fn multi_put_then_multi_get_round_trips_under_tag_placement() {
        let mut c = Cluster::new(ClusterConfig::small().placement(Placement::TagCollocation), 21);
        c.settle();
        let tags = write_feed_batches(&mut c, 77, 6, 5);
        for (tag, keys) in tags.iter().zip(read_feeds(&mut c, &tags)) {
            assert!(!keys.is_empty(), "feed {tag} reads back");
            let user = tag.strip_prefix("feed:").unwrap();
            assert!(
                keys.iter().all(|k| k.starts_with(&format!("post:{user}:"))),
                "only the tag's posts come back for {tag}: {keys:?}"
            );
        }
        // Tuples written through the batch plane are ordinary tuples:
        // single-key reads see them too.
        let mut s = c.client();
        let some_key = {
            let req = s.multi_get(&mut c, &tags[0]);
            s.recv(&mut c, req).unwrap().first().unwrap().key.clone()
        };
        let r = s.get(&mut c, some_key);
        assert!(s.recv(&mut c, r).unwrap().is_some());
    }

    #[test]
    fn tag_placement_contacts_at_most_r_nodes_random_contacts_more() {
        let run = |config: ClusterConfig| {
            let mut c = Cluster::new(config, 33);
            c.settle();
            let tags = write_feed_batches(&mut c, 99, 6, 5);
            let feeds = read_feeds(&mut c, &tags);
            let contacts = c.sim.metrics().summary("multi_get.contacted_nodes");
            assert_eq!(contacts.n, tags.len(), "one observation per multi_get");
            (feeds, contacts.max)
        };
        // Every tuple has a home under either placement, so the tuple-set
        // comparison below is about routing, not coverage.
        let config = ClusterConfig::small();
        let (tagged_feeds, tagged_max) = run(config.clone().placement(Placement::TagCollocation));
        let (uniform_feeds, uniform_max) = run(config.clone().placement(Placement::Uniform));

        // Acceptance bound: tag routing touches at most r persist nodes
        // (well under the r + soft_n allowance that includes soft-layer
        // forwarding hops).
        assert!(
            tagged_max <= f64::from(config.replication),
            "tag routing contacted {tagged_max} nodes"
        );
        // Random placement must fan out to strictly more nodes for the
        // same workload…
        assert!(
            uniform_max > tagged_max,
            "uniform placement should contact more nodes: {uniform_max} vs {tagged_max}"
        );
        // …yet return the same tuple sets (fallback correctness).
        assert_eq!(tagged_feeds, uniform_feeds, "same feeds, placement-independent");
    }

    #[test]
    fn multi_get_survives_a_dead_slot_owner() {
        let mut c = Cluster::new(ClusterConfig::small().placement(Placement::TagCollocation), 66);
        c.settle();
        let mut s = c.client();
        let k = 5u8;
        let batch: Vec<TupleSpec> = (0..k)
            .map(|i| TupleSpec::new(format!("s:{i}"), vec![i], Some(f64::from(i)), Some("feed:s")))
            .collect();
        let w = s.multi_put(&mut c, batch);
        s.recv(&mut c, w).expect("ordered");
        c.run_for(5_000);
        // Kill one of the tag's r slot-owners; the remaining replicas
        // still hold the full feed.
        let th = dd_sim::rng::stable_hash(b"feed:s");
        let slots = dd_sieve::TagSieve::tag_slots(th, c.config().persist_n, c.config().replication);
        let victim = c.persist_ids()[slots[0] as usize];
        c.sim.kill(victim);
        c.run_for(10);
        let r = s.multi_get(&mut c, "feed:s");
        let feed = s.recv(&mut c, r).expect("completes despite the dead owner");
        assert_eq!(feed.len(), k as usize, "surviving owners serve the full feed");
        assert_eq!(c.sim.metrics().counter("soft.multi_get_partials"), 1);
    }

    #[test]
    fn multi_put_with_dead_key_coordinator_is_a_partial_result() {
        let mut c = Cluster::new(ClusterConfig::small().placement(Placement::TagCollocation), 88);
        c.settle();
        let mut s = c.client();
        // Split candidate keys by whether the victim soft node is their
        // key coordinator (the ring is identical on every soft node).
        let victim = c.soft_ids()[0];
        let ring_view = c.sim.node(victim).and_then(DropletNode::as_soft).unwrap().ring.clone();
        let (orphaned, healthy): (Vec<String>, Vec<String>) = (0..40u32)
            .map(|i| format!("mp:{i}"))
            .partition(|k| ring_view.primary(Key::from(k.clone()).hash()) == Some(victim));
        assert!(orphaned.len() >= 2 && healthy.len() >= 2, "both classes sampled");
        let batch: Vec<TupleSpec> = orphaned
            .iter()
            .take(3)
            .chain(healthy.iter().take(5))
            .map(|k| TupleSpec::new(k.clone(), b"v".to_vec(), None, Some("feed:mp")))
            .collect();
        c.sim.kill(victim);
        c.run_for(10);
        let req = s.multi_put(&mut c, batch);
        // The failure detector already struck the victim, so the batch
        // completes as soon as the live coordinators ack — typed as
        // partial: 5 of 8 items ordered, not conflated with full success.
        assert_eq!(
            s.recv(&mut c, req),
            Err(OpError::PartialResult { got: 5, want: 8 }),
            "only the live coordinators' items ordered"
        );
        assert!(c.sim.metrics().counter("soft.multi_put_partials") >= 1);
    }

    #[test]
    fn multi_get_survives_a_coordinator_reboot_mid_op() {
        let mut c = Cluster::new(ClusterConfig::small().placement(Placement::TagCollocation), 99);
        c.settle();
        let mut s = c.client();
        let batch: Vec<TupleSpec> = (0..4u8)
            .map(|i| {
                TupleSpec::new(format!("rb:{i}"), vec![i], Some(f64::from(i)), Some("feed:rb"))
            })
            .collect();
        let w = s.multi_put(&mut c, batch);
        s.recv(&mut c, w).expect("ordered");
        c.run_for(5_000);
        let th = dd_sim::rng::stable_hash(b"feed:rb");
        // One slot-owner is dead: the detector marks it and the read
        // completes from the surviving owners.
        let slots = dd_sieve::TagSieve::tag_slots(th, c.config().persist_n, c.config().replication);
        c.sim.kill(c.persist_ids()[slots[0] as usize]);
        c.run_for(10);
        let req = s.multi_get(&mut c, "feed:rb");
        c.run_for(100); // op reaches its soft coordinator and goes pending
                        // Bounce the tag's soft coordinator: state survives, timers don't.
        let sc = c
            .sim
            .node(c.soft_ids()[0])
            .and_then(DropletNode::as_soft)
            .unwrap()
            .coordinator_of(th)
            .expect("soft ring nonempty");
        c.sim.kill(sc);
        c.run_for(50);
        c.sim.revive(sc);
        let feed = s.recv(&mut c, req).expect("re-armed deadline completes the read");
        assert_eq!(feed.len(), 4, "surviving owners serve the full feed");
    }

    #[test]
    fn multi_get_of_unknown_tag_is_empty() {
        let mut c = Cluster::new(ClusterConfig::small().placement(Placement::TagCollocation), 44);
        c.settle();
        let mut s = c.client();
        let req = s.multi_get(&mut c, "feed:nobody");
        let feed = s.recv(&mut c, req).expect("completes");
        assert!(feed.is_empty() && feed.complete, "empty feed, complete union");
    }

    #[test]
    fn deleted_tuples_leave_the_feed() {
        let mut c = Cluster::new(ClusterConfig::small().placement(Placement::TagCollocation), 55);
        c.settle();
        let mut s = c.client();
        let batch: Vec<TupleSpec> = (0..4u8)
            .map(|i| TupleSpec::new(format!("p:{i}"), vec![i], Some(f64::from(i)), Some("feed:z")))
            .collect();
        let w = s.multi_put(&mut c, batch);
        s.recv(&mut c, w).expect("ordered");
        c.run_for(5_000);
        let d = s.delete(&mut c, "p:2");
        s.recv(&mut c, d).expect("delete ordered");
        c.run_for(5_000);
        let r = s.multi_get(&mut c, "feed:z");
        let feed = s.recv(&mut c, r).expect("completes");
        assert_eq!(feed.len(), 3);
        assert!(feed.iter().all(|t| t.key.as_str() != "p:2"));
    }

    #[test]
    fn settle_horizon_tracks_the_network_model() {
        use dd_sim::{LatencyModel, NetConfig};
        let fast = cluster(20);
        // Default LAN model: one repair period plus modest latency slack.
        assert_eq!(fast.settle_horizon(), 1_000 + 50 * 5);
        // A slow network stretches the horizon instead of flaking.
        let mut slow = Cluster::new(ClusterConfig::small(), 20);
        slow.sim.net = NetConfig::new().latency(LatencyModel::Constant(200));
        assert_eq!(slow.settle_horizon(), 1_000 + 50 * 200);
        let before = slow.sim.now();
        slow.settle();
        assert_eq!(slow.sim.now().since(before).0, 11_000, "settle runs the derived horizon");
    }

    #[test]
    fn same_seed_same_outcome() {
        let run = |seed| {
            let mut c = cluster(seed);
            let mut s = c.client();
            let w = s.put(&mut c, "det", b"x".to_vec(), None, None);
            s.recv(&mut c, w).unwrap();
            c.run_for(3_000);
            (c.replica_count(&Key::from("det")), c.sim.metrics().counter("net.sent"))
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn multi_get_with_a_dead_owner_completes_well_before_the_deadline() {
        use crate::soft::MULTI_OP_TIMEOUT;
        let mut c = Cluster::new(ClusterConfig::small().placement(Placement::TagCollocation), 23);
        c.settle();
        let mut s = c.client();
        let batch: Vec<TupleSpec> = (0..4u8)
            .map(|i| TupleSpec::new(format!("e:{i}"), vec![i], None, Some("feed:e")))
            .collect();
        let w = s.multi_put(&mut c, batch);
        s.recv(&mut c, w).expect("ordered");
        c.run_for(5_000);
        let th = dd_sim::rng::stable_hash(b"feed:e");
        let slots = dd_sieve::TagSieve::tag_slots(th, c.config().persist_n, c.config().replication);
        c.sim.kill(c.persist_ids()[slots[0] as usize]);
        c.run_for(10);
        // Regression (straggler sweep): the op used to sit out the full
        // MULTI_OP_TIMEOUT sweep waiting on the dead owner, pinning p95 at
        // ~2 000 ticks. The detector notice completes it eagerly.
        let start = c.sim.now().0;
        let r = s.multi_get(&mut c, "feed:e");
        let feed = s.recv(&mut c, r).expect("completes");
        let elapsed = c.sim.now().0 - start;
        assert_eq!(feed.len(), 4, "surviving owners serve the full feed");
        assert!(
            elapsed < MULTI_OP_TIMEOUT / 4,
            "eager completion took {elapsed} ticks (deadline is {MULTI_OP_TIMEOUT})"
        );
    }

    #[test]
    fn acked_writes_reach_partitioned_owners_after_heal() {
        let mut c = cluster(24);
        let mut s = c.client();
        // Cut every persist node away from the soft tier, then write: the
        // put is acknowledged at ordering time (soft-tier ack, §II), but
        // no owner is reachable to store it — the lost-write window.
        for &p in &c.persist_ids().to_vec() {
            c.sim.net.set_partition(p, 1);
        }
        c.run_for(100);
        let w = s.put(&mut c, "dark-write", b"survives".to_vec(), None, None);
        s.recv(&mut c, w).expect("acked while owners are dark");
        c.run_for(2_000);
        assert_eq!(c.replica_count(&Key::from("dark-write")), 0, "nothing crossed the partition");
        // Regression (lost write): healing used to leave the acked tuple
        // stranded in the soft tier forever. The coordinator's undelivered
        // buffer now re-delivers on the PeerUp notice.
        c.sim.net.heal_partitions();
        c.run_for(2_000);
        let rc = c.replica_count(&Key::from("dark-write"));
        assert!(
            rc >= c.config().replication as usize,
            "heal re-delivers the acked write: {rc} replicas"
        );
        let r = s.get(&mut c, "dark-write");
        let got = s.recv(&mut c, r).expect("completes").expect("found after heal");
        assert_eq!(got.value, b"survives".to_vec());
    }

    #[test]
    fn pending_reads_complete_when_the_partition_heals() {
        // A tiny cache forces the read to the persist layer.
        let mut config = ClusterConfig::small();
        config.cache_capacity = 1;
        let mut c = Cluster::new(config, 25);
        c.settle();
        let mut s = c.client();
        // Writes cache at their coordinator, so evict "parked" with a
        // second key that maps to the *same* coordinator.
        let ring = c.sim.node(c.soft_ids()[0]).and_then(DropletNode::as_soft).unwrap().ring.clone();
        let coord = ring.primary(Key::from("parked").hash());
        let evictor = (0..400u32)
            .map(|i| format!("ev:{i}"))
            .find(|k| ring.primary(Key::from(k.as_str()).hash()) == coord)
            .expect("some key shares the coordinator");
        let w = s.put(&mut c, "parked", b"p".to_vec(), None, None);
        s.recv(&mut c, w).unwrap();
        let w2 = s.put(&mut c, evictor, b"e".to_vec(), None, None);
        s.recv(&mut c, w2).unwrap();
        c.run_for(3_000);
        // Partition the whole persist layer away and issue the read: every
        // holder is unreachable, so the get parks instead of timing out.
        for &p in &c.persist_ids().to_vec() {
            c.sim.net.set_partition(p, 1);
        }
        c.run_for(100);
        let r = s.get(&mut c, "parked");
        c.pump(500);
        assert_eq!(s.poll(&mut c, &r), None, "read parks while owners are dark");
        // Regression (tag partition-heal timeouts): fetches used to fire
        // once and never retry, so a heal inside the client's patience
        // still timed out. PeerUp now re-issues the fetch.
        c.sim.net.heal_partitions();
        let got = s.recv(&mut c, r).expect("completes after heal").expect("found");
        assert_eq!(got.value, b"p".to_vec());
        assert_eq!(c.sim.metrics().counter("client.timeouts"), 0);
    }

    #[test]
    fn a_healthy_first_settle_leaves_the_detector_ledger_empty() {
        let c = cluster(27);
        assert!(c.fd_view.is_empty(), "nobody is disbelieved: {:?}", c.fd_view);
        assert_eq!(c.sim.metrics().counter("fd.notices"), 0);
        assert!(c.sim.metrics().counters().any(|(name, _)| name == "fd.notices"));
    }

    #[test]
    fn a_heal_shrinks_the_detector_ledger_back_to_empty() {
        let mut c = cluster(28);
        let victim = c.persist_ids()[3];
        c.sim.net.set_partition(victim, 1);
        c.run_for(10);
        // Every other node disbelieves the victim and the victim everyone
        // it watches: two rows' worth, not a table's.
        let others = c.soft_ids().len() + c.persist_ids().len() - 1;
        assert_eq!(c.fd_view.len(), others + (c.persist_ids().len() - 1));
        c.sim.net.heal_partitions();
        c.run_for(10);
        assert!(c.fd_view.is_empty(), "disbelief only: {:?}", c.fd_view);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whatever happens to liveness, partitions and the soft tier, the
        /// change-driven sweep reports exactly the belief changes of the
        /// exhaustive pair scan, in the same order.
        #[test]
        fn change_driven_sweep_equals_the_pair_scan(
            soft_n in 2u64..5,
            persist_n in 3u64..13,
            seed in any::<u64>(),
            schedule in prop::collection::vec((0u8..7, any::<u64>()), 1..32),
        ) {
            let config = ClusterConfig { soft_n, persist_n, ..ClusterConfig::small() };
            let mut c = Cluster::new(config, seed);
            let nodes = soft_n + persist_n;
            let mut total = 0;
            for (step, arg) in schedule {
                let node = NodeId(arg % nodes);
                match step {
                    0 => c.sim.kill(node),
                    1 => c.sim.revive(node),
                    2 => drop(c.sim.remove(node)),
                    3 => c.sim.net.set_partition(node, (arg >> 32) as u32 % 3),
                    4 => c.sim.net.heal_partitions(),
                    5 => c.wipe_soft_layer(),
                    _ => {}
                }
                // As `run_for`: a sweep either side of the run, each held
                // to the oracle (the second run is empty).
                for ticks in [arg % 7, 0] {
                    let expected = c.pair_scan_notices();
                    let notices = c.failure_detector_notices();
                    prop_assert_eq!(&notices, &expected);
                    total += notices.len();
                    c.sim.run_for(Duration(ticks));
                }
            }
            prop_assert_eq!(c.sim.metrics().counter("fd.notices"), total as u64);
        }
    }

    #[test]
    fn scans_and_aggregates_leave_nothing_pending_behind_a_dead_replica() {
        let mut c = cluster(26);
        let mut s = c.client();
        c.sim.kill(c.persist_ids()[5]);
        // One pair is on its way before any detector has noticed (and is
        // struck once it does), one goes out to a peer known to be dead.
        let early = (s.scan(&mut c, 0.0, 1.0), s.aggregate(&mut c));
        c.run_for(200);
        let late = (s.scan(&mut c, 0.0, 1.0), s.aggregate(&mut c));
        // Every tuple keeps two live owners, so both pairs complete whole.
        for (scan, aggregate) in [early, late] {
            assert!(s.recv(&mut c, scan).is_ok());
            assert!(s.recv(&mut c, aggregate).is_ok());
        }
        for &id in c.soft_ids() {
            let soft = c.sim.node(id).and_then(DropletNode::as_soft).unwrap();
            assert_eq!(soft.pending_ops(), 0, "coordinator {id:?} still holds an entry");
        }
    }
}
