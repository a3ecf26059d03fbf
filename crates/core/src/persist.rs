//! The persistent-state layer node.
//!
//! §III: any node may receive operations; writes arrive in batches from
//! the coordinator that worked out whose sieve keeps them
//! ([`DropletMsg::DeliverBatch`]), the local [`SieveSpec`] still decides
//! retention ("global dissemination / local decision"), and same-class
//! anti-entropy maintains redundancy. Reads, scans and aggregates arrive
//! as one [`Query`] each and [`PersistNode::answer`] serves them from the
//! local store. A cluster member holds the same [`OwnerIndex`] the soft
//! coordinators route by, plus its own position in it: its sieve, its
//! repair peers and its ring neighbours all come from that one table.

use crate::msg::{Answer, DropletMsg, Query, SKETCH_K};
use crate::sieve_spec::{OwnerIndex, SieveSpec};
use crate::tuple::StoredTuple;
use dd_epidemic::antientropy::{Digest, Summary};
use dd_epidemic::push::RumorId;
use dd_estimation::DistSketch;
use dd_sim::{Ctx, Duration, NodeId, TimerTag};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Timer tag for repair rounds.
pub const REPAIR_TIMER: TimerTag = TimerTag(0xFE4A);

/// Buckets in the repair [`Summary`]: the constant wire size of a
/// steady-state anti-entropy round, independent of store size.
pub const REPAIR_BUCKETS: usize = 64;

/// One round in [`FAR_PULL_PERIOD`] under ring-biased repair makes a
/// uniform far pull instead of a neighbour pull.
const FAR_PULL_PERIOD: u32 = 4;

/// What a node with `sieve` wants: live tuples the sieve accepts, plus
/// any tombstone (see [`PersistNode::wants`] for why tombstones are
/// universal).
fn wants_with(sieve: &SieveSpec, tuple: &StoredTuple) -> bool {
    tuple.deleted || sieve.accepts(&tuple.item_meta())
}

/// Persistent-layer node state.
#[derive(Debug, Clone)]
pub struct PersistNode {
    /// This node's sieve.
    pub sieve: SieveSpec,
    /// The persist layer this node repairs with (closed world per
    /// experiment): the one index every coordinator and every replica of
    /// a cluster shares — n ids per cluster, not n per node. Empty for a
    /// standalone store.
    layer: Arc<OwnerIndex>,
    /// This node's own position in `layer`.
    position: usize,
    /// Latest tuple per key hash: the written version's one shared copy,
    /// the same `Arc` the other replicas hold. Mutate through
    /// [`PersistNode::apply`] only — it keeps the secondary tag index
    /// consistent.
    pub store: HashMap<u64, Arc<StoredTuple>>,
    /// Repair period; `None` disables maintenance.
    pub repair_period: Option<Duration>,
    /// Topology-aware repair: most periodic rounds pull from a ring
    /// neighbour (whose sieve segment overlaps ours most under range
    /// placement, so divergence is found where it concentrates), with a
    /// uniform far pull one round in `FAR_PULL_PERIOD` so divergence that
    /// skipped the ring — revival gaps, cross-class tombstones — still
    /// converges. Off by default: every round is a uniform draw, so
    /// recorded scenario seeds replay byte-identically.
    pub ring_repair: bool,
    /// Secondary index: tag hash → key hashes of live tuples carrying the
    /// tag. Serves tag-scoped reads ([`Query::Tag`]) without a
    /// store scan; maintained by [`PersistNode::apply`].
    tag_index: HashMap<u64, HashSet<u64>>,
    /// Reusable bucket arrays for summary comparison: rounds that only
    /// *compare* (the [`DropletMsg::RepairSummary`] leg) rebuild into this
    /// scratch instead of allocating fresh buckets per exchange.
    summary_scratch: Summary,
}

impl PersistNode {
    /// Creates a standalone store with no peers: it serves and repairs
    /// when driven directly, but its own rounds find nobody to pull from.
    #[must_use]
    pub fn new(sieve: SieveSpec, repair_period: Option<Duration>) -> Self {
        Self::build(sieve, Arc::default(), 0, repair_period)
    }

    /// Creates the member at `position` of the persist layer `layer`,
    /// running [`OwnerIndex::sieve`]`(position)`. The index is shared — not
    /// copied — with the coordinators and the other members.
    ///
    /// # Panics
    /// Panics if `position` lies outside `layer`.
    #[must_use]
    pub fn member(
        layer: Arc<OwnerIndex>,
        position: usize,
        repair_period: Option<Duration>,
    ) -> Self {
        Self::build(layer.sieve(position), layer, position, repair_period)
    }

    fn build(
        sieve: SieveSpec,
        layer: Arc<OwnerIndex>,
        position: usize,
        repair_period: Option<Duration>,
    ) -> Self {
        PersistNode {
            sieve,
            layer,
            position,
            store: HashMap::new(),
            repair_period,
            ring_repair: false,
            tag_index: HashMap::new(),
            summary_scratch: Summary::new(REPAIR_BUCKETS),
        }
    }

    /// Every persist-layer peer — everyone in the layer but this node — in
    /// position order. A view over the shared index, not a per-node list
    /// (a Cyclon view would plug in behind the same accessor).
    pub fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.position;
        self.layer.peers.iter().enumerate().filter(move |&(i, _)| i != me).map(|(_, &id)| id)
    }

    /// One uniform draw over [`PersistNode::peers`] — the same single
    /// `gen_range` (and therefore the same node) as `choose` over the
    /// materialised list, without materialising it.
    fn choose_peer<R: Rng>(&self, rng: &mut R) -> Option<NodeId> {
        let n = self.layer.peers.len().saturating_sub(1);
        if n == 0 {
            return None;
        }
        let j = rng.gen_range(0..n);
        // Peers from this node's own position onward sit one slot later.
        Some(self.layer.peers[j + usize::from(j >= self.position)])
    }

    /// Number of live (non-tombstone) tuples held.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.store.values().filter(|t| !t.deleted).count()
    }

    /// Number of tombstones retained (deleted entries awaiting
    /// supersession-evidence retirement).
    #[must_use]
    pub fn tombstone_count(&self) -> usize {
        self.store.len() - self.live_count()
    }

    /// Total stored payload bytes across live tuples (tombstones carry
    /// no value). Logical bytes: a value shared with other replicas counts
    /// once per replica holding it, so a layer at replication degree r
    /// reports r bytes per user byte although it allocates the value once.
    #[must_use]
    pub fn store_bytes(&self) -> usize {
        self.store.values().map(|t| t.value.len()).sum()
    }

    /// Occupied buckets in this node's self-projected repair [`Summary`]
    /// — how much of the constant wire size a digest-first round
    /// actually uses at the current store size.
    #[must_use]
    pub fn summary_occupancy(&self) -> usize {
        self.shared_summary(&self.sieve).occupied()
    }

    /// Applies a tuple if it supersedes what we hold (the deterministic
    /// [`StoredTuple::supersedes`] order), keeping the tag index in step.
    /// An `Arc` is kept as it is, so the store shares it with every other
    /// holder. Returns `true` when the store changed.
    pub fn apply(&mut self, tuple: impl Into<Arc<StoredTuple>>) -> bool {
        let tuple = tuple.into();
        let previous_tag = match self.store.get(&tuple.key_hash) {
            Some(existing) if !tuple.supersedes(existing) => return false,
            Some(existing) => existing.tag_hash,
            None => None,
        };
        let new_tag = (!tuple.deleted).then_some(tuple.tag_hash).flatten();
        if previous_tag != new_tag {
            if let Some(old) = previous_tag {
                self.unindex_tag(old, tuple.key_hash);
            }
            if let Some(t) = new_tag {
                self.tag_index.entry(t).or_default().insert(tuple.key_hash);
            }
        }
        self.store.insert(tuple.key_hash, tuple);
        true
    }

    /// Whether this node should apply `tuple` when it arrives: the sieve
    /// decides for live tuples, but tombstones are wanted *everywhere*.
    /// A tombstone carries no tag, so a collocation sieve would never
    /// deliver the delete to the very nodes storing the live tuple; and
    /// because epidemic delivery is unordered, a tombstone can arrive
    /// before the live tuple it supersedes — only a node that kept it can
    /// then reject the stale live write. Tombstones are empty-valued, so
    /// the cost is metadata-only.
    #[must_use]
    pub fn wants(&self, tuple: &StoredTuple) -> bool {
        wants_with(&self.sieve, tuple)
    }

    /// Live tuples carrying `tag_hash`, via the secondary index, as owned
    /// copies.
    #[must_use]
    pub fn by_tag(&self, tag_hash: u64) -> Vec<StoredTuple> {
        self.tag_index
            .get(&tag_hash)
            .into_iter()
            .flatten()
            .filter_map(|kh| self.store.get(kh))
            .filter(|t| !t.deleted)
            .map(|t| StoredTuple::clone(t))
            .collect()
    }

    /// Answers a coordinator's query from the local store: a read at a
    /// version floor (a tombstone is an answer), the live tuples of a tag
    /// or an attribute range, or a duplicate-tolerant summary of the live
    /// attributed tuples (bottom-k sketch by key hash, exact min and max).
    /// Tuples in an answer are owned copies.
    #[must_use]
    pub fn answer(&self, query: &Query) -> Answer {
        match *query {
            Query::Get { key_hash, version } => Answer::Found(
                self.store
                    .get(&key_hash)
                    .filter(|t| t.version >= version)
                    .map(|t| StoredTuple::clone(t)),
            ),
            Query::Tag(tag_hash) => Answer::Tagged(self.by_tag(tag_hash)),
            Query::Range { lo, hi } => Answer::InRange(
                self.store
                    .values()
                    .filter(|t| !t.deleted)
                    .filter(|t| t.attr.is_some_and(|a| a >= lo && a <= hi))
                    .map(|t| StoredTuple::clone(t))
                    .collect(),
            ),
            Query::Aggregate => {
                let mut sketch = DistSketch::new(SKETCH_K);
                let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
                for t in self.store.values().filter(|t| !t.deleted) {
                    if let Some(a) = t.attr {
                        sketch.observe(t.key_hash, a);
                        min = min.min(a);
                        max = max.max(a);
                    }
                }
                Answer::Summary { sketch, min, max }
            }
        }
    }

    /// The digest of held `(key, version)` pairs, as rumor ids.
    #[must_use]
    pub fn digest(&self) -> Digest {
        Digest::from_ids(self.store.values().map(|t| RumorId(t.rumor_id())).collect())
    }

    /// Tuples the peer (per its digest) is missing *and* wants: live
    /// tuples its sieve accepts, plus any tombstone (see
    /// [`PersistNode::wants`]). Shared with our store, not copied.
    #[must_use]
    pub fn items_for_peer(
        &self,
        their_digest: &Digest,
        their_sieve: &SieveSpec,
    ) -> Vec<Arc<StoredTuple>> {
        let theirs: HashSet<RumorId> = their_digest.ids().iter().copied().collect();
        self.shared(their_sieve)
            .filter(|t| !theirs.contains(&RumorId(t.rumor_id())))
            .cloned()
            .collect()
    }

    // ------------------------------------------------------------------
    // Digest-first repair: pure helpers (also driven directly by the
    // convergence proptest). Both sides of an exchange project their
    // store through the *other* node's sieve — at convergence the two
    // projections are the same set (all tombstones plus the live tuples
    // both sieves accept), so equal summaries certify pairwise agreement
    // on the shared key-space without any per-peer state.
    // ------------------------------------------------------------------

    /// Our store projected through the peer's sieve: every tuple a node
    /// with `their_sieve` wants. The one store scan of the repair exchange.
    fn shared<'a>(
        &'a self,
        their_sieve: &'a SieveSpec,
    ) -> impl Iterator<Item = &'a Arc<StoredTuple>> {
        self.store.values().filter(|t| wants_with(their_sieve, t))
    }

    /// Constant-size summary of our store projected through the peer's
    /// sieve.
    #[must_use]
    pub fn shared_summary(&self, their_sieve: &SieveSpec) -> Summary {
        Summary::from_ids(REPAIR_BUCKETS, self.shared(their_sieve).map(|t| RumorId(t.rumor_id())))
    }

    /// Buckets where our shared projection diverges from the peer's
    /// summary. Semantically `self.shared_summary(their_sieve)
    /// .diff(theirs)`, but the local summary is rebuilt into the node's
    /// scratch buckets, so the steady-state compare leg is allocation-free
    /// apart from the returned (usually empty) diff.
    #[must_use]
    pub fn shared_summary_diff(&mut self, their_sieve: &SieveSpec, theirs: &Summary) -> Vec<u32> {
        let mut scratch = std::mem::take(&mut self.summary_scratch);
        scratch.rebuild(REPAIR_BUCKETS, self.shared(their_sieve).map(|t| RumorId(t.rumor_id())));
        let diff = scratch.diff(theirs);
        self.summary_scratch = scratch;
        diff
    }

    /// Our shared-projection ids falling in `buckets` (sorted, so wire
    /// content never depends on hash-map iteration order).
    #[must_use]
    pub fn shared_ids_in(&self, their_sieve: &SieveSpec, buckets: &[u32]) -> Vec<RumorId> {
        let chosen: HashSet<u32> = buckets.iter().copied().collect();
        let mut ids: Vec<RumorId> = self
            .shared(their_sieve)
            .map(|t| RumorId(t.rumor_id()))
            .filter(|&id| chosen.contains(&(Summary::bucket_of(REPAIR_BUCKETS, id) as u32)))
            .collect();
        ids.sort();
        ids
    }

    /// Resolves a [`DropletMsg::RepairPull`]: among our shared-projection
    /// tuples in `buckets`, the ones absent from `their_ids` (they lack
    /// them), plus the ids in `their_ids` we ourselves lack (and want —
    /// the peer built that list through *our* sieve). The delta shares our
    /// copies.
    #[must_use]
    pub fn repair_delta(
        &self,
        their_sieve: &SieveSpec,
        buckets: &[u32],
        their_ids: &[RumorId],
    ) -> (Vec<Arc<StoredTuple>>, Vec<RumorId>) {
        let theirs: HashSet<RumorId> = their_ids.iter().copied().collect();
        let chosen: HashSet<u32> = buckets.iter().copied().collect();
        let mut items = Vec::new();
        let mut ours = HashSet::new();
        for t in self.shared(their_sieve) {
            let id = RumorId(t.rumor_id());
            if chosen.contains(&(Summary::bucket_of(REPAIR_BUCKETS, id) as u32)) {
                ours.insert(id);
                if !theirs.contains(&id) {
                    items.push(Arc::clone(t));
                }
            }
        }
        items.sort_by_key(|t| t.rumor_id());
        let mut want: Vec<RumorId> =
            their_ids.iter().copied().filter(|id| !ours.contains(id)).collect();
        want.sort();
        (items, want)
    }

    /// Looks up held tuples by rumor id (the reciprocal repair leg),
    /// sharing our copies.
    #[must_use]
    pub fn tuples_for(&self, ids: &[RumorId]) -> Vec<Arc<StoredTuple>> {
        let wanted: HashSet<RumorId> = ids.iter().copied().collect();
        let mut items: Vec<Arc<StoredTuple>> = self
            .store
            .values()
            .filter(|t| wanted.contains(&RumorId(t.rumor_id())))
            .cloned()
            .collect();
        items.sort_by_key(|t| t.rumor_id());
        items
    }

    /// Drops the entry for `key_hash`, keeping the tag index in step.
    fn retire(&mut self, key_hash: u64) {
        if let Some(old) = self.store.remove(&key_hash) {
            if let (false, Some(tag)) = (old.deleted, old.tag_hash) {
                self.unindex_tag(tag, key_hash);
            }
        }
    }

    /// Removes `key_hash` from `tag`'s index entry, dropping the entry once
    /// it is empty.
    fn unindex_tag(&mut self, tag: u64, key_hash: u64) {
        if let Some(keys) = self.tag_index.get_mut(&tag) {
            keys.remove(&key_hash);
            if keys.is_empty() {
                self.tag_index.remove(&tag);
            }
        }
    }

    /// Applies a repair batch; returns how many tuples actually changed
    /// the store, plus *supersession evidence*: for every offered tuple
    /// whose key we hold at a strictly newer version, our copy. The
    /// sender learns its entry is stale and either upgrades or retires
    /// it — without this leg, a node keeping a superseded tombstone for
    /// a key whose newer live version its peer's sieve rejects would
    /// disagree with that peer's summary on every round, forever.
    ///
    /// Symmetrically, an offered tuple that is strictly newer than our
    /// entry but that we do not want (a live write of a key our sieve
    /// rejects) retires our stale entry: the tombstone or old version we
    /// kept only guarded against writes older than the one we just saw.
    ///
    /// An applied tuple is stored as the `Arc` it came in, and evidence
    /// shares our copies, so a repaired replica holds the same allocation
    /// as the replica it was repaired from.
    pub fn apply_repair(&mut self, items: Vec<Arc<StoredTuple>>) -> (u64, Vec<Arc<StoredTuple>>) {
        let mut recovered = 0u64;
        let mut evidence = Vec::new();
        for t in items {
            if self.wants(&t) {
                if self.apply(Arc::clone(&t)) {
                    recovered += 1;
                    continue;
                }
            } else if self.store.get(&t.key_hash).is_some_and(|held| t.supersedes(held)) {
                self.retire(t.key_hash);
                continue;
            }
            if let Some(held) = self.store.get(&t.key_hash) {
                if held.supersedes(&t) {
                    evidence.push(Arc::clone(held));
                }
            }
        }
        evidence.sort_by_key(|t| t.rumor_id());
        evidence.dedup_by_key(|t| t.rumor_id());
        (recovered, evidence)
    }

    /// Initiates a digest exchange with up to `count` random peers — the
    /// rejoin hook, called when this node revives so acked writes that
    /// landed elsewhere while it was down flow back immediately.
    pub fn initiate_repair(&mut self, ctx: &mut Ctx<'_, DropletMsg>, count: usize) {
        if self.repair_period.is_none() {
            return;
        }
        let mut peers: Vec<NodeId> = self.peers().collect();
        peers.shuffle(ctx.rng());
        for peer in peers.into_iter().take(count) {
            ctx.send(peer, DropletMsg::RepairDigest { sieve: self.sieve });
        }
    }

    /// Handles persist-layer messages; shared by the composite process.
    pub fn on_message(&mut self, ctx: &mut Ctx<'_, DropletMsg>, from: NodeId, msg: DropletMsg) {
        match msg {
            DropletMsg::Ask { req, query, trace } => {
                match query {
                    Query::Get { .. } => ctx.metrics().incr("persist.fetches"),
                    Query::Tag(_) => ctx.metrics().incr("persist.tag_fetches"),
                    Query::Range { .. } | Query::Aggregate => {}
                }
                let answer = self.answer(&query);
                ctx.trace_instant(trace, "persist.serve");
                ctx.send(from, DropletMsg::Reply { req, answer });
            }
            DropletMsg::DeliverBatch { tuples, traces } => {
                // Sieve-routed direct delivery: the coordinator already
                // computed that our sieve accepts these, so in the common
                // case every tuple is stored and acked in one batch.
                let mut acked = Vec::with_capacity(tuples.len());
                for (i, tuple) in tuples.into_iter().enumerate() {
                    ctx.metrics().incr("persist.received");
                    if self.wants(&tuple) {
                        let (key_hash, version) = (tuple.key_hash, tuple.version);
                        if self.apply(tuple) {
                            ctx.metrics().incr("persist.stored");
                        }
                        ctx.trace_instant(traces.get(i).copied().flatten(), "persist.store");
                        // Ack even a no-op apply (we hold >= that version):
                        // redelivery after a heal must clear the
                        // coordinator's undelivered buffer.
                        acked.push((key_hash, version));
                    }
                }
                if !acked.is_empty() {
                    ctx.send(from, DropletMsg::StoredAckBatch { acked });
                }
            }
            DropletMsg::RepairDigest { sieve } => {
                // Step 2: answer with a constant-size summary of our store
                // projected through the initiator's sieve.
                ctx.metrics().incr("repair.syncs");
                let summary = self.shared_summary(&sieve);
                ctx.send(from, DropletMsg::RepairSummary { sieve: self.sieve, summary });
            }
            DropletMsg::RepairSummary { sieve, summary } => {
                // Step 3: compare against our own shared projection; equal
                // summaries end the round at two constant-size messages.
                let diff = self.shared_summary_diff(&sieve, &summary);
                if diff.is_empty() {
                    ctx.metrics().incr("repair.clean");
                } else {
                    let ids = self.shared_ids_in(&sieve, &diff);
                    ctx.send(
                        from,
                        DropletMsg::RepairPull { sieve: self.sieve, buckets: diff, ids },
                    );
                }
            }
            DropletMsg::RepairPull { sieve, buckets, ids } => {
                // Step 4: ship only the delta, and ask back for what the
                // initiator has that we lack.
                ctx.metrics().incr("repair.pulls");
                let (items, want) = self.repair_delta(&sieve, &buckets, &ids);
                if !items.is_empty() || !want.is_empty() {
                    ctx.send(from, DropletMsg::RepairItems { items, want });
                }
            }
            DropletMsg::RepairItems { items, want } => {
                // Step 5: the reciprocal leg — what the peer asked for,
                // plus supersession evidence for anything it offered that
                // we hold newer. Evidence hops carry strictly increasing
                // versions, so the exchange always terminates.
                let (recovered, mut reply) = self.apply_repair(items);
                ctx.metrics().add("repair.recovered", recovered);
                if !want.is_empty() {
                    reply.extend(self.tuples_for(&want));
                    reply.sort_by_key(|t| t.rumor_id());
                    reply.dedup_by_key(|t| t.rumor_id());
                }
                if !reply.is_empty() {
                    ctx.send(from, DropletMsg::RepairItems { items: reply, want: vec![] });
                }
            }
            // Heal / revival notice from the local failure detector:
            // immediately reconcile with the peer that just became
            // reachable, so writes acked while it was dark flow over
            // without waiting for the next periodic round.
            DropletMsg::PeerUp(peer) if self.repair_period.is_some() => {
                ctx.send(peer, DropletMsg::RepairDigest { sieve: self.sieve });
            }
            _ => {}
        }
    }

    /// Arms the repair timer (called from `on_start`/`on_up`).
    pub fn arm_timers(&self, ctx: &mut Ctx<'_, DropletMsg>) {
        if let Some(period) = self.repair_period {
            let jitter = ctx.rng().gen_range(0..period.0.max(1));
            ctx.set_timer(Duration(jitter), REPAIR_TIMER);
        }
    }

    /// Picks this round's repair partner. Without [`PersistNode::ring_repair`]
    /// this consumes exactly one uniform draw, identical to the historical
    /// `peers.choose` — recorded seeds keep replaying byte-for-byte. With
    /// it, the neighbours are the positions either side of ours, which
    /// slot ownership and range segments follow: two in a ring of three or
    /// more, one in a two-node ring, none (so a uniform draw) in a lone one.
    fn pick_repair_peer<R: Rng>(&self, rng: &mut R) -> Option<NodeId> {
        let (peers, p) = (&self.layer.peers, self.position);
        let n = peers.len();
        if self.ring_repair && n > 1 && rng.gen_range(0..FAR_PULL_PERIOD) > 0 {
            let ring = [peers[(p + n - 1) % n], peers[(p + 1) % n]];
            return ring[..n.min(3) - 1].choose(rng).copied();
        }
        self.choose_peer(rng)
    }

    /// Handles the repair timer.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_, DropletMsg>, tag: TimerTag) {
        if tag != REPAIR_TIMER {
            return;
        }
        if let Some(peer) = self.pick_repair_peer(ctx.rng()) {
            ctx.send(peer, DropletMsg::RepairDigest { sieve: self.sieve });
        }
        if let Some(period) = self.repair_period {
            ctx.set_timer(period, REPAIR_TIMER);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{Key, Tag};
    use dd_dht::Version;

    fn tuple(key: &str, version: u64) -> StoredTuple {
        with(key, version, Some(1.0), None)
    }

    fn with(key: &str, version: u64, attr: Option<f64>, tag: Option<&str>) -> StoredTuple {
        StoredTuple::new(Key::from(key), Version(version), b"v".to_vec(), attr, tag)
    }

    #[test]
    fn apply_keeps_latest_version_only() {
        let mut n = PersistNode::new(SieveSpec::Range { index: 0, of: 1, r: 1 }, None);
        assert!(n.apply(tuple("k", 1)));
        assert!(n.apply(tuple("k", 3)));
        assert!(!n.apply(tuple("k", 2)), "stale write rejected");
        assert_eq!(n.store.len(), 1);
        assert_eq!(n.store.values().next().unwrap().version, Version(3));
    }

    #[test]
    fn tombstone_supersedes_and_live_count_drops() {
        let mut n = PersistNode::new(SieveSpec::Range { index: 0, of: 1, r: 1 }, None);
        n.apply(tuple("k", 1));
        assert_eq!(n.live_count(), 1);
        n.apply(StoredTuple::tombstone("k".into(), Version(2)));
        assert_eq!(n.live_count(), 0);
        assert_eq!(n.store.len(), 1, "tombstone retained for ordering");
    }

    fn tagged(key: &str, version: u64, tag: &str) -> StoredTuple {
        with(key, version, Some(1.0), Some(tag))
    }

    #[test]
    fn tag_index_serves_live_tuples_by_tag() {
        let mut n = PersistNode::new(SieveSpec::Range { index: 0, of: 1, r: 1 }, None);
        let th = dd_sim::rng::stable_hash(b"feed:a");
        n.apply(tagged("p1", 1, "feed:a"));
        n.apply(tagged("p2", 1, "feed:a"));
        n.apply(tagged("q1", 1, "feed:b"));
        n.apply(tuple("untagged", 1));
        let feed = n.by_tag(th);
        assert_eq!(feed.len(), 2);
        assert!(feed.iter().all(|t| t.tag_hash == Some(th)));
        assert!(n.by_tag(dd_sim::rng::stable_hash(b"feed:none")).is_empty());
    }

    #[test]
    fn tag_index_follows_overwrites_and_tombstones() {
        let mut n = PersistNode::new(SieveSpec::Range { index: 0, of: 1, r: 1 }, None);
        let ta = dd_sim::rng::stable_hash(b"feed:a");
        let tb = dd_sim::rng::stable_hash(b"feed:b");
        n.apply(tagged("p", 1, "feed:a"));
        assert_eq!(n.by_tag(ta).len(), 1);
        // Retagging moves the key between index entries.
        n.apply(tagged("p", 2, "feed:b"));
        assert!(n.by_tag(ta).is_empty());
        assert_eq!(n.by_tag(tb).len(), 1);
        // A tombstone removes the key from the index entirely.
        n.apply(StoredTuple::tombstone("p".into(), Version(3)));
        assert!(n.by_tag(tb).is_empty());
        // Stale re-delivery of the old tagged version must not resurrect it.
        assert!(!n.apply(tagged("p", 2, "feed:b")));
        assert!(n.by_tag(tb).is_empty());
    }

    fn keys(items: &[StoredTuple]) -> Vec<&str> {
        let mut keys: Vec<&str> = items.iter().map(|t| t.key.as_str()).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn a_get_is_answered_at_its_version_floor_and_a_tombstone_is_found() {
        let mut n = PersistNode::new(SieveSpec::Range { index: 0, of: 1, r: 1 }, None);
        n.apply(tuple("k", 3));
        let get = |n: &PersistNode, key: &str, version: u64| {
            n.answer(&Query::Get { key_hash: Key::from(key).hash(), version: Version(version) })
        };
        assert!(matches!(get(&n, "k", 2), Answer::Found(Some(t)) if t.version == Version(3)));
        assert!(matches!(get(&n, "k", 3), Answer::Found(Some(t)) if t.version == Version(3)));
        assert!(matches!(get(&n, "k", 4), Answer::Found(None)), "held below the floor");
        assert!(matches!(get(&n, "absent", 1), Answer::Found(None)));
        n.apply(StoredTuple::tombstone("k".into(), Version(5)));
        assert!(matches!(get(&n, "k", 4), Answer::Found(Some(t)) if t.deleted));
    }

    #[test]
    fn tag_and_range_answers_hold_live_tuples_only() {
        let mut n = PersistNode::new(SieveSpec::Range { index: 0, of: 1, r: 1 }, None);
        n.apply(with("a", 1, Some(1.0), Some("feed")));
        n.apply(with("b", 1, Some(2.0), Some("feed")));
        n.apply(with("c", 1, Some(3.0), None));
        n.apply(with("bare", 1, None, Some("feed")));
        n.apply(with("gone", 1, Some(2.5), Some("feed")));
        n.apply(StoredTuple::tombstone("gone".into(), Version(2)));
        let Answer::Tagged(items) = n.answer(&Query::Tag(Tag::from("feed").hash())) else {
            panic!("a tag query is answered with tagged tuples")
        };
        assert_eq!(keys(&items), ["a", "b", "bare"]);
        let Answer::InRange(items) = n.answer(&Query::Range { lo: 1.5, hi: 3.0 }) else {
            panic!("a range query is answered with the tuples in range")
        };
        assert_eq!(keys(&items), ["b", "c"], "bounds inclusive, no tombstone, no bare tuple");
    }

    #[test]
    fn an_aggregate_answer_skips_tombstones_and_tuples_without_an_attribute() {
        let mut n = PersistNode::new(SieveSpec::Range { index: 0, of: 1, r: 1 }, None);
        let Answer::Summary { sketch, min, max } = n.answer(&Query::Aggregate) else {
            panic!("an aggregate query is answered with a summary")
        };
        assert!(sketch.is_empty() && min == f64::INFINITY && max == f64::NEG_INFINITY);
        n.apply(with("a", 1, Some(4.0), None));
        n.apply(with("b", 1, Some(-2.5), None));
        n.apply(with("bare", 1, None, None));
        n.apply(with("gone", 1, Some(9.0), None));
        n.apply(StoredTuple::tombstone("gone".into(), Version(2)));
        let Answer::Summary { sketch, min, max } = n.answer(&Query::Aggregate) else {
            panic!("an aggregate query is answered with a summary")
        };
        assert_eq!((sketch.len(), sketch.capacity()), (2, SKETCH_K));
        assert_eq!((min, max), (-2.5, 4.0), "exact bounds of the live attributed tuples");
    }

    #[test]
    fn tombstones_are_wanted_regardless_of_sieve() {
        // A tag sieve that owns feed:a's slot stores the live post; the
        // tombstone (tagless, so the sieve itself would route it to the
        // uniform fallback) must still be wanted by the holder.
        let slots = 16u64;
        let live = tagged("p", 1, "feed:a");
        let th = live.tag_hash.expect("tagged");
        let owner_slot = dd_sieve::TagSieve::tag_slots(th, slots, 1)[0];
        let mut owner = PersistNode::new(SieveSpec::Tag { slot: owner_slot, slots, r: 1 }, None);
        assert!(owner.wants(&live));
        owner.apply(live);
        let tomb = StoredTuple::tombstone("p".into(), Version(2));
        assert!(owner.wants(&tomb), "holder accepts the delete");
        owner.apply(tomb);
        assert_eq!(owner.live_count(), 0);
    }

    #[test]
    fn early_tombstone_blocks_the_stale_live_write() {
        // Epidemic delivery is unordered: the tombstone (v2) can arrive
        // before the live write (v1) it supersedes. The node must keep
        // the tombstone — even when its sieve would reject it — so the
        // late live write cannot resurrect the deleted tuple.
        let slots = 16u64;
        let live = tagged("p", 1, "feed:a");
        let th = live.tag_hash.expect("tagged");
        let owner_slot = dd_sieve::TagSieve::tag_slots(th, slots, 1)[0];
        let mut owner = PersistNode::new(SieveSpec::Tag { slot: owner_slot, slots, r: 1 }, None);
        let tomb = StoredTuple::tombstone("p".into(), Version(2));
        assert!(owner.wants(&tomb), "tombstone wanted before any version is held");
        owner.apply(tomb);
        assert!(!owner.apply(live), "stale live write rejected after the delete");
        assert_eq!(owner.live_count(), 0);
        assert!(owner.by_tag(th).is_empty());
    }

    #[test]
    fn digest_reflects_key_versions() {
        let mut n = PersistNode::new(SieveSpec::Range { index: 0, of: 1, r: 1 }, None);
        n.apply(tuple("a", 1));
        let d1 = n.digest();
        n.apply(tuple("a", 2));
        let d2 = n.digest();
        assert_ne!(d1, d2, "new version changes the digest");
        assert_eq!(d2.len(), 1);
    }

    #[test]
    fn items_for_peer_respects_their_sieve_and_digest() {
        let all = SieveSpec::Range { index: 0, of: 1, r: 1 };
        let mut n = PersistNode::new(all, None);
        // 8-segment sieve for the peer: accepts only a fraction of keys.
        let peer_sieve = SieveSpec::Range { index: 0, of: 8, r: 1 };
        for i in 0..64 {
            n.apply(tuple(&format!("k{i}"), 1));
        }
        let sent = n.items_for_peer(&Digest::default(), &peer_sieve);
        assert!(!sent.is_empty());
        assert!(sent.len() < 32, "only the peer's share is sent: {}", sent.len());
        for t in &sent {
            assert!(peer_sieve.accepts(&t.item_meta()));
        }
        // With the peer already holding everything, nothing is sent.
        let full = n.digest();
        assert!(n.items_for_peer(&full, &all).is_empty());
    }

    /// Drives one full digest-first round between two nodes without a
    /// simulator, mirroring the on_message handlers: summary compare →
    /// pull → delta → reciprocal. Returns the messages it took (0 when
    /// the pair was already converged).
    fn reconcile(a: &mut PersistNode, b: &mut PersistNode) -> usize {
        // a → b: RepairDigest{a.sieve}; b → a: RepairSummary.
        let summary_b = b.shared_summary(&a.sieve);
        let mut msgs = 2;
        let diff = a.shared_summary_diff(&b.sieve, &summary_b);
        if diff.is_empty() {
            return msgs;
        }
        // a → b: RepairPull.
        let ids_a = a.shared_ids_in(&b.sieve, &diff);
        msgs += 1;
        // b → a: RepairItems{items, want}.
        let (items, want) = b.repair_delta(&a.sieve, &diff, &ids_a);
        if items.is_empty() && want.is_empty() {
            return msgs;
        }
        msgs += 1;
        let (_, mut batch) = a.apply_repair(items);
        if !want.is_empty() {
            batch.extend(a.tuples_for(&want));
            batch.sort_by_key(|t| t.rumor_id());
            batch.dedup_by_key(|t| t.rumor_id());
        }
        // RepairItems ping-pong until quiet: each hop either answers the
        // want leg or carries supersession evidence (strictly increasing
        // versions), so this terminates.
        let mut a_to_b = true;
        while !batch.is_empty() {
            msgs += 1;
            let (_, evidence) = if a_to_b { b.apply_repair(batch) } else { a.apply_repair(batch) };
            batch = evidence;
            a_to_b = !a_to_b;
        }
        msgs
    }

    #[test]
    fn scratch_diff_agrees_with_fresh_summaries_across_rounds() {
        let all = SieveSpec::Range { index: 0, of: 1, r: 1 };
        let mut a = PersistNode::new(all, None);
        let mut b = PersistNode::new(all, None);
        for i in 0..40 {
            a.apply(tuple(&format!("k{i}"), 1));
            if i % 3 != 0 {
                b.apply(tuple(&format!("k{i}"), 1));
            }
        }
        // Several rounds over a changing store: the reused scratch must
        // match a freshly allocated summary every time.
        let (a_sieve, b_sieve) = (a.sieve, b.sieve);
        for round in 0..4 {
            let theirs = b.shared_summary(&a_sieve);
            let fresh = a.shared_summary(&b_sieve).diff(&theirs);
            let scratch = a.shared_summary_diff(&b_sieve, &theirs);
            assert_eq!(scratch, fresh, "round {round}");
            a.apply(tuple(&format!("extra{round}"), 1));
        }
    }

    /// A layer of `n` members `NodeId(0..n)` under range placement.
    fn layer(n: u64) -> Arc<OwnerIndex> {
        Arc::new(OwnerIndex::new((0..n).map(NodeId).collect(), crate::Placement::RangePartition, 1))
    }

    #[test]
    fn ring_biased_rounds_pull_mostly_from_neighbours() {
        use rand::SeedableRng;
        let neighbours = [NodeId(1), NodeId(10)];
        let mut n = PersistNode::member(layer(11), 0, Some(Duration(100)));
        n.ring_repair = true;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xCA117);
        let rounds = 1_000;
        let mut neighbour_pulls = 0usize;
        let mut far_pulls = 0usize;
        for _ in 0..rounds {
            let peer = n.pick_repair_peer(&mut rng).expect("peers nonempty");
            if neighbours.contains(&peer) {
                neighbour_pulls += 1;
            } else {
                far_pulls += 1;
            }
        }
        // Expected neighbour share is 3/4 + 1/4·(2/10) = 0.8; a calm node
        // should spend the clear majority of rounds on its ring
        // neighbours while still making some far pulls for mixing.
        assert!(
            neighbour_pulls * 3 > rounds * 2,
            "neighbour pulls dominate: {neighbour_pulls}/{rounds}"
        );
        assert!(far_pulls > 0, "far pulls still occur for long-range mixing");
    }

    #[test]
    fn random_peering_is_the_default_and_draws_uniformly() {
        use rand::SeedableRng;
        let peers: Vec<NodeId> = (1..=4).map(NodeId).collect();
        let n = PersistNode::member(layer(5), 0, Some(Duration(100)));
        assert!(!n.ring_repair);
        // One draw per round, same as `peers.choose` — the property the
        // determinism replay suite depends on.
        let mut a = rand::rngs::SmallRng::seed_from_u64(7);
        let mut b = rand::rngs::SmallRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(n.pick_repair_peer(&mut a), peers.choose(&mut b).copied());
        }
    }

    #[test]
    fn shared_table_draw_equals_choose_over_the_materialised_list() {
        use rand::SeedableRng;
        let table = layer(7);
        for me in 0..table.peers.len() {
            let n = PersistNode::member(Arc::clone(&table), me, None);
            let others: Vec<NodeId> =
                table.peers.iter().copied().filter(|&p| p.0 != me as u64).collect();
            assert_eq!(n.peers().collect::<Vec<_>>(), others, "everyone but me, in table order");
            for seed in 0..1_000 {
                let mut a = rand::rngs::SmallRng::seed_from_u64(seed);
                let mut b = a.clone();
                assert_eq!(n.pick_repair_peer(&mut a), others.choose(&mut b).copied());
                assert_eq!(a, b, "the same single draw consumed");
            }
        }
        // A lone member has nobody to pick, and draws nothing.
        let lone = PersistNode::member(layer(1), 0, None);
        assert_eq!(lone.pick_repair_peer(&mut rand::rngs::SmallRng::seed_from_u64(1)), None);
    }

    #[test]
    fn cluster_members_draw_pinned_repair_partners() {
        // Pins every member's partner draws in one- to eight-node layers,
        // with and without ring-biased repair; the one- and two-node rings
        // (no neighbour, one neighbour) are reached by no other fixture.
        use crate::cluster::{Cluster, ClusterConfig, DropletNode};
        use rand::SeedableRng;
        let mut fold = 0u64;
        for ring in [false, true] {
            for n in [1, 2, 3, 8] {
                let config = ClusterConfig::small().persist_n(n);
                let cluster = Cluster::new(if ring { config.ring_repair() } else { config }, 7);
                for &id in &cluster.persist.peers {
                    let node = cluster.sim.node(id).and_then(DropletNode::as_persist).unwrap();
                    let mut rng = rand::rngs::SmallRng::seed_from_u64(id.0);
                    for _ in 0..64 {
                        let partner = node.pick_repair_peer(&mut rng);
                        fold = dd_sim::rng::mix(fold, partner.map_or(u64::MAX, |p| p.0));
                    }
                }
            }
        }
        assert_eq!(fold, 0x870b_734a_c331_51df);
    }

    fn sorted_ids(n: &PersistNode) -> Vec<u64> {
        let mut ids: Vec<u64> = n.store.values().map(|t| t.rumor_id()).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn converged_pair_exchanges_two_constant_size_messages() {
        let all = SieveSpec::Range { index: 0, of: 1, r: 1 };
        let mut a = PersistNode::new(all, None);
        let mut b = PersistNode::new(all, None);
        for i in 0..100 {
            a.apply(tuple(&format!("k{i}"), 1));
            b.apply(tuple(&format!("k{i}"), 1));
        }
        let summary = b.shared_summary(&a.sieve);
        assert_eq!(summary.bucket_count(), REPAIR_BUCKETS, "wire size is constant");
        assert_eq!(reconcile(&mut a, &mut b), 2, "steady state is digest + summary");
    }

    #[test]
    fn empty_stores_agree_on_an_empty_digest() {
        let all = SieveSpec::Range { index: 0, of: 1, r: 1 };
        let mut a = PersistNode::new(all, None);
        let mut b = PersistNode::new(all, None);
        assert!(a.shared_summary(&b.sieve).is_empty());
        assert_eq!(reconcile(&mut a, &mut b), 2, "nothing to pull from empty stores");
    }

    #[test]
    fn disjoint_stores_converge_in_one_round() {
        let all = SieveSpec::Range { index: 0, of: 1, r: 1 };
        let mut a = PersistNode::new(all, None);
        let mut b = PersistNode::new(all, None);
        for i in 0..20 {
            a.apply(tuple(&format!("a{i}"), 1));
            b.apply(tuple(&format!("b{i}"), 1));
        }
        reconcile(&mut a, &mut b);
        assert_eq!(a.store.len(), 40);
        assert_eq!(sorted_ids(&a), sorted_ids(&b), "both directions flowed");
        assert_eq!(reconcile(&mut a, &mut b), 2, "second round is clean");
    }

    #[test]
    fn tombstone_only_delta_crosses_sieve_classes() {
        // a and b cover disjoint key ranges; the only shared-projection
        // items are tombstones. A delete known to a must reach b even
        // though b's sieve would reject the live key.
        let left = SieveSpec::Range { index: 0, of: 2, r: 1 };
        let right = SieveSpec::Range { index: 1, of: 2, r: 1 };
        let mut a = PersistNode::new(left, None);
        let mut b = PersistNode::new(right, None);
        a.apply(StoredTuple::tombstone("gone1".into(), Version(2)));
        a.apply(StoredTuple::tombstone("gone2".into(), Version(5)));
        reconcile(&mut a, &mut b);
        assert_eq!(b.store.len(), 2, "tombstones replicate across classes");
        assert!(b.store.values().all(|t| t.deleted));
        // Live tuples outside the shared projection never cross.
        for i in 0..16 {
            a.apply(tuple(&format!("x{i}"), 1));
        }
        let before = b.store.len();
        reconcile(&mut a, &mut b);
        assert!(
            b.store.values().filter(|t| !t.deleted).all(|t| b.sieve.accepts(&t.item_meta())),
            "b stores only live tuples its sieve accepts"
        );
        assert!(b.store.len() >= before);
    }

    #[test]
    fn superseded_tombstones_retire_instead_of_diverging_forever() {
        // b (right half) keeps the broadcast tombstone of a left-half
        // key; a later live write lands only at a. b's tombstone is now
        // stale metadata b's summary keeps advertising — the evidence
        // leg must teach b to retire it, or this pair re-pulls on every
        // round until the end of time.
        let left = SieveSpec::Range { index: 0, of: 2, r: 1 };
        let right = SieveSpec::Range { index: 1, of: 2, r: 1 };
        let key = (0..)
            .map(|i| format!("k{i}"))
            .find(|k| {
                left.accepts(
                    &StoredTuple::new(k.as_str().into(), Version(1), vec![], None, None)
                        .item_meta(),
                )
            })
            .unwrap();
        let mut a = PersistNode::new(left, None);
        let mut b = PersistNode::new(right, None);
        a.apply(StoredTuple::tombstone(key.as_str().into(), Version(2)));
        b.apply(StoredTuple::tombstone(key.as_str().into(), Version(2)));
        a.apply(tuple(&key, 3)); // rebirth, delivered only to its owner
        assert_eq!(reconcile(&mut a, &mut b), 5, "items + evidence resolve the pair");
        assert!(b.store.is_empty(), "b retired the superseded tombstone");
        assert_eq!(a.store[&Key::from(key.as_str()).hash()].version, Version(3));
        assert_eq!(reconcile(&mut a, &mut b), 2, "steady state is clean again");
    }

    #[test]
    fn repair_delta_reports_what_each_side_lacks() {
        let all = SieveSpec::Range { index: 0, of: 1, r: 1 };
        let mut a = PersistNode::new(all, None);
        let mut b = PersistNode::new(all, None);
        let shared = tuple("both", 1);
        let only_a = tuple("mine", 1);
        let only_b = tuple("yours", 1);
        a.apply(shared.clone());
        a.apply(only_a.clone());
        b.apply(shared);
        b.apply(only_b.clone());
        let every_bucket: Vec<u32> = (0..REPAIR_BUCKETS as u32).collect();
        let ids_a = a.shared_ids_in(&b.sieve, &every_bucket);
        let (items, want) = b.repair_delta(&a.sieve, &every_bucket, &ids_a);
        assert_eq!(items.len(), 1, "b ships what a lacks");
        assert_eq!(items[0].rumor_id(), only_b.rumor_id());
        assert_eq!(want, vec![RumorId(only_a.rumor_id())], "b asks for what it lacks");
        assert_eq!(a.tuples_for(&want).len(), 1, "a can serve the reciprocal leg");
    }
}
