//! The checker suite: Jepsen-style guarantees over a recorded history.
//!
//! Every checker is *sound* for the DataDroplets protocols: it flags only
//! behaviour the design rules out even under faults. Availability loss —
//! timeouts, absent reads, feeds cut short by the multi-op deadline — is
//! the scenario plane's business; the checkers audit **safety**:
//!
//! * [`check_read_your_writes`] — a session's read must not return a
//!   version older than a write the *same session* had already harvested
//!   an ack for (single-key reads are served by the key's deterministic
//!   coordinator, whose version knowledge is monotonic).
//! * [`check_monotonic_reads`] — a session's non-overlapping reads of one
//!   key must observe non-decreasing versions.
//! * [`check_tombstone_safety`] — no deleted value resurrects: a read
//!   after a harvested delete ack must not return an older version, and a
//!   key that verifiably vanished from a feed (shown, then absent from a
//!   *complete* replica union) must not reappear at an old version.
//! * [`check_atomic_visibility`] — multi-op visibility never tears: a
//!   complete tag read never regresses a key below a previously shown
//!   version, and a fully-acknowledged batch that was once fully visible
//!   never becomes partially visible (absent deletes/retags).
//! * [`check_convergence`] — after settling, all live replicas of a key
//!   agree, and the agreed version is one some write actually produced.
//!
//! Reads gathered through *partial* replica unions (a dead slot-owner at
//! the multi-op deadline) are skipped: the client was told the union was
//! cut short, so missing items there are availability, not safety.
//!
//! [`check`] indexes the history in one walk (as Elle does) and each
//! checker walks the index: O(history + snapshot) up to sorting, a complete
//! tag read costing its items and the batches holding them. Each `check_*`
//! function is a convenience that builds the index for itself.

use crate::history::{resolve_batch_acks, History, Op, OpDesc, Outcome};
use crate::report::AuditReport;
use dd_dht::Version;
use dd_sim::rng::stable_hash;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// One live replica's view of one key in the post-settle snapshot the
/// convergence checker consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaTuple {
    /// Persist-node id holding the tuple.
    pub node: u64,
    /// Hash of the key held.
    pub key_hash: u64,
    /// Version held.
    pub version: Version,
    /// Whether the replica holds a tombstone.
    pub deleted: bool,
}

/// A checked guarantee that did not hold, with the minimal witnessing
/// sub-history (the ops whose recorded values prove the violation).
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A session read an older version of a key than a write it had
    /// already harvested an ack for.
    ReadYourWrites {
        /// Offending session.
        session: u64,
        /// Key read.
        key: String,
        /// Version the session had seen acknowledged before the read.
        acked: Version,
        /// Older version the read returned.
        read: Version,
        /// `[the acked write, the stale read]`.
        witness: Vec<Op>,
    },
    /// A session's later read observed an older version than an earlier,
    /// non-overlapping read of the same key.
    MonotonicRead {
        /// Offending session.
        session: u64,
        /// Key read.
        key: String,
        /// Version the earlier read observed.
        earlier: Version,
        /// Older version the later read observed.
        later: Version,
        /// `[the earlier read, the later read]`.
        witness: Vec<Op>,
    },
    /// A deleted value resurrected: a read returned a version older than
    /// an already-acknowledged delete, or a key reappeared at an old
    /// version after verifiably vanishing from a complete feed union.
    TombstoneResurrection {
        /// Key that resurrected.
        key: String,
        /// The superseding version (the delete's, or the version the key
        /// was last shown at before vanishing).
        superseded_by: Version,
        /// The old version that came back.
        read: Version,
        /// The ops proving supersession, then the resurrecting read.
        witness: Vec<Op>,
    },
    /// A complete tag read returned a key at a version older than one a
    /// previously completed tag read had already shown.
    FeedRegression {
        /// Tag whose feed regressed.
        tag: String,
        /// Key that regressed.
        key: String,
        /// Version previously shown.
        earlier: Version,
        /// Older version shown later.
        later: Version,
        /// `[the earlier read, the later read]`.
        witness: Vec<Op>,
    },
    /// A fully-acknowledged batch that was once fully visible became
    /// partially visible again (with no delete or retag explaining it).
    TornBatch {
        /// The batch's tag.
        tag: String,
        /// Request id of the batched write.
        batch_req: u64,
        /// Batch keys missing from the later read.
        missing: Vec<String>,
        /// `[the batch write, the fully-visible read, the torn read]`.
        witness: Vec<Op>,
    },
    /// Live replicas of a key disagree after settling: some replica still
    /// holds a *live* tuple older than the key's newest version. (Old
    /// *tombstones* are acceptable residue — every node keeps tombstones
    /// regardless of its sieve, so a node whose sieve rejects the key's
    /// live tuples retains the last tombstone it saw forever.)
    Divergence {
        /// Key (as written by clients).
        key: String,
        /// `(node, version, deleted)` per live replica, node-ordered.
        replicas: Vec<(u64, Version, bool)>,
    },
    /// Replicas agree on a version no recorded write could have produced.
    Fabrication {
        /// Key affected.
        key: String,
        /// The impossible version.
        version: Version,
        /// Write invocations recorded for the key.
        writes: u64,
    },
    /// An acknowledged write is no longer reflected by any live replica
    /// (durability loss — reported, but not a *safety* violation: under
    /// permanent churn the paper's design trades a bounded amount of it).
    LostWrite {
        /// Key affected.
        key: String,
        /// Highest version acknowledged to some client.
        acked: Version,
        /// Version the live replicas converged on (`None`: key absent).
        converged: Option<Version>,
        /// Why the write was lost. The checker alone cannot see owners and
        /// leaves it `None`; an audited cluster run attributes every one.
        cause: Option<LostCause>,
    },
}

/// Why an acknowledged write is on no live replica, judged from the
/// write's owners and their liveness once the audit has settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LostCause {
    /// Every owner was down: the paper's bounded durability.
    AllOwnersDown,
    /// An owner was live yet lacked the acknowledged version.
    LiveOwnerMissing,
}

impl LostCause {
    /// The stable label of this cause (recorded in BENCH artifacts).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LostCause::AllOwnersDown => "all-owners-down",
            LostCause::LiveOwnerMissing => "live-owner-missing",
        }
    }
}

/// The stable discriminant of a [`Violation`], independent of its witness
/// payload. Tooling that must decide "is this the *same bug*?" — the
/// dd-fuzz shrinker foremost — compares kinds, never full witness
/// histories, so a shrink step that changes keys, versions or witnesses
/// while preserving the anomaly class still counts as the same finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViolationKind {
    /// [`Violation::ReadYourWrites`].
    ReadYourWrites,
    /// [`Violation::MonotonicRead`].
    MonotonicRead,
    /// [`Violation::TombstoneResurrection`].
    TombstoneResurrection,
    /// [`Violation::FeedRegression`].
    FeedRegression,
    /// [`Violation::TornBatch`].
    TornBatch,
    /// [`Violation::Divergence`].
    Divergence,
    /// [`Violation::Fabrication`].
    Fabrication,
    /// [`Violation::LostWrite`].
    LostWrite,
}

impl ViolationKind {
    /// Every kind, in checker order (useful for census tables).
    pub const ALL: [ViolationKind; 8] = [
        ViolationKind::ReadYourWrites,
        ViolationKind::MonotonicRead,
        ViolationKind::TombstoneResurrection,
        ViolationKind::FeedRegression,
        ViolationKind::TornBatch,
        ViolationKind::Divergence,
        ViolationKind::Fabrication,
        ViolationKind::LostWrite,
    ];

    /// The checker-friendly label of this kind (stable: recorded in
    /// BENCH artifacts and regression-test names).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::ReadYourWrites => "read-your-writes",
            ViolationKind::MonotonicRead => "monotonic-read",
            ViolationKind::TombstoneResurrection => "tombstone-resurrection",
            ViolationKind::FeedRegression => "feed-regression",
            ViolationKind::TornBatch => "torn-batch",
            ViolationKind::Divergence => "divergence",
            ViolationKind::Fabrication => "fabrication",
            ViolationKind::LostWrite => "lost-write",
        }
    }

    /// Whether violations of this kind break a safety guarantee (every
    /// kind but [`ViolationKind::LostWrite`], a durability warning).
    #[must_use]
    pub fn is_safety(self) -> bool {
        !matches!(self, ViolationKind::LostWrite)
    }
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl Violation {
    /// Whether this violation breaks a safety guarantee (every kind but
    /// [`Violation::LostWrite`], which is a durability warning).
    #[must_use]
    pub fn is_safety(&self) -> bool {
        self.kind().is_safety()
    }

    /// The stable discriminant of this violation, payload-independent.
    #[must_use]
    pub fn kind(&self) -> ViolationKind {
        match self {
            Violation::ReadYourWrites { .. } => ViolationKind::ReadYourWrites,
            Violation::MonotonicRead { .. } => ViolationKind::MonotonicRead,
            Violation::TombstoneResurrection { .. } => ViolationKind::TombstoneResurrection,
            Violation::FeedRegression { .. } => ViolationKind::FeedRegression,
            Violation::TornBatch { .. } => ViolationKind::TornBatch,
            Violation::Divergence { .. } => ViolationKind::Divergence,
            Violation::Fabrication { .. } => ViolationKind::Fabrication,
            Violation::LostWrite { .. } => ViolationKind::LostWrite,
        }
    }
}

/// Whether one key's replica rows `(node, version, deleted)` have
/// converged: nothing *live* below the key's newest version (older
/// tombstones are legitimate sieve residue), and the newest version's
/// holders agree on its tombstone flag.
fn rows_converged(rows: &[(u64, Version, bool)]) -> bool {
    let Some(max) = rows.iter().map(|&(_, v, _)| v).max() else {
        return true;
    };
    let mut max_flag: Option<bool> = None;
    rows.iter().all(
        |&(_, v, deleted)| {
            if v < max {
                deleted
            } else {
                *max_flag.get_or_insert(deleted) == deleted
            }
        },
    )
}

/// Whether every key in a replica snapshot has converged (the settle-loop
/// stopping criterion of audited runs — the same predicate, key by key,
/// that [`check_convergence`] turns into [`Violation::Divergence`]s).
#[must_use]
pub fn snapshot_converged(snapshot: &[ReplicaTuple]) -> bool {
    let mut by_key: HashMap<u64, Vec<(u64, Version, bool)>> = HashMap::new();
    for t in snapshot {
        by_key.entry(t.key_hash).or_default().push((t.node, t.version, t.deleted));
    }
    by_key.values().all(|rows| rows_converged(rows))
}

/// Acknowledged writes `(owner, completed, version, op)`, owned by a key
/// or by a session's key. Sealed, they are sorted by owner, then
/// completion, each carrying its owner's strongest `(version, op)` by then.
#[derive(Default)]
struct Ledger<O>(Vec<(O, u64, Version, usize)>);

impl<O: Ord + Copy> Ledger<O> {
    fn seal(&mut self) {
        self.0.sort_unstable_by_key(|&(owner, done, ..)| (owner, done));
        for i in 1..self.0.len() {
            let (prev, this) = (self.0[i - 1], &mut self.0[i]);
            if prev.0 == this.0 && (prev.2, prev.3) > (this.2, this.3) {
                (this.2, this.3) = (prev.2, prev.3);
            }
        }
    }

    /// The highest version `owner` had acknowledged by `t`, a tie going to
    /// the later op.
    fn strongest_by(&self, owner: O, t: u64) -> Option<(Version, usize)> {
        let n = self.0.partition_point(|&(o, done, ..)| (o, done) <= (owner, t));
        let &(o, _, version, op) = self.0.get(n.checked_sub(1)?)?;
        (o == owner).then_some((version, op))
    }
}

/// What a history says about one interned key (or tag): write invocations,
/// the highest acked version, whether a write was a delete, the first put's
/// tag (`Some(None)`: untagged) and whether a put differed.
#[derive(Default)]
struct Facts<'h> {
    name: &'h str,
    writes: u64,
    latest: Option<Version>,
    tag: Option<Option<usize>>,
    deleted: bool,
    retagged: bool,
}

/// A complete tag read `(tag, op, item key ids, items)`; ids fit `u32`.
type FeedRead<'h> = (usize, usize, Vec<u32>, &'h [(String, Version)]);

/// A history indexed in one walk. Keys and tags are interned to dense ids
/// of one table; every string is borrowed from the history.
#[derive(Default)]
struct Index<'h> {
    ops: &'h [Op],
    ids: HashMap<&'h str, usize>,
    facts: Vec<Facts<'h>>,
    /// Written keys by hash, the last write winning a collision.
    by_hash: HashMap<u64, usize>,
    /// Acks owned by `(session, key)`, and deletes owned by key.
    acks: Ledger<(u64, usize)>,
    deletes: Ledger<usize>,
    /// Single-key reads that found a tuple: `(op, key, version)`.
    reads: Vec<(usize, usize, Version)>,
    /// Complete tag reads by tag name, then completion; `(tag, op, key
    /// ids)` of the fully acked tagged batches in history order, and `(key,
    /// batch)` per batch key, sorted.
    feeds: Vec<FeedRead<'h>>,
    batches: Vec<(usize, usize, Vec<usize>)>,
    key_batches: Vec<(usize, usize)>,
}

impl<'h> Index<'h> {
    fn new(history: &'h History) -> Self {
        let (ops, n) = (history.ops(), history.len());
        let mut ix = Index { ops, ids: HashMap::with_capacity(n), ..Index::default() };
        ix.by_hash.reserve(n);
        for (i, op) in ops.iter().enumerate() {
            match (&op.desc, op.outcome.as_ref()) {
                (OpDesc::Put { key, tag }, outcome) => {
                    let tag = tag.as_deref().map(|t| ix.id(t));
                    let k = ix.write(key, Some(tag));
                    if let Some(&Outcome::Write { version }) = outcome {
                        ix.ack(op, i, k, version);
                    }
                }
                (OpDesc::Delete { key }, outcome) => {
                    let k = ix.write(key, None);
                    if let Some(&Outcome::Write { version }) = outcome {
                        ix.ack(op, i, k, version);
                        ix.deletes.0.extend(op.completed.map(|done| (k, done, version, i)));
                    }
                }
                (OpDesc::Get { key }, Some(&Outcome::Read { version: Some(version) })) => {
                    let k = ix.id(key);
                    ix.reads.push((i, k, version));
                }
                (OpDesc::MultiPut { keys, tag }, outcome) => {
                    let tag = tag.as_deref().map(|t| ix.id(t));
                    let ids: Vec<usize> = keys.iter().map(|key| ix.write(key, Some(tag))).collect();
                    let Some(Outcome::MultiPut { versions, want }) = outcome else { continue };
                    for (key, version) in resolve_batch_acks(keys, versions) {
                        let k = ix.id(key);
                        ix.ack(op, i, k, version);
                    }
                    if let (Some(tag), true) = (tag, versions.len() == *want as usize) {
                        ix.key_batches.extend(ids.iter().map(|&k| (k, ix.batches.len())));
                        ix.batches.push((tag, i, ids));
                    }
                }
                (OpDesc::MultiGet { tag }, Some(Outcome::MultiGet { items, complete: true })) => {
                    let keys = items.iter().map(|(key, _)| ix.id(key) as u32).collect();
                    let tag = ix.id(tag);
                    ix.feeds.push((tag, i, keys, items));
                }
                _ => {}
            }
        }
        let f = &ix.facts;
        ix.feeds.sort_unstable_by_key(|&(t, i, ..)| (f[t].name, ops[i].completed, ops[i].req, i));
        ix.key_batches.sort_unstable();
        ix.acks.seal();
        ix.deletes.seal();
        ix.ids = HashMap::new(); // Only the build interns.
        ix
    }

    /// The id of a key or tag.
    fn id(&mut self, name: &'h str) -> usize {
        let facts = &mut self.facts;
        *self.ids.entry(name).or_insert_with(|| {
            facts.push(Facts { name, ..Facts::default() });
            facts.len() - 1
        })
    }

    /// Notes a write invocation of `key`: a put under `tag`, or a delete.
    fn write(&mut self, key: &'h str, tag: Option<Option<usize>>) -> usize {
        let k = self.id(key);
        let f = &mut self.facts[k];
        f.writes += 1;
        match tag {
            Some(tag) => f.retagged |= *f.tag.get_or_insert(tag) != tag,
            None => f.deleted = true,
        }
        self.by_hash.insert(stable_hash(key.as_bytes()), k);
        k
    }

    /// Notes op `i`'s acknowledgement of `version` for key `k`.
    fn ack(&mut self, op: &Op, i: usize, k: usize, version: Version) {
        self.facts[k].latest = self.facts[k].latest.max(Some(version));
        self.acks.0.extend(op.completed.map(|done| ((op.session, k), done, version, i)));
    }

    fn name(&self, k: usize) -> String {
        self.facts[k].name.to_owned()
    }

    fn witness(&self, ops: &[usize]) -> Vec<Op> {
        ops.iter().map(|&i| self.ops[i].clone()).collect()
    }

    fn read_your_writes(&self) -> Vec<Violation> {
        let stale = |&(i, k, read): &(usize, usize, Version)| {
            let op = &self.ops[i];
            // The strongest ack the session held when it submitted the read.
            let acked = self.acks.strongest_by((op.session, k), op.invoked);
            let (acked, ack) = acked.filter(|a| read < a.0)?;
            let (session, key, witness) = (op.session, self.name(k), self.witness(&[ack, i]));
            Some(Violation::ReadYourWrites { session, key, acked, read, witness })
        };
        self.reads.iter().filter_map(stale).collect()
    }

    fn monotonic_reads(&self) -> Vec<Violation> {
        // Per `(session, key)`, the strongest earlier read completed by the
        // current read's invocation. Invocations rise along the history, so
        // a read released from `pending` stays eligible for every later read.
        let mut best: HashMap<(u64, usize), (Version, usize)> = HashMap::new();
        let mut pending: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut out = Vec::new();
        for (n, &(i, k, later)) in self.reads.iter().enumerate() {
            let (op, done) = (&self.ops[i], self.ops[i].completed.expect("resolved"));
            while let Some(&Reverse((_, m))) = pending.peek().filter(|r| r.0 .0 <= op.invoked) {
                pending.pop();
                let (prior, prior_key, seen) = self.reads[m];
                let e = best.entry((self.ops[prior].session, prior_key)).or_insert((seen, prior));
                *e = (*e).max((seen, prior));
            }
            if let Some(&(earlier, prior)) = best.get(&(op.session, k)).filter(|s| later < s.0) {
                let (session, key, witness) = (op.session, self.name(k), self.witness(&[prior, i]));
                out.push(Violation::MonotonicRead { session, key, earlier, later, witness });
            }
            pending.push(Reverse((done, n)));
        }
        out
    }

    fn tombstone_safety(&self, in_feeds: Vec<Violation>) -> Vec<Violation> {
        let resurrected = |&(i, k, read): &(usize, usize, Version)| {
            let deleted = self.deletes.strongest_by(k, self.ops[i].invoked);
            let (superseded_by, del) = deleted.filter(|d| read < d.0)?;
            let (key, witness) = (self.name(k), self.witness(&[del, i]));
            Some(Violation::TombstoneResurrection { key, superseded_by, read, witness })
        };
        dedup_in_order(self.reads.iter().filter_map(resurrected).chain(in_feeds).collect())
    }

    /// Walks each tag's complete reads in completion order for the feed
    /// halves of tombstone safety (a key shown, vanished, then shown at or
    /// below the old version) and of atomic visibility (a key regressing
    /// across non-overlapping reads; a fully acked batch, once fully
    /// visible, torn).
    fn feed_anomalies(&self) -> (Vec<Violation>, Vec<Violation>) {
        use Violation::{FeedRegression, TombstoneResurrection, TornBatch};
        let (n, batches) = (self.facts.len(), self.batches.len());
        // Per key: the strongest shown `(version, completed, op)` and the
        // vanish proof `(version, completed, shown op, vanish op)`.
        // `unsettled` lists the shown keys no vanish proof covers yet: only
        // they can vanish anew.
        let mut shown: Vec<Option<(Version, u64, usize)>> = vec![None; n];
        let mut vanished: Vec<Option<(Version, u64, usize, usize)>> = vec![None; n];
        let (mut present, mut listed, mut unsettled) = (vec![0; n], vec![false; n], vec![]);
        // Per batch: the last read that looked at it, and its last fully
        // visible read `(completed, op)`.
        let mut looked = vec![0; batches];
        let mut fully_visible: Vec<Option<(u64, usize)>> = vec![None; batches];
        let at = offsets(n, self.key_batches.iter().map(|&(k, _)| k));
        let batches_of = |k: usize| &self.key_batches[at[k]..at[k + 1]];
        let (mut tomb, mut atomic) = (Vec::new(), Vec::new());
        for reads in self.feeds.chunk_by(|a, b| a.0 == b.0) {
            let tag = reads[0].0;
            let mut torn = Vec::new(); // `(batch, read, violation)`
            for (seq, &(_, g, ref keys, items)) in reads.iter().enumerate() {
                let (invoked, done) =
                    (self.ops[g].invoked, self.ops[g].completed.expect("resolved"));
                keys.iter().for_each(|&k| present[k as usize] = g + 1);
                unsettled.retain(|&k: &usize| {
                    let (v, shown_done, shown_op) = shown[k].expect("listed keys were shown");
                    listed[k] = present[k] == g + 1 || invoked < shown_done;
                    if !listed[k] {
                        vanished[k] = Some((v, done, shown_op, g));
                    }
                    listed[k]
                });
                for (k, &(_, v)) in keys.iter().map(|&k| k as usize).zip(items) {
                    let proof = vanished[k].filter(|x| invoked >= x.1 && v <= x.0);
                    if let Some((superseded_by, _, seen, gone)) = proof {
                        let (key, witness) = (self.name(k), self.witness(&[seen, gone, g]));
                        tomb.push(TombstoneResurrection { key, superseded_by, read: v, witness });
                    }
                    if let Some((earlier, _, p)) = shown[k].filter(|s| v < s.0 && invoked >= s.1) {
                        let (tag, key, witness) =
                            (self.name(tag), self.name(k), self.witness(&[p, g]));
                        atomic.push(FeedRegression { tag, key, earlier, later: v, witness });
                    }
                    let best = shown[k].filter(|s| v < s.0).unwrap_or((v, done, g));
                    shown[k] = Some(best);
                    if !listed[k] && vanished[k].is_none_or(|x| x.0 < best.0) {
                        listed[k] = true;
                        unsettled.push(k);
                    }
                }
                for &(_, b) in keys.iter().flat_map(|&k| batches_of(k as usize)) {
                    let (batch_tag, batch, ref batch_keys) = self.batches[b];
                    if batch_tag != tag || std::mem::replace(&mut looked[b], g + 1) == g + 1 {
                        continue;
                    }
                    let mut absent = batch_keys.iter().filter(|&&k| present[k] != g + 1).peekable();
                    if absent.peek().is_none() {
                        fully_visible[b] = Some((done, g));
                    } else if let Some((_, full)) = fully_visible[b].filter(|f| invoked >= f.0) {
                        // A delete, or a put under another tag, takes a key out of the feed.
                        let stays = |f: &Facts| {
                            !f.deleted && !f.retagged && f.tag.is_none_or(|t| t == Some(tag))
                        };
                        let missing: Vec<String> = absent
                            .filter(|&&k| stays(&self.facts[k]))
                            .map(|&k| self.name(k))
                            .collect();
                        if !missing.is_empty() {
                            let (tag, batch_req) = (self.name(tag), self.ops[batch].req);
                            let witness = self.witness(&[batch, full, g]);
                            torn.push((b, seq, TornBatch { tag, batch_req, missing, witness }));
                        }
                    }
                }
            }
            torn.sort_unstable_by_key(|&(b, seq, _)| (b, seq));
            atomic.extend(torn.into_iter().map(|(.., v)| v));
            for k in reads.iter().flat_map(|read| &read.2).map(|&k| k as usize) {
                (shown[k], vanished[k], listed[k]) = (None, None, false);
            }
            unsettled.clear();
        }
        (tomb, dedup_in_order(atomic))
    }

    fn convergence(&self, snapshot: &[ReplicaTuple]) -> Vec<Violation> {
        use Violation::{Divergence, Fabrication, LostWrite};
        // Audited replicas' `(node, version, deleted)`, key `k`'s at `at[k]..`.
        let keys: Vec<Option<u32>> =
            snapshot.iter().map(|t| self.by_hash.get(&t.key_hash).map(|&k| k as u32)).collect();
        let at = offsets(self.facts.len(), keys.iter().flatten().map(|&k| k as usize));
        let (mut rows, mut next) = (vec![(0, Version::ZERO, false); snapshot.len()], at.clone());
        for (t, k) in snapshot.iter().zip(keys).filter_map(|(t, k)| Some((t, k? as usize))) {
            (rows[next[k]], next[k]) = ((t.node, t.version, t.deleted), next[k] + 1);
        }
        let mut out = Vec::new();
        for (k, f) in self.facts.iter().enumerate() {
            let rows = &mut rows[at[k]..at[k + 1]];
            rows.sort_unstable();
            let (key, acked) = (|| self.name(k), f.latest.unwrap_or(Version::ZERO));
            let violation = match rows.iter().map(|r| r.1).max() {
                None if f.latest.is_some() => {
                    LostWrite { key: key(), acked, converged: None, cause: None }
                }
                Some(_) if !rows_converged(rows) => {
                    Divergence { key: key(), replicas: rows.to_vec() }
                }
                Some(v) if v.0 > f.writes => {
                    Fabrication { key: key(), version: v, writes: f.writes }
                }
                Some(v) if v < acked => {
                    LostWrite { key: key(), acked, converged: Some(v), cause: None }
                }
                _ => continue,
            };
            out.push((f.name, violation));
        }
        // Keys with replicas first, then acked keys without any, by key.
        out.sort_unstable_by_key(|(key, v)| (matches!(v, LostWrite { converged: None, .. }), *key));
        out.into_iter().map(|(_, v)| v).collect()
    }
}

/// Bucket offsets: with items sorted by bucket, bucket `k` of `n` spans
/// `at[k]..at[k + 1]`.
fn offsets(n: usize, buckets: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut at = vec![0; n + 1];
    buckets.for_each(|k| at[k + 1] += 1);
    (0..n).for_each(|k| at[k + 1] += at[k]);
    at
}

/// Per-session read-your-writes: a read must not return a version older
/// than a write whose ack the same session had already harvested when the
/// read was submitted.
#[must_use]
pub fn check_read_your_writes(history: &History) -> Vec<Violation> {
    Index::new(history).read_your_writes()
}

/// Per-session monotonic reads: non-overlapping reads of one key must
/// observe non-decreasing versions. (Overlapping — pipelined — reads are
/// unordered and exempt.)
#[must_use]
pub fn check_monotonic_reads(history: &History) -> Vec<Violation> {
    Index::new(history).monotonic_reads()
}

/// Tombstone safety: no deleted value resurrects.
///
/// Two witnesses are audited: a single-key read returning a version older
/// than a delete whose ack had already been harvested when the read was
/// submitted; and a key reappearing in a complete feed union at a version
/// not newer than the one it was last shown at before verifiably
/// vanishing (a vanish from a complete union proves a replica holds a
/// newer tombstone, and tombstones are permanent).
#[must_use]
pub fn check_tombstone_safety(history: &History) -> Vec<Violation> {
    let index = Index::new(history);
    index.tombstone_safety(index.feed_anomalies().0)
}

/// Multi-op atomicity of visibility over complete tag reads: per-key
/// version regressions across non-overlapping reads, and fully-acked
/// batches tearing after having been fully visible.
#[must_use]
pub fn check_atomic_visibility(history: &History) -> Vec<Violation> {
    Index::new(history).feed_anomalies().1
}

/// Eventual convergence over the post-settle snapshot: all live replicas
/// of each audited key agree, the agreed version is producible from the
/// recorded writes, and acknowledged writes survive (the last as a
/// non-safety [`Violation::LostWrite`] warning).
///
/// Only keys the history wrote are audited: auditing assumes the
/// scenario's writes are the cluster's only writes.
#[must_use]
pub fn check_convergence(history: &History, snapshot: &[ReplicaTuple]) -> Vec<Violation> {
    Index::new(history).convergence(snapshot)
}

/// Collapses duplicate violations while keeping first-seen order (the
/// sweep-style checkers can witness one anomaly from several reads).
fn dedup_in_order(violations: Vec<Violation>) -> Vec<Violation> {
    let mut out: Vec<Violation> = Vec::with_capacity(violations.len());
    for v in violations {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// Runs the full checker suite over a history and a post-settle replica
/// snapshot, returning the aggregate [`AuditReport`].
#[must_use]
pub fn check(history: &History, snapshot: &[ReplicaTuple]) -> AuditReport {
    let index = Index::new(history);
    let mut violations = index.read_your_writes();
    violations.extend(index.monotonic_reads());
    let (resurrected, torn_or_regressed) = index.feed_anomalies();
    violations.extend(index.tombstone_safety(resurrected));
    violations.extend(torn_or_regressed);
    violations.extend(index.convergence(snapshot));
    let sessions: HashSet<u64> = history.ops().iter().map(|o| o.session).collect();
    AuditReport {
        ops: history.len() as u64,
        unresolved: history.ops().iter().filter(|o| !o.is_resolved()).count() as u64,
        sessions: sessions.len() as u64,
        replicas: snapshot.len() as u64,
        violations,
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{OpFailure, Recorder};
    use dd_sim::rng::splitmix64;
    use proptest::prelude::*;

    fn put(rec: &mut Recorder, req: u64, session: u64, at: u64, key: &str, v: u64) {
        rec.invoke(req, session, at, OpDesc::Put { key: key.into(), tag: None });
        rec.complete(req, at + 10, Outcome::Write { version: Version(v) });
    }

    fn get(rec: &mut Recorder, req: u64, session: u64, at: u64, key: &str, v: Option<u64>) {
        rec.invoke(req, session, at, OpDesc::Get { key: key.into() });
        rec.complete(req, at + 10, Outcome::Read { version: v.map(Version) });
    }

    #[test]
    fn clean_history_checks_clean() {
        let mut rec = Recorder::new();
        put(&mut rec, 1, 1, 0, "k", 1);
        get(&mut rec, 2, 1, 20, "k", Some(1));
        get(&mut rec, 3, 2, 30, "other", None);
        let h = rec.finish();
        let kh = stable_hash(b"k");
        let snap = [
            ReplicaTuple { node: 10, key_hash: kh, version: Version(1), deleted: false },
            ReplicaTuple { node: 11, key_hash: kh, version: Version(1), deleted: false },
        ];
        let report = check(&h, &snap);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.ops, 3);
        assert_eq!(report.sessions, 2);
    }

    #[test]
    fn overlapping_reads_are_exempt_from_monotonicity() {
        let mut rec = Recorder::new();
        put(&mut rec, 1, 1, 0, "k", 1);
        put(&mut rec, 2, 1, 20, "k", 2);
        // Two pipelined reads, both in flight at once: the later-completing
        // one may legally return the older version.
        rec.invoke(3, 1, 40, OpDesc::Get { key: "k".into() });
        rec.invoke(4, 1, 41, OpDesc::Get { key: "k".into() });
        rec.complete(3, 50, Outcome::Read { version: Some(Version(2)) });
        rec.complete(4, 55, Outcome::Read { version: Some(Version(2)) });
        let h = rec.finish();
        assert!(check_monotonic_reads(&h).is_empty());
    }

    #[test]
    fn stale_read_after_own_ack_is_ryw() {
        let mut rec = Recorder::new();
        put(&mut rec, 1, 1, 0, "k", 3);
        get(&mut rec, 2, 1, 50, "k", Some(2));
        let v = check_read_your_writes(&rec.finish());
        assert_eq!(v.len(), 1);
        assert!(matches!(
            &v[0],
            Violation::ReadYourWrites { session: 1, acked: Version(3), read: Version(2), witness, .. }
                if witness.len() == 2
        ));
        assert!(v[0].is_safety());
    }

    #[test]
    fn another_sessions_ack_is_not_ryw() {
        let mut rec = Recorder::new();
        put(&mut rec, 1, 1, 0, "k", 3);
        get(&mut rec, 2, 2, 50, "k", Some(2));
        assert!(check_read_your_writes(&rec.finish()).is_empty());
    }

    #[test]
    fn convergence_flags_divergence_and_fabrication() {
        let mut rec = Recorder::new();
        put(&mut rec, 1, 1, 0, "k", 1);
        let h = rec.finish();
        let kh = stable_hash(b"k");
        let split = [
            ReplicaTuple { node: 1, key_hash: kh, version: Version(1), deleted: false },
            ReplicaTuple { node: 2, key_hash: kh, version: Version(2), deleted: false },
        ];
        let v = check_convergence(&h, &split);
        assert!(matches!(&v[0], Violation::Divergence { replicas, .. } if replicas.len() == 2));
        // A version beyond what one recorded write could assign.
        let fab = [ReplicaTuple { node: 1, key_hash: kh, version: Version(9), deleted: false }];
        let v = check_convergence(&h, &fab);
        assert!(matches!(&v[0], Violation::Fabrication { version: Version(9), writes: 1, .. }));
        // Keys the history never wrote are out of audit scope.
        let alien = [ReplicaTuple { node: 1, key_hash: 42, version: Version(7), deleted: false }];
        let lost_only: Vec<_> =
            check_convergence(&h, &alien).into_iter().filter(Violation::is_safety).collect();
        assert!(lost_only.is_empty());
    }

    #[test]
    fn lost_acked_write_is_a_warning_not_safety() {
        let mut rec = Recorder::new();
        put(&mut rec, 1, 1, 0, "k", 2);
        let v = check_convergence(&rec.finish(), &[]);
        assert_eq!(v.len(), 1);
        assert!(matches!(&v[0], Violation::LostWrite { converged: None, .. }));
        assert!(!v[0].is_safety());
        assert_eq!(v[0].kind(), ViolationKind::LostWrite);
        assert_eq!(v[0].kind().label(), "lost-write");
    }

    #[test]
    fn kinds_are_stable_distinct_discriminants() {
        // Labels are pairwise distinct and stable (artifacts and
        // regression-test names are keyed on them).
        let labels: std::collections::HashSet<&str> =
            ViolationKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), ViolationKind::ALL.len());
        // Exactly one kind is a durability warning; the rest are safety.
        let warnings: Vec<ViolationKind> =
            ViolationKind::ALL.into_iter().filter(|k| !k.is_safety()).collect();
        assert_eq!(warnings, vec![ViolationKind::LostWrite]);
        // Display matches the label, and kinds compare independently of
        // the witness payload they came from.
        assert_eq!(ViolationKind::TornBatch.to_string(), "torn-batch");
        let a = Violation::Divergence { key: "a".into(), replicas: vec![] };
        let b = Violation::Divergence { key: "b".into(), replicas: vec![(1, Version(1), false)] };
        assert_ne!(a, b, "payloads differ");
        assert_eq!(a.kind(), b.kind(), "kinds agree regardless of payload");
    }

    /// Draws from a seed.
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: u64) -> u64 {
            splitmix64(&mut self.0) % n
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len() as u64) as usize]
        }
    }

    /// Key `KEYS[i]`'s home tag is `TAGS[i % 3]`.
    const KEYS: [&str; 6] = ["k0", "k1", "k2", "k3", "k4", "k5"];
    const TAGS: [&str; 3] = ["t0", "t1", "t2"];

    /// A history shaped as a recorder leaves it, drawn from `seed`:
    /// sessions, keys and tags; puts, deletes and retags; fully and
    /// partially acked batches; complete and partial tag reads; invocations
    /// in time order (the checkers' precondition), completions out of
    /// order, some ops unresolved. Then a snapshot of written keys and one
    /// alien key. Half the histories keep every key under its home tag and
    /// delete nothing, so that batches can tear.
    fn random_history(seed: u64) -> (History, Vec<ReplicaTuple>) {
        let mut d = Draw(seed);
        let (mut ops, mut at, homed) = (Vec::new(), 0, d.below(2) == 0);
        for req in 0..1 + d.below(60) {
            at += d.below(3);
            let version = |d: &mut Draw| Version(d.below(6));
            // A key, and the tag a put of it carries.
            let (home, slot) = (d.below(3) as usize, 3 * d.below(2) as usize);
            let key = KEYS[home + slot].to_owned();
            let tag = match (homed, d.below(3)) {
                (true, _) => Some(TAGS[home].to_owned()),
                (false, 0) => None,
                (false, _) => Some(d.pick(&TAGS).to_owned()),
            };
            let (desc, outcome) = match d.below(8) {
                0 => (OpDesc::Put { key, tag }, Outcome::Write { version: version(&mut d) }),
                1 if !homed => (
                    OpDesc::Delete { key: d.pick(&KEYS).into() },
                    Outcome::Write { version: version(&mut d) },
                ),
                2 | 3 => {
                    let found = (d.below(4) > 0).then(|| version(&mut d));
                    (OpDesc::Get { key: d.pick(&KEYS).into() }, Outcome::Read { version: found })
                }
                4 => {
                    let mut keys = vec![key];
                    for _ in 0..d.below(3) {
                        let slot = 3 * d.below(2) as usize;
                        keys.push(if homed { KEYS[home + slot] } else { d.pick(&KEYS) }.into());
                    }
                    let mut versions = Vec::new();
                    for key in &keys {
                        if d.below(5) > 0 {
                            versions.push((stable_hash(key.as_bytes()), version(&mut d)));
                        }
                    }
                    if d.below(8) == 0 {
                        versions.push((stable_hash(b"alien"), version(&mut d)));
                    }
                    let want = keys.len() as u32;
                    (OpDesc::MultiPut { keys, tag }, Outcome::MultiPut { versions, want })
                }
                5 | 6 => {
                    let mut items = Vec::new();
                    for key in KEYS {
                        if d.below(3) > 0 {
                            items.push((key.to_owned(), version(&mut d)));
                        }
                    }
                    if !items.is_empty() {
                        // Items in any order, once in a while a key twice.
                        let by = d.below(items.len() as u64) as usize;
                        items.rotate_left(by);
                        if d.below(8) == 0 {
                            items.push(items[0].clone());
                        }
                    }
                    let complete = d.below(4) > 0;
                    (
                        OpDesc::MultiGet { tag: d.pick(&TAGS).into() },
                        Outcome::MultiGet { items, complete },
                    )
                }
                _ => (OpDesc::Scan, Outcome::Scan { tuples: d.below(9) }),
            };
            let (completed, outcome) = match d.below(10) {
                0 => (None, None),
                1 => (Some(at + d.below(8)), Some(Outcome::Failed(OpFailure::Timeout))),
                _ => (Some(at + d.below(8)), Some(outcome)),
            };
            ops.push(Op {
                req,
                session: d.below(3),
                phase: None,
                invoked: at,
                desc,
                completed,
                outcome,
            });
        }
        let mut snapshot = Vec::new();
        for key in KEYS.iter().chain(&["alien"]) {
            for node in 0..d.below(4) {
                let key_hash = stable_hash(key.as_bytes());
                let (version, deleted) = (Version(d.below(6)), d.below(4) == 0);
                snapshot.push(ReplicaTuple { node, key_hash, version, deleted });
            }
        }
        (History::from_ops(ops), snapshot)
    }

    proptest! {
        /// Each indexed checker, and the suite, return exactly what the
        /// reference checkers return: the same violations, in the same
        /// order, with the same witnesses.
        #[test]
        fn indexed_checkers_equal_the_reference(seed in any::<u64>()) {
            let (h, snap) = random_history(seed);
            prop_assert_eq!(check_read_your_writes(&h), reference::check_read_your_writes(&h));
            prop_assert_eq!(check_monotonic_reads(&h), reference::check_monotonic_reads(&h));
            prop_assert_eq!(check_tombstone_safety(&h), reference::check_tombstone_safety(&h));
            prop_assert_eq!(check_atomic_visibility(&h), reference::check_atomic_visibility(&h));
            prop_assert_eq!(check_convergence(&h, &snap), reference::check_convergence(&h, &snap));
            prop_assert_eq!(check(&h, &snap).violations, reference::violations(&h, &snap));
        }
    }

    #[test]
    fn random_histories_reach_every_violation_kind() {
        // The equality above is vacuous for a kind the drawn histories
        // never produce.
        let mut seen = HashSet::new();
        for seed in 0..200 {
            let (h, snap) = random_history(seed);
            seen.extend(check(&h, &snap).violations.iter().map(Violation::kind));
        }
        assert_eq!(seen.len(), ViolationKind::ALL.len(), "kinds seen: {seen:?}");
    }
}
