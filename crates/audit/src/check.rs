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

use crate::history::{History, Op, OpDesc, Outcome};
use crate::oracle::VersionOracle;
use crate::report::AuditReport;
use dd_dht::Version;
use dd_sim::rng::stable_hash;
use std::collections::{BTreeMap, HashMap, HashSet};

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

/// The versions a session saw acknowledged, per key: `(completion time,
/// version, op index)` per harvested write ack.
type AckIndex = BTreeMap<(u64, String), Vec<(u64, Version, usize)>>;

/// The *complete* tag reads of a history, per tag: `(op index, items)`.
type TagReads<'a> = BTreeMap<String, Vec<(usize, &'a [(String, Version)])>>;

/// Indexes every harvested write ack (puts, deletes, ordered batch items)
/// by `(session, key)`.
fn session_acks(history: &History) -> AckIndex {
    let mut acks: AckIndex = BTreeMap::new();
    for (i, op) in history.ops().iter().enumerate() {
        let Some(done) = op.completed else { continue };
        match (&op.desc, op.outcome.as_ref()) {
            (
                OpDesc::Put { key, .. } | OpDesc::Delete { key },
                Some(Outcome::Write { version }),
            ) => {
                acks.entry((op.session, key.clone())).or_default().push((done, *version, i));
            }
            (OpDesc::MultiPut { keys, .. }, Some(Outcome::MultiPut { versions, .. })) => {
                for (key, version) in crate::history::resolve_batch_acks(keys, versions) {
                    acks.entry((op.session, key.to_owned())).or_default().push((done, version, i));
                }
            }
            _ => {}
        }
    }
    acks
}

/// The resolved single-key reads of a history: `(op index, key, version
/// returned)` for every `Get` that found a tuple.
fn found_reads(history: &History) -> Vec<(usize, &str, Version)> {
    history
        .ops()
        .iter()
        .enumerate()
        .filter_map(|(i, op)| match (&op.desc, op.outcome.as_ref()) {
            (OpDesc::Get { key }, Some(Outcome::Read { version: Some(v) })) => {
                Some((i, key.as_str(), *v))
            }
            _ => None,
        })
        .collect()
}

/// Per-session read-your-writes: a read must not return a version older
/// than a write whose ack the same session had already harvested when the
/// read was submitted.
#[must_use]
pub fn check_read_your_writes(history: &History) -> Vec<Violation> {
    let acks = session_acks(history);
    let mut out = Vec::new();
    for (i, key, read) in found_reads(history) {
        let op = &history.ops()[i];
        let Some(entries) = acks.get(&(op.session, key.to_owned())) else { continue };
        // The strongest ack the session held when it submitted the read.
        let best =
            entries.iter().filter(|&&(done, _, _)| done <= op.invoked).max_by_key(|&&(_, v, _)| v);
        if let Some(&(_, acked, ack_idx)) = best {
            if read < acked {
                out.push(Violation::ReadYourWrites {
                    session: op.session,
                    key: key.to_owned(),
                    acked,
                    read,
                    witness: vec![history.ops()[ack_idx].clone(), op.clone()],
                });
            }
        }
    }
    out
}

/// Per-session monotonic reads: non-overlapping reads of one key must
/// observe non-decreasing versions. (Overlapping — pipelined — reads are
/// unordered and exempt.)
#[must_use]
pub fn check_monotonic_reads(history: &History) -> Vec<Violation> {
    // (session, key) -> reads seen so far: (completed, version, op index).
    let mut seen: AckIndex = BTreeMap::new();
    let mut out = Vec::new();
    for (i, key, version) in found_reads(history) {
        let op = &history.ops()[i];
        let slot = seen.entry((op.session, key.to_owned())).or_default();
        let prior = slot
            .iter()
            .filter(|&&(done, _, _)| done <= op.invoked)
            .max_by_key(|&&(_, v, _)| v)
            .copied();
        if let Some((_, earlier, prior_idx)) = prior {
            if version < earlier {
                out.push(Violation::MonotonicRead {
                    session: op.session,
                    key: key.to_owned(),
                    earlier,
                    later: version,
                    witness: vec![history.ops()[prior_idx].clone(), op.clone()],
                });
            }
        }
        slot.push((op.completed.expect("found read is resolved"), version, i));
    }
    out
}

/// The *complete* tag reads of a history, per tag, in completion order:
/// `(op index, items)` — partial unions are excluded by construction.
fn complete_multi_gets(history: &History) -> TagReads<'_> {
    let mut per_tag: TagReads<'_> = BTreeMap::new();
    let mut order: Vec<(u64, u64, usize)> = Vec::new();
    for (i, op) in history.ops().iter().enumerate() {
        if let (OpDesc::MultiGet { .. }, Some(Outcome::MultiGet { complete: true, .. })) =
            (&op.desc, op.outcome.as_ref())
        {
            order.push((op.completed.expect("resolved"), op.req, i));
        }
    }
    order.sort_unstable();
    for (_, _, i) in order {
        let op = &history.ops()[i];
        if let (OpDesc::MultiGet { tag }, Some(Outcome::MultiGet { items, .. })) =
            (&op.desc, op.outcome.as_ref())
        {
            per_tag.entry(tag.clone()).or_default().push((i, items.as_slice()));
        }
    }
    per_tag
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
    let mut out = Vec::new();
    // Delete acks per key: (completed, version, op index).
    let mut deletes: BTreeMap<&str, Vec<(u64, Version, usize)>> = BTreeMap::new();
    for (i, op) in history.ops().iter().enumerate() {
        if let (OpDesc::Delete { key }, Some(Outcome::Write { version })) =
            (&op.desc, op.outcome.as_ref())
        {
            deletes.entry(key).or_default().push((op.completed.expect("resolved"), *version, i));
        }
    }
    for (i, key, read) in found_reads(history) {
        let op = &history.ops()[i];
        let Some(entries) = deletes.get(key) else { continue };
        let best =
            entries.iter().filter(|&&(done, _, _)| done <= op.invoked).max_by_key(|&&(_, v, _)| v);
        if let Some(&(_, tombstone, del_idx)) = best {
            if read < tombstone {
                out.push(Violation::TombstoneResurrection {
                    key: key.to_owned(),
                    superseded_by: tombstone,
                    read,
                    witness: vec![history.ops()[del_idx].clone(), op.clone()],
                });
            }
        }
    }
    // Shown → vanished → shown-again-at-or-below-the-old-version, over
    // complete unions of one tag's fixed replica set.
    for gets in complete_multi_gets(history).values() {
        // key -> the strongest shown observation, and the vanish proof.
        let mut last_shown: HashMap<&str, (Version, u64, usize)> = HashMap::new();
        let mut vanished: HashMap<&str, (Version, u64, usize, usize)> = HashMap::new();
        for &(gi, items) in gets {
            let g = &history.ops()[gi];
            let present: HashMap<&str, Version> =
                items.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            for (&key, &(v_shown, shown_done, shown_idx)) in &last_shown {
                if !present.contains_key(key) && g.invoked >= shown_done {
                    let slot = vanished.entry(key).or_insert((
                        v_shown,
                        g.completed.expect("resolved"),
                        shown_idx,
                        gi,
                    ));
                    if v_shown > slot.0 {
                        *slot = (v_shown, g.completed.expect("resolved"), shown_idx, gi);
                    }
                }
            }
            for (key, &v) in items.iter().map(|(k, v)| (k.as_str(), v)) {
                if let Some(&(v_old, vanish_done, shown_idx, vanish_idx)) = vanished.get(key) {
                    if g.invoked >= vanish_done && v <= v_old {
                        out.push(Violation::TombstoneResurrection {
                            key: (*key).to_owned(),
                            superseded_by: v_old,
                            read: v,
                            witness: vec![
                                history.ops()[shown_idx].clone(),
                                history.ops()[vanish_idx].clone(),
                                g.clone(),
                            ],
                        });
                    }
                }
                let done = g.completed.expect("resolved");
                let slot = last_shown.entry(key).or_insert((v, done, gi));
                if v >= slot.0 {
                    *slot = (v, done, gi);
                }
            }
        }
    }
    dedup_in_order(out)
}

/// Multi-op atomicity of visibility over complete tag reads: per-key
/// version regressions across non-overlapping reads, and fully-acked
/// batches tearing after having been fully visible.
#[must_use]
pub fn check_atomic_visibility(history: &History) -> Vec<Violation> {
    let mut out = Vec::new();
    let per_tag = complete_multi_gets(history);
    // Keys exempt from the torn-batch rule: a delete or a write under a
    // different tag legitimately removes a key from a feed.
    let mut deleted_keys: HashSet<&str> = HashSet::new();
    let mut tagged_writes: Vec<(&str, Option<&str>)> = Vec::new();
    for op in history.ops() {
        match &op.desc {
            OpDesc::Delete { key } => {
                deleted_keys.insert(key);
            }
            OpDesc::Put { key, tag } => tagged_writes.push((key, tag.as_deref())),
            OpDesc::MultiPut { keys, tag } => {
                for k in keys {
                    tagged_writes.push((k, tag.as_deref()));
                }
            }
            _ => {}
        }
    }
    let retagged =
        |key: &str, tag: &str| tagged_writes.iter().any(|&(k, t)| k == key && t != Some(tag));

    for (tag, gets) in &per_tag {
        // (a) per-key version regression across non-overlapping reads.
        let mut strongest: HashMap<&str, (Version, u64, usize)> = HashMap::new();
        for &(gi, items) in gets {
            let g = &history.ops()[gi];
            for (key, &v) in items.iter().map(|(k, v)| (k.as_str(), v)) {
                if let Some(&(v_max, done, prev_idx)) = strongest.get(key) {
                    if v < v_max && g.invoked >= done {
                        out.push(Violation::FeedRegression {
                            tag: tag.clone(),
                            key: key.to_owned(),
                            earlier: v_max,
                            later: v,
                            witness: vec![history.ops()[prev_idx].clone(), g.clone()],
                        });
                    }
                }
                let done = g.completed.expect("resolved");
                let slot = strongest.entry(key).or_insert((v, done, gi));
                if v >= slot.0 {
                    *slot = (v, done, gi);
                }
            }
        }
        // (b) torn batches: fully-acked batch, once fully visible, must
        // not become partially visible (absent deletes/retags).
        for (bi, batch) in history.ops().iter().enumerate() {
            let (
                OpDesc::MultiPut { keys, tag: Some(btag) },
                Some(Outcome::MultiPut { versions, want }),
            ) = (&batch.desc, batch.outcome.as_ref())
            else {
                continue;
            };
            if btag != tag || versions.len() != *want as usize {
                continue;
            }
            let mut fully_visible: Option<(u64, usize)> = None;
            for &(gi, items) in gets {
                let g = &history.ops()[gi];
                let present: HashSet<&str> = items.iter().map(|(k, _)| k.as_str()).collect();
                let shown: Vec<&String> =
                    keys.iter().filter(|k| present.contains(k.as_str())).collect();
                if shown.len() == keys.len() {
                    fully_visible = Some((g.completed.expect("resolved"), gi));
                    continue;
                }
                if let Some((full_done, full_idx)) = fully_visible {
                    let missing: Vec<String> = keys
                        .iter()
                        .filter(|k| {
                            !present.contains(k.as_str())
                                && !deleted_keys.contains(k.as_str())
                                && !retagged(k, tag)
                        })
                        .cloned()
                        .collect();
                    if !shown.is_empty() && !missing.is_empty() && g.invoked >= full_done {
                        out.push(Violation::TornBatch {
                            tag: tag.clone(),
                            batch_req: batch.req,
                            missing,
                            witness: vec![
                                history.ops()[bi].clone(),
                                history.ops()[full_idx].clone(),
                                g.clone(),
                            ],
                        });
                    }
                }
            }
        }
    }
    dedup_in_order(out)
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
    let mut out = Vec::new();
    // key_hash -> key string, and write-invocation counts per key.
    let mut names: HashMap<u64, &str> = HashMap::new();
    let mut writes: BTreeMap<&str, u64> = BTreeMap::new();
    for op in history.ops() {
        match &op.desc {
            OpDesc::Put { key, .. } | OpDesc::Delete { key } => {
                names.insert(stable_hash(key.as_bytes()), key);
                *writes.entry(key).or_insert(0) += 1;
            }
            OpDesc::MultiPut { keys, .. } => {
                for key in keys {
                    names.insert(stable_hash(key.as_bytes()), key);
                    *writes.entry(key).or_insert(0) += 1;
                }
            }
            _ => {}
        }
    }
    let mut by_key: BTreeMap<&str, Vec<&ReplicaTuple>> = BTreeMap::new();
    for t in snapshot {
        if let Some(&name) = names.get(&t.key_hash) {
            by_key.entry(name).or_default().push(t);
        }
    }
    let oracle = VersionOracle::from_history(history);
    for (key, replicas) in &by_key {
        let mut rows: Vec<(u64, Version, bool)> =
            replicas.iter().map(|t| (t.node, t.version, t.deleted)).collect();
        rows.sort_unstable();
        let agreed = rows.iter().map(|&(_, v, _)| v).max().expect("non-empty group");
        if !rows_converged(&rows) {
            out.push(Violation::Divergence { key: (*key).to_owned(), replicas: rows });
            continue;
        }
        let invoked_writes = writes.get(key).copied().unwrap_or(0);
        if agreed.0 > invoked_writes {
            out.push(Violation::Fabrication {
                key: (*key).to_owned(),
                version: agreed,
                writes: invoked_writes,
            });
        } else if agreed < oracle.latest(key) {
            out.push(Violation::LostWrite {
                key: (*key).to_owned(),
                acked: oracle.latest(key),
                converged: Some(agreed),
                cause: None,
            });
        }
    }
    // Acked keys with no live replica at all: the write is gone.
    for (key, acked) in oracle.iter() {
        if !by_key.contains_key(key) {
            out.push(Violation::LostWrite {
                key: key.to_owned(),
                acked,
                converged: None,
                cause: None,
            });
        }
    }
    out
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
    let mut violations = Vec::new();
    violations.extend(check_read_your_writes(history));
    violations.extend(check_monotonic_reads(history));
    violations.extend(check_tombstone_safety(history));
    violations.extend(check_atomic_visibility(history));
    violations.extend(check_convergence(history, snapshot));
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
mod tests {
    use super::*;
    use crate::history::Recorder;

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
}
