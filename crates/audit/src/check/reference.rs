//! The checkers as they were before the history index: one walk of the
//! history per checker, string-keyed maps throughout. Kept as the oracle
//! the indexed checkers must equal violation for violation, order and
//! witnesses included. Test-only: this crate's unit tests include it as
//! `check::reference`, and `tests/audit_mutations.rs` by path, so it names
//! the audit types through its parent module and uses nothing private.

use super::{History, OpDesc, Outcome, ReplicaTuple, Violation};
use dd_dht::Version;
use dd_sim::rng::stable_hash;
use std::collections::{BTreeMap, HashMap, HashSet};

/// The highest acknowledged version per key, over puts, deletes and each
/// ordered item of a batch.
fn latest_acks(history: &History) -> BTreeMap<&str, Version> {
    let mut latest: BTreeMap<&str, Version> = BTreeMap::new();
    let mut note = |key, version| {
        let slot = latest.entry(key).or_insert(Version::ZERO);
        *slot = (*slot).max(version);
    };
    for op in history.ops() {
        match (&op.desc, &op.outcome) {
            (
                OpDesc::Put { key, .. } | OpDesc::Delete { key },
                Some(Outcome::Write { version }),
            ) => {
                note(key.as_str(), *version);
            }
            (OpDesc::MultiPut { keys, .. }, Some(Outcome::MultiPut { versions, .. })) => {
                for (key, version) in resolve_batch_acks(keys, versions) {
                    note(key, version);
                }
            }
            _ => {}
        }
    }
    latest
}

fn latest(acks: &BTreeMap<&str, Version>, key: &str) -> Version {
    acks.get(key).copied().unwrap_or(Version::ZERO)
}

fn resolve_batch_acks<'a>(
    keys: &'a [String],
    versions: &'a [(u64, Version)],
) -> impl Iterator<Item = (&'a str, Version)> {
    keys.iter().flat_map(move |key| {
        let kh = stable_hash(key.as_bytes());
        versions
            .iter()
            .filter(move |&&(vkh, _)| vkh == kh)
            .map(move |&(_, version)| (key.as_str(), version))
    })
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
                for (key, version) in resolve_batch_acks(keys, versions) {
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
    let oracle = latest_acks(history);
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
        } else if agreed < latest(&oracle, key) {
            out.push(Violation::LostWrite {
                key: (*key).to_owned(),
                acked: latest(&oracle, key),
                converged: Some(agreed),
                cause: None,
            });
        }
    }
    // Acked keys with no live replica at all: the write is gone.
    for (&key, &acked) in &oracle {
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

/// The full suite's violations, in the order [`super::check`] reports them.
pub fn violations(history: &History, snapshot: &[ReplicaTuple]) -> Vec<Violation> {
    let mut violations = Vec::new();
    violations.extend(check_read_your_writes(history));
    violations.extend(check_monotonic_reads(history));
    violations.extend(check_tombstone_safety(history));
    violations.extend(check_atomic_visibility(history));
    violations.extend(check_convergence(history, snapshot));
    violations
}
