//! Mutation tests: the checkers have teeth.
//!
//! A real cluster run is recorded into a [`History`]; the clean baseline
//! checks clean. Then each test corrupts the recorded history (or the
//! replica snapshot) in exactly one way — drops an ack, reorders a
//! session's reads, resurrects a tombstone, tears a batch — and asserts
//! the matching checker reports exactly the injected violation.

use dd_audit::{
    check, check_atomic_visibility, check_convergence, check_monotonic_reads,
    check_read_your_writes, check_tombstone_safety, snapshot_converged, History, Op, OpDesc,
    Outcome, ReplicaTuple, Violation,
};
use dd_core::{Cluster, ClusterConfig, Placement, Planes, TupleSpec};
use dd_dht::Version;

/// Drives a real (tag-collocated) cluster through writes, overwrites,
/// feed batches, feed reads, a delete and re-reads — all recorded — and
/// returns the history plus a converged replica snapshot.
fn recorded_fixture() -> (History, Vec<ReplicaTuple>) {
    let mut c = Cluster::new(ClusterConfig::small().placement(Placement::TagCollocation), 4242);
    c.settle();
    c.observe(Planes { audit: true, ..Planes::default() });
    let mut writer = c.client();
    let mut reader = c.client();

    // Two versions of "k", read back by both sessions.
    let w = writer.put(&mut c, "k", b"v1".to_vec(), None, None);
    writer.recv(&mut c, w).expect("v1 ordered");
    let w = writer.put(&mut c, "k", b"v2".to_vec(), None, None);
    writer.recv(&mut c, w).expect("v2 ordered");
    c.run_for(2_000);
    for session in [&mut writer, &mut reader] {
        for _ in 0..2 {
            let r = session.get(&mut c, "k");
            let got = session.recv(&mut c, r).expect("read completes").expect("found");
            assert_eq!(got.version, Version(2));
        }
    }

    // A tagged batch, fully visible in two complete feed reads.
    let batch: Vec<TupleSpec> = ["a", "b", "c"]
        .iter()
        .enumerate()
        .map(|(i, k)| TupleSpec::new(*k, vec![i as u8], Some(i as f64), Some("feed:x")))
        .collect();
    let w = writer.multi_put(&mut c, batch);
    assert_eq!(writer.recv(&mut c, w).expect("batch ordered").items, 3);
    c.run_for(4_000);
    for _ in 0..2 {
        let r = reader.multi_get(&mut c, "feed:x");
        let feed = reader.recv(&mut c, r).expect("feed read");
        assert_eq!(feed.len(), 3, "batch fully visible");
        assert!(feed.complete);
    }

    // Delete "k"; both sessions observe the tombstone.
    let d = writer.delete(&mut c, "k");
    assert_eq!(writer.recv(&mut c, d).expect("delete ordered").version, Version(3));
    c.run_for(3_000);
    for session in [&mut writer, &mut reader] {
        let r = session.get(&mut c, "k");
        assert_eq!(session.recv(&mut c, r), Ok(None), "deleted key reads absent");
    }

    let history = c.stop_observing().audit.expect("the audit was on");
    // Settle until every key's live replicas agree.
    for _ in 0..32 {
        if snapshot_converged(&c.audit_snapshot()) {
            break;
        }
        c.settle();
    }
    let snapshot = c.audit_snapshot();
    assert!(snapshot_converged(&snapshot), "fixture converged");
    (history, snapshot)
}

/// Index of the `n`-th op matching a predicate.
fn find_op(h: &History, n: usize, pred: impl Fn(&Op) -> bool) -> usize {
    h.ops()
        .iter()
        .enumerate()
        .filter(|(_, op)| pred(op))
        .map(|(i, _)| i)
        .nth(n)
        .expect("fixture op present")
}

fn is_get_of(op: &Op, key: &str) -> bool {
    matches!(&op.desc, OpDesc::Get { key: k } if k == key)
}

fn is_mget(op: &Op) -> bool {
    matches!(&op.desc, OpDesc::MultiGet { .. })
}

#[test]
fn uncorrupted_fixture_checks_clean() {
    let (history, snapshot) = recorded_fixture();
    let report = check(&history, &snapshot);
    assert!(report.violations.is_empty(), "baseline must be spotless:\n{report}");
    assert!(report.ops >= 12 && report.unresolved == 0);
}

#[test]
fn dropping_an_ack_is_caught_as_fabrication() {
    let (history, snapshot) = recorded_fixture();
    // Drop the op that acknowledged "k"@2: the replicas' agreed version 3
    // now exceeds what the remaining recorded writes could assign.
    let mut ops = history.ops().to_vec();
    let victim =
        find_op(&history, 1, |op| matches!(&op.desc, OpDesc::Put { key, .. } if key == "k"));
    ops.remove(victim);
    let violations = check_convergence(&History::from_ops(ops), &snapshot);
    assert_eq!(violations.len(), 1, "exactly the injected violation: {violations:?}");
    assert!(matches!(
        &violations[0],
        Violation::Fabrication { key, version: Version(3), writes: 2 } if key == "k"
    ));
}

#[test]
fn reordered_session_reads_are_caught_as_monotonicity() {
    let (history, snapshot) = recorded_fixture();
    // The reader session's two reads of "k" both saw version 2. Reorder
    // its history so the *later* read observes the older version 1.
    let mut ops = history.ops().to_vec();
    let reader_session = {
        let first = find_op(&history, 0, |op| is_get_of(op, "k"));
        let other = find_op(&history, 2, |op| is_get_of(op, "k"));
        assert_ne!(ops[first].session, ops[other].session, "two sessions read");
        ops[other].session
    };
    let later = find_op(&history, 3, |op| is_get_of(op, "k"));
    assert_eq!(ops[later].session, reader_session);
    ops[later].outcome = Some(Outcome::Read { version: Some(Version(1)) });
    let h = History::from_ops(ops);
    let violations = check_monotonic_reads(&h);
    assert_eq!(violations.len(), 1, "exactly the injected violation: {violations:?}");
    assert!(matches!(
        &violations[0],
        Violation::MonotonicRead { key, earlier: Version(2), later: Version(1), witness, .. }
            if key == "k" && witness.len() == 2
    ));
    // The reader session never wrote, so read-your-writes stays silent —
    // the corruption is attributed to the right guarantee.
    assert!(check_read_your_writes(&h).is_empty());
    let _ = snapshot;
}

#[test]
fn stale_read_after_own_write_is_caught_as_read_your_writes() {
    let (history, _) = recorded_fixture();
    // The writer acked "k"@2, then read it back: lower that read to v1.
    let mut ops = history.ops().to_vec();
    let writer_read = find_op(&history, 0, |op| is_get_of(op, "k"));
    ops[writer_read].outcome = Some(Outcome::Read { version: Some(Version(1)) });
    let violations = check_read_your_writes(&History::from_ops(ops));
    assert_eq!(violations.len(), 1, "exactly the injected violation: {violations:?}");
    assert!(matches!(
        &violations[0],
        Violation::ReadYourWrites { key, acked: Version(2), read: Version(1), .. } if key == "k"
    ));
}

#[test]
fn resurrecting_a_tombstone_is_caught() {
    let (history, _) = recorded_fixture();
    // Append a read that returns the deleted key's old value after the
    // delete was acknowledged and observed.
    let mut ops = history.ops().to_vec();
    let last = ops.last().expect("non-empty").clone();
    let end = last.completed.expect("resolved") + 100;
    ops.push(Op {
        req: last.req + 1_000,
        session: last.session,
        phase: None,
        invoked: end,
        desc: OpDesc::Get { key: "k".into() },
        completed: Some(end + 20),
        outcome: Some(Outcome::Read { version: Some(Version(1)) }),
    });
    let violations = check_tombstone_safety(&History::from_ops(ops));
    assert_eq!(violations.len(), 1, "exactly the injected violation: {violations:?}");
    assert!(matches!(
        &violations[0],
        Violation::TombstoneResurrection { key, superseded_by: Version(3), read: Version(1), .. }
            if key == "k"
    ));
}

#[test]
fn tearing_a_batch_is_caught_as_torn_batch() {
    let (history, _) = recorded_fixture();
    // Remove item "b" from the second complete feed read: the fully-acked,
    // fully-visible batch is now partially visible with no delete.
    let mut ops = history.ops().to_vec();
    let second = find_op(&history, 1, is_mget);
    let Some(Outcome::MultiGet { items, complete }) = ops[second].outcome.clone() else {
        panic!("fixture mget resolved");
    };
    let torn: Vec<_> = items.into_iter().filter(|(k, _)| k != "b").collect();
    assert_eq!(torn.len(), 2);
    ops[second].outcome = Some(Outcome::MultiGet { items: torn, complete });
    let violations = check_atomic_visibility(&History::from_ops(ops));
    assert_eq!(violations.len(), 1, "exactly the injected violation: {violations:?}");
    assert!(matches!(
        &violations[0],
        Violation::TornBatch { tag, missing, witness, .. }
            if tag == "feed:x" && missing == &["b".to_owned()] && witness.len() == 3
    ));
}

#[test]
fn regressing_a_feed_item_is_caught() {
    let (history, _) = recorded_fixture();
    // Lower one item's version in the second complete feed read.
    let mut ops = history.ops().to_vec();
    let second = find_op(&history, 1, is_mget);
    let Some(Outcome::MultiGet { mut items, complete }) = ops[second].outcome.clone() else {
        panic!("fixture mget resolved");
    };
    let slot = items.iter_mut().find(|(k, _)| k == "c").expect("item present");
    slot.1 = Version(0);
    ops[second].outcome = Some(Outcome::MultiGet { items, complete });
    let violations = check_atomic_visibility(&History::from_ops(ops));
    assert_eq!(violations.len(), 1, "exactly the injected violation: {violations:?}");
    assert!(matches!(
        &violations[0],
        Violation::FeedRegression { tag, key, later: Version(0), .. }
            if tag == "feed:x" && key == "c"
    ));
}

#[test]
fn partial_feed_reads_are_exempt_from_atomicity() {
    let (history, _) = recorded_fixture();
    // The same tear, but on a read marked partial (deadline-cut union):
    // missing items there are availability, not safety.
    let mut ops = history.ops().to_vec();
    let second = find_op(&history, 1, is_mget);
    let Some(Outcome::MultiGet { items, .. }) = ops[second].outcome.clone() else {
        panic!("fixture mget resolved");
    };
    let torn: Vec<_> = items.into_iter().filter(|(k, _)| k != "b").collect();
    ops[second].outcome = Some(Outcome::MultiGet { items: torn, complete: false });
    assert!(check_atomic_visibility(&History::from_ops(ops)).is_empty());
}

#[test]
fn diverged_replicas_are_caught() {
    let (history, snapshot) = recorded_fixture();
    // Flip one live replica of "a" to an older version.
    let ah = dd_sim::rng::stable_hash(b"a");
    let mut snap = snapshot;
    let t = snap.iter_mut().find(|t| t.key_hash == ah).expect("replica of a");
    t.version = Version(0);
    let violations = check_convergence(&history, &snap);
    assert_eq!(violations.len(), 1, "exactly the injected violation: {violations:?}");
    assert!(matches!(
        &violations[0],
        Violation::Divergence { key, replicas } if key == "a" && replicas.len() >= 2
    ));
}

#[test]
fn losing_an_acked_write_is_a_warning() {
    let (history, snapshot) = recorded_fixture();
    // Erase every replica of "a": the acked write no longer survives.
    let ah = dd_sim::rng::stable_hash(b"a");
    let snap: Vec<ReplicaTuple> = snapshot.into_iter().filter(|t| t.key_hash != ah).collect();
    let violations = check_convergence(&history, &snap);
    assert_eq!(violations.len(), 1, "exactly the injected violation: {violations:?}");
    assert!(matches!(
        &violations[0],
        Violation::LostWrite { key, converged: None, .. } if key == "a"
    ));
    assert!(!violations[0].is_safety(), "durability loss is a warning, not a safety violation");
    let report = check(&history, &snap);
    assert!(report.is_clean() && report.warning_count() == 1);
}
