//! Audited drill: run a stock dependability scenario with the audit
//! plane on, read the verdict, and learn to read a violation witness.
//!
//! Act 1 runs the partition+heal drill audited: every client operation is
//! recorded as an invocation/completion pair, the cluster settles after
//! the run, and the checker suite (read-your-writes, monotonic reads,
//! tombstone safety, multi-op atomicity, convergence) judges the history.
//! The drill must uphold every safety guarantee; durability warnings
//! (acked writes whose replicas were all partitioned away) are reported.
//!
//! Act 2 shows what a violation looks like: a recorded history is
//! deliberately corrupted — a session's read is rewound to a version
//! older than the write it already saw acknowledged — and the checker's
//! structured verdict, witness sub-history included, is printed.
//!
//! ```sh
//! cargo run --release --example audited_drill
//! ```

use dd_core::scenario::library;
use dd_core::{Cluster, ClusterConfig, History, Placement, Planes, Violation};

fn main() {
    // Act 1 — the stock partition+heal drill, audited.
    let config =
        ClusterConfig::small().persist_n(32).replication(3).placement(Placement::TagCollocation);
    let mut cluster = Cluster::new(config, 7);
    cluster.settle();
    let report = cluster.run_scenario(&library::partition_heal(21).audited());
    let audit = report.audit.as_ref().expect("audited run attaches a verdict");

    println!(
        "scenario `{}` — {} ops, availability {:.4}",
        report.name,
        report.issued(),
        report.availability()
    );
    println!("{audit}");
    assert!(audit.is_clean(), "the drill must uphold every safety guarantee");
    assert_eq!(audit.ops, report.issued(), "every operation was recorded");
    println!(
        "\nall safety guarantees held under the partition; {} durability warning(s) \
         (acked writes whose replica set was fully dark) were reported.",
        audit.warning_count()
    );

    // Act 2 — what a violation looks like. Record a tiny session, then
    // corrupt the history: rewind the read to a version older than the
    // write the session had already seen acknowledged.
    let mut cluster = Cluster::new(ClusterConfig::small(), 8);
    cluster.settle();
    cluster.observe(Planes { audit: true, ..Planes::default() });
    let mut session = cluster.client();
    for round in 1..=2u8 {
        let w = session.put(&mut cluster, "demo", vec![round], None, None);
        session.recv(&mut cluster, w).expect("write ordered");
    }
    let r = session.get(&mut cluster, "demo");
    session.recv(&mut cluster, r).expect("read completes").expect("found");
    let history = cluster.stop_observing().audit.expect("the audit was on");
    assert!(dd_audit::check(&history, &cluster.audit_snapshot()).is_clean());

    let mut ops = history.ops().to_vec();
    let read = ops.len() - 1;
    ops[read].outcome = Some(dd_audit::Outcome::Read { version: Some(dd_dht::Version(1)) });
    let verdict = dd_audit::check_read_your_writes(&History::from_ops(ops));
    println!("\ncorrupted replay: {} violation(s)", verdict.len());
    let Some(Violation::ReadYourWrites { session, key, acked, read, witness }) = verdict.first()
    else {
        panic!("the corruption must be caught as a read-your-writes violation");
    };
    println!(
        "  [read-your-writes] session {session} read `{key}`@{read:?} after \
         harvesting an ack for @{acked:?}"
    );
    println!("  witness sub-history (the ops proving it):");
    for op in witness {
        println!(
            "    req {} @t{}..{}: {:?} -> {:?}",
            op.req,
            op.invoked,
            op.completed.expect("resolved"),
            op.desc,
            op.outcome.as_ref().expect("resolved")
        );
    }
}
