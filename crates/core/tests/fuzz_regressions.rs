//! Frozen fuzz corpus: minimal witnessing scenarios found by `dd-fuzz`
//! campaigns, pinned as plain dd-core regression tests so the behaviours
//! they witness never silently change class.
//!
//! ## Freeze workflow
//!
//! 1. Run a campaign: `cargo run --release -p dd-fuzz -- --config smoke
//!    --seeds 400` (or let CI's smoke tier flag the seed).
//! 2. Take the finding's minimal repro snippet — printed by the binary
//!    for safety findings and recorded for every shrunk finding in
//!    `BENCH_fuzz.json` under `findings[].snippet` (it is
//!    `Case::snippet()`, self-contained dd-core code).
//! 3. Paste the snippet here as a `#[test]`, name it after the seed and
//!    the verdict, and pin the classification: which violation kinds the
//!    audit may report, and which it must not.
//! 4. Assert replay determinism (`run_scenario` twice, reports equal) so
//!    the frozen case also guards the engine's reproducibility contract.
//!
//! A frozen test failing means the witnessed behaviour changed class —
//! e.g. a durability warning became a safety violation (regression), or
//! disappeared entirely (the weakness was fixed; turn the test into a pin
//! of the fix after confirming with a fresh campaign over the same seed
//! window, as seeds 0 and 1 were).

use dd_core::{
    AuditReport, Cluster, ClusterConfig, EnvChange, Fault, LostCause, OpMix, Phase, Placement,
    Scenario, Tier, Violation, ViolationKind, WorkloadKind,
};
use dd_sim::LatencyModel;

/// The causes of an audit's lost writes, in report order; panics if the
/// audit reported anything else.
fn lost_causes(audit: &AuditReport) -> Vec<Option<LostCause>> {
    audit
        .violations
        .iter()
        .map(|v| match v {
            Violation::LostWrite { cause, .. } => *cause,
            other => panic!("only lost writes are expected here: {other:?}"),
        })
        .collect()
}

/// dd-fuzz smoke campaign, seed 0, shrunk 64 → 14: under `Uniform`
/// placement on a 4-node persist layer, a short social-feed burst of puts
/// and batched puts once left an acknowledged write on no replica with
/// *no* fault at all — every node's coin rejected it. Each key now has a
/// home node that always keeps it, so the run is clean.
#[test]
fn seed_0_uniform_placement_keeps_every_write_without_any_fault() {
    let run = || {
        let config =
            ClusterConfig::small().persist_n(4).replication(3).placement(Placement::Uniform);
        let mut cluster = Cluster::new(config, 0);
        cluster.settle();
        let scenario = Scenario::new("fuzz-0-min", WorkloadKind::SocialFeed { users: 18 }, 0)
            .phase(
                Phase::new("load", 1499)
                    .mix(OpMix::idle().put(3).multi_put(1).batch(3))
                    .sessions(3)
                    .depth(2)
                    .ops(9),
            )
            .audited();
        cluster.run_scenario(&scenario)
    };
    let report = run();
    let audit = report.audit.as_ref().expect("scenario is audited");
    assert!(audit.violations.is_empty(), "no fault, no lost write: {audit}");
    assert_eq!(report, run(), "frozen scenarios replay byte-identically");
}

/// dd-fuzz smoke campaign, seed 1, shrunk 116 → 28: the same hole through
/// a different door — Zipf-keyed puts racing gets on a 5-node
/// uniform-sieve layer, no faults, one phase. Clean now that every key
/// has a home.
#[test]
fn seed_1_zipf_put_get_race_keeps_every_write() {
    let run =
        || {
            let config =
                ClusterConfig::small().persist_n(5).replication(2).placement(Placement::Uniform);
            let mut cluster = Cluster::new(config, 1);
            cluster.settle();
            let scenario = Scenario::new(
                "fuzz-1-min",
                WorkloadKind::ZipfKeys { keys: 401, exponent: 1.04 },
                1,
            )
            .phase(Phase::new("serve-1", 1983).mix(OpMix::idle().put(2).get(3)).sessions(2).ops(22))
            .audited();
            cluster.run_scenario(&scenario)
        };
    let report = run();
    let audit = report.audit.as_ref().expect("scenario is audited");
    assert!(audit.violations.is_empty(), "no fault, no lost write: {audit}");
    assert_eq!(report, run(), "frozen scenarios replay byte-identically");
}

/// dd-fuzz smoke campaign, seed 3, shrunk 61 → 6: a crash of the whole
/// 3-node persist layer right after one put, never revived. The write's
/// owners are all down at settle — the paper's bounded durability, a
/// warning and never a safety violation.
#[test]
fn seed_3_a_crash_of_every_owner_loses_the_write() {
    let run = || {
        let config =
            ClusterConfig::small().persist_n(3).replication(3).placement(Placement::TagCollocation);
        let mut cluster = Cluster::new(config, 3);
        cluster.settle();
        let scenario = Scenario::new("fuzz-3-min", WorkloadKind::Uniform, 3)
            .phase(Phase::new("load", 1401).mix(OpMix::idle().put(3)).sessions(3).depth(5).ops(1))
            .fault(934, Fault::Crash { tier: Tier::Persist, count: 6 })
            .audited();
        cluster.run_scenario(&scenario)
    };
    let report = run();
    let audit = report.audit.as_ref().expect("scenario is audited");
    let causes = lost_causes(audit);
    assert!(!causes.is_empty(), "the lost write this seed witnesses disappeared");
    assert!(causes.iter().all(|&c| c == Some(LostCause::AllOwnersDown)), "{audit}");
    assert_eq!(report, run(), "frozen scenarios replay byte-identically");
}

/// dd-fuzz smoke campaign, seed 13, shrunk 143 → 30: one unrevived crash
/// on a 7-node `Uniform` layer. A key the coin kept nowhere but its home
/// has one owner, so losing that node loses the key: uniform placement
/// holds `r + 1 − r/n` copies on average, not `r` on every key.
#[test]
fn seed_13_a_uniform_crash_loses_writes_whose_owners_all_died() {
    let run = || {
        let config =
            ClusterConfig::small().persist_n(7).replication(3).placement(Placement::Uniform);
        let mut cluster = Cluster::new(config, 13);
        cluster.settle();
        let scenario = Scenario::new("fuzz-13-min", WorkloadKind::SocialFeed { users: 46 }, 13)
            .phase(
                Phase::new("load", 1305)
                    .mix(OpMix::idle().put(3).multi_put(1))
                    .sessions(1)
                    .depth(3)
                    .ops(21),
            )
            .fault(1036, Fault::Crash { tier: Tier::Persist, count: 1 })
            .audited();
        cluster.run_scenario(&scenario)
    };
    let report = run();
    let audit = report.audit.as_ref().expect("scenario is audited");
    let causes = lost_causes(audit);
    assert!(!causes.is_empty(), "the lost write this seed witnesses disappeared");
    assert!(causes.iter().all(|&c| c == Some(LostCause::AllOwnersDown)), "{audit}");
    assert_eq!(report, run(), "frozen scenarios replay byte-identically");
}

/// dd-fuzz smoke campaign, seed 578, shrunk 93 → 66 keeping a
/// `LiveOwnerMissing` cause: a 22 % message-loss spike over range-placed
/// puts, with flapping and crashed persist nodes. Some acked writes end up
/// on no replica although one of their owners stayed live throughout. The
/// likely mechanism: a coordinator re-sends its `undelivered` writes only
/// when a `PeerUp` notice arrives, so a `DeliverBatch` (or its ack) lost to
/// random loss is never retried, and with the other owner dead no repair
/// partner holds the tuple either. A durability warning today; frozen so
/// the fix (a retry that does not wait for `PeerUp`) flips it to clean.
#[test]
fn seed_578_a_loss_spike_leaves_a_live_owner_without_the_write() {
    let run = || {
        let config = ClusterConfig::small()
            .persist_n(12)
            .replication(2)
            .placement(Placement::RangePartition);
        let mut cluster = Cluster::new(config, 578);
        cluster.settle();
        let scenario = Scenario::new("fuzz-578-min", WorkloadKind::Uniform, 578)
            .phase(Phase::new("load", 1766).mix(OpMix::idle().put(3)).sessions(1).depth(4).ops(39))
            .phase(
                Phase::new("serve-0", 721)
                    .mix(OpMix::idle().put(1).get(4).delete(1))
                    .sessions(1)
                    .depth(7)
                    .ops(9),
            )
            .fault(533, Fault::Flap { tier: Tier::Persist, count: 5, down_for: 447 })
            .fault(842, Fault::Crash { tier: Tier::Persist, count: 6 })
            .env(1527, EnvChange::DropProb(0.22))
            .env(2162, EnvChange::DropProb(0.0))
            .audited();
        cluster.run_scenario(&scenario)
    };
    let report = run();
    let audit = report.audit.as_ref().expect("scenario is audited");
    let causes = lost_causes(audit);
    assert!(
        causes.contains(&Some(LostCause::LiveOwnerMissing)),
        "the live-owner loss this seed witnesses disappeared: {audit}"
    );
    assert!(causes.iter().all(Option::is_some), "every lost write has a cause: {audit}");
    assert_eq!(report, run(), "frozen scenarios replay byte-identically");
}

/// The divergence the first fuzz campaigns caught (smoke seeds 49 and
/// 53, both shrunk to `WipeSoftLayer` + deletes): wiping the soft layer
/// without rebuilding resets the version authority, a post-wipe delete
/// re-issues an already-used version, and before the deterministic
/// tie-break (`StoredTuple::supersedes`) replicas disagreed forever on
/// the tombstone flag at that version. Frozen at the shrunk seed-49
/// shape: the audit must report *no* divergence (and no other safety
/// violation) now that ties resolve tombstone-first everywhere.
#[test]
fn seed_49_soft_wipe_version_reuse_no_longer_diverges() {
    let run = || {
        let config =
            ClusterConfig::small().persist_n(6).replication(3).placement(Placement::Uniform);
        let mut cluster = Cluster::new(config, 49);
        cluster.settle();
        let scenario = Scenario::new("fuzz-49-min", WorkloadKind::SocialFeed { users: 48 }, 49)
            .phase(Phase::new("load", 2311).mix(OpMix::idle().put(3)).sessions(1).depth(1).ops(1))
            .phase(
                Phase::new("serve-0", 941)
                    .mix(OpMix::idle().put(1).get(3).delete(1))
                    .sessions(1)
                    .depth(6)
                    .ops(19),
            )
            .fault(1888, Fault::WipeSoftLayer)
            .audited();
        cluster.run_scenario(&scenario)
    };
    let report = run();
    let audit = report.audit.as_ref().expect("scenario is audited");
    assert!(
        audit.violations.iter().all(|v| v.kind() != ViolationKind::Divergence),
        "version-reuse divergence is back: {audit}"
    );
    assert_eq!(audit.safety_count(), 0, "soft wipe must not break safety: {audit}");
    assert_eq!(report, run(), "frozen scenarios replay byte-identically");
}

/// dd-fuzz soak campaign, seed 10432, shrunk 320 → 142: a soft-layer
/// wipe mid-traffic with *no* rebuild (the shrinker dropped the
/// generator's paired `RebuildSoftLayer` clause — only the verdict is
/// preserved, not the schedule's shape). Losing the soft layer forfeits
/// the session guarantees until a rebuild lands: the version authority
/// and per-session floors die with it, so reads in the wipe window
/// violate read-your-writes. This is the documented limitation that
/// keeps `wipe_soft` at weight zero in the stock fuzz profiles; the
/// audit's session checkers are not epoch-aware, so the violation is
/// *expected* here. Frozen so the classification is pinned: if session
/// checkers ever learn about wipe epochs (or wipes stop forfeiting
/// sessions), this test fails and the profiles can re-enable the fault.
#[test]
fn seed_10432_soft_wipe_window_forfeits_read_your_writes() {
    let run = || {
        let config =
            ClusterConfig::small().persist_n(4).replication(3).placement(Placement::TagCollocation);
        let mut cluster = Cluster::new(config, 10432);
        cluster.settle();
        let scenario = Scenario::new(
            "fuzz-10432-min",
            WorkloadKind::ZipfKeys { keys: 134, exponent: 1.13 },
            10432,
        )
        .phase(
            Phase::new("load", 1658)
                .mix(OpMix::idle().put(3).multi_put(1).batch(2))
                .sessions(3)
                .depth(3)
                .ops(7),
        )
        .phase(
            Phase::new("serve-0", 4140)
                .mix(OpMix::idle().put(1).get(1).delete(1).scan(1).multi_get(1))
                .sessions(3)
                .depth(9)
                .ops(6)
                .workload(WorkloadKind::ZipfKeys { keys: 84, exponent: 1.19 }),
        )
        .phase(
            Phase::new("serve-1", 1897)
                .mix(OpMix::idle().put(1).get(1))
                .sessions(2)
                .depth(4)
                .ops(120),
        )
        .fault(6387, Fault::WipeSoftLayer)
        .env(5496, EnvChange::Latency(LatencyModel::Uniform { min: 8, max: 28 }))
        .audited();
        cluster.run_scenario(&scenario)
    };
    let report = run();
    let audit = report.audit.as_ref().expect("scenario is audited");
    assert!(
        audit.violations.iter().any(|v| v.kind() == ViolationKind::ReadYourWrites),
        "the wipe-window session hole this seed witnesses disappeared: {audit}"
    );
    assert!(
        audit.violations.iter().all(|v| v.kind() != ViolationKind::Divergence),
        "the persist layer must still converge under a soft wipe: {audit}"
    );
    assert_eq!(report, run(), "frozen scenarios replay byte-identically");
}
