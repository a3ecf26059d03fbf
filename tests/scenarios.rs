//! Scenario-plane integration tests: determinism of whole declarative
//! runs, availability under partition + heal, and the error accounting
//! of phases that end with operations still in flight.

use dd_core::cluster::DropletNode;
use dd_core::scenario::library;
use dd_core::{
    Cluster, ClusterConfig, EnvChange, Fault, OpMix, Phase, Placement, Scenario, Tier, WorkloadKind,
};
use dd_sim::churn::ChurnModel;
use dd_sim::LatencyModel;

fn settled(config: ClusterConfig, seed: u64) -> Cluster {
    let mut c = Cluster::new(config, seed);
    c.settle();
    c
}

/// A deliberately hostile scenario touching every timeline: mixed-op
/// phases, a churn burst, a flap, a loss spike, a latency shift and a
/// partition/heal pair — so the determinism check covers drop and
/// partition decisions routed through `NetConfig::route`.
fn hostile(seed: u64) -> Scenario {
    let model = ChurnModel::default().failure_rate(0.06).mean_downtime(2_000).permanent_prob(0.1);
    Scenario::new("hostile", WorkloadKind::SocialFeed { users: 5 }, seed)
        .phase(
            Phase::new("load", 4_000)
                .mix(OpMix::idle().put(2).multi_put(1).batch(3))
                .sessions(3)
                .depth(4)
                .ops(120),
        )
        .phase(
            Phase::new("serve", 8_000)
                .mix(OpMix::idle().put(1).get(4).delete(1).multi_get(1).scan(1))
                .sessions(4)
                .depth(6)
                .ops(240),
        )
        .phase(Phase::new("repair", 6_000))
        .phase(Phase::new("readback", 4_000).mix(OpMix::gets()).sessions(2).depth(4).ops(80))
        .fault(4_000, Fault::ChurnBurst { tier: Tier::Persist, model, span: 8_000 })
        .fault(6_000, Fault::Flap { tier: Tier::Persist, count: 3, down_for: 1_500 })
        .env(4_500, EnvChange::DropProb(0.05))
        .env(5_500, EnvChange::Latency(LatencyModel::Uniform { min: 2, max: 9 }))
        .env(7_000, EnvChange::PartitionPersist { fraction: 0.25 })
        .env(10_000, EnvChange::Heal)
        .env(11_000, EnvChange::DropProb(0.0))
}

#[test]
fn same_scenario_same_seed_replays_byte_identically() {
    // The determinism regression: the full report — availability,
    // staleness, error taxonomy, latency quantiles, message counts —
    // must be a pure function of (cluster seed, scenario), including
    // every drop/partition decision the network model makes.
    let run = || {
        let mut c = settled(ClusterConfig::small().persist_n(24), 42);
        c.run_scenario(&hostile(9))
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "replay diverged");
    assert_eq!(format!("{first:?}"), format!("{second:?}"), "debug rendering diverged");
    // And the run is not degenerate: traffic flowed and something failed
    // or at least crossed the wire under the hostile timeline.
    assert!(first.issued() >= 300, "hostile scenario issued {}", first.issued());
    assert!(first.msgs > 0);
    // A different seed is a different trajectory.
    let mut other = settled(ClusterConfig::small().persist_n(24), 42);
    assert_ne!(other.run_scenario(&hostile(10)), first);
}

#[test]
fn partition_dips_availability_and_heal_plus_repair_restore_it() {
    // Cache small enough that reads must touch the persistent layer, so
    // partitioning half of it away is felt. Reads of fully darkened key
    // ranges park at the coordinator and the heal re-issues their
    // fetches: a heal inside the client's patience now means *zero*
    // timeouts (the old protocol fired each fetch once and let the op
    // die). A control run whose partition never heals shows the outage
    // was real.
    let dark_half = |heal: bool| {
        let mut config = ClusterConfig::small().persist_n(24);
        config.cache_capacity = 1;
        let mut c = settled(config, 5);
        let mut scenario = Scenario::new("dark-half", WorkloadKind::Uniform, 11)
            .phase(Phase::new("load", 4_000).mix(OpMix::puts()).sessions(2).depth(4).ops(60))
            .phase(Phase::new("dark", 6_000).mix(OpMix::gets()).sessions(2).depth(4).ops(60))
            .phase(Phase::new("repair", 8_000))
            .phase(Phase::new("readback", 6_000).mix(OpMix::gets()).sessions(2).depth(4).ops(60))
            .env(4_000, EnvChange::PartitionPersist { fraction: 0.5 });
        if heal {
            scenario = scenario.env(10_000, EnvChange::Heal);
        }
        c.run_scenario(&scenario)
    };
    let report = dark_half(true);
    let dark = &report.phases[1];
    let readback = &report.phases[3];
    assert_eq!(dark.errors.timeouts, 0, "healed-in-time reads all complete: {dark:?}");
    assert_eq!(dark.availability(), 1.0);
    assert_eq!(readback.availability(), 1.0, "healed cluster serves everything");
    assert_eq!(readback.reads_found, 60, "no write was lost to the partition");
    // Control: with the partition left in place, those same parked reads
    // exhaust the client's patience — the dip the heal rescued us from.
    let control = dark_half(false);
    assert!(
        control.errors().timeouts > 0,
        "unhealed partition must cost timeouts, got {:?}",
        control.errors()
    );
    assert!(control.availability() < 1.0);
}

#[test]
fn tag_placement_partition_heal_serves_every_op() {
    // Regression for the E15 tag-placement partition-heal cell: two
    // single-key gets whose r slot-owners were all dark used to time out
    // (availability 0.9977) because a fetch was fired exactly once. The
    // failure-detector's PeerUp notice now re-issues parked fetches, so
    // the heal completes them within the client's patience.
    let config =
        ClusterConfig::small().persist_n(36).replication(3).placement(Placement::TagCollocation);
    let mut c = settled(config, 2026);
    let report = c.run_scenario(&library::partition_heal(2026));
    assert_eq!(report.errors().timeouts, 0, "no op times out across partition + heal");
    assert_eq!(report.availability(), 1.0, "every issued op completes: {:?}", report.errors());
}

#[test]
fn a_phase_ending_with_unharvested_pendings_still_accounts_for_them() {
    // Kill the whole soft tier shortly after the phase starts: ops in
    // flight at the crash can never complete (timeouts), later
    // submissions find no live entry node. The phase is far shorter than
    // OP_TIMEOUT, so none of those failures resolve inside it — the
    // scenario's final drain must still attribute every one of them to
    // the issuing phase's error taxonomy. The network is slow (40-tick
    // hops, which also exercises the NetConfig-derived settle horizon)
    // so several operations genuinely straddle the crash.
    let mut c = Cluster::new(ClusterConfig::small(), 6);
    c.sim.net = dd_sim::NetConfig::new().latency(LatencyModel::Constant(40));
    assert_eq!(c.settle_horizon(), 1_000 + 50 * 40, "horizon follows the slow network");
    c.settle();
    let scenario = Scenario::new("doomed", WorkloadKind::Uniform, 13)
        .phase(Phase::new("doomed", 2_000).mix(OpMix::puts()).sessions(2).depth(2).ops(30))
        .fault(300, Fault::Crash { tier: Tier::Soft, count: 4 });
    let report = c.run_scenario(&scenario);
    let phase = &report.phases[0];
    assert_eq!(phase.issued, 30, "issuance continues even against a dead tier");
    assert_eq!(
        phase.ok + phase.errors.total(),
        phase.issued,
        "every issued op resolves into the report: {phase:?}"
    );
    assert!(phase.ok > 0, "ops before the crash succeed");
    assert!(phase.errors.timeouts > 0, "in-flight ops at the crash time out");
    assert!(phase.errors.no_entry > 0, "post-crash submissions report NoLiveEntry");
    assert!(report.ticks > scenario.duration(), "the final drain ran past the last phase");
}

#[test]
fn library_drills_keep_the_dataset_available() {
    // The four stock drills, one placement, small cluster: every drill
    // ends with a read-back phase that still serves the dataset.
    for scenario in [
        library::calm(3),
        library::churn_storm(3),
        library::partition_heal(3),
        library::cascading_crash(3),
    ] {
        let mut c = settled(ClusterConfig::small().persist_n(24), 8);
        let report = c.run_scenario(&scenario);
        let readback = report.phases.last().expect("drills end with read-back");
        assert!(
            readback.availability() >= 0.99,
            "{}: read-back availability {:.4}",
            report.name,
            readback.availability()
        );
        assert!(readback.reads_found > 0, "{}: read-back found data", report.name);
        assert_eq!(report.errors().partials, 0, "{}: no partial batches", report.name);
        // Harvesting sessions never leave enough behind for the
        // completion cap to fire.
        let retired: u64 = c
            .soft_ids()
            .iter()
            .filter_map(|&id| c.sim.node(id).and_then(DropletNode::as_soft))
            .map(|soft| soft.completions_retired())
            .sum();
        assert_eq!(retired, 0, "{}: retention cap fired under harvesting sessions", report.name);
    }
}
