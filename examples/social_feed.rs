//! Social-feed workload: correlated multi-tuple operations end to end
//! (§III-B-1).
//!
//! Runs the same `multi_put`/`multi_get` feed workload against two live
//! clusters — one with tag-collocation sieves, one with uniform (random)
//! placement — and reads the per-operation accounting back from the
//! simulator's metrics. With tag sieves, every post of a feed lands on
//! the same `r` nodes and a `multi_get` is routed to exactly those
//! owners; with random placement the coordinator must fan out to the
//! whole persistent layer for the same answer.
//!
//! ```sh
//! cargo run --release --example social_feed
//! ```

use dd_core::{Cluster, ClusterConfig, OpMix, Phase, Placement, Scenario, WorkloadKind};

const FEEDS: u64 = 8;
const BATCHES: u64 = 12;
const BATCH: usize = 6;
const MGETS: u64 = 16;
const REPLICATION: u32 = 3;

struct RunStats {
    tuples_read: u64,
    contacts_mean: f64,
    contacts_max: f64,
    msgs: u64,
}

/// One declarative scenario: write the feed workload through `multi_put`
/// batches, settle, read feeds back through `multi_get` — the same
/// scenario (and seed) for both placements, so only routing differs.
fn run(config: ClusterConfig, seed: u64) -> RunStats {
    let mut cluster = Cluster::new(config, seed);
    cluster.settle();
    let scenario = Scenario::new("social-feed", WorkloadKind::SocialFeed { users: FEEDS }, 7)
        .phase(
            Phase::new("mput", 6_000)
                .mix(OpMix::multi_puts(BATCH))
                .sessions(1)
                .depth(1)
                .ops(BATCHES),
        )
        .phase(Phase::new("settle", 5_000))
        .phase(Phase::new("mget", 6_000).mix(OpMix::multi_gets()).sessions(1).depth(1).ops(MGETS));
    let report = cluster.run_scenario(&scenario);
    assert_eq!(report.availability(), 1.0, "every multi-op completes");
    let mget = &report.phases[2];
    RunStats {
        tuples_read: mget.tuples_read,
        contacts_mean: mget.contacts_mean,
        contacts_max: mget.contacts_max,
        msgs: cluster.sim.metrics().counter("multi_get.msgs"),
    }
}

fn main() {
    let config = ClusterConfig::small().persist_n(32).replication(REPLICATION);
    let tagged = run(config.clone().placement(Placement::TagCollocation), 2026);
    let uniform = run(config.clone().placement(Placement::Uniform), 2026);

    println!(
        "{BATCHES} multi_put batches of {BATCH} posts across {FEEDS} feeds, \
         {MGETS} multi_get feed reads, {} persist nodes (r = {REPLICATION})",
        config.persist_n
    );
    println!("multi_get accounting (persist nodes contacted per feed read):");
    println!(
        "  tag sieves (collocated):  mean {:>5.1}  max {:>5.1}  msgs {:>4}  tuples {}",
        tagged.contacts_mean, tagged.contacts_max, tagged.msgs, tagged.tuples_read
    );
    println!(
        "  uniform (random):         mean {:>5.1}  max {:>5.1}  msgs {:>4}  tuples {}",
        uniform.contacts_mean, uniform.contacts_max, uniform.msgs, uniform.tuples_read
    );

    assert!(tagged.contacts_max <= f64::from(REPLICATION), "tag routing contacts at most r nodes");
    assert!(uniform.contacts_mean > tagged.contacts_mean, "random placement must fan out further");
    assert!(tagged.tuples_read > 0, "feed reads return posts");
    // Every tuple has a home under either placement, so both read back the
    // same posts from the very same scenario.
    assert_eq!(uniform.tuples_read, tagged.tuples_read, "placement moves posts, never loses them");

    println!(
        "\nreading one feed touches {:.0} nodes with tag sieves vs {:.0} without — \
         the paper's §III-B-1 collocation win, measured on the wire.",
        tagged.contacts_mean, uniform.contacts_mean
    );
}
