//! E13 — Multi-tuple operations (paper §III-B-1): with tag-collocation
//! sieves, a tag-scoped `multi_get` is answered by the tag's `r`
//! slot-owners; random (uniform) placement forces the coordinator to fan
//! out across the whole persistent layer for the same tuple set. Prints
//! the per-placement accounting table and emits a machine-readable
//! summary to `BENCH_multi_ops.json` at the workspace root so the perf
//! trajectory accumulates across runs.

use criterion::{criterion_group, criterion_main, Criterion};
use dd_bench::{f, n, table_header, table_row};
use dd_core::{Cluster, ClusterConfig, OpMix, Phase, Placement, Scenario, WorkloadKind};

const FEEDS: u64 = 10;
const BATCHES: u64 = 20;
const BATCH: usize = 5;
const MGETS: u64 = 20;

struct Row {
    placement: &'static str,
    multi_puts: u64,
    multi_gets: u64,
    tuples_read: u64,
    contacts_mean: f64,
    contacts_max: f64,
    msgs_per_get: f64,
}

fn run(placement: &'static str, config: ClusterConfig, seed: u64) -> Row {
    let mut c = Cluster::new(config, seed);
    c.settle();
    // One scenario per placement, same seed: identical batches and
    // identical feed reads, so the tuple sets are comparable and only
    // the routing differs.
    let scenario = Scenario::new("feeds", WorkloadKind::SocialFeed { users: FEEDS }, 5)
        .phase(
            Phase::new("mput", 8_000)
                .mix(OpMix::multi_puts(BATCH))
                .sessions(1)
                .depth(1)
                .ops(BATCHES),
        )
        .phase(Phase::new("settle", 6_000))
        .phase(Phase::new("mget", 8_000).mix(OpMix::multi_gets()).sessions(1).depth(1).ops(MGETS));
    let report = c.run_scenario(&scenario);
    let mget = &report.phases[2];
    let m = c.sim.metrics();
    let gets = m.counter("soft.multi_gets");
    Row {
        placement,
        multi_puts: m.counter("soft.multi_puts"),
        multi_gets: gets,
        tuples_read: mget.tuples_read,
        contacts_mean: mget.contacts_mean,
        contacts_max: mget.contacts_max,
        msgs_per_get: m.counter("multi_get.msgs") as f64 / gets.max(1) as f64,
    }
}

fn rows() -> Vec<Row> {
    let config = ClusterConfig::small().persist_n(40).replication(3);
    vec![
        run("tag", config.clone().placement(Placement::TagCollocation), 9),
        run("uniform", config.clone().placement(Placement::Uniform), 9),
        run("range", config, 9),
    ]
}

/// Writes the summary JSON (hand-rolled: the workspace has no serde) for
/// trend tracking; one object per placement, stable field names.
fn write_summary(rows: &[Row]) {
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"placement\": \"{}\", \"multi_puts\": {}, \"multi_gets\": {}, \
                 \"tuples_read\": {}, \"mean_contacted_nodes\": {:.3}, \
                 \"max_contacted_nodes\": {:.3}, \"msgs_per_multi_get\": {:.3}}}",
                dd_sim::json_escape(r.placement),
                r.multi_puts,
                r.multi_gets,
                r.tuples_read,
                r.contacts_mean,
                r.contacts_max,
                r.msgs_per_get
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"e13_multi_ops\",\n  \"workload\": {{\"feeds\": {FEEDS}, \
         \"batches\": {BATCHES}, \"batch\": {BATCH}}},\n  \"placements\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_multi_ops.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("e13: could not write {path}: {e}");
    } else {
        println!("\nwrote machine-readable summary to BENCH_multi_ops.json");
    }
}

fn experiment() {
    let rows = rows();
    table_header(
        "E13: multi-tuple ops — contacted nodes per tag-scoped read",
        &["placement", "mputs", "mgets", "tuples", "mean_nodes", "max_nodes", "msgs/mget"],
    );
    for r in &rows {
        table_row(&[
            r.placement.to_owned(),
            n(r.multi_puts),
            n(r.multi_gets),
            n(r.tuples_read),
            f(r.contacts_mean),
            f(r.contacts_max),
            f(r.msgs_per_get),
        ]);
    }
    write_summary(&rows);
}

fn bench(c: &mut Criterion) {
    experiment();
    let mut g = c.benchmark_group("e13");
    // The multi-get hot path on a persist node: secondary-index lookup of
    // one tag among many.
    use dd_core::{SieveSpec, StoredTuple};
    let mut node =
        dd_core::persist::PersistNode::new(SieveSpec::Range { index: 0, of: 1, r: 1 }, None);
    for i in 0..10_000u64 {
        let tag = format!("feed:{}", i % 200);
        node.apply(StoredTuple::new(
            format!("post:{i}").into(),
            dd_dht::Version(1),
            b"body".to_vec(),
            Some(i as f64),
            Some(&tag),
        ));
    }
    let th = dd_sim::rng::stable_hash(b"feed:42");
    g.bench_function("by_tag_lookup_10k_store", |b| {
        b.iter(|| node.by_tag(th).len());
    });
    g.bench_function("tag_slot_routing", |b| {
        b.iter(|| {
            (0..64u64).map(|t| dd_sieve::TagSieve::tag_slots(t, 1_024, 3).len()).sum::<usize>()
        });
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
