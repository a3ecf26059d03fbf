//! Whole-system integration tests: the DataDroplets cluster under faults,
//! loss and churn, checked against an in-memory oracle — driven through
//! the typed, pipelined client sessions and, for whole experiments, the
//! declarative scenario plane.

use dd_core::cluster::DropletNode;
use dd_core::{
    Cluster, ClusterConfig, Fault, Key, OpError, OpMix, Phase, Placement, Planes, Scenario,
    StoredTuple, Tier, TupleSpec, Workload, WorkloadKind,
};
use dd_dht::Version;
use dd_estimation::DistSketch;
use dd_sim::churn::ChurnModel;
use dd_sim::NodeId;
use std::collections::HashMap;
use std::sync::Arc;

fn settled(config: ClusterConfig, seed: u64) -> Cluster {
    let mut c = Cluster::new(config, seed);
    c.settle();
    c
}

#[test]
fn hundred_writes_all_readable() {
    let mut c = settled(ClusterConfig::small(), 1);
    let mut client = c.client();
    let mut oracle = HashMap::new();
    let mut w = Workload::new(WorkloadKind::Uniform, 9);
    for op in w.take_puts(100) {
        let p = client.put(&mut c, op.key.clone(), op.value.clone(), op.attr, op.tag.as_deref());
        assert!(client.recv(&mut c, p).is_ok(), "write {} failed", op.key);
        oracle.insert(op.key, op.value);
    }
    c.run_for(5_000);
    for (key, value) in &oracle {
        let r = client.get(&mut c, key.clone());
        let got = client.recv(&mut c, r).expect("read completes").expect("key present");
        assert_eq!(&got.value.to_vec(), value, "key {key}");
    }
}

#[test]
fn reads_and_writes_survive_message_loss() {
    let mut config = ClusterConfig::small();
    config.persist_n = 24;
    let mut c = Cluster::new(config, 2);
    c.sim.net.drop_prob = 0.05;
    c.settle();
    let mut client = c.client();
    let mut ok = 0;
    for i in 0..30 {
        let p = client.put(&mut c, format!("lossy:{i}"), vec![i as u8], None, None);
        if client.recv(&mut c, p).is_ok() {
            ok += 1;
        }
    }
    // The client injection and the coordinator-forward hop are lossy too,
    // so a few percent of writes never enter the system at all.
    assert!(ok >= 25, "most writes complete under 5% loss, got {ok}");
    c.run_for(10_000);
    // Individual fetches can be dropped too; clients retry as usual.
    let mut found = 0;
    for i in 0..30 {
        for _attempt in 0..3 {
            let r = client.get(&mut c, format!("lossy:{i}"));
            if matches!(client.recv(&mut c, r), Ok(Some(_))) {
                found += 1;
                break;
            }
        }
    }
    assert!(found >= ok, "every completed write is readable under loss with retries: {found}/{ok}");
}

#[test]
fn availability_maintained_under_scheduled_churn() {
    // The whole experiment as one declarative scenario: load a dataset,
    // let transient churn rage across the persistent layer only (the
    // paper assumes a moderately sized stable soft tier), repair, read
    // everything back.
    let mut c = settled(ClusterConfig::small().persist_n(30).replication(3), 3);
    let model = ChurnModel::default()
        .failure_rate(0.05) // 5% per 1000-tick round
        .mean_downtime(3_000)
        .permanent_prob(0.0);
    let scenario = Scenario::new("survive-churn", WorkloadKind::Uniform, 7)
        .phase(Phase::new("load", 5_000).mix(OpMix::puts()).sessions(1).depth(2).ops(40))
        .phase(Phase::new("storm", 40_000))
        .phase(Phase::new("repair", 10_000))
        .phase(Phase::new("read", 8_000).mix(OpMix::gets()).sessions(1).depth(2).ops(40))
        .fault(5_000, Fault::ChurnBurst { tier: Tier::Persist, model, span: 40_000 });
    let report = c.run_scenario(&scenario);
    assert_eq!(report.phases[0].ok, 40, "every write acknowledged");
    let read = &report.phases[3];
    assert_eq!(read.reads_found, 40, "all keys readable after churn + repair");
    assert_eq!(read.availability(), 1.0);
    assert_eq!(report.errors().total(), 0);
}

#[test]
fn scan_matches_oracle_filter() {
    let mut c = settled(ClusterConfig::small(), 4);
    let mut client = c.client();
    let mut w = Workload::new(WorkloadKind::NormalAttr { mean: 50.0, std_dev: 10.0 }, 5);
    let mut oracle = Vec::new();
    for op in w.take_puts(60) {
        let p = client.put(&mut c, op.key.clone(), op.value.clone(), op.attr, None);
        client.recv(&mut c, p).unwrap();
        oracle.push((op.key, op.attr.unwrap()));
    }
    c.run_for(5_000);
    let (lo, hi) = (45.0, 55.0);
    let s = client.scan(&mut c, lo, hi);
    let items = client.recv(&mut c, s).expect("scan completes");
    let mut got: Vec<String> = items.iter().map(|t| t.key.as_str().to_owned()).collect();
    got.sort();
    let mut want: Vec<String> =
        oracle.iter().filter(|(_, a)| (lo..=hi).contains(a)).map(|(k, _)| k.clone()).collect();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn aggregate_matches_oracle_extremes() {
    let mut c = settled(ClusterConfig::small(), 5);
    let mut client = c.client();
    let attrs: Vec<f64> = (0..50).map(|i| f64::from(i) * 2.0 + 1.0).collect();
    for (i, &a) in attrs.iter().enumerate() {
        let p = client.put(&mut c, format!("agg:{i}"), vec![], Some(a), None);
        client.recv(&mut c, p).unwrap();
    }
    c.run_for(5_000);
    let a = client.aggregate(&mut c);
    let agg = client.recv(&mut c, a).expect("aggregate completes");
    assert_eq!(agg.min, 1.0);
    assert_eq!(agg.max, 99.0);
    let est = agg.distinct_estimate();
    assert!((est - 50.0).abs() < 10.0, "distinct estimate {est}");
    let median = agg.quantile(0.5).unwrap();
    assert!((median - 50.0).abs() < 10.0, "median estimate {median}");
}

/// Once replicas hold more tuples than the sketch keeps, the merged
/// sketch must still be the exact bottom-k of everything the persist
/// layer stores, whatever the placement or the population size, so the
/// distinct count holds.
#[test]
fn aggregate_sketch_is_the_global_bottom_k_under_any_placement() {
    let n = 4_000;
    let aggregate = |config: ClusterConfig| {
        let mut c = settled(config, 12);
        let mut client = c.client();
        for batch in 0..n / 100 {
            let items = (batch * 100..(batch + 1) * 100)
                .map(|i| TupleSpec::new(format!("kmv:{i}"), vec![], Some(f64::from(i)), None));
            let w = client.multi_put(&mut c, items);
            client.recv(&mut c, w).expect("batch ordered");
        }
        c.run_for(5_000);
        let a = client.aggregate(&mut c);
        let agg = client.recv(&mut c, a).expect("aggregate completes");
        let mut stored = DistSketch::new(agg.sketch().capacity());
        for &id in c.persist_ids() {
            let node = c.sim.node(id).and_then(DropletNode::as_persist).expect("persist node");
            for t in node.store.values().filter(|t| !t.deleted) {
                stored.observe(t.key_hash, t.attr.expect("every tuple has an attribute"));
            }
        }
        assert_eq!(stored.len(), stored.capacity(), "the replicas hold more than k tuples");
        assert_eq!(agg.sketch(), &stored, "the merge is the bottom-k of the stored tuples");
        let est = agg.distinct_estimate();
        let err = (est - f64::from(n)).abs() / f64::from(n);
        assert!(err < 0.15, "distinct estimate {est} for {n} tuples");
        agg
    };
    let range8 = aggregate(ClusterConfig::small().persist_n(8));
    let range32 = aggregate(ClusterConfig::small().persist_n(32));
    assert_eq!(range8.sketch(), range32.sketch(), "range placement, 8 vs 32 nodes");
    // Every tuple has an owner under uniform placement too, so it stores
    // the same set.
    let uniform8 = aggregate(ClusterConfig::small().persist_n(8).placement(Placement::Uniform));
    assert_eq!(uniform8.sketch(), range8.sketch(), "uniform vs range placement, 8 nodes");
}

/// Two different writes under one version — possible only once a soft
/// wipe has lost the version authority — settle to one winner on every
/// replica: the higher content hash, since neither is a tombstone.
#[test]
fn a_version_tie_after_a_soft_wipe_converges_on_one_winner() {
    let mut c = settled(ClusterConfig::small(), 31);
    let mut client = c.client();
    let mut put = |c: &mut Cluster, value: &str| {
        let p = client.put(c, "tied", value.as_bytes().to_vec(), None, None);
        client.recv(c, p).expect("write ordered").version
    };
    assert_eq!(put(&mut c, "first"), Version(1));
    c.run_for(2_000);
    c.wipe_soft_layer();
    assert_eq!(put(&mut c, "second"), Version(1), "the wiped authority re-issues version 1");
    c.settle();
    c.repair_sweep();
    c.settle();
    let [a, b] = ["first", "second"]
        .map(|v| StoredTuple::new("tied".into(), Version(1), v.as_bytes().to_vec(), None, None));
    let winner = if a.content_hash() > b.content_hash() { a } else { b };
    let held: Vec<_> = c
        .persist_ids()
        .iter()
        .filter_map(|&id| c.sim.node(id).and_then(DropletNode::as_persist))
        .filter_map(|node| node.store.get(&winner.key_hash))
        .collect();
    assert!(held.len() >= 3, "{} replicas hold the key", held.len());
    assert!(held.iter().all(|t| t.value == winner.value), "every replica holds the winner");
}

/// Every persist store's entry for `key`, with the node holding it.
fn copies<'a>(c: &'a Cluster, key: &str) -> Vec<(NodeId, &'a Arc<StoredTuple>)> {
    let kh = Key::from(key).hash();
    c.persist_ids()
        .iter()
        .filter_map(|&id| Some((id, c.sim.node(id)?.as_persist()?.store.get(&kh)?)))
        .collect()
}

#[test]
fn replicas_share_one_allocation_per_stored_version() {
    for placement in [Placement::RangePartition, Placement::TagCollocation] {
        let mut c = settled(ClusterConfig::small().placement(placement), 21);
        let mut s = c.client();
        let key = |i: usize| format!("share:{i}");
        let tag = |i: usize| format!("feed:{}", i % 4);
        for i in 0..30 {
            let p = s.put(&mut c, key(i), vec![i as u8], Some(i as f64), Some(&tag(i)));
            s.recv(&mut c, p).expect("put ordered");
        }
        for i in 0..10 {
            let p = s.put(&mut c, key(i), vec![0xFF, i as u8], Some(i as f64), Some(&tag(i)));
            s.recv(&mut c, p).expect("overwrite ordered");
        }
        for i in 20..30 {
            let p = s.delete(&mut c, key(i));
            s.recv(&mut c, p).expect("delete ordered");
        }
        c.settle();
        for i in 0..30 {
            let held = copies(&c, &key(i));
            assert!(held.len() >= 3, "{placement:?} {}: {} holders", key(i), held.len());
            let first = held[0].1;
            let want = match i {
                0..10 => Version(2),
                10..20 => Version(1),
                _ => Version(2),
            };
            assert_eq!((first.version, first.deleted), (want, i >= 20), "{placement:?} {}", key(i));
            for (id, t) in &held {
                assert!(
                    Arc::ptr_eq(t, first),
                    "{placement:?} {}: {id:?} holds its own copy",
                    key(i)
                );
            }
            // Nothing but the stores holds it: the coordinator's re-delivery
            // log let go once every owner acked.
            assert_eq!(Arc::strong_count(first), held.len(), "{placement:?} {}", key(i));
        }
    }
}

#[test]
fn a_repaired_copy_is_shared_and_a_superseded_version_is_freed() {
    let mut c = settled(ClusterConfig::small(), 22);
    let mut s = c.client();
    let p = s.put(&mut c, "k", b"v1".to_vec(), None, None);
    s.recv(&mut c, p).expect("v1 ordered");
    c.settle();
    let held = copies(&c, "k");
    let (victim, v1) = (held[0].0, Arc::downgrade(held[0].1));
    c.sim.kill(victim);
    c.run_for(1);
    let p = s.put(&mut c, "k", b"v2".to_vec(), None, None);
    let v2 = s.recv(&mut c, p).expect("v2 ordered").version;
    c.run_for(2_000);
    // The wipe drops the coordinators' re-delivery logs, so only repair
    // can bring v2 to the victim.
    c.wipe_soft_layer();
    assert!(v1.upgrade().is_some(), "the dead owner still holds v1");
    c.sim.revive(victim);
    // The run's closing sweep tells every peer the victim is back, and
    // each peer's reply to that notice is a repair round with it.
    c.run_for(1);
    c.settle();
    let held = copies(&c, "k");
    let revived = held.iter().find(|&&(id, _)| id == victim).expect("victim holds k").1;
    let live = held.iter().find(|&&(id, _)| id != victim).expect("a live owner holds k").1;
    assert_eq!(revived.version, v2, "repair brought the overwrite");
    assert!(Arc::ptr_eq(revived, live), "the repaired copy is the live owner's");
    assert!(v1.upgrade().is_none(), "the superseded version is freed everywhere");
}

#[test]
fn soft_layer_rebuild_preserves_version_stream() {
    let mut c = settled(ClusterConfig::small(), 6);
    let mut client = c.client();
    // Three versions of one key.
    for v in 1..=3u8 {
        let p = client.put(&mut c, "versioned", vec![v], None, None);
        client.recv(&mut c, p).unwrap();
        c.run_for(1_000);
    }
    c.wipe_soft_layer();
    c.rebuild_soft_layer();
    // A further write must get version 4, not 1.
    let p = client.put(&mut c, "versioned", vec![4], None, None);
    let put = client.recv(&mut c, p).unwrap();
    assert_eq!(put.version.0, 4, "version stream continues after rebuild");
    c.run_for(3_000);
    let r = client.get(&mut c, "versioned");
    let got = client.recv(&mut c, r).unwrap().unwrap();
    assert_eq!(got.value.to_vec(), vec![4]);
}

/// A soft wipe drops every in-flight op, trace spans included: a traced
/// read waiting on a persist fetch leaves its coordinator and wait spans
/// open, the replica's late reply finds no pending op to close them, and
/// both close unanswered at the trace horizon.
#[test]
fn a_soft_wipe_leaves_a_traced_reads_spans_open() {
    // A one-entry cache: a later write at the same coordinator evicts an
    // earlier one, so a read of it goes to the persist layer.
    let mut config = ClusterConfig::small();
    config.cache_capacity = 1;
    let mut c = settled(config, 26);
    let mut client = c.client();
    for i in 0..8 {
        let w = client.put(&mut c, format!("k{i}"), vec![1], None, None);
        client.recv(&mut c, w).expect("write ordered");
    }
    c.run_for(500);
    c.observe(Planes { trace: true, ..Planes::default() });
    let misses = c.sim.metrics().counter("soft.cache_misses");
    let r = client.get(&mut c, "k0");
    // Step until the coordinator missed its cache and asked a replica; the
    // reply needs at least two more network hops.
    let asked = (0..100).any(|_| {
        c.pump(1);
        c.sim.metrics().counter("soft.cache_misses") > misses
    });
    assert!(asked, "the read missed the cache");
    c.wipe_soft_layer();
    c.pump(100);
    let set = c.stop_observing().trace.expect("trace plane on");
    let trace = set.get(r.req()).expect("the read was traced");
    // The replicas served the fetch (and replied) after the wipe; the
    // trace's last close is the last serve, so that is its horizon.
    let labelled = |label| trace.spans.iter().filter(move |s| s.label == label);
    let horizon = labelled("persist.serve").map(|s| s.end).max().expect("a replica served");
    assert_eq!(trace.spans.iter().map(|s| s.end).max(), Some(horizon));
    assert!(labelled("soft.fetch_wait").count() > 0, "no fetch wait: {trace:?}");
    for s in labelled("soft.get").chain(labelled("soft.fetch_wait")) {
        assert!(!s.answered && s.end == horizon, "closed by the late reply: {s:?}");
    }
}

/// The `soft.fd_live` gauge counts the watched peers a soft node trusts,
/// itself included: s + n while every node is up, one less while a
/// persist node is down, the optimistic s + n straight after a wipe, and
/// one less again once the next failure-detector sweep re-notices.
#[test]
fn the_fd_live_gauge_tracks_each_soft_nodes_trust() {
    let mut c = settled(ClusterConfig::small(), 8);
    let all = (c.soft_ids().len() + c.persist_ids().len()) as f64;
    let victim = c.persist_ids()[3];
    c.observe(Planes { telemetry: true, ..Planes::default() });
    // Two sample periods per window: the last sample of each falls after
    // any notice the window's opening sweep injected has landed. A kill or
    // revive lands as an event, so a one-tick run (whose closing sweep
    // notices it) precedes its window.
    let ticks = 2 * dd_obs::DEFAULT_SAMPLE_PERIOD;
    let mut windows: Vec<(u64, u64, f64)> = Vec::new();
    let mut window = |c: &mut Cluster, sweep: bool, want: f64| {
        let from = c.sim.now().0;
        if sweep {
            c.run_for(ticks);
        } else {
            c.sim.run_for(dd_sim::Duration(ticks));
        }
        windows.push((from, c.sim.now().0, want));
    };
    window(&mut c, true, all);
    c.sim.kill(victim);
    c.run_for(1);
    window(&mut c, true, all - 1.0);
    c.sim.revive(victim);
    c.run_for(1);
    window(&mut c, true, all);
    c.sim.kill(victim);
    c.run_for(1);
    window(&mut c, true, all - 1.0);
    c.wipe_soft_layer();
    window(&mut c, false, all);
    window(&mut c, true, all - 1.0);
    let telemetry = c.stop_observing().telemetry.expect("telemetry plane on");
    for &id in c.soft_ids() {
        let series = telemetry.get("soft.fd_live", dd_obs::Label::Node(id.0)).expect("sampled");
        for &(from, to, want) in &windows {
            let last = series.iter().filter(|&(t, _)| from < t && t <= to).last();
            assert_eq!(last.map(|(_, v)| v), Some(want), "node {id:?} in ticks {from}..={to}");
        }
    }
}

#[test]
fn deterministic_replay_of_a_full_scenario() {
    // Message *counts* are structural under digest-first repair and
    // direct sieve-routed delivery, so the fingerprint also folds in op
    // completion times — those ride the seeded latency samples.
    let run = |seed: u64| {
        let mut c = settled(ClusterConfig::small(), seed);
        let mut client = c.client();
        let mut completion_ticks = 0u64;
        for i in 0..20 {
            let p = client.put(&mut c, format!("d:{i}"), vec![i as u8], Some(f64::from(i)), None);
            while client.poll(&mut c, &p).is_none() {
                c.pump(1);
            }
            completion_ticks += c.sim.now().0;
        }
        c.sim.kill(c.persist_ids()[3]);
        c.run_for(8_000);
        (
            c.sim.metrics().counter("net.sent"),
            c.sim.metrics().counter("persist.stored"),
            c.replica_count(&Key::from("d:7")),
            completion_ticks,
        )
    };
    assert_eq!(run(42), run(42), "same seed, same trajectory");
    assert_ne!(run(42), run(43), "different seed, different trajectory");
}

#[test]
fn tagged_tuples_collocate_under_tag_sieves() {
    // Verify through the public sieve-spec API that a tag workload lands
    // together (protocol-level E-collocation check at cluster scale is in
    // the benches).
    use dd_core::SieveSpec;
    use dd_sieve::ItemMeta;
    let n = 32u64;
    let specs: Vec<SieveSpec> =
        (0..n).map(|s| SieveSpec::Tag { slot: s, slots: n, r: 3 }).collect();
    let mut w = Workload::new(WorkloadKind::SocialFeed { users: 8 }, 11);
    let mut per_feed: HashMap<String, Vec<usize>> = HashMap::new();
    for op in w.take_puts(200) {
        let item =
            ItemMeta::from_key(op.key.as_bytes()).with_tag(op.tag.as_ref().unwrap().as_bytes());
        let owners: Vec<usize> =
            specs.iter().enumerate().filter(|(_, s)| s.accepts(&item)).map(|(i, _)| i).collect();
        let e = per_feed.entry(op.tag.unwrap()).or_default();
        if e.is_empty() {
            *e = owners;
        } else {
            assert_eq!(*e, owners, "all posts of a feed share owners");
        }
    }
    assert!(per_feed.len() <= 8);
}

#[test]
fn multi_op_feed_workload_matches_oracle_with_r_node_reads() {
    // The full multi-tuple plane at cluster scale: social-feed batches in
    // through `multi_put`, feeds out through tag-routed `multi_get`,
    // checked against an in-memory oracle — and the per-op accounting
    // proves each feed read contacted at most replication + soft_n nodes.
    let config =
        ClusterConfig::small().persist_n(40).replication(3).placement(Placement::TagCollocation);
    let mut c = settled(config.clone(), 17);
    let mut client = c.client();
    let mut w = Workload::new(WorkloadKind::SocialFeed { users: 6 }, 23);
    // The generator is deterministic: a clone replays the same batches,
    // which is the oracle for what the cluster was fed.
    let mut replay = w.clone();
    let mut tags: Vec<String> = Vec::new();
    for _ in 0..15 {
        let m = w.next_multi_put(4);
        if let Some(tag) = m.tag {
            if !tags.contains(&tag) {
                tags.push(tag);
            }
        }
        let p = client.multi_put(&mut c, m.items.into_iter().map(TupleSpec::from));
        assert_eq!(client.recv(&mut c, p).expect("batch orders").items, 4);
    }
    let mut oracle: HashMap<String, Vec<String>> = HashMap::new();
    for _ in 0..15 {
        let m = replay.next_multi_put(4);
        let tag = m.tag.expect("tagged batch");
        for op in m.items {
            oracle.entry(tag.clone()).or_default().push(op.key);
        }
    }
    c.run_for(8_000);
    assert_eq!(tags.len(), oracle.len(), "driver saw every feed");
    for tag in &tags {
        let p = client.multi_get(&mut c, tag);
        let tuples = client.recv(&mut c, p).expect("feed read completes");
        let mut expect = oracle.remove(tag).expect("tag was written");
        let mut got: Vec<String> = tuples.into_iter().map(|t| t.key.as_str().to_owned()).collect();
        expect.sort();
        got.sort();
        assert_eq!(got, expect, "feed {tag} matches the oracle");
    }
    let contacts = c.sim.metrics().summary("multi_get.contacted_nodes");
    let allowance = f64::from(config.replication) + config.soft_n as f64;
    assert!(
        contacts.max <= allowance,
        "every feed read stayed within {allowance} contacts, saw {}",
        contacts.max
    );
}

#[test]
fn pipelined_sessions_outpace_lock_step() {
    // The phase engine at two depths on seed-replayed clusters: deeper
    // pipelines complete more of the same offered mix in the same fixed
    // window. Depth 1 is the old lock-step plane's throughput ceiling.
    let run = |depth: usize| {
        let mut c = settled(ClusterConfig::small(), 27);
        let scenario = Scenario::new("depth-sweep", WorkloadKind::Uniform, 31)
            .phase(Phase::new("puts", 600).mix(OpMix::puts()).sessions(4).depth(depth).quantum(5));
        let report = c.run_scenario(&scenario);
        let phase = &report.phases[0];
        assert_eq!(phase.errors.total(), 0, "no op fails at depth {depth}");
        assert_eq!(phase.ok, phase.issued);
        phase.ok
    };
    let lock_step = run(1);
    let pipelined = run(16);
    assert!(
        pipelined >= 2 * lock_step,
        "depth 16 must clearly beat lock-step: {pipelined} vs {lock_step} ops in the window"
    );
}

#[test]
fn timeout_and_absent_key_are_distinct_outcomes() {
    // The two cases the old Option<Option<_>> plane conflated: a read of
    // a never-written key is Ok(None); an op whose coordinator tier
    // cannot answer is Err(Timeout).
    let mut c = settled(ClusterConfig::small(), 29);
    let mut client = c.client();
    let r = client.get(&mut c, "never-written");
    assert_eq!(client.recv(&mut c, r), Ok(None), "absent key is a successful read");

    // Kill the whole soft tier mid-op: the submitted read can never
    // complete, and new submissions have no entry point.
    let victims = c.soft_ids().to_vec();
    let stuck = client.get(&mut c, "any-key");
    for id in victims {
        c.sim.kill(id);
    }
    c.run_for(10);
    assert_eq!(
        client.recv(&mut c, stuck),
        Err(OpError::Timeout { waiting_on: None }),
        "dead tier = timeout (no live coordinator left to blame a replica)"
    );
    let p = client.put(&mut c, "k", b"v".to_vec(), None, None);
    assert_eq!(client.recv(&mut c, p), Err(OpError::NoLiveEntry));
}

#[test]
fn a_scan_never_returns_a_superseded_version() {
    // One holder of `k` sleeps through its overwrite and, with repair off,
    // wakes still holding v1 beside the other holder's v2. Whichever reply
    // reaches the gather first, the scan must return v2. (A scan may still
    // time out while the gather waits on every persist node.)
    let config = ClusterConfig::small()
        .placement(Placement::RangePartition)
        .persist_n(8)
        .replication(2)
        .no_repair();
    let kh = Key::from("k").hash();
    let held = |c: &Cluster, id| {
        c.sim
            .node(id)
            .and_then(DropletNode::as_persist)
            .and_then(|p| p.store.get(&kh))
            .map(|t| t.version)
    };
    let (mut completed, mut stale_holders) = (0, 0);
    for seed in 0..40 {
        let mut c = settled(config.clone(), seed);
        let mut s = c.client();
        let p = s.put(&mut c, "k", b"v1".to_vec(), Some(50.0), None);
        let v1 = s.recv(&mut c, p).expect("v1 ordered").version;
        c.run_for(2_000);
        let holders: Vec<_> =
            c.persist_ids().iter().copied().filter(|&id| held(&c, id).is_some()).collect();
        assert_eq!(holders.len(), 2, "seed {seed}: r = 2 holders of k");
        c.sim.kill(holders[0]);
        c.run_for(1_000);
        let p = s.put(&mut c, "k", b"v2".to_vec(), Some(50.0), None);
        let v2 = s.recv(&mut c, p).expect("v2 ordered").version;
        assert!(v1 < v2);
        c.run_for(2_000);
        c.sim.revive(holders[0]);
        c.run_for(1_000);
        stale_holders += usize::from(held(&c, holders[0]) == Some(v1));
        let q = s.scan(&mut c, 0.0, 100.0);
        match s.recv(&mut c, q) {
            Ok(items) => {
                completed += 1;
                let got: Vec<Version> =
                    items.iter().filter(|t| t.key == Key::from("k")).map(|t| t.version).collect();
                assert_eq!(got, vec![v2], "seed {seed}: the scan returned a superseded version");
            }
            Err(OpError::Timeout { .. }) => {}
            Err(e) => panic!("seed {seed}: scan failed: {e:?}"),
        }
    }
    assert!(
        completed > 0 && stale_holders > 0,
        "{completed} scans over {stale_holders} stale holders"
    );
}

/// One dead persist node out of 32 (r = 3) leaves every tuple two live
/// owners under `Range` and `Tag`, so scans and aggregates complete whole.
/// Under `Uniform` the dead node may be some key's only owner, so they
/// complete as `PartialResult` — never as a `Timeout`.
#[test]
fn scans_and_aggregates_complete_on_owner_coverage_behind_a_dead_persist_node() {
    for placement in [Placement::RangePartition, Placement::TagCollocation, Placement::Uniform] {
        for seed in 0..20 {
            let mut c = settled(ClusterConfig::small().placement(placement), seed);
            let mut s = c.client();
            for i in 0..50 {
                let tag = format!("feed:{}", i % 5);
                let w = s.put(&mut c, format!("k{i}"), vec![1], Some(f64::from(i)), Some(&tag));
                s.recv(&mut c, w).expect("write ordered");
            }
            c.run_for(1_000);
            let victim = c.persist_ids()[(seed * 7 % 32) as usize];
            c.sim.kill(victim);
            c.run_for(200);
            let (scan, aggregate) = (s.scan(&mut c, 0.0, 50.0), s.aggregate(&mut c));
            let (scan, aggregate) = (s.recv(&mut c, scan), s.recv(&mut c, aggregate));
            let at = format!("seed {seed} under {placement:?}");
            if placement == Placement::Uniform {
                let partial = Some(OpError::PartialResult { got: 31, want: 32 });
                assert_eq!(scan.err(), partial, "{at}");
                assert_eq!(aggregate.err(), partial, "{at}");
            } else {
                assert_eq!(scan.map(|items| items.len()), Ok(50), "{at}");
                assert_eq!(aggregate.map(|a| (a.min, a.max)), Ok((0.0, 49.0)), "{at}");
            }
        }
    }
}
