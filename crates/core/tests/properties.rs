//! Property-based tests for the DataDroplets data model and placement
//! invariants.

use dd_core::{Cluster, ClusterConfig, Key, SieveSpec, StoredTuple};
use dd_dht::Version;
use dd_sieve::ItemMeta;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any population of default (range) sieves covers any key exactly
    /// min(r, n) times — the paper's data-loss safety requirement holds
    /// for every (n, r, key).
    #[test]
    fn default_sieves_cover_every_key(
        n in 1u64..48,
        r in 1u32..6,
        key in "[a-z0-9:/_-]{1,32}",
    ) {
        let specs: Vec<SieveSpec> = (0..n).map(|i| SieveSpec::default_for(i, n, r)).collect();
        let item = ItemMeta::from_key(key.as_bytes());
        let owners = specs.iter().filter(|s| s.accepts(&item)).count() as u64;
        prop_assert_eq!(owners, u64::from(r).min(n));
    }

    /// Rumor ids are injective over (key, version) for realistic keys.
    #[test]
    fn rumor_ids_do_not_collide(
        keys in prop::collection::hash_set("[a-z]{1,12}", 2..20),
        versions in prop::collection::hash_set(1u64..1000, 2..10),
    ) {
        let mut seen = std::collections::HashSet::new();
        for k in &keys {
            for &v in &versions {
                let t = StoredTuple::new(Key::from(k.as_str()), Version(v), b"".to_vec(), None, None);
                prop_assert!(seen.insert(t.rumor_id()), "collision for {}@{}", k, v);
            }
        }
    }

    /// A tombstone always supersedes the value it deletes and projects the
    /// same key hash.
    #[test]
    fn tombstone_matches_key(key in "[a-z0-9]{1,20}", v in 1u64..100) {
        let live = StoredTuple::new(Key::from(key.as_str()), Version(v), b"x".to_vec(), Some(1.0), None);
        let dead = StoredTuple::tombstone(Key::from(key.as_str()), Version(v + 1));
        prop_assert_eq!(live.key_hash, dead.key_hash);
        prop_assert!(dead.version > live.version);
        prop_assert!(dead.deleted && !live.deleted);
    }

    /// Sieve specs are stable: accepting is a pure function of the spec and
    /// the item (same inputs, same answer through clones).
    #[test]
    fn spec_acceptance_is_pure(
        idx in 0u64..16,
        r in 1u32..4,
        key in any::<u64>(),
    ) {
        let spec = SieveSpec::Range { index: idx, of: 16, r };
        let item = ItemMeta::from_key_hash(key);
        let a = spec.accepts(&item);
        prop_assert_eq!(a, spec.accepts(&item));
        prop_assert_eq!(a, spec.clone().accepts(&item));
        // class id is likewise stable
        prop_assert_eq!(spec.class_id(), spec.clone().class_id());
    }

    /// Grain equals the measured acceptance fraction for range specs.
    #[test]
    fn grain_matches_acceptance_rate(n in 2u64..32, r in 1u32..4) {
        let spec = SieveSpec::Range { index: 0, of: n, r };
        let probes = 4_000u64;
        let accepted = (0..probes)
            .filter(|&i| {
                spec.accepts(&ItemMeta::from_key(format!("g{i}").as_bytes()))
            })
            .count() as f64;
        let rate = accepted / probes as f64;
        prop_assert!((rate - spec.grain()).abs() < 0.05,
            "rate {} vs grain {}", rate, spec.grain());
    }
}

proptest! {
    // Cluster simulations are comparatively expensive; a dozen cases at
    // two full cluster runs each still exercises the oracle thoroughly.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end oracle check: a settled cluster round-trips arbitrary
    /// put/get traffic exactly like a `HashMap`, and the whole exchange is
    /// a pure function of the seed — replaying the same operations on a
    /// second cluster with the same seed yields identical ack traces
    /// (version and ack count per write) and identical read results.
    #[test]
    fn cluster_roundtrips_against_hashmap_oracle(
        seed in 0u64..512,
        ops in prop::collection::vec(
            ("[a-z]{1,6}", prop::collection::vec(any::<u8>(), 0..12)),
            1..12,
        ),
    ) {
        let run = |ops: &[(String, Vec<u8>)]| {
            let mut cluster = Cluster::new(ClusterConfig::small(), seed);
            cluster.settle();
            let mut client = cluster.client();
            let mut oracle: HashMap<String, Vec<u8>> = HashMap::new();
            let mut acks = Vec::new();
            for (key, value) in ops {
                let w = client.put(&mut cluster, key.clone(), value.clone(), None, None);
                let status = client.recv(&mut cluster, w).unwrap_or_else(|e| {
                    panic!("write {key} failed: {e}")
                });
                acks.push((status.version, status.acks));
                oracle.insert(key.clone(), value.clone());
            }
            cluster.run_for(5_000);
            let mut reads = Vec::new();
            for (key, expected) in &oracle {
                let r = client.get(&mut cluster, key.clone());
                let tuple = client
                    .recv(&mut cluster, r)
                    .unwrap_or_else(|e| panic!("read {key} failed: {e}"))
                    .unwrap_or_else(|| panic!("oracle key {key} missing"));
                assert_eq!(&tuple.value.to_vec(), expected, "value mismatch for {key}");
                reads.push((key.clone(), tuple.version, tuple.value.to_vec()));
            }
            reads.sort();
            (acks, reads)
        };
        let first = run(&ops);
        let second = run(&ops);
        prop_assert_eq!(first, second, "same seed must replay identically");
    }

    /// Pipelining equivalence: N writes submitted concurrently through one
    /// session settle to the same per-key results (version and value on a
    /// fresh read) and the same persistent key population as the same
    /// writes issued lock-step, on a seed-replayed twin cluster. Pipelining
    /// changes *when* messages fly, not *what* the store converges to.
    #[test]
    fn pipelined_ops_match_sequential_outcome(
        seed in 0u64..256,
        values in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..8), 2..16),
    ) {
        // Distinct keys: concurrent writes to one key may order either way
        // (that ambiguity is inherent to concurrency, not to the client).
        let ops: Vec<(String, Vec<u8>)> = values
            .into_iter()
            .enumerate()
            .map(|(i, v)| (format!("pk:{i}"), v))
            .collect();
        let read_back = |cluster: &mut Cluster, ops: &[(String, Vec<u8>)]| {
            cluster.run_for(5_000);
            let mut client = cluster.client();
            let mut results = Vec::new();
            for (key, _) in ops {
                let r = client.get(&mut *cluster, key.clone());
                let t = client
                    .recv(&mut *cluster, r)
                    .expect("read completes")
                    .unwrap_or_else(|| panic!("key {key} missing"));
                results.push((key.clone(), t.version, t.value.to_vec()));
            }
            let mut stored: Vec<u64> =
                cluster.scan_persist_state().iter().map(|&(kh, _, _)| kh).collect();
            stored.sort_unstable();
            stored.dedup();
            (results, stored)
        };

        // Sequential: one round-trip at a time (the old lock-step plane).
        let mut seq = Cluster::new(ClusterConfig::small(), seed);
        seq.settle();
        let mut client = seq.client();
        for (key, value) in &ops {
            let w = client.put(&mut seq, key.clone(), value.clone(), None, None);
            client.recv(&mut seq, w).expect("sequential write ordered");
        }
        let sequential = read_back(&mut seq, &ops);

        // Pipelined: everything in flight at once, harvested by poll.
        let mut pip = Cluster::new(ClusterConfig::small(), seed);
        pip.settle();
        let mut client = pip.client();
        let pendings: Vec<_> = ops
            .iter()
            .map(|(key, value)| client.put(&mut pip, key.clone(), value.clone(), None, None))
            .collect();
        prop_assert_eq!(client.in_flight(), ops.len());
        for p in pendings {
            client.recv(&mut pip, p).expect("pipelined write ordered");
        }
        let pipelined = read_back(&mut pip, &ops);

        prop_assert_eq!(sequential, pipelined, "same final state and per-key results");
    }
}

/// PR 7 interning regression: an interned [`Key`]/[`Tag`] must be
/// observationally identical to the `String` it replaced — same
/// equality, ordering and `std::hash::Hash`, same sieve routing and the
/// same tag-slot placement (the cached hash *is* the stable hash the old
/// code recomputed per call). Seed-replayed whole-run equivalence is
/// covered by `tests/determinism_replay.rs`; these properties pin the
/// primitives for arbitrary text.
mod interning {
    use super::*;
    use dd_core::Tag;
    use dd_sieve::TagSieve;
    use dd_sim::rng::stable_hash;
    use std::collections::BTreeMap;
    use std::hash::{BuildHasher, RandomState};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Eq/Ord/Hash of interned keys and tags agree with the string
        /// semantics they replaced, including via clones (which share
        /// the interned text).
        #[test]
        fn key_and_tag_relations_match_strings(
            a in "[a-z0-9:/_-]{0,24}",
            b in "[a-z0-9:/_-]{0,24}",
        ) {
            let (ka, kb) = (Key::from(a.as_str()), Key::from(b.as_str()));
            prop_assert_eq!(ka == kb, a == b);
            prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
            prop_assert_eq!(ka.clone().cmp(&kb), a.cmp(&b));
            let s = RandomState::new();
            prop_assert_eq!(s.hash_one(&ka), s.hash_one(a.as_str()));
            let (ta, tb) = (Tag::from(a.as_str()), Tag::from(b.as_str()));
            prop_assert_eq!(ta == tb, a == b);
            prop_assert_eq!(ta.cmp(&tb), a.cmp(&b));
            prop_assert_eq!(s.hash_one(&ta), s.hash_one(a.as_str()));
        }

        /// A map keyed by interned keys sorts, deduplicates and looks up
        /// exactly like one keyed by the raw strings.
        #[test]
        fn keyed_maps_behave_like_string_maps(
            texts in prop::collection::vec("[a-z0-9]{0,12}", 1..24),
        ) {
            let by_key: BTreeMap<Key, usize> =
                texts.iter().enumerate().map(|(i, t)| (Key::from(t.as_str()), i)).collect();
            let by_str: BTreeMap<&str, usize> =
                texts.iter().enumerate().map(|(i, t)| (t.as_str(), i)).collect();
            prop_assert_eq!(by_key.len(), by_str.len());
            let keys: Vec<&str> = by_key.keys().map(Key::as_str).collect();
            let strs: Vec<&str> = by_str.keys().copied().collect();
            prop_assert_eq!(keys, strs, "same iteration order");
            for (t, i) in &by_str {
                prop_assert_eq!(by_key.get(&Key::from(*t)), Some(i));
            }
        }

        /// Sieve routing is unchanged: the tuple's cached key hash puts
        /// it in exactly the sieves that accepted the un-interned key.
        #[test]
        fn sieve_routing_is_preserved(
            n in 1u64..48,
            r in 1u32..6,
            key in "[a-z0-9:/_-]{1,32}",
        ) {
            let tuple = StoredTuple::new(
                Key::from(key.as_str()), Version(1), b"v".to_vec(), None, None);
            prop_assert_eq!(tuple.key_hash, stable_hash(key.as_bytes()));
            for i in 0..n {
                let spec = SieveSpec::default_for(i, n, r);
                prop_assert_eq!(
                    spec.accepts(&tuple.item_meta()),
                    spec.accepts(&ItemMeta::from_key(key.as_bytes())),
                    "sieve {} disagrees for {:?}", i, &key
                );
            }
        }

        /// Tag-slot placement is unchanged: the interned tag's cached
        /// hash lands a batch on the same slot owners the per-call hash
        /// of the text did.
        #[test]
        fn tag_slot_placement_is_preserved(
            tag in "[a-z0-9:/_-]{1,24}",
            slots in 1u64..64,
            r in 1u32..6,
        ) {
            let interned = Tag::from(tag.as_str());
            prop_assert_eq!(
                TagSieve::tag_slots(interned.hash(), slots, r),
                TagSieve::tag_slots(stable_hash(tag.as_bytes()), slots, r)
            );
        }
    }
}

/// Compiled placement: [`SieveSpec`] answers in closed form on its own
/// fields and [`OwnerIndex`] inverts a whole population once. Both must
/// decide exactly what the objects they replaced decided — the concrete
/// `dd_sieve` sieve built from the same fields, and the ask-every-sieve
/// scan the coordinator used to run per write.
mod placement {
    use super::*;
    use dd_core::OwnerIndex;
    use dd_sieve::{HistogramSieve, RangeSieve, Sieve, TagSieve, UniformSieve};
    use dd_sim::rng::mix;
    use dd_sim::NodeId;

    /// Hashes on both sides of every seam an `of`-way partition has near
    /// segments 1, 2, `of / 2` and the slack-absorbing last one.
    fn seam_hashes(of: u64) -> Vec<u64> {
        let seg = u64::MAX / of;
        let mut hashes = vec![0, 1, u64::MAX - 1, u64::MAX, (of - 1) * seg];
        for k in [1, 2, of / 2, of - 1, of] {
            if (1..=of).contains(&k) {
                hashes.extend([k * seg - 1, k * seg]);
            }
        }
        hashes
    }

    /// Each hash as a bare item and with every mix of attribute and tag.
    fn items(hashes: &[u64], attrs: &[f64], tag: u64) -> Vec<ItemMeta> {
        let mut out = Vec::new();
        for (i, &key_hash) in hashes.iter().enumerate() {
            let attr = Some(attrs[i % attrs.len()]);
            let tag_hash = Some(mix(tag, i as u64 % 5));
            out.push(ItemMeta { key_hash, attr: None, tag_hash: None });
            out.push(ItemMeta { key_hash, attr, tag_hash: None });
            out.push(ItemMeta { key_hash, attr: None, tag_hash });
            out.push(ItemMeta { key_hash, attr, tag_hash });
        }
        out
    }

    fn assert_same(spec: &SieveSpec, concrete: &impl Sieve, items: &[ItemMeta]) {
        for item in items {
            assert_eq!(spec.accepts(item), concrete.accepts(item), "{spec:?} on {item:?}");
        }
        assert_eq!(spec.class_id(), concrete.class_id(), "class of {spec:?}");
        assert_eq!(spec.grain().to_bits(), concrete.grain().to_bits(), "grain of {spec:?}");
    }

    /// What the coordinator computed before the index existed.
    fn scan_owners(peers: &[NodeId], sieves: &[SieveSpec], tuple: &StoredTuple) -> Vec<NodeId> {
        let item = tuple.item_meta();
        peers
            .iter()
            .zip(sieves)
            .filter(|(_, sieve)| tuple.deleted || sieve.accepts(&item))
            .map(|(&peer, _)| peer)
            .collect()
    }

    /// A permutation of `0..n` drawn from `seed` (Fisher–Yates).
    fn permutation(n: u64, seed: u64) -> Vec<u64> {
        let mut order: Vec<u64> = (0..n).collect();
        for i in (1..n as usize).rev() {
            order.swap(i, (mix(seed, i as u64) % (i as u64 + 1)) as usize);
        }
        order
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// All four variants, `of` rarely dividing 2⁶⁴ and `r` on both
        /// sides of `of`, probed at the partition seams and at random.
        #[test]
        fn closed_forms_equal_the_concrete_sieves(
            of in 1u64..200,
            pick in any::<u64>(),
            r in 1u32..260,
            random in prop::collection::vec(any::<u64>(), 8),
            mut edges in prop::collection::vec(-1000.0f64..1000.0, 1..24),
        ) {
            let index = pick % of;
            edges.sort_by(f64::total_cmp);
            let mut attrs = vec![edges[0] - 1.0, edges[edges.len() - 1] + 1.0, 0.0];
            attrs.extend(edges.iter().copied());
            let mut hashes = seam_hashes(of);
            hashes.extend(random);
            let items = items(&hashes, &attrs, pick);

            // The first and last nodes see the wrap and the slack.
            for index in [index, 0, of - 1] {
                assert_same(
                    &SieveSpec::Range { index, of, r },
                    &RangeSieve::partition(index, of, r),
                    &items,
                );
            }
            assert_same(
                &SieveSpec::Uniform { salt: pick, r, n: of },
                &UniformSieve::replication(pick, r, of),
                &items,
            );
            assert_same(
                &SieveSpec::Tag { slot: index, slots: of, r },
                &TagSieve::new(index, of, r),
                &items,
            );
            let bucket = (pick % (edges.len() as u64 + 1)) as usize;
            assert_same(
                &SieveSpec::Histogram { edges: edges.clone(), index: bucket, r },
                &HistogramSieve::new(edges, bucket, r),
                &items,
            );
        }

        /// Indexed lookup returns the scan's owners, in peer order, for
        /// every population shape the index distinguishes — tabled
        /// (`Range`, `Tag`, either with positions permuted against peer
        /// order) and scanned (`Uniform`, `Histogram`, mixed).
        #[test]
        fn owner_index_matches_the_linear_scan(
            n in 2u64..40,
            r in 1u32..6,
            seed in any::<u64>(),
            keys in prop::collection::vec("[a-z0-9:]{1,16}", 1..24),
        ) {
            // Descending ids: peer order is list order, not id order.
            let peers: Vec<NodeId> = (0..n).map(|i| NodeId(1000 - i)).collect();
            let shuffled = permutation(n, seed);
            let edges: Vec<f64> = (1..n).map(|k| k as f64 * 10.0).collect();
            let range = |i: u64| SieveSpec::default_for(i, n, r);
            let tag = |i: u64| SieveSpec::Tag { slot: i, slots: n, r };
            let uniform = |i: u64| SieveSpec::Uniform { salt: mix(seed, i), r, n };
            let populations: Vec<Vec<SieveSpec>> = vec![
                (0..n).map(range).collect(),
                (0..n).map(tag).collect(),
                (0..n).map(uniform).collect(),
                (0..n)
                    .map(|i| SieveSpec::Histogram { edges: edges.clone(), index: i as usize, r })
                    .collect(),
                (0..n).map(|i| if i % 3 == 0 { tag(i) } else { range(i) }).collect(),
                // One sieve of another partition makes the whole list mixed.
                (0..n).map(|i| if i == 0 { SieveSpec::default_for(0, 1, r) } else { range(i) })
                    .collect(),
                shuffled.iter().map(|&i| range(i)).collect(),
                shuffled.iter().map(|&i| tag(i)).collect(),
            ];
            let mut tuples = Vec::new();
            for (i, key) in keys.iter().enumerate() {
                let value = (mix(seed, i as u64) % (n * 10 + 20)) as f64 - 10.0;
                let attr = (i % 2 == 0).then_some(value);
                let tag = (i % 3 != 0).then(|| format!("feed:{}", i % 4));
                let key = Key::from(key.as_str());
                let tag = tag.as_deref();
                tuples.push(StoredTuple::new(key.clone(), Version(1), b"v".to_vec(), attr, tag));
                tuples.push(StoredTuple::tombstone(key, Version(2)));
            }
            // Seams of the key space, which no short key hashes onto.
            for h in seam_hashes(n) {
                let mut t = tuples[0].clone();
                t.key_hash = h;
                tuples.push(t);
            }
            for sieves in populations {
                let index = OwnerIndex::new(peers.clone(), sieves.clone());
                for tuple in &tuples {
                    let owners = index.owners_of(tuple);
                    prop_assert_eq!(&owners, &scan_owners(&peers, &sieves, tuple),
                        "{:?} under {:?}", tuple, &sieves[0]);
                    if tuple.deleted {
                        prop_assert_eq!(&owners, &peers, "tombstones go to every peer");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one sieve per persist peer")]
    fn owner_index_rejects_lists_that_are_not_parallel() {
        let sieves = (0..4).map(|i| SieveSpec::default_for(i, 4, 2)).collect();
        let _ = OwnerIndex::new((0..5).map(NodeId).collect(), sieves);
    }

    #[test]
    #[should_panic(expected = "node index out of range")]
    fn owner_index_rejects_a_position_outside_the_population() {
        let sieves = vec![SieveSpec::default_for(0, 2, 1), SieveSpec::default_for(2, 2, 1)];
        let _ = OwnerIndex::new(vec![NodeId(0), NodeId(1)], sieves);
    }
}
