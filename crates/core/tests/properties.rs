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
/// fields and [`OwnerIndex`] inverts a whole placement in closed form.
/// Both must decide exactly what the objects they replaced decided — the
/// concrete `dd_sieve` sieve built from the same fields, and the
/// ask-every-sieve scan the coordinator used to run per write — and every
/// tuple must have an owner.
mod placement {
    use super::*;
    use dd_core::{OwnerIndex, Placement};
    use dd_sieve::{RangeSieve, Sieve, TagSieve, UniformSieve};
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// All three variants, `of` rarely dividing 2⁶⁴ and `r` on both
        /// sides of `of`, probed at the partition seams and at random.
        /// `Uniform` is the coin of `UniformSieve` plus the key's home.
        #[test]
        fn closed_forms_equal_the_concrete_sieves(
            of in 1u64..200,
            pick in any::<u64>(),
            r in 1u32..260,
            random in prop::collection::vec(any::<u64>(), 8),
            attrs in prop::collection::vec(-1000.0f64..1000.0, 1..4),
        ) {
            let index = pick % of;
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
                let uniform = SieveSpec::Uniform { index, r, n: of };
                let coin = UniformSieve::replication(index, r, of);
                for item in &items {
                    let home = TagSieve::home_slot(item.key_hash, of) == index;
                    prop_assert_eq!(uniform.accepts(item), coin.accepts(item) || home,
                        "{:?} on {:?}", uniform, item);
                }
                prop_assert_eq!(uniform.class_id(), coin.class_id());
                let p = coin.grain();
                prop_assert_eq!(uniform.grain().to_bits(), (p + (1.0 - p) / of as f64).to_bits());
            }
            assert_same(
                &SieveSpec::Tag { slot: index, slots: of, r },
                &TagSieve::new(index, of, r),
                &items,
            );
        }

        /// Every tuple has an owner: under each placement, for tagged,
        /// untagged, attribute-less and seam-hash tuples, the index names
        /// the scan's owners in peer order — never none, and exactly
        /// `min(r, n)` under `Range` and `Tag`. Tombstones go to every
        /// peer. A tag read asks the tag's slot-runners in slot order
        /// under `Tag`, and every peer otherwise.
        #[test]
        fn every_tuple_has_an_owner(
            n in 1u64..40,
            r in 1u32..6,
            keys in prop::collection::vec("[a-z0-9:]{1,16}", 1..24),
        ) {
            // Descending ids: peer order is list order, not id order.
            let peers: Vec<NodeId> = (0..n).map(|i| NodeId(1000 - i)).collect();
            let mut tuples = Vec::new();
            for (i, key) in keys.iter().enumerate() {
                let attr = (i % 2 == 0).then_some(i as f64);
                let tag = (i % 3 != 0).then(|| format!("feed:{}", i % 4));
                let key = Key::from(key.as_str());
                let tag = tag.as_deref();
                tuples.push(StoredTuple::new(key.clone(), Version(1), b"v".to_vec(), attr, tag));
                tuples.push(StoredTuple::tombstone(key, Version(2)));
            }
            // Seams of the key space, which no short key hashes onto, bare
            // and tagged.
            let bare = StoredTuple::new(Key::from("seam"), Version(1), b"v".to_vec(), None, None);
            let tagged = StoredTuple::new(
                Key::from("seam"), Version(1), b"v".to_vec(), None, Some("feed:seam"));
            for h in seam_hashes(n) {
                for t in [&bare, &tagged] {
                    let mut t = t.clone();
                    t.key_hash = h;
                    tuples.push(t);
                }
            }
            // Tags homed within r − 1 of the last slot, so their reads wrap.
            let wrapping = (0u64..).filter(|&h| TagSieve::home_slot(h, n) + u64::from(r) >= n);
            let tags: Vec<u64> =
                tuples.iter().filter_map(|t| t.tag_hash).chain(wrapping.take(4)).collect();
            let span = u64::from(r).min(n) as usize;
            for placement in [Placement::RangePartition, Placement::Uniform, Placement::TagCollocation] {
                let index = OwnerIndex::new(peers.clone(), placement, r);
                let sieves: Vec<SieveSpec> = (0..n as usize).map(|i| index.sieve(i)).collect();
                for tuple in &tuples {
                    let owners = index.owners_of(tuple);
                    prop_assert!(!owners.is_empty(), "{:?} has no owner under {:?}", tuple, placement);
                    prop_assert_eq!(&owners, &scan_owners(&peers, &sieves, tuple),
                        "{:?} under {:?}", tuple, placement);
                    if tuple.deleted {
                        prop_assert_eq!(&owners, &peers, "tombstones go to every peer");
                    } else if placement != Placement::Uniform {
                        prop_assert_eq!(owners.len(), span, "{:?} under {:?}", tuple, placement);
                    }
                }
                for &tag in &tags {
                    let want: Vec<NodeId> = match placement {
                        Placement::TagCollocation => TagSieve::tag_slots(tag, n, r)
                            .into_iter()
                            .map(|slot| peers[slot as usize])
                            .collect(),
                        _ => peers.clone(),
                    };
                    prop_assert_eq!(index.tag_targets(tag), want, "tag {} under {:?}", tag, placement);
                }
            }
        }

        /// A scan or aggregate is whole without the `silent` peers exactly
        /// when every tuple keeps an owner outside them: `covers` against
        /// `owners_of` over a dense sample of key and tag hashes, seams
        /// included, for a random silent subset. Under `Uniform` below
        /// `r = n` any silent peer may be some key's only owner, which a
        /// sample can only fail to witness: there `covers` claims coverage
        /// only when nobody is silent.
        #[test]
        fn covers_holds_when_every_tuple_keeps_an_answering_owner(
            n in 1u64..40,
            r in 1u32..6,
            salt in any::<u64>(),
            silent_eighths in 0u64..=8,
        ) {
            let peers: Vec<NodeId> = (0..n).map(|i| NodeId(1000 - i)).collect();
            let silent: Vec<NodeId> = (0..n)
                .filter(|&i| mix(salt, i) % 8 < silent_eighths)
                .map(|i| peers[i as usize])
                .collect();
            let base = StoredTuple::new(Key::from("s"), Version(1), b"v".to_vec(), None, None);
            let mut tuples = Vec::new();
            for h in seam_hashes(n).into_iter().chain((0..1024).map(|i| mix(salt ^ 0x5CA7, i))) {
                let mut bare = base.clone();
                bare.key_hash = h;
                let mut tagged = base.clone();
                tagged.tag_hash = Some(h);
                tuples.extend([bare, tagged]);
            }
            for placement in [Placement::RangePartition, Placement::Uniform, Placement::TagCollocation] {
                let index = OwnerIndex::new(peers.clone(), placement, r);
                let covers = index.covers(&silent);
                let answered = |t: &StoredTuple| index.owners_of(t).iter().any(|o| !silent.contains(o));
                let every = tuples.iter().all(answered);
                if placement == Placement::Uniform && u64::from(r) < n {
                    prop_assert_eq!(covers, silent.is_empty(), "{:?} silent under {:?}", silent, placement);
                    prop_assert!(!covers || every, "{:?} silent under {:?}", silent, placement);
                } else {
                    prop_assert_eq!(covers, every, "{:?} silent under {:?}", silent, placement);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "node index out of range")]
    fn owner_index_rejects_a_position_outside_the_population() {
        let index = OwnerIndex::new(vec![NodeId(0), NodeId(1)], Placement::RangePartition, 1);
        let _ = index.sieve(2);
    }
}
