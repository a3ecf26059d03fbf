//! Property-based tests for the structured tier: ring ownership, version
//! ordering, cache bounds, metadata reconstruction.

use dd_dht::{HashRing, Metadata, TupleCache, Version};
use dd_sim::NodeId;
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Owners are always distinct and exactly `min(r, n)` of them exist.
    #[test]
    fn owners_distinct_and_complete(
        n in 1u64..40,
        r in 1usize..8,
        key in any::<u64>(),
    ) {
        let ring = HashRing::dense(n, 8);
        let owners = ring.owners(key, r);
        let set: HashSet<NodeId> = owners.iter().copied().collect();
        prop_assert_eq!(set.len(), owners.len(), "distinct owners");
        prop_assert_eq!(owners.len() as u64, (r as u64).min(n));
    }

    /// Removing a node only reassigns keys it owned; all other primaries
    /// are untouched (the minimal-disruption property of consistent
    /// hashing the paper's baseline relies on).
    #[test]
    fn removal_moves_only_victim_keys(
        n in 2u64..24,
        victim in 0u64..24,
        keys in prop::collection::vec(any::<u64>(), 1..60),
    ) {
        let victim = victim % n;
        let mut ring = HashRing::dense(n, 16);
        let before: Vec<Option<NodeId>> = keys.iter().map(|&k| ring.primary(k)).collect();
        ring.remove(NodeId(victim));
        for (i, &k) in keys.iter().enumerate() {
            let after = ring.primary(k);
            if before[i] != Some(NodeId(victim)) {
                prop_assert_eq!(after, before[i], "unaffected key moved");
            } else {
                prop_assert_ne!(after, Some(NodeId(victim)));
            }
        }
    }

    /// Versions assigned by the metadata are strictly increasing per key
    /// for any interleaving of keys.
    #[test]
    fn versions_strictly_increase(ops in prop::collection::vec(0u64..8, 1..100)) {
        let mut meta = Metadata::new(1);
        let mut last: std::collections::HashMap<u64, Version> = Default::default();
        for key in ops {
            let v = meta.assign(key);
            if let Some(&prev) = last.get(&key) {
                prop_assert!(v > prev, "version not increasing for key {}", key);
            }
            last.insert(key, v);
        }
    }

    /// The cache never exceeds its capacity and never serves a version
    /// older than required, for arbitrary operation sequences.
    #[test]
    fn cache_capacity_and_freshness(
        cap in 1usize..16,
        ops in prop::collection::vec((0u64..32, 1u64..20, any::<bool>()), 1..200),
    ) {
        let mut cache: TupleCache<u64> = TupleCache::new(cap);
        for (key, ver, is_put) in ops {
            if is_put {
                cache.put(key, Version(ver), ver);
            } else if let Some(value) = cache.get(key, Version(ver)) {
                prop_assert!(value >= ver, "cache served version {} below required {}", value, ver);
            }
            prop_assert!(cache.len() <= cap, "cache over capacity");
        }
    }

    /// Metadata rebuilt from a scan reports exactly the per-key maximum
    /// version present in the scan.
    #[test]
    fn rebuild_reports_max_versions(
        scan in prop::collection::vec((0u64..16, 1u64..10, 0u64..8), 1..120),
    ) {
        let triples: Vec<(u64, Version, NodeId)> =
            scan.iter().map(|&(k, v, h)| (k, Version(v), NodeId(h))).collect();
        let mut meta = Metadata::new(4);
        meta.reconstruct(triples.iter().copied());
        for &(k, _, _) in &triples {
            let max = triples
                .iter()
                .filter(|&&(k2, _, _)| k2 == k)
                .map(|&(_, v, _)| v)
                .max()
                .unwrap();
            prop_assert_eq!(meta.latest(k), max);
            prop_assert!(!meta.holders(k).is_empty(), "latest version has a holder");
        }
    }

    /// Reconstructing from any set of stored versions then assigning
    /// yields a version above all of them (safety of coordinator takeover).
    #[test]
    fn observe_then_assign_is_fresh(
        observed in prop::collection::vec(0u64..1000, 0..30),
        key in any::<u64>(),
    ) {
        let mut meta = Metadata::new(4);
        meta.reconstruct(observed.iter().map(|&v| (key, Version(v), NodeId(v))));
        let next = meta.assign(key);
        for &v in &observed {
            prop_assert!(next > Version(v));
        }
    }
}
