//! Equivalence of the two repair protocols: digest-first (summary →
//! pull → delta) anti-entropy must drive every replica to the *same*
//! byte-identical state the old blind digest exchange reached, for any
//! sieve population and any fault schedule (which deliveries were lost).
//! The wire cost differs by orders of magnitude; the fixpoint must not.

use dd_core::persist::{PersistNode, REPAIR_BUCKETS};
use dd_core::{Key, SieveSpec, StoredTuple};
use dd_dht::Version;
use dd_epidemic::antientropy::Summary;
use dd_epidemic::RumorId;
use proptest::prelude::*;

/// A generated write: key index, version, tombstone flag. Content is a
/// pure function of `(key, version)`, so byte-level comparison of final
/// stores is meaningful.
fn materialise(key_idx: usize, version: u64, deleted: bool) -> StoredTuple {
    let key = Key::from(format!("k:{key_idx}"));
    if deleted {
        StoredTuple::tombstone(key, Version(version))
    } else {
        let tag = format!("t:{}", key_idx % 3);
        StoredTuple::new(
            key,
            Version(version),
            format!("v:{key_idx}:{version}").into_bytes(),
            Some(key_idx as f64),
            Some(&tag),
        )
    }
}

/// One sieve per node, all from the same family (how real clusters are
/// configured; `family` picks range / uniform / tag).
fn sieve_population(family: u8, n: u64, r: u32) -> Vec<SieveSpec> {
    (0..n)
        .map(|i| match family % 3 {
            0 => SieveSpec::default_for(i, n, r),
            1 => SieveSpec::Uniform { salt: i ^ 0xABCD, r, n },
            _ => SieveSpec::Tag { slot: i, slots: n, r },
        })
        .collect()
}

/// One store entry, fingerprinted byte-for-byte:
/// `(key_hash, rumor_id, version, deleted, value)`.
type Entry = (u64, u64, u64, bool, Vec<u8>);

/// Byte-level fingerprint of a store: every field of every held tuple,
/// key-ordered.
fn state(n: &PersistNode) -> Vec<Entry> {
    let mut s: Vec<Entry> = n
        .store
        .values()
        .map(|t| (t.key_hash, t.rumor_id(), t.version.0, t.deleted, t.value.to_vec()))
        .collect();
    s.sort();
    s
}

fn states(nodes: &[PersistNode]) -> Vec<Vec<Entry>> {
    nodes.iter().map(state).collect()
}

/// The old protocol's full round: exchange whole digests, ship every
/// missing-and-wanted item, both directions. Every shipped item is
/// wanted by its receiver, so the new supersession/retire paths of
/// `apply_repair` are unreachable here — this is byte-for-byte the old
/// semantics.
fn blind_exchange(nodes: &mut [PersistNode], a: usize, b: usize) {
    let to_b = nodes[a].items_for_peer(&nodes[b].digest(), &nodes[b].sieve.clone());
    let to_a = nodes[b].items_for_peer(&nodes[a].digest(), &nodes[a].sieve.clone());
    nodes[b].apply_repair(to_b);
    nodes[a].apply_repair(to_a);
}

/// The digest-first round, mirroring the on_message handlers: summary
/// compare → pull → delta items → reciprocal want leg → supersession
/// evidence ping-pong until quiet.
fn digest_first_exchange(nodes: &mut [PersistNode], a: usize, b: usize) {
    let sieve_a = nodes[a].sieve.clone();
    let sieve_b = nodes[b].sieve.clone();
    let diff = nodes[a].shared_summary(&sieve_b).diff(&nodes[b].shared_summary(&sieve_a));
    if diff.is_empty() {
        return;
    }
    let ids_a = nodes[a].shared_ids_in(&sieve_b, &diff);
    let (items, want) = nodes[b].repair_delta(&sieve_a, &diff, &ids_a);
    let (_, mut batch) = nodes[a].apply_repair(items);
    if !want.is_empty() {
        batch.extend(nodes[a].tuples_for(&want));
        batch.sort_by_key(StoredTuple::rumor_id);
        batch.dedup_by_key(|t| t.rumor_id());
    }
    let (mut rx, mut tx) = (b, a);
    while !batch.is_empty() {
        let (_, evidence) = nodes[rx].apply_repair(batch);
        batch = evidence;
        std::mem::swap(&mut rx, &mut tx);
    }
}

/// Runs pairwise exchanges until no store changes (bounded; a complete
/// graph settles in a couple of sweeps).
fn run_to_fixpoint(nodes: &mut [PersistNode], exchange: fn(&mut [PersistNode], usize, usize)) {
    for _ in 0..8 {
        let before = states(nodes);
        for a in 0..nodes.len() {
            for b in (a + 1)..nodes.len() {
                exchange(nodes, a, b);
            }
        }
        if states(nodes) == before {
            return;
        }
    }
    panic!("exchanges did not reach a fixpoint in 8 sweeps");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any sieve family, replication degree and fault schedule, the
    /// digest-first protocol's fixpoint is byte-identical, per node, to
    /// the blind digest exchange's — and once there, every pair's shared
    /// summaries agree (the steady-state round is two constant-size
    /// messages).
    #[test]
    fn digest_first_reaches_the_blind_exchange_fixpoint(
        family in 0u8..3,
        n in 2u64..5,
        r in 1u32..4,
        // (key, version-count, tombstone mask) per key: versions of one
        // key are distinct, so apply() order can never matter.
        keys in prop::collection::vec((1u64..4, any::<u8>()), 1..12),
        // Fault schedule: bit k of each write's mask = "the initial
        // dissemination reached node k".
        delivery in prop::collection::vec(any::<u8>(), 1..12),
    ) {
        let sieves = sieve_population(family, n, r);
        let mut seed: Vec<PersistNode> = sieves
            .iter()
            .map(|s| PersistNode::new(s.clone(), vec![], None))
            .collect();
        let mut w = 0usize;
        for (key_idx, &(versions, tombs)) in keys.iter().enumerate() {
            for v in 1..=versions {
                let t = materialise(key_idx, v, tombs & (1 << v) != 0);
                let mask = delivery[w % delivery.len()];
                w += 1;
                for (k, node) in seed.iter_mut().enumerate() {
                    if mask & (1 << (k % 8)) != 0 && node.wants(&t) {
                        node.apply(t.clone());
                    }
                }
            }
        }

        let mut blind = seed.clone();
        let mut first = seed;
        run_to_fixpoint(&mut blind, blind_exchange);
        run_to_fixpoint(&mut first, digest_first_exchange);

        // The blind protocol can never clean up a stale entry superseded
        // by a version its holder's sieve rejects (it only ever ships
        // receiver-wanted tuples); digest-first retires those via the
        // supersession-evidence leg. Modulo that strict improvement, the
        // fixpoints must be byte-identical: normalise the blind state by
        // dropping exactly the entries the evidence leg retires — those
        // strictly older than the newest version of their key anywhere,
        // where the holder does not want that newest version.
        let mut newest: std::collections::HashMap<u64, StoredTuple> = Default::default();
        for node in &blind {
            for t in node.store.values() {
                let slot = newest.entry(t.key_hash).or_insert_with(|| t.clone());
                if t.version > slot.version {
                    *slot = t.clone();
                }
            }
        }
        let normalised: Vec<_> = blind
            .iter()
            .map(|n| {
                let mut s: Vec<_> = n
                    .store
                    .values()
                    .filter(|t| {
                        let top = &newest[&t.key_hash];
                        top.version == t.version || n.wants(top)
                    })
                    .map(|t| (t.key_hash, t.rumor_id(), t.version.0, t.deleted, t.value.to_vec()))
                    .collect();
                s.sort();
                s
            })
            .collect();
        prop_assert_eq!(
            states(&first),
            normalised,
            "digest-first and blind exchange disagree on the fixpoint"
        );

        // At the fixpoint the steady-state exchange is summary-only: every
        // pair's shared projections carry equal summaries.
        for a in 0..first.len() {
            for b in (a + 1)..first.len() {
                let sa = first[a].shared_summary(&first[b].sieve.clone());
                let sb = first[b].shared_summary(&first[a].sieve.clone());
                prop_assert_eq!(sa.bucket_count(), REPAIR_BUCKETS);
                prop_assert!(sa.diff(&sb).is_empty(), "pair ({}, {}) not converged", a, b);
            }
        }
    }

    /// The summary's divergence localisation: the ids that cross the wire
    /// in a pull are exactly the shared-projection ids of the differing
    /// buckets — never the whole store.
    #[test]
    fn pull_ships_only_differing_buckets(
        extra in prop::collection::hash_set(1u64..1_000, 1..8),
        common in prop::collection::hash_set(1_000u64..2_000, 0..40),
    ) {
        let all = SieveSpec::Range { index: 0, of: 1, r: 1 };
        let mut a = PersistNode::new(all.clone(), vec![], None);
        let mut b = PersistNode::new(all.clone(), vec![], None);
        for &k in &common {
            a.apply(materialise(k as usize, 1, false));
            b.apply(materialise(k as usize, 1, false));
        }
        for &k in &extra {
            a.apply(materialise(k as usize, 1, false));
        }
        let diff = a.shared_summary(&all).diff(&b.shared_summary(&all));
        let shipped = a.shared_ids_in(&all, &diff);
        // Everything shipped folds into a differing bucket…
        for id in &shipped {
            let bucket = Summary::bucket_of(REPAIR_BUCKETS, *id) as u32;
            prop_assert!(diff.contains(&bucket));
        }
        // …and the extra ids are all among them (nothing is missed).
        let shipped_set: std::collections::HashSet<RumorId> = shipped.into_iter().collect();
        for &k in &extra {
            let id = RumorId(materialise(k as usize, 1, false).rumor_id());
            prop_assert!(shipped_set.contains(&id), "missing id for key {}", k);
        }
    }
}
