//! Soft-state metadata: latest version + location hints, reconstructible
//! from the persistent layer.
//!
//! §II: *"Maintaining knowledge of some of the nodes that store the data in
//! the persistent-state layer is also a straightforward technique to
//! improve operation performance"*, and *"on the event of a catastrophic
//! failure, or when a new node joins this layer, metadata can be
//! reconstructed from the data reliably stored at the underlying
//! persistent-state layer"* — [`Metadata::rebuild`] implements that
//! reconstruction from a scan of `(key, version, holder)` triples.

use crate::ordering::Version;
use dd_sim::NodeId;
use std::collections::HashMap;

/// Metadata for one key: the latest version and up to `hint_cap` nodes
/// known to hold it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetaEntry {
    /// Latest version written.
    pub version: Version,
    /// Persistent-layer nodes believed to hold that version.
    pub holders: Vec<NodeId>,
}

/// The soft-state layer's per-key knowledge.
#[derive(Debug, Clone)]
pub struct Metadata {
    entries: HashMap<u64, MetaEntry>,
    hint_cap: usize,
}

impl Metadata {
    /// Empty metadata keeping at most `hint_cap` location hints per key.
    ///
    /// # Panics
    /// Panics if `hint_cap == 0`.
    #[must_use]
    pub fn new(hint_cap: usize) -> Self {
        assert!(hint_cap > 0, "need at least one hint slot");
        Metadata { entries: HashMap::new(), hint_cap }
    }

    /// Records a write of `key_hash` at `version`, initially hinted at
    /// `holders`.
    pub fn record_write(&mut self, key_hash: u64, version: Version, holders: &[NodeId]) {
        let e = self.entries.entry(key_hash).or_default();
        if version >= e.version {
            e.version = version;
            e.holders.clear();
            e.holders.extend(holders.iter().take(self.hint_cap));
        }
    }

    /// Adds a holder hint for the current version (e.g. learned from a
    /// sieve-acceptance ack).
    pub fn add_holder(&mut self, key_hash: u64, version: Version, holder: NodeId) {
        let e = self.entries.entry(key_hash).or_default();
        if version == e.version && !e.holders.contains(&holder) && e.holders.len() < self.hint_cap {
            e.holders.push(holder);
        }
    }

    /// Latest version of a key (`Version::ZERO` when unknown).
    #[must_use]
    pub fn latest(&self, key_hash: u64) -> Version {
        self.entries.get(&key_hash).map_or(Version::ZERO, |e| e.version)
    }

    /// Location hints for a key.
    #[must_use]
    pub fn holders(&self, key_hash: u64) -> &[NodeId] {
        self.entries.get(&key_hash).map_or(&[], |e| e.holders.as_slice())
    }

    /// Number of known keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no keys are known.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rebuilds metadata from a persistent-layer scan of
    /// `(key_hash, version, holder)` triples — keeps the highest version
    /// per key and the holders that reported it.
    #[must_use]
    pub fn rebuild(
        hint_cap: usize,
        scan: impl IntoIterator<Item = (u64, Version, NodeId)>,
    ) -> Self {
        let mut meta = Metadata::new(hint_cap);
        for (key, version, holder) in scan {
            let e = meta.entries.entry(key).or_default();
            match version.cmp(&e.version) {
                std::cmp::Ordering::Greater => {
                    e.version = version;
                    e.holders.clear();
                    e.holders.push(holder);
                }
                std::cmp::Ordering::Equal => {
                    if !e.holders.contains(&holder) && e.holders.len() < hint_cap {
                        e.holders.push(holder);
                    }
                }
                std::cmp::Ordering::Less => {}
            }
        }
        meta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_write_tracks_latest_version() {
        let mut m = Metadata::new(3);
        m.record_write(1, Version(1), &[NodeId(10)]);
        m.record_write(1, Version(3), &[NodeId(11), NodeId(12)]);
        m.record_write(1, Version(2), &[NodeId(13)]); // stale, ignored
        assert_eq!(m.latest(1), Version(3));
        assert_eq!(m.holders(1), &[NodeId(11), NodeId(12)]);
    }

    #[test]
    fn hints_are_capped_and_deduplicated() {
        let mut m = Metadata::new(2);
        m.record_write(1, Version(1), &[]);
        m.add_holder(1, Version(1), NodeId(1));
        m.add_holder(1, Version(1), NodeId(1));
        m.add_holder(1, Version(1), NodeId(2));
        m.add_holder(1, Version(1), NodeId(3)); // over cap
        assert_eq!(m.holders(1), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn stale_holder_hints_are_rejected() {
        let mut m = Metadata::new(4);
        m.record_write(1, Version(2), &[]);
        m.add_holder(1, Version(1), NodeId(9));
        assert!(m.holders(1).is_empty());
    }

    #[test]
    fn rebuild_recovers_latest_versions_and_holders() {
        // Persistent-layer scan with mixed versions and duplicate holders.
        let scan = vec![
            (1u64, Version(1), NodeId(10)),
            (1, Version(2), NodeId(11)),
            (1, Version(2), NodeId(12)),
            (1, Version(1), NodeId(13)), // stale replica still out there
            (2, Version(5), NodeId(20)),
        ];
        let m = Metadata::rebuild(4, scan);
        assert_eq!(m.latest(1), Version(2));
        assert_eq!(m.holders(1), &[NodeId(11), NodeId(12)]);
        assert_eq!(m.latest(2), Version(5));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn rebuild_equals_incremental_knowledge() {
        // The reconstruction invariant: rebuilding from the persistent
        // layer yields the same latest versions as the lost soft state.
        let mut live = Metadata::new(3);
        let mut scan = Vec::new();
        for k in 0..50u64 {
            for v in 1..=(k % 4 + 1) {
                let holder = NodeId(k % 7);
                live.record_write(k, Version(v), &[holder]);
                scan.push((k, Version(v), holder));
            }
        }
        let rebuilt = Metadata::rebuild(3, scan);
        for k in 0..50u64 {
            assert_eq!(rebuilt.latest(k), live.latest(k), "key {k}");
        }
    }

    #[test]
    fn unknown_key_defaults() {
        let m = Metadata::new(1);
        assert_eq!(m.latest(99), Version::ZERO);
        assert!(m.holders(99).is_empty());
        assert!(m.is_empty());
    }
}
