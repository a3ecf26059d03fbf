//! Soft-state metadata: the per-key write order — latest version plus
//! location hints — reconstructible from the persistent layer.
//!
//! §II: write operations "are correctly ordered by the soft-state layer",
//! which "always knows the most recent version of an item" —
//! [`Metadata::assign`] issues each key's next version. *"Maintaining
//! knowledge of some of the nodes that store the data in the
//! persistent-state layer is also a straightforward technique to improve
//! operation performance"*, and *"on the event of a catastrophic failure,
//! or when a new node joins this layer, metadata can be reconstructed from
//! the data reliably stored at the underlying persistent-state layer"* —
//! [`Metadata::reconstruct`] folds a scan of `(key, version, holder)`
//! triples in.

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

impl MetaEntry {
    /// Hints `holder` for `version` if that is the latest, once, within
    /// `cap` hints.
    fn hint(&mut self, version: Version, holder: NodeId, cap: usize) {
        if version == self.version && !self.holders.contains(&holder) && self.holders.len() < cap {
            self.holders.push(holder);
        }
    }
}

/// The soft-state layer's per-key knowledge: the one table that both
/// orders a key's writes and locates them.
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

    /// Orders a new write of `key_hash`: returns its next version (strictly
    /// above every version known for the key) and clears the key's hints.
    pub fn assign(&mut self, key_hash: u64) -> Version {
        let e = self.entries.entry(key_hash).or_default();
        e.version = e.version.next();
        e.holders.clear();
        e.version
    }

    /// Adds a holder hint for the current version of a known key (e.g.
    /// learned from a sieve-acceptance ack); a key this node never ordered
    /// or reconstructed stays unknown.
    pub fn add_holder(&mut self, key_hash: u64, version: Version, holder: NodeId) {
        if let Some(e) = self.entries.get_mut(&key_hash) {
            e.hint(version, holder, self.hint_cap);
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

    /// Folds a persistent-layer scan of `(key_hash, version, holder)`
    /// triples in: a newer version replaces a key's entry, an equal one
    /// adds its holder, an older one changes nothing — so no later
    /// [`Metadata::assign`] re-issues a stored version.
    pub fn reconstruct(&mut self, scan: impl IntoIterator<Item = (u64, Version, NodeId)>) {
        for (key_hash, version, holder) in scan {
            let e = self.entries.entry(key_hash).or_default();
            if version > e.version {
                e.version = version;
                e.holders.clear();
            }
            e.hint(version, holder, self.hint_cap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_write_tracks_latest_version() {
        let mut m = Metadata::new(3);
        assert_eq!(m.assign(1), Version(1));
        m.add_holder(1, Version(1), NodeId(10));
        assert_eq!(m.assign(1), Version(2));
        assert!(m.holders(1).is_empty(), "a new version starts without hints");
        m.add_holder(1, Version(2), NodeId(11));
        m.add_holder(1, Version(2), NodeId(12));
        m.add_holder(1, Version(1), NodeId(13)); // stale, ignored
        assert_eq!(m.latest(1), Version(2));
        assert_eq!(m.holders(1), &[NodeId(11), NodeId(12)]);
    }

    #[test]
    fn hints_are_capped_and_deduplicated() {
        let mut m = Metadata::new(2);
        m.assign(1);
        m.add_holder(1, Version(1), NodeId(1));
        m.add_holder(1, Version(1), NodeId(1));
        m.add_holder(1, Version(1), NodeId(2));
        m.add_holder(1, Version(1), NodeId(3)); // over cap
        assert_eq!(m.holders(1), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn stale_holder_hints_are_rejected() {
        let mut m = Metadata::new(4);
        m.assign(1);
        m.assign(1);
        m.add_holder(1, Version(1), NodeId(9));
        assert!(m.holders(1).is_empty());
    }

    #[test]
    fn a_hint_for_an_unknown_key_leaves_it_unknown() {
        let mut m = Metadata::new(4);
        m.add_holder(7, Version(1), NodeId(9));
        assert!(m.is_empty());
        assert_eq!(m.latest(7), Version::ZERO);
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
        let mut m = Metadata::new(4);
        m.reconstruct(scan);
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
            for _ in 0..=(k % 4) {
                let (holder, v) = (NodeId(k % 7), live.assign(k));
                live.add_holder(k, v, holder);
                scan.push((k, v, holder));
            }
        }
        let mut rebuilt = Metadata::new(3);
        rebuilt.reconstruct(scan);
        for k in 0..50u64 {
            assert_eq!(rebuilt.latest(k), live.latest(k), "key {k}");
            assert_eq!(rebuilt.holders(k), live.holders(k), "key {k}");
        }
    }

    #[test]
    fn unknown_key_defaults() {
        let m = Metadata::new(1);
        assert_eq!(m.latest(99), Version::ZERO);
        assert!(m.holders(99).is_empty());
        assert!(m.is_empty());
    }

    #[test]
    fn versions_increase_per_key() {
        let mut m = Metadata::new(1);
        assert_eq!(m.assign(1), Version(1));
        assert_eq!(m.assign(1), Version(2));
        assert_eq!(m.assign(2), Version(1), "keys are independent");
        assert_eq!(m.latest(1), Version(2));
        assert_eq!(m.latest(9), Version::ZERO);
    }

    #[test]
    fn observe_fast_forwards_but_never_rewinds() {
        let mut m = Metadata::new(1);
        m.reconstruct([(5, Version(10), NodeId(0))]);
        assert_eq!(m.assign(5), Version(11));
        m.reconstruct([(5, Version(3), NodeId(0))]);
        assert_eq!(m.assign(5), Version(12), "a stale scan must not rewind");
    }

    #[test]
    fn reconstruction_scenario_issues_fresh_versions() {
        // Coordinator dies; replacement scans the persistent layer and
        // folds in the highest stored versions, then continues the stream.
        let mut original = Metadata::new(1);
        for _ in 0..7 {
            original.assign(42);
        }
        let mut replacement = Metadata::new(1);
        replacement.reconstruct([(42, original.latest(42), NodeId(3))]);
        assert_eq!(replacement.assign(42), Version(8));
    }

    #[test]
    fn key_count_tracks_distinct_keys() {
        let mut m = Metadata::new(1);
        m.assign(1);
        m.assign(1);
        m.assign(2);
        assert_eq!(m.len(), 2);
    }
}
