//! The per-key version oracle: latest *acknowledged* version per key.
//!
//! The scenario plane's phase engine attributes read staleness against it
//! while a run executes; the convergence checker keeps the same per-key
//! latest ack in its history index.

use dd_dht::Version;
use std::collections::BTreeMap;

/// Latest acknowledged version per key. Iteration is in key order, so
/// anything derived from a walk over the oracle is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionOracle {
    latest: BTreeMap<String, Version>,
}

impl VersionOracle {
    /// An empty oracle.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an acknowledged write of `key` at `version`.
    pub fn note_ack(&mut self, key: &str, version: Version) {
        match self.latest.get_mut(key) {
            Some(slot) => *slot = (*slot).max(version),
            None => {
                self.latest.insert(key.to_owned(), version);
            }
        }
    }

    /// Latest acknowledged version of `key` ([`Version::ZERO`] when no
    /// write of it was ever acknowledged).
    #[must_use]
    pub fn latest(&self, key: &str) -> Version {
        self.latest.get(key).copied().unwrap_or(Version::ZERO)
    }

    /// Whether a read of `key` returning `version` is stale — older than
    /// a version already acknowledged to some client.
    #[must_use]
    pub fn is_stale(&self, key: &str, version: Version) -> bool {
        version < self.latest(key)
    }

    /// Iterates `(key, latest acked version)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Version)> + '_ {
        self.latest.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of keys with at least one acknowledged write.
    #[must_use]
    pub fn len(&self) -> usize {
        self.latest.len()
    }

    /// Whether no write was ever acknowledged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.latest.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_convergence, Violation};
    use crate::history::{OpDesc, Outcome, Recorder};

    #[test]
    fn acks_ratchet_upward_only() {
        let mut o = VersionOracle::new();
        o.note_ack("k", Version(3));
        o.note_ack("k", Version(1));
        assert_eq!(o.latest("k"), Version(3));
        assert!(o.is_stale("k", Version(2)));
        assert!(!o.is_stale("k", Version(3)));
        assert_eq!(o.latest("unwritten"), Version::ZERO);
    }

    /// The convergence checker's history index folds puts, deletes and
    /// each ordered batch item into the same latest-ack-per-key map this
    /// oracle keeps: an empty snapshot reports every acked key as lost at
    /// exactly the oracle's version, in key order.
    #[test]
    fn from_history_folds_every_ack_kind() {
        let mut rec = Recorder::new();
        rec.invoke(1, 1, 0, OpDesc::Put { key: "a".into(), tag: None });
        rec.complete(1, 5, Outcome::Write { version: Version(1) });
        rec.invoke(2, 1, 6, OpDesc::Delete { key: "a".into() });
        rec.complete(2, 9, Outcome::Write { version: Version(2) });
        let bh = dd_sim::rng::stable_hash(b"b");
        rec.invoke(3, 1, 10, OpDesc::MultiPut { keys: vec!["b".into()], tag: None });
        rec.complete(3, 15, Outcome::MultiPut { versions: vec![(bh, Version(4))], want: 1 });
        // Un-acked ops contribute nothing.
        rec.invoke(4, 1, 16, OpDesc::Put { key: "c".into(), tag: None });
        let lost: Vec<(String, Version)> = check_convergence(&rec.finish(), &[])
            .into_iter()
            .map(|v| match v {
                Violation::LostWrite { key, acked, converged: None, .. } => (key, acked),
                other => panic!("only lost writes: {other:?}"),
            })
            .collect();
        let mut o = VersionOracle::new();
        for (key, version) in [("a", 1), ("a", 2), ("b", 4)] {
            o.note_ack(key, Version(version));
        }
        let expected: Vec<(String, Version)> = o.iter().map(|(k, v)| (k.to_owned(), v)).collect();
        assert_eq!(lost, expected, "key order");
        assert_eq!(lost, vec![("a".into(), Version(2)), ("b".into(), Version(4))]);
    }
}
