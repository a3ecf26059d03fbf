//! The tuple data model.
//!
//! DataDroplets stores *tuples*: a string key, an opaque value, and two
//! optional pieces of metadata the paper's placement strategies exploit —
//! a numeric attribute (distribution-aware sieves, ordered overlays,
//! §III-B) and a correlation tag (collocation sieves, §III-B-1).
//!
//! Keys and tags are *interned*: the text lives behind a shared
//! [`Arc<str>`] and its position in the hashed key space is computed once
//! at construction. Cloning a [`Key`] or [`Tag`] — which the message
//! plane does on every dissemination hop, delivery batch and repair
//! exchange — is a reference-count bump, not a heap allocation, and
//! [`Key::hash`] is a field read. Equality, ordering and `Hash` are
//! defined on the text, so interned keys behave exactly like the
//! `String`-backed keys they replaced.

use bytes::Bytes;
use dd_dht::Version;
use dd_sieve::ItemMeta;
use dd_sim::rng::{mix, stable_hash};
use std::sync::Arc;

/// Defines an interned-text type: UTF-8 text behind a shared `Arc<str>`
/// plus its `stable_hash`, computed once. Equality, ordering and `Hash`
/// are on the text (with an `Arc::ptr_eq` fast path), so the type behaves
/// exactly like the `String` it stands for.
macro_rules! interned_text {
    ($(#[$doc:meta])* $name:ident, $what:literal) => {
        $(#[$doc])*
        #[derive(Clone)]
        pub struct $name {
            text: Arc<str>,
            hash: u64,
        }

        impl $name {
            #[doc = concat!("Interns `text` as a ", $what, ", hashing it once.")]
            #[must_use]
            pub fn new(text: impl Into<Arc<str>>) -> Self {
                let text = text.into();
                let hash = stable_hash(text.as_bytes());
                $name { text, hash }
            }

            #[doc = concat!("The ", $what, "'s position in the hashed ", $what, " space (cached).")]
            #[must_use]
            pub fn hash(&self) -> u64 {
                self.hash
            }

            #[doc = concat!("The ", $what, " text.")]
            #[must_use]
            pub fn as_str(&self) -> &str {
                &self.text
            }
        }

        impl PartialEq for $name {
            fn eq(&self, other: &Self) -> bool {
                Arc::ptr_eq(&self.text, &other.text)
                    || (self.hash == other.hash && self.text == other.text)
            }
        }

        impl Eq for $name {}

        impl PartialOrd for $name {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        impl Ord for $name {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                if Arc::ptr_eq(&self.text, &other.text) {
                    std::cmp::Ordering::Equal
                } else {
                    self.text.cmp(&other.text)
                }
            }
        }

        impl std::hash::Hash for $name {
            fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
                self.text.hash(state);
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_tuple(stringify!($name)).field(&self.text).finish()
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                $name::new(s)
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                $name::new(s)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(&self.text)
            }
        }
    };
}

interned_text!(
    /// A tuple key: UTF-8 text hashed to a uniform 64-bit key space. The
    /// text is interned (`Arc<str>`) and the hash cached, so clones are
    /// cheap and hot-path routing never re-hashes.
    Key,
    "key"
);

interned_text!(
    /// A correlation tag, interned like [`Key`]: shared text, hash computed
    /// once. Batched writes clone the batch's tag into every item and the
    /// write path hashes it for slot routing — both O(1).
    Tag,
    "tag"
);

/// A client-supplied tuple for batched writes ([`crate::Client::multi_put`]):
/// everything a write needs *except* the version, which the key's
/// soft-layer coordinator assigns when the batch is split and routed.
#[derive(Debug, Clone, PartialEq)]
pub struct TupleSpec {
    /// The key.
    pub key: Key,
    /// Opaque payload.
    pub value: Bytes,
    /// Optional numeric attribute.
    pub attr: Option<f64>,
    /// Optional correlation tag (shared by the batch in the mput of the
    /// social-feed workload, but free per item).
    pub tag: Option<Tag>,
}

impl TupleSpec {
    /// Builds a batch item.
    #[must_use]
    pub fn new(
        key: impl Into<Key>,
        value: impl Into<Bytes>,
        attr: Option<f64>,
        tag: Option<&str>,
    ) -> Self {
        TupleSpec { key: key.into(), value: value.into(), attr, tag: tag.map(Tag::from) }
    }
}

/// A versioned tuple as held by the persistent layer.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredTuple {
    /// The key.
    pub key: Key,
    /// Cached `key.hash()` (hot path: sieves, routing).
    pub key_hash: u64,
    /// Write version assigned by the soft-state layer.
    pub version: Version,
    /// Opaque payload; empty for tombstones.
    pub value: Bytes,
    /// Optional numeric attribute.
    pub attr: Option<f64>,
    /// Optional correlation-tag hash.
    pub tag_hash: Option<u64>,
    /// Tombstone marker (deletes are versioned writes, §III "simple read
    /// and write operations … ordered and identified with a request
    /// version").
    pub deleted: bool,
}

impl StoredTuple {
    /// Builds a live tuple.
    #[must_use]
    pub fn new(
        key: Key,
        version: Version,
        value: impl Into<Bytes>,
        attr: Option<f64>,
        tag: Option<&str>,
    ) -> Self {
        let key_hash = key.hash();
        StoredTuple {
            key,
            key_hash,
            version,
            value: value.into(),
            attr,
            tag_hash: tag.map(|t| stable_hash(t.as_bytes())),
            deleted: false,
        }
    }

    /// Builds a live tuple from a batch item, reusing the spec's interned
    /// key and cached hashes (no re-hashing on the write path).
    #[must_use]
    pub fn from_spec(spec: TupleSpec, version: Version) -> Self {
        let key_hash = spec.key.hash();
        StoredTuple {
            key: spec.key,
            key_hash,
            version,
            value: spec.value,
            attr: spec.attr,
            tag_hash: spec.tag.as_ref().map(Tag::hash),
            deleted: false,
        }
    }

    /// Builds a tombstone superseding earlier versions of `key`.
    #[must_use]
    pub fn tombstone(key: Key, version: Version) -> Self {
        let key_hash = key.hash();
        StoredTuple {
            key,
            key_hash,
            version,
            value: Bytes::new(),
            attr: None,
            tag_hash: None,
            deleted: true,
        }
    }

    /// The sieve-visible projection.
    #[must_use]
    pub fn item_meta(&self) -> ItemMeta {
        ItemMeta { key_hash: self.key_hash, attr: self.attr, tag_hash: self.tag_hash }
    }

    /// Unique dissemination id of this write: one rumor per
    /// `(key, version, content)`. Content is part of the identity so that
    /// two *different* writes issued under the same version — possible
    /// only after the version authority is lost (a soft-layer wipe
    /// without rebuild) — are distinct rumors: each spreads and lands in
    /// digests on its own, letting [`StoredTuple::supersedes`] pick one
    /// winner everywhere instead of first-arrival deciding per node.
    #[must_use]
    pub fn rumor_id(&self) -> u64 {
        mix(mix(self.key_hash, self.version.0 ^ 0xD0_1E7), self.content_hash())
    }

    /// Stable hash of everything but the key and version: payload,
    /// attribute, tag and the tombstone flag.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut h = stable_hash(&self.value);
        h = mix(h, self.attr.map_or(0x0A_77_12, f64::to_bits));
        h = mix(h, self.tag_hash.unwrap_or(0x7A_6F_FF));
        mix(h, u64::from(self.deleted))
    }

    /// The replica merge rule: whether this copy of a key must replace
    /// `other`. Higher version wins. On a version tie — which only
    /// happens when the version authority was lost and re-issued a used
    /// version — the tombstone wins, then the higher content hash: a
    /// total, deterministic order, so every replica picks the same winner
    /// regardless of delivery order and the layer reconverges instead of
    /// diverging on first-arrival.
    #[must_use]
    pub fn supersedes(&self, other: &StoredTuple) -> bool {
        if self.version != other.version {
            return self.version > other.version;
        }
        if self.deleted != other.deleted {
            return self.deleted;
        }
        self.content_hash() > other.content_hash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_hash_is_stable_and_discriminating() {
        assert_eq!(Key::from("a").hash(), Key::from("a").hash());
        assert_ne!(Key::from("a").hash(), Key::from("b").hash());
        // The cached hash is the stable hash of the text — identical to
        // what the String-backed keys computed per call.
        assert_eq!(Key::from("a").hash(), stable_hash(b"a"));
    }

    #[test]
    fn key_conversions_and_display() {
        let k: Key = "users:7".into();
        assert_eq!(k.to_string(), "users:7");
        let k2: Key = String::from("users:7").into();
        assert_eq!(k, k2);
        assert_eq!(k.as_str(), "users:7");
    }

    #[test]
    fn interned_keys_compare_like_strings() {
        let mut keys: Vec<Key> = ["b", "a", "ab", "a", ""].iter().map(|&s| Key::from(s)).collect();
        keys.sort();
        let texts: Vec<&str> = keys.iter().map(Key::as_str).collect();
        assert_eq!(texts, vec!["", "a", "a", "ab", "b"]);
        // Clones share the interned text and stay equal.
        let k = Key::from("x");
        assert_eq!(k, k.clone());
    }

    #[test]
    fn interned_key_std_hash_matches_text_hash() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash_of = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            h(&mut s);
            s.finish()
        };
        let k = Key::from("user:1");
        let s = String::from("user:1");
        // UFCS: the inherent `Key::hash()` (cached u64) shadows the trait
        // method in method-call position.
        assert_eq!(hash_of(&|h| Hash::hash(&k, h)), hash_of(&|h| Hash::hash(&s, h)));
    }

    #[test]
    fn tags_intern_like_keys() {
        let t = Tag::from("feed:3");
        assert_eq!(t.hash(), stable_hash(b"feed:3"));
        assert_eq!(t.as_str(), "feed:3");
        assert_eq!(t.to_string(), "feed:3");
        assert_eq!(t, t.clone());
        assert_ne!(Tag::from("feed:3"), Tag::from("feed:4"));
        assert!(Tag::from("a") < Tag::from("b"));
    }

    #[test]
    fn debug_renders_the_type_and_its_text() {
        assert_eq!(format!("{:?}", Key::from("users:7")), "Key(\"users:7\")");
        assert_eq!(format!("{:?}", Tag::from("feed:3")), "Tag(\"feed:3\")");
        assert_eq!(Key::new("x").hash(), Tag::new("x").hash(), "one hash for both types");
    }

    #[test]
    fn stored_tuple_caches_key_hash() {
        let t = StoredTuple::new("x".into(), Version(1), b"v".to_vec(), Some(2.0), Some("g"));
        assert_eq!(t.key_hash, t.key.hash());
        assert!(!t.deleted);
        assert_eq!(t.item_meta().attr, Some(2.0));
        assert!(t.item_meta().tag_hash.is_some());
    }

    #[test]
    fn from_spec_reuses_cached_hashes() {
        let spec = TupleSpec::new("s", b"v".to_vec(), Some(1.0), Some("g"));
        let direct = StoredTuple::new("s".into(), Version(3), b"v".to_vec(), Some(1.0), Some("g"));
        let via_spec = StoredTuple::from_spec(spec, Version(3));
        assert_eq!(via_spec, direct);
    }

    #[test]
    fn tombstone_is_empty_and_marked() {
        let t = StoredTuple::tombstone("gone".into(), Version(4));
        assert!(t.deleted);
        assert!(t.value.is_empty());
        assert_eq!(t.version, Version(4));
    }

    #[test]
    fn a_version_tie_goes_to_the_tombstone_then_the_higher_content_hash() {
        let [a, b] =
            [b"a", b"b"].map(|v| StoredTuple::new("k".into(), Version(3), v.to_vec(), None, None));
        let (high, low) = if a.content_hash() > b.content_hash() { (&a, &b) } else { (&b, &a) };
        assert!(high.supersedes(low) && !low.supersedes(high));
        let dead = StoredTuple::tombstone("k".into(), Version(3));
        for live in [&a, &b] {
            assert!(dead.supersedes(live) && !live.supersedes(&dead), "the tombstone wins");
        }
        assert!(!a.supersedes(&a), "a copy never replaces itself");
        let newer = StoredTuple::new("k".into(), Version(4), b"c".to_vec(), None, None);
        assert!(newer.supersedes(&dead) && !dead.supersedes(&newer), "versions come first");
    }

    #[test]
    fn rumor_ids_are_unique_per_key_version() {
        let a1 = StoredTuple::new("a".into(), Version(1), b"".to_vec(), None, None);
        let a2 = StoredTuple::new("a".into(), Version(2), b"".to_vec(), None, None);
        let b1 = StoredTuple::new("b".into(), Version(1), b"".to_vec(), None, None);
        assert_ne!(a1.rumor_id(), a2.rumor_id());
        assert_ne!(a1.rumor_id(), b1.rumor_id());
        assert_eq!(a1.rumor_id(), a1.clone().rumor_id());
    }
}
