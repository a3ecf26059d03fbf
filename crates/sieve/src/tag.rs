//! Correlation (tag) sieves — collocating related tuples.
//!
//! §III-B-1: *"The most straightforward approach to item co-location is by
//! using smarter sieve functions that, instead of blindly keeping items
//! based on a key, are able to take advantage of tuple correlation and thus
//! locally co-locate related items."*
//!
//! A [`TagSieve`] deterministically maps each *tag* (e.g. "user 42's
//! timeline") to `r` of `n` tag-slots and accepts an item iff the node owns
//! the item's tag slot. All items sharing a tag therefore land on the same
//! `r` nodes — collocation — while an untagged item homes by its key hash
//! the same way, so the key space stays covered: every item has exactly
//! `min(r, n)` owners.

use crate::{ItemMeta, Sieve};
use dd_sim::rng::mix;

/// Sieve that collocates equal-tag items on the same nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagSieve {
    /// This node's slot index in `0..slots`.
    slot: u64,
    /// Number of tag slots (usually the population estimate).
    slots: u64,
    /// Replication degree: a tag maps to `r` consecutive slots.
    r: u32,
}

impl TagSieve {
    /// Creates the sieve for slot `slot` of `slots`, with tag replication
    /// `r`; an untagged item is placed as if its key hash were its tag.
    ///
    /// # Panics
    /// Panics if `slots == 0`, `r == 0` or `slot >= slots`.
    #[must_use]
    pub fn new(slot: u64, slots: u64, r: u32) -> Self {
        assert!(slots > 0, "slot count must be positive");
        assert!(r > 0, "replication degree must be positive");
        assert!(slot < slots, "slot out of range");
        TagSieve { slot, slots, r }
    }

    /// The first of a tag's `r` consecutive slots; panics if `slots == 0`.
    #[must_use]
    pub fn home_slot(tag_hash: u64, slots: u64) -> u64 {
        assert!(slots > 0, "slot count must be positive");
        mix(tag_hash, 0x7A6) % slots
    }

    /// The slots a tag hashes to under a `(slots, r)` population — the
    /// *routing view* of the collocation invariant. A coordinator that
    /// knows the population parameters can name a tag's `r` owners without
    /// holding any sieve instance, which is what lets a tag-scoped read
    /// contact exactly those nodes instead of fanning out.
    ///
    /// # Panics
    /// Panics if `slots == 0`.
    #[must_use]
    pub fn tag_slots(tag_hash: u64, slots: u64, r: u32) -> Vec<u64> {
        let home = Self::home_slot(tag_hash, slots);
        (0..u64::from(r).min(slots)).map(|k| (home + k) % slots).collect()
    }

    /// The slots a tag hashes to (its `r` consecutive owners).
    #[must_use]
    pub fn slots_for_tag(&self, tag_hash: u64) -> Vec<u64> {
        Self::tag_slots(tag_hash, self.slots, self.r)
    }

    /// Whether this node owns `tag_hash`, without materialising its slots.
    #[must_use]
    pub fn owns_tag(&self, tag_hash: u64) -> bool {
        let home = Self::home_slot(tag_hash, self.slots);
        let ahead =
            if self.slot >= home { self.slot - home } else { self.slot + (self.slots - home) };
        ahead < u64::from(self.r)
    }
}

impl Sieve for TagSieve {
    fn accepts(&self, item: &ItemMeta) -> bool {
        self.owns_tag(item.tag_hash.unwrap_or(item.key_hash))
    }

    fn grain(&self) -> f64 {
        (f64::from(self.r) / self.slots as f64).min(1.0)
    }

    fn class_id(&self) -> u64 {
        mix(mix(self.slot, self.slots), u64::from(self.r) ^ 0x7A65)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_tags_collocate_on_identical_nodes() {
        let n = 50u64;
        let r = 3u32;
        let sieves: Vec<TagSieve> = (0..n).map(|i| TagSieve::new(i, n, r)).collect();
        let a = ItemMeta::from_key(b"post-1").with_tag(b"feed:alice");
        let b = ItemMeta::from_key(b"post-2").with_tag(b"feed:alice");
        let owners_a: Vec<u64> = (0..n).filter(|&i| sieves[i as usize].accepts(&a)).collect();
        let owners_b: Vec<u64> = (0..n).filter(|&i| sieves[i as usize].accepts(&b)).collect();
        assert_eq!(owners_a, owners_b, "same tag ⇒ same nodes");
        assert_eq!(owners_a.len(), r as usize);
    }

    #[test]
    fn different_tags_usually_differ() {
        let n = 50u64;
        let sieves: Vec<TagSieve> = (0..n).map(|i| TagSieve::new(i, n, 2)).collect();
        let mut distinct = 0;
        for t in 0..50u32 {
            let x = ItemMeta::from_key(b"k").with_tag(format!("tag-{t}").as_bytes());
            let y = ItemMeta::from_key(b"k").with_tag(format!("tag-{}", t + 1).as_bytes());
            let ox: Vec<u64> = (0..n).filter(|&i| sieves[i as usize].accepts(&x)).collect();
            let oy: Vec<u64> = (0..n).filter(|&i| sieves[i as usize].accepts(&y)).collect();
            if ox != oy {
                distinct += 1;
            }
        }
        assert!(distinct >= 45, "tags should spread: only {distinct}/50 differ");
    }

    #[test]
    fn untagged_items_home_by_their_key() {
        let (n, r) = (200u64, 4u32);
        let sieves: Vec<TagSieve> = (0..n).map(|i| TagSieve::new(i, n, r)).collect();
        for i in 0..2_000u64 {
            let item = ItemMeta::from_key(format!("plain-{i}").as_bytes());
            let owners: Vec<u64> = (0..n).filter(|&s| sieves[s as usize].accepts(&item)).collect();
            let mut want = TagSieve::tag_slots(item.key_hash, n, r);
            want.sort_unstable();
            assert_eq!(owners, want, "an untagged item is kept where its key hash homes");
        }
    }

    #[test]
    fn tag_load_is_balanced_across_slots() {
        let n = 40u64;
        let sieves: Vec<TagSieve> = (0..n).map(|i| TagSieve::new(i, n, 1)).collect();
        let mut load = vec![0u32; n as usize];
        for t in 0..4_000u32 {
            let item = ItemMeta::from_key(b"x").with_tag(format!("g{t}").as_bytes());
            for (i, s) in sieves.iter().enumerate() {
                if s.accepts(&item) {
                    load[i] += 1;
                }
            }
        }
        let max = *load.iter().max().unwrap();
        let min = *load.iter().min().unwrap();
        assert!(max < 3 * min.max(1), "tag slots unbalanced: min {min} max {max}");
    }

    #[test]
    fn routing_view_matches_instance_view() {
        for tag in 0..200u64 {
            let s = TagSieve::new(3, 17, 4);
            assert_eq!(s.slots_for_tag(tag), TagSieve::tag_slots(tag, 17, 4));
        }
    }

    #[test]
    fn owns_tag_is_membership_in_the_routing_view() {
        for (slots, r) in [(1u64, 1u32), (1, 4), (5, 5), (5, 9), (17, 4), (64, 3)] {
            for slot in 0..slots {
                let s = TagSieve::new(slot, slots, r);
                for tag in 0..300u64 {
                    let tag_hash = mix(tag, 0xC0FFEE);
                    assert_eq!(s.owns_tag(tag_hash), s.slots_for_tag(tag_hash).contains(&slot));
                }
            }
        }
    }

    #[test]
    fn grain_is_r_over_slots() {
        let s = TagSieve::new(0, 100, 5);
        assert!((s.grain() - 0.05).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "slot out of range")]
    fn bad_slot_panics() {
        let _ = TagSieve::new(10, 10, 1);
    }
}
