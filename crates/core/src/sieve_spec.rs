//! Placement: the one place a [`Placement`] becomes each persist node's
//! [`SieveSpec`] and the [`OwnerIndex`] that names a tuple's owners.
//!
//! Repair peers must evaluate *each other's* sieves ("nodes responsible to
//! the same key space … check tuple redundancy directly between them",
//! §III-A), so a node's sieve must be expressible as plain data. A
//! [`SieveSpec`] is that serialisable form.
//!
//! A sieve is asked once per stored tuple per repair round, so evaluation
//! **never allocates and never constructs** a `dd-sieve` object: each
//! answer is a closed form on the spec's own fields, bit-identical to the
//! concrete sieve built from them (the oracle in `tests/properties.rs`).
//! The spec has exactly the three forms a `Placement` builds; the other
//! `dd-sieve` sieves (histogram, capacity) are experiment-only. With
//! `ahead(a, b, m) = (b − a) mod m` and `home(h, n) = TagSieve::home_slot(h, n)`:
//!
//! * `Range { index, of, r }`: hash `h` lies in segment
//!   `min(h / (u64::MAX / of), of − 1)` — the last segment absorbs the
//!   slack through `u64::MAX`; kept iff `ahead(index, segment, of) < r`.
//! * `Uniform { index, r, n }`: `p = min(r / n, 1)`; kept iff `p = 1`,
//!   `mix(h, index) ≤ ⌊p · u64::MAX⌋`, or `index = home(h, n)`. The coin is
//!   `UniformSieve::replication(index, r, n)`; the home keeps the key
//!   whatever the coins say, so a key is never dropped and (for `r < n`)
//!   has `r + 1 − r/n` copies on average.
//! * `Tag { slot, slots, r }`: kept iff `ahead(home(t, slots), slot,
//!   slots) < r`, where `t` is the item's tag hash, or its key hash when
//!   it is untagged.
//!
//! §III-A's one correctness rule — "all the possibilities in the key space
//! are covered in order to avoid data-loss" — therefore holds by
//! construction: `Range` and `Tag` keep every item on exactly `min(r, n)`
//! nodes, and `Uniform` on at least its home.

use crate::tuple::StoredTuple;
use dd_sieve::{ItemMeta, TagSieve};
use dd_sim::rng::{fnv1a, mix};
use dd_sim::NodeId;
use std::ops::Range;

/// Persistent-layer placement strategy: which sieve family every node
/// runs, and therefore how the coordinator can route reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Key-range partition (the default): node `i` of `n` covers segment
    /// `i`, `r`-fold — the paper's "responsible for a given portion of
    /// the key space".
    #[default]
    RangePartition,
    /// Uniform `r/N` acceptance salted by the node's position (the
    /// paper's simplest sieve), plus a home node per key. Placement is
    /// random: correlated reads fan out.
    Uniform,
    /// Tag collocation (§III-B-1): tuples sharing a tag land on the same
    /// `r` slot-owners, and tag-scoped reads are routed to exactly those
    /// nodes. Untagged tuples home by their key.
    TagCollocation,
}

/// A sieve as shippable data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SieveSpec {
    /// `r`-fold key-range partition: this node is segment `index` of `of`.
    Range {
        /// Segment index.
        index: u64,
        /// Number of segments.
        of: u64,
        /// Replication degree.
        r: u32,
    },
    /// Uniform `r/n` acceptance salted by the node's position, plus the
    /// keys whose home is this position.
    Uniform {
        /// This node's position, which is also its salt.
        index: u64,
        /// Replication degree.
        r: u32,
        /// Population size.
        n: u64,
    },
    /// Tag collocation over `slots` slots; untagged items home by key.
    Tag {
        /// This node's slot.
        slot: u64,
        /// Total slots.
        slots: u64,
        /// Replication degree.
        r: u32,
    },
}

/// `(to − from) mod modulus`: how many positions `to` lies past `from`.
fn ahead(from: u64, to: u64, modulus: u64) -> u64 {
    if to >= from {
        to - from
    } else {
        to + (modulus - from)
    }
}

/// `ahead(from, to, modulus) < r`: `to` is one of the `r` positions from `from`.
fn within(from: u64, to: u64, modulus: u64, r: u32) -> bool {
    ahead(from, to, modulus) < u64::from(r)
}

/// The preconditions the concrete constructors assert, at the same words.
fn check(count: u64, r: u32, index: u64) {
    assert!(count > 0, "population must be positive");
    assert!(r > 0, "replication degree must be positive");
    assert!(index < count, "node index out of range");
}

/// The segment of an `of`-way partition that hash `h` falls in.
fn segment_of(h: u64, of: u64) -> u64 {
    (h / (u64::MAX / of)).min(of - 1)
}

/// The slot a tag-collocated item homes at: its tag's, or its key's when
/// it is untagged.
fn tag_home(item: &ItemMeta, slots: u64) -> u64 {
    TagSieve::home_slot(item.tag_hash.unwrap_or(item.key_hash), slots)
}

/// Acceptance probability of the `r/n` uniform coin.
fn uniform_grain(r: u32, n: u64) -> f64 {
    assert!(n > 0, "population estimate must be positive");
    (f64::from(r) / n as f64).min(1.0)
}

/// The uniform coin at position `index`, or the key's home.
fn uniform_accepts(index: u64, r: u32, n: u64, key_hash: u64) -> bool {
    check(n, r, index);
    let p = uniform_grain(r, n);
    p >= 1.0
        || mix(key_hash, index) <= (p * (u64::MAX as f64)) as u64
        || TagSieve::home_slot(key_hash, n) == index
}

/// The merged, ascending hash ranges `[start, end)` a `Range` sieve keeps:
/// one run of `r` segments, two when it wraps past the top of the key space.
fn range_runs(index: u64, of: u64, r: u32) -> impl Iterator<Item = (u64, u64)> {
    check(of, r, index);
    let seg = u64::MAX / of;
    let r = u64::from(r).min(of);
    let runs = if r <= of - index {
        let end = if index + r == of { u64::MAX } else { (index + r) * seg };
        [(index * seg, end), (0, 0)]
    } else if r == of {
        [(0, u64::MAX), (0, 0)]
    } else {
        [(0, (r - (of - index)) * seg), (index * seg, u64::MAX)]
    };
    runs.into_iter().filter(|&(start, end)| end > start)
}

impl SieveSpec {
    /// Whether this sieve retains `item`. Panics where the concrete
    /// constructor would: zero population or replication, index out of range.
    #[must_use]
    pub fn accepts(&self, item: &ItemMeta) -> bool {
        match *self {
            SieveSpec::Range { index, of, r } => {
                check(of, r, index);
                within(index, segment_of(item.key_hash, of), of, r)
            }
            SieveSpec::Uniform { index, r, n } => uniform_accepts(index, r, n, item.key_hash),
            SieveSpec::Tag { slot, slots, r } => {
                check(slots, r, slot);
                within(tag_home(item, slots), slot, slots, r)
            }
        }
    }

    /// The sieve-class id (same semantics as
    /// [`dd_sieve::Sieve::class_id`]): nodes with equal class cover the
    /// same key-space portion and pair up for repair.
    #[must_use]
    pub fn class_id(&self) -> u64 {
        match *self {
            SieveSpec::Range { index, of, r } => range_runs(index, of, r)
                .fold(fnv1a(b"range-sieve"), |acc, (start, end)| mix(acc, mix(start, end))),
            SieveSpec::Uniform { index, .. } => mix(0x5EED, index),
            SieveSpec::Tag { slot, slots, r } => mix(mix(slot, slots), u64::from(r) ^ 0x7A65),
        }
    }

    /// Expected fraction of the key space retained.
    #[must_use]
    pub fn grain(&self) -> f64 {
        match *self {
            SieveSpec::Range { index, of, r } => {
                range_runs(index, of, r).map(|(s, e)| (e - s) as f64).sum::<f64>() / u64::MAX as f64
            }
            // The coin, plus the home's share of what the coin drops.
            SieveSpec::Uniform { r, n, .. } => {
                let p = uniform_grain(r, n);
                p + (1.0 - p) / n as f64
            }
            SieveSpec::Tag { slots, r, .. } => uniform_grain(r, slots),
        }
    }

    /// The default persistent-layer assignment: node `i` of `n` covers
    /// range segment `i` with replication `r` — the paper's "responsible
    /// for a given portion of the key space".
    #[must_use]
    pub fn default_for(i: u64, n: u64, r: u32) -> SieveSpec {
        SieveSpec::Range { index: i, of: n, r }
    }
}

/// The persistent layer as the whole cluster sees it: every persist
/// node's id in position order, the [`Placement`] they run and its
/// replication degree. A cluster builds one and shares it: coordinators
/// route by it, and each replica reads its own sieve and its repair peers
/// from it. Position `i` runs [`OwnerIndex::sieve`]`(i)`, and the inverse
/// map — an item to the peers that keep it — is a closed form too: under
/// `Range` and `Tag` a tuple's owners are one run of `min(r, n)`
/// consecutive positions (O(r) per lookup); under `Uniform`, whose coin
/// has no inverse, each sieve is asked in turn (O(N), allocation-free).
/// Owners come back in peer order. [`OwnerIndex::covers`] is the same
/// closed form run the other way: whether the peers that answered a scan
/// still hold an owner of every tuple.
#[derive(Debug, Default)]
pub struct OwnerIndex {
    /// All persistent-layer node ids, in position order.
    pub(crate) peers: Vec<NodeId>,
    placement: Placement,
    r: u32,
}

impl OwnerIndex {
    /// Indexes a persist population: `peers[i]` runs position `i` of
    /// `placement` at replication `r`. Panics on an empty population or a
    /// zero replication degree.
    #[must_use]
    pub fn new(peers: Vec<NodeId>, placement: Placement, r: u32) -> Self {
        check(peers.len() as u64, r, 0);
        OwnerIndex { peers, placement, r }
    }

    /// The sieve the node at `position` runs. Panics (rather than
    /// mis-route) when `position` lies outside the population.
    #[must_use]
    pub fn sieve(&self, position: usize) -> SieveSpec {
        let (index, n, r) = (position as u64, self.peers.len() as u64, self.r);
        check(n, r, index);
        match self.placement {
            Placement::RangePartition => SieveSpec::Range { index, of: n, r },
            Placement::Uniform => SieveSpec::Uniform { index, r, n },
            Placement::TagCollocation => SieveSpec::Tag { slot: index, slots: n, r },
        }
    }

    /// The `min(r, n)` positions from `first` onward, wrapping, as the run
    /// up to the top of the population and the run wrapped past it.
    fn run_from(&self, first: u64) -> (Range<usize>, Range<usize>) {
        let n = self.peers.len();
        let (first, end) = (first as usize, first as usize + (self.r as usize).min(n));
        (first..end.min(n), 0..end.saturating_sub(n))
    }

    /// The peers whose sieves will keep `tuple`, in peer order. Tombstones
    /// are wanted everywhere (see `PersistNode::wants`), and an empty
    /// layer owns nothing.
    #[must_use]
    pub fn owners_of(&self, tuple: &StoredTuple) -> Vec<NodeId> {
        let n = self.peers.len() as u64;
        if tuple.deleted || n == 0 {
            return self.peers.clone();
        }
        let item = tuple.item_meta();
        let first = match self.placement {
            // A range node keeps the segments from its own onward, so a
            // segment's owners are the positions ending at it.
            Placement::RangePartition => {
                let span = u64::from(self.r).min(n);
                (segment_of(item.key_hash, n) + n + 1 - span) % n
            }
            Placement::TagCollocation => tag_home(&item, n),
            Placement::Uniform => {
                let kept = |&i: &usize| self.sieve(i).accepts(&item);
                return (0..self.peers.len()).filter(kept).map(|i| self.peers[i]).collect();
            }
        };
        let (top, wrapped) = self.run_from(first);
        self.peers[wrapped].iter().chain(&self.peers[top]).copied().collect()
    }

    /// Whether every tuple has an owner outside `silent`, so that a scan or
    /// aggregate the other peers answered is whole. Under `Range` and `Tag`
    /// every position starts some tuple's owner run, so this holds when
    /// each run has a position that is not silent. Under `Uniform` any
    /// silent peer may be some key's only owner, so it holds only when
    /// `silent` is empty — or when `r ≥ n` puts every key on every peer,
    /// where one run spans them all.
    #[must_use]
    pub fn covers(&self, silent: &[NodeId]) -> bool {
        let n = self.peers.len();
        if silent.is_empty() {
            return true;
        }
        if self.placement == Placement::Uniform && (self.r as usize) < n {
            return false;
        }
        let dark: Vec<bool> = self.peers.iter().map(|p| silent.contains(p)).collect();
        (0..n as u64).all(|first| {
            let (top, wrapped) = self.run_from(first);
            !dark[top].iter().chain(&dark[wrapped]).all(|&d| d)
        })
    }

    /// The peers a read of everything tagged `tag_hash` asks. Under
    /// `TagCollocation`, the tag's home slot and the `r − 1` slots after
    /// it, in that slot order (wrapping). Otherwise every peer, in peer
    /// order.
    #[must_use]
    pub fn tag_targets(&self, tag_hash: u64) -> Vec<NodeId> {
        if self.placement != Placement::TagCollocation {
            return self.peers.clone();
        }
        let (top, wrapped) = self.run_from(TagSieve::home_slot(tag_hash, self.peers.len() as u64));
        self.peers[top].iter().chain(&self.peers[wrapped]).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_sieve::{RangeSieve, Sieve, UniformSieve};

    fn item(key: &str) -> ItemMeta {
        ItemMeta::from_key(key.as_bytes())
    }

    #[test]
    fn range_spec_matches_concrete_sieve() {
        let spec = SieveSpec::Range { index: 2, of: 8, r: 3 };
        let concrete = RangeSieve::partition(2, 8, 3);
        for k in 0..200 {
            let it = item(&format!("k{k}"));
            assert_eq!(spec.accepts(&it), concrete.accepts(&it));
        }
        assert_eq!(spec.class_id(), concrete.class_id());
        assert!((spec.grain() - concrete.grain()).abs() < 1e-12);
    }

    #[test]
    fn uniform_spec_matches_concrete_sieve() {
        let spec = SieveSpec::Uniform { index: 9, r: 4, n: 100 };
        let concrete = UniformSieve::replication(9, 4, 100);
        for k in 0..200 {
            let it = item(&format!("u{k}"));
            let home = TagSieve::home_slot(it.key_hash, 100) == 9;
            assert_eq!(spec.accepts(&it), concrete.accepts(&it) || home);
        }
        assert_eq!(spec.class_id(), concrete.class_id());
    }

    #[test]
    fn a_spec_fits_in_24_bytes() {
        assert!(std::mem::size_of::<SieveSpec>() <= 24, "{}", std::mem::size_of::<SieveSpec>());
    }

    #[test]
    fn default_population_covers_key_space_r_times() {
        let n = 10u64;
        let r = 3u32;
        let specs: Vec<SieveSpec> = (0..n).map(|i| SieveSpec::default_for(i, n, r)).collect();
        for k in 0..500 {
            let it = item(&format!("cover{k}"));
            let owners = specs.iter().filter(|s| s.accepts(&it)).count();
            assert_eq!(owners, r as usize);
        }
    }

    #[test]
    fn same_range_specs_share_class() {
        let a = SieveSpec::Range { index: 1, of: 4, r: 2 };
        let b = SieveSpec::Range { index: 1, of: 4, r: 2 };
        let c = SieveSpec::Range { index: 2, of: 4, r: 2 };
        assert_eq!(a.class_id(), b.class_id());
        assert_ne!(a.class_id(), c.class_id());
    }

    #[test]
    fn tag_spec_collocates() {
        let n = 20u64;
        let specs: Vec<SieveSpec> =
            (0..n).map(|s| SieveSpec::Tag { slot: s, slots: n, r: 2 }).collect();
        let a = ItemMeta::from_key(b"p1").with_tag(b"feed:x");
        let b = ItemMeta::from_key(b"p2").with_tag(b"feed:x");
        let oa: Vec<usize> =
            specs.iter().enumerate().filter(|(_, s)| s.accepts(&a)).map(|(i, _)| i).collect();
        let ob: Vec<usize> =
            specs.iter().enumerate().filter(|(_, s)| s.accepts(&b)).map(|(i, _)| i).collect();
        assert_eq!(oa, ob);
        assert_eq!(oa.len(), 2);
    }
}
