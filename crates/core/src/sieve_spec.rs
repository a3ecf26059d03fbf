//! Wire-format sieve descriptions, and the [`OwnerIndex`] compiled from them.
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
//! With `ahead(a, b, m) = (b − a) mod m`:
//!
//! * `Range { index, of, r }`: hash `h` lies in segment
//!   `min(h / (u64::MAX / of), of − 1)` — the last segment absorbs the
//!   slack through `u64::MAX`; kept iff `ahead(index, segment, of) < r`.
//! * `Uniform { salt, r, n }`: `p = min(r / n, 1)`; kept iff `p = 1` or
//!   `mix(h, salt) ≤ ⌊p · u64::MAX⌋`.
//! * `Tag { slot, slots, r }`: kept iff `ahead(home, slot, slots) < r` for
//!   the tag's `TagSieve::home_slot`; untagged items use the uniform form
//!   with `salt = slot`, `n = slots`.
//! * `Histogram { edges, index, r }`: with `B = edges.len() + 1`, kept iff
//!   `ahead(index, bucket, B) < r` for `bucket = partition_point(e ≤ attr)`
//!   on the *borrowed* edges, which must be finite and ascending (checked
//!   by `HistogramSieve::new`, not re-walked per call); items without the
//!   attribute use the uniform form with `salt = index ^ 0x41B0`, `n = B`.

use crate::tuple::StoredTuple;
use dd_sieve::{ItemMeta, TagSieve};
use dd_sim::rng::{fnv1a, mix};
use dd_sim::NodeId;

/// A sieve as shippable data.
#[derive(Debug, Clone, PartialEq)]
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
    /// Uniform `r/n` acceptance with a per-node salt.
    Uniform {
        /// Node salt.
        salt: u64,
        /// Replication degree.
        r: u32,
        /// Population estimate.
        n: u64,
    },
    /// Tag collocation over `slots` slots (untagged items fall back to
    /// uniform `r/slots`).
    Tag {
        /// This node's slot.
        slot: u64,
        /// Total slots.
        slots: u64,
        /// Replication degree.
        r: u32,
    },
    /// Distribution-aware: equi-depth bucket ownership in the value domain.
    Histogram {
        /// Interior bucket edges (ascending).
        edges: Vec<f64>,
        /// Starting bucket index.
        index: usize,
        /// Replication degree (consecutive buckets).
        r: u32,
    },
}

/// `ahead(from, to, modulus) < r`: `to` is one of the `r` positions from `from`.
fn within(from: u64, to: u64, modulus: u64, r: u32) -> bool {
    let ahead = if to >= from { to - from } else { to + (modulus - from) };
    ahead < u64::from(r)
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

/// Acceptance probability of the `r/n` uniform sieve.
fn uniform_grain(r: u32, n: u64) -> f64 {
    assert!(n > 0, "population estimate must be positive");
    (f64::from(r) / n as f64).min(1.0)
}

fn uniform_accepts(salt: u64, r: u32, n: u64, key_hash: u64) -> bool {
    let p = uniform_grain(r, n);
    p >= 1.0 || mix(key_hash, salt) <= (p * (u64::MAX as f64)) as u64
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
            SieveSpec::Uniform { salt, r, n } => uniform_accepts(salt, r, n, item.key_hash),
            SieveSpec::Tag { slot, slots, r } => {
                check(slots, r, slot);
                match item.tag_hash {
                    Some(tag) => within(TagSieve::home_slot(tag, slots), slot, slots, r),
                    None => uniform_accepts(slot, r, slots, item.key_hash),
                }
            }
            SieveSpec::Histogram { ref edges, index, r } => {
                let (index, buckets) = (index as u64, edges.len() as u64 + 1);
                check(buckets, r, index);
                match item.attr {
                    Some(a) => within(index, edges.partition_point(|&e| e <= a) as u64, buckets, r),
                    None => uniform_accepts(index ^ 0x41B0, r, buckets, item.key_hash),
                }
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
            SieveSpec::Uniform { salt, .. } => mix(0x5EED, salt),
            SieveSpec::Tag { slot, slots, r } => mix(mix(slot, slots), u64::from(r) ^ 0x7A65),
            SieveSpec::Histogram { ref edges, index, r } => {
                let (index, buckets) = (index as u64, edges.len() as u64 + 1);
                check(buckets, r, index);
                (0..u64::from(r).min(buckets))
                    .fold(mix(0x41B0, buckets), |acc, k| mix(acc, (index + k) % buckets))
            }
        }
    }

    /// Expected fraction of the key space retained.
    #[must_use]
    pub fn grain(&self) -> f64 {
        match *self {
            SieveSpec::Range { index, of, r } => {
                range_runs(index, of, r).map(|(s, e)| (e - s) as f64).sum::<f64>() / u64::MAX as f64
            }
            SieveSpec::Uniform { r, n, .. } => uniform_grain(r, n),
            SieveSpec::Tag { slots, r, .. } => uniform_grain(r, slots),
            SieveSpec::Histogram { ref edges, r, .. } => {
                let buckets = edges.len() as u64 + 1;
                u64::from(r).min(buckets) as f64 / buckets as f64
            }
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

/// The persistent layer as a coordinator sees it: every persist node's id
/// and sieve, plus the inverse map from an item to the peers that keep it.
/// A homogeneous `Range` population is tabled by segment and a homogeneous
/// `Tag` population by tag home slot (O(r) per lookup); `Uniform`,
/// `Histogram`, mixed populations and untagged items under `Tag` ask each
/// sieve in turn (O(N), allocation-free). Owners come back in peer order.
#[derive(Debug, Default)]
pub struct OwnerIndex {
    /// All persistent-layer node ids.
    pub(crate) peers: Vec<NodeId>,
    /// The sieve each peer runs, parallel to `peers`.
    pub(crate) sieves: Vec<SieveSpec>,
    /// Bucket → owners in peer order; empty when the population has none.
    table: Vec<Vec<NodeId>>,
    /// The buckets are tag home slots (else key-hash segments).
    by_tag: bool,
}

impl OwnerIndex {
    /// Indexes a persist population; `peers[i]` runs `sieves[i]`. Panics
    /// (rather than mis-route) when the lists are not parallel or a tabled
    /// sieve's position lies outside its population.
    #[must_use]
    pub fn new(peers: Vec<NodeId>, sieves: Vec<SieveSpec>) -> Self {
        assert_eq!(sieves.len(), peers.len(), "one sieve per persist peer");
        let (by_tag, table) = Self::tabulate(&peers, &sieves).unwrap_or_default();
        OwnerIndex { peers, sieves, table, by_tag }
    }

    fn tabulate(peers: &[NodeId], sieves: &[SieveSpec]) -> Option<(bool, Vec<Vec<NodeId>>)> {
        // `((by_tag, buckets, r), position)` of a sieve that has buckets.
        let shape = |sieve: &SieveSpec| match *sieve {
            SieveSpec::Range { index, of, r } => Some(((false, of, r), index)),
            SieveSpec::Tag { slot, slots, r } => Some(((true, slots, r), slot)),
            _ => None,
        };
        let (population @ (by_tag, buckets, r), _) = shape(sieves.first()?)?;
        // A table far larger than the lists it indexes is not worth having.
        let alike = |sieve| shape(sieve).is_some_and(|(p, _)| p == population);
        if !sieves.iter().all(alike) || buckets > 4 * peers.len() as u64 {
            return None;
        }
        // A range node keeps the `span` segments from its own onward, a tag
        // node the tags whose home is at most `span − 1` slots behind it.
        let span = u64::from(r).min(buckets);
        let mut table = vec![Vec::new(); buckets as usize];
        for (&peer, sieve) in peers.iter().zip(sieves) {
            let (_, at) = shape(sieve).expect("alike");
            check(buckets, r, at);
            let first = if by_tag { at + buckets - (span - 1) } else { at };
            for k in 0..span {
                table[((first + k) % buckets) as usize].push(peer);
            }
        }
        Some((by_tag, table))
    }

    /// The peers whose sieves will keep `tuple`, in peer order. Tombstones
    /// are wanted everywhere (see `PersistNode::wants`).
    #[must_use]
    pub fn owners_of(&self, tuple: &StoredTuple) -> Vec<NodeId> {
        if tuple.deleted {
            return self.peers.clone();
        }
        let item = tuple.item_meta();
        let buckets = self.table.len() as u64;
        let bucket = match (buckets, self.by_tag) {
            (0, _) => None,
            (_, true) => item.tag_hash.map(|tag| TagSieve::home_slot(tag, buckets)),
            (_, false) => Some(segment_of(item.key_hash, buckets)),
        };
        match bucket {
            Some(bucket) => self.table[bucket as usize].clone(),
            None => self
                .peers
                .iter()
                .zip(&self.sieves)
                .filter(|(_, sieve)| sieve.accepts(&item))
                .map(|(&peer, _)| peer)
                .collect(),
        }
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
        let spec = SieveSpec::Uniform { salt: 9, r: 4, n: 100 };
        let concrete = UniformSieve::replication(9, 4, 100);
        for k in 0..200 {
            let it = item(&format!("u{k}"));
            assert_eq!(spec.accepts(&it), concrete.accepts(&it));
        }
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
    fn histogram_spec_accepts_by_attr() {
        let spec = SieveSpec::Histogram { edges: vec![10.0, 20.0], index: 1, r: 1 };
        let mid = ItemMeta::from_key(b"m").with_attr(15.0);
        let low = ItemMeta::from_key(b"l").with_attr(5.0);
        assert!(spec.accepts(&mid));
        assert!(!spec.accepts(&low));
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
