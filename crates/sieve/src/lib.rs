//! # dd-sieve — local sieve functions
//!
//! §III-A of the paper: *"Our idea is to address this by means of local
//! sieves that should retain only small fractions of data. Thus upon
//! reception of a new message, nodes locally decide if the message falls
//! into the sieve range … The sieve function can be computed locally in a
//! random fashion or take into account some similarity metric … The only
//! correctness requirement is that all the possibilities in the key space
//! are covered in order to avoid data-loss."*
//!
//! Sieve flavours implemented here, each cited to its motivating sentence:
//!
//! * [`UniformSieve`] — "a simple sieve function could simply store locally
//!   an item with probability given by 1/number of nodes"; the
//!   [`UniformSieve::replication`] constructor generalises to `r/N`.
//! * [`RangeSieve`] — "similar to what is done in structured DHT approaches
//!   where each node is responsible for a given portion of the key space".
//! * [`CapacitySieve`] — "flexibility to cope with nodes with disparate
//!   storage capabilities … adjusting the sieve grain".
//! * [`TagSieve`] — §III-B-1 "smarter sieve functions that … take advantage
//!   of tuple correlation and thus locally co-locate related items";
//!   untagged items home by their key, so the key space stays covered.
//! * [`HistogramSieve`] — §III-B-1 "if data follows a normal distribution,
//!   sieves located near the mean ± standard deviation need to be much
//!   finer than sieves outside that region".
//!
//! [`coverage`] provides the checker for the correctness requirement (full
//! key-space coverage ⇒ no data loss).
//!
//! The store runs three of these: a `dd_core::Placement` builds a range,
//! uniform or tag `dd_core::SieveSpec`, whose closed forms the property
//! tests hold bit-identical to [`RangeSieve`] and [`TagSieve`], and to
//! [`UniformSieve`] plus a home node per key (the store's uniform
//! placement adds the home so no key is dropped by every coin).
//! [`HistogramSieve`] (E08) and [`CapacitySieve`] (E03) are
//! experiment-only: no cluster runs them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod coverage;
pub mod histogram;
pub mod item;
pub mod range;
pub mod tag;
pub mod uniform;

pub use capacity::CapacitySieve;
pub use coverage::{check_coverage, CoverageReport};
pub use histogram::HistogramSieve;
pub use item::ItemMeta;
pub use range::RangeSieve;
pub use tag::TagSieve;
pub use uniform::UniformSieve;

/// A local storage-decision function (the paper's "sieve").
///
/// Implementations must be **deterministic**: the same sieve instance must
/// always give the same answer for the same item, because replicas are
/// located by re-evaluating sieves (never by consulting a directory).
pub trait Sieve {
    /// Whether this node should retain `item`.
    fn accepts(&self, item: &ItemMeta) -> bool;

    /// Expected fraction of a uniform key space this sieve retains — the
    /// paper's "sieve grain".
    fn grain(&self) -> f64;

    /// Stable identifier of the sieve's *class*: two nodes with equal
    /// `class_id` are responsible for the same portion of the key space.
    /// Random-walk redundancy estimation (§III-A) groups nodes by this id
    /// so that "many tuples may be checked at once".
    fn class_id(&self) -> u64;
}
