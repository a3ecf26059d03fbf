//! Request ordering: the per-key write version.
//!
//! §II: the soft-state layer resolves write conflicts by "a careful
//! ordering of requests", and the persistent layer's *only* assumption is
//! "that write operations are correctly ordered by the soft-state layer"
//! (§II). The coordinator (primary ring owner of a key) assigns strictly
//! increasing versions with [`crate::Metadata::assign`].

/// A per-key, totally ordered write version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(pub u64);

impl Version {
    /// The version before any write.
    pub const ZERO: Version = Version(0);

    /// The next version.
    #[must_use]
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }
}

impl std::fmt::Display for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_ordering_and_display() {
        assert!(Version(2) > Version(1));
        assert_eq!(Version(1).next(), Version(2));
        assert_eq!(Version(3).to_string(), "v3");
    }
}
