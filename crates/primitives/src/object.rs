//! Object traits shared by the primitive and composite algorithms.

use rtas_sim::protocol::Protocol;

/// A leader-election object with a fixed, small number of named roles.
///
/// The 2- and 3-process elections used inside RatRace address participants
/// by *role* (e.g. "left child winner" vs "splitter winner"), and each role
/// may be used by at most one process per execution — the structures
/// guarantee this by construction.
pub trait RoleLeaderElect: Send + Sync {
    /// Number of roles (2 or 3 for the paper's objects).
    fn roles(&self) -> usize;

    /// Build the protocol for the given role.
    ///
    /// # Panics
    ///
    /// Panics if `role >= self.roles()`.
    fn elect_as(&self, role: usize) -> Box<dyn Protocol>;
}

/// A splitter-like object: `split()` returns `S`, `L`, or `R` (encoded as
/// [`rtas_sim::protocol::ret::SPLIT_STOP`] / `SPLIT_LEFT` / `SPLIT_RIGHT`).
pub trait SplitterObject: Send + Sync {
    /// Build the per-process protocol performing one `split()` call.
    fn split(&self) -> Box<dyn Protocol>;
}

#[cfg(test)]
mod tests {
    use super::*;

    // The traits must stay object-safe: tests and tools hold them as
    // `&dyn …`.
    #[test]
    fn traits_are_object_safe() {
        fn _role(_: &dyn RoleLeaderElect) {}
        fn _sp(_: &dyn SplitterObject) {}
    }
}
