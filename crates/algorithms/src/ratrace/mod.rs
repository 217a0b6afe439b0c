//! RatRace (Alistarh, Attiya, Gilbert, Giurgiu & Guerraoui, DISC 2010) and
//! the paper's space-efficient redesign (Section 3).
//!
//! Both variants are adaptive leader elections with O(log k) expected step
//! complexity (also w.h.p.) against the **adaptive** adversary. They differ
//! only in space:
//!
//! * [`OriginalRatRace`] — primary tree of height `3·log n` (Θ(n³)
//!   registers) plus an `n × n` backup grid (Θ(n²) registers). The huge
//!   structures are lazily materialized, so the simulator can declare them
//!   while only paying for what executions touch — which is exactly the
//!   Θ(n³)-declared vs O(k·polylog) -touched contrast experiment E4
//!   tabulates.
//! * [`SpaceEfficientRatRace`] — the paper's contribution: a tree of
//!   height `log n`, `n / log n` elimination paths of length `4·log n`
//!   for leaf overflow, and one length-`n` backup elimination path;
//!   Θ(n) registers total.

mod original;
mod space_efficient;

pub use original::{OriginalFrame, OriginalRatRace};
pub use space_efficient::{RatRaceFrame, SpaceEfficientRatRace};
