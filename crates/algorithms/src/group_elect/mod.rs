//! The Group Election primitive (Section 2.1).
//!
//! A `GroupElect` object provides `elect() → {True, False}`; if any
//! processes call it, at least one must get elected. Its quality is its
//! *performance parameter* `f`: the smallest function such that the
//! expected number of elected processes is at most `f(k)` when `k`
//! processes participate. The paper builds leader election from a ladder
//! of group elections (Lemma 2.1), so smaller `f` means a shorter ladder:
//!
//! * [`GeometricGroupElect`] (Figure 1) achieves `f(k) ≤ 2·log₂ k + 6`
//!   against the location-oblivious adversary (Lemma 2.2) — the
//!   ingredient of the O(log* k) algorithm;
//! * [`SiftingGroupElect`] (Alistarh–Aspnes) achieves
//!   `f(k) ≈ πk + 1/π` against the R/W-oblivious adversary — the
//!   ingredient of the O(log log k) algorithm;
//! * [`DummyGroupElect`] elects everyone using zero registers and zero
//!   steps — the tail filler that brings the O(log* k) algorithm's space
//!   down to O(n) (Theorem 2.3).

mod geometric;
mod sifter;

pub use geometric::{ceil_log2, GeometricFrame, GeometricGroupElect};
pub use sifter::{SiftingFrame, SiftingGroupElect};

use rtas_sim::protocol::{boxed, ret, Const, Protocol};

/// A Group Election object.
///
/// `elect()` returns [`rtas_sim::protocol::ret::WIN`] (elected) or
/// [`rtas_sim::protocol::ret::LOSE`]. If one or more processes call
/// `elect()` and none crashes, at least one is elected.
///
/// Ladders do not go through this trait: a [`crate::LeChain`] describes its
/// levels' group elections by base register and stride
/// ([`crate::le_chain::GeLevels`]) and steps their frames directly.
pub trait GroupElect: Send + Sync {
    /// Build the per-process protocol performing one `elect()` call.
    fn elect(&self) -> Box<dyn Protocol>;
}

/// The trivial group election: everyone is elected, for free.
///
/// Theorem 2.3 replaces all but the first O(log n) geometric group
/// elections with dummies — with probability 1 − 1/n they are never
/// reached, and using them costs no registers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DummyGroupElect;

impl DummyGroupElect {
    /// A dummy group election.
    pub fn new() -> Self {
        DummyGroupElect
    }
}

impl GroupElect for DummyGroupElect {
    fn elect(&self) -> Box<dyn Protocol> {
        boxed(Const(ret::WIN))
    }
}

/// Measure a group election's elected count for one execution.
///
/// Runs `k` fresh `elect()` protocols under the given adversary and
/// returns `(elected, finished)` counts. Used by the Lemma 2.2 experiment
/// (E1) and the sifting-round experiment (E8).
pub fn run_group_election(
    mut memory: rtas_sim::memory::Memory,
    ge: &dyn GroupElect,
    k: usize,
    seed: u64,
    adversary: &mut dyn rtas_sim::adversary::Adversary,
) -> (usize, usize) {
    let _ = &mut memory;
    let protos = (0..k).map(|_| ge.elect()).collect();
    let res = rtas_sim::executor::Execution::new(memory, protos, seed).run(adversary);
    let elected = res.processes_with_outcome(ret::WIN).len();
    let finished = res.outcomes().iter().filter(|o| o.is_some()).count();
    (elected, finished)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_sim::adversary::RoundRobin;
    use rtas_sim::executor::Execution;
    use rtas_sim::memory::Memory;
    use rtas_sim::word::ProcessId;

    #[test]
    fn dummy_elects_everyone_with_zero_steps() {
        let mem = Memory::new();
        let ge = DummyGroupElect::new();
        let protos = (0..5).map(|_| ge.elect()).collect();
        let res = Execution::new(mem, protos, 0).run(&mut RoundRobin::new(5));
        assert!(res.all_finished());
        for i in 0..5 {
            assert_eq!(res.outcome(ProcessId(i)), Some(ret::WIN));
        }
        assert_eq!(res.steps().total(), 0);
        assert_eq!(res.memory().declared_registers(), 0);
    }

    #[test]
    fn run_group_election_counts() {
        let mem = Memory::new();
        let (elected, finished) =
            run_group_election(mem, &DummyGroupElect::new(), 7, 0, &mut RoundRobin::new(7));
        assert_eq!(elected, 7);
        assert_eq!(finished, 7);
    }
}
