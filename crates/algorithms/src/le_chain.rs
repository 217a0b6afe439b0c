//! Leader election from Group Elections (Section 2.1, Lemma 2.1).
//!
//! The ladder uses `n` levels, each with a group election `GE_i`, a
//! deterministic splitter `SP_i`, and a 2-process election `LE_i`:
//!
//! * a process runs `GE_1, GE_2, …`; losing any group election loses the
//!   leader election;
//! * an elected process calls `SP_i.split()`: `L` → lose, `R` → continue
//!   to level `i + 1`, `S` → *win the splitter* and stop descending;
//! * the splitter winner of level `i` climbs back through the 2-process
//!   elections `LE_i, LE_{i−1}, …, LE_1` (entering `LE_i` as role 0; the
//!   winner of `LE_{j+1}` enters `LE_j` as role 1). Winning `LE_1` wins
//!   the leader election.
//!
//! At most one process enters each `LE_j` per role: role 0 is `SP_j`'s
//! unique winner, role 1 is `LE_{j+1}`'s unique winner. If `j > 0`
//! processes call `GE_i.elect()`, at most `f(j) − 1` reach level `i + 1`
//! (the splitter always retires at least one), so with a performance
//! parameter `f(k) = 2·log k + 6` the expected ladder depth is
//! `Δ_{f−1}(k) = O(log* k)` (Lemma 2.1; experiment E10 checks the bound
//! numerically).
//!
//! The ladder is also the chassis of the adaptive sifting algorithm
//! (Theorem 2.4), which needs processes that exhaust a *short* ladder to
//! **overflow** to a bigger one instead of losing — hence
//! [`OverflowPolicy`].

use rtas_primitives::{Splitter, TwoProcessLe};
use rtas_sim::memory::Memory;
use rtas_sim::protocol::{ret, Protocol, Resume};
use rtas_sim::word::{RegId, Word};

use crate::frame::{LeRoot, SideFrame, Step};
use crate::group_elect::{GeometricGroupElect, SiftingGroupElect};
use crate::LeaderElect;

/// Outcome values of a chain `elect()` (as `Word`s).
pub mod chain_ret {
    use rtas_sim::word::Word;

    /// Lost the leader election.
    pub const LOSE: Word = rtas_sim::protocol::ret::LOSE;
    /// Won the leader election (won `LE_1`).
    pub const WIN: Word = rtas_sim::protocol::ret::WIN;
    /// Passed every level without losing or winning a splitter
    /// (only with [`super::OverflowPolicy::Overflow`]).
    pub const OVERFLOW: Word = 2;
}

/// Typed view of a chain outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainOutcome {
    /// Lost the leader election.
    Lose,
    /// Won the leader election.
    Win,
    /// Fell off the end of the ladder (overflow policy only).
    Overflow,
}

impl ChainOutcome {
    /// Decode a protocol result word.
    ///
    /// # Panics
    ///
    /// Panics on an unknown value.
    pub fn from_word(w: Word) -> ChainOutcome {
        match w {
            chain_ret::LOSE => ChainOutcome::Lose,
            chain_ret::WIN => ChainOutcome::Win,
            chain_ret::OVERFLOW => ChainOutcome::Overflow,
            other => panic!("invalid chain outcome {other}"),
        }
    }
}

/// What happens to a process that passes the last level still alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// It loses (sound when the ladder has ≥ n levels, since each level
    /// retires at least one process — the Theorem 2.3 configuration).
    Lose,
    /// It returns [`chain_ret::OVERFLOW`] so a wrapper can move it to the
    /// next structure (the Theorem 2.4 configuration).
    Overflow,
}

/// The group elections of a ladder's levels: the first `count` levels
/// carry real group elections of one kind, allocated one after the other
/// at a fixed stride, and every later level a dummy (everyone elected,
/// zero registers, zero steps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GeLevels {
    /// Every level is a dummy.
    Dummy,
    /// Geometric group elections (Figure 1), all with the same `ℓ`.
    Geometric {
        /// The first level's group election.
        first: GeometricGroupElect,
        /// Levels with a real group election.
        count: usize,
    },
    /// Sifting rounds on consecutive registers; round `i` writes with
    /// probability `π_i = 1/√s_i` for `cap` processes, where
    /// `s_0 = max(cap, 4)` and `s_{i+1} = max(√s_i, 4)`.
    Sifting {
        /// The first round's register.
        first: RegId,
        /// Levels with a real sifting round.
        count: usize,
        /// The capacity the probability schedule is tuned for.
        cap: usize,
    },
}

impl GeLevels {
    /// Allocate `count` geometric group elections sized for `n`.
    pub fn geometric(memory: &mut Memory, count: usize, n: usize, label: &str) -> Self {
        let mut first = None;
        for _ in 0..count {
            let ge = GeometricGroupElect::new(memory, n, label);
            first.get_or_insert(ge);
        }
        match first {
            Some(first) => GeLevels::Geometric { first, count },
            None => GeLevels::Dummy,
        }
    }

    /// Allocate `count` sifting rounds tuned for `cap` processes.
    pub fn sifting(memory: &mut Memory, count: usize, cap: usize, label: &str) -> Self {
        let mut first = None;
        for i in 0..count {
            let ge = SiftingGroupElect::new(memory, sifting_probability(cap, i), label);
            first.get_or_insert(ge.register());
        }
        match first {
            Some(first) => GeLevels::Sifting { first, count, cap },
            None => GeLevels::Dummy,
        }
    }

    /// The frame of level `level`'s group election, or `None` for a dummy.
    #[inline(always)]
    fn elect(self, level: usize) -> Option<SideFrame> {
        match self {
            GeLevels::Geometric { first, count } if level < count => {
                Some(SideFrame::Geometric(first.nth(level as u64).frame()))
            }
            GeLevels::Sifting { first, count, cap } if level < count => {
                let ge = SiftingGroupElect::at(
                    first.offset(level as u64),
                    sifting_probability(cap, level),
                );
                Some(SideFrame::Sifting(ge.frame()))
            }
            _ => None,
        }
    }
}

/// Sifting round `round`'s write probability in a ladder tuned for `cap`
/// processes: `π_i = 1/√s_i` with `s_0 = max(cap, 4)` and
/// `s_{i+1} = max(√s_i, 4)`, the expected survivor count of round `i`.
pub(crate) fn sifting_probability(cap: usize, round: usize) -> f64 {
    let mut s = (cap.max(4)) as f64;
    for _ in 0..round {
        s = s.sqrt().max(4.0);
    }
    SiftingGroupElect::probability_for_expected(s)
}

/// The ladder structure: one group election + splitter + 2-process LE per
/// level. Level `i`'s splitter and 2-process election are the 4
/// registers at `ladder + 4i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeChain {
    ladder: RegId,
    levels: usize,
    ges: GeLevels,
    policy: OverflowPolicy,
}

impl LeChain {
    /// Build a ladder of `levels` levels over the given group elections,
    /// allocating the splitters and 2-process elections.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is 0.
    pub fn new(
        memory: &mut Memory,
        ges: GeLevels,
        levels: usize,
        policy: OverflowPolicy,
        label: &str,
    ) -> Self {
        assert!(levels >= 1, "a chain needs at least one level");
        let mut ladder = None;
        for _ in 0..levels {
            let level = memory.alloc(Splitter::REGISTERS, label).start(); // SP_i
            memory.alloc(TwoProcessLe::REGISTERS, label); // LE_i
            ladder.get_or_insert(level);
        }
        LeChain::at(ladder.expect("at least one level"), levels, ges, policy)
    }

    /// The ladder whose level registers start at `ladder`.
    #[inline]
    pub(crate) fn at(ladder: RegId, levels: usize, ges: GeLevels, policy: OverflowPolicy) -> Self {
        LeChain {
            ladder,
            levels,
            ges,
            policy,
        }
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Registers used by the splitters and 2-process elections
    /// (4 per level; group elections account separately).
    pub fn ladder_registers(&self) -> u64 {
        self.levels as u64 * LEVEL_REGISTERS
    }

    /// Build the per-process `elect()` protocol.
    pub fn elect(&self) -> Box<dyn Protocol> {
        LeaderElect::elect(self)
    }

    /// The frame of one `elect()` call.
    #[inline]
    pub(crate) fn frame(self) -> ChainFrame {
        ChainFrame {
            chain: self,
            state: State::Descend,
            level: 0,
            role: 0,
        }
    }

    #[inline]
    fn splitter(self, level: usize) -> Splitter {
        Splitter::at(self.ladder.offset(level as u64 * LEVEL_REGISTERS))
    }

    #[inline]
    fn le(self, level: usize) -> TwoProcessLe {
        TwoProcessLe::at(
            self.ladder
                .offset(level as u64 * LEVEL_REGISTERS + Splitter::REGISTERS),
        )
    }
}

/// Registers per ladder level: a splitter and a 2-process election.
const LEVEL_REGISTERS: u64 = Splitter::REGISTERS + TwoProcessLe::REGISTERS;

impl LeaderElect for LeChain {
    fn root(&self) -> LeRoot {
        LeRoot::Side(SideFrame::Chain(self.frame()))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// About to run `GE_level`.
    Descend,
    /// Waiting for `GE_level.elect()`.
    AfterGe,
    /// Waiting for `SP_level.split()`.
    AfterSplit,
    /// About to run `LE_level` as `role`.
    Climb,
    /// Waiting for `LE_level.elect_as(role)`.
    AfterClimb,
}

/// One ladder `elect()` call in progress.
#[derive(Debug, Clone, Copy)]
pub struct ChainFrame {
    chain: LeChain,
    state: State,
    level: usize,
    role: usize,
}

impl ChainFrame {
    #[inline(always)]
    pub(crate) fn step(&mut self, mut input: Resume) -> Step {
        loop {
            match self.state {
                State::Descend => {
                    self.state = State::AfterGe;
                    match self.chain.ges.elect(self.level) {
                        Some(ge) => return Step::Call(ge),
                        // A dummy elects everyone, without a step.
                        None => input = Resume::Child(ret::WIN),
                    }
                }
                State::AfterGe => {
                    if input.child_value() == ret::LOSE {
                        return Step::Done(chain_ret::LOSE);
                    }
                    self.state = State::AfterSplit;
                    return Step::Call(SideFrame::Split(self.chain.splitter(self.level).frame()));
                }
                State::AfterSplit => {
                    match input.child_value() {
                        v if v == ret::SPLIT_LEFT => return Step::Done(chain_ret::LOSE),
                        v if v == ret::SPLIT_STOP => {
                            self.role = 0;
                            self.state = State::Climb;
                            // fall through the loop to Climb
                        }
                        v if v == ret::SPLIT_RIGHT => {
                            self.level += 1;
                            if self.level == self.chain.levels {
                                return match self.chain.policy {
                                    OverflowPolicy::Lose => Step::Done(chain_ret::LOSE),
                                    OverflowPolicy::Overflow => Step::Done(chain_ret::OVERFLOW),
                                };
                            }
                            self.state = State::Descend;
                        }
                        other => panic!("invalid splitter result {other}"),
                    }
                }
                State::Climb => {
                    self.state = State::AfterClimb;
                    return Step::Call(SideFrame::TwoProcess(
                        self.chain.le(self.level).frame(self.role),
                    ));
                }
                State::AfterClimb => {
                    if input.child_value() == ret::LOSE {
                        return Step::Done(chain_ret::LOSE);
                    }
                    if self.level == 0 {
                        return Step::Done(chain_ret::WIN);
                    }
                    self.level -= 1;
                    self.role = 1;
                    self.state = State::Climb;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_sim::adversary::{RandomSchedule, RoundRobin};
    use rtas_sim::executor::Execution;
    use rtas_sim::word::ProcessId;

    fn dummy_chain(memory: &mut Memory, levels: usize) -> LeChain {
        LeChain::new(
            memory,
            GeLevels::Dummy,
            levels,
            OverflowPolicy::Lose,
            "chain",
        )
    }

    fn geometric_chain(memory: &mut Memory, n: usize) -> LeChain {
        let ges = GeLevels::geometric(memory, n, n, "ge");
        LeChain::new(memory, ges, n, OverflowPolicy::Lose, "chain")
    }

    #[test]
    fn chain_outcome_roundtrip() {
        assert_eq!(ChainOutcome::from_word(chain_ret::WIN), ChainOutcome::Win);
        assert_eq!(ChainOutcome::from_word(chain_ret::LOSE), ChainOutcome::Lose);
        assert_eq!(
            ChainOutcome::from_word(chain_ret::OVERFLOW),
            ChainOutcome::Overflow
        );
    }

    #[test]
    #[should_panic(expected = "invalid chain outcome")]
    fn bad_outcome_panics() {
        let _ = ChainOutcome::from_word(9);
    }

    #[test]
    fn solo_process_wins() {
        let mut mem = Memory::new();
        let chain = dummy_chain(&mut mem, 4);
        let res = Execution::new(mem, vec![chain.elect()], 0).run(&mut RoundRobin::new(1));
        assert_eq!(res.outcome(ProcessId(0)), Some(chain_ret::WIN));
    }

    #[test]
    fn unique_winner_dummy_chain_random_schedules() {
        for k in [2usize, 3, 6, 12] {
            for seed in 0..50 {
                let mut mem = Memory::new();
                // With dummy GEs, each level retires ≥1 process via the
                // splitter, so k levels always suffice.
                let chain = dummy_chain(&mut mem, k);
                let protos = (0..k).map(|_| chain.elect()).collect();
                let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed * 5));
                assert!(res.all_finished(), "k={k} seed={seed}");
                assert_eq!(
                    res.processes_with_outcome(chain_ret::WIN).len(),
                    1,
                    "k={k} seed={seed}: {:?}",
                    res.outcomes()
                );
            }
        }
    }

    #[test]
    fn unique_winner_geometric_chain_random_schedules() {
        for k in [2usize, 5, 16] {
            for seed in 0..40 {
                let mut mem = Memory::new();
                let chain = geometric_chain(&mut mem, k.max(4));
                let protos = (0..k).map(|_| chain.elect()).collect();
                let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed * 9));
                assert!(res.all_finished(), "k={k} seed={seed}");
                assert_eq!(
                    res.processes_with_outcome(chain_ret::WIN).len(),
                    1,
                    "k={k} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn overflow_policy_reports_fall_off() {
        // One level, two processes: with a dummy GE both get elected; the
        // splitter lets at most one through to level 2 = overflow.
        let mut overflow_seen = false;
        for seed in 0..60 {
            let mut mem = Memory::new();
            let chain = LeChain::new(
                &mut mem,
                GeLevels::Dummy,
                1,
                OverflowPolicy::Overflow,
                "chain",
            );
            let protos = (0..2).map(|_| chain.elect()).collect();
            let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed));
            assert!(res.all_finished());
            let overflows = res.processes_with_outcome(chain_ret::OVERFLOW).len();
            let wins = res.processes_with_outcome(chain_ret::WIN).len();
            assert!(wins <= 1);
            overflow_seen |= overflows > 0;
        }
        assert!(overflow_seen, "no overflow in 60 runs of a 1-level chain");
    }

    #[test]
    fn ladder_register_accounting() {
        let mut mem = Memory::new();
        let chain = dummy_chain(&mut mem, 10);
        assert_eq!(chain.levels(), 10);
        assert_eq!(chain.ladder_registers(), 40);
        assert_eq!(mem.declared_registers(), 40);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_chain_panics() {
        let mut mem = Memory::new();
        let _ = LeChain::new(&mut mem, GeLevels::Dummy, 0, OverflowPolicy::Lose, "chain");
    }

    #[test]
    fn sifting_levels_follow_the_probability_schedule() {
        let mut mem = Memory::new();
        let ges = GeLevels::sifting(&mut mem, 3, 1 << 16, "sift");
        assert_eq!(mem.declared_registers(), 3);
        assert_eq!(sifting_probability(1 << 16, 0), 1.0 / 256.0);
        assert_eq!(sifting_probability(1 << 16, 1), 1.0 / 16.0);
        assert_eq!(sifting_probability(1 << 16, 2), 1.0 / 4.0);
        assert!(ges.elect(2).is_some());
        assert!(
            ges.elect(3).is_none(),
            "levels past the real ones are dummies"
        );
    }

    #[test]
    fn steps_stay_small_for_moderate_contention() {
        // Sanity check of the O(Δ_{f−1}(k)) behaviour: with k = 32 the
        // expected max steps should be well below the Ω(k) regime.
        let k = 32;
        let mut total = 0u64;
        let trials = 30;
        for seed in 0..trials {
            let mut mem = Memory::new();
            let chain = geometric_chain(&mut mem, k);
            let protos = (0..k).map(|_| chain.elect()).collect();
            let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed + 2));
            assert!(res.all_finished());
            total += res.steps().max();
        }
        let mean = total as f64 / trials as f64;
        assert!(mean < 60.0, "mean max steps {mean}");
    }
}
