//! Elimination paths (Section 3.2, Claim 3.1).
//!
//! An elimination path of length `ℓ` is a row of `ℓ` nodes, each holding a
//! deterministic splitter `SP_i` and a 2-process election `LE_i`. A process
//! enters at node 1 and moves right until it wins a splitter (`S`), loses
//! (`L`), or falls off the right end; a splitter winner then moves *left*,
//! winning `LE_i, LE_{i−1}, …` until it loses or wins `LE_1` — the path's
//! winner.
//!
//! Claim 3.1: if at most `ℓ` processes enter a path of length `ℓ`, no
//! process falls off the right end (each node's splitter retires at least
//! one process). The paper replaces RatRace's Θ(n²) backup grid with one
//! length-`n` elimination path, and the tall primary tree with a short
//! tree plus `n / log n` length-`4·log n` paths — the Θ(n)-register
//! redesign measured in experiment E4.
//!
//! Note the structural identity: an elimination path is exactly the
//! Section 2.1 ladder with *dummy* group elections. It is implemented
//! directly here (rather than via [`crate::le_chain`]) because its users
//! need the distinct outcome `FELL_OFF` and entry of the winner into a
//! parent structure.

use rtas_primitives::{Splitter, TwoProcessLe};
use rtas_sim::memory::Memory;
use rtas_sim::protocol::{ret, Ctx, Protocol, Resume};
use rtas_sim::word::{RegId, Word};

use crate::frame::{Frame, FrameStack, SideFrame, Step};

/// Outcome values of an elimination-path `enter()`.
pub mod path_ret {
    use rtas_sim::word::Word;

    /// Lost inside the path.
    pub const LOSE: Word = rtas_sim::protocol::ret::LOSE;
    /// Won the path (won `LE_1`).
    pub const WIN: Word = rtas_sim::protocol::ret::WIN;
    /// Fell off the right end (more than `ℓ` processes entered).
    pub const FELL_OFF: Word = 2;
}

/// Registers per node: a splitter and a 2-process election.
const NODE_REGISTERS: u64 = Splitter::REGISTERS + TwoProcessLe::REGISTERS;

/// An elimination path of fixed length. Node `i`'s splitter and
/// 2-process election are the 4 registers at `base + 4i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EliminationPath {
    base: RegId,
    length: usize,
}

impl EliminationPath {
    /// Allocate a path of `length` nodes under the given label.
    ///
    /// # Panics
    ///
    /// Panics if `length == 0`.
    pub fn new(memory: &mut Memory, length: usize, label: &str) -> Self {
        assert!(length >= 1, "elimination path needs at least one node");
        let base = memory.alloc(Splitter::REGISTERS, label).start();
        memory.alloc(TwoProcessLe::REGISTERS, label);
        for _ in 1..length {
            memory.alloc(Splitter::REGISTERS, label);
            memory.alloc(TwoProcessLe::REGISTERS, label);
        }
        EliminationPath::at(base, length)
    }

    /// The path of `length` nodes whose registers start at `base`.
    #[inline]
    pub(crate) fn at(base: RegId, length: usize) -> Self {
        EliminationPath { base, length }
    }

    /// Path length `ℓ`.
    pub fn length(&self) -> usize {
        self.length
    }

    /// Registers used: 4 per node.
    pub fn registers(&self) -> u64 {
        self.length as u64 * NODE_REGISTERS
    }

    /// Build the protocol for one process entering at node 1.
    ///
    /// Returns [`path_ret::WIN`], [`path_ret::LOSE`], or
    /// [`path_ret::FELL_OFF`].
    pub fn enter(&self) -> Box<dyn Protocol> {
        Box::new(FrameStack::new(Frame::Side(SideFrame::Path(self.frame()))))
    }

    /// The frame of one process entering at node 1.
    #[inline]
    pub(crate) fn frame(self) -> PathFrame {
        PathFrame {
            path: self,
            state: State::Split,
            node: 0,
            role: 0,
        }
    }

    #[inline]
    fn splitter(self, node: usize) -> Splitter {
        Splitter::at(self.base.offset(node as u64 * NODE_REGISTERS))
    }

    #[inline]
    fn le(self, node: usize) -> TwoProcessLe {
        TwoProcessLe::at(
            self.base
                .offset(node as u64 * NODE_REGISTERS + Splitter::REGISTERS),
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// About to try `SP_node`.
    Split,
    /// Waiting for `SP_node.split()`.
    AfterSplit,
    /// About to try `LE_node` as `role`.
    Climb,
    /// Waiting for `LE_node.elect_as(role)`.
    AfterClimb,
}

/// One process's walk along an elimination path.
#[derive(Debug, Clone, Copy)]
pub struct PathFrame {
    path: EliminationPath,
    state: State,
    node: usize,
    role: usize,
}

impl PathFrame {
    #[inline(always)]
    pub(crate) fn step(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Step {
        loop {
            match self.state {
                State::Split => {
                    self.state = State::AfterSplit;
                    return Step::Call(SideFrame::Split(self.path.splitter(self.node).frame()));
                }
                State::AfterSplit => match input.child_value() {
                    v if v == ret::SPLIT_LEFT => return Step::Done(path_ret::LOSE),
                    v if v == ret::SPLIT_RIGHT => {
                        self.node += 1;
                        if self.node == self.path.length {
                            return Step::Done(path_ret::FELL_OFF);
                        }
                        self.state = State::Split;
                    }
                    v if v == ret::SPLIT_STOP => {
                        // Won SP_node: climb left through the elections.
                        // The note feeds Section 4's combiner (Rule 3).
                        ctx.notes.won_splitter = true;
                        self.role = 0;
                        self.state = State::Climb;
                    }
                    other => panic!("invalid splitter result {other}"),
                },
                State::Climb => {
                    self.state = State::AfterClimb;
                    return Step::Call(SideFrame::TwoProcess(
                        self.path.le(self.node).frame(self.role),
                    ));
                }
                State::AfterClimb => {
                    if input.child_value() == ret::LOSE {
                        return Step::Done(path_ret::LOSE);
                    }
                    if self.node == 0 {
                        return Step::Done(path_ret::WIN);
                    }
                    self.node -= 1;
                    self.role = 1;
                    self.state = State::Climb;
                }
            }
        }
    }
}

/// A `Word` result classifier shared by tests and RatRace.
pub fn is_win(w: Word) -> bool {
    w == path_ret::WIN
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_sim::adversary::{RandomSchedule, RoundRobin};
    use rtas_sim::executor::Execution;
    use rtas_sim::word::ProcessId;

    fn run_path(length: usize, k: usize, seed: u64) -> Vec<Word> {
        let mut mem = Memory::new();
        let path = EliminationPath::new(&mut mem, length, "ep");
        let protos = (0..k).map(|_| path.enter()).collect();
        let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed ^ 0xE9));
        assert!(res.all_finished());
        (0..k).map(|i| res.outcome(ProcessId(i)).unwrap()).collect()
    }

    #[test]
    fn solo_process_wins_first_node() {
        let outs = run_path(3, 1, 0);
        assert_eq!(outs, vec![path_ret::WIN]);
    }

    #[test]
    fn claim_3_1_no_fall_off_when_k_at_most_length() {
        for length in [2usize, 4, 8] {
            for k in 1..=length {
                for seed in 0..25 {
                    let outs = run_path(length, k, seed);
                    assert!(
                        outs.iter().all(|&o| o != path_ret::FELL_OFF),
                        "ℓ={length} k={k} seed={seed}: {outs:?}"
                    );
                    let wins = outs.iter().filter(|&&o| is_win(o)).count();
                    assert_eq!(wins, 1, "ℓ={length} k={k} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn overloaded_path_may_fall_off_but_never_two_winners() {
        let mut fell = false;
        for seed in 0..60 {
            let outs = run_path(2, 5, seed);
            let wins = outs.iter().filter(|&&o| is_win(o)).count();
            assert!(wins <= 1);
            fell |= outs.contains(&path_ret::FELL_OFF);
        }
        // With 5 processes on a length-2 path, fall-off should occur at
        // least sometimes.
        assert!(fell);
    }

    #[test]
    fn lockstep_schedule_unique_winner() {
        for k in [2usize, 3, 4] {
            let mut mem = Memory::new();
            let path = EliminationPath::new(&mut mem, k, "ep");
            let protos = (0..k).map(|_| path.enter()).collect();
            let res = Execution::new(mem, protos, 1).run(&mut RoundRobin::new(k));
            assert!(res.all_finished());
            assert_eq!(res.processes_with_outcome(path_ret::WIN).len(), 1);
        }
    }

    #[test]
    fn register_accounting() {
        let mut mem = Memory::new();
        let path = EliminationPath::new(&mut mem, 7, "ep");
        assert_eq!(path.registers(), 28);
        assert_eq!(mem.declared_registers(), 28);
        assert_eq!(path.length(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_length_panics() {
        let mut mem = Memory::new();
        let _ = EliminationPath::new(&mut mem, 0, "ep");
    }

    #[test]
    fn exhaustive_two_processes_on_short_path() {
        // All schedules × coins for 2 processes on a length-2 path:
        // exactly one winner on complete paths, never a fall-off
        // (Claim 3.1 with k = ℓ = 2), never two winners anywhere.
        use rtas_sim::explore::{explore, ExploreConfig};
        let max_steps = if cfg!(debug_assertions) { 14 } else { 16 };
        let stats = explore(
            || {
                let mut mem = Memory::new();
                let path = EliminationPath::new(&mut mem, 2, "ep");
                (mem, (0..2).map(|_| path.enter()).collect())
            },
            ExploreConfig {
                max_steps,
                max_paths: 40_000_000,
            },
            |e| {
                let wins = e.with_outcome(path_ret::WIN).len();
                assert!(wins <= 1, "{:?}", e.outcomes);
                assert!(
                    e.with_outcome(path_ret::FELL_OFF).is_empty(),
                    "fall-off with k <= ℓ: {:?}",
                    e.outcomes
                );
                if e.all_finished() {
                    assert_eq!(wins, 1, "{:?}", e.outcomes);
                }
            },
        );
        assert!(stats.paths > 500);
    }

    #[test]
    fn splitter_win_sets_combiner_note() {
        // The elimination path must raise Notes::won_splitter for Rule 3
        // of the Section 4 combiner.
        use rtas_sim::op::MemOp;
        use rtas_sim::protocol::{Notes, Poll};
        use rtas_sim::rng::SplitMix64;
        let mut mem = Memory::new();
        let path = EliminationPath::new(&mut mem, 2, "ep");
        let mut stack = FrameStack::new(Frame::Side(SideFrame::Path(path.frame())));
        let mut rng = SplitMix64::new(0);
        let mut notes = Notes::default();
        let mut input = Resume::Start;
        loop {
            let poll = {
                let mut ctx = Ctx {
                    pid: rtas_sim::word::ProcessId(0),
                    rng: &mut rng,
                    notes: &mut notes,
                };
                stack.advance(input, &mut ctx)
            };
            match poll {
                Poll::Done(v) => {
                    assert_eq!(v, path_ret::WIN);
                    break;
                }
                Poll::Op(MemOp::Read(r)) => input = Resume::Read(mem.read(r).value),
                Poll::Op(MemOp::Write(r, v)) => {
                    mem.write(r, v, rtas_sim::word::ProcessId(0));
                    input = Resume::Wrote;
                }
            }
        }
        assert!(notes.won_splitter, "solo winner must have won a splitter");
    }
}
