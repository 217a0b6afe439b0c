//! Linearizable one-shot test-and-set from leader election.
//!
//! The paper (Preliminaries, citing Golab, Hendler & Woelfel) observes that
//! any leader-election object plus **one** extra register yields a
//! linearizable TAS in which each `TAS()` call performs at most one
//! `elect()` plus one read and possibly one write:
//!
//! ```text
//! TAS():
//!   if DONE.read() == 1: return 1          // someone already won
//!   if elect() == WIN:   return 0          // we are the winner
//!   DONE.write(1); return 1                // a loser marks the object set
//! ```
//!
//! The winner's `TAS()` returns `0` (it saw the bit as unset and set it);
//! every other call returns `1`. Linearization: the winner's call is
//! ordered first among all calls that passed the `DONE` check; calls that
//! read `DONE == 1` are ordered after the loser-write that set it.
//!
//! This object is **one-shot per process**: each process may call `TAS()`
//! at most once, matching the paper's TAS usage.

use std::sync::Arc;

use rtas_sim::memory::Memory;
use rtas_sim::op::MemOp;
use rtas_sim::protocol::{ret, Ctx, Poll, Protocol, Resume};
use rtas_sim::word::{RegId, Word};

use crate::combined::CombinedFrame;
use crate::frame::{Frame, FrameStack, LeRoot, SideStack, Stack, StackFrame, Step};
use crate::LeaderElect;

/// A one-shot TAS built from a leader-election object and one register.
#[derive(Debug, Clone, Copy)]
pub struct TasFromLe {
    le: LeRoot,
    done: RegId,
}

impl TasFromLe {
    /// Wrap `le` into a TAS, allocating the extra `DONE` register.
    pub fn new(memory: &mut Memory, le: Arc<dyn LeaderElect>, label: &str) -> Self {
        let done = memory.alloc(1, label).get(0);
        TasFromLe {
            le: le.root(),
            done,
        }
    }

    /// Build the protocol performing one `TAS()` call.
    ///
    /// Returns `0` if this process wins (the bit was unset), `1` otherwise.
    pub fn tas(&self) -> Box<dyn Protocol> {
        Box::new(FrameStack::new(Frame::Tas(self.frame())))
    }

    /// The frame of one `TAS()` call.
    pub(crate) fn frame(self) -> TasFrame {
        let election = match self.le {
            LeRoot::Side(root) => Election::Side(SideStack::new(root)),
            LeRoot::Combined(c) => Election::Combined(Stack::new(c.frame())),
        };
        TasFrame {
            done: self.done,
            state: State::Start,
            election,
        }
    }

    /// Extra registers beyond those of the leader-election object.
    pub const EXTRA_REGISTERS: u64 = 1;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Start,
    CheckedDone,
    Electing,
    WroteDone,
}

/// The `elect()` a TAS call runs, on a stack of its own.
// Frames are `Copy` and live inline on the runner's stack; boxing the
// combiner variant would put an allocation back on the op path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy)]
enum Election {
    Side(SideStack),
    Combined(Stack<CombinedFrame, 1>),
}

impl Election {
    #[inline(always)]
    fn advance(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        match self {
            Election::Side(stack) => stack.advance(input, ctx),
            Election::Combined(stack) => stack.advance(input, ctx),
        }
    }
}

/// One `TAS()` call in progress. Its `elect()` runs inline: the frame
/// forwards the election's operations one at a time.
#[derive(Debug, Clone, Copy)]
pub struct TasFrame {
    done: RegId,
    state: State,
    election: Election,
}

impl StackFrame for TasFrame {
    #[inline(always)]
    fn step(&mut self, mut input: Resume, ctx: &mut Ctx<'_>) -> Step {
        loop {
            match self.state {
                State::Start => {
                    self.state = State::CheckedDone;
                    return Step::Op(MemOp::Read(self.done));
                }
                State::CheckedDone => {
                    if input.read_value() == 1 {
                        return Step::Done(1);
                    }
                    self.state = State::Electing;
                    input = Resume::Start;
                }
                State::Electing => {
                    let won: Word = match self.election.advance(input, ctx) {
                        Poll::Op(op) => return Step::Op(op),
                        Poll::Done(v) => v,
                    };
                    if won == ret::WIN {
                        return Step::Done(0);
                    }
                    self.state = State::WroteDone;
                    return Step::Op(MemOp::Write(self.done, 1));
                }
                State::WroteDone => return Step::Done(1),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::SideFrame;
    use crate::le_chain::{GeLevels, LeChain, OverflowPolicy};
    use crate::{Combined, LogStarLe, SpaceEfficientRatRace};
    use rtas_primitives::TwoProcessLe;
    use rtas_sim::adversary::{RandomSchedule, RoundRobin};
    use rtas_sim::executor::Execution;
    use rtas_sim::explore::{explore, ExploreConfig};
    use rtas_sim::word::ProcessId;

    /// TAS over a bare 2-process election: process `i` plays role `i`,
    /// so both processes are inside the election from their second step.
    fn tas_system(k: usize) -> (Memory, Vec<Box<dyn Protocol>>) {
        assert!(k <= 2);
        let mut mem = Memory::new();
        let two = TwoProcessLe::new(&mut mem, "2le");
        let done = mem.alloc(1, "done").get(0);
        let protos = (0..k)
            .map(|role| {
                let le = LeRoot::Side(SideFrame::TwoProcess(two.frame(role)));
                TasFromLe { le, done }.tas()
            })
            .collect();
        (mem, protos)
    }

    /// TAS over a 2-level ladder of dummy group elections: a splitter
    /// and a 2-process election per level.
    fn ladder_tas_system(k: usize) -> (Memory, Vec<Box<dyn Protocol>>) {
        let mut mem = Memory::new();
        let le = Arc::new(LeChain::new(
            &mut mem,
            GeLevels::Dummy,
            2,
            OverflowPolicy::Lose,
            "ladder",
        ));
        let tas = TasFromLe::new(&mut mem, le, "done");
        let protos = (0..k).map(|_| tas.tas()).collect();
        (mem, protos)
    }

    #[test]
    fn solo_tas_returns_zero() {
        let (mem, protos) = tas_system(1);
        let res = Execution::new(mem, protos, 0).run(&mut RoundRobin::new(1));
        assert_eq!(res.outcome(ProcessId(0)), Some(0));
    }

    #[test]
    fn two_process_tas_exactly_one_zero() {
        for system in [tas_system, ladder_tas_system] {
            for seed in 0..200 {
                let (mem, protos) = system(2);
                let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed));
                assert!(res.all_finished());
                let zeros = res.processes_with_outcome(0).len();
                assert_eq!(zeros, 1, "seed {seed}: {:?}", res.outcomes());
            }
        }
    }

    #[test]
    fn tas_over_every_root_kind_has_one_zero() {
        for seed in 0..40 {
            let k = 5;
            let mut mem = Memory::new();
            let weak = Arc::new(LogStarLe::new(&mut mem, k));
            let combined = Arc::new(Combined::new(&mut mem, weak, k));
            let over_combined = TasFromLe::new(&mut mem, combined, "done");
            let ratrace = Arc::new(SpaceEfficientRatRace::new(&mut mem, k));
            let over_ratrace = TasFromLe::new(&mut mem, ratrace, "done");
            let protos = (0..k)
                .map(|_| over_combined.tas())
                .chain((0..k).map(|_| over_ratrace.tas()))
                .collect();
            let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed));
            assert!(res.all_finished());
            let zeros = |range: std::ops::Range<usize>| {
                range
                    .filter(|&i| res.outcome(ProcessId(i)) == Some(0))
                    .count()
            };
            assert_eq!(zeros(0..k), 1, "seed {seed}");
            assert_eq!(zeros(k..2 * k), 1, "seed {seed}");
        }
    }

    #[test]
    fn exhaustive_two_process_tas_safety() {
        let max_steps = if cfg!(debug_assertions) { 16 } else { 18 };
        let stats = explore(
            || tas_system(2),
            ExploreConfig {
                max_steps,
                max_paths: 40_000_000,
            },
            |e| {
                let zeros = e.with_outcome(0).len();
                assert!(zeros <= 1, "two TAS winners: {:?}", e.outcomes);
                if e.all_finished() {
                    assert_eq!(zeros, 1, "no TAS winner: {:?}", e.outcomes);
                }
            },
        );
        assert!(stats.paths > 1000);
    }

    #[test]
    fn extra_register_is_one() {
        let mut mem = Memory::new();
        let le = Arc::new(LogStarLe::new(&mut mem, 2));
        let before = mem.declared_registers();
        let _tas = TasFromLe::new(&mut mem, le, "done");
        assert_eq!(
            mem.declared_registers() - before,
            TasFromLe::EXTRA_REGISTERS
        );
    }
}
