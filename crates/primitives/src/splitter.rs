//! The deterministic splitter of Moir & Anderson (WDAG 1994).
//!
//! A splitter uses two registers:
//!
//! * `X` — a "racing" register each caller stamps with its id,
//! * `Y` — a one-shot door.
//!
//! `split()` is four steps: write `X := me`; read `Y` (door closed → `L`);
//! write `Y := 1`; read `X` (still me → `S`, else `R`).
//!
//! Properties (for `k` callers): at most one caller returns `S`; at most
//! `k−1` return `L`; at most `k−1` return `R`; a solo caller returns `S`.
//! These are exactly the properties the paper's Section 2.1 ladder and the
//! elimination paths rely on, and the tests verify them **exhaustively**
//! for 2 and 3 processes via [`rtas_sim::explore`].

use rtas_sim::memory::Memory;
use rtas_sim::op::MemOp;
use rtas_sim::protocol::{ret, Ctx, Poll, Protocol, Resume};
use rtas_sim::word::{RegId, Word};

use crate::object::SplitterObject;

/// Descriptor of one deterministic splitter (2 registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Splitter {
    /// `X`; the door `Y` is the register after it.
    x: RegId,
}

impl Splitter {
    /// Allocate a splitter's registers under the given label.
    pub fn new(memory: &mut Memory, label: &str) -> Self {
        Splitter::at(memory.alloc(2, label).start())
    }

    /// Allocate from a pre-allocated 2-register range (used by lazily
    /// allocated structures like the original RatRace grid).
    pub fn from_range(range: rtas_sim::memory::RegRange) -> Self {
        assert!(range.len() >= 2, "splitter needs 2 registers");
        Splitter::at(range.start())
    }

    /// The splitter whose 2 registers start at `base`.
    #[inline]
    pub const fn at(base: RegId) -> Self {
        Splitter { x: base }
    }

    /// Number of registers a splitter occupies.
    pub const REGISTERS: u64 = 2;

    /// The frame of one `split()` call.
    #[inline]
    pub const fn frame(self) -> SplitFrame {
        SplitFrame {
            sp: self,
            state: State::Init,
        }
    }

    #[inline]
    fn y(self) -> RegId {
        self.x.offset(1)
    }
}

impl SplitterObject for Splitter {
    fn split(&self) -> Box<dyn Protocol> {
        Box::new(self.frame())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Init,
    WroteX,
    ReadY,
    WroteY,
    ReadX,
}

/// One `split()` call in progress.
#[derive(Debug, Clone, Copy)]
pub struct SplitFrame {
    sp: Splitter,
    state: State,
}

impl Protocol for SplitFrame {
    #[inline(always)]
    fn resume(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        // X stores pid + 1 so that 0 remains "nobody".
        let me = ctx.pid.index() as Word + 1;
        match self.state {
            State::Init => {
                self.state = State::WroteX;
                Poll::Op(MemOp::Write(self.sp.x, me))
            }
            State::WroteX => {
                self.state = State::ReadY;
                Poll::Op(MemOp::Read(self.sp.y()))
            }
            State::ReadY => {
                if input.read_value() != 0 {
                    return Poll::Done(ret::SPLIT_LEFT);
                }
                self.state = State::WroteY;
                Poll::Op(MemOp::Write(self.sp.y(), 1))
            }
            State::WroteY => {
                self.state = State::ReadX;
                Poll::Op(MemOp::Read(self.sp.x))
            }
            State::ReadX => {
                if input.read_value() == me {
                    Poll::Done(ret::SPLIT_STOP)
                } else {
                    Poll::Done(ret::SPLIT_RIGHT)
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "splitter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_sim::adversary::{RandomSchedule, RoundRobin};
    use rtas_sim::executor::Execution;
    use rtas_sim::explore::{explore, ExploreConfig};
    use rtas_sim::word::ProcessId;

    fn run_k(k: usize, seed: u64) -> Vec<Word> {
        let mut mem = Memory::new();
        let sp = Splitter::new(&mut mem, "sp");
        let protos = (0..k).map(|_| sp.split()).collect();
        let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed));
        assert!(res.all_finished());
        (0..k).map(|i| res.outcome(ProcessId(i)).unwrap()).collect()
    }

    fn check_splitter_properties(outs: &[Word]) {
        let k = outs.len();
        let stops = outs.iter().filter(|&&o| o == ret::SPLIT_STOP).count();
        let lefts = outs.iter().filter(|&&o| o == ret::SPLIT_LEFT).count();
        let rights = outs.iter().filter(|&&o| o == ret::SPLIT_RIGHT).count();
        assert!(stops <= 1, "two processes won the splitter");
        assert!(lefts < k, "all got L");
        assert!(rights < k, "all got R");
    }

    #[test]
    fn solo_caller_stops() {
        assert_eq!(run_k(1, 0), vec![ret::SPLIT_STOP]);
    }

    #[test]
    fn properties_hold_on_random_schedules() {
        for k in [2usize, 3, 5, 16] {
            for seed in 0..40 {
                check_splitter_properties(&run_k(k, seed));
            }
        }
    }

    #[test]
    fn round_robin_two_processes() {
        let mut mem = Memory::new();
        let sp = Splitter::new(&mut mem, "sp");
        let protos = (0..2).map(|_| sp.split()).collect();
        let res = Execution::new(mem, protos, 0).run(&mut RoundRobin::new(2));
        let outs = [
            res.outcome(ProcessId(0)).unwrap(),
            res.outcome(ProcessId(1)).unwrap(),
        ];
        check_splitter_properties(&outs);
        // Lockstep: P0 writes X, P1 overwrites X, both pass the door, both
        // fail the X check? No: P1's X survives, so P1 stops, P0 gets R.
        assert_eq!(outs[0], ret::SPLIT_RIGHT);
        assert_eq!(outs[1], ret::SPLIT_STOP);
    }

    #[test]
    fn exhaustive_two_processes() {
        let stats = explore(
            || {
                let mut mem = Memory::new();
                let sp = Splitter::new(&mut mem, "sp");
                (mem, (0..2).map(|_| sp.split()).collect())
            },
            ExploreConfig::default(),
            |e| {
                assert!(e.all_finished());
                let outs: Vec<Word> = e.outcomes.iter().map(|o| o.unwrap()).collect();
                check_splitter_properties(&outs);
            },
        );
        assert!(stats.paths >= 6, "explored {} paths", stats.paths);
        assert_eq!(stats.truncated_paths, 0);
    }

    #[test]
    fn exhaustive_three_processes() {
        let stats = explore(
            || {
                let mut mem = Memory::new();
                let sp = Splitter::new(&mut mem, "sp");
                (mem, (0..3).map(|_| sp.split()).collect())
            },
            ExploreConfig::default(),
            |e| {
                assert!(e.all_finished());
                let outs: Vec<Word> = e.outcomes.iter().map(|o| o.unwrap()).collect();
                check_splitter_properties(&outs);
            },
        );
        assert!(stats.paths > 100);
        assert_eq!(stats.truncated_paths, 0);
    }

    #[test]
    fn register_accounting() {
        let mut mem = Memory::new();
        let _sp = Splitter::new(&mut mem, "sp");
        assert_eq!(mem.declared_registers(), Splitter::REGISTERS);
    }

    #[test]
    fn from_range_uses_given_registers() {
        let mut mem = Memory::new();
        let range = mem.alloc(2, "pre");
        let sp = Splitter::from_range(range);
        let protos = vec![sp.split()];
        let res = Execution::new(mem, protos, 0).run(&mut RoundRobin::new(1));
        assert_eq!(res.outcome(ProcessId(0)), Some(ret::SPLIT_STOP));
    }

    #[test]
    #[should_panic(expected = "needs 2 registers")]
    fn from_short_range_panics() {
        let mut mem = Memory::new();
        let range = mem.alloc(1, "short");
        let _ = Splitter::from_range(range);
    }
}
